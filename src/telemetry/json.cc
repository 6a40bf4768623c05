#include "src/telemetry/json.h"

#include <cmath>
#include <cstdio>

namespace bds {
namespace telemetry {

void AppendJsonString(std::ostream& os, std::string_view s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      default:
        os << c;
    }
  }
  os << '"';
}

void AppendJsonDouble(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

Status WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return UnavailableError("cannot open for writing: " + path);
  }
  size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  int close_err = std::fclose(f);
  if (written != contents.size() || close_err != 0) {
    return UnavailableError("short write: " + path);
  }
  return Status::Ok();
}

}  // namespace telemetry
}  // namespace bds
