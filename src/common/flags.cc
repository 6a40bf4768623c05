#include "src/common/flags.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace bds {

void FlagParser::AddInt(const std::string& name, int* target, const std::string& help) {
  flags_.push_back({name, Kind::kInt, target, help});
}
void FlagParser::AddDouble(const std::string& name, double* target, const std::string& help) {
  flags_.push_back({name, Kind::kDouble, target, help});
}
void FlagParser::AddBool(const std::string& name, bool* target, const std::string& help) {
  flags_.push_back({name, Kind::kBool, target, help});
}
void FlagParser::AddString(const std::string& name, std::string* target, const std::string& help) {
  flags_.push_back({name, Kind::kString, target, help});
}

const FlagParser::Flag* FlagParser::Find(const std::string& name) const {
  for (const Flag& f : flags_) {
    if (f.name == name) {
      return &f;
    }
  }
  return nullptr;
}

bool FlagParser::Assign(const Flag& flag, const std::string& value) const {
  char* end = nullptr;
  switch (flag.kind) {
    case Kind::kInt: {
      long v = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return false;
      }
      *static_cast<int*>(flag.target) = static_cast<int>(v);
      return true;
    }
    case Kind::kDouble: {
      double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        return false;
      }
      *static_cast<double*>(flag.target) = v;
      return true;
    }
    case Kind::kBool: {
      if (value == "true" || value == "1") {
        *static_cast<bool*>(flag.target) = true;
        return true;
      }
      if (value == "false" || value == "0") {
        *static_cast<bool*>(flag.target) = false;
        return true;
      }
      return false;
    }
    case Kind::kString: {
      *static_cast<std::string*>(flag.target) = value;
      return true;
    }
  }
  return false;
}

bool FlagParser::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(Usage(argv[0]).c_str(), stderr);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n", arg.c_str());
      return false;
    }
    std::string body = arg.substr(2);
    std::string value;
    bool has_value = false;
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      value = body.substr(eq + 1);
      body = body.substr(0, eq);
      has_value = true;
    }

    const Flag* flag = Find(body);
    if (flag == nullptr && body.rfind("no-", 0) == 0) {
      const Flag* base = Find(body.substr(3));
      if (base != nullptr && base->kind == Kind::kBool && !has_value) {
        *static_cast<bool*>(base->target) = false;
        continue;
      }
    }
    if (flag == nullptr) {
      std::fprintf(stderr, "unknown flag: --%s\n%s", body.c_str(), Usage(argv[0]).c_str());
      return false;
    }
    if (!has_value) {
      if (flag->kind == Kind::kBool) {
        *static_cast<bool*>(flag->target) = true;
        continue;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag --%s needs a value\n", body.c_str());
        return false;
      }
      value = argv[++i];
    }
    if (!Assign(*flag, value)) {
      std::fprintf(stderr, "bad value for --%s: '%s'\n", body.c_str(), value.c_str());
      return false;
    }
  }
  return true;
}

std::string FlagParser::Usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const Flag& f : flags_) {
    os << "  --" << f.name << "  " << f.help << "\n";
  }
  return os.str();
}

}  // namespace bds
