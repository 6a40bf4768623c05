// The one JSON encoder behind every telemetry export: the Chrome trace and
// the run summary (trace.h), bds-flight-v1 (flight_recorder.h) and
// bds-slo-v1 (timeseries.h). It owns the format decisions those files share:
// doubles print as %.17g, so every value reads back as the same bits; a
// non-finite double prints as null, which JSON can parse; strings escape
// only `"`, `\` and newline, so callers pass no other control characters.

#ifndef BDS_SRC_TELEMETRY_JSON_H_
#define BDS_SRC_TELEMETRY_JSON_H_

#include <ostream>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace bds {
namespace telemetry {

// Appends `s` as a quoted JSON string.
void AppendJsonString(std::ostream& os, std::string_view s);

// Appends `v` as a JSON number (%.17g), or null when it is not finite.
void AppendJsonDouble(std::ostream& os, double v);

// Writes `contents` to `path`, replacing the file.
Status WriteFile(const std::string& path, const std::string& contents);

}  // namespace telemetry
}  // namespace bds

#endif  // BDS_SRC_TELEMETRY_JSON_H_
