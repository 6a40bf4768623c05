// Fundamental identifier and unit types shared by every BDS module.
//
// The simulator is a fluid model: byte counts and rates are doubles so that
// fractional progress within a scheduling cycle is representable. Identifier
// types are thin integer aliases; kInvalid* sentinels mark "unset".

#ifndef BDS_SRC_COMMON_TYPES_H_
#define BDS_SRC_COMMON_TYPES_H_

#include <cstdint>
#include <limits>

namespace bds {

// Identifiers. Dense, zero-based, assigned by the owning container.
using DcId = int32_t;      // A datacenter.
using ServerId = int32_t;  // A server (overlay node) within some DC.
using LinkId = int32_t;    // A directed capacity-constrained link.
using PathId = int32_t;    // An enumerated overlay/WAN path.
using BlockId = int64_t;   // A data block (unit of scheduling).
using JobId = int64_t;     // A multicast transfer (one file, one source DC, many dests).
using FlowId = int64_t;    // An active transfer of bytes along a path in the simulator.

inline constexpr DcId kInvalidDc = -1;
inline constexpr ServerId kInvalidServer = -1;
inline constexpr LinkId kInvalidLink = -1;
inline constexpr PathId kInvalidPath = -1;
inline constexpr BlockId kInvalidBlock = -1;
inline constexpr JobId kInvalidJob = -1;
inline constexpr FlowId kInvalidFlow = -1;

// Units. Seconds / bytes / bytes-per-second throughout; helpers below convert.
using SimTime = double;  // Seconds since simulation start.
using Bytes = double;    // Fluid byte count.
using Rate = double;     // Bytes per second.

inline constexpr SimTime kTimeInfinity = std::numeric_limits<double>::infinity();

inline constexpr Bytes KB(double v) { return v * 1e3; }
inline constexpr Bytes MB(double v) { return v * 1e6; }
inline constexpr Bytes GB(double v) { return v * 1e9; }
inline constexpr Bytes TB(double v) { return v * 1e12; }

// Rates are commonly quoted in the paper in Mbps / MBps / GBps.
inline constexpr Rate Mbps(double v) { return v * 1e6 / 8.0; }
inline constexpr Rate Gbps(double v) { return v * 1e9 / 8.0; }
inline constexpr Rate MBps(double v) { return v * 1e6; }
inline constexpr Rate GBps(double v) { return v * 1e9; }

inline constexpr double ToMinutes(SimTime seconds) { return seconds / 60.0; }
inline constexpr SimTime Minutes(double m) { return m * 60.0; }
inline constexpr SimTime Hours(double h) { return h * 3600.0; }

// Floating-point slop used when comparing byte counts and rates. The fluid
// model accumulates rounding error proportional to the number of events; one
// part in 10^6 of a byte/second is far below any quantity we care about.
inline constexpr double kFluidEpsilon = 1e-6;

}  // namespace bds

#endif  // BDS_SRC_COMMON_TYPES_H_
