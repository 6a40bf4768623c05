// The one stream digest behind every fingerprint (RunReport, CycleDecision,
// the ladder's transition log, SteadyStateReport): splitmix64-style mixing,
// order-sensitive, bit-exact across platforms.

#ifndef BDS_SRC_COMMON_DIGEST_H_
#define BDS_SRC_COMMON_DIGEST_H_

#include <cstdint>
#include <cstring>

namespace bds {

struct Digest {
  uint64_t h = 0x9E3779B97F4A7C15ULL;

  void Mix(uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 31;
  }
  void MixDouble(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    Mix(bits);
  }
};

}  // namespace bds

#endif  // BDS_SRC_COMMON_DIGEST_H_
