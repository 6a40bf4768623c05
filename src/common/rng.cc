#include "src/common/rng.h"

#include <cmath>

#include "src/common/status.h"

namespace bds {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
  }
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    s_[0] = 1;
  }
}

uint64_t Rng::NextUint64() {
  // xoshiro256**
  uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  BDS_CHECK(lo <= hi);
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) {  // Full 64-bit range.
    return static_cast<int64_t>(NextUint64());
  }
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t x;
  do {
    x = NextUint64();
  } while (x >= limit);
  return lo + static_cast<int64_t>(x % range);
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

double Rng::Normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  // Box-Muller; u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - NextDouble();
  double u2 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

double Rng::Exponential(double mean) {
  BDS_CHECK(mean > 0.0);
  double u = 1.0 - NextDouble();  // (0, 1]
  return -mean * std::log(u);
}

double Rng::LogNormal(double mu_log, double sigma_log) {
  return std::exp(Normal(mu_log, sigma_log));
}

std::vector<int64_t> Rng::SampleWithoutReplacement(int64_t n, int64_t k) {
  BDS_CHECK(k >= 0 && k <= n);
  // Floyd's algorithm: O(k) expected draws, no O(n) scratch.
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(k));
  for (int64_t j = n - k; j < n; ++j) {
    int64_t t = UniformInt(0, j);
    bool seen = false;
    for (int64_t v : out) {
      if (v == t) {
        seen = true;
        break;
      }
    }
    out.push_back(seen ? j : t);
  }
  return out;
}

}  // namespace bds
