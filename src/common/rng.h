// Deterministic pseudo-random number generation for simulations.
//
// Every stochastic component takes an explicit Rng (or a seed) so that
// experiments are reproducible run-to-run; nothing in the library touches
// global random state. The core generator is splitmix64-seeded xoshiro256**.

#ifndef BDS_SRC_COMMON_RNG_H_
#define BDS_SRC_COMMON_RNG_H_

#include <cstdint>
#include <vector>

namespace bds {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // Uniform over the full 64-bit range.
  uint64_t NextUint64();

  // Uniform in [0, 1).
  double NextDouble();

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform real in [lo, hi).
  double Uniform(double lo, double hi);

  // true with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  // Standard normal via Box-Muller, then scaled.
  double Normal(double mean, double stddev);

  // Exponential with the given mean (mean = 1/lambda). Requires mean > 0.
  double Exponential(double mean);

  // Log-normal: exp(Normal(mu_log, sigma_log)).
  double LogNormal(double mu_log, double sigma_log);

  // Sample k distinct indices from [0, n) uniformly (Floyd's algorithm).
  std::vector<int64_t> SampleWithoutReplacement(int64_t n, int64_t k);

  // In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (int64_t i = static_cast<int64_t>(v.size()) - 1; i > 0; --i) {
      int64_t j = UniformInt(0, i);
      using std::swap;
      swap(v[i], v[j]);
    }
  }

 private:
  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace bds

#endif  // BDS_SRC_COMMON_RNG_H_
