// Deterministic random number generation.
//
// All stochastic components of the library draw from Rng, a counter-free
// splitmix64/xoshiro-based generator with explicit 64-bit seeding, so every
// corpus, model fit, and benchmark is bit-reproducible across runs and
// platforms. Stable per-key derivation (DeriveSeed) lets services behave as
// pure functions of (seed, entity) regardless of evaluation order.

#ifndef CROSSMODAL_UTIL_RANDOM_H_
#define CROSSMODAL_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace crossmodal {

/// Mixes a 64-bit value through the splitmix64 finalizer; used for seeding
/// and stable hashing.
uint64_t SplitMix64(uint64_t x);

/// Derives a child seed from a parent seed and a stream key, such that
/// distinct keys give statistically independent streams.
uint64_t DeriveSeed(uint64_t seed, uint64_t key);

/// Derives a seed from a seed and a string key (e.g. a service name).
uint64_t DeriveSeed(uint64_t seed, const char* key);

/// Capped exponential backoff with deterministic jitter: min(base_us <<
/// exponent, max_us) scaled into [0.5, 1.0]x by one draw from Rng(seed).
/// Each retry site derives `seed` from its own stream, so sites never share
/// draws. Shifts saturate at 32.
uint64_t JitteredBackoffUs(uint64_t base_us, uint64_t max_us, int exponent,
                           uint64_t seed);

/// Deterministic pseudo-random generator (xoshiro256**).
///
/// Satisfies the UniformRandomBitGenerator concept, so it can also be used
/// with <random> distributions when convenient, but the member helpers below
/// are platform-stable (libstdc++ distributions are not guaranteed to be).
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the generator; equal seeds give equal streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64-bit draw.
  uint64_t operator()();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). n must be > 0.
  uint64_t UniformInt(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal draw (Box–Muller; stateless variant, two uniforms).
  double Normal();

  /// Normal draw with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  /// Draws an index in [0, weights.size()) with probability proportional to
  /// weights[i]. Weights must be non-negative with positive sum
  /// (CM_DCHECK-enforced in debug/sanitizer builds). Release builds keep
  /// the result defined: empty weights draw 0; a non-positive sum draws the
  /// last bucket.
  size_t Categorical(const std::vector<double>& weights);

  /// Geometric-ish heavy-tailed count: number of successes before failure,
  /// capped at `cap`.
  int GeometricCount(double p_continue, int cap);

  /// Fisher–Yates shuffle of [0, n) index vector.
  std::vector<size_t> Permutation(size_t n);

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  uint64_t s_[4];
};

}  // namespace crossmodal

#endif  // CROSSMODAL_UTIL_RANDOM_H_
