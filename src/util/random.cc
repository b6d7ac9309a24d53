#include "util/random.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>

#include "util/check.h"

namespace crossmodal {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t key) {
  return SplitMix64(SplitMix64(seed) ^ SplitMix64(key * 0xD6E8FEB86659FD93ULL + 1));
}

uint64_t DeriveSeed(uint64_t seed, const char* key) {
  // FNV-1a over the string, then mixed with the parent seed.
  uint64_t h = 0xCBF29CE484222325ULL;
  for (const char* p = key; *p != '\0'; ++p) {
    h ^= static_cast<unsigned char>(*p);
    h *= 0x100000001B3ULL;
  }
  return DeriveSeed(seed, h);
}

uint64_t JitteredBackoffUs(uint64_t base_us, uint64_t max_us, int exponent,
                           uint64_t seed) {
  const uint64_t capped =
      std::min<uint64_t>(base_us * (1ULL << std::min(exponent, 32)), max_us);
  Rng rng(seed);
  return capped / 2 + rng.UniformInt(capped / 2 + 1);
}

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) {
    x = SplitMix64(x);
    s = x;
  }
  // xoshiro must not be seeded with all zeros.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

static inline uint64_t Rotl(uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

uint64_t Rng::operator()() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53-bit mantissa from the top bits.
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::UniformInt(uint64_t n) {
  CM_DCHECK_GT(n, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  CM_DCHECK_LE(lo, hi);
  return lo + static_cast<int64_t>(
                  UniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::Normal() {
  // Box–Muller; discards the second variate for statelessness.
  double u1 = Uniform();
  while (u1 <= 0.0) u1 = Uniform();
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

size_t Rng::Categorical(const std::vector<double>& weights) {
  CM_DCHECK(!weights.empty());
  // Release builds compile the checks out; the contract below keeps the
  // result well-defined anyway: an empty weight vector draws index 0, and a
  // non-positive total falls through to the last bucket.
  if (weights.empty()) return 0;
  double total = 0.0;
  for (double w : weights) {
    CM_DCHECK_GE(w, 0.0);
    total += w;
  }
  CM_DCHECK_GT(total, 0.0);
  double r = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;  // Floating point edge: return the last bucket.
}

int Rng::GeometricCount(double p_continue, int cap) {
  int count = 0;
  while (count < cap && Bernoulli(p_continue)) ++count;
  return count;
}

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  for (size_t i = n; i > 1; --i) {
    const size_t j = UniformInt(i);
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  CM_DCHECK_LE(k, n);
  // Partial Fisher–Yates over an index vector.
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  for (size_t i = 0; i < k; ++i) {
    const size_t j = i + UniformInt(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace crossmodal
