/// \file rng.h
/// \brief Deterministic pseudo-random number generation (xoshiro256++).
///
/// All data generators take explicit seeds so every bench and test run is
/// exactly reproducible. xoshiro256++ is used instead of
/// std::mt19937 for speed and cross-platform determinism of the raw stream.
#pragma once

#include <cstdint>
#include <cmath>

namespace rj {

/// xoshiro256++ generator (public-domain algorithm by Blackman & Vigna).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull) {
    // SplitMix64 seeding, as recommended by the xoshiro authors.
    uint64_t z = seed;
    for (auto& si : s_) {
      z += 0x9E3779B97F4A7C15ull;
      uint64_t x = z;
      x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
      x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
      si = x ^ (x >> 31);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double Uniform() { return (Next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [0, n). Precondition: n > 0.
  uint64_t UniformInt(uint64_t n) { return Next() % n; }

  /// Standard normal via Box-Muller.
  double Normal() {
    double u1 = Uniform();
    double u2 = Uniform();
    if (u1 < 1e-300) u1 = 1e-300;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev) { return mean + stddev * Normal(); }

  /// Bernoulli trial with success probability p.
  bool Chance(double p) { return Uniform() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

}  // namespace rj
