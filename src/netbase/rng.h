// Deterministic random number generation for the synthetic Internet.
//
// Everything in the generator and the probe engine is seeded, so a given
// (seed, config) pair reproduces the same Internet, the same traceroute
// idiosyncrasies, and the same inference results — required for the tests
// and for regenerating the paper's tables bit-for-bit across runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace bdrmap::net {

// Counter-based draws: the splitmix64 finalizer over a keyed combination.
// mix() is a pure function, so a draw keyed on (seed, key, n) comes out
// the same whatever was drawn before it, and costs no generator state.
// The runtime seeds its probe stacks with it, and alias probing keys its
// random replies on it (DESIGN.md §8).
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t z = a ^ (b * 0x9e3779b97f4a7c15ULL) ^
                    ((c + 1) * 0xbf58476d1ce4e5b9ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// A mix() draw mapped onto [0, 1) (its top 53 bits).
inline double unit_draw(std::uint64_t draw) {
  return static_cast<double>(draw >> 11) * 0x1.0p-53;
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform integer in [lo, hi] inclusive.
  std::uint32_t uniform(std::uint32_t lo, std::uint32_t hi) {
    return std::uniform_int_distribution<std::uint32_t>(lo, hi)(engine_);
  }

  // True with probability p (clamped to [0,1]).
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  double uniform_real(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Power-law-ish heavy-tailed integer in [lo, hi]: used for degree
  // distributions (a few huge transit networks, many small stubs).
  std::uint32_t pareto(std::uint32_t lo, std::uint32_t hi, double alpha) {
    double u = std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
    double x = static_cast<double>(lo) / std::pow(1.0 - u, 1.0 / alpha);
    if (x > static_cast<double>(hi)) x = static_cast<double>(hi);
    return static_cast<std::uint32_t>(x);
  }

  // Picks an index in [0, weights.size()) proportionally to weights.
  std::size_t weighted(const std::vector<double>& weights) {
    std::discrete_distribution<std::size_t> d(weights.begin(), weights.end());
    return d(engine_);
  }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  // Picks one element of a non-empty vector uniformly.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[uniform(0, static_cast<std::uint32_t>(v.size() - 1))];
  }

  // Derives an independent child generator; streams stay decoupled so adding
  // draws in one subsystem does not perturb another.
  Rng fork() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ULL); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace bdrmap::net
