// Deterministic random number generation for the synthetic Internet.
//
// Everything in the generator is seeded, and the probe engines key their
// draws (netbase/mix.h), so a given (seed, config) pair reproduces the same
// Internet, the same traceroute idiosyncrasies, and the same inference
// results — required for the tests and for regenerating the paper's
// tables bit-for-bit across runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "netbase/mix.h"

namespace bdrmap::net {

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
