// The §5.4 confidence algebra (DESIGN.md §15).
//
// Heuristics::run() annotates every assignment with a probability-style
// confidence in [0,1] (PARI-style propagation: relationship-derived
// evidence carries a prior from asdata::RelationshipStore). Confidence
// never feeds placement decisions and is excluded from
// eval::same_border_map.
#pragma once

#include <cstddef>

#include "asdata/as_relationships.h"
#include "core/router_graph.h"

namespace bdrmap::core {

// Documented properties (unit-tested in tests/heuristic_confidence_test.cc):
//   * every combinator maps into [0,1];
//   * both() and either() are commutative bitwise-exactly in IEEE double
//     (operand symmetry), and associative up to floating-point rounding;
//   * either(c, e) >= c and support(p, n) is non-decreasing in n — adding
//     supporting evidence never lowers a confidence;
//   * everything is pure rational arithmetic on already-deterministic
//     inputs, so results are identical at any thread count.
namespace conf {

inline double clamp01(double x) {
  return x < 0.0 ? 0.0 : (x > 1.0 ? 1.0 : x);
}

// AND-combination: the conclusion needs both pieces of evidence.
inline double both(double a, double b) { return clamp01(a) * clamp01(b); }

// noisy-OR: either observation alone supports the conclusion. The naive
// a + b - a*b can round below max(a, b) (e.g. a=0.9, b=1.0), so the result
// is floored at the larger operand — "adding evidence never lowers a
// confidence" holds exactly, not just up to rounding.
inline double either(double a, double b) {
  a = clamp01(a);
  b = clamp01(b);
  const double noisy_or = clamp01(a + b - a * b);
  const double strongest = a > b ? a : b;
  return noisy_or > strongest ? noisy_or : strongest;
}

// n independent supporting observations of strength p each:
// 1 - (1-p)^n, computed by repeated multiplication (no libm pow, so the
// value is bit-stable across platforms and monotone in n by construction).
inline double support(double p, int n) {
  p = clamp01(p);
  if (n <= 0) return 0.0;
  double miss = 1.0;
  for (int i = 0; i < n && miss > 0.0; ++i) miss *= 1.0 - p;
  return 1.0 - miss;
}

// k-of-n majority share.
inline double vote(std::size_t k, std::size_t n) {
  if (n == 0) return 0.0;
  if (k > n) k = n;
  return static_cast<double>(k) / static_cast<double>(n);
}

// Priors on relationship-store edges (the store holds *inferred*
// relationships, so an edge is evidence, not truth — PARI's premise).
inline constexpr double kConsistentEdgePrior = 0.95;  // both directions agree
inline constexpr double kOneSidedEdgePrior = 0.70;    // asymmetric dump row
// Fallback strength for weakly-constrained steps (single destination org,
// nothing routed beyond).
inline constexpr double kWeakEvidence = 0.4;
// Discount for conclusions propagated one hop from their evidence (the
// §5.4.4 step-4.2 / §5.4.5 step-5.1 "preceding router" inferences).
inline constexpr double kIndirectEvidence = 0.9;

// Prior that the relationship edge between a and b is real:
// kConsistentEdgePrior when rel(a,b) and rel(b,a) are mutually inverse,
// kOneSidedEdgePrior when only one direction (or an inconsistent pair) is
// recorded, 0 when the store has no edge at all.
double relationship_prior(const asdata::RelationshipStore& rels, AsId a,
                          AsId b);

// Base prior of each §5.4 rule tag (Table 1 row), reflecting how
// constrained the paper argues the inference is. prior(kNone) == 0.
double prior(Heuristic how);

}  // namespace conf

}  // namespace bdrmap::core
