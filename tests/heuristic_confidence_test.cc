// Property tests for the §5.4 confidence algebra (DESIGN.md §15,
// core/confidence.h): every combinator maps into [0,1], both()/
// either() are commutative bitwise and associative up to rounding,
// support() is monotone in added evidence, the per-rule priors are
// well-formed, relationship priors read the store as documented, and the
// confidences a full pipeline emits are bit-identical at any thread count
// and stay in [0,1] on fuzzer-drawn topologies (failing fuzz cases print
// the one-line tools/scenario_fuzz repro). Suite name carries "Heuristic" for the tsan
// stage's ctest filter.
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asdata/as_relationships.h"
#include "core/bdrmap.h"
#include "core/confidence.h"
#include "eval/fuzzer.h"
#include "eval/scenario.h"
#include "runtime/thread_pool.h"

namespace bdrmap::core {
namespace {

// In-range probabilities plus hostile out-of-range inputs: the algebra
// must clamp, never propagate garbage.
const std::vector<double> kGrid = {0.0,  1e-9, 0.1, 0.25, 1.0 / 3.0, 0.5,
                                   0.75, 0.9,  1.0, -0.5, 1.5,       42.0};

TEST(HeuristicConfidenceTest, CombinatorsStayInUnitInterval) {
  for (double a : kGrid) {
    for (double b : kGrid) {
      for (double v : {conf::both(a, b), conf::either(a, b)}) {
        EXPECT_GE(v, 0.0) << "a=" << a << " b=" << b;
        EXPECT_LE(v, 1.0) << "a=" << a << " b=" << b;
      }
    }
    for (int n : {-3, 0, 1, 2, 7, 100}) {
      double v = conf::support(a, n);
      EXPECT_GE(v, 0.0) << "p=" << a << " n=" << n;
      EXPECT_LE(v, 1.0) << "p=" << a << " n=" << n;
    }
  }
  for (std::size_t k : {0u, 1u, 3u, 10u}) {
    for (std::size_t n : {0u, 1u, 3u, 10u}) {
      double v = conf::vote(k, n);
      EXPECT_GE(v, 0.0) << "k=" << k << " n=" << n;
      EXPECT_LE(v, 1.0) << "k=" << k << " n=" << n;
    }
  }
}

TEST(HeuristicConfidenceTest, BothAndEitherCommuteBitwise) {
  // IEEE + and * are commutative, so operand order must not change a
  // single bit — the parity suite relies on this being exact.
  for (double a : kGrid) {
    for (double b : kGrid) {
      EXPECT_EQ(conf::both(a, b), conf::both(b, a)) << a << " " << b;
      EXPECT_EQ(conf::either(a, b), conf::either(b, a)) << a << " " << b;
    }
  }
}

TEST(HeuristicConfidenceTest, AssociativeUpToRounding) {
  // Associativity is documented "up to floating-point rounding": grouping
  // may differ in the last ulps but never materially.
  for (double a : kGrid) {
    for (double b : kGrid) {
      for (double c : kGrid) {
        EXPECT_NEAR(conf::both(conf::both(a, b), c),
                    conf::both(a, conf::both(b, c)), 1e-12);
        EXPECT_NEAR(conf::either(conf::either(a, b), c),
                    conf::either(a, conf::either(b, c)), 1e-12);
      }
    }
  }
}

TEST(HeuristicConfidenceTest, MonotoneInAddedEvidence) {
  // either() never lowers a confidence, and one more supporting
  // observation never weakens support() — exactly, not approximately
  // (support multiplies miss by (1-p) <= 1, which cannot round upward).
  for (double a : kGrid) {
    for (double b : kGrid) {
      EXPECT_GE(conf::either(a, b), conf::clamp01(a)) << a << " " << b;
      EXPECT_GE(conf::either(a, b), conf::clamp01(b)) << a << " " << b;
    }
    for (int n = 0; n < 64; ++n) {
      EXPECT_LE(conf::support(a, n), conf::support(a, n + 1))
          << "p=" << a << " n=" << n;
    }
  }
  for (std::size_t n = 1; n < 12; ++n) {
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_LE(conf::vote(k, n), conf::vote(k + 1, n));
    }
  }
}

TEST(HeuristicConfidenceTest, VoteEdgeCases) {
  EXPECT_EQ(conf::vote(0, 0), 0.0);   // no votes cast
  EXPECT_EQ(conf::vote(5, 0), 0.0);
  EXPECT_EQ(conf::vote(0, 7), 0.0);
  EXPECT_EQ(conf::vote(7, 7), 1.0);
  EXPECT_EQ(conf::vote(9, 7), 1.0);   // k > n clamps to unanimity
  EXPECT_EQ(conf::vote(1, 2), 0.5);
}

TEST(HeuristicConfidenceTest, RulePriorsAreWellFormed) {
  EXPECT_EQ(conf::prior(Heuristic::kNone), 0.0);
  for (std::uint8_t raw = 1;
       raw <= static_cast<std::uint8_t>(Heuristic::kOtherIcmp); ++raw) {
    const auto how = static_cast<Heuristic>(raw);
    const double p = conf::prior(how);
    EXPECT_GT(p, 0.0) << heuristic_name(how);
    EXPECT_LE(p, 1.0) << heuristic_name(how);
  }
  // The paper's ordering of constraint strength must survive in the
  // priors: step 1 beats the counting fallbacks.
  EXPECT_GT(conf::prior(Heuristic::kVpNetwork),
            conf::prior(Heuristic::kCount));
  EXPECT_GT(conf::prior(Heuristic::kRelationship),
            conf::prior(Heuristic::kIpAs));
}

TEST(HeuristicConfidenceTest, RelationshipPriorReadsTheStore) {
  asdata::RelationshipStore rels;
  const AsId a{10}, b{20}, c{30}, d{40}, e{50};
  rels.add_c2p(a, b);  // consistent pair: both directions recorded
  rels.add_p2p(a, c);
  rels.add_raw(d, e, asdata::Relationship::kCustomer);  // one-sided row

  EXPECT_EQ(conf::relationship_prior(rels, a, b), conf::kConsistentEdgePrior);
  EXPECT_EQ(conf::relationship_prior(rels, b, a), conf::kConsistentEdgePrior);
  EXPECT_EQ(conf::relationship_prior(rels, a, c), conf::kConsistentEdgePrior);
  EXPECT_EQ(conf::relationship_prior(rels, d, e), conf::kOneSidedEdgePrior);
  EXPECT_EQ(conf::relationship_prior(rels, e, d), conf::kOneSidedEdgePrior);
  EXPECT_EQ(conf::relationship_prior(rels, a, d), 0.0);  // no edge at all
}

std::vector<double> link_confidences(const core::BdrmapResult& result) {
  std::vector<double> out;
  out.reserve(result.links.size());
  for (const auto& link : result.links) out.push_back(link.confidence);
  return out;
}

TEST(HeuristicConfidenceTest, DeterministicAcrossEightThreads) {
  // The algebra is pure rational arithmetic over deterministic inputs, so
  // an 8-worker parallel run must reproduce the 1-worker confidences
  // bitwise, not just the map.
  auto run = [](unsigned workers) {
    eval::Scenario s(eval::small_access_config(42));
    std::vector<topo::Vp> vps = s.vps_in(s.featured_access());
    if (vps.size() > 2) vps.resize(2);
    runtime::ThreadPool pool(workers);
    return s.run_bdrmap_parallel(vps, {}, 0x515, &pool);
  };
  runtime::MultiVpResult one = run(1);
  runtime::MultiVpResult eight = run(8);
  ASSERT_EQ(one.per_vp.size(), eight.per_vp.size());
  for (std::size_t i = 0; i < one.per_vp.size(); ++i) {
    EXPECT_EQ(link_confidences(one.per_vp[i]),
              link_confidences(eight.per_vp[i]))
        << "vp " << i;
    ASSERT_FALSE(one.per_vp[i].links.empty());
  }
}

TEST(HeuristicConfidenceTest, FuzzedTopologiesHoldTheProperties) {
  // Fuzzer-drawn topologies (generator jitter): every emitted confidence
  // is in [0,1]. A failing (family, seed) prints the exact scenario_fuzz
  // rerun command.
  for (const std::string& family : eval::default_fuzz_families()) {
    for (std::uint64_t seed : {11u, 12u}) {
      const std::string repro = "repro: tools/scenario_fuzz --family " +
                                family + " --base-seed " +
                                std::to_string(seed) + " --seeds 1";
      eval::Scenario s(eval::fuzzed_spec(family, seed));
      net::AsId vp_as = s.first_of(s.spec().vp_kind);
      core::BdrmapResult result = s.run_bdrmap(s.vps_in(vp_as).front());
      for (const auto& link : result.links) {
        EXPECT_GE(link.confidence, 0.0) << repro;
        EXPECT_LE(link.confidence, 1.0) << repro;
      }
      EXPECT_FALSE(result.links.empty()) << repro;
    }
  }
}

}  // namespace
}  // namespace bdrmap::core
