// Full-pipeline integration: generator -> routing -> probing -> alias
// resolution -> heuristics, scored against ground truth. Parameterized
// across seeds so the accuracy claims are not one lucky topology.
#include "core/bdrmap.h"

#include <gtest/gtest.h>

#include "core/baseline.h"
#include "eval/ground_truth.h"
#include "eval/scenario.h"

namespace bdrmap::core {
namespace {

class Pipeline : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Pipeline() : scenario_(eval::research_education_config(GetParam())) {}

  eval::Scenario scenario_;
};

TEST_P(Pipeline, LinkAccuracyInPaperRange) {
  net::AsId vp_as = scenario_.first_of(topo::AsKind::kResearchEdu);
  auto vps = scenario_.vps_in(vp_as);
  ASSERT_FALSE(vps.empty());
  auto result = scenario_.run_bdrmap(vps.front());
  eval::GroundTruth truth(scenario_.net(), vp_as);
  auto summary = truth.validate(result);
  ASSERT_GT(summary.links_total, 10u);
  // §5.6: 96.3% - 98.9% of links correct. Allow slack across seeds.
  EXPECT_GT(summary.link_accuracy(), 0.85)
      << summary.links_correct << "/" << summary.links_total;
}

TEST_P(Pipeline, FindsMostTrueNeighbors) {
  net::AsId vp_as = scenario_.first_of(topo::AsKind::kResearchEdu);
  auto result = scenario_.run_bdrmap(scenario_.vps_in(vp_as).front());
  eval::GroundTruth truth(scenario_.net(), vp_as);
  auto neighbors = truth.true_neighbors();
  std::size_t found = 0;
  for (net::AsId n : neighbors) {
    for (const auto& [as, links] : result.links_by_as) {
      if (truth.same_org(as, n)) {
        ++found;
        break;
      }
    }
  }
  ASSERT_GT(neighbors.size(), 10u);
  // The paper observes 92-97% of BGP neighbors; silent/unlucky neighbors
  // cost a little more in the simulation.
  EXPECT_GT(static_cast<double>(found) / static_cast<double>(neighbors.size()), 0.7)
      << found << "/" << neighbors.size();
}

TEST_P(Pipeline, BeatsNaiveBaselineOnRouterOwnership) {
  net::AsId vp_as = scenario_.first_of(topo::AsKind::kResearchEdu);
  auto inputs = scenario_.inputs_for(vp_as);
  auto result = scenario_.run_bdrmap(scenario_.vps_in(vp_as).front());
  eval::GroundTruth truth(scenario_.net(), vp_as);
  auto summary = truth.validate(result);

  // Baseline: longest-prefix IP-AS owner per far-side address.
  auto baseline =
      naive_ip_as(result.graph.traces(), *inputs.origins, inputs.vp_ases);
  std::size_t base_total = 0, base_correct = 0;
  for (const auto& [addr, as] : baseline.owners) {
    auto r = scenario_.net().router_at(addr);
    if (!r) continue;
    net::AsId truth_owner = scenario_.net().router(*r).owner;
    if (truth.same_org(truth_owner, vp_as)) continue;  // score far side
    ++base_total;
    base_correct += truth.same_org(as, truth_owner);
  }
  ASSERT_GT(base_total, 50u);
  double base_acc =
      static_cast<double>(base_correct) / static_cast<double>(base_total);
  double bdrmap_acc =
      static_cast<double>(summary.routers_correct) /
      static_cast<double>(summary.routers_total);
  EXPECT_GT(bdrmap_acc, base_acc);
}

TEST_P(Pipeline, DeterministicForSameSeed) {
  net::AsId vp_as = scenario_.first_of(topo::AsKind::kResearchEdu);
  auto vp = scenario_.vps_in(vp_as).front();
  auto a = scenario_.run_bdrmap(vp);
  auto b = scenario_.run_bdrmap(vp);
  EXPECT_EQ(a.links.size(), b.links.size());
  EXPECT_EQ(a.stats.probes_sent, b.stats.probes_sent);
  EXPECT_EQ(a.stats.routers, b.stats.routers);
}

TEST_P(Pipeline, StopSetReducesProbes) {
  net::AsId vp_as = scenario_.first_of(topo::AsKind::kResearchEdu);
  auto vp = scenario_.vps_in(vp_as).front();
  BdrmapConfig with, without;
  without.enable_stop_set = false;
  auto a = scenario_.run_bdrmap(vp, with);
  auto b = scenario_.run_bdrmap(vp, without);
  EXPECT_LT(a.stats.probes_sent, b.stats.probes_sent);
  EXPECT_GT(a.stats.stopset_hits, 0u);
}

TEST_P(Pipeline, InferredOwnersAreRealAses) {
  net::AsId vp_as = scenario_.first_of(topo::AsKind::kResearchEdu);
  auto result = scenario_.run_bdrmap(scenario_.vps_in(vp_as).front());
  for (const auto& r : result.graph.routers()) {
    if (r.addrs.empty() || r.how == Heuristic::kNone) continue;
    EXPECT_TRUE(scenario_.net().has_as(r.owner))
        << "inferred nonexistent " << r.owner.str();
  }
}

TEST_P(Pipeline, VpSideRoutersAreTrulyVpOperated) {
  // §5.6: "we show this logic is nearly always correct" — step-1 VP-side
  // inferences should essentially never name a foreign router.
  net::AsId vp_as = scenario_.first_of(topo::AsKind::kResearchEdu);
  auto result = scenario_.run_bdrmap(scenario_.vps_in(vp_as).front());
  eval::GroundTruth truth(scenario_.net(), vp_as);
  std::size_t total = 0, correct = 0;
  for (const auto& r : result.graph.routers()) {
    if (r.addrs.empty() || !r.vp_side) continue;
    auto owner = truth.true_owner(r.addrs);
    if (!owner) continue;
    ++total;
    correct += truth.same_org(*owner, vp_as);
  }
  ASSERT_GT(total, 0u);
  // Not 100%: customers configuring provider-assigned (PA) space on their
  // internal routers fool step 1.2 — the paper's own §5.5 / Figure 12
  // error mode, deliberately present in the generator. R&E VP networks
  // have only a handful of routers, so allow a couple of PA casualties
  // rather than a ratio (which is too granular at n≈3-5).
  EXPECT_GE(correct + 2, total);
}

TEST_P(Pipeline, AliasResolutionImprovesOverDisabled) {
  net::AsId vp_as = scenario_.first_of(topo::AsKind::kResearchEdu);
  auto vp = scenario_.vps_in(vp_as).front();
  BdrmapConfig with, without;
  without.enable_alias_resolution = false;
  auto a = scenario_.run_bdrmap(vp, with);
  auto b = scenario_.run_bdrmap(vp, without);
  // Collapsing aliases can only reduce (or keep) the router count.
  EXPECT_LE(a.stats.routers, b.stats.routers);
  EXPECT_GT(a.stats.alias_pair_tests, 0u);
  EXPECT_EQ(b.stats.alias_pair_tests, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Pipeline, ::testing::Values(42, 7, 2024));

TEST(BdrmapResult, NeighborAsesListsLinkOwners) {
  eval::Scenario s(eval::research_education_config(42));
  net::AsId vp_as = s.first_of(topo::AsKind::kResearchEdu);
  auto result = s.run_bdrmap(s.vps_in(vp_as).front());
  auto ases = result.neighbor_ases();
  EXPECT_EQ(ases.size(), result.links_by_as.size());
  for (net::AsId as : ases) {
    EXPECT_FALSE(result.links_by_as.at(as).empty());
  }
}

// run() is run_with(collect()) on one stack: each stage counts only what
// it spent, so the total is every probe the stack sent, counted once.
TEST(BdrmapResult, OneStackRunCountsEveryProbeOnce) {
  eval::Scenario s(eval::research_education_config(42));
  const topo::Vp vp = s.vps_in(s.first_of(topo::AsKind::kResearchEdu)).front();
  const InferenceInputs inputs = s.inputs_for(vp.as);
  auto services = s.services_for(vp, 0x515);
  const BdrmapResult result = Bdrmap(*services, inputs).run();
  EXPECT_GT(result.stats.probes_sent, 0u);
  EXPECT_EQ(result.stats.probes_sent, services->probes_sent());
}

}  // namespace
}  // namespace bdrmap::core
