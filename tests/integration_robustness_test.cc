// Cross-cutting integration properties: MOAS forwarding, pinned-prefix
// fallback, link emission after response gaps, validation robustness
// across seeds at access-network scale, and the adversarial scenario
// families (accuracy floor + clean invariant audit).
#include <gtest/gtest.h>

#include "check/check.h"
#include "eval/ground_truth.h"
#include "eval/scenario_registry.h"
#include "route/fib.h"
#include "test_support.h"

namespace bdrmap {
namespace {

using net::AsId;
using test::ip;

TEST(MoasForwarding, CoOriginatedPrefixStillDelivered) {
  // Generated MOAS prefixes (sibling co-origination) must be reachable.
  topo::GeneratorConfig config;
  config.seed = 13;
  config.p_moas_prefix = 0.5;
  config.p_sibling_org = 0.4;
  config.num_transit = 14;
  config.num_enterprise = 90;
  auto gen = topo::generate(config);
  route::BgpSimulator bgp(gen.net);
  route::Fib fib(gen.net, bgp);
  std::size_t moas = 0, delivered = 0;
  const auto& vp = gen.vps.front();
  for (const auto& [prefix, origins] : gen.net.truth_origins().all_prefixes()) {
    if (origins.size() < 2) continue;
    ++moas;
    const route::Fib::RouteQuery q =
        fib.query(net::Ipv4Addr(prefix.first().value() + 1));
    net::RouterId cur = vp.attach_router;
    for (int i = 0; i < 64; ++i) {
      if (fib.delivered_at(cur, q)) {
        ++delivered;
        break;
      }
      auto hop = fib.next_hop(cur, q);
      if (!hop) break;
      cur = hop->router;
    }
  }
  ASSERT_GT(moas, 3u);
  EXPECT_EQ(delivered, moas);
}

TEST(PinnedPrefixes, OtherNetworksFallBackToTransit) {
  // A pinned (Akamai-style) prefix probed from a *different* access
  // network must be delivered via the CDN's transit, not loop.
  eval::Scenario s(eval::large_access_config(21));
  net::AsId other_access = s.first_of(topo::AsKind::kAccess, 1);
  ASSERT_TRUE(other_access.valid());
  const auto& routers = s.net().as_info(other_access).routers;
  ASSERT_FALSE(routers.empty());
  std::size_t pinned_checked = 0;
  for (const auto& ap : s.net().announced()) {
    if (ap.only_via_links.empty()) continue;
    net::Ipv4Addr dst(ap.prefix.first().value() + 1);
    const route::Fib::RouteQuery q = s.fib().query(dst);
    net::RouterId cur = routers.front();
    bool delivered = false;
    for (int i = 0; i < 64; ++i) {
      if (s.fib().delivered_at(cur, q)) {
        delivered = true;
        break;
      }
      auto hop = s.fib().next_hop(cur, q);
      if (!hop) break;
      cur = hop->router;
    }
    EXPECT_TRUE(delivered) << dst.str();
    if (++pinned_checked == 24) break;
  }
  EXPECT_GE(pinned_checked, 8u);
}

class AccessValidation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AccessValidation, LinkAccuracyHoldsAtScale) {
  eval::Scenario s(eval::large_access_config(GetParam()));
  net::AsId vp_as = s.featured_access();
  auto vps = s.vps_in(vp_as);
  ASSERT_EQ(vps.size(), 19u);
  // One VP from the middle of the footprint.
  auto result = s.run_bdrmap(vps[vps.size() / 2]);
  eval::GroundTruth truth(s.net(), vp_as);
  auto summary = truth.validate(result);
  ASSERT_GT(summary.links_total, 40u);
  EXPECT_GT(summary.link_accuracy(), 0.9)
      << summary.links_correct << "/" << summary.links_total;
  EXPECT_GT(summary.router_accuracy(), 0.8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccessValidation,
                         ::testing::Values(42, 7, 99));

// One case per registered adversarial family at the canonical bench seed:
// the pipeline must hold the family's link-accuracy floor, and the
// inference audit over what it produced must be clean.
class AdversarialFamily : public ::testing::TestWithParam<std::string> {};

TEST_P(AdversarialFamily, MeetsFloorWithCleanAudit) {
  auto scenario = eval::make_scenario(GetParam(), 42);
  ASSERT_NE(scenario, nullptr);
  const eval::ScenarioSpec& spec = scenario->spec();
  net::AsId vp_as = scenario->first_of(spec.vp_kind);
  auto vps = scenario->vps_in(vp_as);
  ASSERT_FALSE(vps.empty());
  auto result = scenario->run_bdrmap(vps.front());

  eval::GroundTruth truth(scenario->net(), vp_as);
  auto summary = truth.validate(result);
  ASSERT_GT(summary.links_total, 0u);
  EXPECT_GE(summary.link_accuracy(), spec.link_accuracy_floor)
      << summary.links_correct << "/" << summary.links_total;

  core::InferenceInputs inputs = scenario->inputs_for(vp_as);
  check::CheckContext ctx = check::inference_context(result, inputs);
  ctx.net = &scenario->net();
  check::CheckReport report = check::InvariantChecker().run(ctx);
  EXPECT_EQ(report.error_count(), 0u) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Families, AdversarialFamily,
    ::testing::ValuesIn(eval::adversarial_scenario_names()),
    [](const auto& param_info) { return param_info.param; });

TEST(AdversarialFamilies, RouteLeakIsVisibleToTheSubstrateAudit) {
  // Positive control for the leak machinery: the rib.valley-free pass must
  // actually see valley paths when leakers are active — an adversary the
  // audit cannot detect would make the family's clean-audit gate vacuous.
  auto scenario = eval::make_scenario("route_leak", 42);
  ASSERT_NE(scenario, nullptr);
  check::CheckContext ctx = check::substrate_context(
      scenario->net(), scenario->bgp(), scenario->fib());
  check::CheckReport report = check::InvariantChecker().run(
      ctx, {std::string(check::pass_id::kRibValleyFree)});
  EXPECT_GT(report.count(check::pass_id::kRibValleyFree), 0u);

  auto clean = eval::make_scenario("small", 42);
  check::CheckContext clean_ctx = check::substrate_context(
      clean->net(), clean->bgp(), clean->fib());
  check::CheckReport clean_report = check::InvariantChecker().run(
      clean_ctx, {std::string(check::pass_id::kRibValleyFree)});
  EXPECT_EQ(clean_report.count(check::pass_id::kRibValleyFree), 0u);
}

TEST(GapLinks, FirstRouterAfterSilentBorderStillLinked) {
  // Find a run where some neighbor is reached only past a response gap;
  // its first responsive router must still yield a link (kNoRouter near).
  eval::Scenario s(eval::research_education_config(42));
  net::AsId vp_as = s.first_of(topo::AsKind::kResearchEdu);
  auto result = s.run_bdrmap(s.vps_in(vp_as).front());
  std::size_t gap_links = 0;
  for (const auto& link : result.links) {
    gap_links += link.vp_router == core::InferredLink::kNoRouter &&
                 link.neighbor_router != core::InferredLink::kNoRouter;
  }
  // Statistically present in every R&E run at this scale.
  EXPECT_GT(gap_links, 0u);
}

}  // namespace
}  // namespace bdrmap
