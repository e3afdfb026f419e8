// Scenario wiring: named configurations, the scenario registry, input
// plumbing, and the determinism contract the benches rely on.
#include "eval/scenario.h"

#include <gtest/gtest.h>

#include "eval/scenario_registry.h"
#include "obs/metrics.h"
#include "probe/tracer.h"

namespace bdrmap::eval {
namespace {

TEST(Scenario, NamedConfigsProduceExpectedVpNetworks) {
  {
    Scenario s(research_education_config(5));
    net::AsId ren = s.first_of(topo::AsKind::kResearchEdu);
    ASSERT_TRUE(ren.valid());
    EXPECT_FALSE(s.vps_in(ren).empty());
    // The R&E network has a realistic customer count (paper: ~30).
    EXPECT_GT(s.net().truth_relationships().customers(ren).size(), 10u);
  }
  {
    Scenario s(large_access_config(5));
    auto vps = s.vps_in(s.featured_access());
    EXPECT_EQ(vps.size(), 19u);  // the §6 deployment
  }
  {
    Scenario s(small_access_config(5));
    auto vps = s.vps_in(s.first_of(topo::AsKind::kAccess));
    EXPECT_EQ(vps.size(), 4u);  // featured_access_pops = 4
  }
}

TEST(ScenarioRegistry, EveryNameResolvesAndUnknownsDoNot) {
  auto names = scenario_names();
  ASSERT_GE(names.size(), 9u);
  EXPECT_EQ(names.front(), "ren");  // clean families lead the listing
  for (const std::string& name : names) {
    auto spec = scenario_spec(name, 1);
    ASSERT_TRUE(spec.has_value()) << name;
    EXPECT_EQ(spec->name, name);
    EXPECT_FALSE(spec->description.empty()) << name;
    EXPECT_EQ(spec->config.seed, 1u) << name;
  }
  EXPECT_FALSE(scenario_spec("nonesuch", 1).has_value());
  EXPECT_EQ(make_scenario("nonesuch", 1), nullptr);
}

TEST(ScenarioRegistry, AdversarialFamiliesCarryLayersAndFloors) {
  auto adversarial = adversarial_scenario_names();
  EXPECT_GE(adversarial.size(), 5u);  // the bench gates at least five
  for (const std::string& name : adversarial) {
    auto spec = scenario_spec(name, 1);
    ASSERT_TRUE(spec.has_value()) << name;
    EXPECT_LE(spec->fuzz_floor, spec->link_accuracy_floor) << name;
    // hidden_ixp attacks through generator/collector knobs alone; every
    // other family activates an AdversarySpec layer.
    if (name != "hidden_ixp") {
      EXPECT_TRUE(spec->adversary.active()) << name;
    }
  }
}

TEST(ScenarioRegistry, MakeScenarioBuildsTheNamedFamily) {
  auto scenario = make_scenario("noisy_inputs", 7);
  ASSERT_NE(scenario, nullptr);
  EXPECT_EQ(scenario->spec().name, "noisy_inputs");
  EXPECT_TRUE(scenario->inputs_corrupted());
}

TEST(Scenario, FeaturedNetworksResolve) {
  Scenario s(large_access_config(5));
  EXPECT_TRUE(s.featured_access().valid());
  EXPECT_TRUE(s.level3_like().valid());
  EXPECT_TRUE(s.akamai_like().valid());
  EXPECT_TRUE(s.google_like().valid());
  EXPECT_EQ(s.net().as_info(s.level3_like()).kind, topo::AsKind::kTier1);
  EXPECT_EQ(s.net().as_info(s.akamai_like()).kind, topo::AsKind::kContent);
  // The marquee pair: exactly 45 truth links (the paper's headline).
  std::size_t links = 0;
  for (const auto& il : s.net().interdomain_links()) {
    bool featured = il.as_a == s.featured_access() ||
                    il.as_b == s.featured_access();
    bool tier1 = il.as_a == s.level3_like() || il.as_b == s.level3_like();
    links += featured && tier1;
  }
  EXPECT_EQ(links, 45u);
}

TEST(Scenario, InputsExposePublicDataOnly) {
  Scenario s(small_access_config(5));
  net::AsId vp_as = s.first_of(topo::AsKind::kAccess);
  auto inputs = s.inputs_for(vp_as);
  ASSERT_FALSE(inputs.vp_ases.empty());
  EXPECT_EQ(inputs.vp_ases.front(), vp_as);
  // Public origins are the collector view, not the truth table.
  EXPECT_EQ(inputs.origins, &s.collectors().public_origins());
  EXPECT_LE(inputs.origins->prefix_count(),
            s.net().truth_origins().prefix_count());
}

TEST(Scenario, FeaturedAccessExcludedFromCollectors) {
  Scenario s(large_access_config(5));
  for (net::AsId peer : s.collectors().peer_ases()) {
    EXPECT_NE(peer, s.featured_access());
  }
}

TEST(Scenario, RunsAreDeterministicPerSeed) {
  Scenario s(small_access_config(9));
  net::AsId vp_as = s.first_of(topo::AsKind::kAccess);
  auto vp = s.vps_in(vp_as).front();
  auto a = s.run_bdrmap(vp, {}, 77);
  auto b = s.run_bdrmap(vp, {}, 77);
  EXPECT_EQ(a.stats.probes_sent, b.stats.probes_sent);
  EXPECT_EQ(a.links.size(), b.links.size());
  auto c = s.run_bdrmap(vp, {}, 78);
  // A different probe seed may change stochastic details but the shape of
  // the map holds.
  EXPECT_NEAR(static_cast<double>(c.links.size()),
              static_cast<double>(a.links.size()),
              static_cast<double>(a.links.size()) * 0.4 + 4.0);
}

TEST(Scenario, TracerConfigReachesTheEngine) {
  Scenario s(small_access_config(9));
  net::AsId vp_as = s.first_of(topo::AsKind::kAccess);
  auto vp = s.vps_in(vp_as).front();
  // A caller-owned registry reaches the probe engines only through the
  // tracer config (no BdrmapConfig::obs), so every trace the run counts
  // must show up in it.
  obs::MetricsRegistry metrics;
  probe::TracerConfig tracer;
  tracer.metrics = &metrics;
  auto result = s.run_bdrmap(vp, {}, 77, tracer);
  EXPECT_GT(result.stats.traces, 0u);
  EXPECT_EQ(metrics.snapshot().counter("probe.traces"), result.stats.traces);
}

}  // namespace
}  // namespace bdrmap::eval
