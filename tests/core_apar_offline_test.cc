// APAR analytic aliases and the offline re-analysis pipeline.
#include <gtest/gtest.h>

#include "core/apar.h"
#include "core/offline.h"
#include "eval/ground_truth.h"
#include "eval/scenario.h"
#include "test_support.h"
#include "warts/warts.h"

namespace bdrmap::core {
namespace {

using net::AsId;
using test::ip;
using test::make_trace;

// A probe-less resolver for pure-analytic tests.
class NullServices final : public probe::ProbeServices {
 public:
  probe::TraceResult trace(Ipv4Addr dst, probe::StopFn) override {
    probe::TraceResult t;
    t.dst = dst;
    return t;
  }
  std::optional<Ipv4Addr> udp_probe(Ipv4Addr) override {
    return std::nullopt;
  }
  std::optional<std::uint16_t> ipid_sample(Ipv4Addr, double) override {
    return std::nullopt;
  }
  void begin_alias_test(std::uint64_t) override {}
  void record_footprint(std::vector<std::uint64_t>*) override {}
  void addr_footprint(Ipv4Addr, std::vector<std::uint64_t>&) override {}
  std::uint64_t probes_sent() const override { return 0; }
};

TEST(Apar, InfersMateAliasFromObservedSubnet) {
  // Trace A: x(10.0.0.9) -> y(10.0.1.2); trace B observes 10.0.1.1 (y's
  // /31 mate) elsewhere: mate(y) and x are one router.
  NullServices services;
  AliasResolver resolver(services);
  auto stats = run_apar(
      {make_trace(AsId(2), "20.0.0.9", {{"10.0.0.9"}, {"10.0.1.2"}}),
       make_trace(AsId(3), "30.0.0.9", {{"10.0.1.1"}, {"30.0.0.1"}})},
      resolver);
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(resolver.verdict_of(ip("10.0.0.9"), ip("10.0.1.1")),
            AliasVerdict::kAlias);
}

TEST(Apar, SameTraceVetoBlocksFalseSubnet) {
  // The mate appears in the SAME trace as x: distinct routers on one path.
  NullServices services;
  AliasResolver resolver(services);
  auto stats = run_apar(
      {make_trace(AsId(2), "20.0.0.9",
                  {{"10.0.1.1"}, {"10.0.5.5"}, {"10.0.0.9"}, {"10.0.1.2"}})},
      resolver);
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_GE(stats.vetoed_same_trace, 1u);
}

TEST(Apar, AdjacentVetoBlocksLinkEndpoints) {
  // The mate is observed immediately after x in another trace: they are
  // the two ends of a link, not one router.
  NullServices services;
  AliasResolver resolver(services);
  auto stats = run_apar(
      {make_trace(AsId(2), "20.0.0.9", {{"10.0.0.9"}, {"10.0.1.2"}}),
       make_trace(AsId(3), "30.0.0.9", {{"10.0.0.9"}, {"10.0.1.1"}})},
      resolver);
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_GE(stats.vetoed_adjacent, 1u);
}

TEST(Apar, HonorsExistingNegativeEvidence) {
  NullServices services;
  AliasResolver resolver(services);
  resolver.declare(ip("10.0.0.9"), ip("10.0.1.1"), AliasVerdict::kNotAlias);
  auto stats = run_apar(
      {make_trace(AsId(2), "20.0.0.9", {{"10.0.0.9"}, {"10.0.1.2"}}),
       make_trace(AsId(3), "30.0.0.9", {{"10.0.1.1"}, {"30.0.0.1"}})},
      resolver);
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(resolver.verdict_of(ip("10.0.0.9"), ip("10.0.1.1")),
            AliasVerdict::kNotAlias);
}

TEST(Offline, ReanalysisFromWartsMatchesShape) {
  eval::Scenario s(eval::small_access_config(42));
  net::AsId vp_as = s.first_of(topo::AsKind::kAccess);
  auto online = s.run_bdrmap(s.vps_in(vp_as).front());

  // Archive, reload, re-analyze without a prober.
  std::string path = ::testing::TempDir() + "/offline_replay.warts";
  warts::save_traces(path, online.graph.traces());
  auto inputs = s.inputs_for(vp_as);
  auto offline = analyze_offline(warts::load_traces(path), inputs);

  // Same neighbor coverage (alias resolution differs, so router counts
  // may, but the set of neighbor organizations should essentially agree).
  std::size_t shared = 0;
  for (const auto& [as, links] : offline.links_by_as) {
    shared += online.links_by_as.count(as) > 0;
  }
  ASSERT_GT(offline.links_by_as.size(), 10u);
  EXPECT_GT(static_cast<double>(shared) /
                static_cast<double>(offline.links_by_as.size()), 0.85);

  // And the offline map still validates well against ground truth.
  eval::GroundTruth truth(s.net(), vp_as);
  auto summary = truth.validate(offline);
  EXPECT_GT(summary.link_accuracy(), 0.85);
}

TEST(Offline, AnalyticAliasesReduceRouterInflation) {
  eval::Scenario s(eval::small_access_config(42));
  net::AsId vp_as = s.first_of(topo::AsKind::kAccess);
  auto online = s.run_bdrmap(s.vps_in(vp_as).front());
  auto inputs = s.inputs_for(vp_as);

  auto traces = online.graph.traces();
  auto a = analyze_offline(traces, inputs);
  // Without APAR no alias groups form: every hop address is a router.
  auto b = infer_borders(RouterGraph(traces, {}), inputs, {}, {});
  EXPECT_LE(a.stats.routers, b.stats.routers);
}

}  // namespace
}  // namespace bdrmap::core
