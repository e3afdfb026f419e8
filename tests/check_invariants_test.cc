// Corruption-seeding tests for the bdrmap-verify invariant subsystem
// (src/check/). Two obligations per pass: stay silent on a healthy
// substrate/inference run, and catch a seeded corruption of its class under
// the right pass id. The corruption classes mirror the ways real inputs and
// intermediate products go wrong: inconsistent relationship dumps,
// non-valley-free routing state, FIB drift, broken alias closures, and
// heuristic bookkeeping bugs in the inference core.
#include "check/check.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "eval/scenario.h"
#include "route/bgp_sim.h"
#include "route/fib.h"
#include "test_support.h"
#include "topo/generator.h"

namespace bdrmap::core {

// Reaches into a graph's id -> router column to corrupt it on purpose.
struct RouterGraphTestPeer {
  static std::vector<std::uint32_t>& router_col(RouterGraph& g) {
    return g.router_col_;
  }
};

}  // namespace bdrmap::core

namespace bdrmap::check {
namespace {

using net::AsId;
using net::Ipv4Addr;
using net::RouterId;
using test::ip;

std::size_t errors_of(const CheckReport& report, std::string_view id) {
  std::size_t n = 0;
  for (const Violation* v : report.of_pass(id)) {
    if (v->severity == Severity::kError) ++n;
  }
  return n;
}

bool any_detail_contains(const CheckReport& report, std::string_view id,
                         std::string_view needle) {
  for (const Violation* v : report.of_pass(id)) {
    if (v->detail.find(needle) != std::string::npos) return true;
  }
  return false;
}

std::vector<std::string> one(std::string_view id) {
  return {std::string(id)};
}

// ---------------------------------------------------------------------------
// Clean runs: the checker must be silent on the default synthetic Internet,
// both for the routing substrate and for a full end-to-end inference run.
// ---------------------------------------------------------------------------

class DefaultInternetCheck : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new eval::Scenario(topo::GeneratorConfig{});
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }

  static eval::Scenario* scenario_;
};

eval::Scenario* DefaultInternetCheck::scenario_ = nullptr;

TEST_F(DefaultInternetCheck, SubstrateIsClean) {
  CheckContext ctx =
      substrate_context(scenario_->net(), scenario_->bgp(), scenario_->fib());
  CheckReport report = InvariantChecker().run(ctx);
  EXPECT_EQ(report.error_count(), 0u) << report.summary();
  EXPECT_TRUE(report.clean()) << report.summary();
  // All four substrate passes must actually have run.
  for (std::string_view id :
       {pass_id::kAsGraphSymmetry, pass_id::kAsGraphGaoRexford,
        pass_id::kRibValleyFree, pass_id::kFibRibAgreement}) {
    EXPECT_NE(std::find(report.passes_run.begin(), report.passes_run.end(),
                        std::string(id)),
              report.passes_run.end())
        << id << " did not run";
  }
}

TEST_F(DefaultInternetCheck, InferenceRunIsClean) {
  AsId access = scenario_->featured_access();
  topo::Vp vp = scenario_->vps_in(access).at(0);
  core::InferenceInputs inputs = scenario_->inputs_for(access);
  core::BdrmapResult result = scenario_->run_bdrmap(vp);

  CheckContext ctx = inference_context(result, inputs);
  ctx.net = &scenario_->net();
  CheckReport report = InvariantChecker().run(ctx);
  EXPECT_EQ(report.error_count(), 0u) << report.summary();
  EXPECT_TRUE(report.clean()) << report.summary();
  for (std::string_view id :
       {pass_id::kRouterGraphStructure, pass_id::kOwnerAssignment,
        pass_id::kHeuristicPreconditions}) {
    EXPECT_NE(std::find(report.passes_run.begin(), report.passes_run.end(),
                        std::string(id)),
              report.passes_run.end())
        << id << " did not run";
  }
}

// ---------------------------------------------------------------------------
// Corruption class 1: asymmetric p2c edge in the relationship store. A raw
// dump that records rel(a,b)=provider without the inverse must be flagged by
// as-graph.symmetry.
// ---------------------------------------------------------------------------

TEST(CheckAsGraph, AsymmetricEdgeIsCaughtBySymmetryPass) {
  asdata::RelationshipStore rels;
  rels.add_c2p(AsId{10}, AsId{20});  // healthy, bidirectional
  rels.add_raw(AsId{30}, AsId{40}, asdata::Relationship::kCustomer);

  CheckContext ctx;
  ctx.rels = &rels;
  CheckReport report =
      InvariantChecker().run(ctx, one(pass_id::kAsGraphSymmetry));
  EXPECT_GT(errors_of(report, pass_id::kAsGraphSymmetry), 0u)
      << report.summary();
  // The healthy edge alone must not trip the pass.
  asdata::RelationshipStore healthy;
  healthy.add_c2p(AsId{10}, AsId{20});
  healthy.add_p2p(AsId{20}, AsId{21});
  ctx.rels = &healthy;
  EXPECT_TRUE(InvariantChecker()
                  .run(ctx, one(pass_id::kAsGraphSymmetry))
                  .clean());
}

// ---------------------------------------------------------------------------
// Corruption class 2: a customer-provider cycle (an AS inside its own
// customer cone) violates the Gao-Rexford hierarchy.
// ---------------------------------------------------------------------------

TEST(CheckAsGraph, ProviderCycleIsCaughtByGaoRexfordPass) {
  asdata::RelationshipStore rels;
  rels.add_c2p(AsId{1}, AsId{2});
  rels.add_c2p(AsId{2}, AsId{3});
  rels.add_c2p(AsId{3}, AsId{1});  // closes the cycle

  CheckContext ctx;
  ctx.rels = &rels;
  CheckReport report =
      InvariantChecker().run(ctx, one(pass_id::kAsGraphGaoRexford));
  EXPECT_GT(errors_of(report, pass_id::kAsGraphGaoRexford), 0u)
      << report.summary();
  EXPECT_TRUE(
      any_detail_contains(report, pass_id::kAsGraphGaoRexford, "cycle"));

  asdata::RelationshipStore acyclic;
  acyclic.add_c2p(AsId{1}, AsId{2});
  acyclic.add_c2p(AsId{2}, AsId{3});
  acyclic.add_p2p(AsId{3}, AsId{4});
  ctx.rels = &acyclic;
  EXPECT_EQ(InvariantChecker()
                .run(ctx, one(pass_id::kAsGraphGaoRexford))
                .error_count(),
            0u);
}

// ---------------------------------------------------------------------------
// Corruption class 3: a valley path in the RIB. Auditing the (healthy) BGP
// simulator against a relationship store with every peering removed makes
// peer-crossing paths look like valleys / relationship gaps — exactly what
// rib.valley-free exists to catch when the RIB and AS graph disagree.
// ---------------------------------------------------------------------------

TEST(CheckRoute, ValleyPathInRibIsCaughtByValleyFreePass) {
  eval::Scenario scenario(eval::small_access_config(3));

  asdata::RelationshipStore no_peering;
  const asdata::RelationshipStore& truth =
      scenario.net().truth_relationships();
  for (AsId as : truth.all_ases()) {
    for (AsId p : truth.providers(as)) no_peering.add_c2p(as, p);
  }

  CheckContext ctx =
      substrate_context(scenario.net(), scenario.bgp(), scenario.fib());
  ctx.max_route_pairs = 4000;
  ctx.rels = &no_peering;
  CheckReport report =
      InvariantChecker().run(ctx, one(pass_id::kRibValleyFree));
  EXPECT_GT(errors_of(report, pass_id::kRibValleyFree), 0u)
      << report.summary();

  // Sanity: with the true store the same sampled paths are valley-free.
  ctx.rels = &truth;
  EXPECT_EQ(InvariantChecker()
                .run(ctx, one(pass_id::kRibValleyFree))
                .error_count(),
            0u);
}

// ---------------------------------------------------------------------------
// Corruption class 4: FIB/RIB mismatch. Re-owning every other router after
// the FIB was computed makes forwarding walks cross AS boundaries over
// internal links — the canonical symptom of a stale FIB.
// ---------------------------------------------------------------------------

TEST(CheckRoute, FibRibMismatchIsCaughtByAgreementPass) {
  topo::GeneratedInternet gen = topo::generate(eval::small_access_config(5));
  route::BgpSimulator bgp(gen.net);
  route::Fib fib(gen.net, bgp);

  CheckContext ctx = substrate_context(gen.net, bgp, fib);
  ctx.max_fib_walks = 800;
  EXPECT_EQ(InvariantChecker()
                .run(ctx, one(pass_id::kFibRibAgreement))
                .error_count(),
            0u);

  // Corrupt ground truth *after* FIB construction.
  AsId hijacker = gen.net.routers().front().owner;
  for (std::size_t i = 1; i < gen.net.routers().size(); i += 2) {
    gen.net.router_mutable(RouterId{static_cast<std::uint32_t>(i)}).owner =
        hijacker;
  }
  CheckReport report =
      InvariantChecker().run(ctx, one(pass_id::kFibRibAgreement));
  EXPECT_GT(errors_of(report, pass_id::kFibRibAgreement), 0u)
      << report.summary();
}

// ---------------------------------------------------------------------------
// Inference-layer corruptions share one bdrmap run; each test mutates a
// private copy of the result.
// ---------------------------------------------------------------------------

class InferenceCorruption : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new eval::Scenario(eval::small_access_config(7));
    vp_ = new topo::Vp(scenario_->vps_in(scenario_->featured_access()).at(0));
    inputs_ = new core::InferenceInputs(
        scenario_->inputs_for(scenario_->featured_access()));
    result_ = new core::BdrmapResult(scenario_->run_bdrmap(*vp_));
  }
  static void TearDownTestSuite() {
    delete result_;
    delete inputs_;
    delete vp_;
    delete scenario_;
    result_ = nullptr;
    inputs_ = nullptr;
    vp_ = nullptr;
    scenario_ = nullptr;
  }

  CheckContext context_for(const core::BdrmapResult& result) const {
    CheckContext ctx = inference_context(result, *inputs_);
    ctx.net = &scenario_->net();
    return ctx;
  }

  // Index of some live router satisfying `pred`.
  template <typename Pred>
  static std::size_t live_router(const core::BdrmapResult& result,
                                 Pred&& pred) {
    const auto& routers = result.graph.routers();
    for (std::size_t i = 0; i < routers.size(); ++i) {
      if (!result.graph.merged_away(i) && pred(routers[i])) return i;
    }
    ADD_FAILURE() << "no live router matches the predicate";
    return 0;
  }

  static eval::Scenario* scenario_;
  static topo::Vp* vp_;
  static core::InferenceInputs* inputs_;
  static core::BdrmapResult* result_;
};

eval::Scenario* InferenceCorruption::scenario_ = nullptr;
topo::Vp* InferenceCorruption::vp_ = nullptr;
core::InferenceInputs* InferenceCorruption::inputs_ = nullptr;
core::BdrmapResult* InferenceCorruption::result_ = nullptr;

TEST_F(InferenceCorruption, BaselineRunIsClean) {
  CheckReport report = InvariantChecker().run(context_for(*result_));
  EXPECT_EQ(report.error_count(), 0u) << report.summary();
}

// Corruption class 5: duplicate interface — one address claimed by two live
// routers breaks alias-set uniqueness in the router graph.
TEST_F(InferenceCorruption, DuplicateInterfaceIsCaughtByStructurePass) {
  // The live routers' alias sets as groups, the second one also listing
  // the first one's address: the graph built from them has two live
  // routers holding it.
  const core::RouterGraph& graph = result_->graph;
  core::AliasGroups groups;
  for (std::size_t i = 0; i < graph.routers().size(); ++i) {
    if (graph.merged_away(i)) continue;
    std::vector<Ipv4Addr> group(graph.addrs(i).begin(), graph.addrs(i).end());
    if (groups.size() == 1) group.push_back(groups[0].front());
    groups.add(group);
  }
  ASSERT_GE(groups.size(), 2u);
  const core::RouterGraph corrupted(graph.traces(), groups);
  CheckContext ctx = context_for(*result_);
  ctx.graph = &corrupted;

  CheckReport report =
      InvariantChecker().run(ctx, one(pass_id::kRouterGraphStructure));
  EXPECT_GT(errors_of(report, pass_id::kRouterGraphStructure), 0u)
      << report.summary();
  EXPECT_TRUE(any_detail_contains(report, pass_id::kRouterGraphStructure,
                                  "two live routers"));
}

// Corruption class 5b: stale address column — a merge that moves a
// router's addresses but not their id -> router entries leaves the column
// naming a tombstone.
TEST_F(InferenceCorruption, StaleAddressColumnIsCaughtByStructurePass) {
  core::BdrmapResult result = *result_;
  core::RouterGraph& graph = result.graph;
  std::vector<std::size_t> with_ttl;  // live routers that answered TTLs
  for (std::size_t i = 0; i < graph.routers().size(); ++i) {
    if (!graph.ttl_ids(i).empty()) with_ttl.push_back(i);
  }
  ASSERT_GE(with_ttl.size(), 2u);
  const std::size_t a = with_ttl[0], b = with_ttl[1];
  std::vector<std::uint32_t> moved;
  for (std::uint32_t id = 0; id < graph.address_count(); ++id) {
    if (graph.router_of_id(id) == b) moved.push_back(id);
  }
  graph.merge(a, b);
  for (std::uint32_t id : moved) {
    core::RouterGraphTestPeer::router_col(graph)[id] =
        static_cast<std::uint32_t>(b);
  }

  CheckReport report = InvariantChecker().run(
      context_for(result), one(pass_id::kRouterGraphStructure));
  EXPECT_GT(errors_of(report, pass_id::kRouterGraphStructure), 0u)
      << report.summary();
  EXPECT_TRUE(any_detail_contains(report, pass_id::kRouterGraphStructure,
                                  "stale column"))
      << report.summary();
}

// Corruption class 6: a router owned by an AS absent from every input
// dataset — an impossible inference that owner.assignment must flag.
TEST_F(InferenceCorruption, UnknownOwnerIsCaughtByOwnerAssignmentPass) {
  core::BdrmapResult result = *result_;
  std::size_t i = live_router(result, [](const core::GraphRouter& r) {
    return r.how != core::Heuristic::kNone;
  });
  result.graph.routers()[i].owner = AsId{3999999};

  CheckReport report =
      InvariantChecker().run(context_for(result), one(pass_id::kOwnerAssignment));
  EXPECT_GT(errors_of(report, pass_id::kOwnerAssignment), 0u)
      << report.summary();
  EXPECT_TRUE(
      any_detail_contains(report, pass_id::kOwnerAssignment, "unknown AS"));
}

// Corruption class 7: heuristic precondition break — vp_side may only be
// marked by the §5.4.1 VP-network identification, never by kFirewall.
TEST_F(InferenceCorruption, VpSideFirewallIsCaughtByPreconditionPass) {
  core::BdrmapResult result = *result_;
  std::size_t i = live_router(result, [](const core::GraphRouter& r) {
    return r.how != core::Heuristic::kNone && !r.vp_side;
  });
  result.graph.routers()[i].vp_side = true;
  result.graph.routers()[i].how = core::Heuristic::kFirewall;

  CheckReport report = InvariantChecker().run(
      context_for(result), one(pass_id::kHeuristicPreconditions));
  EXPECT_GT(errors_of(report, pass_id::kHeuristicPreconditions), 0u)
      << report.summary();
}

// Corruption class 8: alias asymmetry — a measured-alias pair split across
// groups, and a negative pair fused into one group, both violate the §5.3
// closure discipline.
TEST_F(InferenceCorruption, AliasAsymmetryIsCaughtByConsistencyPass) {
  auto services = scenario_->services_for(*vp_);
  core::AliasResolver resolver(*services);
  resolver.declare(ip("10.9.0.1"), ip("10.9.0.2"), core::AliasVerdict::kAlias);
  resolver.declare(ip("10.9.0.3"), ip("10.9.0.4"),
                   core::AliasVerdict::kNotAlias);

  // .1/.2 split across groups despite kAlias; .3/.4 fused despite kNotAlias.
  const core::AliasGroups groups = {
      {ip("10.9.0.1"), ip("10.9.0.3"), ip("10.9.0.4")},
      {ip("10.9.0.2")},
  };
  CheckContext ctx;
  ctx.aliases = &resolver;
  ctx.alias_groups = &groups;
  CheckReport report =
      InvariantChecker().run(ctx, one(pass_id::kAliasConsistency));
  EXPECT_GE(errors_of(report, pass_id::kAliasConsistency), 2u)
      << report.summary();

  // Disjointness: the same address in two groups is flagged even without
  // any recorded verdicts.
  const core::AliasGroups overlapping = {
      {ip("10.9.1.1"), ip("10.9.1.2")},
      {ip("10.9.1.2"), ip("10.9.1.3")},
  };
  CheckContext ctx2;
  ctx2.alias_groups = &overlapping;
  EXPECT_GT(errors_of(InvariantChecker().run(
                          ctx2, one(pass_id::kAliasConsistency)),
                      pass_id::kAliasConsistency),
            0u);
}

// The closure's own output is consistent: a positive pair it leaves split is
// one a negative verdict keeps apart, so the pass must stay silent on every
// groups() result. The triangle is the smallest veto: .2-.5 and .5-.6 are
// aliases, .2-.6 is not.
TEST_F(InferenceCorruption, ClosureOutputPassesConsistencyPass) {
  auto services = scenario_->services_for(*vp_);
  auto check_groups_of = [&](const core::AliasResolver& resolver,
                             const std::vector<Ipv4Addr>& addrs) {
    const core::AliasGroups groups = resolver.groups(addrs);
    CheckContext ctx;
    ctx.aliases = &resolver;
    ctx.alias_groups = &groups;
    CheckReport report =
        InvariantChecker().run(ctx, one(pass_id::kAliasConsistency));
    EXPECT_EQ(errors_of(report, pass_id::kAliasConsistency), 0u)
        << report.summary();
  };

  core::AliasResolver triangle(*services);
  triangle.declare(ip("10.0.0.2"), ip("10.0.0.5"), core::AliasVerdict::kAlias);
  triangle.declare(ip("10.0.0.5"), ip("10.0.0.6"), core::AliasVerdict::kAlias);
  triangle.declare(ip("10.0.0.2"), ip("10.0.0.6"),
                   core::AliasVerdict::kNotAlias);
  check_groups_of(triangle, {ip("10.0.0.2"), ip("10.0.0.5"), ip("10.0.0.6")});

  // Seeded random verdict sets over ten addresses, mostly positive so that
  // vetoes compete.
  std::mt19937_64 rng(20161114);
  for (int round = 0; round < 50; ++round) {
    core::AliasResolver resolver(*services);
    std::vector<Ipv4Addr> addrs;
    for (std::uint32_t i = 0; i < 10; ++i) {
      addrs.push_back(Ipv4Addr(ip("10.9.2.0").value() + i));
    }
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      for (std::size_t j = i + 1; j < addrs.size(); ++j) {
        const std::uint64_t r = rng() % 8;
        if (r < 3) {
          resolver.declare(addrs[i], addrs[j], core::AliasVerdict::kAlias);
        } else if (r == 3) {
          resolver.declare(addrs[i], addrs[j], core::AliasVerdict::kNotAlias);
        }
      }
    }
    check_groups_of(resolver, addrs);
  }
}

// ---------------------------------------------------------------------------
// Checker mechanics: gating, unknown ids, custom passes, and the per-pass
// violation cap.
// ---------------------------------------------------------------------------

TEST(CheckMechanics, EmptyContextSkipsEveryPass) {
  CheckContext ctx;
  CheckReport report = InvariantChecker().run(ctx);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.passes_run.empty());
  EXPECT_EQ(report.passes_skipped.size(), InvariantChecker().passes().size());
}

TEST(CheckMechanics, UnknownPassIdIsReportedAsSkipped) {
  CheckContext ctx;
  CheckReport report = InvariantChecker().run(ctx, {"no.such.pass"});
  EXPECT_TRUE(report.passes_run.empty());
  ASSERT_EQ(report.passes_skipped.size(), 1u);
  EXPECT_EQ(report.passes_skipped[0], "no.such.pass");
}

TEST(CheckMechanics, CustomPassRunsAndReplacesById) {
  InvariantChecker checker;
  checker.register_pass({"custom.test", "always fires",
                         [](const CheckContext&) { return true; },
                         [](const CheckContext&, ViolationSink& sink) {
                           sink.error("x", "seeded");
                         }});
  CheckContext ctx;
  CheckReport report = checker.run(ctx, one("custom.test"));
  EXPECT_EQ(errors_of(report, "custom.test"), 1u);

  // Re-registering the id replaces the pass rather than duplicating it.
  std::size_t before = checker.passes().size();
  checker.register_pass({"custom.test", "now silent",
                         [](const CheckContext&) { return true; },
                         [](const CheckContext&, ViolationSink&) {}});
  EXPECT_EQ(checker.passes().size(), before);
  EXPECT_TRUE(checker.run(ctx, one("custom.test")).clean());
}

TEST(CheckMechanics, ViolationSinkCapsRunawayPasses) {
  InvariantChecker checker;
  checker.register_pass({"custom.flood", "emits far past the cap",
                         [](const CheckContext&) { return true; },
                         [](const CheckContext&, ViolationSink& sink) {
                           for (int i = 0; i < 1000; ++i) {
                             sink.error("x" + std::to_string(i), "flood");
                           }
                           EXPECT_EQ(sink.seen(), 1000u);
                         }});
  CheckContext ctx;
  CheckReport report = checker.run(ctx, one("custom.flood"));
  // Cap + one suppression marker.
  EXPECT_EQ(report.violations.size(), ViolationSink::kDefaultCap + 1);
}

}  // namespace
}  // namespace bdrmap::check
