// ServeEngine: churn-driven incremental re-inference must be bit-identical
// to a from-scratch recompute — per VP via eval::same_border_map AND at the
// snapshot level via the structural fingerprint — on every scenario family,
// including the adversarial ones. Plus the serve.* observability contract.
#include "serve/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "eval/degradation.h"
#include "eval/scenario_registry.h"
#include "netbase/rng.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "runtime/thread_pool.h"
#include "serve/churn.h"

namespace bdrmap {
namespace {

constexpr std::size_t kAllVps = std::numeric_limits<std::size_t>::max();

struct EngineFixture {
  std::unique_ptr<eval::Scenario> scenario;
  std::unique_ptr<runtime::ThreadPool> pool;
  std::unique_ptr<serve::ServeEngine> engine;
  net::AsId vp_as;
  std::vector<topo::Vp> vps;  // the engine's, in job order
};

// One probe-stack factory and the inputs per VP of the fixture.
std::vector<serve::VpContext> contexts_of(const EngineFixture& fx) {
  std::vector<serve::VpContext> contexts;
  for (const topo::Vp& vp : fx.vps) {
    serve::VpContext ctx;
    eval::Scenario* scenario = fx.scenario.get();
    ctx.make_services = [scenario, vp](std::uint64_t s) {
      return std::unique_ptr<probe::ProbeServices>(
          scenario->services_for(vp, s));
    };
    ctx.inputs = fx.scenario->inputs_for(fx.vp_as);
    contexts.push_back(std::move(ctx));
  }
  return contexts;
}

EngineFixture make_engine(const std::string& name, std::uint64_t seed,
                          obs::Observability* obs = nullptr,
                          std::size_t max_vps = 3) {
  auto spec = eval::scenario_spec(name, seed);
  EXPECT_TRUE(spec.has_value()) << name;
  EngineFixture fx;
  fx.scenario = std::make_unique<eval::Scenario>(*spec);
  fx.vp_as = fx.scenario->first_of(spec->vp_kind);
  fx.vps = fx.scenario->vps_in(fx.vp_as);
  if (fx.vps.size() > max_vps) fx.vps.resize(max_vps);
  EXPECT_FALSE(fx.vps.empty()) << name;

  fx.pool = runtime::make_pool(4, obs ? obs->registry() : nullptr);
  serve::EngineOptions options;
  options.base_seed = seed ^ 0x515;
  options.obs = obs;
  options.config.obs = obs;
  options.pool = fx.pool.get();

  fx.engine = std::make_unique<serve::ServeEngine>(
      fx.scenario->net(), fx.scenario->bgp_mutable(),
      fx.scenario->fib_mutable(), contexts_of(fx), options);
  return fx;
}

void expect_identical(const serve::ServeEngine& engine,
                      const std::string& label) {
  const serve::ServeEngine::Reference ref = engine.recompute_reference();
  const auto live = engine.handle().current();
  ASSERT_NE(live, nullptr) << label;
  EXPECT_EQ(ref.snapshot->fingerprint(), live->fingerprint()) << label;
  ASSERT_EQ(ref.per_vp.size(), engine.last_results().size()) << label;
  for (std::size_t vp = 0; vp < ref.per_vp.size(); ++vp) {
    EXPECT_TRUE(
        eval::same_border_map(ref.per_vp[vp], engine.last_results()[vp]))
        << label << " VP " << vp;
  }
}

// The tight loop: gate EVERY event kind the stream emits, checking
// identity after each epoch. Besides the small family, the inputs carry
// two 19-VP access streams that end on the failure of an IXP LAN (link
// 2386 at stream 4, link 2390 at stream 8), one link that carries many AS
// pairs, and a single-VP ren run.
TEST(ServeIncrementalTest, PerEventBitIdentity) {
  struct Input {
    const char* family;
    std::size_t max_vps;
    std::uint64_t stream_seed;
    int events;
  };
  for (const Input& in : {Input{"small", 3, 42, 6},
                          Input{"access", kAllVps, 4, 4},
                          Input{"access", kAllVps, 8, 12},
                          Input{"ren", kAllVps, 42, 6}}) {
    const std::string label = std::string(in.family) + " stream " +
                              std::to_string(in.stream_seed);
    EngineFixture fx = make_engine(in.family, 42, nullptr, in.max_vps);
    fx.engine->rebuild_full();
    expect_identical(*fx.engine, label + " epoch 0");
    serve::ChurnStream stream(fx.scenario->net(), in.stream_seed);
    for (int i = 0; i < in.events; ++i) {
      const serve::ChurnEvent event = stream.next();
      const serve::ChurnApplyStats stats = fx.engine->apply(event);
      EXPECT_EQ(stats.epoch, fx.engine->epoch());
      expect_identical(*fx.engine,
                       label + " epoch " + std::to_string(stats.epoch) +
                           " after " + serve::describe(event));
    }
  }
}

// Every scenario family — clean §5.6 networks and the adversarial suite —
// holds identity after a burst of churn.
TEST(ServeIncrementalTest, AllScenarioFamiliesBitIdentity) {
  for (const std::string& name : eval::scenario_names()) {
    EngineFixture fx = make_engine(name, 42, nullptr, /*max_vps=*/2);
    fx.engine->rebuild_full();
    serve::ChurnStream stream(fx.scenario->net(), 7);
    for (int i = 0; i < 2; ++i) fx.engine->apply(stream.next());
    expect_identical(*fx.engine, name);
  }
}

// One execution model: the engine's cold rebuild is the executor over an
// empty store, so it is exactly Scenario::run_bdrmap_parallel with the
// engine's base seed.
TEST(ServeIncrementalTest, ColdRunEqualsRebuild) {
  constexpr std::uint64_t kSeed = 42;
  EngineFixture fx = make_engine("small", kSeed);
  fx.engine->rebuild_full();
  std::vector<topo::Vp> vps = fx.scenario->vps_in(fx.vp_as);
  vps.resize(fx.engine->vp_count());
  const runtime::MultiVpResult cold = fx.scenario->run_bdrmap_parallel(
      vps, {}, kSeed ^ 0x515, fx.pool.get());
  ASSERT_EQ(cold.per_vp.size(), fx.engine->last_results().size());
  for (std::size_t vp = 0; vp < cold.per_vp.size(); ++vp) {
    const core::BdrmapResult& built = fx.engine->last_results()[vp];
    EXPECT_TRUE(eval::same_border_map(cold.per_vp[vp], built)) << "VP " << vp;
    EXPECT_EQ(cold.per_vp[vp].stats.probes_sent, built.stats.probes_sent);
  }
}

// Prefix events whose public-view origins are not exactly the announcing
// AS: the slices are keyed by ProbeBlock::target_as (the public view), so
// the dirty bound must come from the planned blocks under the prefix, not
// from the announcer.
TEST(ServeIncrementalTest, MismatchedOriginPrefixEvents) {
  EngineFixture fx = make_engine("access", 42);
  fx.engine->rebuild_full();
  const asdata::OriginTable& pub = fx.scenario->collectors().public_origins();
  std::vector<net::Prefix> mismatched;
  for (const topo::AnnouncedPrefix& ap : fx.scenario->net().announced()) {
    const auto* origins = pub.origins(ap.prefix.network());
    const bool exact =
        origins && origins->size() == 1 && origins->front() == ap.origin;
    if (!exact && std::find(mismatched.begin(), mismatched.end(),
                            ap.prefix) == mismatched.end()) {
      mismatched.push_back(ap.prefix);
    }
  }
  ASSERT_FALSE(mismatched.empty());
  for (const net::Prefix& prefix : mismatched) {
    for (serve::ChurnKind kind :
         {serve::ChurnKind::kWithdraw, serve::ChurnKind::kAnnounce}) {
      serve::ChurnEvent event;
      event.kind = kind;
      event.prefix = prefix;
      fx.engine->apply(event);
      expect_identical(*fx.engine, serve::describe(event));
    }
  }
}

// A prefix event that covers a VP's own address moves every reply routed
// toward the VP: the kEgressToSrc hops of all its traces, and its Mercator
// sources. The engine re-collects that VP's slices and drops its alias
// evidence, so withdrawing the prefix and announcing it again each
// publish the from-scratch map.
TEST(ServeIncrementalTest, PrefixCoveringVpAddressMatchesReference) {
  EngineFixture fx = make_engine("access", 42, nullptr, kAllVps);
  fx.engine->rebuild_full();
  const std::vector<topo::Vp> vps = fx.scenario->vps_in(fx.vp_as);
  const topo::AnnouncedPrefix* covering =
      fx.scenario->net().announced_match(vps.front().addr);
  ASSERT_NE(covering, nullptr);
  // A prefix event elsewhere first, so every VP holds evidence.
  serve::ChurnEvent other;
  other.kind = serve::ChurnKind::kWithdraw;
  for (const topo::AnnouncedPrefix& ap : fx.scenario->net().announced()) {
    if (!ap.prefix.contains(covering->prefix) &&
        !covering->prefix.contains(ap.prefix)) {
      other.prefix = ap.prefix;
      break;
    }
  }
  EXPECT_GT(fx.engine->apply(other).alias_pairs_reused, 0u);
  expect_identical(*fx.engine, serve::describe(other));
  for (serve::ChurnKind kind :
       {serve::ChurnKind::kWithdraw, serve::ChurnKind::kAnnounce}) {
    serve::ChurnEvent event;
    event.kind = kind;
    event.prefix = covering->prefix;
    fx.engine->apply(event);
    expect_identical(*fx.engine, serve::describe(event));
    for (std::size_t vp = 0; vp < vps.size(); ++vp) {
      const core::BdrmapStats& stats = fx.engine->last_results()[vp].stats;
      if (covering->prefix.contains(vps[vp].addr)) {
        EXPECT_EQ(stats.alias_pairs_reused, 0u) << "VP " << vp;
      } else {
        EXPECT_EQ(stats.alias_pairs_reused, stats.alias_pair_tests)
            << "VP " << vp;
      }
    }
  }
}

// The dirty-set contract: a prefix event re-collects only the slices whose
// planned blocks overlap the prefix, and a relationship event only the
// slices whose routing footprint meets the tier keys it changed, so some
// slices stay cached, and the tails reuse the alias evidence of the
// previous epochs; a link event re-collects every slice and probes every
// alias pair. Stream 4 opens with a withdraw, an announce, a relationship
// flip and a link failure.
TEST(ServeIncrementalTest, DirtySetIsActuallyPartial) {
  EngineFixture fx = make_engine("small", 42);
  fx.engine->rebuild_full();
  const std::vector<topo::Vp> vps = fx.scenario->vps_in(fx.vp_as);
  const std::uint64_t v0 = fx.engine->handle().version();
  serve::ChurnStream stream(fx.scenario->net(), 4);
  std::size_t clean_total = 0;
  std::size_t prefix_events = 0, rel_events = 0;
  for (int i = 0; i < 4; ++i) {
    const serve::ChurnEvent event = stream.next();
    const serve::ChurnApplyStats stats = fx.engine->apply(event);
    if (event.kind == serve::ChurnKind::kWithdraw ||
        event.kind == serve::ChurnKind::kAnnounce) {
      ++prefix_events;
      EXPECT_GT(stats.dirty_slices, 0u) << serve::describe(event);
      EXPECT_GT(stats.clean_slices, 0u) << serve::describe(event);
      for (std::size_t vp = 0; vp < fx.engine->vp_count(); ++vp) {
        ASSERT_FALSE(event.prefix.contains(vps[vp].addr));
      }
      EXPECT_GT(stats.alias_pairs_reused, 0u) << serve::describe(event);
    } else if (event.kind == serve::ChurnKind::kRelChange) {
      ++rel_events;
      EXPECT_GT(stats.clean_slices, 0u) << serve::describe(event);
      EXPECT_GT(stats.alias_pairs_reused, 0u) << serve::describe(event);
    } else {
      EXPECT_GT(stats.dirty_slices, 0u) << serve::describe(event);
      EXPECT_EQ(stats.clean_slices, 0u) << serve::describe(event);
      EXPECT_EQ(stats.alias_pairs_reused, 0u) << serve::describe(event);
    }
    EXPECT_GT(stats.alias_pairs_probed + stats.alias_pairs_reused, 0u);
    clean_total += stats.clean_slices;
  }
  // The stream must exercise all three rules.
  EXPECT_GT(prefix_events, 0u);
  EXPECT_GT(rel_events, 0u);
  EXPECT_LT(prefix_events + rel_events, 4u);
  // Incrementality must be real: across a handful of events at least some
  // slices were served from the cache rather than re-collected.
  EXPECT_GT(clean_total, 0u);
  // One publish per epoch, none skipped.
  EXPECT_EQ(fx.engine->handle().version(), v0 + 4);
  EXPECT_EQ(fx.engine->handle().current()->epoch(), fx.engine->epoch());
}

// Every kept slice must carry the footprint its own probes read: the one
// a fresh stack records collecting that slice alone, with the executor's
// slice seed (runtime/multi_vp.h). The executor reuses a stack across
// slices, so this fails if a memoized read stops recording.
void expect_solo_footprints(const EngineFixture& fx, std::uint64_t base_seed,
                            const std::string& label) {
  const runtime::SliceStore& store = fx.engine->store();
  const core::InferenceInputs inputs = fx.scenario->inputs_for(fx.vp_as);
  std::size_t differ = 0;
  for (std::size_t vp = 0; vp < fx.vps.size(); ++vp) {
    const auto& slices = store.plan.slices(vp);
    for (std::size_t i = 0; i < slices.size(); ++i) {
      auto services = fx.scenario->services_for(
          fx.vps[vp], net::mix(base_seed, vp, slices[i].target_as.value));
      std::vector<std::uint64_t> footprint;
      services->record_footprint(&footprint);
      core::Bdrmap(*services, inputs)
          .collect(store.plan.blocks_of(vp, slices[i]));
      std::sort(footprint.begin(), footprint.end());
      footprint.erase(std::unique(footprint.begin(), footprint.end()),
                      footprint.end());
      differ += footprint != store.traces[vp][i]->footprint;
    }
  }
  EXPECT_EQ(differ, 0u) << label;
}

// Every kept alias measurement must be what a cold run under the current
// routing measures: the Mercator source, the footprint and the verdicts of
// each address both runs probed. Stale evidence can leave the map as it
// is, so the map gate alone would not see it.
void expect_fresh_evidence(const EngineFixture& fx, std::uint64_t base_seed,
                           const std::string& label) {
  const std::vector<runtime::VpJob> jobs = contexts_of(fx);
  runtime::SliceStore cold;
  runtime::MultiVpExecutor(fx.pool.get()).run(jobs, {}, base_seed, &cold);
  std::size_t compared = 0, differ = 0;
  for (std::size_t vp = 0; vp < jobs.size(); ++vp) {
    const core::AliasEvidence& kept = fx.engine->store().evidence[vp];
    const core::AliasEvidence& fresh = cold.evidence[vp];
    for (const auto& [key, verdict] : kept.verdicts) {
      auto it = fresh.verdicts.find(key);
      if (it == fresh.verdicts.end()) continue;
      ++compared;
      differ += it->second != verdict;
    }
    for (const auto& [addr, source] : kept.udp_sources) {
      auto it = fresh.udp_sources.find(addr);
      if (it == fresh.udp_sources.end()) continue;
      ++compared;
      differ += it->second != source;
    }
    auto footprints = [](const core::AliasEvidence& e) {
      std::unordered_map<net::Ipv4Addr, std::vector<std::uint64_t>> out;
      for (std::size_t i = 0; i < e.footprint_addrs.size(); ++i) {
        out[e.footprint_addrs[i]].assign(
            e.footprint_keys.begin() + e.footprint_offsets[i],
            e.footprint_keys.begin() + e.footprint_offsets[i + 1]);
      }
      return out;
    };
    const auto fresh_footprints = footprints(fresh);
    for (const auto& [addr, keys] : footprints(kept)) {
      auto it = fresh_footprints.find(addr);
      if (it == fresh_footprints.end()) continue;
      ++compared;
      differ += it->second != keys;
    }
  }
  EXPECT_GT(compared, 0u) << label;
  EXPECT_EQ(differ, 0u) << label;
}

// The churn-sequence oracle for the relationship rule: all 19 access VPs,
// 30 epochs of a 4:1 mix (four prefix events, then one relationship
// flip). The flips cycle over three c2p edges of the VP network's
// provider P, so every edge flips to p2p and back:
//  * P's edge to the VP network, which moves nearly every route;
//  * P's edges to its first two multihomed stub customers. Turned p2p,
//    such a stub prefers P's peer route toward the VPs over its other
//    provider, so its routers source their replies toward the VPs from
//    other interfaces while the VPs' routes toward it may stand: only the
//    reply-side footprint keys see that flip.
// After every epoch the live map must equal a from-scratch recompute, and
// after every flip each kept slice's footprint its solo collection's.
TEST(ServeIncrementalTest, RelationshipFlipSequenceMatchesReference) {
  EngineFixture fx = make_engine("access", 42, nullptr, kAllVps);
  ASSERT_EQ(fx.engine->vp_count(), 19u);
  fx.engine->rebuild_full();
  const topo::Internet& net = fx.scenario->net();
  const asdata::RelationshipStore& rels = net.truth_relationships();

  struct Edge {
    net::AsId provider, customer;
    bool flipped = false;
  };
  std::vector<Edge> candidates;
  for (const topo::InterdomainLinkInfo& l : net.interdomain_links()) {
    const asdata::Relationship rel = rels.rel(l.as_a, l.as_b);
    if (rel != asdata::Relationship::kCustomer &&
        rel != asdata::Relationship::kProvider) {
      continue;
    }
    const bool a_provides = rel == asdata::Relationship::kCustomer;
    Edge e{a_provides ? l.as_a : l.as_b, a_provides ? l.as_b : l.as_a};
    if (std::none_of(candidates.begin(), candidates.end(), [&](const Edge& x) {
          return x.provider == e.provider && x.customer == e.customer;
        })) {
      candidates.push_back(e);
    }
  }
  std::vector<Edge> edges;
  for (const Edge& e : candidates) {
    if (e.customer == fx.vp_as) {
      edges.push_back(e);
      break;
    }
  }
  ASSERT_EQ(edges.size(), 1u);
  for (const Edge& e : candidates) {
    if (edges.size() < 3 && e.provider == edges.front().provider &&
        e.customer != fx.vp_as && rels.customers(e.customer).empty() &&
        rels.providers(e.customer).size() >= 2) {
      edges.push_back(e);
    }
  }
  ASSERT_EQ(edges.size(), 3u);

  std::vector<net::Prefix> up, down;
  for (const topo::AnnouncedPrefix& ap : net.announced()) {
    if (std::find(up.begin(), up.end(), ap.prefix) == up.end()) {
      up.push_back(ap.prefix);
    }
  }

  std::uint64_t state = 42;
  std::size_t flips = 0, partial_flips = 0, reused = 0, moved = 0;
  // Flip order 1 2 0 1 2 0: edge 0 (the VP network's) goes p2p at flip 3
  // and comes back at flip 6.
  const std::size_t order[] = {1, 2, 0, 1, 2, 0};
  for (int epoch = 1; epoch <= 30; ++epoch) {
    serve::ChurnEvent event;
    const std::uint64_t r = net::mix(state++, 1, 0);
    if (epoch % 5 == 0) {
      Edge& edge = edges[order[flips++]];
      edge.flipped = !edge.flipped;
      event.kind = serve::ChurnKind::kRelChange;
      event.as_a = edge.provider;
      event.as_b = edge.customer;
      event.new_rel = edge.flipped ? asdata::Relationship::kPeer
                                   : asdata::Relationship::kCustomer;
    } else {
      const bool announce = !down.empty() && (r >> 32) % 2 == 0;
      std::vector<net::Prefix>& from = announce ? down : up;
      std::vector<net::Prefix>& to = announce ? up : down;
      const std::size_t i = r % from.size();
      event.kind = announce ? serve::ChurnKind::kAnnounce
                            : serve::ChurnKind::kWithdraw;
      event.prefix = from[i];
      to.push_back(from[i]);
      from.erase(from.begin() + static_cast<std::ptrdiff_t>(i));
    }
    const serve::ChurnApplyStats stats = fx.engine->apply(event);
    const std::string label = "epoch " + std::to_string(stats.epoch) +
                              " after " + serve::describe(event);
    expect_identical(*fx.engine, label);
    if (HasFailure()) return;
    if (event.kind == serve::ChurnKind::kRelChange) {
      expect_solo_footprints(fx, 42 ^ 0x515, label);
      expect_fresh_evidence(fx, 42 ^ 0x515, label);
      partial_flips += stats.clean_slices > 0 && stats.dirty_slices > 0;
      reused += stats.alias_pairs_reused;
      moved += stats.alias_addrs_moved;
    }
  }
  EXPECT_EQ(flips, 6u);
  // The footprint rule must be exercised, not bypassed: flips that keep
  // some slices and re-collect others, evidence reused across flips, and
  // evidence addresses dropped because a flip moved them.
  EXPECT_GT(partial_flips, 0u);
  EXPECT_GT(reused, 0u);
  EXPECT_GT(moved, 0u);
}

TEST(ServeIncrementalTest, WithdrawDropsPrefixFromSnapshot) {
  EngineFixture fx = make_engine("small", 42);
  fx.engine->rebuild_full();
  const std::size_t before = fx.engine->handle().current()->prefix_count();
  // Find a withdraw event; the stream may open with something else.
  serve::ChurnStream stream(fx.scenario->net(), 42);
  for (int i = 0; i < 32; ++i) {
    const serve::ChurnEvent event = stream.next();
    fx.engine->apply(event);
    if (event.kind == serve::ChurnKind::kWithdraw) {
      // The withdrawn prefix leaves the routed view; lookups under it may
      // still resolve through a covering less-specific, so the observable
      // contract is the shrunken prefix table.
      EXPECT_LT(fx.engine->handle().current()->prefix_count(), before);
      return;
    }
  }
  FAIL() << "stream produced no withdraw in 32 events";
}

// serve.* observability: counters and spans land in the export. Schema
// validation of a bdrmapd export runs in ctest through
// tools/check_obs.py --serve (tests/CMakeLists.txt).
TEST(ServeIncrementalTest, ObsExportCarriesServeMetrics) {
  obs::ObsOptions obs_options;
  obs_options.enabled = true;
  obs_options.run_label = "serve-test";
  obs::Observability obs(obs_options);
  EngineFixture fx = make_engine("small", 42, &obs);
  fx.engine->rebuild_full();
  serve::ChurnStream stream(fx.scenario->net(), 42);
  fx.engine->apply(stream.next());

  obs::MetricsSnapshot snapshot = obs.registry()->snapshot();
  EXPECT_EQ(snapshot.counter("serve.churn.events"), 1u);
  EXPECT_EQ(snapshot.counter("serve.snapshot.compiles"), 2u);
  EXPECT_GT(snapshot.counter("serve.churn.dirty_slices") +
                snapshot.counter("serve.churn.clean_slices"),
            0u);

  obs::ExportInfo info;
  info.tool = "serve_incremental_test";
  info.scenario = "small";
  info.seed = 42;
  info.vps = fx.engine->vp_count();
  info.threads = 4;
  const std::string doc_text = obs::export_json(obs, info);
  EXPECT_NE(doc_text.find("serve.churn.events"), std::string::npos);
  EXPECT_NE(doc_text.find("serve.rebuild"), std::string::npos);
  EXPECT_NE(doc_text.find("serve.apply"), std::string::npos);
}

}  // namespace
}  // namespace bdrmap
