// Churn-sequence fuzzer: the oracle of ServeEngine's one dirty rule.
//
// Each case draws a seeded event sequence over all five churn kinds on one
// scenario family and a random subset of its VPs. After every epoch the
// live map must equal recompute_reference(), and every alias measurement
// the engine kept must equal a fresh one. That reference shares the
// engine's BGP and FIB memos, so it cannot see a memoized egress decision
// the churn forgot to drop; at the end the sequence is therefore replayed
// onto a fresh Scenario, whose memos never saw the churn: a cold engine
// there must publish the same map and collect every slice the live engine
// kept the same way, and fresh tail stacks there must measure what the
// live engine kept. A failing case is shrunk to a minimal event list,
// which the failure message prints.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "eval/degradation.h"
#include "eval/scenario_registry.h"
#include "netbase/rng.h"
#include "probe/tracer.h"
#include "runtime/thread_pool.h"
#include "serve/churn.h"
#include "serve/engine.h"

namespace bdrmap {
namespace {

struct Case {
  std::string family;
  std::vector<std::size_t> vps;  // indices into the VP network's VPs
  std::vector<serve::ChurnEvent> events;
};

std::string describe(const Case& c) {
  std::string out = c.family + ", VPs";
  for (std::size_t vp : c.vps) out += " " + std::to_string(vp);
  out += ", " + std::to_string(c.events.size()) + " events:";
  for (const serve::ChurnEvent& e : c.events) {
    out += "\n  " + serve::describe(e);
  }
  return out;
}

constexpr std::uint64_t kBaseSeed = 42 ^ 0x515;

// One engine over a scenario of the case's family and VP subset.
struct Deployment {
  explicit Deployment(const Case& c, runtime::ThreadPool* pool) {
    const auto spec = eval::scenario_spec(c.family, 42);
    scenario = std::make_unique<eval::Scenario>(*spec);
    const net::AsId vp_as = scenario->first_of(spec->vp_kind);
    const std::vector<topo::Vp> all = scenario->vps_in(vp_as);
    for (std::size_t i : c.vps) {
      serve::VpContext ctx;
      const topo::Vp vp = all[i];
      eval::Scenario* sc = scenario.get();
      ctx.make_services = [sc, vp](std::uint64_t s) {
        return std::unique_ptr<probe::ProbeServices>(sc->services_for(vp, s));
      };
      ctx.inputs = scenario->inputs_for(vp_as);
      contexts.push_back(std::move(ctx));
    }
    serve::EngineOptions options;
    options.base_seed = kBaseSeed;
    options.pool = pool;
    engine = std::make_unique<serve::ServeEngine>(
        scenario->net(), scenario->bgp_mutable(), scenario->fib_mutable(),
        contexts, options);
  }
  std::unique_ptr<eval::Scenario> scenario;  // outlives the engine
  std::vector<serve::VpContext> contexts;
  std::unique_ptr<serve::ServeEngine> engine;
};

// "" when both engines publish the same map per VP and by fingerprint.
std::string map_difference(
    const std::vector<core::BdrmapResult>& want,
    const serve::BorderMapSnapshot& want_snapshot,
    const serve::ServeEngine& engine) {
  const auto live = engine.handle().current();
  if (live->fingerprint() != want_snapshot.fingerprint()) {
    return "snapshot fingerprint differs";
  }
  for (std::size_t vp = 0; vp < want.size(); ++vp) {
    if (!eval::same_border_map(want[vp], engine.last_results()[vp])) {
      return "border map of VP " + std::to_string(vp) + " differs";
    }
  }
  return "";
}

// "" when every slice the engine kept equals the fresh engine's
// collection of it.
std::string slice_difference(const runtime::SliceStore& fresh,
                             const runtime::SliceStore& kept) {
  for (std::size_t vp = 0; vp < kept.traces.size(); ++vp) {
    for (std::size_t i = 0; i < kept.traces[vp].size(); ++i) {
      const core::CollectedTraces& a = *fresh.traces[vp][i];
      const core::CollectedTraces& b = *kept.traces[vp][i];
      if (a.footprint != b.footprint || a.probes_sent != b.probes_sent ||
          a.traces.size() != b.traces.size()) {
        return "VP " + std::to_string(vp) + " slice " + std::to_string(i) +
               " differs from a fresh collection";
      }
    }
  }
  return "";
}

// "" when every alias measurement the engine kept — each pair verdict,
// Mercator source and address footprint — equals what its VP's tail stack
// measures on `current`'s substrate. Kept evidence must stand for a fresh
// measurement under the current routing, whether or not the current
// tails consult it.
std::string evidence_difference(const Deployment& current,
                                const runtime::SliceStore& kept) {
  for (std::size_t vp = 0; vp < kept.evidence.size(); ++vp) {
    const auto services =
        current.contexts[vp].make_services(runtime::vp_seed(kBaseSeed, vp));
    core::AliasEvidence measured;
    core::AliasResolver resolver(*services, &measured);
    const core::AliasEvidence& e = kept.evidence[vp];
    const std::string at = "VP " + std::to_string(vp) + " kept a stale ";
    for (const auto& [key, verdict] : e.verdicts) {
      const net::Ipv4Addr a(static_cast<std::uint32_t>(key >> 32));
      const net::Ipv4Addr b(static_cast<std::uint32_t>(key));
      if (resolver.test_pair(a, b) != verdict) return at + "alias verdict";
    }
    for (const auto& [addr, source] : e.udp_sources) {
      resolver.mercator(addr, addr);
      if (measured.udp_sources.at(addr) != source) {
        return at + "Mercator source";
      }
    }
    auto footprints = [](const core::AliasEvidence& x) {
      std::map<net::Ipv4Addr, std::vector<std::uint64_t>> out;
      for (std::size_t i = 0; i < x.footprint_addrs.size(); ++i) {
        out[x.footprint_addrs[i]].assign(
            x.footprint_keys.begin() + x.footprint_offsets[i],
            x.footprint_keys.begin() + x.footprint_offsets[i + 1]);
      }
      return out;
    };
    if (footprints(e) != footprints(measured)) return at + "footprint";
  }
  return "";
}

// Runs the case; "" when every gate holds, else the first failure.
std::string run_case(const Case& c, runtime::ThreadPool* pool) {
  Deployment live(c, pool);
  live.engine->rebuild_full();
  for (std::size_t i = 0; i < c.events.size(); ++i) {
    live.engine->apply(c.events[i]);
    const serve::ServeEngine::Reference ref =
        live.engine->recompute_reference();
    std::string diff = map_difference(ref.per_vp, *ref.snapshot, *live.engine);
    if (!diff.empty()) diff += " from recompute_reference()";
    if (diff.empty()) diff = evidence_difference(live, live.engine->store());
    if (!diff.empty()) {
      return "epoch " + std::to_string(i + 1) + " after " +
             serve::describe(c.events[i]) + ": " + diff;
    }
  }
  Deployment fresh(c, pool);
  for (const serve::ChurnEvent& e : c.events) {
    serve::apply_event(e, fresh.scenario->bgp_mutable(),
                       fresh.scenario->fib_mutable());
  }
  fresh.engine->rebuild_full();
  std::string diff = map_difference(fresh.engine->last_results(),
                                    *fresh.engine->handle().current(),
                                    *live.engine);
  if (diff.empty()) {
    diff = slice_difference(fresh.engine->store(), live.engine->store());
  }
  if (diff.empty()) diff = evidence_difference(fresh, live.engine->store());
  return diff.empty() ? "" : "after the last epoch: " + diff +
                                 " on a fresh replay of the events";
}

// Removes events one at a time while the case still fails.
Case shrink(Case c, runtime::ThreadPool* pool) {
  for (std::size_t i = 0; i < c.events.size();) {
    Case trial = c;
    trial.events.erase(trial.events.begin() + static_cast<std::ptrdiff_t>(i));
    if (!run_case(trial, pool).empty()) {
      c = std::move(trial);
    } else {
      ++i;
    }
  }
  return c;
}

// Seeded draw of a case: 1-4 VPs, `count` consistent events. The draws
// favour what the chosen VPs read: prefixes covering their addresses, the
// links their walks toward the announced prefixes cross (IXP LANs first,
// then links whose far-side address only the link key covers), and the
// c2p edges of their network or over a crossed link.
Case draw_case(const std::string& family, std::uint64_t seed,
               std::size_t count) {
  const auto spec = eval::scenario_spec(family, 42);
  const eval::Scenario scenario(*spec);
  const topo::Internet& net = scenario.net();
  const net::AsId vp_as = scenario.first_of(spec->vp_kind);
  const std::vector<topo::Vp> all = scenario.vps_in(vp_as);
  net::Rng rng(seed);
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::uint32_t>(n - 1)));
  };

  Case c;
  c.family = family;
  std::vector<std::size_t> order(all.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  order.resize(std::min<std::size_t>(order.size(), 1 + pick(4)));
  std::sort(order.begin(), order.end());
  c.vps = order;

  // The interdomain links the chosen VPs' walks cross.
  std::vector<topo::LinkId> crossed;
  const route::Fib& fib = scenario.fib();
  for (std::size_t vp : c.vps) {
    for (const topo::AnnouncedPrefix& ap : net.announced()) {
      const route::Fib::RouteQuery q =
          fib.query(net::Ipv4Addr(ap.prefix.network().value() + 1));
      net::RouterId r = all[vp].attach_router;
      for (int hop = 0; hop < probe::kMaxTtl; ++hop) {
        const auto next = fib.next_hop(r, q);
        if (!next) break;
        if (next->crossed_interdomain) crossed.push_back(next->link);
        r = next->router;
      }
    }
  }
  auto is_crossed = [&crossed](topo::LinkId link) {
    return std::find(crossed.begin(), crossed.end(), link) != crossed.end();
  };
  // The links that deliver a far-side address whose owner's route toward
  // the VPs avoids the supplier across the link: only the link key covers
  // what alias probes of that address read.
  std::vector<topo::LinkId> link_key_only;
  for (const topo::Interface& iface : net.ifaces()) {
    const auto key = fib.query_key(fib.query(iface.addr));
    if (!key || *key != route::Fib::link_key(iface.link)) continue;
    const net::AsId supplier = net.link(iface.link).addr_space_owner;
    bool listed = false;
    for (const auto& tier : scenario.bgp().candidate_tiers(
             net.router(iface.router).owner, vp_as)) {
      listed |= std::binary_search(tier.begin(), tier.end(), supplier);
    }
    if (!listed) link_key_only.push_back(iface.link);
  }

  // Each candidate has a level: the higher, the closer to what the chosen
  // VPs read; 0 for the rest.
  struct Link {
    topo::InterdomainLinkInfo info;
    int level = 0;  // 3: crossed IXP LAN, 2: crossed link-key-only, 1: crossed
    bool down = false;
  };
  struct Edge {
    net::AsId provider, customer;
    int level = 0;  // 2: of the VP network, 1: over a crossed link
    bool flipped = false;
  };
  std::vector<Link> links;
  std::vector<Edge> edges;
  const asdata::RelationshipStore& rels = net.truth_relationships();
  for (const topo::InterdomainLinkInfo& info : net.interdomain_links()) {
    const int crossed_level = is_crossed(info.link) ? 1 : 0;
    if (std::none_of(links.begin(), links.end(), [&](const Link& l) {
          return l.info.link == info.link;
        })) {
      const bool key_only =
          std::find(link_key_only.begin(), link_key_only.end(), info.link) !=
          link_key_only.end();
      links.push_back(
          {info, crossed_level * (info.via_ixp ? 3 : key_only ? 2 : 1)});
    }
    const asdata::Relationship rel = rels.rel(info.as_a, info.as_b);
    if (rel != asdata::Relationship::kCustomer &&
        rel != asdata::Relationship::kProvider) {
      continue;
    }
    const bool a_provides = rel == asdata::Relationship::kCustomer;
    Edge e{a_provides ? info.as_a : info.as_b,
           a_provides ? info.as_b : info.as_a,
           info.as_a == vp_as || info.as_b == vp_as ? 2 : crossed_level};
    auto same = std::find_if(edges.begin(), edges.end(), [&](const Edge& x) {
      return x.provider == e.provider && x.customer == e.customer;
    });
    if (same == edges.end()) {
      edges.push_back(e);
    } else {
      same->level = std::max(same->level, e.level);
    }
  }
  struct Prefix {
    net::Prefix prefix;
    int level = 0;  // 2: covers a chosen VP's address
  };
  std::vector<Prefix> up, down;
  for (const topo::AnnouncedPrefix& ap : net.announced()) {
    if (std::any_of(up.begin(), up.end(),
                    [&](const Prefix& p) { return p.prefix == ap.prefix; })) {
      continue;
    }
    const bool covering = std::any_of(
        c.vps.begin(), c.vps.end(),
        [&](std::size_t vp) { return ap.prefix.contains(all[vp].addr); });
    up.push_back({ap.prefix, covering ? 2 : 0});
  }

  // Picks a member `ok` accepts at or above a level drawn uniformly from
  // 0..top, falling back a level at a time when none is there; nullopt
  // when `ok` accepts none.
  auto choose = [&](auto& items, int top,
                    auto ok) -> std::optional<std::size_t> {
    for (int level = top - static_cast<int>(pick(top + 1)); level >= 0;
         --level) {
      std::vector<std::size_t> from;
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (ok(items[i]) && items[i].level >= level) from.push_back(i);
      }
      if (!from.empty()) return from[pick(from.size())];
    }
    return std::nullopt;
  };
  while (c.events.size() < count) {
    serve::ChurnEvent e;
    e.kind = static_cast<serve::ChurnKind>(pick(5));
    switch (e.kind) {
      case serve::ChurnKind::kWithdraw:
      case serve::ChurnKind::kAnnounce: {
        const bool announce = e.kind == serve::ChurnKind::kAnnounce;
        std::vector<Prefix>& from = announce ? down : up;
        std::vector<Prefix>& to = announce ? up : down;
        const auto i = choose(from, 2, [](const Prefix&) { return true; });
        if (!i) continue;
        e.prefix = from[*i].prefix;
        to.push_back(from[*i]);
        from.erase(from.begin() + static_cast<std::ptrdiff_t>(*i));
        break;
      }
      case serve::ChurnKind::kLinkDown:
      case serve::ChurnKind::kLinkUp: {
        const bool want_down = e.kind == serve::ChurnKind::kLinkUp;
        const auto i = choose(
            links, 3, [&](const Link& l) { return l.down == want_down; });
        if (!i) continue;
        Link& l = links[*i];
        l.down = !l.down;
        e.link = l.info.link;
        e.as_a = l.info.as_a;
        e.as_b = l.info.as_b;
        break;
      }
      case serve::ChurnKind::kRelChange: {
        const auto i = choose(edges, 2, [](const Edge&) { return true; });
        if (!i) continue;
        Edge& edge = edges[*i];
        edge.flipped = !edge.flipped;
        e.as_a = edge.provider;
        e.as_b = edge.customer;
        e.new_rel = edge.flipped ? asdata::Relationship::kPeer
                                 : asdata::Relationship::kCustomer;
        break;
      }
    }
    c.events.push_back(e);
  }
  return c;
}

// The bounded run: three families, six seeded cases each, twelve events
// per case.
TEST(ServeChurnFuzz, RandomSequencesMatchReferenceAndFreshReplay) {
  auto pool = runtime::make_pool(3, nullptr);
  std::size_t kinds_seen[5] = {};
  for (const char* family : {"small", "access", "hidden_ixp"}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const Case c = draw_case(family, seed, 12);
      for (const serve::ChurnEvent& e : c.events) {
        ++kinds_seen[static_cast<std::size_t>(e.kind)];
      }
      if (run_case(c, pool.get()).empty()) continue;
      const Case minimal = shrink(c, pool.get());
      ADD_FAILURE() << "seed " << seed << ": " << run_case(minimal, pool.get())
                    << "\nminimal case: " << describe(minimal);
    }
  }
  for (std::size_t kind = 0; kind < 5; ++kind) {
    EXPECT_GT(kinds_seen[kind], 0u)
        << serve::churn_kind_name(static_cast<serve::ChurnKind>(kind));
  }
}

}  // namespace
}  // namespace bdrmap
