#include "core/bdrmap.h"

#include <algorithm>
#include <span>

#include "core/stopset.h"
#include "netbase/flat_memo.h"
#include "netbase/radix_sort.h"

namespace bdrmap::core {

namespace {

// §5.3: up to five addresses per block when earlier probes see nothing
// external (guards against third-party misinterpretation).
constexpr std::uint64_t kMaxAddrsPerBlock = 5;
// Cap on the number of pair tests within one candidate fan-out group.
constexpr std::size_t kMaxCandidateGroup = 12;

// Publishes the finished run to the registry: pipeline stats, the
// confidence of every placement and each §5.4 rule's fires and skips.
// Post-hoc over the result — the metrics can never perturb it.
void publish_result(const BdrmapResult& result,
                    obs::MetricsRegistry* registry) {
  if (!registry) return;
  registry->counter("core.blocks").inc(result.stats.blocks);
  registry->counter("core.traces").inc(result.stats.traces);
  registry->counter("core.alias_pair_tests")
      .inc(result.stats.alias_pair_tests);
  registry->counter("core.alias_pairs_reused")
      .inc(result.stats.alias_pairs_reused);
  registry->counter("core.alias_pairs_probed")
      .inc(result.stats.alias_pair_tests - result.stats.alias_pairs_reused);
  registry->counter("core.routers").inc(result.stats.routers);
  registry->counter("core.vp_routers").inc(result.stats.vp_routers);
  registry->counter("core.neighbor_routers")
      .inc(result.stats.neighbor_routers);
  registry->counter("core.stopset_hits").inc(result.stats.stopset_hits);
  registry->counter("core.probe_failures").inc(result.stats.probe_failures);
  registry->counter("core.links").inc(result.links.size());

  // One core.confidence.<tag> observation per placement, in basis points
  // of [0,1]: one per neighbor router (so the router tags' counts sum to
  // core.neighbor_routers) and one per §5.4.8 link, which has no router of
  // its own (at most core.heuristic.uncooperative.fires of them).
  // tools/check_obs.py checks both sums.
  const std::vector<std::uint64_t> kConfidenceBounds{2500, 5000, 7500, 9000,
                                                     10000};
  auto observe_confidence = [&](Heuristic how, double confidence) {
    registry
        ->histogram(std::string("core.confidence.") + heuristic_tag(how),
                    kConfidenceBounds)
        .observe(static_cast<std::uint64_t>(confidence * 10000.0 + 0.5));
  };
  const auto& routers = result.graph.routers();
  for (std::size_t n = 0; n < routers.size(); ++n) {
    if (result.graph.merged_away(n)) continue;
    const GraphRouter& router = routers[n];
    if (router.vp_side || router.how == Heuristic::kNone) continue;
    observe_confidence(router.how, router.confidence);
  }
  for (const InferredLink& link : result.links) {
    if (link.neighbor_router == InferredLink::kNoRouter) {
      observe_confidence(link.how, link.confidence);
    }
  }
  // How often each §5.4 rule placed something, and how often run() skipped
  // it outright (DESIGN.md §15).
  for (const HeuristicRuleStats& rule : result.rule_stats) {
    registry->counter("core.heuristic." + rule.slug + ".fires")
        .inc(rule.fires);
    registry->counter("core.heuristic." + rule.slug + ".skips")
        .inc(rule.skips);
  }
}

obs::Tracer* tracer_of(const BdrmapConfig& config) {
  return config.obs ? config.obs->tracer() : nullptr;
}

// Tests the alias candidates of `traces` on `services` and returns the
// router groups over every time-exceeded address.
AliasGroups resolve_aliases(
    probe::ProbeServices& services, const BdrmapConfig& config,
    const SharedTraces& traces, AliasEvidence* evidence, BdrmapStats& stats) {
  obs::Span alias_span(tracer_of(config), "stage.alias");
  // BDRMAP_HOT_BEGIN(alias_candidates)
  // Every address observed in a time-exceeded reply participates. Each
  // distinct edge between consecutive ones is a fan-out/fan-in candidate:
  // addresses sharing a predecessor may be per-destination reply addresses
  // of one router (Figure 13 / virtual routers); addresses sharing a
  // successor may be parallel interfaces. `seen` numbers the edges in trace
  // order.
  struct Edge {
    Ipv4Addr prev, hop;
    std::uint32_t seen;
  };
  std::vector<Ipv4Addr> ttl_addrs;
  std::vector<Edge> edges;
  const ObservedTrace* last = nullptr;
  for (const auto& trace : traces) {
    // Consecutive traces mostly share a path prefix, whose hops and edges
    // the trace before has already listed.
    std::size_t shared = 0;
    if (last) {
      const std::size_t n = std::min(last->hops.size(), trace.hops.size());
      while (shared < n && last->hops[shared].addr == trace.hops[shared].addr &&
             last->hops[shared].kind == trace.hops[shared].kind) {
        ++shared;
      }
    }
    last = &trace;
    const ObservedHop* prev = nullptr;
    for (std::size_t i = 0; i < trace.hops.size(); ++i) {
      const ObservedHop& hop = trace.hops[i];
      if (hop.kind != probe::ReplyKind::kTimeExceeded) {
        prev = nullptr;
        continue;
      }
      if (i >= shared) {
        ttl_addrs.push_back(hop.addr);
        if (prev && prev->addr != hop.addr) {
          edges.push_back({prev->addr, hop.addr,
                           static_cast<std::uint32_t>(edges.size())});
        }
      }
      prev = &hop;
    }
  }
  net::radix_sort(ttl_addrs, 32, [](Ipv4Addr a) { return a.value(); });
  ttl_addrs.erase(std::unique(ttl_addrs.begin(), ttl_addrs.end()),
                  ttl_addrs.end());
  // The distinct edges at their first sighting, back in first-seen order.
  net::radix_sort(edges, 64, [](const Edge& e) {
    return (std::uint64_t{e.prev.value()} << 32) | e.hop.value();
  });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const Edge& x, const Edge& y) {
                            return x.prev == y.prev && x.hop == y.hop;
                          }),
              edges.end());
  net::radix_sort(edges, 32, [](const Edge& e) { return e.seen; });

  // The pairs to test, as pair keys: prefixscan's /31 mates (§5.3), and
  // every pair among the first kMaxCandidateGroup members, in trace order,
  // of each successor and predecessor group (capped for probe economy).
  // A group is the first-seen list stably sorted by its shared address.
  std::vector<std::uint64_t> pairs;
  for (const Edge& e : edges) {
    const Ipv4Addr m31 = net::mate31(e.hop);
    if (m31 != e.prev) pairs.push_back(pair_key(e.prev, m31));
  }
  std::vector<Edge> grouped;
  auto add_groups = [&](auto group_of, auto member_of) {
    grouped = edges;
    net::radix_sort(grouped, 32,
                    [&](const Edge& e) { return group_of(e).value(); });
    for (std::size_t begin = 0, end; begin < grouped.size(); begin = end) {
      end = begin + 1;
      while (end < grouped.size() &&
             group_of(grouped[end]) == group_of(grouped[begin])) {
        ++end;
      }
      const std::size_t limit =
          begin + std::min(end - begin, kMaxCandidateGroup);
      for (std::size_t i = begin; i < limit; ++i) {
        for (std::size_t j = i + 1; j < limit; ++j) {
          pairs.push_back(
              pair_key(member_of(grouped[i]), member_of(grouped[j])));
        }
      }
    }
  };
  add_groups([](const Edge& e) { return e.prev; },  // successors of prev
             [](const Edge& e) { return e.hop; });
  add_groups([](const Edge& e) { return e.hop; },  // predecessors of hop
             [](const Edge& e) { return e.prev; });
  // BDRMAP_HOT_END(alias_candidates)

  // Each distinct pair is tested once, in ascending key order, so each
  // verdict appends to the resolver's sorted list. A verdict does not
  // depend on the pairs tested before it.
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  AliasResolver resolver(services, evidence);
  for (std::uint64_t key : pairs) {
    resolver.test_pair(Ipv4Addr(static_cast<std::uint32_t>(key >> 32)),
                       Ipv4Addr(static_cast<std::uint32_t>(key)));
  }
  // Prefixscan finds its /31 verdicts in hand, and tests the /30 mate
  // where the /31 mate is no alias of the previous hop.
  for (const Edge& e : edges) resolver.prefixscan(e.prev, e.hop);

  stats.alias_pair_tests = resolver.pair_tests();
  stats.alias_pairs_reused = resolver.pairs_reused();
  alias_span.note("pair_tests",
                  static_cast<std::int64_t>(stats.alias_pair_tests));
  alias_span.note("pairs_reused",
                  static_cast<std::int64_t>(stats.alias_pairs_reused));
  return resolver.groups(ttl_addrs);
}

}  // namespace

std::vector<AsId> BdrmapResult::neighbor_ases() const {
  std::vector<AsId> out;
  out.reserve(links_by_as.size());
  for (const auto& [as, indices] : links_by_as) out.push_back(as);
  return out;
}

BdrmapResult infer_borders(RouterGraph graph, const InferenceInputs& inputs,
                           const HeuristicsConfig& config,
                           BdrmapStats stats) {
  BdrmapResult result{std::move(graph), {}, {}, {}, {}, {}};
  Heuristics heuristics(result.graph, inputs, config);
  auto uncooperative = heuristics.run();
  result.rule_stats = heuristics.rule_stats();

  // Routers that are the first non-VP router of some trace (counting only
  // time-exceeded hops): these border the VP network even when the hop
  // before them never answered.
  const RouterGraph& inferred = result.graph;
  const auto& routers = inferred.routers();
  std::vector<std::uint8_t> follows_vp(routers.size(), 0);
  // BDRMAP_HOT_BEGIN(follows_vp)
  for (std::size_t t = 0; t < inferred.traces().size(); ++t) {
    const auto& hops = inferred.traces()[t].hops;
    const std::span<const std::uint32_t> ids = inferred.hop_ids(t);
    for (std::size_t i = 0; i < hops.size(); ++i) {
      if (hops[i].kind != probe::ReplyKind::kTimeExceeded) continue;
      const std::uint32_t r = inferred.router_of_id(ids[i]);
      if (routers[r].vp_side) continue;
      follows_vp[r] = 1;
      break;
    }
  }
  // BDRMAP_HOT_END(follows_vp)

  // Emit router-level interdomain links: every (VP-side router -> inferred
  // neighbor router) adjacency, plus first-after-gap borders, plus the
  // §5.4.8 placements for otherwise-uncovered neighbors.
  std::vector<AsId> linked_orgs;  // sorted and distinct once filled
  for (std::size_t n = 0; n < routers.size(); ++n) {
    if (result.graph.merged_away(n)) continue;
    const GraphRouter& router = routers[n];
    if (router.vp_side || router.how == Heuristic::kNone ||
        !router.owner.valid()) {
      continue;
    }
    bool any_near = false;
    for (std::size_t p : inferred.prev(n)) {  // ascending: the links' order
      if (routers[p].vp_side) {
        result.links.push_back(
            {p, n, router.owner, router.how, router.confidence});
        any_near = true;
      }
    }
    if (!any_near && follows_vp[n]) {
      result.links.push_back({InferredLink::kNoRouter, n, router.owner,
                              router.how, router.confidence});
      any_near = true;
    }
    if (any_near) linked_orgs.push_back(heuristics.org_rep(router.owner));
  }
  std::sort(linked_orgs.begin(), linked_orgs.end());
  linked_orgs.erase(std::unique(linked_orgs.begin(), linked_orgs.end()),
                    linked_orgs.end());
  for (const auto& u : uncooperative) {
    if (std::binary_search(linked_orgs.begin(), linked_orgs.end(),
                           heuristics.org_rep(u.neighbor))) {
      continue;
    }
    result.links.push_back(
        {u.vp_router, InferredLink::kNoRouter, u.neighbor, u.how,
         u.confidence});
  }

  for (std::size_t i = 0; i < result.links.size(); ++i) {
    result.links_by_as[result.links[i].neighbor_as].push_back(i);
  }

  stats.routers = 0;
  for (std::size_t n = 0; n < routers.size(); ++n) {
    if (result.graph.merged_away(n)) continue;
    ++stats.routers;
    if (routers[n].vp_side) {
      ++stats.vp_routers;
    } else if (routers[n].how != Heuristic::kNone) {
      ++stats.neighbor_routers;
    }
  }
  result.stats = stats;
  return result;
}

CollectedTraces collect_blocks(probe::ProbeServices& services,
                               const InferenceInputs& inputs,
                               const BdrmapConfig& config,
                               std::span<const ProbeBlock> blocks) {
  obs::Span collect_span(tracer_of(config), "bdrmap.collect");
  const std::uint64_t probes_before = services.probes_sent();
  CollectedTraces out;
  out.blocks = blocks.size();
  std::vector<ObservedTrace> traces;
  // One trace per block unless a block needs another address.
  traces.reserve(blocks.size());
  StopSet stopset;  // this call's alone, never shared across VPs
  obs::Span trace_span(tracer_of(config), "stage.trace");

  auto is_vp = [&](AsId as) {
    return std::find(inputs.vp_ases.begin(), inputs.vp_ases.end(), as) !=
           inputs.vp_ases.end();
  };
  // "External" for retry/stop-set purposes: routed and not the VP network.
  // Looked up once per distinct address in this call: a slice's traces
  // cross the same VP-side hops over and over.
  net::FlatMemo<AsId> origin_memo;
  auto external_origin = [&](Ipv4Addr addr) -> AsId {
    if (const AsId* known = origin_memo.find(addr.value())) return *known;
    AsId origin;
    const auto* set = inputs.origins->origins(addr);
    if (set && !set->empty() &&
        std::none_of(set->begin(), set->end(), is_vp)) {
      origin = set->front();
    }
    return origin_memo.insert(addr.value(), origin);
  };

  for (const ProbeBlock& block : blocks) {
    int attempts = static_cast<int>(
        std::min<std::uint64_t>(kMaxAddrsPerBlock, block.prefix.size()));
    // First destination probed in a block (§5.3): skip the network address
    // of real prefixes, probe tiny ones from their first address.
    Ipv4Addr dst = block.prefix.size() >= 4
                       ? Ipv4Addr(block.prefix.first().value() + 1)
                       : block.prefix.first();
    const auto in_stopset = [&](Ipv4Addr a) {
      return stopset.contains(block.target_as, a);
    };
    const probe::StopFn stop =
        config.enable_stop_set ? probe::StopFn(in_stopset) : nullptr;
    // BDRMAP_HOT_BEGIN(collect_attempts) — BDR104: one trace per pass; the
    // stored hops (observe) are its only allocation.
    for (int attempt = 0; attempt < attempts; ++attempt, dst = dst.next()) {
      if (!block.prefix.contains(dst)) break;
      probe::TraceResult raw = services.trace(dst, stop);
      if (raw.failed) {
        // The channel abandoned this probe. Record the unmeasured target
        // and fall through to the next address of the block (§5.3's retry
        // discipline) instead of aborting the run.
        ++out.probe_failures;
        out.failures.push_back({dst, block.target_as});
        continue;
      }
      ObservedTrace trace = observe(raw, block.target_as);
      if (trace.stopped_by_stopset) ++out.stopset_hits;

      // Record the first externally-originated address for the stop set,
      // and decide whether this block needs another address (§5.3: retry
      // when nothing external was observed, or when the only external
      // address was the probed address itself).
      bool saw_external = false;
      for (std::size_t i = 0; i < trace.hops.size(); ++i) {
        const auto& hop = trace.hops[i];
        if (hop.kind != probe::ReplyKind::kTimeExceeded) continue;
        AsId origin = external_origin(hop.addr);
        if (origin.valid()) {
          // Never stop on the first hop: a gateway answering with
          // provider-assigned space would otherwise blind every
          // subsequent trace toward this AS.
          if (!saw_external && i > 0) {
            stopset.add(block.target_as, hop.addr);
          }
          saw_external = true;
          break;
        }
      }
      traces.push_back(std::move(trace));
      if (saw_external) break;
    }
    // BDRMAP_HOT_END(collect_attempts)
  }
  trace_span.note("traces", static_cast<std::int64_t>(traces.size()));
  trace_span.note("stopset_hits",
                  static_cast<std::int64_t>(out.stopset_hits));
  trace_span.close();
  out.traces = std::move(traces);
  out.probes_sent = services.probes_sent() - probes_before;
  collect_span.note("traces", static_cast<std::int64_t>(out.traces.size()));
  return out;
}

BdrmapResult run_tail(probe::ProbeServices& services,
                      const InferenceInputs& inputs, const BdrmapConfig& config,
                      CollectedTraces collected, AliasEvidence* evidence) {
  obs::Tracer* tracer = tracer_of(config);
  obs::Span run_span(tracer, "bdrmap.run");
  const std::uint64_t probes_before = services.probes_sent();

  BdrmapStats stats;
  stats.blocks = collected.blocks;
  stats.stopset_hits = collected.stopset_hits;
  stats.probe_failures = collected.probe_failures;
  stats.traces = collected.traces.size();
  SharedTraces traces = std::move(collected.traces);

  auto groups = resolve_aliases(services, config, traces, evidence, stats);
  // Collection counted its own probes (possibly on other stacks); the
  // tail adds only what this stack spent since it started.
  stats.probes_sent =
      collected.probes_sent + services.probes_sent() - probes_before;

  obs::Span merge_span(tracer, "stage.merge");
  RouterGraph graph(std::move(traces), groups);
  merge_span.close();

  obs::Span heuristics_span(tracer, "stage.heuristics");
  BdrmapResult result =
      infer_borders(std::move(graph), inputs, config.heuristics, stats);
  heuristics_span.note("links", static_cast<std::int64_t>(result.links.size()));
  heuristics_span.close();

  result.failed_targets = std::move(collected.failures);
  run_span.note("probes_sent",
                static_cast<std::int64_t>(result.stats.probes_sent));
  publish_result(result, config.obs ? config.obs->registry() : nullptr);
  return result;
}

}  // namespace bdrmap::core
