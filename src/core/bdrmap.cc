#include "core/bdrmap.h"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "core/midar.h"
#include "netbase/contract.h"

namespace bdrmap::core {

namespace {

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

}  // namespace

std::vector<AsId> BdrmapResult::neighbor_ases() const {
  std::vector<AsId> out;
  out.reserve(links_by_as.size());
  for (const auto& [as, indices] : links_by_as) out.push_back(as);
  return out;
}

Bdrmap::Bdrmap(probe::ProbeServices& services, const InferenceInputs& inputs,
               BdrmapConfig config)
    : services_(services), inputs_(inputs), config_(config) {}

std::vector<ObservedTrace> Bdrmap::collect_traces(
    std::span<const ProbeBlock> blocks) {
  std::vector<ObservedTrace> traces;
  stats_.blocks = blocks.size();
  obs::Span trace_span(tracer(), "stage.trace");

  auto is_vp = [&](AsId as) {
    return std::find(inputs_.vp_ases.begin(), inputs_.vp_ases.end(), as) !=
           inputs_.vp_ases.end();
  };
  // "External" for retry/stop-set purposes: routed and not the VP network.
  auto external_origin = [&](Ipv4Addr addr) -> AsId {
    const auto* set = inputs_.origins->origins(addr);
    if (!set || set->empty()) return AsId{};
    for (AsId o : *set) {
      if (is_vp(o)) return AsId{};
    }
    return set->front();
  };

  for (const ProbeBlock& block : blocks) {
    int attempts = static_cast<int>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(config_.max_addrs_per_block),
        block.prefix.size()));
    // First destination probed in a block (§5.3): skip the network address
    // of real prefixes, probe tiny ones from their first address.
    Ipv4Addr dst = block.prefix.size() >= 4
                       ? Ipv4Addr(block.prefix.first().value() + 1)
                       : block.prefix.first();
    for (int attempt = 0; attempt < attempts; ++attempt, dst = dst.next()) {
      if (!block.prefix.contains(dst)) break;
      probe::StopFn stop = nullptr;
      if (config_.enable_stop_set) {
        stop = [&](Ipv4Addr a) { return stopset_.contains(block.target_as, a); };
      }
      probe::TraceResult raw = services_.trace(dst, stop);
      if (raw.failed) {
        // The channel abandoned this probe. Record the unmeasured target
        // and fall through to the next address of the block (§5.3's retry
        // discipline) instead of aborting the run.
        ++stats_.probe_failures;
        failures_.push_back({dst, block.target_as});
        continue;
      }
      ObservedTrace trace = observe(raw, block.target_as);
      if (trace.stopped_by_stopset) ++stats_.stopset_hits;

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
            stopset_.add(block.target_as, hop.addr);
          }
          saw_external = true;
          break;
        }
      }
      traces.push_back(std::move(trace));
      if (saw_external) break;
    }
  }
  stats_.traces = traces.size();
  trace_span.note("traces", static_cast<std::int64_t>(traces.size()));
  trace_span.note("stopset_hits",
                  static_cast<std::int64_t>(stats_.stopset_hits));
  return traces;
}

std::vector<std::vector<Ipv4Addr>> Bdrmap::resolve_aliases(
    const std::vector<ObservedTrace>& traces, AliasEvidence* evidence) {
  obs::Span alias_span(tracer(), "stage.alias");
  // Every address observed in a time-exceeded reply participates.
  std::vector<Ipv4Addr> ttl_addrs;
  std::unordered_set<Ipv4Addr> seen;
  // Fan-out/fan-in candidate groups: addresses sharing a predecessor may be
  // per-destination reply addresses of one router (Figure 13 / virtual
  // routers); addresses sharing a successor may be parallel interfaces.
  std::unordered_map<Ipv4Addr, std::vector<Ipv4Addr>> successors;
  std::unordered_map<Ipv4Addr, std::vector<Ipv4Addr>> predecessors;
  // Consecutive hop pairs for prefixscan.
  std::vector<std::pair<Ipv4Addr, Ipv4Addr>> adjacent;

  for (const auto& trace : traces) {
    Ipv4Addr prev;
    bool prev_valid = false;
    for (const auto& hop : trace.hops) {
      if (hop.kind != probe::ReplyKind::kTimeExceeded) {
        prev_valid = false;
        continue;
      }
      if (seen.insert(hop.addr).second) ttl_addrs.push_back(hop.addr);
      if (prev_valid && prev != hop.addr) {
        auto& succ = successors[prev];
        if (std::find(succ.begin(), succ.end(), hop.addr) == succ.end()) {
          succ.push_back(hop.addr);
          predecessors[hop.addr].push_back(prev);
          adjacent.emplace_back(prev, hop.addr);
        }
      }
      prev = hop.addr;
      prev_valid = true;
    }
  }

  if (!config_.enable_alias_resolution) {
    std::vector<std::vector<Ipv4Addr>> singletons;
    singletons.reserve(ttl_addrs.size());
    for (Ipv4Addr a : ttl_addrs) singletons.push_back({a});
    stats_.alias_pair_tests = 0;
    return singletons;
  }

  AliasResolver resolver(services_, config_.alias, evidence);

  // Prefixscan over observed point-to-point hops (§5.3): confirms inbound
  // interfaces and yields near-side aliases.
  for (const auto& [prev, hop] : adjacent) {
    resolver.prefixscan(prev, hop);
  }

  // Pairwise tests within candidate groups (capped for probe economy).
  auto test_group = [&](const std::vector<Ipv4Addr>& group) {
    std::size_t limit = std::min(group.size(), config_.max_candidate_group);
    for (std::size_t i = 0; i < limit; ++i) {
      for (std::size_t j = i + 1; j < limit; ++j) {
        resolver.test_pair(group[i], group[j]);
      }
    }
  };
  for (const auto& [addr, group] : successors) {
    if (group.size() > 1) test_group(group);
  }
  for (const auto& [addr, group] : predecessors) {
    if (group.size() > 1) test_group(group);
  }

  if (config_.enable_midar_discovery) {
    obs::Span midar_span(tracer(), "stage.midar");
    MidarResolver midar(services_, resolver);
    midar.resolve(ttl_addrs);
  }

  stats_.alias_pair_tests = resolver.pair_tests();
  stats_.alias_pairs_reused = resolver.pairs_reused();
  alias_span.note("pair_tests",
                  static_cast<std::int64_t>(stats_.alias_pair_tests));
  alias_span.note("pairs_reused",
                  static_cast<std::int64_t>(stats_.alias_pairs_reused));
  return resolver.groups(ttl_addrs);
}

std::unordered_set<Ipv4Addr> Bdrmap::confirm_inbound(
    const std::vector<ObservedTrace>& traces) {
  std::unordered_set<Ipv4Addr> confirmed;
  if (!config_.enable_timestamp_checks) return confirmed;
  auto is_vp = [&](AsId as) {
    return std::find(inputs_.vp_ases.begin(), inputs_.vp_ases.end(), as) !=
           inputs_.vp_ases.end();
  };
  std::unordered_set<Ipv4Addr> tested;
  for (const auto& trace : traces) {
    // First externally-mapped hop: the address third-party detection would
    // reason about (§5.4.5); one timestamp probe settles it when honored.
    for (const auto& hop : trace.hops) {
      if (hop.kind != probe::ReplyKind::kTimeExceeded) continue;
      const auto* set = inputs_.origins->origins(hop.addr);
      if (!set || set->empty()) continue;
      bool vp_originated = false;
      for (AsId o : *set) vp_originated |= is_vp(o);
      if (vp_originated) continue;
      if (tested.insert(hop.addr).second) {
        auto verdict = services_.timestamp_probe(trace.dst, hop.addr);
        if (verdict && *verdict) confirmed.insert(hop.addr);
      }
      break;
    }
  }
  return confirmed;
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
  std::unordered_set<AsId> linked_orgs;
  for (std::size_t n = 0; n < routers.size(); ++n) {
    if (result.graph.merged_away(n)) continue;
    const GraphRouter& router = routers[n];
    if (router.vp_side || router.how == Heuristic::kNone ||
        !router.owner.valid()) {
      continue;
    }
    bool any_near = false;
    for (std::size_t p : router.prev) {  // ascending: the links' order
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
    if (any_near) linked_orgs.insert(heuristics.org_rep(router.owner));
  }
  for (const auto& u : uncooperative) {
    if (linked_orgs.count(heuristics.org_rep(u.neighbor))) continue;
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

BdrmapResult Bdrmap::run() { return run_with(collect()); }

CollectedTraces Bdrmap::collect() {
  obs::Span schedule_span(tracer(), "stage.schedule");
  const std::vector<ProbeBlock> blocks =
      build_probe_blocks(*inputs_.origins, inputs_.vp_ases);
  schedule_span.note("blocks", static_cast<std::int64_t>(blocks.size()));
  schedule_span.close();
  return collect(blocks);
}

CollectedTraces Bdrmap::collect(std::span<const ProbeBlock> blocks) {
  // Each instance is single-threaded INTERNALLY: the stop set, stats and
  // failure log mutate without locks, and services_ is stateful (RNG,
  // probe counters). runtime::MultiVpExecutor gives every slice and every
  // tail its own instance; a second thread entering the same instance is
  // a bug we fail loudly on rather than corrupt silently.
  const bool reentered = running_.exchange(true, std::memory_order_acq_rel);
  BDRMAP_EXPECTS(!reentered,
                 "core::Bdrmap is single-threaded per instance; collect() "
                 "re-entered concurrently");
  struct RunGuard {
    std::atomic<bool>& flag;
    ~RunGuard() { flag.store(false, std::memory_order_release); }
  } guard{running_};

  obs::Span collect_span(tracer(), "bdrmap.collect");
  const std::uint64_t probes_before = services_.probes_sent();
  CollectedTraces out;
  out.traces = collect_traces(blocks);
  out.failures = std::move(failures_);
  out.probes_sent = services_.probes_sent() - probes_before;
  out.blocks = stats_.blocks;
  out.stopset_hits = stats_.stopset_hits;
  out.probe_failures = stats_.probe_failures;
  collect_span.note("traces", static_cast<std::int64_t>(out.traces.size()));
  return out;
}

BdrmapResult Bdrmap::run_with(CollectedTraces collected,
                              AliasEvidence* evidence) {
  const bool reentered = running_.exchange(true, std::memory_order_acq_rel);
  BDRMAP_EXPECTS(!reentered,
                 "core::Bdrmap is single-threaded per instance; run_with() "
                 "re-entered concurrently");
  struct RunGuard {
    std::atomic<bool>& flag;
    ~RunGuard() { flag.store(false, std::memory_order_release); }
  } guard{running_};

  obs::Span run_span(tracer(), "bdrmap.run");
  const std::uint64_t probes_before = services_.probes_sent();

  stats_.blocks = collected.blocks;
  stats_.stopset_hits = collected.stopset_hits;
  stats_.probe_failures = collected.probe_failures;
  stats_.traces = collected.traces.size();
  failures_ = std::move(collected.failures);
  std::vector<ObservedTrace> traces = std::move(collected.traces);

  auto groups = resolve_aliases(traces, evidence);
  auto confirmed = confirm_inbound(traces);

  HeuristicsConfig heuristics_config = config_.heuristics;
  if (config_.enable_timestamp_checks) {
    heuristics_config.confirmed_inbound = &confirmed;
  }
  // Collection counted its own probes (possibly on other stacks); the
  // tail adds only what this stack spent since it started.
  stats_.probes_sent =
      collected.probes_sent + services_.probes_sent() - probes_before;

  obs::Span merge_span(tracer(), "stage.merge");
  RouterGraph graph(std::move(traces), groups);
  merge_span.close();

  obs::Span heuristics_span(tracer(), "stage.heuristics");
  BdrmapResult result =
      infer_borders(std::move(graph), inputs_, heuristics_config, stats_);
  heuristics_span.note("links", static_cast<std::int64_t>(result.links.size()));
  heuristics_span.close();

  result.failed_targets = std::move(failures_);
  run_span.note("probes_sent",
                static_cast<std::int64_t>(result.stats.probes_sent));
  publish_result(result, registry());
  return result;
}

}  // namespace bdrmap::core
