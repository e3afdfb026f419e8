// bdrmap: the complete border-mapping pipeline (Figure 2 of the paper).
//
// Drives targeted traceroutes toward every routed block (§5.3), resolves
// aliases (Ally / Mercator / MIDAR / prefixscan), builds the router-level
// graph, applies the §5.4 ownership heuristics, and reports the interdomain
// links of the network hosting the vantage point.
//
// The class is written against probe::ProbeServices, so the identical
// inference runs on a local prober or on the §5.8 split deployment.
//
// Threading model: one Bdrmap instance == one thread. The instance
// mutates its stop set, stats, failure log and (through services_) the
// probe RNG without any locks, and every stage contracts against
// concurrent re-entry. Parallelism happens one level up:
// runtime::MultiVpExecutor constructs an instance per (VP, target-AS)
// slice and per VP inference tail, and only shares the read-only
// InferenceInputs, which must stay unmutated (and alive) for the duration
// of every run that references it.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/alias_resolution.h"
#include "core/blocks.h"
#include "core/heuristics.h"
#include "core/observations.h"
#include "core/router_graph.h"
#include "core/stopset.h"
#include "obs/obs.h"
#include "probe/types.h"

namespace bdrmap::core {

struct BdrmapConfig {
  // §5.3: up to five addresses per block when earlier probes see nothing
  // external (guards against third-party misinterpretation).
  int max_addrs_per_block = 5;
  bool enable_stop_set = true;          // ablation: doubletree stop set
  bool enable_alias_resolution = true;  // ablation: Figure 13's failure mode
  // Extension: IP prespecified-timestamp probing ([26]) to confirm that an
  // externally-mapped hop address really is the inbound interface, sparing
  // it from third-party reclassification. Off by default (the paper's
  // bdrmap used prefixscan only; [26] is the follow-on technique).
  bool enable_timestamp_checks = false;
  // Cap on the number of pair tests within one candidate fan-out group.
  std::size_t max_candidate_group = 12;
  // Extension: MIDAR-style estimation/discovery/corroboration scheduling
  // over ALL observed addresses (finds aliases the topology-driven
  // candidate fans miss, at extra probing cost).
  bool enable_midar_discovery = false;
  AliasConfig alias;
  HeuristicsConfig heuristics;
  // Observability bundle (DESIGN.md §11). When set and enabled, run()
  // emits one span per pipeline stage (schedule → trace → alias → merge →
  // heuristics) and publishes stats + per-heuristic fire counts to the
  // registry. Metrics never feed inference: the border map is
  // bit-identical with obs on, off, or null.
  obs::Observability* obs = nullptr;
};

// The output of the collection stage (stage.schedule + stage.trace),
// detached from the inference tail so runtime::MultiVpExecutor can cache
// and re-run (VP, target-AS) slices independently. Produced by
// Bdrmap::collect(), consumed by Bdrmap::run_with(); slices concatenate by
// appending fields in target-AS order.
struct CollectedTraces {
  std::vector<ObservedTrace> traces;
  std::vector<ProbeFailure> failures;
  std::uint64_t probes_sent = 0;  // spent by the collecting services
  std::size_t blocks = 0;
  std::size_t stopset_hits = 0;
  std::size_t probe_failures = 0;
  // The slice's routing footprint: sorted, de-duplicated tier keys of
  // every forwarding decision its probes read (ProbeServices::
  // record_footprint). runtime::MultiVpExecutor fills it for the slices
  // it keeps; a relationship flip that reports none of these keys leaves
  // the slice as it is (docs/serving.md §4).
  std::vector<std::uint64_t> footprint;

  // Appends `other` (field-wise) onto this slice. Footprints stay with
  // their slices: the stitched whole feeds an inference tail, not a store.
  void append(CollectedTraces other) {
    traces.insert(traces.end(),
                  std::make_move_iterator(other.traces.begin()),
                  std::make_move_iterator(other.traces.end()));
    failures.insert(failures.end(),
                    std::make_move_iterator(other.failures.begin()),
                    std::make_move_iterator(other.failures.end()));
    probes_sent += other.probes_sent;
    blocks += other.blocks;
    stopset_hits += other.stopset_hits;
    probe_failures += other.probe_failures;
  }
};

// One inferred router-level interdomain link.
struct InferredLink {
  static constexpr std::size_t kNoRouter = static_cast<std::size_t>(-1);
  std::size_t vp_router = kNoRouter;        // near side (graph index)
  std::size_t neighbor_router = kNoRouter;  // far side; kNoRouter if silent
  AsId neighbor_as;
  Heuristic how = Heuristic::kNone;
  // Inference strength in [0,1] (DESIGN.md §15); excluded from
  // eval::same_border_map so identity gates keep meaning "same map".
  double confidence = 0.0;
};

struct BdrmapStats {
  std::uint64_t probes_sent = 0;
  std::size_t blocks = 0;
  std::size_t traces = 0;
  std::size_t alias_pair_tests = 0;
  // Of those, pairs whose verdict came from stored alias evidence rather
  // than from probing (runtime::SliceStore). Excluded from
  // eval::same_border_map, like probes_sent.
  std::size_t alias_pairs_reused = 0;
  std::size_t routers = 0;
  std::size_t vp_routers = 0;
  std::size_t neighbor_routers = 0;
  std::size_t stopset_hits = 0;
  // Probes the measurement channel abandoned (§5.8 degraded deployment).
  std::size_t probe_failures = 0;
};

struct BdrmapResult {
  RouterGraph graph;
  std::vector<InferredLink> links;
  std::map<AsId, std::vector<std::size_t>> links_by_as;  // indices into links
  BdrmapStats stats;
  // Per-rule fire/skip counters from the heuristics pass (registration
  // order; DESIGN.md §15). Excluded from eval::same_border_map.
  std::vector<HeuristicRuleStats> rule_stats;
  // Targets whose probes ultimately failed: the run completed with partial
  // visibility, and these are the blocks it could not observe.
  std::vector<ProbeFailure> failed_targets;

  // Distinct neighbor ASes with at least one inferred link.
  std::vector<AsId> neighbor_ases() const;
};

// Runs the §5.4 heuristics over an already-built router graph and emits
// the final border map (links, per-AS index, stats). Shared by the online
// pipeline (Bdrmap::run) and offline re-analysis of archived traces.
BdrmapResult infer_borders(RouterGraph graph, const InferenceInputs& inputs,
                           const HeuristicsConfig& config, BdrmapStats stats);

class Bdrmap {
 public:
  Bdrmap(probe::ProbeServices& services, const InferenceInputs& inputs,
         BdrmapConfig config = {});

  // The whole pipeline on one probe stack: run_with(collect()). The §5.8
  // split deployment and the examples use it; multi-VP runs go through
  // runtime::MultiVpExecutor, which keys a stack per (VP, target-AS) slice.
  BdrmapResult run();

  // Split pipeline: collect() runs only the probing stages and packages
  // their output, over the whole §5.3 schedule or over a given run of its
  // blocks (one slice of runtime::SlicePlan); run_with() runs the
  // inference tail (alias resolution, inbound confirmation, graph build,
  // §5.4 heuristics) over previously collected traces, using this
  // instance's services for the alias/timestamp probing. Each counts only
  // the probes its own stage spends. With `evidence`, alias resolution
  // reuses the verdicts and Mercator sources stored there and adds what it
  // measures; the evidence must come from stacks seeded as this one.
  CollectedTraces collect();
  CollectedTraces collect(std::span<const ProbeBlock> blocks);
  BdrmapResult run_with(CollectedTraces collected,
                        AliasEvidence* evidence = nullptr);

 private:
  std::vector<ObservedTrace> collect_traces(
      std::span<const ProbeBlock> blocks);
  std::vector<std::vector<Ipv4Addr>> resolve_aliases(
      const std::vector<ObservedTrace>& traces, AliasEvidence* evidence);
  // [26]: timestamp-confirm the first externally-mapped hop of each trace.
  std::unordered_set<Ipv4Addr> confirm_inbound(
      const std::vector<ObservedTrace>& traces);

  // nullptr when observability is off — Span/handle no-op convention.
  obs::Tracer* tracer() const {
    return config_.obs ? config_.obs->tracer() : nullptr;
  }
  obs::MetricsRegistry* registry() const {
    return config_.obs ? config_.obs->registry() : nullptr;
  }

  probe::ProbeServices& services_;
  const InferenceInputs& inputs_;
  BdrmapConfig config_;
  StopSet stopset_;  // per-instance, never shared across VPs
  BdrmapStats stats_;
  std::vector<ProbeFailure> failures_;
  std::atomic<bool> running_{false};  // concurrent re-entry tripwire
};

}  // namespace bdrmap::core
