// bdrmap: the complete border-mapping pipeline (Figure 2 of the paper).
//
// Drives targeted traceroutes toward every routed block (§5.3), resolves
// aliases (Ally / Mercator / prefixscan), builds the router-level
// graph, applies the §5.4 ownership heuristics, and reports the interdomain
// links of the network hosting the vantage point.
//
// The pipeline is two stages, each a free function written against
// probe::ProbeServices, so the identical inference runs on a local prober
// or on the §5.8 split deployment: collect_blocks() traces one run of
// blocks, and run_tail() infers the border map from collected traces. All
// their state (stop set, stats, failure log) lives in the call; a call
// mutates only the probe stack it is given. runtime::MultiVpExecutor is
// the one driver: it cuts each VP's §5.3 schedule into (VP, target-AS)
// slices, collects each on a stack of its own, and runs each VP's tail.
// Calls share only the read-only InferenceInputs, which must stay
// unmutated (and alive) for the duration of every call that references
// it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "core/alias_resolution.h"
#include "core/blocks.h"
#include "core/heuristics.h"
#include "core/observations.h"
#include "core/router_graph.h"
#include "obs/obs.h"
#include "probe/types.h"

namespace bdrmap::core {

struct BdrmapConfig {
  bool enable_stop_set = true;          // ablation: doubletree stop set
  HeuristicsConfig heuristics;
  // Observability bundle (DESIGN.md §11). When set and enabled, each
  // stage emits its spans (trace → alias → merge → heuristics) and
  // run_tail() publishes stats + per-heuristic fire counts to the
  // registry. Metrics never feed inference: the border map is
  // bit-identical with obs on, off, or null.
  obs::Observability* obs = nullptr;
};

// The output of the collection stage (stage.trace), detached from the
// inference tail so runtime::MultiVpExecutor can cache and re-run
// (VP, target-AS) slices independently. Produced by collect_blocks(),
// consumed by run_tail(); slices concatenate by appending fields in
// target-AS order, the traces by sharing them.
struct CollectedTraces {
  SharedTraces traces;
  std::vector<ProbeFailure> failures;
  std::uint64_t probes_sent = 0;  // spent by the collecting services
  std::size_t blocks = 0;
  std::size_t stopset_hits = 0;
  std::size_t probe_failures = 0;
  // The slice's routing footprint: sorted, de-duplicated keys of every
  // forwarding decision and resolution its probes read (ProbeServices::
  // record_footprint). runtime::MultiVpExecutor fills it for the slices
  // it keeps; a churn event that reports none of these keys leaves the
  // slice as it is (docs/serving.md §4).
  std::vector<std::uint64_t> footprint;

  // Appends `other` (field-wise) onto this slice; its traces are shared,
  // not copied. Footprints stay with their slices: the stitched whole
  // feeds an inference tail, not a store.
  void append(const CollectedTraces& other) {
    traces.append(other.traces);
    failures.insert(failures.end(), other.failures.begin(),
                    other.failures.end());
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
// pipeline (run_tail) and offline re-analysis of archived traces.
BdrmapResult infer_borders(RouterGraph graph, const InferenceInputs& inputs,
                           const HeuristicsConfig& config, BdrmapStats stats);

// The collection stage over one run of the §5.3 schedule's blocks (one
// slice of runtime::SlicePlan): traces each block with its own stop set,
// retrying up to five addresses per block, and counts the probes
// `services` spent.
CollectedTraces collect_blocks(probe::ProbeServices& services,
                               const InferenceInputs& inputs,
                               const BdrmapConfig& config,
                               std::span<const ProbeBlock> blocks);

// The inference tail over previously collected traces: alias resolution
// (probing on `services`), graph build and the §5.4 heuristics. The
// result's probes_sent is the collection's plus what the tail spent. With
// `evidence`, alias resolution reuses the verdicts and Mercator sources
// stored there and adds what it measures; the evidence must come from
// stacks seeded as this one.
BdrmapResult run_tail(probe::ProbeServices& services,
                      const InferenceInputs& inputs, const BdrmapConfig& config,
                      CollectedTraces collected,
                      AliasEvidence* evidence = nullptr);

}  // namespace bdrmap::core
