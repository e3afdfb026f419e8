// Multi-VP execution: one execution model for every bdrmap run.
//
// bdrmap probes its §5.3 block list one target AS at a time and keeps its
// doubletree stop set per target AS, so a (VP, target-AS) *slice* is the
// paper's own unit of work. SlicePlan runs core::build_probe_blocks once
// per VP and cuts its sorted output into slices, each a contiguous block
// range. MultiVpExecutor::run collects every slice a SliceStore is
// missing, stitches each VP's slices in plan order, runs that VP's
// inference tail, and reduces the per-VP results in VP order. A cold map
// (Scenario::run_bdrmap_parallel, Scenario::run_bdrmap) is that run
// without a store to keep; serve::ServeEngine keeps its store across
// epochs and erases only the slices and alias evidence a churn event
// dirtied.
//
// Determinism strategy (DESIGN.md §8): parallelism never reorders any
// observable. A slice's probe stack is seeded from (base seed, VP index,
// target AS) and the tail's from (base seed, VP index) — never from the
// worker, the epoch, or which slices were already stored — so a stored
// slice is bit-identical to a fresh one and the output is byte-identical
// at 1 or 64 workers. Within the tail, each alias pair test is keyed on
// (tail seed, pair) and each Mercator probe on (tail seed, address), so a
// stored verdict or source equals a fresh measurement under the same
// forwarding state, whatever the tail tested before it. Nothing a slice
// mutates is shared (the substrate's lazy route caches are
// value-deterministic and internally locked), and the reduction walks VPs
// in index order on the joining thread.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/bdrmap.h"
#include "probe/types.h"
#include "runtime/thread_pool.h"

namespace bdrmap::runtime {

// One vantage point: a factory for its probe stacks (invoked on the
// executing worker with the slice or tail seed) and its read-only
// inference inputs.
struct VpJob {
  std::function<std::unique_ptr<probe::ProbeServices>(std::uint64_t seed)>
      make_services;
  core::InferenceInputs inputs;
};

// The §5.3 schedule of every VP, cut into (VP, target-AS) slices.
class SlicePlan {
 public:
  // One target AS's blocks: [begin, end) of VP vp's schedule.
  struct Slice {
    net::AsId target_as;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  SlicePlan() = default;
  // Runs core::build_probe_blocks once per job, on the pool (one
  // stage.schedule span per VP when `tracer` is set).
  SlicePlan(const std::vector<VpJob>& jobs, ThreadPool* pool,
            obs::Tracer* tracer = nullptr);

  std::size_t vp_count() const { return vps_.size(); }
  // Ascending target AS, contiguous, covering the VP's schedule exactly
  // once, in core::build_probe_blocks order.
  const std::vector<Slice>& slices(std::size_t vp) const {
    return vps_[vp].slices;
  }
  std::span<const core::ProbeBlock> blocks_of(std::size_t vp,
                                              const Slice& slice) const {
    return std::span<const core::ProbeBlock>(vps_[vp].blocks)
        .subspan(slice.begin, slice.end - slice.begin);
  }

 private:
  struct VpSlices {
    std::vector<core::ProbeBlock> blocks;
    std::vector<Slice> slices;
  };
  std::vector<VpSlices> vps_;
};

// A plan, the collected traces of its slices and each VP's alias
// evidence, kept across executor runs. The executor plans an empty store
// and collects every slice into it; resetting traces[vp][i] makes the next
// run re-collect slice i of VP vp and reuse every other slice verbatim.
// VP vp's inference tail looks its alias pairs and Mercator sources up in
// evidence[vp] first and probes only what is missing there; clearing it
// makes the next tail measure everything again. Every stored slice and
// every evidence address carries its routing footprint, so a caller can
// tell what a relationship flip moved (docs/serving.md §4).
struct SliceStore {
  SlicePlan plan;
  std::vector<std::vector<std::optional<core::CollectedTraces>>> traces;
  std::vector<core::AliasEvidence> evidence;
};

// Wall-clock of the two stages, for the runtime's telemetry contract.
struct MultiVpTimes {
  double run_seconds = 0.0;     // slices and per-VP tails
  double reduce_seconds = 0.0;  // ordered merge on the joining thread
};

struct MultiVpResult {
  // Per-VP results, in job order (index i == job i).
  std::vector<core::BdrmapResult> per_vp;
  // Ordered reduction: every inferred link tagged with its VP index,
  // concatenated in VP order, plus the rebuilt per-AS index into it and
  // the summed stats.
  std::vector<std::pair<std::size_t, core::InferredLink>> merged_links;
  std::map<net::AsId, std::vector<std::size_t>> merged_links_by_as;
  core::BdrmapStats total;
  MultiVpTimes times;
};

class MultiVpExecutor {
 public:
  // pool may be null: run everything sequentially on the calling thread
  // (the determinism baseline). The pool must outlive the executor.
  explicit MultiVpExecutor(ThreadPool* pool) : pool_(pool) {}

  // Plans `store` if it is empty, collects the slices it is missing, and
  // runs every VP's inference tail over the store's alias evidence. One pool task per VP fans its missing
  // slices out as nested tasks, one probe stack per chunk of slices,
  // reseeded per slice; there is no barrier between VPs, so workers idle
  // in one VP's join steal slices of another. A stored slice stands for
  // exactly what collecting it would give, so over a cold store the output
  // is a pure function of (jobs, config, base_seed). A null store is a
  // cold map that keeps nothing: its slices move straight into the tails.
  // A non-empty store must hold a plan of these jobs.
  MultiVpResult run(const std::vector<VpJob>& jobs,
                    const core::BdrmapConfig& config, std::uint64_t base_seed,
                    SliceStore* store = nullptr) const;

 private:
  ThreadPool* pool_;
};

}  // namespace bdrmap::runtime
