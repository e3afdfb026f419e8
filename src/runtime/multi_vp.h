// Multi-VP execution: one execution model for every bdrmap run.
//
// bdrmap probes its §5.3 block list one target AS at a time and keeps its
// doubletree stop set per target AS, so a (VP, target-AS) *slice* is the
// paper's own unit of work. SlicePlan runs core::build_probe_blocks once
// per VP and cuts its sorted output into slices, each a contiguous block
// range. MultiVpExecutor::run collects every slice a SliceStore is
// missing, stitches each VP's slices in plan order (sharing their traces,
// never copying them), runs that VP's inference tail, and reduces the
// per-VP results in VP order. A cold map
// (Scenario::run_bdrmap_parallel, Scenario::run_bdrmap) is that run
// without a store to keep; serve::ServeEngine keeps its store across
// epochs and erases only the slices and alias evidence a churn event
// dirtied; the §5.8 split is that run with one remote stack for every
// slice and the tail (shared_stack_job). There is no other driver.
//
// Determinism strategy (DESIGN.md §8): parallelism never reorders any
// observable. Every probe stack of a VP, a slice's or the tail's, is
// seeded from (base seed, VP index) — never from the worker, the epoch,
// or which slices were already stored — and every draw it makes is keyed
// on what it probes: each trace hop on (VP seed, destination, TTL), each
// alias pair test on (VP seed, pair) and each Mercator probe on (VP seed,
// address). A trace, a verdict or a source is then a pure function of the
// VP seed, its key and the forwarding state, whatever the stack probed
// before it, so any two stacks of a VP are interchangeable, a stored
// slice or verdict equals a fresh measurement, and the output is
// byte-identical at 1 or 64 workers. Nothing a slice mutates is shared
// (the substrate's lazy route caches are value-deterministic and
// internally locked), and the reduction walks VPs in index order on the
// joining thread.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/bdrmap.h"
#include "netbase/mix.h"
#include "probe/types.h"
#include "runtime/thread_pool.h"

namespace bdrmap::runtime {

// The one seed function (net::mix, a splitmix64 finalizer): every probe
// stack of VP vp, for each of its slices and for its inference tail, is
// seeded with vp_seed. It depends on neither the worker nor the epoch.
inline std::uint64_t vp_seed(std::uint64_t base_seed, std::size_t vp) {
  return net::mix(base_seed, vp, 0x1f3a9);
}

// One vantage point: a factory for its probe stacks (invoked on the
// executing worker with the VP's seed, once per collected slice and once
// for the tail) and its read-only inference inputs.
struct VpJob {
  std::function<std::shared_ptr<probe::ProbeServices>(std::uint64_t seed)>
      make_services;
  core::InferenceInputs inputs;
};

// A job whose every probe stack is `services`, whatever the seed. The
// §5.8 split hands its one remote::RemoteProbeServices to every slice and
// the tail this way, which keeps one session, one breaker and one fault
// stream per run. Run it on a null pool and without a store: the slices
// then take turns on the one stack, and each counts the probes it spent
// by difference. Since any two stacks of a VP are interchangeable, a
// stack seeded with vp_seed(base_seed, 0) gives the map that a one-VP run
// at base_seed gives.
VpJob shared_stack_job(std::shared_ptr<probe::ProbeServices> services,
                       core::InferenceInputs inputs);

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
// A stored slice is immutable and shared: VP vp's inference tail stitches
// its slices by sharing their traces (core::SharedTraces), so the tail,
// its RouterGraph and the BdrmapResult read the very traces stored here,
// and a slice's traces are freed with the last of the store and the
// results that hold them (DESIGN.md §13). VP vp's inference tail looks its
// alias pairs and Mercator sources up in evidence[vp] first and probes
// only what is missing there; clearing it makes the next tail measure
// everything again. Every stored slice and every evidence address carries
// its routing footprint, so a caller can tell what a churn event moved
// (docs/serving.md §4).
struct SliceStore {
  SlicePlan plan;
  std::vector<std::vector<std::shared_ptr<const core::CollectedTraces>>>
      traces;
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
  // Ordered reduction: the per-VP stats summed in VP order. The
  // network-wide border map is core::merge_results over per_vp.
  core::BdrmapStats total;
  MultiVpTimes times;
};

class MultiVpExecutor {
 public:
  // pool may be null: run everything sequentially on the calling thread
  // (the determinism baseline). The pool must outlive the executor.
  explicit MultiVpExecutor(ThreadPool* pool) : pool_(pool) {}

  // Plans `store` if it is empty, collects the slices it is missing, and
  // runs every VP's inference tail over the store's alias evidence. One
  // pool task per VP fans its missing slices out as nested tasks, one probe
  // stack per slice; there is no barrier between VPs, so workers idle in
  // one VP's join steal slices of another. A stored slice stands for
  // exactly what collecting it would give, so over a cold store the output
  // is a pure function of (jobs, config, base_seed). A null store is a
  // cold map that keeps nothing: its slices move straight into the tails.
  // A non-empty store must hold a plan of these jobs.
  MultiVpResult run(const std::vector<VpJob>& jobs,
                    const core::BdrmapConfig& config, std::uint64_t base_seed,
                    SliceStore* store = nullptr) const;

  // run() without the ordered reduction, into the caller's results: VP
  // vp's new result replaces per_vp[vp], and whatever per_vp held before
  // is freed on the pool after the tails join, in parallel rather than
  // serially on the calling thread. per_vp is resized to the job count
  // first. Returns the wall-clock of the run.
  double run_into(const std::vector<VpJob>& jobs,
                  const core::BdrmapConfig& config, std::uint64_t base_seed,
                  SliceStore* store,
                  std::vector<core::BdrmapResult>& per_vp) const;

 private:
  ThreadPool* pool_;
};

}  // namespace bdrmap::runtime
