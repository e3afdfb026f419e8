// ServeEngine: incremental churn-driven re-inference behind a snapshot.
//
// The engine runs every vantage point through runtime::MultiVpExecutor
// and keeps the executor's SliceStore — the per-VP slice plan, the
// collected traces of every (VP, target-AS) slice and each VP's alias
// evidence — across epochs. When a ChurnEvent arrives it
//
//   1. marks what the event dirtied: for a prefix event (withdraw or
//      announce), the slices whose planned blocks overlap the prefix, and
//      every slice and the alias evidence of each VP whose own address the
//      prefix covers; for a relationship event, the slices and evidence
//      addresses whose routing footprint holds a tier key the flip
//      changed; for a link event, every slice and all evidence, as
//      rebuild_full() does (docs/serving.md §4),
//   2. erases exactly that from the store and runs the executor again: it
//      re-collects the erased slices, reuses every clean slice verbatim,
//      and re-runs the inference tail (alias resolution onward) for every
//      VP — inference is global per VP — probing only the alias pairs and
//      Mercator sources its evidence lacks, and
//   3. compiles and atomically publishes a fresh BorderMapSnapshot.
//
// The scheme is *exact*, not approximate: each slice's collection seed
// depends only on (base_seed, vp, as) — never on the epoch — so a stored
// clean slice is bit-identical to what a fresh collection would produce,
// and each alias pair test is keyed on (tail seed, pair), so stored
// evidence equals a fresh measurement while the routes it crossed stand.
// A cold rebuild is the same executor run over an empty store, and
// recompute_reference() is a cold run that keeps nothing, so tests can
// hard-gate eval::same_border_map(incremental, from_scratch).
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "core/bdrmap.h"
#include "obs/obs.h"
#include "route/fib.h"
#include "runtime/multi_vp.h"
#include "serve/churn.h"
#include "serve/handle.h"
#include "serve/snapshot.h"

namespace bdrmap::serve {

// One vantage point as the engine sees it: a seeded probe-stack factory
// plus the VP's read-only inference inputs.
using VpContext = runtime::VpJob;

struct EngineOptions {
  core::BdrmapConfig config;
  std::uint64_t base_seed = 0x515;  // scenario seed
  obs::Observability* obs = nullptr;
  runtime::ThreadPool* pool = nullptr;  // null: sequential baseline
};

// What one apply() did, for the daemon's log and the serve.* counters.
struct ChurnApplyStats {
  std::size_t dirty_slices = 0;   // (VP, target) slices re-collected
  std::size_t clean_slices = 0;   // slices reused from the cache
  // Alias pairs the epoch's tails took from stored evidence / probed.
  std::size_t alias_pairs_reused = 0;
  std::size_t alias_pairs_probed = 0;
  // Relationship events: tier keys the flip changed, and evidence
  // addresses whose footprint met them (their verdicts were dropped).
  std::size_t tier_keys_changed = 0;
  std::size_t alias_addrs_moved = 0;
  std::uint64_t epoch = 0;        // epoch the resulting snapshot carries
};

class ServeEngine {
 public:
  // References must outlive the engine. `bgp` and `fib` are the mutable
  // routing substrate over `net` that the churn events are applied to;
  // the engine is the only writer and guarantees the quiescence their
  // overlays require.
  ServeEngine(const topo::Internet& net, route::BgpSimulator& bgp,
              route::Fib& fib, std::vector<VpContext> vps,
              EngineOptions options);

  // Collects every slice from scratch and publishes epoch 0 (or, after
  // churn, the next epoch as a full rebuild): the executor over an empty
  // store, exactly Scenario::run_bdrmap_parallel with the same base seed.
  void rebuild_full();

  // Applies one churn event and publishes the next epoch incrementally.
  ChurnApplyStats apply(const ChurnEvent& event);

  // From-scratch recompute of the CURRENT routing state: the same
  // executor run, cold and keeping nothing, touching neither the engine's
  // store nor the handle.
  // per_vp is job-ordered; snapshot carries the same epoch as the live one
  // — bit-identity gates compare both against the incremental results.
  struct Reference {
    std::vector<core::BdrmapResult> per_vp;
    std::shared_ptr<const BorderMapSnapshot> snapshot;
  };
  Reference recompute_reference() const;

  SnapshotHandle& handle() { return handle_; }
  const SnapshotHandle& handle() const { return handle_; }

  // Per-VP results of the most recent publish (job order).
  const std::vector<core::BdrmapResult>& last_results() const {
    return last_results_;
  }

  // What the next epoch reuses: the plan, the kept slices with their
  // routing footprints, and each VP's alias evidence.
  const runtime::SliceStore& store() const { return store_; }

  std::uint64_t epoch() const { return epoch_; }
  std::size_t vp_count() const { return vps_.size(); }

 private:
  std::vector<OwnedPrefix> owned_prefixes() const;
  // Runs the executor over the store (collecting what it misses),
  // compiles, publishes.
  void reinfer_and_publish(obs::Tracer* tracer);
  std::shared_ptr<const BorderMapSnapshot> compile_snapshot(
      const std::vector<core::BdrmapResult>& results,
      std::uint64_t epoch) const;

  route::BgpSimulator& bgp_;
  route::Fib& fib_;
  std::vector<VpContext> vps_;
  EngineOptions options_;
  runtime::MultiVpExecutor executor_;

  // The slice plan (built once, at construction), the slice cache and the
  // per-VP alias evidence.
  runtime::SliceStore store_;
  // Each VP's own address (ProbeServices::vp_addr), read once at
  // construction: a prefix event that covers it dirties the VP entirely.
  std::vector<net::Ipv4Addr> vp_addrs_;
  // Prefixes currently withdrawn by churn; excluded from the snapshot's
  // routed view (and from recompute_reference's, identically).
  std::set<net::Prefix> withdrawn_;

  SnapshotHandle handle_;
  std::vector<core::BdrmapResult> last_results_;
  std::uint64_t epoch_ = 0;
  bool built_ = false;

  obs::Counter churn_events_;
  obs::Counter dirty_slices_;
  obs::Counter clean_slices_;
  obs::Counter tier_keys_changed_;
  obs::Counter alias_addrs_moved_;
  obs::Counter compiles_;
};

}  // namespace bdrmap::serve
