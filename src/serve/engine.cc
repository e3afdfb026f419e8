#include "serve/engine.h"

#include <algorithm>
#include <utility>

#include "netbase/contract.h"

namespace bdrmap::serve {

ServeEngine::ServeEngine(const topo::Internet& /*net*/,
                         route::BgpSimulator& bgp, route::Fib& fib,
                         std::vector<VpContext> vps, EngineOptions options)
    : bgp_(bgp),
      fib_(fib),
      vps_(std::move(vps)),
      options_(std::move(options)),
      executor_(options_.pool) {
  BDRMAP_EXPECTS(!vps_.empty(), "ServeEngine needs at least one VP");
  for (const VpContext& vp : vps_) {
    BDRMAP_EXPECTS(static_cast<bool>(vp.make_services),
                   "VpContext needs a seeded probe-services factory");
  }
  // The plan never changes: churn moves routes, not the public origin
  // table the §5.3 schedule is built from.
  store_.plan = runtime::SlicePlan(vps_, options_.pool);
  if (options_.obs && options_.obs->registry()) {
    obs::MetricsRegistry* reg = options_.obs->registry();
    churn_events_ = reg->counter("serve.churn.events");
    dirty_slices_ = reg->counter("serve.churn.dirty_slices");
    clean_slices_ = reg->counter("serve.churn.clean_slices");
    keys_changed_ = reg->counter("serve.churn.keys_changed");
    alias_addrs_moved_ = reg->counter("serve.churn.alias_addrs_moved");
    compiles_ = reg->counter("serve.snapshot.compiles");
  }
}

std::vector<OwnedPrefix> ServeEngine::owned_prefixes() const {
  const std::vector<net::Prefix> withdrawn = fib_.withdrawn_prefixes();
  std::vector<OwnedPrefix> out;
  for (const auto& [prefix, origins] :
       vps_.front().inputs.origins->all_prefixes()) {
    if (std::binary_search(withdrawn.begin(), withdrawn.end(), prefix)) {
      continue;
    }
    BDRMAP_EXPECTS(!origins.empty(), "announced prefix without origins");
    out.push_back({prefix, *std::min_element(origins.begin(), origins.end())});
  }
  return out;
}

void ServeEngine::rebuild_full() {
  obs::Tracer* tracer = options_.obs ? options_.obs->tracer() : nullptr;
  obs::Span span(tracer, "serve.rebuild");
  if (built_) ++epoch_;
  built_ = true;
  store_.traces.clear();
  store_.evidence.clear();
  reinfer_and_publish(tracer);
}

ChurnApplyStats ServeEngine::apply(const ChurnEvent& event) {
  BDRMAP_EXPECTS(built_, "apply() requires an initial rebuild_full()");
  obs::Tracer* tracer = options_.obs ? options_.obs->tracer() : nullptr;
  obs::Span span(tracer, "serve.apply");
  span.note("event", churn_kind_name(event.kind));

  // One rule for every event kind: the substrate reports the keys the
  // event moved, and a slice or evidence address is dirty iff its routing
  // footprint holds one. Whatever read none of them forwards as before.
  const std::vector<std::uint64_t> moved = apply_event(event, bgp_, fib_);
  ++epoch_;
  churn_events_.inc();

  ChurnApplyStats stats;
  {
    // The re-collection itself runs inside serve.infer, interleaved with
    // the inference tails.
    obs::Span collect_span(tracer, "serve.collect");
    for (auto& slices : store_.traces) {
      for (std::shared_ptr<const core::CollectedTraces>& slice : slices) {
        const bool dirty = core::footprint_meets(slice->footprint, moved);
        if (dirty) slice.reset();
        ++(dirty ? stats.dirty_slices : stats.clean_slices);
      }
    }
    collect_span.note("dirty_slices",
                      static_cast<std::int64_t>(stats.dirty_slices));
  }
  for (core::AliasEvidence& evidence : store_.evidence) {
    stats.alias_addrs_moved += evidence.drop_moved(moved);
  }
  stats.keys_changed = moved.size();
  stats.epoch = epoch_;
  dirty_slices_.inc(stats.dirty_slices);
  clean_slices_.inc(stats.clean_slices);
  keys_changed_.inc(stats.keys_changed);
  alias_addrs_moved_.inc(stats.alias_addrs_moved);

  reinfer_and_publish(tracer);
  for (const core::BdrmapResult& r : last_results_) {
    stats.alias_pairs_reused += r.stats.alias_pairs_reused;
    stats.alias_pairs_probed +=
        r.stats.alias_pair_tests - r.stats.alias_pairs_reused;
  }
  return stats;
}

void ServeEngine::reinfer_and_publish(obs::Tracer* tracer) {
  {
    // The new results replace the old ones in place; the executor frees
    // the old ones on the pool, not on this thread.
    obs::Span span(tracer, "serve.infer");
    executor_.run_into(vps_, options_.config, options_.base_seed, &store_,
                       last_results_);
  }
  std::shared_ptr<const BorderMapSnapshot> snap;
  {
    obs::Span span(tracer, "serve.compile");
    snap = compile_snapshot(last_results_, epoch_);
    span.note("prefixes", static_cast<std::int64_t>(snap->prefix_count()));
    span.note("borders",
              static_cast<std::int64_t>(snap->borders().size()));
  }
  handle_.publish(snap);
  compiles_.inc();
}

std::shared_ptr<const BorderMapSnapshot> ServeEngine::compile_snapshot(
    const std::vector<core::BdrmapResult>& results,
    std::uint64_t epoch) const {
  std::vector<const core::BdrmapResult*> ptrs;
  ptrs.reserve(results.size());
  for (const core::BdrmapResult& r : results) ptrs.push_back(&r);
  return BorderMapSnapshot::compile(owned_prefixes(),
                                    core::merge_results(ptrs), epoch);
}

ServeEngine::Reference ServeEngine::recompute_reference() const {
  obs::Tracer* tracer = options_.obs ? options_.obs->tracer() : nullptr;
  obs::Span span(tracer, "serve.reference");
  // A cold run that keeps nothing: every slice collected anew with the
  // store's own seeds. What the incremental path must match bit-for-bit.
  Reference ref;
  ref.per_vp = executor_.run(vps_, options_.config, options_.base_seed).per_vp;
  ref.snapshot = compile_snapshot(ref.per_vp, epoch_);
  return ref;
}

}  // namespace bdrmap::serve
