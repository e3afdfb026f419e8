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
  for (const VpContext& vp : vps_) {
    vp_addrs_.push_back(vp.make_services(options_.base_seed)->vp_addr());
  }
  if (options_.obs && options_.obs->registry()) {
    obs::MetricsRegistry* reg = options_.obs->registry();
    churn_events_ = reg->counter("serve.churn.events");
    dirty_slices_ = reg->counter("serve.churn.dirty_slices");
    clean_slices_ = reg->counter("serve.churn.clean_slices");
    tier_keys_changed_ = reg->counter("serve.churn.tier_keys_changed");
    alias_addrs_moved_ = reg->counter("serve.churn.alias_addrs_moved");
    compiles_ = reg->counter("serve.snapshot.compiles");
  }
}

std::vector<OwnedPrefix> ServeEngine::owned_prefixes() const {
  std::vector<OwnedPrefix> out;
  for (const auto& [prefix, origins] :
       vps_.front().inputs.origins->all_prefixes()) {
    if (withdrawn_.count(prefix)) continue;
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

  const std::vector<std::uint64_t> changed = apply_event(event, bgp_, fib_);
  if (event.kind == ChurnKind::kWithdraw) withdrawn_.insert(event.prefix);
  if (event.kind == ChurnKind::kAnnounce) withdrawn_.erase(event.prefix);

  ++epoch_;
  churn_events_.inc();

  // A prefix event changes the forwarding of the addresses under the
  // prefix only. Probes toward interface addresses never consult it, so
  // the dirty slices are those whose planned blocks overlap it — unless
  // it covers the VP's own address: replies sourced toward the VP (the
  // kEgressToSrc hops of every trace, Mercator sources) move with it, and
  // that VP loses every slice and its alias evidence. A relationship
  // event moves only the egress decisions whose tier keys it changed: it
  // dirties the slices whose footprint holds one and drops the evidence
  // of the addresses whose footprint does. A link event dirties every
  // slice and all evidence, as rebuild_full() does.
  const bool prefix_event = event.kind == ChurnKind::kWithdraw ||
                            event.kind == ChurnKind::kAnnounce;
  const bool rel_event = event.kind == ChurnKind::kRelChange;
  std::vector<bool> vp_dirty(vps_.size(), !prefix_event && !rel_event);
  if (prefix_event) {
    for (std::size_t vp = 0; vp < vps_.size(); ++vp) {
      vp_dirty[vp] = event.prefix.contains(vp_addrs_[vp]);
    }
  }
  auto dirty = [&](std::size_t vp, std::size_t i) {
    if (vp_dirty[vp]) return true;
    if (rel_event) {
      return core::footprint_meets(store_.traces[vp][i]->footprint, changed);
    }
    const runtime::SlicePlan::Slice& slice = store_.plan.slices(vp)[i];
    for (const core::ProbeBlock& block : store_.plan.blocks_of(vp, slice)) {
      if (block.prefix.contains(event.prefix) ||
          event.prefix.contains(block.prefix)) {
        return true;
      }
    }
    return false;
  };
  std::vector<std::pair<std::size_t, std::size_t>> erase;
  std::size_t total_slices = 0;
  for (std::size_t vp = 0; vp < vps_.size(); ++vp) {
    const std::size_t slices = store_.plan.slices(vp).size();
    total_slices += slices;
    for (std::size_t i = 0; i < slices; ++i) {
      if (dirty(vp, i)) erase.emplace_back(vp, i);
    }
  }
  {
    // The re-collection itself runs inside serve.infer, interleaved with
    // the inference tails.
    obs::Span collect_span(tracer, "serve.collect");
    collect_span.note("dirty_slices", static_cast<std::int64_t>(erase.size()));
    for (const auto& [vp, i] : erase) store_.traces[vp][i].reset();
  }

  ChurnApplyStats stats;
  for (std::size_t vp = 0; vp < vps_.size(); ++vp) {
    if (vp_dirty[vp]) {
      store_.evidence[vp] = {};
    } else if (rel_event) {
      stats.alias_addrs_moved += store_.evidence[vp].drop_moved(changed);
    }
  }

  stats.dirty_slices = erase.size();
  stats.clean_slices = total_slices - erase.size();
  stats.tier_keys_changed = changed.size();
  stats.epoch = epoch_;
  dirty_slices_.inc(stats.dirty_slices);
  clean_slices_.inc(stats.clean_slices);
  tier_keys_changed_.inc(stats.tier_keys_changed);
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
