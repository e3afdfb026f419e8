#include "runtime/multi_vp.h"

#include <algorithm>
#include <chrono>

#include "netbase/contract.h"
#include "netbase/rng.h"
#include "runtime/parallel_for.h"

namespace bdrmap::runtime {

namespace {
double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// The one seed function (net::mix, a splitmix64 finalizer). Slice
// (vp, as) draws from mix(base, vp, as); VP vp's tail from
// mix(base, vp, kInferSalt). Neither depends on the worker or the epoch.
using net::mix;

constexpr std::uint64_t kInferSalt = 0x1f3a9;

// One VP: collect its missing slices as nested tasks, stitch every slice
// in plan order (copied when the caller keeps the store, moved when not),
// run the inference tail over the stored alias evidence (none when the
// caller keeps nothing).
core::BdrmapResult run_vp(ThreadPool* pool, const VpJob& job, std::size_t vp,
                          const core::BdrmapConfig& config,
                          std::uint64_t base_seed, const SlicePlan& plan,
                          std::vector<std::optional<core::CollectedTraces>>&
                              stored,
                          core::AliasEvidence* evidence) {
  BDRMAP_EXPECTS(static_cast<bool>(job.make_services),
                 "VpJob needs a seeded probe-services factory");
  const std::vector<SlicePlan::Slice>& slices = plan.slices(vp);
  stored.resize(slices.size());
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    if (!stored[i]) missing.push_back(i);
  }
  // A stack per chunk, reseeded per slice: reseed restores the fresh
  // state, so the chunking never shows in the output.
  const std::size_t chunk = default_chunk(pool, missing.size());
  parallel_for(
      pool, (missing.size() + chunk - 1) / chunk,
      [&](std::size_t c) {
        // Declared first: the stack records into it, so it outlives the
        // stack.
        std::vector<std::uint64_t> footprint;
        std::unique_ptr<probe::ProbeServices> services;
        const std::size_t end = std::min(missing.size(), (c + 1) * chunk);
        for (std::size_t k = c * chunk; k < end; ++k) {
          const SlicePlan::Slice& slice = slices[missing[k]];
          const std::uint64_t seed = mix(base_seed, vp, slice.target_as.value);
          if (services) {
            services->reseed(seed);
          } else {
            services = job.make_services(seed);
          }
          core::Bdrmap pipeline(*services, job.inputs, config);
          // Exclusive per slot: no two tasks touch the same slice. A kept
          // slice records the routing it read, so a relationship flip can
          // keep it (docs/serving.md §4).
          footprint.clear();
          if (evidence) services->record_footprint(&footprint);
          stored[missing[k]] = pipeline.collect(plan.blocks_of(vp, slice));
          if (evidence) {
            services->record_footprint(nullptr);
            std::sort(footprint.begin(), footprint.end());
            stored[missing[k]]->footprint.assign(
                footprint.begin(),
                std::unique(footprint.begin(), footprint.end()));
          }
        }
      },
      /*chunk=*/1);

  core::CollectedTraces all;
  for (std::optional<core::CollectedTraces>& slice : stored) {
    if (evidence) {  // the caller keeps the store
      all.append(*slice);
    } else {
      all.append(std::move(*slice));
    }
  }
  obs::Span vp_span(config.obs ? config.obs->tracer() : nullptr, "vp.run");
  vp_span.note("vp", static_cast<std::int64_t>(vp));
  auto services = job.make_services(mix(base_seed, vp, kInferSalt));
  core::Bdrmap pipeline(*services, job.inputs, config);
  return pipeline.run_with(std::move(all), evidence);
}

// Ordered reduction over out.per_vp, VP by VP on the joining thread: the
// merged output is a pure function of the per-VP results, independent of
// which worker finished first.
void reduce_ordered(MultiVpResult& out) {
  for (std::size_t vp = 0; vp < out.per_vp.size(); ++vp) {
    const core::BdrmapResult& r = out.per_vp[vp];
    for (const core::InferredLink& link : r.links) {
      out.merged_links_by_as[link.neighbor_as].push_back(
          out.merged_links.size());
      out.merged_links.emplace_back(vp, link);
    }
    out.total.probes_sent += r.stats.probes_sent;
    out.total.blocks += r.stats.blocks;
    out.total.traces += r.stats.traces;
    out.total.alias_pair_tests += r.stats.alias_pair_tests;
    out.total.alias_pairs_reused += r.stats.alias_pairs_reused;
    out.total.routers += r.stats.routers;
    out.total.vp_routers += r.stats.vp_routers;
    out.total.neighbor_routers += r.stats.neighbor_routers;
    out.total.stopset_hits += r.stats.stopset_hits;
    out.total.probe_failures += r.stats.probe_failures;
  }
}
}  // namespace

SlicePlan::SlicePlan(const std::vector<VpJob>& jobs, ThreadPool* pool,
                     obs::Tracer* tracer) {
  vps_ = parallel_map<VpSlices>(
      pool, jobs.size(),
      [&jobs, tracer](std::size_t vp) {
        const core::InferenceInputs& inputs = jobs[vp].inputs;
        BDRMAP_EXPECTS(inputs.origins != nullptr,
                       "VpJob needs an origin table");
        obs::Span span(tracer, "stage.schedule");
        VpSlices out;
        out.blocks = core::build_probe_blocks(*inputs.origins, inputs.vp_ases);
        // The schedule is sorted by target AS: each run of equal target
        // ASes is one slice.
        for (std::size_t i = 0; i < out.blocks.size(); ++i) {
          if (out.slices.empty() ||
              out.slices.back().target_as != out.blocks[i].target_as) {
            out.slices.push_back({out.blocks[i].target_as, i, i});
          }
          out.slices.back().end = i + 1;
        }
        span.note("blocks", static_cast<std::int64_t>(out.blocks.size()));
        return out;
      },
      /*chunk=*/1);
}

MultiVpResult MultiVpExecutor::run(const std::vector<VpJob>& jobs,
                                   const core::BdrmapConfig& config,
                                   std::uint64_t base_seed,
                                   SliceStore* store) const {
  MultiVpResult out;
  obs::Tracer* tracer = config.obs ? config.obs->tracer() : nullptr;
  auto t0 = std::chrono::steady_clock::now();
  obs::Span run_span(tracer, "multi_vp.run");
  run_span.note("vps", static_cast<std::int64_t>(jobs.size()));
  SliceStore cold;
  SliceStore& slices = store ? *store : cold;
  if (slices.plan.vp_count() != jobs.size()) {
    slices = SliceStore{SlicePlan(jobs, pool_, tracer), {}, {}};
  }
  slices.traces.resize(jobs.size());
  slices.evidence.resize(jobs.size());
  // One task per VP; its slices fan out below it, so no VP waits for a
  // global collection barrier before its tail.
  out.per_vp = parallel_map<core::BdrmapResult>(
      pool_, jobs.size(),
      [&](std::size_t vp) {
        return run_vp(pool_, jobs[vp], vp, config, base_seed, slices.plan,
                      slices.traces[vp],
                      store ? &slices.evidence[vp] : nullptr);
      },
      /*chunk=*/1);
  run_span.close();
  out.times.run_seconds = seconds_since(t0);

  auto r0 = std::chrono::steady_clock::now();
  obs::Span reduce_span(tracer, "multi_vp.reduce");
  reduce_ordered(out);
  reduce_span.close();
  out.times.reduce_seconds = seconds_since(r0);
  return out;
}

}  // namespace bdrmap::runtime
