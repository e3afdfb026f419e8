#include "runtime/multi_vp.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "netbase/contract.h"
#include "runtime/parallel_for.h"

namespace bdrmap::runtime {

namespace {
double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// One VP: collect its missing slices as nested tasks, stitch every slice
// in plan order by sharing its traces, run the inference tail over the
// stored alias evidence (none when the caller keeps nothing).
core::BdrmapResult run_vp(
    ThreadPool* pool, const VpJob& job, std::size_t vp,
    const core::BdrmapConfig& config, std::uint64_t base_seed,
    const SlicePlan& plan,
    std::vector<std::shared_ptr<const core::CollectedTraces>>& stored,
    core::AliasEvidence* evidence) {
  BDRMAP_EXPECTS(static_cast<bool>(job.make_services),
                 "VpJob needs a seeded probe-services factory");
  const std::uint64_t seed = vp_seed(base_seed, vp);
  const std::vector<SlicePlan::Slice>& slices = plan.slices(vp);
  stored.resize(slices.size());
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    if (!stored[i]) missing.push_back(i);
  }
  // One probe stack per slice, each built with the VP's seed.
  parallel_for(pool, missing.size(), [&](std::size_t k) {
    const SlicePlan::Slice& slice = slices[missing[k]];
    std::vector<std::uint64_t> footprint;
    auto services = job.make_services(seed);
    // A kept slice records the routing it read, so a churn event can keep
    // it (docs/serving.md §4). The stack may outlive the slice (a shared
    // stack does), so it stops recording before `footprint` goes.
    if (evidence) services->record_footprint(&footprint);
    core::CollectedTraces collected = core::collect_blocks(
        *services, job.inputs, config, plan.blocks_of(vp, slice));
    if (evidence) services->record_footprint(nullptr);
    std::sort(footprint.begin(), footprint.end());
    collected.footprint.assign(
        footprint.begin(), std::unique(footprint.begin(), footprint.end()));
    // Exclusive per slot: no two tasks touch the same slice.
    stored[missing[k]] =
        std::make_shared<const core::CollectedTraces>(std::move(collected));
  });

  core::CollectedTraces all;
  for (const std::shared_ptr<const core::CollectedTraces>& slice : stored) {
    all.append(*slice);
  }
  obs::Span vp_span(config.obs ? config.obs->tracer() : nullptr, "vp.run");
  vp_span.note("vp", static_cast<std::int64_t>(vp));
  auto services = job.make_services(seed);
  return core::run_tail(*services, job.inputs, config, std::move(all),
                        evidence);
}

// Ordered reduction over out.per_vp, VP by VP on the joining thread: the
// totals are a pure function of the per-VP results, independent of which
// worker finished first.
void reduce_ordered(MultiVpResult& out) {
  for (const core::BdrmapResult& r : out.per_vp) {
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

VpJob shared_stack_job(std::shared_ptr<probe::ProbeServices> services,
                       core::InferenceInputs inputs) {
  VpJob job;
  job.make_services = [services = std::move(services)](std::uint64_t) {
    return services;
  };
  job.inputs = std::move(inputs);
  return job;
}

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

double MultiVpExecutor::run_into(
    const std::vector<VpJob>& jobs, const core::BdrmapConfig& config,
    std::uint64_t base_seed, SliceStore* store,
    std::vector<core::BdrmapResult>& per_vp) const {
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
  per_vp.resize(jobs.size());
  // One task per VP; its slices fan out below it, so no VP waits for a
  // global collection barrier before its tail. Each task swaps its new
  // result into per_vp; the previous results are freed on the pool once
  // every tail has joined, in parallel and off the calling thread. (Freed
  // inside the tasks instead, they compete with the other tails'
  // allocations: a 19-VP churn epoch on 2 workers of a 4-core host
  // measured ~0.8 ms slower.)
  std::vector<core::BdrmapResult> previous(jobs.size());
  parallel_for(
      pool_, jobs.size(),
      [&](std::size_t vp) {
        previous[vp] = std::exchange(
            per_vp[vp], run_vp(pool_, jobs[vp], vp, config, base_seed,
                               slices.plan, slices.traces[vp],
                               store ? &slices.evidence[vp] : nullptr));
      },
      /*chunk=*/1);
  parallel_for(
      pool_, previous.size(),
      [&](std::size_t vp) { previous[vp] = core::BdrmapResult{}; },
      /*chunk=*/1);
  run_span.close();
  return seconds_since(t0);
}

MultiVpResult MultiVpExecutor::run(const std::vector<VpJob>& jobs,
                                   const core::BdrmapConfig& config,
                                   std::uint64_t base_seed,
                                   SliceStore* store) const {
  MultiVpResult out;
  out.times.run_seconds = run_into(jobs, config, base_seed, store, out.per_vp);

  obs::Tracer* tracer = config.obs ? config.obs->tracer() : nullptr;
  auto r0 = std::chrono::steady_clock::now();
  obs::Span reduce_span(tracer, "multi_vp.reduce");
  reduce_ordered(out);
  reduce_span.close();
  out.times.reduce_seconds = seconds_since(r0);
  return out;
}

}  // namespace bdrmap::runtime
