// Sequential-vs-parallel determinism for multi-VP inference: the same
// scenario, the same seeds, 1 worker vs 8 workers, byte-identical border
// maps. This is the contract that lets every evaluation sweep go parallel
// without changing a single reported number (DESIGN.md §8).
#include "runtime/multi_vp.h"

#include <gtest/gtest.h>

#include <atomic>

#include "core/blocks.h"
#include "core/merge.h"
#include "eval/degradation.h"
#include "eval/scenario.h"
#include "runtime/thread_pool.h"
#include "serve/churn.h"
#include "serve/engine.h"
#include "serve/snapshot.h"

namespace bdrmap {
namespace {

// The compiled border map's structural hash over every VP of a run.
std::uint64_t fingerprint(const runtime::MultiVpResult& m) {
  std::vector<const core::BdrmapResult*> runs;
  for (const core::BdrmapResult& r : m.per_vp) runs.push_back(&r);
  return serve::BorderMapSnapshot::compile({}, core::merge_results(runs),
                                           /*epoch=*/0)
      ->fingerprint();
}

class MultiVpDeterminism : public ::testing::Test {
 protected:
  MultiVpDeterminism()
      : scenario_(eval::small_access_config(42)),
        vp_as_(scenario_.featured_access()),
        vps_(scenario_.vps_in(vp_as_)) {}

  eval::Scenario scenario_;
  net::AsId vp_as_;
  std::vector<topo::Vp> vps_;
};

TEST_F(MultiVpDeterminism, ParallelRunIsBitIdenticalToSequential) {
  ASSERT_GE(vps_.size(), 2u) << "scenario must host several VPs";

  // Baseline: the null pool runs every slice and tail on this thread.
  runtime::MultiVpResult sequential =
      scenario_.run_bdrmap_parallel(vps_, {}, 0x1000, nullptr);

  for (unsigned threads : {2u, 4u, 8u}) {
    runtime::ThreadPool pool(threads);
    runtime::MultiVpResult parallel =
        scenario_.run_bdrmap_parallel(vps_, {}, 0x1000, &pool);
    ASSERT_EQ(parallel.per_vp.size(), sequential.per_vp.size());
    for (std::size_t i = 0; i < sequential.per_vp.size(); ++i) {
      EXPECT_TRUE(eval::same_border_map(parallel.per_vp[i],
                                        sequential.per_vp[i]))
          << "VP " << i << " diverged at " << threads << " threads";
      EXPECT_EQ(parallel.per_vp[i].stats.probes_sent,
                sequential.per_vp[i].stats.probes_sent);
    }
  }
}

TEST_F(MultiVpDeterminism, MergedReductionIsOrderedAndStable) {
  runtime::ThreadPool pool(8);
  runtime::MultiVpResult a =
      scenario_.run_bdrmap_parallel(vps_, {}, 0x1000, &pool);
  runtime::MultiVpResult b =
      scenario_.run_bdrmap_parallel(vps_, {}, 0x1000, nullptr);

  EXPECT_EQ(a.total.probes_sent, b.total.probes_sent);
  EXPECT_EQ(a.total.traces, b.total.traces);
  EXPECT_EQ(a.total.routers, b.total.routers);
}

TEST_F(MultiVpDeterminism, SingleVpThroughExecutorMatchesDirectRun) {
  // run_bdrmap is a one-VP plan: the same slices, seeds and tail.
  core::BdrmapResult direct = scenario_.run_bdrmap(vps_[1], {}, 0x515);
  runtime::ThreadPool pool(4);
  runtime::MultiVpResult via_executor =
      scenario_.run_bdrmap_parallel({vps_[1]}, {}, 0x515, &pool);
  ASSERT_EQ(via_executor.per_vp.size(), 1u);
  EXPECT_TRUE(eval::same_border_map(via_executor.per_vp[0], direct));
  EXPECT_EQ(via_executor.per_vp[0].stats.probes_sent,
            direct.stats.probes_sent);
}

TEST_F(MultiVpDeterminism, PlanSlicesConcatenateToSchedule) {
  std::vector<runtime::VpJob> jobs(2);
  jobs[0].inputs = scenario_.inputs_for(vp_as_);
  jobs[1].inputs =
      scenario_.inputs_for(scenario_.first_of(topo::AsKind::kTier1));
  runtime::ThreadPool pool(4);
  const runtime::SlicePlan plan(jobs, &pool);
  ASSERT_EQ(plan.vp_count(), jobs.size());
  for (std::size_t vp = 0; vp < jobs.size(); ++vp) {
    const std::vector<core::ProbeBlock> schedule = core::build_probe_blocks(
        *jobs[vp].inputs.origins, jobs[vp].inputs.vp_ases);
    ASSERT_FALSE(schedule.empty());
    // Slices in order, one per target AS, reproduce the schedule exactly:
    // every block once, in build_probe_blocks order.
    std::vector<core::ProbeBlock> stitched;
    net::AsId previous;
    for (const runtime::SlicePlan::Slice& slice : plan.slices(vp)) {
      EXPECT_LT(slice.begin, slice.end);
      if (previous.valid()) {
        EXPECT_LT(previous, slice.target_as);
      }
      previous = slice.target_as;
      for (const core::ProbeBlock& block : plan.blocks_of(vp, slice)) {
        EXPECT_EQ(block.target_as, slice.target_as);
        stitched.push_back(block);
      }
    }
    ASSERT_EQ(stitched.size(), schedule.size()) << "VP " << vp;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      EXPECT_EQ(stitched[i].prefix, schedule[i].prefix) << i;
      EXPECT_EQ(stitched[i].target_as, schedule[i].target_as) << i;
    }
  }
}

// One probe stack per collected slice and one per VP tail, whatever the
// worker count: a cold run builds Σ slices + #VPs stacks, and a churn
// epoch builds one per re-collected slice plus one per tail.
TEST_F(MultiVpDeterminism, OneProbeStackPerCollectedSlice) {
  std::atomic<std::size_t> built{0};
  std::vector<runtime::VpJob> jobs;
  for (const topo::Vp& vp : vps_) {
    runtime::VpJob job;
    job.make_services = [this, vp, &built](std::uint64_t seed) {
      built.fetch_add(1, std::memory_order_relaxed);
      return std::unique_ptr<probe::ProbeServices>(
          scenario_.services_for(vp, seed));
    };
    job.inputs = scenario_.inputs_for(vp_as_);
    jobs.push_back(std::move(job));
  }
  const runtime::SlicePlan plan(jobs, nullptr);
  std::size_t slices = 0;
  for (std::size_t vp = 0; vp < plan.vp_count(); ++vp) {
    slices += plan.slices(vp).size();
  }
  runtime::ThreadPool pool(4);
  (void)runtime::MultiVpExecutor(&pool).run(jobs, {}, 0x1000);
  EXPECT_EQ(built.load(), slices + jobs.size());

  serve::EngineOptions options;
  options.pool = &pool;
  serve::ServeEngine engine(scenario_.net(), scenario_.bgp_mutable(),
                            scenario_.fib_mutable(), jobs, options);
  built = 0;
  engine.rebuild_full();
  EXPECT_EQ(built.load(), slices + jobs.size());
  // Epochs of every size: 0 to 370 slices re-collected.
  serve::ChurnStream stream(scenario_.net(), 5);
  std::size_t dirty = 0;
  for (int epoch = 0; epoch < 15; ++epoch) {
    built = 0;
    const serve::ChurnApplyStats stats = engine.apply(stream.next());
    EXPECT_EQ(built.load(), stats.dirty_slices + jobs.size()) << epoch;
    dirty += stats.dirty_slices;
  }
  EXPECT_GT(dirty, 0u);
}

// Any two stacks of a VP are interchangeable: every stack is seeded with
// the VP's seed and every draw is keyed on what it probes. So one stack
// per VP, shared by all its slices and its tail (as the §5.8 split does),
// gives the map and the probe count of a stack per slice.
TEST_F(MultiVpDeterminism, SharedStackEqualsPerSliceStacks) {
  constexpr std::uint64_t kBaseSeed = 0x1000;
  std::vector<topo::Vp> vps = vps_;
  if (vps.size() > 3) vps.resize(3);
  const runtime::MultiVpResult per_slice =
      scenario_.run_bdrmap_parallel(vps, {}, kBaseSeed, nullptr);

  std::vector<runtime::VpJob> jobs;
  std::vector<std::shared_ptr<probe::ProbeServices>> stacks;
  for (std::size_t i = 0; i < vps.size(); ++i) {
    stacks.push_back(
        scenario_.services_for(vps[i], runtime::vp_seed(kBaseSeed, i)));
    jobs.push_back(
        runtime::shared_stack_job(stacks.back(), scenario_.inputs_for(vp_as_)));
  }
  const runtime::MultiVpResult shared =
      runtime::MultiVpExecutor(nullptr).run(jobs, {}, kBaseSeed);

  EXPECT_EQ(fingerprint(shared), fingerprint(per_slice));
  EXPECT_EQ(shared.total.probes_sent, per_slice.total.probes_sent);
  for (std::size_t i = 0; i < vps.size(); ++i) {
    EXPECT_TRUE(eval::same_border_map(shared.per_vp[i], per_slice.per_vp[i]))
        << "VP " << i;
    EXPECT_EQ(shared.per_vp[i].stats.probes_sent,
              per_slice.per_vp[i].stats.probes_sent)
        << "VP " << i;
    EXPECT_EQ(shared.per_vp[i].stats.probes_sent, stacks[i]->probes_sent());
  }
}

}  // namespace
}  // namespace bdrmap
