// Sequential-vs-parallel determinism for multi-VP inference: the same
// scenario, the same seeds, 1 worker vs 8 workers, byte-identical border
// maps. This is the contract that lets every evaluation sweep go parallel
// without changing a single reported number (DESIGN.md §8).
#include "runtime/multi_vp.h"

#include <gtest/gtest.h>

#include "core/blocks.h"
#include "eval/degradation.h"
#include "eval/scenario.h"
#include "netbase/contract.h"
#include "runtime/thread_pool.h"

namespace bdrmap {
namespace {

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

  // The merged link list is concatenated in VP order: tags ascend.
  ASSERT_FALSE(a.merged_links.empty());
  for (std::size_t i = 1; i < a.merged_links.size(); ++i) {
    EXPECT_LE(a.merged_links[i - 1].first, a.merged_links[i].first);
  }
  ASSERT_EQ(a.merged_links.size(), b.merged_links.size());
  for (std::size_t i = 0; i < a.merged_links.size(); ++i) {
    EXPECT_EQ(a.merged_links[i].first, b.merged_links[i].first);
    EXPECT_EQ(a.merged_links[i].second.neighbor_as,
              b.merged_links[i].second.neighbor_as);
    EXPECT_EQ(a.merged_links[i].second.vp_router,
              b.merged_links[i].second.vp_router);
    EXPECT_EQ(a.merged_links[i].second.neighbor_router,
              b.merged_links[i].second.neighbor_router);
    EXPECT_EQ(a.merged_links[i].second.how, b.merged_links[i].second.how);
  }
  EXPECT_EQ(a.merged_links_by_as, b.merged_links_by_as);
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

// Satellite audit: one Bdrmap instance must not be entered twice — the
// stop set, stats and failure log are instance state. The contract fires
// (kThrow here) instead of corrupting them silently: re-enter run() of
// the driving instance from inside its own first trace.
TEST_F(MultiVpDeterminism, ReenteringRunningInstanceTrips) {
  net::ScopedContractMode scoped(net::ContractMode::kThrow);
  core::InferenceInputs inputs = scenario_.inputs_for(vp_as_);

  class Hook : public probe::ProbeServices {
   public:
    explicit Hook(probe::ProbeServices& inner) : inner_(inner) {}
    void arm(core::Bdrmap* target) { target_ = target; }
    probe::TraceResult trace(net::Ipv4Addr dst,
                             const probe::StopFn& stop) override {
      if (target_ != nullptr && !fired_) {
        fired_ = true;
        EXPECT_THROW(target_->run(), net::ContractViolation);
      }
      return inner_.trace(dst, stop);
    }
    std::optional<net::Ipv4Addr> udp_probe(net::Ipv4Addr a) override {
      return inner_.udp_probe(a);
    }
    std::optional<std::uint16_t> ipid_sample(net::Ipv4Addr a,
                                             double t) override {
      return inner_.ipid_sample(a, t);
    }
    void begin_alias_test(std::uint64_t key) override {
      inner_.begin_alias_test(key);
    }
    void record_footprint(std::vector<std::uint64_t>* sink) override {
      inner_.record_footprint(sink);
    }
    void addr_footprint(net::Ipv4Addr a,
                        std::vector<std::uint64_t>& out) override {
      inner_.addr_footprint(a, out);
    }
    std::optional<bool> timestamp_probe(net::Ipv4Addr d,
                                        net::Ipv4Addr c) override {
      return inner_.timestamp_probe(d, c);
    }
    net::Ipv4Addr vp_addr() const override { return inner_.vp_addr(); }
    std::uint64_t probes_sent() const override {
      return inner_.probes_sent();
    }
    void reseed(std::uint64_t seed) override { inner_.reseed(seed); }
    bool fired() const { return fired_; }

   private:
    probe::ProbeServices& inner_;
    core::Bdrmap* target_ = nullptr;
    bool fired_ = false;
  };

  auto backend = scenario_.services_for(vps_[0], 0x515);
  Hook hook(*backend);
  core::Bdrmap pipeline(hook, inputs);
  hook.arm(&pipeline);  // re-enter the instance that is driving us
  (void)pipeline.run();
  EXPECT_TRUE(hook.fired());
}

}  // namespace
}  // namespace bdrmap
