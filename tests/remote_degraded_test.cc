// End-to-end degraded deployment: the pipeline over a FaultyChannel.
//
// The determinism guard pins the fault-injection layer at 0% to the exact
// map of the local deployment, with rate limiting and lossy destinations
// on; the degraded runs check that the pipeline completes with partial
// data (never aborts), survives a mid-run device power-cycle, and records
// abandoned targets as ProbeFailure instead of silently omitting them.
#include <gtest/gtest.h>

#include <memory>

#include "core/bdrmap.h"
#include "eval/degradation.h"
#include "eval/scenario.h"
#include "remote/channel.h"
#include "remote/split.h"
#include "runtime/multi_vp.h"

namespace bdrmap::remote {
namespace {

constexpr std::uint64_t kProbeSeed = 123;

class DegradedFixture : public ::testing::Test {
 protected:
  DegradedFixture()
      : scenario_(eval::small_access_config(11)),
        vp_as_(scenario_.first_of(topo::AsKind::kAccess)),
        vp_(scenario_.vps_in(vp_as_).front()),
        inputs_(scenario_.inputs_for(vp_as_)) {}

  core::BdrmapResult run_local(std::uint64_t seed = kProbeSeed) {
    return scenario_.run_bdrmap(vp_, {}, seed);
  }

  struct DegradedRun {
    core::BdrmapResult result;
    ChannelStats stats;
  };

  DegradedRun run_degraded(const FaultConfig& faults,
                           ResilienceConfig rcfg = {},
                           std::uint64_t seed = kProbeSeed) {
    // Every slice and the tail share the one remote stack, whose device
    // has the VP's seed.
    auto backend = scenario_.services_for(vp_, runtime::vp_seed(seed, 0));
    ProberDevice device(*backend);
    FaultyChannel channel(device, faults);
    auto services = std::make_shared<RemoteProbeServices>(channel, rcfg);
    core::BdrmapResult result =
        runtime::MultiVpExecutor(nullptr)
            .run({runtime::shared_stack_job(services, inputs_)}, {}, seed)
            .per_vp.front();
    return {std::move(result), channel.stats()};
  }

  eval::Scenario scenario_;
  net::AsId vp_as_;
  topo::Vp vp_;
  core::InferenceInputs inputs_;
};

TEST_F(DegradedFixture, ZeroFaultRateIsBitIdenticalToLocalDeployment) {
  for (std::uint64_t seed : {123u, 77u, 9u}) {
    core::BdrmapResult local = run_local(seed);
    DegradedRun faulty = run_degraded(FaultConfig{}, {}, seed);

    EXPECT_TRUE(eval::same_border_map(faulty.result, local)) << seed;
    EXPECT_EQ(faulty.result.stats.probe_failures, 0u);
    EXPECT_TRUE(faulty.result.failed_targets.empty());
    EXPECT_EQ(faulty.stats.retransmits, 0u);
    EXPECT_EQ(faulty.stats.timeouts, 0u);
  }
}

TEST_F(DegradedFixture, FivePercentLossAndMidRunRestartCompletes) {
  core::BdrmapResult local = run_local();

  FaultConfig faults;
  faults.drop_rate = 0.05;
  faults.corrupt_rate = 0.02;
  faults.duplicate_rate = 0.02;
  faults.crash_at_message = 800;  // power-cycle mid-run
  faults.seed = 0xBEEF;
  DegradedRun run = run_degraded(faults);

  // The run completed, recovered the session, and the recovery machinery
  // visibly worked.
  EXPECT_GT(run.stats.retransmits, 0u);
  EXPECT_GT(run.stats.timeouts, 0u);
  EXPECT_EQ(run.stats.device_restarts, 1u);
  EXPECT_GT(run.result.links.size(), 0u);
  EXPECT_GT(run.result.links_by_as.size(), 0u);

  // At 5% loss the retry budget absorbs nearly everything: the inferred
  // border map stays close to the lossless one (within 10% on links).
  double ratio = static_cast<double>(run.result.links.size()) /
                 static_cast<double>(local.links.size());
  EXPECT_GT(ratio, 0.9);
}

TEST_F(DegradedFixture, HeavyLossDegradesGracefullyAndRecordsFailures) {
  FaultConfig faults;
  faults.drop_rate = 0.85;
  faults.seed = 0x7E57;
  ResilienceConfig rcfg;
  rcfg.max_attempts = 3;
  rcfg.breaker_threshold = 5;
  DegradedRun run = run_degraded(faults, rcfg);

  // The pipeline finished despite the channel being mostly dead, and the
  // targets it could not measure are flagged, not dropped on the floor.
  EXPECT_GT(run.result.stats.probe_failures, 0u);
  EXPECT_EQ(run.result.failed_targets.size(),
            run.result.stats.probe_failures);
  for (const core::ProbeFailure& failure : run.result.failed_targets) {
    EXPECT_FALSE(failure.dst.is_zero());
    EXPECT_TRUE(failure.target_as.valid());
  }
  EXPECT_GT(run.stats.probe_failures, 0u);
}

}  // namespace
}  // namespace bdrmap::remote
