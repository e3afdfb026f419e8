// Resource-limited deployment (§5.8), now over a degraded channel.
//
// The paper: full bdrmap needs ~150MB of RAM, while the prober (scamper)
// on a BISmark device used 3.5MB — so bdrmap state lives on a central
// controller and the device only executes measurement commands. Those
// devices sit behind real, lossy access links, so this bench runs the
// identical inference through the split deployment twice over:
//
//  1. footprint: controller-side state vs device buffer (the seed bench);
//  2. fault sweep: the same run at increasing injected message-loss rates
//     (plus corruption, duplication, reordering and a mid-run device
//     crash), reporting Table-1-style coverage and ground-truth PPV per
//     fault rate — graceful degradation, quantified.
//
// Every run goes through runtime::MultiVpExecutor: the split hands its one
// remote stack to every slice and the tail (runtime::shared_stack_job).
// Exits 1 unless the lossless split map equals the local map and the
// 0%-fault run equals the lossless split run (eval::same_border_map).
#include <cstdio>
#include <memory>

#include "core/bdrmap.h"
#include "eval/degradation.h"
#include "eval/ground_truth.h"
#include "eval/report.h"
#include "eval/scenario.h"
#include "remote/channel.h"
#include "remote/split.h"
#include "runtime/flags.h"
#include "runtime/multi_vp.h"
#include "runtime/parallel_for.h"

using namespace bdrmap;

namespace {

constexpr std::uint64_t kProbeSeed = 99;

// One VP's map with every slice and the tail on `services`.
core::BdrmapResult run_split(std::shared_ptr<probe::ProbeServices> services,
                             const core::InferenceInputs& inputs) {
  return runtime::MultiVpExecutor(nullptr)
      .run({runtime::shared_stack_job(std::move(services), inputs)}, {},
           kProbeSeed)
      .per_vp.front();
}

remote::FaultConfig faults_at(double rate) {
  remote::FaultConfig f;
  f.drop_rate = rate;
  f.corrupt_rate = rate / 2.0;
  f.duplicate_rate = rate / 2.0;
  f.reorder_rate = rate / 4.0;
  f.truncate_rate = rate / 4.0;
  f.seed = 0xFA17;
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads = runtime::threads_flag(argc, argv);
  auto pool = runtime::make_pool(threads);
  eval::Scenario scenario(eval::small_access_config(42));
  net::AsId vp_as = scenario.first_of(topo::AsKind::kAccess);
  auto vp = scenario.vps_in(vp_as).front();
  core::InferenceInputs inputs = scenario.inputs_for(vp_as);
  eval::GroundTruth truth(scenario.net(), vp_as);

  std::printf("Split prober/controller deployment (§5.8)\n");
  std::printf("paper: bdrmap ~150MB RAM; scamper on a BISmark device "
              "3.5MB, <=3%% CPU\n\n");

  // Monolithic run.
  const core::BdrmapResult local_result =
      scenario.run_bdrmap(vp, {}, kProbeSeed);

  // Split run: same inference code, device behind the wire protocol. The
  // device's prober has the VP's seed, as every local stack of the VP has.
  const std::uint64_t device_seed = runtime::vp_seed(kProbeSeed, 0);
  auto device_services = scenario.services_for(vp, device_seed);
  remote::ProberDevice device(*device_services);
  auto remote_services = std::make_shared<remote::RemoteProbeServices>(device);
  const core::BdrmapResult remote_result = run_split(remote_services, inputs);
  const remote::ChannelStats& ch = remote_services->channel_stats();

  // Controller-side state footprint (what the device does NOT hold):
  // origin table entries, relationship edges, collected trace hops.
  std::size_t origin_entries = inputs.origins->prefix_count();
  std::size_t rel_edges = inputs.rels->edge_count();
  std::size_t trace_hops = 0;
  for (const auto& t : remote_result.graph.traces()) {
    trace_hops += t.hops.size();
  }
  // Rough byte estimates with the in-memory representations used here.
  std::size_t controller_bytes =
      origin_entries * 64 + rel_edges * 24 + trace_hops * 8;

  std::vector<std::vector<std::string>> cells = {
      {"inferred links (local)", std::to_string(local_result.links.size())},
      {"inferred links (remote)", std::to_string(remote_result.links.size())},
      {"neighbor ASes (local)",
       std::to_string(local_result.links_by_as.size())},
      {"neighbor ASes (remote)",
       std::to_string(remote_result.links_by_as.size())},
      {"messages on channel", std::to_string(ch.messages)},
      {"bytes to device", std::to_string(ch.bytes_to_device)},
      {"bytes from device", std::to_string(ch.bytes_from_device)},
      {"device peak message buffer", std::to_string(ch.peak_message_bytes)},
      {"controller state (approx bytes)", std::to_string(controller_bytes)},
  };
  std::fputs(eval::render_table({"metric", "value"}, cells).c_str(), stdout);

  double ratio = static_cast<double>(controller_bytes) /
                 std::max<double>(1.0, static_cast<double>(
                                           ch.peak_message_bytes));
  std::printf("\ncontroller holds ~%.0fx more state than the device ever "
              "buffers\n(paper's split: 150MB vs 3.5MB = ~43x)\n",
              ratio);

  // --- fault-rate sweep: graceful inference degradation ---

  std::printf("\nFault sweep: inference accuracy vs injected channel "
              "faults (%u threads)\n(drop rate shown; corruption/duplication "
              "at rate/2, reorder/truncation at rate/4;\nthe 10%% row also "
              "power-cycles the device mid-run)\n\n",
              threads);

  // Each sweep point is an independent full pipeline (its own device,
  // channel and executor run over the shared read-only scenario), so the
  // points run concurrently; the rendered table stays in rate order
  // because parallel_map returns results by index.
  const std::vector<double> rates = {0.0, 0.02, 0.05, 0.10};
  std::vector<eval::DegradationRow> rows =
      runtime::parallel_map<eval::DegradationRow>(
          pool.get(), rates.size(), [&](std::size_t i) {
            const double rate = rates[i];
            auto backend = scenario.services_for(vp, device_seed);
            remote::ProberDevice dev(*backend);
            remote::FaultConfig faults = faults_at(rate);
            if (rate >= 0.10) faults.crash_at_message = 2000;
            remote::FaultyChannel channel(dev, faults);
            auto services =
                std::make_shared<remote::RemoteProbeServices>(channel);
            const core::BdrmapResult result = run_split(services, inputs);
            const remote::ChannelStats& stats = services->channel_stats();

            eval::DegradationRow row = eval::score_degraded_run(
                rate, result, truth, *inputs.rels, inputs.vp_ases);
            row.retransmits = stats.retransmits;
            row.timeouts = stats.timeouts;
            row.corrupt_frames_detected = stats.corrupt_frames_detected;
            row.device_restarts = stats.device_restarts;
            row.identical_to_baseline =
                eval::same_border_map(result, remote_result);
            return row;
          });
  std::fputs(eval::render_degradation(rows).c_str(), stdout);

  eval::DegradationRow baseline = eval::score_degraded_run(
      0.0, local_result, truth, *inputs.rels, inputs.vp_ases);
  std::printf("\nlocal (lossless) baseline: %zu links, coverage %.1f%%, "
              "router PPV %.1f%%\n",
              baseline.links, baseline.bgp_coverage * 100.0,
              baseline.router_ppv * 100.0);
  const bool split_identical =
      eval::same_border_map(remote_result, local_result);
  std::printf("lossless split map identical to the local map: %s\n",
              split_identical ? "yes" : "NO (bug)");
  std::printf("0%%-fault run bit-identical to the lossless split run: %s\n",
              rows.front().identical_to_baseline ? "yes" : "NO (bug)");
  return split_identical && rows.front().identical_to_baseline ? 0 : 1;
}
