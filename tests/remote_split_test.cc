// §5.8 split deployment: the identical inference must come out of the
// remote prober path, with all bdrmap state controller-side.
#include "remote/split.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/bdrmap.h"
#include "eval/degradation.h"
#include "eval/scenario.h"
#include "netbase/rng.h"
#include "runtime/multi_vp.h"

namespace bdrmap::remote {
namespace {

// The plain small access network: rate limiting, silent routers and lossy
// destinations all on, so the split is checked where reply loss acts.
class SplitFixture : public ::testing::Test {
 protected:
  SplitFixture() : scenario_(eval::small_access_config(11)) {
    vp_as_ = scenario_.first_of(topo::AsKind::kAccess);
    vp_ = scenario_.vps_in(vp_as_).front();
  }

  // The VP's map with every slice and the tail on `services`.
  core::BdrmapResult run_split(std::shared_ptr<probe::ProbeServices> services,
                               std::uint64_t seed) const {
    return runtime::MultiVpExecutor(nullptr)
        .run({runtime::shared_stack_job(std::move(services),
                                        scenario_.inputs_for(vp_as_))},
             {}, seed)
        .per_vp.front();
  }

  eval::Scenario scenario_;
  net::AsId vp_as_;
  topo::Vp vp_;
};

// §5.8: the split deployment runs the identical inference. The device
// traces past the controller's stop set, yet every trace draw is keyed on
// (VP seed, destination, TTL), so the hops up to the cut are the local
// ones and the maps are equal.
TEST_F(SplitFixture, RemoteMatchesLocalInference) {
  for (std::uint64_t seed : {123u, 77u, 9u}) {
    const core::BdrmapResult local = scenario_.run_bdrmap(vp_, {}, seed);
    auto device_services =
        scenario_.services_for(vp_, runtime::vp_seed(seed, 0));
    ProberDevice device(*device_services);
    const core::BdrmapResult remote =
        run_split(std::make_shared<RemoteProbeServices>(device), seed);
    EXPECT_FALSE(local.links.empty()) << "seed " << seed;
    EXPECT_TRUE(eval::same_border_map(remote, local)) << "seed " << seed;
    // The device traced past the stop set: more probes, same map.
    EXPECT_GT(remote.stats.probes_sent, local.stats.probes_sent) << seed;
  }
}

// Alias pair tests are keyed on (seed, pair), and the key reaches the
// device: a remote stack and a local stack of one seed give the same
// verdicts and Mercator sources on the same shuffled pair list.
TEST_F(SplitFixture, RemoteMatchesLocalAliasVerdicts) {
  runtime::VpJob job;
  job.make_services = [this](std::uint64_t seed) {
    return scenario_.services_for(vp_, seed);
  };
  job.inputs = scenario_.inputs_for(vp_as_);
  runtime::SliceStore store;
  (void)runtime::MultiVpExecutor(nullptr).run({job}, {}, 123, &store);
  const core::AliasEvidence& measured = store.evidence.front();
  std::vector<std::uint64_t> keys;
  for (const auto& [key, verdict] : measured.verdicts) keys.push_back(key);
  ASSERT_GT(keys.size(), 20u);
  std::sort(keys.begin(), keys.end());
  net::Rng(5).shuffle(keys);

  auto run = [&](probe::ProbeServices& services) {
    core::AliasEvidence evidence;
    core::AliasResolver resolver(services, &evidence);
    std::vector<std::pair<std::uint64_t, core::AliasVerdict>> verdicts;
    for (std::uint64_t key : keys) {
      const net::Ipv4Addr a(static_cast<std::uint32_t>(key >> 32));
      const net::Ipv4Addr b(static_cast<std::uint32_t>(key));
      verdicts.emplace_back(key, resolver.test_pair(a, b));
    }
    std::vector<std::pair<std::uint32_t, std::uint32_t>> sources;
    for (const auto& [addr, src] : evidence.udp_sources) {
      sources.emplace_back(addr.value(), src ? src->value() : 0u);
    }
    std::sort(sources.begin(), sources.end());
    return std::make_pair(verdicts, sources);
  };
  auto local_services = scenario_.services_for(vp_, 77);
  const auto local = run(*local_services);
  auto device_services = scenario_.services_for(vp_, 77);
  ProberDevice device(*device_services);
  RemoteProbeServices remote_services(device);
  const auto remote = run(remote_services);
  EXPECT_EQ(remote.first, local.first);
  EXPECT_EQ(remote.second, local.second);
}

TEST_F(SplitFixture, ChannelStatsAccumulate) {
  auto device_services = scenario_.services_for(vp_, 123);
  ProberDevice device(*device_services);
  auto remote_services = std::make_shared<RemoteProbeServices>(device);
  const core::BdrmapResult result = run_split(remote_services, 123);

  const ChannelStats& stats = remote_services->channel_stats();
  EXPECT_GT(stats.messages, result.stats.traces);
  EXPECT_GT(stats.bytes_to_device, 0u);
  EXPECT_GT(stats.bytes_from_device, 0u);
  // The device never buffers more than one (small) message: the paper's
  // 3.5MB-scamper vs 150MB-bdrmap split. Our messages are tiny.
  EXPECT_LT(stats.peak_message_bytes, 4096u);
}

TEST_F(SplitFixture, ControllerAppliesStopSetTruncation) {
  auto device_services = scenario_.services_for(vp_, 9);
  ProberDevice device(*device_services);
  RemoteProbeServices remote_services(device);
  // Trace something, then ask again with a stop set covering the first
  // responsive hop: the controller-side truncation must apply.
  auto full = remote_services.trace(
      net::Ipv4Addr(scenario_.net().announced().front().prefix.first().value() + 1),
      nullptr);
  net::Ipv4Addr first;
  for (const auto& hop : full.hops) {
    if (hop.kind != probe::ReplyKind::kNone) {
      first = hop.addr;
      break;
    }
  }
  ASSERT_FALSE(first.is_zero());
  auto truncated = remote_services.trace(
      full.dst, [&](net::Ipv4Addr a) { return a == first; });
  EXPECT_TRUE(truncated.stopped_by_stopset);
  EXPECT_EQ(truncated.hops.back().addr, first);
}

TEST_F(SplitFixture, DeviceAnswersGarbageWithErrorFrameNotException) {
  auto device_services = scenario_.services_for(vp_, 9);
  ProberDevice device(*device_services);

  // Frame-level garbage: a kError frame comes back, nothing is thrown
  // across the "wire".
  auto nack = device.handle_frame({0xFF, 0x01, 0x02});
  Frame frame = open_frame(nack);
  EXPECT_EQ(frame.type(), MsgType::kError);
  EXPECT_EQ(decode_error(frame.payload), ErrCode::kMalformedRequest);

  // Payload-level garbage: unknown request type.
  EXPECT_EQ(decode_error(device.handle({0xFF, 0x01})),
            ErrCode::kUnknownRequest);
  // Truncated payload for a known type.
  EXPECT_EQ(decode_error(device.handle({0x01, 0x0A})),
            ErrCode::kMalformedRequest);
  // Empty payload.
  EXPECT_EQ(decode_error(device.handle({})), ErrCode::kMalformedRequest);

  // Retired types 7 and 8 (the IP-timestamp request and response), in
  // their old shapes and bare: unknown requests, never misparsed, and no
  // probe is spent on them.
  Writer ts_req;
  ts_req.u8(7);
  ts_req.addr(net::Ipv4Addr(0x14000009u));
  ts_req.addr(net::Ipv4Addr(0x0A000102u));
  for (const std::vector<std::uint8_t>& retired :
       {ts_req.take(), std::vector<std::uint8_t>{8, 1, 1},
        std::vector<std::uint8_t>{7}, std::vector<std::uint8_t>{8}}) {
    EXPECT_EQ(decode_error(device.handle(retired)), ErrCode::kUnknownRequest);
  }
  EXPECT_EQ(device.probes_sent(), 0u);
}

TEST_F(SplitFixture, DeviceRequiresSessionAndServesReplayCache) {
  auto device_services = scenario_.services_for(vp_, 9);
  ProberDevice device(*device_services);

  // No session yet: a well-formed command frame is refused.
  auto probe_payload = encode_udp_req(
      net::Ipv4Addr(
          scenario_.net().announced().front().prefix.first().value() + 1));
  auto refused = open_frame(device.handle_frame(seal_frame(5, 1, probe_payload)));
  EXPECT_EQ(refused.type(), MsgType::kError);
  EXPECT_EQ(decode_error(refused.payload), ErrCode::kBadSession);

  // Handshake, then a command, then its retransmit: the replay cache must
  // answer byte-identically without re-probing.
  auto hello = open_frame(device.handle_frame(seal_frame(0, 1, encode_hello_req())));
  std::uint32_t session = decode_hello_resp(hello.payload);
  EXPECT_NE(session, 0u);

  auto first = device.handle_frame(seal_frame(session, 2, probe_payload));
  std::uint64_t probes_after_first = device.probes_sent();
  auto replay = device.handle_frame(seal_frame(session, 2, probe_payload));
  EXPECT_EQ(first, replay);
  EXPECT_EQ(device.probes_sent(), probes_after_first);

  // A crash drops the session; the same frame is now refused again.
  device.crash();
  auto after_crash = open_frame(device.handle_frame(seal_frame(session, 3, probe_payload)));
  EXPECT_EQ(after_crash.type(), MsgType::kError);
  EXPECT_EQ(decode_error(after_crash.payload), ErrCode::kBadSession);
  EXPECT_EQ(device.restarts(), 1u);
}

}  // namespace
}  // namespace bdrmap::remote
