// Split prober/controller deployment (§5.8).
//
// ProberDevice is what runs on the resource-limited box: it executes one
// measurement command at a time and holds almost no bdrmap state (the
// paper's scamper used 3.5MB of RAM on BISmark devices vs ~150MB for full
// bdrmap). The only state it keeps is per-session: the current session id
// and a one-deep replay cache keyed by sequence number, so a retransmitted
// request is answered idempotently without re-probing. A crash (power
// cycle) loses exactly that state; the controller re-establishes the
// session with a hello handshake.
//
// RemoteProbeServices is the controller-side adapter: it implements
// probe::ProbeServices by marshalling each command over a Channel, so the
// unmodified pipeline drives a remote device (runtime::shared_stack_job
// hands one RemoteProbeServices to every slice and the inference tail of
// a runtime::MultiVpExecutor run). Because the channel may be lossy
// (remote::FaultyChannel), the controller is resilient: per-request
// timeouts, bounded retries with exponential backoff + jitter on a virtual
// clock, CRC/sequence verification of every frame, session
// re-establishment after a device restart, and a circuit breaker that
// fails probes fast while the device is unreachable. A probe
// that still fails after all of that surfaces as TraceResult::failed /
// nullopt — the pipeline degrades gracefully instead of aborting.
//
// The doubletree stop set stays controller-side: the device traces, the
// controller truncates — trading some extra device probes for near-zero
// device state, the same trade the paper makes. Trace draws are keyed on
// (seed, destination, TTL), so the hops up to the cut are the ones a local
// prober of the same seed returns, and the split map is the local map.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "netbase/rng.h"
#include "obs/metrics.h"
#include "probe/alias.h"
#include "probe/types.h"
#include "remote/channel.h"
#include "remote/protocol.h"

namespace bdrmap::remote {

// The measurement device: wraps the actual prober and answers one framed
// command per call. Nothing a peer sends may crash it — malformed input
// yields a kError frame, never an exception across the "wire".
class ProberDevice {
 public:
  explicit ProberDevice(probe::LocalProbeServices& services)
      : services_(services) {}

  // Framed endpoint: verifies CRC, session and sequence number, answers
  // retransmits from the replay cache, and dispatches fresh requests.
  std::vector<std::uint8_t> handle_frame(
      const std::vector<std::uint8_t>& wire);

  // Payload-level dispatch (no session handling). Malformed or unknown
  // requests return an encoded kError message.
  std::vector<std::uint8_t> handle(const std::vector<std::uint8_t>& request);

  // Simulated power cycle: the session id and replay cache are lost and
  // every in-flight session is invalidated; the probe engines themselves
  // (the "scamper process") come back up unchanged.
  void crash();

  std::uint64_t probes_sent() const { return services_.probes_sent(); }
  // Routing footprints of the probes this device runs (probe::
  // ProbeServices): simulation accounting like probes_sent, not wire
  // traffic. A retransmitted trace records its walk again, which only
  // repeats keys.
  void record_footprint(std::vector<std::uint64_t>* sink) {
    services_.record_footprint(sink);
  }
  void addr_footprint(net::Ipv4Addr addr, std::vector<std::uint64_t>& out) {
    services_.addr_footprint(addr, out);
  }
  std::uint32_t restarts() const { return restarts_; }
  std::uint32_t session() const { return session_; }  // 0 = none

 private:
  probe::LocalProbeServices& services_;
  std::uint32_t session_ = 0;
  std::uint32_t next_session_ = 1;
  std::uint32_t restarts_ = 0;
  // One-deep idempotent replay cache: last handled sequence number and the
  // full response frame that answered it.
  bool cache_valid_ = false;
  std::uint32_t cached_seq_ = 0;
  std::vector<std::uint8_t> cached_response_;
};

// Controller-side retry/timeout/breaker policy. All time is virtual
// (VirtualClock), so degraded runs stay deterministic and fast.
struct ResilienceConfig {
  double request_timeout_s = 0.25;  // per attempt
  int max_attempts = 6;             // per request (1 initial + retries)
  double backoff_base_s = 0.05;     // doubles per retry ...
  double backoff_max_s = 2.0;       // ... up to this cap
  double backoff_jitter = 0.25;     // +/- fraction of the backoff, seeded
  // Circuit breaker: after this many *consecutive* abandoned requests the
  // device is declared dead and probes fail fast until the cooldown
  // elapses; the next request then half-opens the breaker with a trial.
  int breaker_threshold = 8;
  double breaker_cooldown_s = 30.0;
  std::uint64_t seed = 0x51C2;  // backoff jitter stream
  // When set, the controller mirrors its resilience counters (remote.*)
  // into this registry alongside ChannelStats — the stats struct stays the
  // protocol-test interface, the registry feeds the run-wide export.
  obs::MetricsRegistry* metrics = nullptr;
};

// Controller-side ProbeServices speaking the wire protocol over a Channel.
class RemoteProbeServices final : public probe::ProbeServices {
 public:
  // Perfect in-process channel (the seed behaviour).
  explicit RemoteProbeServices(ProberDevice& device);
  // Caller-supplied channel, e.g. a FaultyChannel.
  explicit RemoteProbeServices(Channel& channel, ResilienceConfig config = {});

  probe::TraceResult trace(net::Ipv4Addr dst, probe::StopFn stop) override;
  std::optional<net::Ipv4Addr> udp_probe(net::Ipv4Addr addr) override;
  std::optional<std::uint16_t> ipid_sample(net::Ipv4Addr addr,
                                           double t) override;
  // Forwarded to the device, which keys its prober there. An abandoned
  // request leaves the device on its previous key: a degraded run's
  // verdicts may then differ, like its other lost probes.
  void begin_alias_test(std::uint64_t key) override;
  // Read off the device (run-time accounting).
  std::uint64_t probes_sent() const override {
    return channel_->device().probes_sent();
  }
  // Read off the device too: the routing its probes read lives there.
  void record_footprint(std::vector<std::uint64_t>* sink) override {
    channel_->device().record_footprint(sink);
  }
  void addr_footprint(net::Ipv4Addr addr,
                      std::vector<std::uint64_t>& out) override {
    channel_->device().addr_footprint(addr, out);
  }

  const ChannelStats& channel_stats() const { return channel_->stats(); }
  bool breaker_open() const { return breaker_open_; }

 private:
  // One reliable request: frame, send, verify, retry. nullopt when the
  // request was abandoned (timeout budget exhausted or breaker open).
  std::optional<std::vector<std::uint8_t>> request(
      const std::vector<std::uint8_t>& payload);
  bool handshake();
  void backoff(int attempt);

  std::unique_ptr<DirectChannel> owned_;  // when constructed from a device
  Channel* channel_;
  ResilienceConfig cfg_;
  net::Rng rng_;
  std::uint32_t session_ = 0;
  bool had_session_ = false;
  std::uint32_t next_seq_ = 1;
  int consecutive_failures_ = 0;
  bool breaker_open_ = false;
  double breaker_open_until_ = 0.0;
  // Registry mirrors of the ChannelStats counters; no-ops unless
  // ResilienceConfig::metrics was set.
  obs::Counter retransmits_;
  obs::Counter timeouts_;
  obs::Counter corrupt_frames_;
  obs::Counter stale_frames_;
  obs::Counter breaker_fast_fails_;
  obs::Counter probe_failures_;
  obs::Counter device_restarts_;
};

}  // namespace bdrmap::remote
