// Alias-resolution probe primitives: IP-ID sampling and Mercator UDP.
//
// §5.3 of the paper resolves aliases with Ally (shared IP-ID counter),
// Mercator (common source on ICMP port unreachable) and MIDAR-style
// monotonicity tests. This module simulates what those probes would
// observe: each router evolves an IP-ID counter per its behaviour model
// (shared / per-interface / random / zero), advanced by a background
// traffic velocity plus one per reply it sends. Random draws are keyed
// (net::mix), never streamed: an alias test's replies do not depend on
// the tests run before it on the same stack (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "netbase/mix.h"
#include "probe/tracer.h"
#include "probe/types.h"
#include "route/fib.h"
#include "topo/internet.h"

namespace bdrmap::probe {

class AliasProber {
 public:
  AliasProber(const topo::Internet& net, const route::Fib& fib,
              TracerouteEngine& tracer, std::uint64_t seed,
              obs::MetricsRegistry* metrics = nullptr)
      : net_(net), fib_(fib), tracer_(tracer), seed_(seed) {
    if (metrics) {
      udp_probes_ = metrics->counter("probe.udp_probes");
      ipid_samples_ = metrics->counter("probe.ipid_samples");
    }
    begin_test(0);
  }
  ~AliasProber() { ipid_samples_.inc(test_samples_); }
  AliasProber(const AliasProber&) = delete;
  AliasProber& operator=(const AliasProber&) = delete;

  // Mercator: UDP probe to `addr`; returns the source address of the ICMP
  // port-unreachable reply (the interface the router transmits from), if
  // the address is reachable and the router answers UDP. The rate-limit
  // draw is keyed on (seed, addr).
  std::optional<Ipv4Addr> udp_probe(Ipv4Addr addr);

  // Echo probe reading the IP-ID of the reply at virtual time `t` seconds.
  // Its draws are keyed on (seed, test key, sample number in the test).
  std::optional<std::uint16_t> ipid_sample(Ipv4Addr addr, double t);

  // Starts one alias measurement keyed by `key`: every IP-ID counter
  // restarts with no replies sent, and the samples that follow draw from
  // (seed, key). A test's samples are then a pure function of the seed,
  // the key, the (addr, t) sequence and the forwarding state. The previous
  // test's samples are counted here in one step (the last test's when the
  // prober is destroyed), not once per sample on the shared counter.
  void begin_test(std::uint64_t key) {
    ipid_samples_.inc(test_samples_);
    reply_counts_.clear();
    test_stream_ = net::mix(seed_, key, kIpidSalt);
    test_samples_ = 0;
  }

  std::uint64_t probes_sent() const { return probes_sent_; }

 private:
  static constexpr std::uint64_t kUdpSalt = 0x0d9;
  static constexpr std::uint64_t kIpidSalt = 0x1d1d;

  std::uint16_t next_ipid(const topo::Router& router, net::IfaceId iface,
                          double t, std::uint64_t random_draw);
  // Replies the counter `key` has sent in this test, counting this one.
  std::uint32_t count_reply(std::uint64_t key);

  const topo::Internet& net_;
  const route::Fib& fib_;
  TracerouteEngine& tracer_;
  const std::uint64_t seed_;
  std::uint64_t test_stream_ = 0;
  std::uint64_t test_samples_ = 0;
  // Replies sent per counter (router id, or iface id for per-interface
  // counters) in this test — each reply consumes one IP-ID. A test samples
  // two addresses, so a linear scan beats a hash map.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> reply_counts_;
  std::uint64_t probes_sent_ = 0;
  // No-op handles unless a registry was supplied at construction.
  obs::Counter udp_probes_;
  obs::Counter ipid_samples_;
};

// Bundles the probe engines into the ProbeServices interface the inference
// core consumes. This is the "monolithic" deployment (prober and inference
// on the same machine); remote::RemoteProbeServices is the §5.8 split.
class LocalProbeServices final : public ProbeServices {
 public:
  LocalProbeServices(const topo::Internet& net, const route::Fib& fib,
                     topo::Vp vp, std::uint64_t seed,
                     TracerConfig tracer_config = {})
      : tracer_(net, fib, vp, seed, tracer_config),
        prober_(net, fib, tracer_, prober_seed(seed),
                tracer_config.metrics) {}

  TraceResult trace(Ipv4Addr dst, const StopFn& stop) override {
    return tracer_.trace(dst, stop);
  }
  std::optional<Ipv4Addr> udp_probe(Ipv4Addr addr) override {
    return prober_.udp_probe(addr);
  }
  std::optional<std::uint16_t> ipid_sample(Ipv4Addr addr, double t) override {
    return prober_.ipid_sample(addr, t);
  }
  void begin_alias_test(std::uint64_t key) override {
    prober_.begin_test(key);
  }
  void record_footprint(std::vector<std::uint64_t>* sink) override {
    tracer_.record_footprint(sink);
  }
  void addr_footprint(Ipv4Addr addr,
                      std::vector<std::uint64_t>& out) override {
    tracer_.addr_footprint(addr, out);
  }
  std::uint64_t probes_sent() const override {
    return tracer_.probes_sent() + prober_.probes_sent();
  }

  TracerouteEngine& tracer() { return tracer_; }

 private:
  static std::uint64_t prober_seed(std::uint64_t seed) { return seed ^ 0x5a; }

  TracerouteEngine tracer_;
  AliasProber prober_;
};

}  // namespace bdrmap::probe
