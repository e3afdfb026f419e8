// Simulated Paris traceroute over the synthetic Internet.
//
// Reproduces the traceroute idiosyncrasies the paper's heuristics exist to
// handle (§4): replies normally come from the ingress interface of the
// router where the TTL expired, but a router may instead reply from the
// interface facing the probe source (third-party addresses), or from the
// virtual-router interface that would have forwarded the probe; enterprise
// borders answer for themselves but firewall probes that would transit into
// their network; silent routers never answer; rate-limited routers answer
// probabilistically; echo replies carry the probed address as their source.
// Paris probing is implicit: the FIB is deterministic per flow, so every
// TTL of a trace follows the same path.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "netbase/arena.h"
#include "netbase/rng.h"
#include "obs/metrics.h"
#include "probe/trace_batch.h"
#include "probe/types.h"
#include "route/fib.h"
#include "topo/generator.h"
#include "topo/internet.h"

namespace bdrmap::probe {

struct TracerConfig {
  int max_ttl = 48;
  // scamper-style gap limit: stop after this many consecutive non-replies.
  int gap_limit = 5;
  // Paris traceroute (the default, as in the paper [2]): every probe of a
  // trace carries the same flow tuple, so ECMP hashing keeps the path
  // stable. false = classic traceroute: each TTL's probe hashes
  // differently and equal-cost paths interleave, manufacturing false
  // adjacencies.
  bool paris = true;
  // Adversarial reply spoofing (eval scenario families): with this
  // probability a time-exceeded reply's source address is forged to a host
  // address inside the probed destination's covering prefix — the
  // spoofed/NATed-middlebox pathology that makes a transit hop look like
  // the destination network. 0 (default) leaves the reply plane honest and
  // consumes no RNG draws, so existing seeds stay bit-identical.
  double spoof_reply_p = 0.0;
  // When set, per-type probe counters (probe.*) report here; nullptr
  // (default) keeps them no-ops. Shared by every engine of a run — the
  // counters are get-or-create, so per-VP engines aggregate.
  obs::MetricsRegistry* metrics = nullptr;
};

class TracerouteEngine {
 public:
  TracerouteEngine(const topo::Internet& net, const route::Fib& fib,
                   topo::Vp vp, std::uint64_t seed, TracerConfig config = {});

  TraceResult trace(Ipv4Addr dst, const StopFn& stop = nullptr);

  // Batched probe-wave execution (DESIGN.md §14): pre-walks the forward
  // paths of the given future trace() destinations in one lockstep
  // TraceBatch pass. Each subsequent trace() consumes its stashed path
  // instead of walking alone; the reply plane (RNG draws, stop-set
  // evaluation, probe accounting) is untouched, so results stay
  // bit-identical to unbatched tracing in the same call order. Calling
  // this starts a new wave: any unconsumed stash from the previous wave
  // is dropped and the wave arena is recycled. No-op in classic
  // (non-Paris) mode, where trace() itself batches its per-TTL flows.
  void prewalk_wave(const std::vector<Ipv4Addr>& dsts);

  // ICMP echo probe to `addr` itself (used for alias resolution / §5.4.8
  // evidence). Returns the reply source, which for echo replies is the
  // probed address.
  std::optional<ReplyKind> ping(Ipv4Addr addr);

  // True iff a probe to `addr` is delivered to the router or host owning
  // it (considers routing and edge firewalls). Cached per address.
  bool reaches_addr(Ipv4Addr addr) const;

  // IP prespecified-timestamp probe ([26]): does `candidate` stamp probes
  // toward `path_dst`? true = stamped (inbound interface on the path),
  // false = probe delivered unstamped, nullopt = no evidence (the
  // candidate's router ignores the option or the probe was lost).
  std::optional<bool> timestamp_probe(Ipv4Addr path_dst, Ipv4Addr candidate);

  // The interface `router` transmits packets toward this VP from.
  // Memoized: the kEgressToSrc reply policy and Mercator UDP probing ask
  // this for the same routers over and over with a fixed VP address.
  std::optional<net::IfaceId> egress_iface_to_vp(net::RouterId router) const;

  std::uint64_t probes_sent() const { return probes_sent_; }
  const topo::Vp& vp() const { return vp_; }

  // Back to the state of an engine constructed with `seed`: RNG, probe
  // count and wave stash. The reach and VP-egress memos and the arenas'
  // capacity stay; they are pure functions of the forwarding state.
  void reseed(std::uint64_t seed);

 private:
  // The reply source address a router uses for a time-exceeded message.
  Ipv4Addr reply_source(net::RouterId router, net::IfaceId ingress,
                        const route::Fib::RouteQuery& dst_query) const;
  // Applies TracerConfig::spoof_reply_p to a time-exceeded reply source.
  Ipv4Addr maybe_spoof(Ipv4Addr real, Ipv4Addr probe_dst);
  bool reaches(net::RouterId router, Ipv4Addr probe_dst) const;

  const topo::Internet& net_;
  const route::Fib& fib_;
  topo::Vp vp_;
  net::Rng rng_;
  TracerConfig config_;
  std::uint64_t probes_sent_ = 0;
  // No-op handles unless TracerConfig::metrics was set.
  obs::Counter traces_;
  obs::Counter trace_packets_;
  obs::Counter pings_;
  obs::Counter timestamp_probes_;
  // The VP's own address resolved once for the engine's lifetime.
  route::Fib::RouteQuery vp_query_;
  mutable std::unordered_map<std::uint32_t, bool> reach_cache_;
  // router -> egress interface toward the VP (invalid == no egress).
  mutable std::unordered_map<std::uint32_t, net::IfaceId> vp_egress_cache_;

  // The shared pure-walk engine: trace() (Paris and classic), reaches()
  // and timestamp_probe() all derive their forward paths from it.
  // Mutable because reaches() is logically const but reuses the batch
  // scratch and the solo arena (same discipline as reach_cache_).
  mutable TraceBatch batch_;
  // Solo walks (one flow) recycle this arena per call; stashed wave
  // paths live in wave_arena_, reset only when a new wave starts.
  mutable net::Arena solo_arena_;
  net::Arena wave_arena_;
  std::unordered_map<std::uint32_t, PrewalkedPath> wave_;
  std::vector<FlowSpec> wave_flows_;          // scratch
  std::vector<PrewalkedPath> wave_paths_;     // scratch
  std::vector<PathHop> classic_scratch_;      // classic-mode spliced path
};

}  // namespace bdrmap::probe
