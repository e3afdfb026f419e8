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
//
// Every forward path is one walk over the FIB (walk(), DESIGN.md §14): a
// pure function of routing that consumes no RNG and never consults the
// stop set. trace() generates replies along the walked path afterwards;
// reaches() and timestamp_probe() read the same walk.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "netbase/rng.h"
#include "obs/metrics.h"
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

  // Routing footprint (DESIGN.md §13). While `sink` is set, every walked
  // router appends route::Fib::tier_key(router, walked query), the
  // delivery router included, and every egress_iface_to_vp read appends
  // the key of the router's egress toward the VP, on memo hits too.
  // reaches_addr memo hits append nothing; alias probing records
  // addr_footprint instead. nullptr stops recording.
  void record_footprint(std::vector<std::uint64_t>* sink) {
    footprint_ = sink;
  }

  // Appends the tier keys that alias probes of `addr` read: the walk that
  // decides reaches_addr, and the owner's egress toward the VP (Mercator
  // reply source). Empty for non-interface addresses, which no alias probe
  // answers. The walk also fills the reach memo, so the probes that follow
  // do not walk again.
  void addr_footprint(Ipv4Addr addr, std::vector<std::uint64_t>& out);

  std::uint64_t probes_sent() const { return probes_sent_; }
  const topo::Vp& vp() const { return vp_; }

  // Back to the state of an engine constructed with `seed`: RNG and probe
  // count. The reach and VP-egress memos stay; they are pure functions of
  // the forwarding state.
  void reseed(std::uint64_t seed);

 private:
  // One forward-path hop: the router the probe's TTL expires at, the
  // interface it arrived on, and the delivery/firewall classification the
  // reply plane and reachability read.
  struct PathHop {
    net::RouterId router;
    net::IfaceId ingress;           // invalid on the first hop
    bool is_delivery = false;       // dst terminates at this router
    bool dst_is_own_addr = false;   // dst is one of the router's interfaces
    bool firewalled = false;        // edge filter blocks onward delivery
  };

  // Walks one flow from the VP's attach router toward `q`'s destination:
  // at most `limit` hops, ECMP choices hashed with `flow_salt`. The hops
  // land in path_, which the next walk overwrites.
  const std::vector<PathHop>& walk(const route::Fib::RouteQuery& q,
                                   std::uint32_t flow_salt, int limit) const;

  // The reply source address a router uses for a time-exceeded message.
  Ipv4Addr reply_source(net::RouterId router, net::IfaceId ingress,
                        const route::Fib::RouteQuery& dst_query) const;
  // Applies TracerConfig::spoof_reply_p to a time-exceeded reply source.
  Ipv4Addr maybe_spoof(Ipv4Addr real, Ipv4Addr probe_dst);
  // Walks toward `q`'s destination, leaving the walk in path_.
  bool reaches(net::RouterId router, const route::Fib::RouteQuery& q) const;
  // Appends `key` to the footprint sink, skipping a repeat of the last key
  // (consecutive hops of one AS share theirs).
  void note_key(std::uint64_t key) const {
    if (footprint_->empty() || footprint_->back() != key) {
      footprint_->push_back(key);
    }
  }

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
  std::vector<std::uint64_t>* footprint_ = nullptr;  // record_footprint

  // The last walk's hops, reused across calls. Mutable because reaches()
  // is logically const (same discipline as reach_cache_).
  mutable std::vector<PathHop> path_;
  std::vector<PathHop> classic_path_;  // classic mode's spliced path
};

}  // namespace bdrmap::probe
