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
// Probing is Paris traceroute, as in the paper [2]: forwarding is a pure
// function of (router, destination), so every TTL of a trace follows the
// same path.
//
// Every forward path is one walk over the FIB (walk(), DESIGN.md §14): a
// pure function of routing that draws nothing and never consults the stop
// set. trace() generates replies along the walked path afterwards, each
// random draw keyed on (seed, destination, TTL slot) (DESIGN.md §8), so a
// trace is a pure function of the seed, the destination and the
// forwarding state; reaches() reads the same walk.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "netbase/mix.h"
#include "obs/metrics.h"
#include "probe/types.h"
#include "route/fib.h"
#include "topo/generator.h"
#include "topo/internet.h"

namespace bdrmap::probe {

// TTL budget of every trace and reachability walk.
inline constexpr int kMaxTtl = 48;

struct TracerConfig {
  // scamper-style gap limit: stop after this many consecutive non-replies.
  int gap_limit = 5;
  // Adversarial reply spoofing (eval scenario families): with this
  // probability a time-exceeded reply's source address is forged to a host
  // address inside the probed destination's covering prefix — the
  // spoofed/NATed-middlebox pathology that makes a transit hop look like
  // the destination network. 0 (default) leaves the reply plane honest.
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

  // True iff a probe to `addr` is delivered to the router or host owning
  // it (considers routing and edge firewalls). Cached per address.
  bool reaches_addr(Ipv4Addr addr) const;

  // The interface `router` transmits packets toward this VP from.
  // Memoized: the kEgressToSrc reply policy and Mercator UDP probing ask
  // this for the same routers over and over with a fixed VP address.
  std::optional<net::IfaceId> egress_iface_to_vp(net::RouterId router) const;

  // Routing footprint (DESIGN.md §13). While `sink` is set, every walked
  // router appends route::Fib::tier_key(router, walked query), the
  // delivery router included, and every walk its query's Fib::query_key;
  // every egress_iface_to_vp memo fill appends both keys toward the VP.
  // Memo hits append nothing: an engine lives for one slice, so a hit
  // reads what its fill recorded, provided the sink was set before the
  // first probe. Alias probing records addr_footprint instead. nullptr
  // stops recording.
  void record_footprint(std::vector<std::uint64_t>* sink) {
    footprint_ = sink;
  }

  // Appends the keys that alias probes of `addr` read: the walk that
  // decides reaches_addr, and the owner's egress toward the VP (Mercator
  // reply source), each with its query key. Empty for non-interface
  // addresses, which no alias probe answers. The walk also fills the
  // reach memo, so the probes that follow do not walk again.
  void addr_footprint(Ipv4Addr addr, std::vector<std::uint64_t>& out);

  std::uint64_t probes_sent() const { return probes_sent_; }

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

  // Walks from the VP's attach router toward `q`'s destination, at most
  // kMaxTtl hops. The hops land in path_, which the next walk overwrites.
  const std::vector<PathHop>& walk(const route::Fib::RouteQuery& q) const;

  // The reply source address a router uses for a time-exceeded message.
  Ipv4Addr reply_source(net::RouterId router, net::IfaceId ingress,
                        const route::Fib::RouteQuery& dst_query) const;
  // The draws of one probe: keyed on (seed, destination, TTL slot), one
  // per kind of draw.
  enum class Draw : std::uint64_t { kReply, kSpoof, kSpoofHost };
  std::uint64_t draw(Ipv4Addr dst, int ttl, Draw kind) const {
    return net::mix(seed_, dst.value(),
                    static_cast<std::uint64_t>(ttl) * 3 +
                        static_cast<std::uint64_t>(kind));
  }
  // True with probability p, once per probe: the draw that decides whether
  // the probe with TTL `ttl` toward `dst` is answered (a router's rate
  // limit, the destination's responsiveness).
  bool chance(Ipv4Addr dst, int ttl, double p) const {
    return net::unit_draw(draw(dst, ttl, Draw::kReply)) < p;
  }
  // Applies TracerConfig::spoof_reply_p to a time-exceeded reply source.
  Ipv4Addr maybe_spoof(Ipv4Addr real, Ipv4Addr probe_dst, int ttl) const;
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
  const std::uint64_t seed_;
  TracerConfig config_;
  std::uint64_t probes_sent_ = 0;
  // No-op handles unless TracerConfig::metrics was set.
  obs::Counter traces_;
  obs::Counter trace_packets_;
  // The VP's own address resolved once for the engine's lifetime.
  route::Fib::RouteQuery vp_query_;
  mutable std::unordered_map<std::uint32_t, bool> reach_cache_;
  // router -> egress interface toward the VP (invalid == no egress).
  mutable std::unordered_map<std::uint32_t, net::IfaceId> vp_egress_cache_;
  std::vector<std::uint64_t>* footprint_ = nullptr;  // record_footprint

  // The last walk's hops, reused across calls. Mutable because reaches()
  // is logically const (same discipline as reach_cache_).
  mutable std::vector<PathHop> path_;
};

}  // namespace bdrmap::probe
