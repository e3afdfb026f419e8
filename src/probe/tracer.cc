#include "probe/tracer.h"

namespace bdrmap::probe {

using net::IfaceId;
using net::RouterId;

TracerouteEngine::TracerouteEngine(const topo::Internet& net,
                                   const route::Fib& fib, topo::Vp vp,
                                   std::uint64_t seed, TracerConfig config)
    : net_(net), fib_(fib), vp_(vp), seed_(seed), config_(config),
      vp_query_(fib.query(vp.addr)) {
  path_.reserve(kMaxTtl);
  if (config_.metrics) {
    traces_ = config_.metrics->counter("probe.traces");
    trace_packets_ = config_.metrics->counter("probe.trace_packets");
  }
}

std::optional<IfaceId> TracerouteEngine::egress_iface_to_vp(
    RouterId router) const {
  const IfaceId* out = vp_egress_cache_.find(router.value);
  if (!out) {
    if (footprint_) {
      note_key(fib_.tier_key(router, vp_query_));
      if (const auto key = fib_.query_key(vp_query_)) note_key(*key);
    }
    out = &vp_egress_cache_.insert(
        router.value,
        fib_.egress_iface(router, vp_query_).value_or(IfaceId{}));
  }
  if (!out->valid()) return std::nullopt;
  return *out;
}

Ipv4Addr TracerouteEngine::reply_source(
    RouterId router, IfaceId ingress,
    const route::Fib::RouteQuery& dst_query) const {
  const auto& behavior = net_.router(router).behavior;
  switch (behavior.reply_addr) {
    case topo::ReplyAddrPolicy::kEgressToSrc: {
      // IETF-advised: source the reply from the interface transmitting it —
      // the origin of third-party addresses (§4 challenge 2).
      if (auto out = egress_iface_to_vp(router)) {
        return net_.iface(*out).addr;
      }
      break;
    }
    case topo::ReplyAddrPolicy::kVirtualRouter: {
      // The virtual router that would have forwarded the probe replies
      // with its own interface (§4 challenge 4).
      if (auto out = fib_.egress_iface(router, dst_query)) {
        return net_.iface(*out).addr;
      }
      break;
    }
    case topo::ReplyAddrPolicy::kIngress:
      break;
  }
  if (ingress.valid()) return net_.iface(ingress).addr;
  // First hop (no modelled VP-facing link): real gateways answer from a
  // LAN/internal interface, not an interdomain one — prefer the lowest
  // internal-link address over the canonical address, which could be a
  // neighbor-supplied point-to-point address.
  Ipv4Addr best;
  bool found = false;
  for (net::IfaceId i : net_.router(router).ifaces) {
    const auto& iface = net_.iface(i);
    if (net_.link(iface.link).kind != topo::LinkKind::kInternal) continue;
    if (!found || iface.addr < best) {
      best = iface.addr;
      found = true;
    }
  }
  return found ? best : net_.canonical_addr(router);
}

Ipv4Addr TracerouteEngine::maybe_spoof(Ipv4Addr real, Ipv4Addr probe_dst,
                                       int ttl) const {
  if (config_.spoof_reply_p <= 0.0 ||
      net::unit_draw(draw(probe_dst, ttl, Draw::kSpoof)) >=
          config_.spoof_reply_p) {
    return real;
  }
  // Forge a host address inside the destination's /24 (.1 to .254): the
  // reply appears to originate in the destination network even though the
  // true replier sits mid-path (TraceHop::truth_router still records
  // reality).
  const std::uint64_t host = 1 + draw(probe_dst, ttl, Draw::kSpoofHost) % 254;
  return Ipv4Addr((probe_dst.value() & 0xffffff00u) |
                  static_cast<std::uint32_t>(host));
}

const std::vector<TracerouteEngine::PathHop>& TracerouteEngine::walk(
    const route::Fib::RouteQuery& q) const {
  path_.clear();
  RouterId cur = vp_.attach_router;
  IfaceId ingress;
  bool entered = false;  // the last hop crossed an interdomain link
  // BDRMAP_HOT_BEGIN(probe_walk) — BDR104: one hop per pass; pure FIB
  // reads into the reused path_, no node containers.
  for (int step = 0; step < kMaxTtl; ++step) {
    PathHop node;
    node.router = cur;
    node.ingress = ingress;
    node.is_delivery = fib_.delivered_at(cur, q);
    if (node.is_delivery) node.dst_is_own_addr = fib_.addr_owned_by(cur, q);
    // Enterprise edge filtering: the border answers for itself but drops
    // probes transiting into the network (§4 challenge 3).
    node.firewalled = entered && net_.router(cur).behavior.firewall_edge &&
                      !node.dst_is_own_addr;
    path_.push_back(node);
    if (node.is_delivery || node.firewalled || step + 1 >= kMaxTtl) break;
    auto hop = fib_.next_hop(cur, q);
    if (!hop) break;  // no route
    entered = hop->crossed_interdomain;
    cur = hop->router;
    ingress = hop->ingress;
  }
  // BDRMAP_HOT_END(probe_walk)
  if (footprint_) {
    for (const PathHop& hop : path_) note_key(fib_.tier_key(hop.router, q));
    if (const auto key = fib_.query_key(q)) note_key(*key);
  }
  return path_;
}

void TracerouteEngine::addr_footprint(Ipv4Addr addr,
                                      std::vector<std::uint64_t>& out) {
  const auto iface = net_.iface_at(addr);
  if (!iface) return;
  const RouterId owner = net_.iface(*iface).router;
  const route::Fib::RouteQuery q = fib_.query(addr);
  // The walk reaches_addr would make, memoized for the probes of `addr`.
  reach_cache_.insert(addr.value(), reaches(owner, q));
  for (const PathHop& hop : path_) out.push_back(fib_.tier_key(hop.router, q));
  out.push_back(fib_.tier_key(owner, vp_query_));
  if (const auto key = fib_.query_key(q)) out.push_back(*key);
  if (const auto key = fib_.query_key(vp_query_)) out.push_back(*key);
}

TraceResult TracerouteEngine::trace(Ipv4Addr dst, StopFn stop) {
  traces_.inc();
  TraceResult result;
  result.dst = dst;

  // The forward path is walked before any reply is generated; the draws
  // and the stop set act in the reply loop below.
  const route::Fib::RouteQuery q = fib_.query(dst);
  const std::vector<PathHop>& path = walk(q);

  // Generate per-TTL replies along the walked path. Its packets are
  // counted once per trace, so the shared counter is touched once. A
  // trace has at most one hop per walked router plus the end host's, so
  // the hops are allocated once.
  result.hops.reserve(path.size() + 1);
  const std::uint64_t sent_before = probes_sent_;
  int gap = 0;
  // BDRMAP_HOT_BEGIN(trace_replies) — BDR104: one reply per walked hop
  // into the reserved hops; the stop set is a non-owning StopFn.
  for (std::size_t i = 0; i < path.size(); ++i) {
    const PathHop& node = path[i];
    const int ttl = static_cast<int>(i) + 1;
    ++probes_sent_;
    const auto& router = net_.router(node.router);
    TraceHop hop;
    hop.truth_router = node.router;

    if (node.is_delivery && node.dst_is_own_addr) {
      // The destination is the router itself: an echo reply whose source is
      // the probed address (§4: useless for ownership inference).
      if (router.behavior.responds_echo &&
          !chance(dst, ttl, router.behavior.rate_limit_drop)) {
        hop.addr = dst;
        hop.kind = ReplyKind::kEchoReply;
        result.reached_dst = true;
      }
      result.hops.push_back(hop);
      break;
    }

    if (node.is_delivery) {
      // A host prefix attaches here: the probe whose TTL expires at this
      // router still elicits a normal time-exceeded reply (this is how the
      // customer's border appears in traceroute at all); the next TTL
      // reaches the end host, which may answer.
      if (router.behavior.sends_ttl_expired &&
          !chance(dst, ttl, router.behavior.rate_limit_drop)) {
        hop.addr =
            maybe_spoof(reply_source(node.router, node.ingress, q), dst, ttl);
        hop.kind = ReplyKind::kTimeExceeded;
      }
      ++probes_sent_;  // the extra host-directed probe
      result.hops.push_back(hop);
      if (hop.kind != ReplyKind::kNone && stop && stop(hop.addr)) {
        result.stopped_by_stopset = true;
        break;
      }
      TraceHop host_hop;
      host_hop.truth_router = node.router;
      const auto* ap = net_.announced_match(dst);
      // The end host answers the next TTL's probe.
      if (!node.firewalled && ap &&
          chance(dst, ttl + 1, ap->dest_responsiveness)) {
        host_hop.addr = dst;
        host_hop.kind = ReplyKind::kEchoReply;
        result.reached_dst = true;
      }
      result.hops.push_back(host_hop);
      break;
    }

    // Intermediate hop: ICMP time exceeded, maybe.
    if (router.behavior.sends_ttl_expired &&
        !chance(dst, ttl, router.behavior.rate_limit_drop)) {
      hop.addr =
          maybe_spoof(reply_source(node.router, node.ingress, q), dst, ttl);
      hop.kind = ReplyKind::kTimeExceeded;
    }
    result.hops.push_back(hop);

    if (hop.kind == ReplyKind::kNone) {
      if (++gap >= config_.gap_limit) break;
    } else {
      gap = 0;
      if (stop && stop(hop.addr)) {
        result.stopped_by_stopset = true;
        break;
      }
    }
  }
  // BDRMAP_HOT_END(trace_replies)
  trace_packets_.inc(probes_sent_ - sent_before);
  return result;
}

bool TracerouteEngine::reaches(RouterId router,
                               const route::Fib::RouteQuery& q) const {
  // The probe reaches `router` iff its walk terminates there as an
  // unfirewalled delivery (edge filters still permit traffic to the
  // border's own addresses, which the walk's firewalled flag exempts).
  const std::vector<PathHop>& path = walk(q);
  if (path.empty()) return false;
  const PathHop& last = path.back();
  return last.is_delivery && !last.firewalled && last.router == router;
}

bool TracerouteEngine::reaches_addr(Ipv4Addr addr) const {
  if (const bool* known = reach_cache_.find(addr.value())) return *known;
  bool ok = false;
  if (auto iface = net_.iface_at(addr)) {
    ok = reaches(net_.iface(*iface).router, fib_.query(addr));
  } else if (const auto* ap = net_.announced_match(addr)) {
    ok = reaches(ap->host_router, fib_.query(addr));
  }
  return reach_cache_.insert(addr.value(), ok);
}

}  // namespace bdrmap::probe
