#include "probe/tracer.h"

namespace bdrmap::probe {

using net::IfaceId;
using net::RouterId;

TracerouteEngine::TracerouteEngine(const topo::Internet& net,
                                   const route::Fib& fib, topo::Vp vp,
                                   std::uint64_t seed, TracerConfig config)
    : net_(net), fib_(fib), vp_(vp), rng_(seed), config_(config),
      vp_query_(fib.query(vp.addr)) {
  if (config_.metrics) {
    traces_ = config_.metrics->counter("probe.traces");
    trace_packets_ = config_.metrics->counter("probe.trace_packets");
    pings_ = config_.metrics->counter("probe.pings");
    timestamp_probes_ = config_.metrics->counter("probe.timestamp_probes");
  }
}

std::optional<IfaceId> TracerouteEngine::egress_iface_to_vp(
    RouterId router) const {
  // A stack outlives a slice, so a memo hit still reads this decision.
  if (footprint_) note_key(fib_.tier_key(router, vp_query_));
  auto it = vp_egress_cache_.find(router.value);
  if (it == vp_egress_cache_.end()) {
    auto out = fib_.egress_iface(router, vp_query_);
    it = vp_egress_cache_.emplace(router.value, out.value_or(IfaceId{}))
             .first;
  }
  if (!it->second.valid()) return std::nullopt;
  return it->second;
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

Ipv4Addr TracerouteEngine::maybe_spoof(Ipv4Addr real, Ipv4Addr probe_dst) {
  // Guard on p > 0 before drawing so the honest configuration consumes no
  // RNG state (bit-identical traces for every pre-existing seed).
  if (config_.spoof_reply_p <= 0.0 || !rng_.chance(config_.spoof_reply_p)) {
    return real;
  }
  // Forge a host address inside the destination's /24: the reply appears
  // to originate in the destination network even though the true replier
  // sits mid-path (TraceHop::truth_router still records reality).
  std::uint32_t host = rng_.uniform(1, 254);
  return Ipv4Addr((probe_dst.value() & 0xffffff00u) | host);
}

void TracerouteEngine::reseed(std::uint64_t seed) {
  rng_ = net::Rng(seed);
  probes_sent_ = 0;
}

const std::vector<TracerouteEngine::PathHop>& TracerouteEngine::walk(
    const route::Fib::RouteQuery& q, std::uint32_t flow_salt,
    int limit) const {
  path_.clear();
  RouterId cur = vp_.attach_router;
  IfaceId ingress;
  bool entered = false;  // the last hop crossed an interdomain link
  // BDRMAP_HOT_BEGIN(probe_walk) — BDR104: one hop per pass; pure FIB
  // reads into the reused path_, no node containers.
  for (int step = 0; step < limit; ++step) {
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
    if (node.is_delivery || node.firewalled || step + 1 >= limit) break;
    auto hop = fib_.next_hop(cur, q, flow_salt);
    if (!hop) break;  // no route
    entered = hop->crossed_interdomain;
    cur = hop->router;
    ingress = hop->ingress;
  }
  // BDRMAP_HOT_END(probe_walk)
  if (footprint_) {
    for (const PathHop& hop : path_) note_key(fib_.tier_key(hop.router, q));
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
  reach_cache_.emplace(addr.value(), reaches(owner, q));
  for (const PathHop& hop : path_) out.push_back(fib_.tier_key(hop.router, q));
  out.push_back(fib_.tier_key(owner, vp_query_));
}

TraceResult TracerouteEngine::trace(Ipv4Addr dst, const StopFn& stop) {
  traces_.inc();
  TraceResult result;
  result.dst = dst;

  // The forward path is walked before any reply is generated; all
  // RNG/stop-set consumption happens in the reply loop below.
  const route::Fib::RouteQuery q = fib_.query(dst);
  const std::vector<PathHop>* path = &classic_path_;
  if (config_.paris) {
    path = &walk(q, 0, config_.max_ttl);
  } else {
    // Classic traceroute: each TTL's probe hashes to its own ECMP choice;
    // the recorded "path" is hop k of the salt-k walk — which may splice
    // different true paths together (the [2] artifact). Every per-TTL
    // walk shares the one RouteQuery resolution.
    classic_path_.clear();
    for (int ttl = 1; ttl <= config_.max_ttl; ++ttl) {
      const std::vector<PathHop>& probe_path =
          walk(q, static_cast<std::uint32_t>(ttl), ttl);
      const PathHop& last = probe_path.back();
      classic_path_.push_back(last);
      if (static_cast<int>(probe_path.size()) < ttl) {
        // The salt-ttl walk ended early (delivery/firewall/no route):
        // its terminal node is recorded and probing stops.
        break;
      }
      if (last.is_delivery || last.firewalled) break;
    }
  }

  // Generate per-TTL replies along the walked path.
  int gap = 0;
  for (const PathHop& node : *path) {
    ++probes_sent_;
    trace_packets_.inc();
    const auto& router = net_.router(node.router);
    TraceHop hop;
    hop.truth_router = node.router;

    if (node.is_delivery && node.dst_is_own_addr) {
      // The destination is the router itself: an echo reply whose source is
      // the probed address (§4: useless for ownership inference).
      if (router.behavior.responds_echo &&
          !rng_.chance(router.behavior.rate_limit_drop)) {
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
          !rng_.chance(router.behavior.rate_limit_drop)) {
        hop.addr = maybe_spoof(reply_source(node.router, node.ingress, q), dst);
        hop.kind = ReplyKind::kTimeExceeded;
      }
      ++probes_sent_;  // the extra host-directed probe
      trace_packets_.inc();
      result.hops.push_back(hop);
      if (hop.kind != ReplyKind::kNone && stop && stop(hop.addr)) {
        result.stopped_by_stopset = true;
        break;
      }
      TraceHop host_hop;
      host_hop.truth_router = node.router;
      const auto* ap = net_.announced_match(dst);
      if (!node.firewalled && ap && rng_.chance(ap->dest_responsiveness)) {
        host_hop.addr = dst;
        host_hop.kind = ReplyKind::kEchoReply;
        result.reached_dst = true;
      }
      result.hops.push_back(host_hop);
      break;
    }

    // Intermediate hop: ICMP time exceeded, maybe.
    if (router.behavior.sends_ttl_expired &&
        !rng_.chance(router.behavior.rate_limit_drop)) {
      hop.addr = maybe_spoof(reply_source(node.router, node.ingress, q), dst);
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
  return result;
}

bool TracerouteEngine::reaches(RouterId router,
                               const route::Fib::RouteQuery& q) const {
  // The probe reaches `router` iff its walk terminates there as an
  // unfirewalled delivery (edge filters still permit traffic to the
  // border's own addresses, which the walk's firewalled flag exempts).
  const std::vector<PathHop>& path = walk(q, 0, config_.max_ttl);
  if (path.empty()) return false;
  const PathHop& last = path.back();
  return last.is_delivery && !last.firewalled && last.router == router;
}

bool TracerouteEngine::reaches_addr(Ipv4Addr addr) const {
  auto it = reach_cache_.find(addr.value());
  if (it != reach_cache_.end()) return it->second;
  bool ok = false;
  if (auto iface = net_.iface_at(addr)) {
    ok = reaches(net_.iface(*iface).router, fib_.query(addr));
  } else if (const auto* ap = net_.announced_match(addr)) {
    ok = reaches(ap->host_router, fib_.query(addr));
  }
  reach_cache_.emplace(addr.value(), ok);
  return ok;
}

std::optional<bool> TracerouteEngine::timestamp_probe(Ipv4Addr path_dst,
                                                      Ipv4Addr candidate) {
  ++probes_sent_;
  timestamp_probes_.inc();
  auto cand_iface = net_.iface_at(candidate);
  if (!cand_iface) return std::nullopt;  // not a router interface at all
  const auto& cand_router = net_.router(net_.iface(*cand_iface).router);
  if (!cand_router.behavior.honors_timestamp) return std::nullopt;

  // Walk the forward path; the candidate stamps iff it is the ingress
  // interface of some hop (the semantics [26] exploits: a router stamps
  // with the address of the interface the packet arrived on).
  bool delivered = false;
  bool stamped = false;
  for (const PathHop& node : walk(fib_.query(path_dst), 0, config_.max_ttl)) {
    if (node.ingress.valid() && net_.iface(node.ingress).addr == candidate) {
      stamped = true;
    }
    if (node.is_delivery) {
      delivered = true;
      break;
    }
  }
  if (stamped) return true;
  // Negative evidence only if the probe actually completed its journey.
  if (delivered) return false;
  return std::nullopt;
}

std::optional<ReplyKind> TracerouteEngine::ping(Ipv4Addr addr) {
  ++probes_sent_;
  pings_.inc();
  auto iface = net_.iface_at(addr);
  if (iface) {
    RouterId owner = net_.iface(*iface).router;
    if (!reaches(owner, fib_.query(addr))) return std::nullopt;
    const auto& behavior = net_.router(owner).behavior;
    if (!behavior.responds_echo || rng_.chance(behavior.rate_limit_drop)) {
      return std::nullopt;
    }
    return ReplyKind::kEchoReply;
  }
  const auto* ap = net_.announced_match(addr);
  if (!ap) return std::nullopt;
  if (!reaches(ap->host_router, fib_.query(addr))) return std::nullopt;
  if (!rng_.chance(ap->dest_responsiveness)) return std::nullopt;
  return ReplyKind::kEchoReply;
}

}  // namespace bdrmap::probe
