// Per-router response behaviour model.
//
// §4 of the paper catalogs seven reasons the obvious IP-AS inference fails;
// almost all of them are *router implementation and configuration* details.
// Every such detail is an explicit, independently switchable field here so
// (a) the generator can draw realistic mixtures, and (b) unit tests can
// construct a router exhibiting exactly one idiosyncrasy at a time.
#pragma once

#include <cstdint>

namespace bdrmap::topo {

// How the router assigns IP-ID values to the packets it originates.
// Determines which alias-resolution techniques can see it (§5.3).
enum class IpidKind : std::uint8_t {
  kSharedCounter,  // one central counter — Ally/MIDAR resolvable
  kPerInterface,   // independent counter per interface — not Ally resolvable
  kRandom,         // randomized IP-ID — not resolvable, can false-positive
  kZero,           // always zero (common on modern Linux) — unresolvable
};

// Which source address the router puts on an ICMP time-exceeded reply.
enum class ReplyAddrPolicy : std::uint8_t {
  kIngress,      // address of the interface the probe arrived on (common,
                 // and what §5.3 relies on for time-exceeded messages)
  kEgressToSrc,  // address of the interface used to transmit the reply,
                 // per the IETF advice in [4] — source of third-party
                 // addresses (§4 challenge 2)
  kVirtualRouter,  // address of the virtual router that would have forwarded
                   // the probe onward (§4 challenge 4)
};

struct RouterBehavior {
  // ICMP time-exceeded generation. When false the router never appears as an
  // intermediate traceroute hop (§5.4.8 "silent" routers).
  bool sends_ttl_expired = true;

  // Replies to ICMP echo requests addressed to its own interfaces.
  bool responds_echo = true;

  // Replies to UDP probes to unused ports with ICMP port-unreachable whose
  // source is a canonical address — the Mercator alias technique (§5.3).
  bool responds_udp = true;

  // Enterprise edge filtering: the router itself answers probes whose TTL
  // expires at it, but silently discards packets that would transit onward
  // into its network (§4 challenge 3, router R5 in Figure 1).
  bool firewall_edge = false;

  ReplyAddrPolicy reply_addr = ReplyAddrPolicy::kIngress;

  IpidKind ipid = IpidKind::kSharedCounter;
  // Background IP-ID consumption in increments/second (traffic the router
  // sources besides our probes). Drives MIDAR/Ally velocity modelling.
  double ipid_velocity = 20.0;
  // Initial counter value (randomized by the generator).
  std::uint16_t ipid_init = 0;

  // Probability an individual probe response is suppressed (ICMP rate
  // limiting). Distinguished from silent routers in §5.4.8.
  double rate_limit_drop = 0.0;

  // Completely unresponsive to every probe type (R6 in Figure 1).
  bool silent() const {
    return !sends_ttl_expired && !responds_echo && !responds_udp;
  }
  void make_silent() {
    sends_ttl_expired = false;
    responds_echo = false;
    responds_udp = false;
  }
};

}  // namespace bdrmap::topo
