// Synthetic Internet generator.
//
// Produces a ground-truth topo::Internet exhibiting every phenomenon the
// bdrmap heuristics exist to handle (§4 challenges 1-7, §5.5 limitations):
// provider-assigned interconnection addressing, third-party reply sources,
// edge firewalls, silent and echo-only routers, virtual routers, sibling
// organizations, IXP fabrics with inconsistently-originated LANs, MOAS
// prefixes, unannounced infrastructure space, and PA space on customer
// routers. All draws come from a single seed, so a (seed, config) pair is
// fully reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netbase/rng.h"
#include "topo/internet.h"

namespace bdrmap::topo {

// A vantage point: a measurement host inside some AS, attached to one of
// its routers with an address from the AS's space.
struct Vp {
  AsId as;
  RouterId attach_router;
  Ipv4Addr addr;
  std::uint32_t pop = 0;
};

struct GeneratorConfig {
  std::uint64_t seed = 1;

  // --- AS population ---
  std::size_t num_tier1 = 8;
  std::size_t num_transit = 40;
  std::size_t num_access = 12;
  std::size_t num_content = 14;
  std::size_t num_research_edu = 6;
  std::size_t num_enterprise = 260;
  std::size_t num_ixps = 5;

  // --- featured networks (see DESIGN.md experiment index) ---
  // PoP count of the featured (first) access network; 19 matches the §6
  // deployment. Smaller values model the §5.6 "small access network".
  std::size_t featured_access_pops = 19;
  // Enterprise-provider selection weight for the first R&E network, so the
  // §5.6 R&E validation scenario has a realistic customer count (~30).
  double featured_ren_customer_weight = 0.8;

  // --- multihoming / peering density ---
  double enterprise_multihome_p = 0.35;  // second provider for a stub
  double transit_peering_p = 0.25;       // p2p between transit pairs
  double content_peers_access_p = 0.8;   // CDN peers directly with access
  double ixp_member_p = 0.35;            // transit/content joins a given IXP
  double ixp_peering_p = 0.5;            // members peer via route server

  // --- IXP directory record quality (PeeringDB/PCH analogue) ---
  // Defaults reproduce real-world noise levels; adversarial scenario
  // families crank them up to model hidden route-server peers (§4 ch. 6).
  double ixp_missing_record_p = 0.07;  // membership row absent entirely
  double ixp_stale_record_p = 0.03;    // row present, wrong fabric address

  // --- behaviour mixtures (per router unless noted) ---
  double p_enterprise_firewall = 0.72;  // edge filtering at stub borders
  double p_silent = 0.04;               // no ICMP at all
  double p_echo_only = 0.025;           // no time-exceeded, echo ok (§5.4.8)
  double p_egress_reply = 0.07;         // reply from iface toward probe src
  double p_virtual_router = 0.03;       // per-neighbor reply addresses
  double p_udp_responsive = 0.6;        // Mercator works
  double ipid_shared = 0.5;             // Ally/MIDAR resolvable
  double ipid_per_iface = 0.2;
  double ipid_random = 0.15;            // remainder: zero IP-ID
  double rate_limit_max = 0.15;         // uniform [0, max) drop probability

  // --- addressing pathologies ---
  double p_unrouted_infra = 0.10;  // AS never announces its infra block
  double p_pa_infra = 0.08;        // stub numbers internals from provider
  double p_moas_prefix = 0.03;     // prefix co-originated by a sibling
  double p_sibling_org = 0.10;     // AS gets folded into a multi-AS org

  // --- prefix / destination properties ---
  std::size_t host_prefixes_min = 1;
  std::size_t host_prefixes_max = 4;
  double dest_responsiveness_enterprise = 0.15;
  double dest_responsiveness_default = 0.45;

  // Use /31 (vs /30) subnets on interdomain links with this probability.
  double p_slash31 = 0.35;

  // --- reverse DNS realism (§5.1's validation caveats) ---
  double dns_stale_city_p = 0.03;  // name carries the wrong location code
  double dns_org_only_p = 0.2;     // name has an org label but no AS number
};

struct GeneratedInternet {
  Internet net;
  std::vector<Vp> vps;  // one per access-network PoP plus one per R&E AS
};

// Builds the Internet described by `config`.
GeneratedInternet generate(const GeneratorConfig& config);

}  // namespace bdrmap::topo
