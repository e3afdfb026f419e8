#include "topo/generator.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace bdrmap::topo {

namespace {

using net::Rng;

// ---------------------------------------------------------------------------
// Address allocation
// ---------------------------------------------------------------------------

// Hands out disjoint CIDR blocks from a linear cursor. All interface
// addresses in the generated Internet descend from blocks handed out here,
// so uniqueness is structural.
class BlockAllocator {
 public:
  explicit BlockAllocator(Ipv4Addr start) : cursor_(start.value()) {}

  Prefix allocate(std::uint8_t len) {
    std::uint64_t size = std::uint64_t{1} << (32 - len);
    // Align the cursor to the block size.
    std::uint64_t aligned = (cursor_ + size - 1) & ~(size - 1);
    if (aligned + size > (std::uint64_t{1} << 32)) {
      throw std::logic_error("address space exhausted");
    }
    cursor_ = aligned + size;
    return Prefix(Ipv4Addr(static_cast<std::uint32_t>(aligned)), len);
  }

 private:
  std::uint64_t cursor_;
};

// Allocates point-to-point subnets and single addresses from an AS's
// infrastructure block.
class InfraPool {
 public:
  InfraPool() = default;
  explicit InfraPool(Prefix block)
      : block_(block), cursor_(block.first().value()), valid_(true) {}

  Prefix block() const { return block_; }

  // A /30 or /31 subnet for a link.
  Prefix allocate_subnet(std::uint8_t len) {
    std::uint64_t size = std::uint64_t{1} << (32 - len);
    std::uint64_t aligned = (cursor_ + size - 1) & ~(size - 1);
    if (aligned + size > std::uint64_t{block_.last().value()} + 1) {
      throw std::logic_error("infra pool exhausted for " + block_.str());
    }
    cursor_ = aligned + size;
    return Prefix(Ipv4Addr(static_cast<std::uint32_t>(aligned)), len);
  }

  bool valid() const { return valid_; }

 private:
  Prefix block_;
  std::uint64_t cursor_ = 0;
  bool valid_ = false;
};

// The two usable host addresses of a p2p subnet.
std::pair<Ipv4Addr, Ipv4Addr> p2p_addrs(const Prefix& subnet) {
  if (subnet.length() == 31) {
    return {subnet.first(), Ipv4Addr(subnet.first().value() + 1)};
  }
  return {Ipv4Addr(subnet.first().value() + 1),
          Ipv4Addr(subnet.first().value() + 2)};
}

// ---------------------------------------------------------------------------
// PoPs
// ---------------------------------------------------------------------------

const std::vector<Pop>& pops_impl() {
  static const std::vector<Pop> pops = {
      {"Seattle", -122.3, 47.6},      {"Portland", -122.7, 45.5},
      {"SanFrancisco", -122.4, 37.8}, {"SanJose", -121.9, 37.3},
      {"LosAngeles", -118.2, 34.1},   {"SanDiego", -117.2, 32.7},
      {"LasVegas", -115.1, 36.2},     {"Phoenix", -112.1, 33.4},
      {"SaltLakeCity", -111.9, 40.8}, {"Denver", -105.0, 39.7},
      {"Albuquerque", -106.6, 35.1},  {"Dallas", -96.8, 32.8},
      {"Houston", -95.4, 29.8},       {"KansasCity", -94.6, 39.1},
      {"Minneapolis", -93.3, 45.0},   {"Chicago", -87.6, 41.9},
      {"StLouis", -90.2, 38.6},       {"Nashville", -86.8, 36.2},
      {"Atlanta", -84.4, 33.7},       {"Miami", -80.2, 25.8},
      {"Charlotte", -80.8, 35.2},     {"WashingtonDC", -77.0, 38.9},
      {"Philadelphia", -75.2, 39.9},  {"NewYork", -74.0, 40.7},
      {"Boston", -71.1, 42.4},        {"Ashburn", -77.5, 39.0},
  };
  return pops;
}

double pop_distance(const Pop& a, const Pop& b) {
  double dx = a.longitude - b.longitude;
  double dy = a.latitude - b.latitude;
  return std::sqrt(dx * dx + dy * dy);
}

// ---------------------------------------------------------------------------
// Generator state
// ---------------------------------------------------------------------------

struct AsPlan {
  AsId id;
  AsKind kind;
  Prefix block;
  InfraPool infra;
  bool unrouted_infra = false;  // infra block never announced
  bool pa_infra = false;        // infra comes from a provider's pool
  AsId pa_provider;             // which provider supplies PA space
  std::vector<std::uint32_t> pops;
  // router at pops[i]; "core" carries internal topology. Large ASes have
  // one core per PoP; the featured access net adds a border per PoP.
  std::vector<RouterId> core;
  std::vector<RouterId> border;  // parallel to core; may equal core
  std::uint64_t host_cursor_from_end = 16;  // VP/host address allocation
};

struct PlannedPeering {
  AsId a, b;
  asdata::Relationship rel_ab;  // relationship of b from a's viewpoint
  bool via_ixp = false;
  std::size_t ixp = 0;
};

class Generator {
 public:
  Generator(const GeneratorConfig& config)
      : config_(config),
        rng_(config.seed),
        behavior_rng_(rng_.fork()),
        addr_alloc_(Ipv4Addr::of(1, 0, 0, 0)) {}

  GeneratedInternet run();

 private:
  void create_pops();
  void create_ases();
  void allocate_addressing();
  void create_relationships();
  void create_routers();
  void create_internal_links();
  void create_interdomain_links();
  void create_ixps();
  void create_announcements();
  void create_dns();
  void create_vps();

  AsPlan& plan(AsId as) { return plans_.at(plan_index_.at(as)); }
  const AsPlan& plan(AsId as) const { return plans_.at(plan_index_.at(as)); }

  RouterBehavior draw_behavior(AsKind kind, bool border);
  std::uint32_t nearest_pop_index(const AsPlan& p, std::uint32_t pop) const;
  void add_interdomain_link(AsId a, AsId b, asdata::Relationship rel_ab,
                            std::uint32_t pop_a, std::uint32_t pop_b,
                            bool use_core_a = false, bool use_core_b = false);
  InfraPool& supplier_pool(AsId a, AsId b, asdata::Relationship rel_ab,
                           AsId* supplier);
  Ipv4Addr host_addr(AsPlan& p);

  const GeneratorConfig& config_;
  Rng rng_;
  Rng behavior_rng_;
  BlockAllocator addr_alloc_;
  Internet net_;
  std::vector<AsPlan> plans_;
  std::unordered_map<AsId, std::size_t> plan_index_;
  std::vector<PlannedPeering> peerings_;
  std::vector<Vp> vps_;
  std::uint32_t next_org_ = 1;

  // Featured networks (see DESIGN.md experiment index).
  AsId featured_access_;   // the "large U.S. access network" of §6
  AsId level3_like_;       // Tier-1 peer with ~45 links (hot potato)
  AsId akamai_like_;       // CDN with per-link selective announcement
  AsId google_like_;       // CDN with coastal interconnects only
};

GeneratedInternet Generator::run() {
  create_pops();
  create_ases();
  allocate_addressing();
  create_relationships();
  create_routers();
  create_internal_links();
  create_interdomain_links();
  create_ixps();
  create_announcements();
  create_dns();
  create_vps();
  return GeneratedInternet{std::move(net_), std::move(vps_)};
}

void Generator::create_pops() {
  for (const Pop& p : pops_impl()) net_.add_pop(p);
}

// ---------------------------------------------------------------------------
// AS population
// ---------------------------------------------------------------------------

void Generator::create_ases() {
  auto make = [&](AsKind kind, const std::string& name_prefix,
                  std::size_t count, std::vector<AsId>& out) {
    for (std::size_t i = 0; i < count; ++i) {
      OrgId org;
      // Occasionally fold an AS into an existing organization of the same
      // kind, producing sibling ASes (§4 challenge 5).
      if (!out.empty() && rng_.chance(config_.p_sibling_org)) {
        org = net_.sibling_table().org_of(rng_.pick(out));
      } else {
        org = OrgId(next_org_++);
      }
      AsId as = net_.add_as(kind, org, name_prefix + std::to_string(i + 1));
      AsPlan p;
      p.id = as;
      p.kind = kind;
      plan_index_.emplace(as, plans_.size());
      plans_.push_back(std::move(p));
      out.push_back(as);
    }
  };

  std::vector<AsId> tier1, transit, access, content, research, enterprise;
  make(AsKind::kTier1, "Tier1-", config_.num_tier1, tier1);
  make(AsKind::kTransit, "Transit-", config_.num_transit, transit);
  make(AsKind::kAccess, "Access-", config_.num_access, access);
  make(AsKind::kContent, "CDN-", config_.num_content, content);
  make(AsKind::kResearchEdu, "REN-", config_.num_research_edu, research);
  make(AsKind::kEnterprise, "Ent-", config_.num_enterprise, enterprise);

  featured_access_ = access.empty() ? AsId{} : access.front();
  level3_like_ = tier1.empty() ? AsId{} : tier1.front();
  akamai_like_ = content.empty() ? AsId{} : content.front();
  google_like_ = content.size() > 1 ? content[1] : AsId{};

  // PoP footprints.
  const std::size_t total_pops = net_.pops().size();
  auto pick_pops = [&](AsPlan& p, std::size_t count) {
    std::vector<std::uint32_t> all(total_pops);
    for (std::size_t i = 0; i < total_pops; ++i)
      all[i] = static_cast<std::uint32_t>(i);
    rng_.shuffle(all);
    count = std::min(count, total_pops);
    p.pops.assign(all.begin(), all.begin() + static_cast<long>(count));
    // Sort west-to-east so internal rings follow geography.
    std::sort(p.pops.begin(), p.pops.end(), [&](auto a, auto b) {
      return net_.pops()[a].longitude < net_.pops()[b].longitude;
    });
  };

  for (AsPlan& p : plans_) {
    switch (p.kind) {
      case AsKind::kTier1:
        // Tier-1s are everywhere; the Level3-like network especially.
        pick_pops(p, p.id == level3_like_ ? total_pops : total_pops - 4);
        break;
      case AsKind::kTransit:
        pick_pops(p, 3 + rng_.uniform(0, 6));
        break;
      case AsKind::kAccess:
        if (p.id == featured_access_) {
          // Deterministic footprint spanning the US (§6 deploys 19 VPs in
          // the large access network); includes the coastal cities the
          // Google-like CDN interconnects at. Smaller featured networks
          // (the §5.6 small access scenario) keep the coastal anchors and
          // drop interior cities first.
          p.pops.clear();
          static constexpr std::uint32_t kPreferred[] = {
              0, 2, 23, 24, 4, 11, 15, 18, 21, 9, 19, 22, 5, 7, 8,
              12, 14, 16, 6};
          for (std::uint32_t i : kPreferred) {
            if (p.pops.size() >= config_.featured_access_pops) break;
            if (i < total_pops) p.pops.push_back(i);
          }
          std::sort(p.pops.begin(), p.pops.end(), [&](auto a, auto b) {
            return net_.pops()[a].longitude < net_.pops()[b].longitude;
          });
        } else {
          pick_pops(p, 4 + rng_.uniform(0, 5));
        }
        break;
      case AsKind::kContent:
        if (p.id == google_like_) {
          // Coastal presence only: two west + two east PoPs (Figure 16's
          // Google pattern: visibility needs west- and east-coast VPs).
          p.pops = {0, 2, 23, 24};
        } else if (p.id == akamai_like_) {
          // Eight PoPs spread across the US, all shared with the featured
          // access network (Figure 15: one VP sees all Akamai links).
          p.pops = {0, 4, 9, 11, 15, 18, 22, 23};
        } else {
          pick_pops(p, 5 + rng_.uniform(0, 9));
        }
        break;
      case AsKind::kResearchEdu:
        pick_pops(p, 2 + rng_.uniform(0, 2));
        break;
      case AsKind::kEnterprise:
        pick_pops(p, 1);
        break;
      case AsKind::kIxpOperator:
        break;  // created later with their LAN city
    }
  }
}

// ---------------------------------------------------------------------------
// Addressing
// ---------------------------------------------------------------------------

void Generator::allocate_addressing() {
  for (AsPlan& p : plans_) {
    bool big = p.kind == AsKind::kTier1 || p.kind == AsKind::kTransit ||
               p.kind == AsKind::kAccess || p.kind == AsKind::kContent;
    p.block = addr_alloc_.allocate(big ? 16 : 20);
    // RIR registers the whole block to the AS's organization (§5.2).
    net_.rir().add({p.block, net_.sibling_table().org_of(p.id)});

    if (p.kind == AsKind::kEnterprise && rng_.chance(config_.p_pa_infra)) {
      p.pa_infra = true;  // provider pool attached once providers are known
      continue;
    }
    // Infrastructure block at the front of the AS block.
    Prefix infra = big ? Prefix(p.block.first(), 20)
                       : Prefix(p.block.first(), 24);
    p.infra = InfraPool(infra);
    p.unrouted_infra = rng_.chance(config_.p_unrouted_infra);
  }
}

// ---------------------------------------------------------------------------
// Relationships
// ---------------------------------------------------------------------------

void Generator::create_relationships() {
  auto& rels = net_.truth_relationships();
  std::vector<AsId> tier1, transit, access, content, research;
  for (const AsPlan& p : plans_) {
    switch (p.kind) {
      case AsKind::kTier1: tier1.push_back(p.id); break;
      case AsKind::kTransit: transit.push_back(p.id); break;
      case AsKind::kAccess: access.push_back(p.id); break;
      case AsKind::kContent: content.push_back(p.id); break;
      case AsKind::kResearchEdu: research.push_back(p.id); break;
      default: break;
    }
  }

  auto plan_private = [&](AsId a, AsId b, asdata::Relationship rel_ab) {
    if (rels.rel(a, b) != asdata::Relationship::kNone) return false;
    if (rel_ab == asdata::Relationship::kPeer) {
      rels.add_p2p(a, b);
    } else if (rel_ab == asdata::Relationship::kCustomer) {
      rels.add_c2p(b, a);  // b is customer of a
    } else {
      rels.add_c2p(a, b);  // a is customer of b
    }
    peerings_.push_back({a, b, rel_ab, false, 0});
    return true;
  };

  // Tier-1 clique: full mesh of p2p.
  for (std::size_t i = 0; i < tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < tier1.size(); ++j) {
      plan_private(tier1[i], tier1[j], asdata::Relationship::kPeer);
    }
  }

  // Transit networks: 1-2 tier-1 providers, occasional transit-transit
  // peering and secondary transit provider.
  for (AsId t : transit) {
    plan_private(t, rng_.pick(tier1), asdata::Relationship::kProvider);
    // Most transit networks dual-home to the clique: prefixes below them
    // are then reachable at equal preference via two Tier-1s, which is
    // what lets hot potato vary the next-hop AS by VP (Figure 14's 33%).
    if (rng_.chance(0.8)) {
      plan_private(t, rng_.pick(tier1), asdata::Relationship::kProvider);
    }
    for (AsId u : transit) {
      if (u < t && rng_.chance(config_.transit_peering_p)) {
        plan_private(t, u, asdata::Relationship::kPeer);
      }
    }
  }

  // Access networks: 1-2 transit/tier-1 providers, p2p with several
  // tier-1s (the paper's access network peers with Tier-1s, §6).
  for (AsId a : access) {
    AsId provider = rng_.pick(tier1);
    if (a == featured_access_) {
      // Keep the Level3-like Tier-1 a settlement-free *peer* of the
      // featured access network, as in §6.
      while (provider == level3_like_ && tier1.size() > 1) {
        provider = rng_.pick(tier1);
      }
    }
    plan_private(a, provider, asdata::Relationship::kProvider);
    if (rng_.chance(0.6)) {
      plan_private(a, rng_.pick(transit), asdata::Relationship::kProvider);
    }
    if (a == featured_access_) {
      // A large eyeball network peers with the whole clique (§6's access
      // network peers with Tier-1s); the Level3-like member is forced.
      for (AsId t : tier1) {
        plan_private(a, t, asdata::Relationship::kPeer);
      }
    } else {
      std::size_t peers = 1 + rng_.uniform(0, 2);
      for (std::size_t i = 0; i < peers; ++i) {
        plan_private(a, rng_.pick(tier1), asdata::Relationship::kPeer);
      }
    }
    for (AsId t : transit) {
      if (rng_.chance(0.08)) plan_private(a, t, asdata::Relationship::kPeer);
    }
  }

  // Content networks: transit providers + direct peering with access.
  for (AsId c : content) {
    plan_private(c, rng_.pick(tier1), asdata::Relationship::kProvider);
    plan_private(c, rng_.pick(transit), asdata::Relationship::kProvider);
    for (AsId a : access) {
      bool marquee = a == featured_access_ &&
                     (c == akamai_like_ || c == google_like_);
      if (marquee || rng_.chance(config_.content_peers_access_p)) {
        plan_private(c, a, asdata::Relationship::kPeer);
      }
    }
  }

  // R&E networks: transit providers plus peering at IXPs (added later).
  for (AsId r : research) {
    plan_private(r, rng_.pick(transit), asdata::Relationship::kProvider);
    if (rng_.chance(0.5)) {
      plan_private(r, rng_.pick(tier1), asdata::Relationship::kProvider);
    }
  }

  // Enterprises: providers drawn with heavy weight on the featured
  // networks so their customer counts resemble Table 1's proportions.
  for (AsPlan& p : plans_) {
    if (p.kind != AsKind::kEnterprise) continue;
    std::vector<AsId> candidates;
    std::vector<double> weights;
    for (AsId t : tier1) {
      candidates.push_back(t);
      weights.push_back(t == level3_like_ ? 30.0 : 4.0);
    }
    for (AsId t : transit) {
      candidates.push_back(t);
      weights.push_back(2.0);
    }
    for (AsId a : access) {
      candidates.push_back(a);
      weights.push_back(a == featured_access_ ? 20.0 : 2.0);
    }
    for (AsId r : research) {
      candidates.push_back(r);
      weights.push_back(r == research.front()
                            ? config_.featured_ren_customer_weight
                            : 0.3);
    }
    AsId provider = candidates[rng_.weighted(weights)];
    plan_private(p.id, provider, asdata::Relationship::kProvider);
    if (p.pa_infra) {
      p.pa_provider = provider;
      p.infra = InfraPool();  // resolved at link creation via provider pool
    }
    if (rng_.chance(config_.enterprise_multihome_p)) {
      AsId second = candidates[rng_.weighted(weights)];
      plan_private(p.id, second, asdata::Relationship::kProvider);
    }
  }

  // Sibling ASes under one org usually interconnect.
  std::map<OrgId, std::vector<AsId>> by_org;
  for (const AsPlan& p : plans_) {
    by_org[net_.sibling_table().org_of(p.id)].push_back(p.id);
  }
  for (auto& [org, members] : by_org) {
    for (std::size_t i = 1; i < members.size(); ++i) {
      plan_private(members[i - 1], members[i], asdata::Relationship::kPeer);
    }
  }
}

// ---------------------------------------------------------------------------
// Routers and behaviour
// ---------------------------------------------------------------------------

RouterBehavior Generator::draw_behavior(AsKind kind, bool border) {
  RouterBehavior b;
  Rng& r = behavior_rng_;

  // IP-ID model (alias-resolution visibility).
  double x = r.uniform_real(0.0, 1.0);
  if (x < config_.ipid_shared) {
    b.ipid = IpidKind::kSharedCounter;
  } else if (x < config_.ipid_shared + config_.ipid_per_iface) {
    b.ipid = IpidKind::kPerInterface;
  } else if (x < config_.ipid_shared + config_.ipid_per_iface +
                     config_.ipid_random) {
    b.ipid = IpidKind::kRandom;
  } else {
    b.ipid = IpidKind::kZero;
  }
  b.ipid_velocity = r.uniform_real(2.0, 120.0);
  b.ipid_init = static_cast<std::uint16_t>(r.uniform(0, 0xffff));
  b.responds_udp = r.chance(config_.p_udp_responsive);
  // The draw a retired IP-timestamp behaviour took: kept so every seed's
  // behaviour stream, and with it every generated topology, stays as it was.
  (void)r.chance(0.2);

  // CDN edge routers answer traceroute reliably (they are measurement
  // infrastructure themselves); only enterprise and R&E gear goes silent.
  bool transit_core = kind == AsKind::kTier1 || kind == AsKind::kTransit ||
                      kind == AsKind::kAccess || kind == AsKind::kContent;
  if (!transit_core) {
    if (r.chance(config_.p_silent)) {
      b.make_silent();
      return b;
    }
    if (r.chance(config_.p_echo_only)) {
      b.sends_ttl_expired = false;  // echo/unreachable only (§5.4.8 case 2)
      return b;
    }
    b.rate_limit_drop = r.uniform_real(0.0, config_.rate_limit_max);
  } else {
    // Transit cores rate-limit mildly; still bounded by the config knob so
    // fully-deterministic topologies (rate_limit_max = 0) stay that way.
    b.rate_limit_drop =
        r.uniform_real(0.0, std::min(config_.rate_limit_max, 0.04));
  }

  if (r.chance(config_.p_egress_reply)) {
    b.reply_addr = ReplyAddrPolicy::kEgressToSrc;
  } else if (border && r.chance(config_.p_virtual_router)) {
    b.reply_addr = ReplyAddrPolicy::kVirtualRouter;
  }
  if (kind == AsKind::kEnterprise && border &&
      r.chance(config_.p_enterprise_firewall)) {
    b.firewall_edge = true;
  }
  return b;
}

void Generator::create_routers() {
  for (AsPlan& p : plans_) {
    if (p.pops.empty()) continue;
    // The featured access network gets a dedicated border router per PoP
    // (so VP-to-border paths traverse internal hops, §5.4.1); its marquee
    // Tier-1 peer gets two routers per PoP so parallel interconnects at a
    // PoP terminate on distinct routers (the paper counts 45 router-level
    // links).
    bool two_routers = p.id == featured_access_ || p.id == level3_like_;
    for (std::uint32_t pop : p.pops) {
      RouterId core =
          net_.add_router(p.id, pop, draw_behavior(p.kind, /*border=*/true));
      p.core.push_back(core);
      if (two_routers) {
        RouterId border = net_.add_router(
            p.id, pop, draw_behavior(p.kind, /*border=*/true));
        p.border.push_back(border);
      } else {
        p.border.push_back(core);
      }
    }
    // Some enterprises have an internal router behind the border (hosts
    // attach there); required for the PA-space error mode of Figure 12.
    if (p.kind == AsKind::kEnterprise &&
        (p.pa_infra || rng_.chance(0.4))) {
      RouterId internal = net_.add_router(
          p.id, p.pops[0], draw_behavior(p.kind, /*border=*/false));
      p.core.push_back(internal);
      p.border.push_back(p.border[0]);  // keep vectors parallel
    }
  }
}

void Generator::create_internal_links() {
  for (AsPlan& p : plans_) {
    // Collect the distinct routers of this AS in creation order.
    const auto& routers = net_.as_info(p.id).routers;
    if (routers.size() < 2) continue;

    InfraPool* pool = p.infra.valid() ? &p.infra : nullptr;
    if (p.pa_infra) pool = &plan(p.pa_provider).infra;
    if (!pool || !pool->valid()) continue;

    auto connect = [&](RouterId a, RouterId b) {
      Prefix subnet = pool->allocate_subnet(31);
      auto [addr_a, addr_b] = p2p_addrs(subnet);
      double cost = pop_distance(net_.pops()[net_.router(a).pop],
                                 net_.pops()[net_.router(b).pop]) +
                    0.1;
      net_.add_link(LinkKind::kInternal, subnet,
                    p.pa_infra ? p.pa_provider : p.id,
                    {{a, addr_a}, {b, addr_b}}, cost);
    };

    // Chain the routers west-to-east (they were created in PoP order),
    // close the ring for larger networks, and add a few chords.
    for (std::size_t i = 1; i < routers.size(); ++i) {
      connect(routers[i - 1], routers[i]);
    }
    if (routers.size() > 3) {
      connect(routers.back(), routers.front());
      std::size_t chords = routers.size() / 5;
      for (std::size_t i = 0; i < chords; ++i) {
        std::size_t a = rng_.uniform(0, static_cast<std::uint32_t>(
                                            routers.size() - 1));
        std::size_t b = rng_.uniform(0, static_cast<std::uint32_t>(
                                            routers.size() - 1));
        if (a != b) connect(routers[a], routers[b]);
      }
    }
    // The featured access network: core<->border at each PoP were created
    // pairwise adjacent in creation order, so the chain above covers them.
  }
}

// ---------------------------------------------------------------------------
// Interdomain links
// ---------------------------------------------------------------------------

std::uint32_t Generator::nearest_pop_index(const AsPlan& p,
                                           std::uint32_t pop) const {
  double best = 1e18;
  std::uint32_t best_index = 0;
  for (std::size_t i = 0; i < p.pops.size(); ++i) {
    double d = pop_distance(net_.pops()[p.pops[i]], net_.pops()[pop]);
    if (d < best) {
      best = d;
      best_index = static_cast<std::uint32_t>(i);
    }
  }
  return best_index;
}

InfraPool& Generator::supplier_pool(AsId a, AsId b,
                                    asdata::Relationship rel_ab,
                                    AsId* supplier) {
  // §4 challenge 1: in c2p the provider supplies the link subnet; for p2p
  // there is no convention, so either side may.
  AsId chosen;
  if (rel_ab == asdata::Relationship::kCustomer) {
    chosen = a;  // a is b's provider
  } else if (rel_ab == asdata::Relationship::kProvider) {
    chosen = b;
  } else {
    chosen = rng_.chance(0.5) ? a : b;
    // PA-infra and pool-less ASes cannot supply; fall back to the other.
    if (!plan(chosen).infra.valid()) chosen = (chosen == a) ? b : a;
  }
  if (!plan(chosen).infra.valid()) chosen = (chosen == a) ? b : a;
  *supplier = chosen;
  return plan(chosen).infra;
}

void Generator::add_interdomain_link(AsId a, AsId b,
                                     asdata::Relationship rel_ab,
                                     std::uint32_t pop_index_a,
                                     std::uint32_t pop_index_b,
                                     bool use_core_a, bool use_core_b) {
  AsPlan& pa = plan(a);
  AsPlan& pb = plan(b);
  RouterId ra = use_core_a ? pa.core[pop_index_a] : pa.border[pop_index_a];
  RouterId rb = use_core_b ? pb.core[pop_index_b] : pb.border[pop_index_b];
  AsId supplier;
  InfraPool& pool = supplier_pool(a, b, rel_ab, &supplier);
  if (!pool.valid()) return;  // neither side can supply address space
  std::uint8_t len = rng_.chance(config_.p_slash31) ? 31 : 30;
  Prefix subnet = pool.allocate_subnet(len);
  auto [addr_1, addr_2] = p2p_addrs(subnet);
  // Convention: the supplier's router takes the first usable address.
  Ipv4Addr addr_a = (supplier == a) ? addr_1 : addr_2;
  Ipv4Addr addr_b = (supplier == a) ? addr_2 : addr_1;
  LinkId link = net_.add_link(LinkKind::kInterdomain, subnet, supplier,
                              {{ra, addr_a}, {rb, addr_b}});
  net_.record_interdomain({link, a, b, ra, rb, /*via_ixp=*/false});
}

void Generator::create_interdomain_links() {
  for (const PlannedPeering& pp : peerings_) {
    AsPlan& pa = plan(pp.a);
    AsPlan& pb = plan(pp.b);
    if (pa.pops.empty() || pb.pops.empty()) continue;

    // Shared PoPs (same city for both networks).
    std::vector<std::pair<std::uint32_t, std::uint32_t>> shared;
    for (std::size_t i = 0; i < pa.pops.size(); ++i) {
      for (std::size_t j = 0; j < pb.pops.size(); ++j) {
        if (pa.pops[i] == pb.pops[j]) {
          shared.emplace_back(static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(j));
        }
      }
    }

    bool featured_pair =
        (pp.a == featured_access_ && pp.b == level3_like_) ||
        (pp.b == featured_access_ && pp.a == level3_like_);
    bool cdn_pair =
        ((pp.a == featured_access_ || pp.b == featured_access_) &&
         (pp.a == akamai_like_ || pp.b == akamai_like_ ||
          pp.a == google_like_ || pp.b == google_like_));

    std::size_t count;
    bool both_big = (pa.kind != AsKind::kEnterprise &&
                     pa.kind != AsKind::kResearchEdu) &&
                    (pb.kind != AsKind::kEnterprise &&
                     pb.kind != AsKind::kResearchEdu);
    if (featured_pair) {
      // Two links per shared PoP plus a third at every third PoP: with 19
      // shared PoPs this yields ~45 router-level links, the count the
      // paper observed between the access network and its Tier-1 peer.
      // Parallel links at a PoP terminate on distinct router pairs; every
      // third PoP adds a cross-PoP backhaul link to the Tier-1's router at
      // the adjacent shared city (all three stay equal-cost from the local
      // VP, so per-destination ECMP exercises each of them).
      for (std::size_t k = 0; k < shared.size(); ++k) {
        auto [i, j] = shared[k];
        add_interdomain_link(pp.a, pp.b, pp.rel_ab, i, j, false, false);
        add_interdomain_link(pp.a, pp.b, pp.rel_ab, i, j, false, true);
        if (k % 3 == 0 && shared.size() > 1) {
          std::uint32_t j2 = shared[(k + 1) % shared.size()].second;
          add_interdomain_link(pp.a, pp.b, pp.rel_ab, i, j2, false, false);
        }
      }
      if (shared.empty()) {
        add_interdomain_link(pp.a, pp.b, pp.rel_ab, 0,
                             nearest_pop_index(pb, pa.pops[0]));
      }
      continue;
    }

    if (cdn_pair) {
      // One link per shared PoP (8 for the Akamai-like CDN, 4 coastal for
      // the Google-like CDN).
      for (auto [i, j] : shared) {
        add_interdomain_link(pp.a, pp.b, pp.rel_ab, i, j);
      }
      if (shared.empty()) {
        add_interdomain_link(pp.a, pp.b, pp.rel_ab, 0,
                             nearest_pop_index(pb, pa.pops[0]));
      }
      continue;
    }

    bool featured_side =
        pp.a == featured_access_ || pp.b == featured_access_;
    if (featured_side && both_big && !shared.empty()) {
      // The measured access network interconnects with its transit
      // providers and large peers at most shared PoPs — the density behind
      // Figure 14's 5-15 distinct border routers per prefix.
      count = std::max<std::size_t>(shared.size() * 3 / 4, 1);
    } else if (both_big && !shared.empty()) {
      count = 1 + rng_.uniform(0, static_cast<std::uint32_t>(
                                      std::min<std::size_t>(shared.size(), 4) -
                                      1));
    } else {
      count = 1;
    }
    for (std::size_t k = 0; k < count; ++k) {
      std::uint32_t ia, ib;
      if (!shared.empty()) {
        auto [si, sj] = shared[k % shared.size()];
        ia = si;
        ib = sj;
      } else {
        ia = rng_.uniform(0, static_cast<std::uint32_t>(pa.pops.size() - 1));
        ib = nearest_pop_index(pb, pa.pops[ia]);
      }
      add_interdomain_link(pp.a, pp.b, pp.rel_ab, ia, ib);
    }

    // §5.4.1 step 1.1: occasionally an enterprise multihomes to the same
    // provider with a second link on an adjacent router.
    if ((pa.kind == AsKind::kEnterprise || pb.kind == AsKind::kEnterprise) &&
        rng_.chance(0.05) && !shared.empty()) {
      auto [si, sj] = shared[0];
      add_interdomain_link(pp.a, pp.b, pp.rel_ab, si, sj);
    }
  }
}

// ---------------------------------------------------------------------------
// IXPs
// ---------------------------------------------------------------------------

void Generator::create_ixps() {
  if (config_.num_ixps == 0) return;
  BlockAllocator ixp_alloc(Ipv4Addr::of(198, 32, 0, 0));
  auto& rels = net_.truth_relationships();

  for (std::size_t x = 0; x < config_.num_ixps; ++x) {
    std::uint32_t city =
        rng_.uniform(0, static_cast<std::uint32_t>(net_.pops().size() - 1));
    OrgId org = OrgId(next_org_++);
    AsId ixp_as =
        net_.add_as(AsKind::kIxpOperator, org, "IXP-" + std::to_string(x + 1));
    AsPlan ip;
    ip.id = ixp_as;
    ip.kind = AsKind::kIxpOperator;
    plan_index_.emplace(ixp_as, plans_.size());
    plans_.push_back(std::move(ip));

    Prefix lan = ixp_alloc.allocate(24);
    net_.rir().add({lan, org});

    // Members: transit / content / access / R&E networks join.
    std::vector<AsId> members;
    for (const AsPlan& p : plans_) {
      if (p.id == ixp_as) continue;
      bool eligible = p.kind == AsKind::kTransit ||
                      p.kind == AsKind::kContent ||
                      p.kind == AsKind::kAccess ||
                      p.kind == AsKind::kResearchEdu;
      if (eligible && !p.core.empty() && rng_.chance(config_.ixp_member_p)) {
        members.push_back(p.id);
      }
    }
    if (members.size() < 2) continue;

    // Build the shared LAN: each member attaches the router nearest the
    // IXP's city; addresses are IXP-owned (§4 challenge 6).
    std::vector<std::pair<RouterId, Ipv4Addr>> ends;
    std::unordered_map<AsId, std::pair<RouterId, Ipv4Addr>> attach;
    std::uint32_t host = lan.first().value() + 1;
    for (AsId m : members) {
      const AsPlan& p = plan(m);
      // The member attaches the router nearest the IXP's city.
      RouterId r = p.border[nearest_pop_index(p, city)];
      Ipv4Addr a(host++);
      ends.emplace_back(r, a);
      attach.emplace(m, std::make_pair(r, a));
    }
    LinkId lan_link = net_.add_link(LinkKind::kIxpLan, lan, ixp_as, ends);

    // The IXP operator may or may not originate the LAN in BGP (§4 ch. 6).
    bool lan_announced = rng_.chance(0.5);
    if (lan_announced && !attach.empty()) {
      net_.add_announced(
          {lan, ixp_as, attach.begin()->second.first, {}, 0.0});
    }

    // Public directory entry (PeeringDB/PCH analogue), with configurable
    // record noise (defaults: ~7% of rows missing, ~3% stale).
    std::size_t ixp_index = net_.ixp_directory().add_ixp(
        {"IXP-" + std::to_string(x + 1), lan, lan_announced ? ixp_as : AsId{}});
    for (AsId m : members) {
      if (rng_.chance(config_.ixp_missing_record_p)) continue;
      Ipv4Addr recorded = attach.at(m).second;
      if (rng_.chance(config_.ixp_stale_record_p)) {
        recorded = Ipv4Addr(recorded.value() + 100);
      }
      net_.ixp_directory().add_membership({ixp_index, m, recorded});
    }

    // Route-server peerings: member pairs peer with probability; these
    // sessions ride the shared LAN (no dedicated link), and are usually
    // invisible at route collectors unless one side exports them.
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        AsId a = members[i], b = members[j];
        if (rels.rel(a, b) != asdata::Relationship::kNone) continue;
        if (!rng_.chance(config_.ixp_peering_p)) continue;
        rels.add_p2p(a, b);
        net_.record_interdomain({lan_link, a, b, attach.at(a).first,
                                 attach.at(b).first, /*via_ixp=*/true});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Announcements, destinations and VPs
// ---------------------------------------------------------------------------

Ipv4Addr Generator::host_addr(AsPlan& p) {
  Ipv4Addr a(static_cast<std::uint32_t>(p.block.last().value() -
                                        p.host_cursor_from_end));
  p.host_cursor_from_end += 1;
  return a;
}

void Generator::create_announcements() {
  for (AsPlan& p : plans_) {
    if (p.kind == AsKind::kIxpOperator) continue;
    if (net_.as_info(p.id).routers.empty()) continue;
    const auto& routers = net_.as_info(p.id).routers;
    auto host_router = [&](std::size_t i) { return routers[i % routers.size()]; };

    double responsiveness = p.kind == AsKind::kEnterprise
                                ? config_.dest_responsiveness_enterprise
                                : config_.dest_responsiveness_default;

    // Pinned links for selective announcers (Akamai-like CDN, §6): each
    // prefix is announced to the featured access network over exactly one
    // interconnect, but still reaches its transit providers — otherwise
    // the rest of the Internet could not deliver to it at all.
    std::vector<LinkId> own_links;
    std::vector<LinkId> transit_links;
    if (p.id == akamai_like_) {
      const auto& rels = net_.truth_relationships();
      for (const auto& info : net_.interdomain_links_of(p.id)) {
        AsId other = (info.as_a == p.id) ? info.as_b : info.as_a;
        if (other == featured_access_) {
          own_links.push_back(info.link);
        } else if (rels.rel(p.id, other) ==
                   asdata::Relationship::kProvider) {
          transit_links.push_back(info.link);
        }
      }
    }

    // 1. Covering announcement(s) for the whole block. Networks that keep
    // infrastructure out of BGP (§5.4.3) unroute only part of it when they
    // are sizable — per §5.4.1 such networks "usually announce other
    // infrastructure addresses that bdrmap observes nearby", which is what
    // lets the RIR-delegation extension attribute the rest.
    if (p.unrouted_infra && p.infra.valid()) {
      Prefix unrouted = p.kind == AsKind::kEnterprise
                            ? p.infra.block()
                            : p.infra.block().upper_half();
      net_.as_info_mutable(p.id).unrouted_infra.push_back(unrouted);
      auto pieces = net::subtract(p.block, {unrouted});
      std::size_t i = 0;
      for (const Prefix& piece : pieces) {
        net_.add_announced({piece, p.id, host_router(i++), {}, responsiveness});
      }
    } else {
      net_.add_announced({p.block, p.id, host_router(0), {}, responsiveness});
    }

    // 2. More-specific host prefixes (exercise §5.3 block splitting and the
    //    MOAS challenge). Content networks announce more of them.
    std::size_t extra = config_.host_prefixes_min +
                        rng_.uniform(0, static_cast<std::uint32_t>(
                                            config_.host_prefixes_max -
                                            config_.host_prefixes_min));
    // Enterprises announce little beyond their block; transit and content
    // networks deaggregate much more (in the real table the vast majority
    // of prefixes sit behind multi-link networks, cf. Figure 14).
    if (p.kind == AsKind::kEnterprise) extra = config_.host_prefixes_min;
    if (p.kind == AsKind::kTransit || p.kind == AsKind::kTier1) extra += 4;
    if (p.kind == AsKind::kContent) extra += 6;
    if (p.id == akamai_like_ && !own_links.empty()) {
      // Enough prefixes that every pinned link carries several.
      extra = std::max(extra, own_links.size() * 2);
    }
    // Carve /24s right after the infra region.
    std::uint32_t cursor = p.block.first().value() +
                           (p.infra.valid() && !p.pa_infra
                                ? static_cast<std::uint32_t>(p.infra.block().size())
                                : 0u);
    for (std::size_t i = 0; i < extra; ++i) {
      Prefix host(Ipv4Addr(cursor), 24);
      cursor += 256;
      if (!p.block.contains(host)) break;
      AnnouncedPrefix ap{host, p.id, host_router(i + 1), {}, responsiveness};
      if (p.id == akamai_like_ && !own_links.empty()) {
        // Pin each prefix to exactly one access interconnection (a single
        // VP then observes every Akamai link — Figure 15's flat curve),
        // plus the transit links that keep it globally routable.
        ap.only_via_links = {own_links[i % own_links.size()]};
        ap.only_via_links.insert(ap.only_via_links.end(),
                                 transit_links.begin(),
                                 transit_links.end());
      }
      std::size_t index = net_.add_announced(ap);
      // MOAS: a sibling co-originates this prefix in BGP.
      if (rng_.chance(config_.p_moas_prefix)) {
        auto sibs = net_.sibling_table().siblings_of(p.id);
        if (sibs.size() > 1) {
          for (AsId s : sibs) {
            if (s != p.id) {
              net_.truth_origins().add(net_.announced()[index].prefix, s);
              break;
            }
          }
        }
      }
    }
  }
}

// Reverse DNS (§5.1, §6): interface names embed location codes, sometimes
// the AS number, sometimes only an organization label — and are frequently
// missing or stale, per the paper's caveats about DNS-based validation.
void Generator::create_dns() {
  Rng rng = rng_.fork();
  for (const auto& iface : net_.ifaces()) {
    const Router& router = net_.router(iface.router);
    const AsInfo& info = net_.as_info(router.owner);

    double p_missing = info.kind == AsKind::kEnterprise ? 0.6 : 0.3;
    if (rng.chance(p_missing)) continue;

    std::uint32_t pop = router.pop;
    if (rng.chance(config_.dns_stale_city_p)) {
      pop = rng.uniform(0, static_cast<std::uint32_t>(net_.pops().size() - 1));
    }
    std::string city = asdata::city_code_of(net_.pops()[pop].city);

    // Organization label: the AS name lower-cased with separators removed.
    std::string org;
    for (char c : info.name) {
      if (std::isalpha(static_cast<unsigned char>(c))) {
        org.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
      }
    }
    if (org.empty()) org = "net";

    const Link& link = net_.link(iface.link);
    const char* role =
        link.kind == LinkKind::kInternal
            ? "ae"
            : (link.kind == LinkKind::kIxpLan ? "ix" : "xe");
    unsigned unit = iface.id.value % 100;

    std::string name;
    if (rng.chance(config_.dns_org_only_p)) {
      // Organization label without an AS number — the paper's complaint
      // about links "labeled with organization names, rather than ASNs".
      name = std::string(role) + "-" + std::to_string(unit) + "." + city +
             "." + org + ".net";
    } else {
      name = asdata::make_hostname(role, unit, city, router.owner, org);
    }
    net_.reverse_dns().add(iface.addr, std::move(name));
  }
}

void Generator::create_vps() {
  for (AsPlan& p : plans_) {
    bool wants_vp = p.kind == AsKind::kAccess ||
                    p.kind == AsKind::kResearchEdu ||
                    p.id == level3_like_;
    if (!wants_vp || p.core.empty()) continue;
    std::size_t count = 1;
    if (p.id == featured_access_) count = p.pops.size();  // 19 VPs (§6)
    if (p.id == level3_like_) count = 1;
    for (std::size_t i = 0; i < count; ++i) {
      std::size_t pop_index = (count == 1) ? p.pops.size() / 2 : i;
      RouterId attach = p.core[pop_index];
      // A VP's first-hop router must respond to traceroute, or every trace
      // starts blind; operators hosting VPs pick such attachment points.
      RouterBehavior& b = net_.router_mutable(attach).behavior;
      b.sends_ttl_expired = true;
      b.responds_echo = true;
      b.rate_limit_drop = 0.0;
      vps_.push_back(Vp{p.id, attach, host_addr(p), p.pops[pop_index]});
    }
  }
}

}  // namespace

GeneratedInternet generate(const GeneratorConfig& config) {
  Generator g(config);
  return g.run();
}

}  // namespace bdrmap::topo
