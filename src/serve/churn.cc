#include "serve/churn.h"

#include <algorithm>
#include <utility>

#include "netbase/contract.h"

namespace bdrmap::serve {

namespace {

// Own splitmix64: the serve module is in lint.py's DETERMINISTIC_MODULES
// set (BDR102), so no <random>, no clocks.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string addr_str(net::Ipv4Addr a) {
  const std::uint32_t v = a.value();
  return std::to_string((v >> 24) & 0xff) + "." +
         std::to_string((v >> 16) & 0xff) + "." +
         std::to_string((v >> 8) & 0xff) + "." + std::to_string(v & 0xff);
}

std::string prefix_str(const net::Prefix& p) {
  return addr_str(p.network()) + "/" + std::to_string(p.length());
}

}  // namespace

const char* churn_kind_name(ChurnKind kind) {
  switch (kind) {
    case ChurnKind::kWithdraw:
      return "withdraw";
    case ChurnKind::kAnnounce:
      return "announce";
    case ChurnKind::kLinkDown:
      return "link_down";
    case ChurnKind::kLinkUp:
      return "link_up";
    case ChurnKind::kRelChange:
      return "rel_change";
  }
  return "unknown";
}

std::string describe(const ChurnEvent& e) {
  std::string out = churn_kind_name(e.kind);
  switch (e.kind) {
    case ChurnKind::kWithdraw:
    case ChurnKind::kAnnounce:
      out += " " + prefix_str(e.prefix);
      break;
    case ChurnKind::kLinkDown:
    case ChurnKind::kLinkUp:
      out += " link " + std::to_string(e.link.value) + " AS" +
             std::to_string(e.as_a.value) + "-AS" +
             std::to_string(e.as_b.value);
      break;
    case ChurnKind::kRelChange:
      out += " AS" + std::to_string(e.as_a.value) + "-AS" +
             std::to_string(e.as_b.value) + " -> " +
             (e.new_rel == asdata::Relationship::kPeer
                  ? "p2p"
                  : e.new_rel == asdata::Relationship::kCustomer ? "c2p"
                                                                 : "other");
      break;
  }
  return out;
}

std::vector<std::uint64_t> apply_event(const ChurnEvent& e,
                                       route::BgpSimulator& bgp,
                                       route::Fib& fib) {
  switch (e.kind) {
    case ChurnKind::kWithdraw:
      fib.set_prefix_withdrawn(e.prefix, true);
      break;
    case ChurnKind::kAnnounce:
      fib.set_prefix_withdrawn(e.prefix, false);
      break;
    case ChurnKind::kLinkDown:
      fib.set_link_state(e.link, false);
      break;
    case ChurnKind::kLinkUp:
      fib.set_link_state(e.link, true);
      break;
    case ChurnKind::kRelChange: {
      // New candidate tiers can reshuffle hot-potato egress choices, so the
      // FIB's memoized decisions go too.
      std::vector<std::uint64_t> changed =
          bgp.set_relationship(e.as_a, e.as_b, e.new_rel);
      fib.invalidate_egress();
      return changed;
    }
  }
  return {};
}

ChurnStream::ChurnStream(const topo::Internet& net, std::uint64_t seed)
    : state_(seed ^ 0x5e7e5e7e5e7e5e7eULL) {
  for (const topo::InterdomainLinkInfo& info : net.interdomain_links()) {
    links_.push_back({info.link, info.as_a, info.as_b, false});
  }
  for (const topo::AnnouncedPrefix& ap : net.announced()) {
    prefixes_.push_back({ap.prefix, false});
  }
  // Unique ground-truth c2p AS pairs over the interdomain links: flipping
  // one to p2p (and back) preserves the valley-free hierarchy — no
  // provider cycle can appear — so the stream never wedges the simulator.
  const asdata::RelationshipStore& rels = net.truth_relationships();
  std::vector<std::pair<net::AsId, net::AsId>> seen;
  for (const LinkState& l : links_) {
    net::AsId customer, provider;
    if (rels.rel(l.as_a, l.as_b) == asdata::Relationship::kCustomer) {
      provider = l.as_a;
      customer = l.as_b;
    } else if (rels.rel(l.as_a, l.as_b) == asdata::Relationship::kProvider) {
      provider = l.as_b;
      customer = l.as_a;
    } else {
      continue;
    }
    auto key = std::make_pair(customer, provider);
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
    seen.push_back(key);
    rel_edges_.push_back({customer, provider, false});
  }
}

std::uint64_t ChurnStream::next_u64() { return splitmix64(state_); }

ChurnEvent ChurnStream::next() {
  BDRMAP_EXPECTS(!prefixes_.empty() || !links_.empty(),
                 "ChurnStream needs announced prefixes or interdomain links");
  // Candidate actions, in fixed order; the seeded stream picks among the
  // currently possible ones.
  enum Action { kDoWithdraw, kDoAnnounce, kDoLinkDown, kDoLinkUp, kDoRel };
  for (;;) {
    std::vector<Action> possible;
    auto count_if = [](const auto& v, auto pred) {
      return static_cast<std::size_t>(
          std::count_if(v.begin(), v.end(), pred));
    };
    const std::size_t up_prefixes =
        count_if(prefixes_, [](const PrefixState& p) { return !p.withdrawn; });
    const std::size_t down_prefixes = prefixes_.size() - up_prefixes;
    const std::size_t up_links =
        count_if(links_, [](const LinkState& l) { return !l.down; });
    const std::size_t down_links = links_.size() - up_links;
    // Keep at least half the prefixes/links alive so churn perturbs the
    // topology instead of demolishing it.
    if (up_prefixes > prefixes_.size() / 2) possible.push_back(kDoWithdraw);
    if (down_prefixes > 0) possible.push_back(kDoAnnounce);
    if (up_links > links_.size() / 2) possible.push_back(kDoLinkDown);
    if (down_links > 0) possible.push_back(kDoLinkUp);
    if (!rel_edges_.empty()) possible.push_back(kDoRel);
    BDRMAP_EXPECTS(!possible.empty(), "churn stream wedged");
    const Action act = possible[next_u64() % possible.size()];
    const std::uint64_t r = next_u64();
    ChurnEvent e;
    switch (act) {
      case kDoWithdraw:
      case kDoAnnounce: {
        const bool want = act == kDoAnnounce;  // pick a withdrawn one
        std::vector<std::size_t> idx;
        for (std::size_t i = 0; i < prefixes_.size(); ++i) {
          if (prefixes_[i].withdrawn == want) idx.push_back(i);
        }
        PrefixState& p = prefixes_[idx[r % idx.size()]];
        p.withdrawn = !want;
        e.kind = want ? ChurnKind::kAnnounce : ChurnKind::kWithdraw;
        e.prefix = p.prefix;
        return e;
      }
      case kDoLinkDown:
      case kDoLinkUp: {
        const bool want = act == kDoLinkUp;  // pick a down one
        std::vector<std::size_t> idx;
        for (std::size_t i = 0; i < links_.size(); ++i) {
          if (links_[i].down == want) idx.push_back(i);
        }
        LinkState& l = links_[idx[r % idx.size()]];
        l.down = !want;
        e.kind = want ? ChurnKind::kLinkUp : ChurnKind::kLinkDown;
        e.link = l.link;
        e.as_a = l.as_a;
        e.as_b = l.as_b;
        return e;
      }
      case kDoRel: {
        RelState& edge = rel_edges_[r % rel_edges_.size()];
        edge.flipped = !edge.flipped;
        e.kind = ChurnKind::kRelChange;
        e.as_a = edge.provider;
        e.as_b = edge.customer;
        // rel(provider, customer): customer-of normally, peer when flipped.
        e.new_rel = edge.flipped ? asdata::Relationship::kPeer
                                 : asdata::Relationship::kCustomer;
        return e;
      }
    }
  }
}

}  // namespace bdrmap::serve
