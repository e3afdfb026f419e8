#include "route/bgp_sim.h"

#include <algorithm>

#include "netbase/contract.h"

namespace bdrmap::route {

const BgpSimulator::TierSet BgpSimulator::kNoTiers;

BgpSimulator::BgpSimulator(const topo::Internet& net,
                           obs::MetricsRegistry* metrics)
    : BgpSimulator(net, BgpPolicy{}, metrics) {}

BgpSimulator::BgpSimulator(const topo::Internet& net, BgpPolicy policy,
                           obs::MetricsRegistry* metrics)
    : net_(net), policy_(std::move(policy)) {
  if (metrics) {
    table_fills_ = metrics->counter("route.bgp.table_fills");
    tier_hits_ = metrics->counter("route.bgp.tier_cache_hits");
    tier_fills_ = metrics->counter("route.bgp.tier_cache_fills");
  }
  std::uint32_t max_as = 0;
  for (const auto& info : net.ases()) {
    as_ids_.push_back(info.id);
    max_as = std::max(max_as, info.id.value);
  }
  index_of_.assign(std::size_t{max_as} + 1, kNoIndex);
  for (std::uint32_t i = 0; i < as_ids_.size(); ++i) {
    index_of_[as_ids_[i].value] = i;
  }
  leaker_.assign(as_ids_.size(), 0);
  for (AsId leaker : policy_.leakers) {
    const std::uint32_t li = dense_index(leaker);
    if (li != kNoIndex) leaker_[li] = 1;
  }
  build_graph();
}

void BgpSimulator::build_graph() {
  // Edges to ASes outside the topology carry no routes and are dropped.
  const auto& rels = this->rels();
  const std::size_t n = as_ids_.size();
  graph_.offsets.assign(3 * n + 1, 0);
  graph_.adj.clear();
  auto append = [&](const std::vector<AsId>& list) {
    for (AsId as : list) {
      const std::uint32_t j = dense_index(as);
      if (j != kNoIndex) graph_.adj.push_back(j);
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    append(rels.providers(as_ids_[i]));
    graph_.offsets[3 * i + 1] = static_cast<std::uint32_t>(graph_.adj.size());
    append(rels.customers(as_ids_[i]));
    graph_.offsets[3 * i + 2] = static_cast<std::uint32_t>(graph_.adj.size());
    append(rels.peers(as_ids_[i]));
    graph_.offsets[3 * i + 3] = static_cast<std::uint32_t>(graph_.adj.size());
  }
}

const BgpSimulator::PerDst& BgpSimulator::table(std::uint32_t dst) const {
  {
    net::SharedLock lk(cache_mu_);
    auto it = cache_.find(dst);
    if (it != cache_.end()) return *it->second;
  }

  auto t = std::make_unique<PerDst>();
  const std::size_t n = as_ids_.size();
  t->cust.assign(n, kInf);
  t->peer.assign(n, kInf);
  t->prov.assign(n, kInf);

  // 1. Customer-cone distances: BFS from dst upward along customer->provider
  //    edges. cust[x] = hops of the p2c chain from x down to dst.
  std::vector<std::uint32_t> queue{dst};
  t->cust[dst] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t cur = queue[head];
    const std::uint16_t d = t->cust[cur];
    for (std::uint32_t provider : graph_.providers(cur)) {
      auto& slot = t->cust[provider];
      if (slot == kInf) {
        slot = static_cast<std::uint16_t>(d + 1);
        queue.push_back(provider);
      }
    }
  }

  // 2. Peer routes: one peer edge into a customer cone.
  derive_peer(*t);

  // 3. Provider routes: propagate down provider->customer edges; a provider
  //    exports its best route (of any class) to customers.
  derive_prov(*t);

  // 4. Adversarial export overrides (route leaks).
  if (policy_.has_leaks()) apply_leaks(*t);

  BDRMAP_ENSURES(t->cust[dst] == 0,
                 "destination must sit at distance zero in its own cone");
  // The computation above is pure, so two threads racing to fill the same
  // destination produced identical tables: first writer wins, the loser's
  // copy is discarded and only the winner counts. References stay valid
  // across rehashes because the table lives behind a unique_ptr.
  net::MutexLock lk(cache_mu_);
  const auto [it, filled] = cache_.emplace(dst, std::move(t));
  if (filled) table_fills_.inc();
  return *it->second;
}

void BgpSimulator::derive_peer(PerDst& t) const {
  const std::uint32_t n = static_cast<std::uint32_t>(as_ids_.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t p : graph_.peers(i)) {
      std::uint16_t via = t.cust[p];
      if (via != kInf && via + 1 < t.peer[i]) {
        t.peer[i] = static_cast<std::uint16_t>(via + 1);
      }
    }
  }
}

void BgpSimulator::derive_prov(PerDst& t) const {
  // Dijkstra with unit weights as a bucket queue: bucket d holds the nodes
  // whose route of length d is exported to their customers. A relaxation
  // from bucket d only fills bucket d + 1, so buckets are drained in
  // ascending order and the minimum distances are unique. Relax-only, so it
  // can be re-run after leak relaxations lowered cust/peer entries.
  const std::uint32_t n = static_cast<std::uint32_t>(as_ids_.size());
  std::vector<std::vector<std::uint32_t>> buckets;
  auto push = [&](std::uint16_t d, std::uint32_t i) {
    if (d >= buckets.size()) buckets.resize(std::size_t{d} + 1);
    buckets[d].push_back(i);
  };
  auto base = [&](std::uint32_t i) { return std::min(t.cust[i], t.peer[i]); };
  for (std::uint32_t i = 0; i < n; ++i) {
    if (base(i) != kInf) push(base(i), i);
  }
  for (std::size_t d = 0; d < buckets.size(); ++d) {
    const auto nd = static_cast<std::uint16_t>(d + 1);
    // push() may grow `buckets`, so index rather than hold a reference.
    for (std::size_t k = 0; k < buckets[d].size(); ++k) {
      const std::uint32_t i = buckets[d][k];
      if (d > std::min(base(i), t.prov[i])) continue;  // stale entry
      for (std::uint32_t c : graph_.customers(i)) {
        if (nd < t.prov[c] && nd < base(c)) {
          t.prov[c] = nd;
          push(nd, c);
        }
      }
    }
  }
}

void BgpSimulator::apply_leaks(PerDst& t) const {
  // Iterate to a fixed point: one leaker's leaked route can shorten another
  // leaker's best route. Every relaxation strictly decreases a bounded
  // value, so the loop terminates; the computation is a pure function of
  // (graph, policy), preserving the cache's value-determinism.
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<std::uint32_t> up;  // cone re-propagation frontier
    for (AsId leaker : policy_.leakers) {
      const std::uint32_t li = dense_index(leaker);
      if (li == kNoIndex) continue;
      const std::uint16_t d = t.best(li);
      if (d >= kInf) continue;
      const std::uint16_t nd = static_cast<std::uint16_t>(d + 1);
      // Providers accept the leak as a customer route, peers as a peer
      // route — unless their own best route is already at least as short
      // (loop detection rejects the circular announcement).
      for (std::uint32_t pi : graph_.providers(li)) {
        if (nd < t.best(pi) && nd < t.cust[pi]) {
          t.cust[pi] = nd;
          up.push_back(pi);
          changed = true;
        }
      }
      for (std::uint32_t qi : graph_.peers(li)) {
        if (nd < t.best(qi) && nd < t.peer[qi]) {
          t.peer[qi] = nd;
          changed = true;
        }
      }
    }
    // A leaked customer route propagates up the cone like a real one, with
    // the same loop-detection guard.
    for (std::size_t head = 0; head < up.size(); ++head) {
      const std::uint32_t ci = up[head];
      const std::uint16_t nd = static_cast<std::uint16_t>(t.cust[ci] + 1);
      for (std::uint32_t pi : graph_.providers(ci)) {
        if (nd < t.best(pi) && nd < t.cust[pi]) {
          t.cust[pi] = nd;
          up.push_back(pi);
        }
      }
    }
    if (!changed) break;
    // Re-derive peer and provider routes from the relaxed customer table.
    derive_peer(t);
    derive_prov(t);
  }
}

std::vector<std::uint64_t> BgpSimulator::set_relationship(
    AsId a, AsId b, asdata::Relationship rel_of_b_from_a) {
  if (!rels_override_) {
    rels_override_ = std::make_unique<asdata::RelationshipStore>(
        net_.truth_relationships());
  }
  rels_override_->set_rel(a, b, rel_of_b_from_a);
  build_graph();
  {
    net::MutexLock lk(cache_mu_);
    cache_.clear();
  }
  // Re-derive every memoized pair; table() refills each destination once.
  std::vector<std::uint64_t> changed;
  net::MutexLock lk(tiers_mu_);
  for (auto& [key, set] : tiers_) {
    TierSet fresh = compute_tiers(static_cast<std::uint32_t>(key >> 32),
                                  static_cast<std::uint32_t>(key));
    if (fresh.tiers != set->tiers) {
      set->tiers = std::move(fresh.tiers);
      changed.push_back(key);
    }
  }
  std::sort(changed.begin(), changed.end());
  return changed;
}

RouteInfo BgpSimulator::route(AsId src, AsId dst) const {
  const std::uint32_t i = dense_index(src), di = dense_index(dst);
  if (i == kNoIndex || di == kNoIndex) return {};
  if (i == di) return {RouteClass::kSelf, 0};
  const PerDst& t = table(di);
  if (t.cust[i] != kInf) return {RouteClass::kCustomer, t.cust[i]};
  if (t.peer[i] != kInf) return {RouteClass::kPeer, t.peer[i]};
  if (t.prov[i] != kInf) return {RouteClass::kProvider, t.prov[i]};
  return {};
}

std::vector<std::vector<AsId>> BgpSimulator::candidate_tiers(AsId src,
                                                             AsId dst) const {
  return compute_tiers(dense_index(src), dense_index(dst)).tiers;
}

const BgpSimulator::TierSet& BgpSimulator::tiers(AsId src, AsId dst) const {
  const std::uint32_t i = dense_index(src), di = dense_index(dst);
  if (i == kNoIndex || di == kNoIndex) return kNoTiers;
  const std::uint64_t key = tier_key(i, di);
  {
    net::SharedLock lk(tiers_mu_);
    auto it = tiers_.find(key);
    if (it != tiers_.end()) {
      tier_hits_.inc();
      return *it->second;
    }
  }
  auto t = std::make_unique<TierSet>(compute_tiers(i, di));
  net::MutexLock lk(tiers_mu_);
  const auto [it, filled] = tiers_.emplace(key, std::move(t));
  if (filled) tier_fills_.inc();  // the first writer's fill
  return *it->second;
}

std::vector<std::uint64_t> BgpSimulator::keys_listing(
    std::span<const std::pair<std::uint32_t, AsId>> sessions) const {
  std::vector<std::uint64_t> keys;
  net::SharedLock lk(tiers_mu_);
  for (const auto& [key, set] : tiers_) {
    const std::vector<std::vector<AsId>>& tiers = set->tiers;
    for (const auto& [near, far] : sessions) {
      if (near == key >> 32 &&
          std::any_of(tiers.begin(), tiers.end(), [far = far](const auto& t) {
            return std::binary_search(t.begin(), t.end(), far);
          })) {
        keys.push_back(key);
        break;
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

template <typename Emit>
void BgpSimulator::for_each_in_tier(const PerDst& t, std::uint32_t i,
                                    RouteClass cls, Emit&& emit) const {
  // The distance a neighbor advertises toward us: its customer-cone
  // distance normally, or — when it leaks — its best route of any class.
  auto advertised = [&](std::uint32_t j) {
    return leaker_[j] ? t.best(j) : t.cust[j];
  };
  switch (cls) {
    case RouteClass::kCustomer:
      if (t.cust[i] == kInf) return;
      for (std::uint32_t c : graph_.customers(i)) {
        const std::uint16_t via = advertised(c);
        if (via != kInf && via + 1 == t.cust[i]) emit(c);
      }
      return;
    case RouteClass::kPeer:
      if (t.peer[i] == kInf) return;
      for (std::uint32_t p : graph_.peers(i)) {
        const std::uint16_t via = advertised(p);
        if (via != kInf && via + 1 == t.peer[i]) emit(p);
      }
      return;
    case RouteClass::kProvider: {
      // Provider fallback tier: providers that have any route, best first.
      if (t.best(i) == kInf) return;
      std::uint16_t best = kInf;
      for (std::uint32_t y : graph_.providers(i)) {
        best = std::min(best, t.best(y));
      }
      if (best == kInf) return;
      for (std::uint32_t y : graph_.providers(i)) {
        if (t.best(y) == best) emit(y);
      }
      return;
    }
    default:
      return;
  }
}

BgpSimulator::TierSet BgpSimulator::compute_tiers(std::uint32_t src,
                                                  std::uint32_t dst) const {
  TierSet set;
  if (src == kNoIndex || dst == kNoIndex || src == dst) return set;
  const PerDst& t = table(dst);
  for (RouteClass cls :
       {RouteClass::kCustomer, RouteClass::kPeer, RouteClass::kProvider}) {
    std::vector<AsId> tier;
    for_each_in_tier(t, src, cls,
                     [&](std::uint32_t j) { tier.push_back(as_ids_[j]); });
    std::sort(tier.begin(), tier.end());
    if (!tier.empty()) set.tiers.push_back(std::move(tier));
  }
  return set;
}

std::vector<AsId> BgpSimulator::as_path(AsId src, AsId dst) const {
  std::vector<AsId> path;
  const std::uint32_t si = dense_index(src), di = dense_index(dst);
  if (si == kNoIndex || di == kNoIndex) return path;
  path.push_back(src);
  if (si == di) return path;
  const PerDst& t = table(di);

  // The lowest-AS member of tier `cls` at `i`, kNoIndex when it is empty.
  auto lowest = [&](std::uint32_t i, RouteClass cls) {
    std::uint32_t best = kNoIndex;
    for_each_in_tier(t, i, cls, [&](std::uint32_t j) {
      if (best == kNoIndex || as_ids_[j] < as_ids_[best]) best = j;
    });
    return best;
  };
  std::uint32_t cur = si;
  bool downhill = false;  // after crossing a peer or p2c edge, only descend
  // Leaked routes can revisit an AS in pathological policies; treat a
  // revisit as BGP loop detection dropping the path.
  std::vector<std::uint32_t> seen{cur};
  for (int guard = 0; guard < 48 && cur != di; ++guard) {
    std::uint32_t next = kNoIndex;
    if (downhill && leaker_[cur] && t.best(cur) < t.cust[cur]) {
      // A leaked announcement brought the path here: the leaker forwards
      // along its own best (possibly uphill) route — the valley.
      downhill = false;
      continue;
    }
    if (downhill) {
      // Follow the customer chain toward dst. A leaking customer advertises
      // its best route of any class.
      next = lowest(cur, RouteClass::kCustomer);
    } else {
      // The first non-empty tier; crossing into a peer or customer flips
      // us to descend-only mode.
      for (RouteClass cls : {RouteClass::kCustomer, RouteClass::kPeer,
                             RouteClass::kProvider}) {
        next = lowest(cur, cls);
        if (next != kNoIndex) {
          downhill = cls != RouteClass::kProvider;
          break;
        }
      }
    }
    if (next == kNoIndex) return {};
    if (std::find(seen.begin(), seen.end(), next) != seen.end()) return {};
    seen.push_back(next);
    path.push_back(as_ids_[next]);
    cur = next;
  }
  if (cur != di) return {};
  BDRMAP_ENSURES(path.front() == src && path.back() == dst,
                 "as_path endpoints must match the query");
  return path;
}

}  // namespace bdrmap::route
