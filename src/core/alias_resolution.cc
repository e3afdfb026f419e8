#include "core/alias_resolution.h"

#include <algorithm>
#include <functional>

namespace bdrmap::core {

std::size_t AliasEvidence::drop_moved(std::span<const std::uint64_t> changed) {
  // Compact the flat footprints in place, collecting the moved addresses.
  std::vector<Ipv4Addr> moved;
  std::size_t kept = 0;
  std::uint32_t kept_keys = 0;
  for (std::size_t i = 0; i < footprint_addrs.size(); ++i) {
    const std::uint32_t begin = footprint_offsets[i];
    const std::uint32_t end = footprint_offsets[i + 1];
    const std::span<const std::uint64_t> keys(footprint_keys.data() + begin,
                                              end - begin);
    if (footprint_meets(keys, changed)) {
      moved.push_back(footprint_addrs[i]);
      continue;
    }
    footprint_addrs[kept++] = footprint_addrs[i];
    if (kept_keys != begin) {  // shift left over the dropped runs
      std::copy(keys.begin(), keys.end(), footprint_keys.begin() + kept_keys);
    }
    kept_keys += end - begin;
    footprint_offsets[kept] = kept_keys;
  }
  if (moved.empty()) return 0;
  footprint_addrs.resize(kept);
  footprint_offsets.resize(kept + 1);
  footprint_keys.resize(kept_keys);
  std::sort(moved.begin(), moved.end());
  for (Ipv4Addr a : moved) udp_sources.erase(a);
  auto is_moved = [&](std::uint64_t half) {
    return std::binary_search(moved.begin(), moved.end(),
                              Ipv4Addr(static_cast<std::uint32_t>(half)));
  };
  std::erase_if(verdicts, [&](const auto& entry) {
    return is_moved(entry.first >> 32) || is_moved(entry.first & 0xffffffffu);
  });
  return moved.size();
}

AliasVerdict AliasResolver::mercator(Ipv4Addr a, Ipv4Addr b) {
  auto source_of = [&](Ipv4Addr x) -> std::optional<Ipv4Addr> {
    auto it = evidence_->udp_sources.find(x);
    if (it != evidence_->udp_sources.end()) return it->second;
    if (record_footprints_) {
      // First: its walk also serves the probes of x that follow.
      footprint_.clear();
      services_.addr_footprint(x, footprint_);
      std::sort(footprint_.begin(), footprint_.end());
      evidence_->footprint_addrs.push_back(x);
      evidence_->footprint_keys.insert(
          evidence_->footprint_keys.end(), footprint_.begin(),
          std::unique(footprint_.begin(), footprint_.end()));
      evidence_->footprint_offsets.push_back(
          static_cast<std::uint32_t>(evidence_->footprint_keys.size()));
    }
    auto src = services_.udp_probe(x);
    evidence_->udp_sources.emplace(x, src);
    return src;
  };
  auto sa = source_of(a);
  auto sb = source_of(b);
  if (!sa || !sb) return AliasVerdict::kUnknown;
  return (*sa == *sb) ? AliasVerdict::kAlias : AliasVerdict::kNotAlias;
}

namespace {

// MIDAR-style monotonicity over an interleaved sample sequence: strictly
// increasing with at most one 16-bit wrap, and no implausibly large jump.
bool monotone(const std::vector<std::uint16_t>& ids, std::uint16_t max_gap) {
  int wraps = 0;
  for (std::size_t i = 1; i < ids.size(); ++i) {
    std::uint32_t prev = ids[i - 1];
    std::uint32_t cur = ids[i];
    if (cur <= prev) {
      // Candidate wrap: the counter passed 0xffff.
      if (++wraps > 1) return false;
      cur += 0x10000;
    }
    if (cur - prev > max_gap) return false;
  }
  return true;
}

}  // namespace

AliasVerdict AliasResolver::ally(Ipv4Addr a, Ipv4Addr b) {
  services_.begin_alias_test(pair_key(a, b));
  // Sampled in address order, so (a, b) and (b, a) are one measurement.
  if (b < a) std::swap(a, b);
  double clock = 0.0;  // pair-local virtual measurement time
  bool ever_sampled = false;
  for (int round = 0; round < config_.ally_rounds; ++round) {
    std::vector<std::uint16_t> ids;
    bool missing = false;
    for (int i = 0; i < config_.ally_samples; ++i) {
      Ipv4Addr target = (i % 2 == 0) ? a : b;
      auto id = services_.ipid_sample(target, clock);
      clock += config_.ally_sample_gap;
      if (!id) {
        missing = true;
        break;
      }
      ids.push_back(*id);
    }
    clock += config_.ally_round_interval;
    if (missing) {
      // Unresponsive to this probe type: no evidence either way.
      if (!ever_sampled && round == 0) return AliasVerdict::kUnknown;
      continue;
    }
    ever_sampled = true;
    // A zero/constant series means the router does not use a counter.
    bool all_zero = std::all_of(ids.begin(), ids.end(),
                                [](std::uint16_t v) { return v == 0; });
    if (all_zero) return AliasVerdict::kUnknown;
    if (!monotone(ids, config_.ally_max_gap)) {
      // One rejecting round kills the shared-counter hypothesis (§5.3).
      return AliasVerdict::kNotAlias;
    }
  }
  return ever_sampled ? AliasVerdict::kAlias : AliasVerdict::kUnknown;
}

AliasVerdict AliasResolver::test_pair(Ipv4Addr a, Ipv4Addr b) {
  if (a == b) return AliasVerdict::kAlias;
  const std::uint64_t key = pair_key(a, b);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  AliasVerdict v = AliasVerdict::kUnknown;
  auto known = evidence_->verdicts.find(key);
  if (known != evidence_->verdicts.end()) {
    v = known->second;
    ++pairs_reused_;
  } else {
    v = mercator(a, b);
    if (v == AliasVerdict::kUnknown) {
      v = ally(a, b);
    } else if (v == AliasVerdict::kAlias) {
      // Corroborate with Ally when possible; a rejecting Ally measurement
      // is negative evidence the closure must honor.
      AliasVerdict av = ally(a, b);
      if (av == AliasVerdict::kNotAlias) v = AliasVerdict::kNotAlias;
    }
    evidence_->verdicts.emplace(key, v);
  }
  cache_.emplace(key, v);
  return v;
}

std::optional<Ipv4Addr> AliasResolver::prefixscan(Ipv4Addr prev_hop,
                                                  Ipv4Addr hop) {
  // /31 mate first (more specific assumption), then /30.
  Ipv4Addr m31 = net::mate31(hop);
  if (m31 != prev_hop && test_pair(prev_hop, m31) == AliasVerdict::kAlias) {
    return m31;
  }
  if (auto m30 = net::mate30(hop)) {
    if (*m30 != prev_hop && *m30 != m31 &&
        test_pair(prev_hop, *m30) == AliasVerdict::kAlias) {
      return *m30;
    }
  }
  return std::nullopt;
}

void AliasResolver::declare(Ipv4Addr a, Ipv4Addr b, AliasVerdict v) {
  if (a == b) return;
  cache_[pair_key(a, b)] = v;
}

AliasVerdict AliasResolver::verdict_of(Ipv4Addr a, Ipv4Addr b) const {
  if (a == b) return AliasVerdict::kAlias;
  auto it = cache_.find(pair_key(a, b));
  return it == cache_.end() ? AliasVerdict::kUnknown : it->second;
}

std::vector<AliasResolver::PairVerdict> AliasResolver::all_verdicts() const {
  std::vector<PairVerdict> out;
  out.reserve(cache_.size());
  for (const auto& [k, v] : cache_) {
    out.push_back({Ipv4Addr(static_cast<std::uint32_t>(k >> 32)),
                   Ipv4Addr(static_cast<std::uint32_t>(k)), v});
  }
  return out;
}

std::vector<std::vector<Ipv4Addr>> AliasResolver::groups(
    const std::vector<Ipv4Addr>& addrs) const {
  // Union-find over positive verdicts with negative-pair veto.
  std::unordered_map<Ipv4Addr, std::size_t> index;
  std::vector<Ipv4Addr> nodes;
  for (Ipv4Addr a : addrs) {
    if (index.emplace(a, nodes.size()).second) nodes.push_back(a);
  }
  std::vector<std::size_t> parent(nodes.size());
  for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  // Collect the verdicts that involve known addresses.
  struct Pair {
    std::size_t a, b;
  };
  std::vector<Pair> positives, negatives;
  for (const auto& [k, v] : cache_) {
    Ipv4Addr a(static_cast<std::uint32_t>(k >> 32));
    Ipv4Addr b(static_cast<std::uint32_t>(k & 0xffffffffu));
    auto ia = index.find(a);
    auto ib = index.find(b);
    if (ia == index.end() || ib == index.end()) continue;
    if (v == AliasVerdict::kAlias) {
      positives.push_back({ia->second, ib->second});
    } else if (v == AliasVerdict::kNotAlias) {
      negatives.push_back({ia->second, ib->second});
    }
  }

  // Union positives, but refuse merges that would join components holding
  // a negative pair. Order-dependent, as in the real tool; negatives are
  // re-checked against current components each time.
  auto components_conflict = [&](std::size_t ra, std::size_t rb) {
    for (const Pair& n : negatives) {
      std::size_t na = find(n.a), nb = find(n.b);
      if ((na == ra && nb == rb) || (na == rb && nb == ra)) return true;
    }
    return false;
  };
  for (const Pair& p : positives) {
    std::size_t ra = find(p.a), rb = find(p.b);
    if (ra == rb) continue;
    if (components_conflict(ra, rb)) continue;
    parent[ra] = rb;
  }

  std::unordered_map<std::size_t, std::vector<Ipv4Addr>> by_root;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    by_root[find(i)].push_back(nodes[i]);
  }
  std::vector<std::vector<Ipv4Addr>> out;
  out.reserve(by_root.size());
  for (auto& [root, members] : by_root) {
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  return out;
}

}  // namespace bdrmap::core
