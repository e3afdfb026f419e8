#include "core/alias_resolution.h"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>

namespace bdrmap::core {

namespace {

// The slot of `key` in verdicts sorted by pair key: its entry, or where it
// would go.
template <typename Verdicts>
auto slot(Verdicts& verdicts, std::uint64_t key) {
  return std::lower_bound(
      verdicts.begin(), verdicts.end(), key,
      [](const auto& entry, std::uint64_t k) { return entry.first < k; });
}

}  // namespace

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
    if (!evidence_) {  // one probe per address, kept for this run only
      if (const auto* known = udp_sources_.find(x.value())) return *known;
      return udp_sources_.insert(x.value(), services_.udp_probe(x));
    }
    auto it = evidence_->udp_sources.find(x);
    if (it != evidence_->udp_sources.end()) return it->second;
    // The footprint first: its walk also serves the probes of x that
    // follow.
    footprint_.clear();
    services_.addr_footprint(x, footprint_);
    std::sort(footprint_.begin(), footprint_.end());
    evidence_->footprint_addrs.push_back(x);
    evidence_->footprint_keys.insert(
        evidence_->footprint_keys.end(), footprint_.begin(),
        std::unique(footprint_.begin(), footprint_.end()));
    evidence_->footprint_offsets.push_back(
        static_cast<std::uint32_t>(evidence_->footprint_keys.size()));
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

// Ally (§5.3): five rounds, five (virtual) minutes apart, each
// interleaving a,b,a,b,a,b samples half a second apart.
constexpr int kAllyRounds = 5;
constexpr double kAllyRoundInterval = 300.0;
constexpr std::size_t kAllySamples = 6;
constexpr double kAllySampleGap = 0.5;
constexpr std::uint16_t kAllyMaxGap = 2000;  // max believable id jump/step

// MIDAR-style monotonicity over an interleaved sample sequence: strictly
// increasing with at most one 16-bit wrap, and no implausibly large jump.
bool monotone(std::span<const std::uint16_t> ids) {
  int wraps = 0;
  for (std::size_t i = 1; i < ids.size(); ++i) {
    std::uint32_t prev = ids[i - 1];
    std::uint32_t cur = ids[i];
    if (cur <= prev) {
      // Candidate wrap: the counter passed 0xffff.
      if (++wraps > 1) return false;
      cur += 0x10000;
    }
    if (cur - prev > kAllyMaxGap) return false;
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
  // BDRMAP_HOT_BEGIN(ally_rounds) — BDR104: 30 samples per pair test into
  // one fixed array per round.
  for (int round = 0; round < kAllyRounds; ++round) {
    std::array<std::uint16_t, kAllySamples> ids;
    bool missing = false;
    for (std::size_t i = 0; i < kAllySamples; ++i) {
      Ipv4Addr target = (i % 2 == 0) ? a : b;
      auto id = services_.ipid_sample(target, clock);
      clock += kAllySampleGap;
      if (!id) {
        missing = true;
        break;
      }
      ids[i] = *id;
    }
    clock += kAllyRoundInterval;
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
    if (!monotone(ids)) {
      // One rejecting round kills the shared-counter hypothesis (§5.3).
      return AliasVerdict::kNotAlias;
    }
  }
  // BDRMAP_HOT_END(ally_rounds)
  return ever_sampled ? AliasVerdict::kAlias : AliasVerdict::kUnknown;
}

AliasVerdict AliasResolver::test_pair(Ipv4Addr a, Ipv4Addr b) {
  if (a == b) return AliasVerdict::kAlias;
  const std::uint64_t key = pair_key(a, b);
  auto it = slot(verdicts_, key);
  if (it != verdicts_.end() && it->first == key) return it->second;

  if (evidence_) {
    const auto known = evidence_->verdicts.find(key);
    if (known != evidence_->verdicts.end()) {
      ++pairs_reused_;
      verdicts_.emplace(it, key, known->second);
      return known->second;
    }
  }
  AliasVerdict v = mercator(a, b);
  if (v == AliasVerdict::kUnknown) {
    v = ally(a, b);
  } else if (v == AliasVerdict::kAlias) {
    // Corroborate with Ally when possible; a rejecting Ally measurement
    // is negative evidence the closure must honor.
    AliasVerdict av = ally(a, b);
    if (av == AliasVerdict::kNotAlias) v = AliasVerdict::kNotAlias;
  }
  if (evidence_) evidence_->verdicts.emplace(key, v);
  verdicts_.emplace(it, key, v);  // probing leaves verdicts_ untouched
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
  const std::uint64_t key = pair_key(a, b);
  auto it = slot(verdicts_, key);
  if (it != verdicts_.end() && it->first == key) {
    it->second = v;
  } else {
    verdicts_.emplace(it, key, v);
  }
}

AliasVerdict AliasResolver::verdict_of(Ipv4Addr a, Ipv4Addr b) const {
  if (a == b) return AliasVerdict::kAlias;
  const std::uint64_t key = pair_key(a, b);
  auto it = slot(verdicts_, key);
  return it != verdicts_.end() && it->first == key ? it->second
                                                   : AliasVerdict::kUnknown;
}

std::vector<AliasResolver::PairVerdict> AliasResolver::all_verdicts() const {
  std::vector<PairVerdict> out;
  out.reserve(verdicts_.size());
  for (const auto& [k, v] : verdicts_) {
    out.push_back({Ipv4Addr(static_cast<std::uint32_t>(k >> 32)),
                   Ipv4Addr(static_cast<std::uint32_t>(k)), v});
  }
  return out;
}

AliasGroups AliasResolver::groups(
    const std::vector<Ipv4Addr>& addrs) const {
  // BDRMAP_HOT_BEGIN(alias_closure)
  // Union-find over positive verdicts with negative-pair veto. The nodes
  // are the distinct addresses, ascending.
  std::vector<Ipv4Addr> nodes(addrs);
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  constexpr std::uint32_t kAbsent = std::numeric_limits<std::uint32_t>::max();
  auto node_of = [&](Ipv4Addr a) {
    auto it = std::lower_bound(nodes.begin(), nodes.end(), a);
    return it != nodes.end() && *it == a
               ? static_cast<std::uint32_t>(it - nodes.begin())
               : kAbsent;
  };
  std::vector<std::uint32_t> parent(nodes.size());
  std::iota(parent.begin(), parent.end(), 0u);
  auto find = [&](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  // Collect the verdicts that involve known addresses: the positives in
  // ascending pair_key order, and each node's negative partners (flat, by
  // node).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> positives, negatives;
  for (const auto& [k, v] : verdicts_) {
    if (v != AliasVerdict::kAlias && v != AliasVerdict::kNotAlias) continue;
    const std::uint32_t a =
        node_of(Ipv4Addr(static_cast<std::uint32_t>(k >> 32)));
    const std::uint32_t b =
        node_of(Ipv4Addr(static_cast<std::uint32_t>(k & 0xffffffffu)));
    if (a == kAbsent || b == kAbsent) continue;
    (v == AliasVerdict::kAlias ? positives : negatives).emplace_back(a, b);
  }
  std::vector<std::uint32_t> partner_begin(nodes.size() + 1, 0);
  for (const auto& [a, b] : negatives) {
    ++partner_begin[a + 1];
    ++partner_begin[b + 1];
  }
  std::partial_sum(partner_begin.begin(), partner_begin.end(),
                   partner_begin.begin());
  std::vector<std::uint32_t> partners(partner_begin.back());
  {
    std::vector<std::uint32_t> fill(partner_begin.begin(),
                                    partner_begin.end() - 1);
    for (const auto& [a, b] : negatives) {
      partners[fill[a]++] = b;
      partners[fill[b]++] = a;
    }
  }

  // Union positives in ascending pair_key order, but refuse merges that
  // would join components holding a negative pair. Which of two competing
  // unions a veto refuses depends on that order, and a fixed order makes
  // the groups a function of the verdicts alone. Each component
  // keeps the nodes its members hold a negative verdict against: two
  // components conflict iff one's list names a node of the other, so the
  // shorter list is scanned, and the lists merge small into large. A
  // component that never united is one node; its list is its partners,
  // copied when it first unites.
  std::vector<std::vector<std::uint32_t>> vetoed(nodes.size());
  std::vector<std::uint8_t> listed(nodes.size(), 0);
  auto vetoed_by = [&](std::uint32_t root) -> std::vector<std::uint32_t>& {
    if (!listed[root]) {
      listed[root] = 1;
      vetoed[root].assign(partners.begin() + partner_begin[root],
                          partners.begin() + partner_begin[root + 1]);
    }
    return vetoed[root];
  };
  for (const auto& [a, b] : positives) {
    std::uint32_t ra = find(a), rb = find(b);
    if (ra == rb) continue;
    std::vector<std::uint32_t>* small = &vetoed_by(ra);
    std::vector<std::uint32_t>* large = &vetoed_by(rb);
    if (small->size() > large->size()) {
      std::swap(ra, rb);
      std::swap(small, large);
    }
    if (std::any_of(small->begin(), small->end(),
                    [&](std::uint32_t n) { return find(n) == rb; })) {
      continue;
    }
    parent[ra] = rb;
    large->insert(large->end(), small->begin(), small->end());
    *small = {};
  }

  // One group per root. Nodes ascend, so each group is met at its lowest
  // address: the groups come out ordered by first member, each sorted.
  // A counting fill lays them out flat.
  std::vector<std::uint32_t> group_of(nodes.size(), kAbsent);
  std::vector<std::uint32_t> offsets(1, 0);
  for (std::uint32_t i = 0; i < nodes.size(); ++i) {
    std::uint32_t& g = group_of[find(i)];
    if (g == kAbsent) {
      g = static_cast<std::uint32_t>(offsets.size() - 1);
      offsets.push_back(0);
    }
    ++offsets[g + 1];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<Ipv4Addr> members(nodes.size());
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::uint32_t i = 0; i < nodes.size(); ++i) {
    members[cursor[group_of[find(i)]]++] = nodes[i];
  }
  // BDRMAP_HOT_END(alias_closure)
  return AliasGroups(std::move(offsets), std::move(members));
}

}  // namespace bdrmap::core
