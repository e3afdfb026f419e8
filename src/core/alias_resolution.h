// Alias resolution: Ally, Mercator, MIDAR monotonicity, prefixscan, and the
// conflict-aware transitive closure (§5.3).
//
// Ally infers a shared central IP-ID counter from interleaved samples; we
// apply MIDAR's stricter test (non-overlapping samples must strictly
// increase, modulo one 16-bit wrap) and repeat the measurement five times at
// five-minute (virtual) intervals, discarding pairs any round rejects —
// exactly the paper's defence against coincidentally-overlapping counters.
// Mercator compares the source address of UDP port-unreachable replies.
// Prefixscan tests whether a traceroute hop is the inbound interface of a
// /30 or /31 point-to-point subnet by checking its subnet mate against the
// previous hop. The closure only merges pairs with no negative evidence,
// and it unites the positive pairs in ascending pair_key order, so the
// groups are a function of the verdicts alone: neither the order pairs were
// tested or declared in nor any container's iteration order moves them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netbase/flat_memo.h"
#include "netbase/ipv4.h"
#include "netbase/prefix.h"
#include "probe/types.h"

namespace bdrmap::core {

using net::Ipv4Addr;

enum class AliasVerdict : std::uint8_t { kUnknown, kAlias, kNotAlias };

// The key of an unordered address pair: (low << 32) | high. A pair test
// keys its probe draws on it, and the closure unites positive pairs in
// ascending key order.
inline std::uint64_t pair_key(Ipv4Addr a, Ipv4Addr b) {
  const std::uint64_t lo = std::min(a.value(), b.value());
  const std::uint64_t hi = std::max(a.value(), b.value());
  return (lo << 32) | hi;
}

// True iff a sorted routing footprint holds one of the sorted `changed`
// keys a churn event moved (serve::apply_event): whatever read that
// footprint may have moved.
inline bool footprint_meets(std::span<const std::uint64_t> footprint,
                            std::span<const std::uint64_t> changed) {
  return std::any_of(changed.begin(), changed.end(), [&](std::uint64_t k) {
    return std::binary_search(footprint.begin(), footprint.end(), k);
  });
}

// What one VP's alias probing measured: pair verdicts by pair_key and
// Mercator reply sources by address. Each entry is a pure function of the
// probe stack's seed, its key and the forwarding state, so a resolver that
// finds an entry here uses it instead of probing again. runtime::SliceStore
// keeps one per VP across runs (docs/serving.md §4).
struct AliasEvidence {
  std::unordered_map<std::uint64_t, AliasVerdict> verdicts;
  std::unordered_map<Ipv4Addr, std::optional<Ipv4Addr>> udp_sources;
  // The routing footprint (probe::ProbeServices::addr_footprint) of every
  // address in udp_sources, flat and in probe order: address
  // footprint_addrs[i] read the sorted keys
  // footprint_keys[footprint_offsets[i], footprint_offsets[i + 1]).
  // test_pair runs Mercator on both addresses before it stores a verdict,
  // so these footprints cover every entry. A resolver fills them only for
  // evidence it was handed.
  std::vector<Ipv4Addr> footprint_addrs;
  std::vector<std::uint32_t> footprint_offsets{0};
  std::vector<std::uint64_t> footprint_keys;

  // Drops the Mercator source, the footprint and every verdict of each
  // address whose footprint meets `changed` (sorted routing keys). Returns
  // how many addresses moved.
  std::size_t drop_moved(std::span<const std::uint64_t> changed);
};

class AliasResolver {
 public:
  // `evidence`, when set, is consulted before probing and receives every
  // new measurement with its routing footprint; it must outlive the
  // resolver. Without it (a cold run that keeps nothing) the verdicts live
  // in the resolver's sorted list alone and the Mercator sources in a flat
  // per-run memo.
  explicit AliasResolver(probe::ProbeServices& services,
                         AliasEvidence* evidence = nullptr)
      : services_(services), evidence_(evidence) {}
  AliasResolver(const AliasResolver&) = delete;
  AliasResolver& operator=(const AliasResolver&) = delete;

  // Full pair test: Mercator first (cheap), then Ally+MIDAR. Results and
  // negative evidence are recorded for the closure. Cached per pair. The
  // verdict is a pure function of the stack's seed, the pair and the
  // forwarding state: it does not depend on the pairs tested before, so
  // a verdict found in the evidence is reused without probing.
  AliasVerdict test_pair(Ipv4Addr a, Ipv4Addr b);

  // Individual techniques (also exposed for tests and ablation). Mercator
  // probes each address once per evidence; every ally() call is one fresh
  // measurement keyed by pair_key(a, b), sampled in address order on a
  // pair-local virtual clock that starts at 0.
  AliasVerdict mercator(Ipv4Addr a, Ipv4Addr b);
  AliasVerdict ally(Ipv4Addr a, Ipv4Addr b);

  // Prefixscan: if `hop` has a /31 or /30 subnet mate that is an alias of
  // `prev_hop`, returns the mate — evidence that prev_hop—hop is a
  // point-to-point interdomain link and `hop` is the inbound interface.
  std::optional<Ipv4Addr> prefixscan(Ipv4Addr prev_hop, Ipv4Addr hop);

  // Records an externally-derived verdict (e.g. from prefixscan) so the
  // closure can use it.
  void declare(Ipv4Addr a, Ipv4Addr b, AliasVerdict v);

  // Cached verdict for a pair (kUnknown when untested). Never probes.
  AliasVerdict verdict_of(Ipv4Addr a, Ipv4Addr b) const;

  // Every recorded pair verdict in ascending pair_key order, for the
  // alias-consistency invariant pass (check::pass_id::kAliasConsistency).
  struct PairVerdict {
    Ipv4Addr a, b;
    AliasVerdict verdict;
  };
  std::vector<PairVerdict> all_verdicts() const;

  // Partitions the distinct `addrs` into alias groups: transitive closure
  // over positive pairs, refusing any union between components that
  // contain a negative pair (§5.3 "only used pairs where none of the
  // measurements suggested a pair of IP addresses were not aliases").
  // Positives unite in ascending pair_key order. The groups come out
  // ordered by first member, each sorted.
  std::vector<std::vector<Ipv4Addr>> groups(
      const std::vector<Ipv4Addr>& addrs) const;

  // Pairs this resolver consulted (tested, reused or declared), and how
  // many of the tested ones came from the evidence without probing.
  std::size_t pair_tests() const { return verdicts_.size(); }
  std::size_t pairs_reused() const { return pairs_reused_; }

 private:
  probe::ProbeServices& services_;
  AliasEvidence* evidence_;  // nullable
  // Mercator reply source by address, when there is no evidence to keep.
  net::FlatMemo<std::optional<Ipv4Addr>> udp_sources_;
  std::vector<std::uint64_t> footprint_;  // scratch for addr_footprint
  // The verdicts of this run, sorted by pair_key: what groups() closes
  // over.
  std::vector<std::pair<std::uint64_t, AliasVerdict>> verdicts_;
  std::size_t pairs_reused_ = 0;
};

}  // namespace bdrmap::core
