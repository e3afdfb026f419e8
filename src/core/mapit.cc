#include "core/mapit.h"

#include <algorithm>
#include <map>
#include <set>

namespace bdrmap::core {

namespace {

constexpr int kMaxPasses = 8;
// Fraction of a candidate's neighbor labels that must agree before the
// interface is relabeled.
constexpr double kMajority = 0.66;

}  // namespace

MapItResult run_mapit(const SharedTraces& traces,
                      const asdata::OriginTable& origins) {
  MapItResult result;

  // Interface graph: successors and predecessors per address.
  std::map<Ipv4Addr, std::set<Ipv4Addr>> successors, predecessors;
  for (const auto& trace : traces) {
    Ipv4Addr prev;
    bool prev_valid = false;
    for (const auto& hop : trace.hops) {
      if (hop.kind != probe::ReplyKind::kTimeExceeded) {
        prev_valid = false;
        continue;
      }
      result.owners.insert_first(hop.addr, origins.origin(hop.addr));
      if (prev_valid && prev != hop.addr) {
        successors[prev].insert(hop.addr);
        predecessors[hop.addr].insert(prev);
      }
      prev = hop.addr;
      prev_valid = true;
    }
  }
  for (const auto& [addr, owner] : result.owners) {
    if (!successors.count(addr)) ++result.terminal_interfaces;
  }

  // Multipass relabeling: an interface is the far side of a border link
  // when the dominant label among its successors differs from its own and
  // its predecessors side with its current (near) mapping.
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    ++result.passes_run;
    bool changed = false;
    OwnerTable next = result.owners;
    for (const auto& [addr, label] : result.owners) {
      auto succ_it = successors.find(addr);
      if (succ_it == successors.end()) continue;  // path end: no constraint
      // Dominant successor label.
      std::map<AsId, std::size_t> votes;
      std::size_t total = 0;
      for (Ipv4Addr s : succ_it->second) {
        AsId v = result.owners.at(s);
        if (!v.valid()) continue;
        ++votes[v];
        ++total;
      }
      if (total == 0) continue;
      AsId dominant;
      std::size_t best = 0;
      for (const auto& [as, count] : votes) {
        if (count > best) {
          dominant = as;
          best = count;
        }
      }
      if (!dominant.valid() || dominant == label) continue;
      if (static_cast<double>(best) <
          kMajority * static_cast<double>(total)) {
        continue;
      }
      // The border moves by exactly one interface: an address is the far
      // half of an A-B link only when nothing after it still maps to A in
      // BGP. Without this, relabeling cascades back up the path.
      AsId own_origin = origins.origin(addr);
      bool own_space_follows = false;
      for (Ipv4Addr s : succ_it->second) {
        own_space_follows |= own_origin.valid() &&
                             origins.origin(s) == own_origin;
      }
      if (own_space_follows) continue;
      next.assign(addr, dominant);
      changed = true;
    }
    result.owners = std::move(next);
    if (!changed) break;
  }

  // Count relabels relative to the plain mapping.
  for (const auto& [addr, label] : result.owners) {
    if (label != origins.origin(addr)) ++result.relabeled;
  }
  return result;
}

}  // namespace bdrmap::core
