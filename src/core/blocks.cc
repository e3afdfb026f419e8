#include "core/blocks.h"

#include <algorithm>

namespace bdrmap::core {

std::vector<ProbeBlock> build_probe_blocks(
    const asdata::OriginTable& origins,
    const std::vector<net::AsId>& vp_ases) {
  auto is_vp = [&](net::AsId as) {
    return std::find(vp_ases.begin(), vp_ases.end(), as) != vp_ases.end();
  };

  auto all = origins.all_prefixes();  // lexicographic: parents before holes
  std::vector<ProbeBlock> out;
  std::vector<net::Prefix> holes;   // reused per prefix
  std::vector<net::Prefix> pieces;  // reused per prefix

  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& [prefix, origin_set] = all[i];
    // Skip prefixes originated (even partially) by the VP's network.
    bool vp_originated = false;
    for (net::AsId o : origin_set) vp_originated |= is_vp(o);
    if (vp_originated || origin_set.empty()) continue;

    // Direct more-specific holes: announced prefixes nested inside.
    holes.clear();
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      if (!prefix.contains(all[j].first)) break;  // sorted: nesting is a run
      if (all[j].first == prefix) continue;
      holes.push_back(all[j].first);
    }

    const net::AsId target = origin_set.front();
    pieces.clear();
    net::subtract_into(prefix, holes, pieces);
    for (const net::Prefix& piece : pieces) out.push_back({piece, target});
  }

  std::sort(out.begin(), out.end(), [](const ProbeBlock& a,
                                       const ProbeBlock& b) {
    if (a.target_as != b.target_as) return a.target_as < b.target_as;
    return a.prefix < b.prefix;
  });
  return out;
}

}  // namespace bdrmap::core
