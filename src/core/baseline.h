// Naive IP-AS baseline (the method bdrmap improves upon).
//
// The canonical approach (§3, §4): map every traceroute address to the
// origin AS of its longest matching BGP prefix, and call every consecutive
// hop pair with different origins an interdomain link. No alias resolution,
// no third-party handling, no relationship constraints. Huffaker et al.'s
// best router-ownership heuristic validated at 71% [17]; this baseline is
// the comparison point for bench_baseline.
#pragma once

#include <vector>

#include "asdata/bgp_origins.h"
#include "core/observations.h"
#include "core/owner_table.h"

namespace bdrmap::core {

struct BaselineLink {
  Ipv4Addr near_addr;
  Ipv4Addr far_addr;
  AsId near_as;
  AsId far_as;
};

struct BaselineResult {
  // Inferred owner per observed time-exceeded address: the origin of the
  // longest matching prefix (kNoAs when unrouted). Sorted flat vector with
  // std::map-identical contents and iteration order (owner_table.h).
  OwnerTable owners;
  // Consecutive-hop pairs whose IP-AS mappings differ, with the VP network
  // on the near side.
  std::vector<BaselineLink> links;
};

BaselineResult naive_ip_as(const SharedTraces& traces,
                           const asdata::OriginTable& origins,
                           const std::vector<AsId>& vp_ases);

}  // namespace bdrmap::core
