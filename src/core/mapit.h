// MAP-IT-style interface-ownership inference (Marder & Smith [30]) as a
// comparison method.
//
// MAP-IT works on the interface-level graph: an interface whose IP-AS
// mapping says A but whose *subsequent* interfaces consistently map to B is
// inferred to be the far side of an A-B interdomain link, operated by B
// (B numbered it from A's space). The inference runs in passes until a
// fixed point, each pass using the labels of the previous one. The paper's
// §3 critique — "half the interdomain links in our inferences are at the
// end of paths, with no adjacent addresses in neighbor address space" — is
// directly measurable here: interfaces with no successors keep their
// (frequently wrong) IP-AS label.
#pragma once

#include "asdata/bgp_origins.h"
#include "core/observations.h"
#include "core/owner_table.h"

namespace bdrmap::core {

struct MapItResult {
  // Final owner label per observed (time-exceeded) interface address.
  // Sorted flat vector with std::map-identical contents and iteration
  // order (owner_table.h).
  OwnerTable owners;
  // Interfaces whose label changed from the plain IP-AS mapping.
  std::size_t relabeled = 0;
  // Interfaces that were terminal in every trace (no successors): the
  // constraint-free population the paper's critique concerns.
  std::size_t terminal_interfaces = 0;
  std::size_t passes_run = 0;
};

MapItResult run_mapit(const SharedTraces& traces,
                      const asdata::OriginTable& origins);

}  // namespace bdrmap::core
