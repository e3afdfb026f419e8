// Ground-truth scoring of bdrmap inferences (§5.6).
//
// Plays the role of the four cooperating operators in the paper: given the
// generator's Internet, it resolves each inferred router to the true
// router(s) holding its addresses, checks inferred owners at organization
// granularity (an inference naming a sibling of the true owner counts, as
// in the paper's validation), and resolves inferred interdomain links to
// ground-truth (near router, far router) pairs for the §6 analyses.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/bdrmap.h"
#include "topo/internet.h"

namespace bdrmap::eval {

using net::AsId;
using net::Ipv4Addr;
using net::RouterId;

// Outcome of validating one inferred neighbor router or link.
enum class Verdict : std::uint8_t {
  kCorrect,        // owner org matches the true operator's org
  kWrongAs,        // border correctly found, wrong organization
  kNotBorder,      // inferred interdomain link doesn't exist in truth
  kInconsistent,   // inferred router mixes addresses of several routers
};

struct RouterValidation {
  std::size_t graph_index = 0;
  AsId inferred_owner;
  AsId true_owner;
  core::Heuristic how = core::Heuristic::kNone;
  Verdict verdict = Verdict::kCorrect;
};

struct LinkTruth {
  std::size_t link_index = 0;     // into BdrmapResult::links
  RouterId near_router;           // ground-truth near-side router
  RouterId far_router;            // invalid for silent neighbors
  topo::LinkId truth_link;        // the physical interconnect, if resolved
  AsId inferred_as;
  bool correct = false;           // far org matches truth
};

struct ValidationSummary {
  std::size_t routers_total = 0;
  std::size_t routers_correct = 0;
  std::size_t links_total = 0;
  std::size_t links_correct = 0;
  std::vector<RouterValidation> routers;
  std::vector<LinkTruth> links;

  double router_accuracy() const {
    return routers_total == 0
               ? 0.0
               : static_cast<double>(routers_correct) /
                     static_cast<double>(routers_total);
  }
  double link_accuracy() const {
    return links_total == 0
               ? 0.0
               : static_cast<double>(links_correct) /
                     static_cast<double>(links_total);
  }
};

class GroundTruth {
 public:
  GroundTruth(const topo::Internet& net, AsId vp_as);

  // Majority true operator over an inferred router's addresses.
  std::optional<AsId> true_owner(std::span<const Ipv4Addr> addrs) const;

  // True router holding the majority of the addresses.
  std::optional<RouterId> true_router(std::span<const Ipv4Addr> addrs) const;

  bool same_org(AsId a, AsId b) const;

  // Scores every inferred neighbor router and link (§5.6's methodology).
  ValidationSummary validate(const core::BdrmapResult& result) const;

  // The VP network's true neighbor ASes with at least one interdomain link.
  std::vector<AsId> true_neighbors() const;

  AsId vp_as() const { return vp_as_; }

 private:
  const topo::Internet& net_;
  AsId vp_as_;
};

}  // namespace bdrmap::eval
