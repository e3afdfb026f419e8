// APAR/kapar-style analytic alias inference (Gunes & Sarac [16], Keys [19]).
//
// Works from the traces alone — no probing — which matters twice: routers
// that ignore alias probes entirely (the §5.4.7 motivation) and offline
// re-analysis of archived measurements. The core inference mirrors
// prefixscan's assumption analytically: if hop x is immediately followed by
// hop y, and the /31 (or /30) subnet mate of y is itself an address
// observed somewhere in the traces, then that mate is x's interface on the
// x-y point-to-point link — i.e. mate(y) and x alias. Acceptance rules
// guard against false subnets: an inferred alias pair must never appear at
// different positions of one trace (a router does not appear twice on a
// loop-free path), and the mate must not be observed adjacent to y in the
// same direction (two sides of one subnet cannot be consecutive hops).
#pragma once

#include <vector>

#include "core/alias_resolution.h"
#include "core/observations.h"

namespace bdrmap::core {

struct AparStats {
  std::size_t adjacencies = 0;      // consecutive hop pairs examined
  std::size_t mates_observed = 0;   // subnet mates present in the traces
  std::size_t accepted = 0;         // alias pairs declared
  std::size_t vetoed_same_trace = 0;
  std::size_t vetoed_adjacent = 0;
};

// Runs the analysis over `traces` and records accepted pairs in `resolver`
// (as kAlias verdicts) without consuming any probe budget. Existing
// negative verdicts in the resolver are honored (never overwritten).
AparStats run_apar(const SharedTraces& traces,
                   AliasResolver& resolver);

}  // namespace bdrmap::core
