// MIDAR-style alias discovery: estimation -> discovery -> corroboration.
//
// The paper's alias toolbox (§5.3) builds on MIDAR [21], whose key insight
// is that a shared IP-ID counter makes two interfaces' ID time series one
// interleaved monotonic sequence — and that at Internet scale you cannot
// test all pairs, so you (1) estimate each address's counter velocity,
// (2) project counters to a common reference time and consider only
// addresses whose projections land close together as candidates (a sliding
// window over the 16-bit counter space), and (3) corroborate candidate
// pairs with the strict monotonic test. This module implements that
// pipeline against probe::ProbeServices, feeding its verdicts into the
// shared AliasResolver so the conflict-aware closure sees them alongside
// the topology-driven candidates.
#pragma once

#include <cstddef>
#include <vector>

#include "core/alias_resolution.h"

namespace bdrmap::core {

class MidarResolver {
 public:
  MidarResolver(probe::ProbeServices& services, AliasResolver& resolver)
      : services_(services), resolver_(resolver) {}

  // Runs the three stages over `addrs`. Verdicts are recorded in the
  // shared resolver; call resolver.groups(...) afterwards as usual.
  void resolve(const std::vector<Ipv4Addr>& addrs);

  struct Stats {
    std::size_t addresses = 0;       // input size
    std::size_t responsive = 0;      // answered estimation probes
    std::size_t monotonic = 0;       // usable (monotone, sane velocity)
    std::size_t candidate_pairs = 0; // discovery-stage output
    std::size_t confirmed = 0;       // corroborated aliases
  };
  const Stats& stats() const { return stats_; }

 private:
  probe::ProbeServices& services_;
  AliasResolver& resolver_;
  Stats stats_;
  double clock_ = 1000.0;  // distinct virtual epoch from the resolver's
};

}  // namespace bdrmap::core
