// Routing churn: typed events, their application to the routing substrate,
// and a seeded generator of event streams.
//
// A ChurnEvent models one control- or data-plane change between inference
// epochs: a BGP announcement or withdrawal, an interdomain link failing or
// recovering, or a business-relationship change (e.g. a customer depeering
// to settlement-free). apply_event() pushes the event into the
// route::BgpSimulator / route::Fib churn overlays and reports the keys the
// event moved; the serve engine dirties what read them (engine.h). The
// bit-identity gates are tests/serve_{incremental,churn_fuzz}_test.cc.
//
// Quiescence contract: events are applied strictly between epochs, never
// while probes are in flight (the executor's fork/join provides the
// happens-before edge).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "route/fib.h"

namespace bdrmap::serve {

enum class ChurnKind : std::uint8_t {
  kWithdraw,   // `prefix` leaves BGP (no less-specific fallback; serving.md)
  kAnnounce,   // `prefix` is (re-)announced
  kLinkDown,   // interdomain `link` fails (data plane only)
  kLinkUp,     // interdomain `link` recovers
  kRelChange,  // rel(as_a, as_b) becomes `new_rel`
};

const char* churn_kind_name(ChurnKind kind);

struct ChurnEvent {
  ChurnKind kind = ChurnKind::kWithdraw;
  net::Prefix prefix;                // kWithdraw / kAnnounce
  topo::LinkId link;                 // kLinkDown / kLinkUp
  net::AsId as_a, as_b;              // link endpoints, or the rel pair
  asdata::Relationship new_rel = asdata::Relationship::kNone;  // kRelChange
};

std::string describe(const ChurnEvent& e);

// Applies one event to the substrate's churn overlays. Requires quiescence
// (see above): no concurrent forwarding or route queries. Returns the
// sorted keys the event moved (route::Fib's key space): see
// BgpSimulator::set_relationship, Fib::set_link_state and
// Fib::set_prefix_withdrawn.
std::vector<std::uint64_t> apply_event(const ChurnEvent& e,
                                       route::BgpSimulator& bgp,
                                       route::Fib& fib);

// Deterministic churn generator for the daemon and the tests:
// walks the ground-truth topology and emits a reproducible, seeded stream
// of consistent events (never withdraws a withdrawn prefix, never fails a
// failed link; relationship flips toggle c2p edges to p2p and back, which
// cannot create provider cycles). Uses its own splitmix64 so BDR102 keeps
// holding for the serve module.
class ChurnStream {
 public:
  ChurnStream(const topo::Internet& net, std::uint64_t seed);

  // The next event. Contracts (BDRMAP_EXPECTS) if the topology offers no
  // churnable state at all (no announced prefixes and no interdomain links).
  ChurnEvent next();

 private:
  std::uint64_t next_u64();

  struct LinkState {
    topo::LinkId link;
    net::AsId as_a, as_b;
    bool down = false;
  };
  struct PrefixState {
    net::Prefix prefix;
    bool withdrawn = false;
  };
  struct RelState {
    net::AsId customer, provider;  // ground-truth c2p edge
    bool flipped = false;          // currently overridden to p2p
  };

  std::uint64_t state_;
  std::vector<LinkState> links_;
  std::vector<PrefixState> prefixes_;
  std::vector<RelState> rel_edges_;
};

}  // namespace bdrmap::serve
