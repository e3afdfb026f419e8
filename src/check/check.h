// Cross-layer invariant checking ("bdrmap-verify").
//
// bdrmap's inference is only as good as the structural invariants of its
// inputs and intermediate products: relationship symmetry and Gao-Rexford
// consistency in the AS graph (§3), valley-free RIB paths and FIB/RIB
// agreement in the routing substrate, alias-set and router-graph
// well-formedness (§5.3), and the precondition/owner discipline of the
// §5.4 heuristics. Silent violations of any of these corrupt every
// downstream border inference, so this subsystem makes them machine-checked:
// an InvariantChecker holds registered passes, each of which audits the
// slice of a CheckContext it understands and emits structured Violation
// records consumable by tests, tools/bdrmap_sim --audit, and
// tools/invariant_audit.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "asdata/as_relationships.h"
#include "core/alias_resolution.h"
#include "core/bdrmap.h"
#include "core/heuristics.h"
#include "core/router_graph.h"
#include "route/bgp_sim.h"
#include "route/fib.h"
#include "topo/internet.h"

namespace bdrmap::check {

enum class Severity : std::uint8_t { kWarning, kError };

const char* severity_name(Severity s);

// One detected invariant violation, attributed to the pass that found it
// and the entity (AS pair, router, address, link...) at fault.
struct Violation {
  std::string pass_id;
  Severity severity = Severity::kError;
  std::string entity;  // culprit: "AS12<->AS7", "router#42", "10.0.0.1"
  std::string detail;  // what exactly is inconsistent
};

// Everything a pass may audit. All pointers are optional and non-owning; a
// pass whose required slices are absent is skipped (and reported as such).
struct CheckContext {
  // --- substrate layer ---
  const topo::Internet* net = nullptr;
  // Relationship input under audit. For substrate audits this is the ground
  // truth store; for inference audits it is the *inferred* store the
  // heuristics actually consume.
  const asdata::RelationshipStore* rels = nullptr;
  const route::BgpSimulator* bgp = nullptr;
  const route::Fib* fib = nullptr;

  // --- inference layer ---
  const core::RouterGraph* graph = nullptr;
  const core::BdrmapResult* result = nullptr;
  const core::InferenceInputs* inputs = nullptr;
  const core::AliasResolver* aliases = nullptr;
  const core::AliasGroups* alias_groups = nullptr;

  // Sampling bounds for the quadratic route-level checks. Deterministic for
  // a given sample_seed.
  std::size_t max_route_pairs = 2000;
  std::size_t max_fib_walks = 400;
  std::size_t max_walk_hops = 96;  // loop bound for forwarding walks
  std::uint64_t sample_seed = 1;

  // The router graph to audit: explicit `graph` wins, else the result's.
  const core::RouterGraph* effective_graph() const {
    if (graph != nullptr) return graph;
    return result != nullptr ? &result->graph : nullptr;
  }
};

// Where passes report findings; enforces a per-pass cap so a systemically
// corrupt input produces a bounded report instead of millions of records.
class ViolationSink {
 public:
  ViolationSink(std::string pass_id, std::vector<Violation>& out,
                std::size_t cap = kDefaultCap);

  void error(std::string entity, std::string detail) {
    emit(Severity::kError, std::move(entity), std::move(detail));
  }
  void warn(std::string entity, std::string detail) {
    emit(Severity::kWarning, std::move(entity), std::move(detail));
  }

  // Total violations seen, including ones dropped by the cap.
  std::size_t seen() const { return seen_; }

  static constexpr std::size_t kDefaultCap = 200;

 private:
  void emit(Severity sev, std::string entity, std::string detail);

  std::string pass_id_;
  std::vector<Violation>& out_;
  std::size_t cap_;
  std::size_t seen_ = 0;
};

struct CheckReport {
  std::vector<Violation> violations;
  std::vector<std::string> passes_run;
  std::vector<std::string> passes_skipped;  // required inputs absent

  bool clean() const { return violations.empty(); }
  std::size_t error_count() const;
  std::size_t count(std::string_view pass_id) const;
  std::vector<const Violation*> of_pass(std::string_view pass_id) const;
  // Human-readable multi-line summary (one line per violation).
  std::string summary() const;
};

// Built-in pass identifiers.
namespace pass_id {
inline constexpr std::string_view kAsGraphSymmetry = "as-graph.symmetry";
inline constexpr std::string_view kAsGraphGaoRexford = "as-graph.gao-rexford";
inline constexpr std::string_view kRibValleyFree = "rib.valley-free";
inline constexpr std::string_view kFibRibAgreement = "fib.rib-agreement";
inline constexpr std::string_view kRouterGraphStructure =
    "router-graph.structure";
inline constexpr std::string_view kAliasConsistency = "alias.consistency";
inline constexpr std::string_view kOwnerAssignment = "owner.assignment";
inline constexpr std::string_view kHeuristicPreconditions =
    "heuristic.preconditions";
}  // namespace pass_id

class InvariantChecker {
 public:
  using PassFn = std::function<void(const CheckContext&, ViolationSink&)>;
  using Gate = std::function<bool(const CheckContext&)>;

  struct Pass {
    std::string id;
    std::string description;
    Gate applicable;  // true when the context carries the needed inputs
    PassFn run;
  };

  // Constructs a checker with every built-in pass registered.
  InvariantChecker();

  // Registers an additional (or project-specific) pass. Ids are unique;
  // re-registering an id replaces the pass.
  void register_pass(Pass pass);

  const std::vector<Pass>& passes() const { return passes_; }
  const Pass* find(std::string_view id) const;

  // Runs every applicable pass (or only `ids` when non-empty; unknown ids
  // are reported as skipped).
  CheckReport run(const CheckContext& ctx,
                  const std::vector<std::string>& ids = {}) const;

 private:
  std::vector<Pass> passes_;
};

// --- convenience context builders ---

// Audits the routing substrate: AS graph, RIB, FIB.
CheckContext substrate_context(const topo::Internet& net,
                               const route::BgpSimulator& bgp,
                               const route::Fib& fib);

// Audits one VP's inference output against the inputs it consumed.
CheckContext inference_context(const core::BdrmapResult& result,
                               const core::InferenceInputs& inputs);

}  // namespace bdrmap::check
