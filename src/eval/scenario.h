// Scenario wiring: generator → routing → collectors → inference inputs.
//
// Bundles everything a bdrmap experiment needs: the synthetic Internet, the
// BGP/FIB substrate, the simulated public BGP view, the inferred
// relationships, and a factory for per-VP inference inputs. Named scenario
// configurations approximate the four validation networks of §5.6 plus the
// §6 access-network deployment.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/bdrmap.h"
#include "core/heuristics.h"
#include "eval/adversary.h"
#include "probe/alias.h"
#include "route/collectors.h"
#include "route/fib.h"
#include "runtime/multi_vp.h"
#include "topo/generator.h"

namespace bdrmap::eval {

// The full description of one named scenario family: topology, collector
// view, VP placement, adversarial layers, and the accuracy floors the
// validation bench and the fuzzer gate on. scenario_registry.h constructs
// these by name.
struct ScenarioSpec {
  std::string name = "custom";
  std::string description;
  topo::GeneratorConfig config;
  route::CollectorConfig collectors;
  topo::AsKind vp_kind = topo::AsKind::kAccess;
  // How many VPs bench_validation runs for this family (the paper used 3
  // for the large access network, 1 elsewhere).
  std::size_t bench_vp_count = 1;
  AdversarySpec adversary;
  // Link-accuracy gates: `link_accuracy_floor` applies at the canonical
  // bench seed (42); `fuzz_floor` is the looser bound for
  // fuzzer-randomized topologies.
  double link_accuracy_floor = 0.9;
  double fuzz_floor = 0.75;
};

class Scenario {
 public:
  // fib_options wires the forwarding plane's route.fib.* metrics into a
  // run's registry (FibOptions::metrics).
  explicit Scenario(const topo::GeneratorConfig& config,
                    const route::CollectorConfig& collector_config = {},
                    const route::FibOptions& fib_options = {});

  // Builds a (possibly adversarial) named scenario: applies the spec's
  // control-plane mutations before constructing the routing substrate,
  // hands the route-leak policy to the BGP simulator, and — when the spec
  // carries corruption rates — derives noisy copies of the inference
  // inputs that inputs_for() then serves instead of the clean ones.
  explicit Scenario(const ScenarioSpec& spec,
                    const route::FibOptions& fib_options = {});

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  const topo::Internet& net() const { return gen_.net; }
  const std::vector<topo::Vp>& vps() const { return gen_.vps; }
  const route::BgpSimulator& bgp() const { return *bgp_; }
  const route::Fib& fib() const { return *fib_; }
  // Mutable substrate access for the serve engine: churn events mutate the
  // scenario's own BGP/FIB overlays (quiescence contract in route/fib.h).
  // Everything else should stick to the const accessors above.
  route::BgpSimulator& bgp_mutable() { return *bgp_; }
  route::Fib& fib_mutable() { return *fib_; }
  const route::CollectorView& collectors() const { return *collectors_; }
  const asdata::RelationshipStore& inferred_rels() const {
    return inferred_rels_;
  }

  // The spec this scenario was built from (a synthesized "custom" spec for
  // the plain-config constructor) and the adversarial injection records.
  const ScenarioSpec& spec() const { return spec_; }
  const std::vector<HijackRecord>& hijacks() const { return hijacks_; }
  const std::vector<AnycastRecord>& anycasts() const { return anycasts_; }
  bool inputs_corrupted() const { return corrupted_.has_value(); }

  // The inference inputs a VP in `as` receives: public origins, inferred
  // relationships, IXP/RIR data, and the curated sibling list of the VP's
  // organization (§5.2).
  core::InferenceInputs inputs_for(net::AsId as) const;

  // VPs hosted by `as`.
  std::vector<topo::Vp> vps_in(net::AsId as) const;

  // A fresh probe stack for one VP.
  std::unique_ptr<probe::LocalProbeServices> services_for(
      const topo::Vp& vp, std::uint64_t seed = 0x515,
      probe::TracerConfig tracer = {}) const;

  // Runs the full bdrmap pipeline for one VP: a one-VP slice plan, i.e.
  // run_bdrmap_parallel({vp}, config, seed).per_vp[0].
  core::BdrmapResult run_bdrmap(const topo::Vp& vp,
                                core::BdrmapConfig config = {},
                                std::uint64_t seed = 0x515,
                                probe::TracerConfig tracer = {}) const;

  // Runs bdrmap for many VPs on the pool (sequentially when pool is
  // null): a cold runtime::MultiVpExecutor run, keeping no slices. Slice
  // (VP i, target AS) and VP i's inference tail draw from seeds keyed by
  // (base_seed, i, AS) and (base_seed, i), so the result is byte-identical
  // at any worker count, and equals serve::ServeEngine's rebuild_full()
  // with the same base seed. The merged reduction is in VP order. Safe
  // because every slice gets a private probe stack and the shared
  // substrate (FIB / BGP route caches) is internally locked.
  runtime::MultiVpResult run_bdrmap_parallel(
      const std::vector<topo::Vp>& vps, core::BdrmapConfig config = {},
      std::uint64_t base_seed = 0x515, runtime::ThreadPool* pool = nullptr,
      probe::TracerConfig tracer = {}) const;

  // Featured networks (see DESIGN.md).
  net::AsId featured_access() const;   // the §6 large access network
  net::AsId level3_like() const;       // its Tier-1 peer (~45 links)
  net::AsId akamai_like() const;       // selective-announcement CDN
  net::AsId google_like() const;       // coastal CDN
  net::AsId first_of(topo::AsKind kind, std::size_t index = 0) const;

 private:
  ScenarioSpec spec_;
  topo::GeneratedInternet gen_;
  std::vector<HijackRecord> hijacks_;
  std::vector<AnycastRecord> anycasts_;
  std::unique_ptr<route::BgpSimulator> bgp_;
  std::unique_ptr<route::Fib> fib_;
  std::unique_ptr<route::CollectorView> collectors_;
  asdata::RelationshipStore inferred_rels_;
  // Present iff the spec carries corruption rates; inputs_for() serves
  // these noisy copies instead of the clean stores.
  std::optional<CorruptedInputs> corrupted_;
};

// Named configurations approximating the paper's networks. All are
// deterministic for a given seed.
topo::GeneratorConfig research_education_config(std::uint64_t seed = 1);
topo::GeneratorConfig large_access_config(std::uint64_t seed = 1);
topo::GeneratorConfig tier1_config(std::uint64_t seed = 1);
topo::GeneratorConfig small_access_config(std::uint64_t seed = 1);
// The scale topology (DESIGN.md §14): thousands of ASes, so the §5.3
// schedule is wide enough for probe-wave batching and (VP, target-AS)
// slicing to show up in wall-clock rather than drown in setup cost.
topo::GeneratorConfig scale_config(std::uint64_t seed = 1);

}  // namespace bdrmap::eval
