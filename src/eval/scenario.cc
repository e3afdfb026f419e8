#include "eval/scenario.h"

namespace bdrmap::eval {

namespace {

ScenarioSpec custom_spec(const topo::GeneratorConfig& config,
                         const route::CollectorConfig& collector_config) {
  ScenarioSpec spec;
  spec.config = config;
  spec.collectors = collector_config;
  return spec;
}

}  // namespace

Scenario::Scenario(const topo::GeneratorConfig& config,
                   const route::CollectorConfig& collector_config,
                   const route::FibOptions& fib_options)
    : Scenario(custom_spec(config, collector_config), fib_options) {}

Scenario::Scenario(const ScenarioSpec& spec,
                   const route::FibOptions& fib_options)
    : spec_(spec), gen_(topo::generate(spec.config)) {
  // Control-plane mutations run before the routing substrate is built so
  // the FIB and collector view see the poisoned announcements.
  const AdversarySpec& adv = spec_.adversary;
  if (adv.hijacked_prefixes > 0) {
    hijacks_ = inject_hijacks(gen_.net, first_of(spec_.vp_kind),
                              adv.hijacked_prefixes, adv.seed);
  }
  if (adv.anycast_prefixes > 0) {
    anycasts_ = inject_anycast(gen_.net, adv.anycast_prefixes, adv.seed);
  }
  route::BgpPolicy policy;
  if (adv.route_leakers > 0) {
    policy.leakers = pick_route_leakers(gen_.net, adv.route_leakers);
  }
  // One registry handle covers the whole routing substrate: the BGP
  // simulator inherits whatever FibOptions carries.
  bgp_ = std::make_unique<route::BgpSimulator>(gen_.net, std::move(policy),
                                               fib_options.metrics);
  fib_ = std::make_unique<route::Fib>(gen_.net, *bgp_, fib_options);
  collectors_ = std::make_unique<route::CollectorView>(gen_.net, *bgp_,
                                                       spec_.collectors);
  asdata::RelationshipInferenceConfig ric;
  ric.clique_seed_size = spec_.config.num_tier1;
  inferred_rels_ = collectors_->infer_relationships(ric);
  if (adv.corruption.any()) {
    // Every VP-hosting AS is an operator with curated self-knowledge, so
    // its own records survive the corruption (see corrupt_inputs).
    std::vector<net::AsId> vp_hosts;
    for (const auto& vp : gen_.vps) {
      if (std::find(vp_hosts.begin(), vp_hosts.end(), vp.as) ==
          vp_hosts.end()) {
        vp_hosts.push_back(vp.as);
      }
    }
    corrupted_ = corrupt_inputs(gen_.net, collectors_->public_origins(),
                                inferred_rels_, adv.corruption, vp_hosts);
  }
}

core::InferenceInputs Scenario::inputs_for(net::AsId as) const {
  core::InferenceInputs in;
  if (corrupted_.has_value()) {
    in.origins = &corrupted_->origins;
    in.rels = &corrupted_->rels;
    in.ixps = &corrupted_->ixps;
    in.rir = &corrupted_->rir;
    in.siblings = &corrupted_->siblings;
    // The VP's own sibling list is operator-curated (§5.2), so it stays
    // truthful even when the public AS-to-org data is corrupted.
    in.vp_ases = gen_.net.sibling_table().siblings_of(as);
  } else {
    in.origins = &collectors_->public_origins();
    in.rels = &inferred_rels_;
    in.ixps = &gen_.net.ixp_directory();
    in.rir = &gen_.net.rir();
    in.siblings = &gen_.net.sibling_table();
    in.vp_ases = gen_.net.sibling_table().siblings_of(as);
  }
  // Primary AS first (§5.2: curated list for the hosting network).
  auto it = std::find(in.vp_ases.begin(), in.vp_ases.end(), as);
  if (it != in.vp_ases.end()) std::iter_swap(in.vp_ases.begin(), it);
  return in;
}

std::vector<topo::Vp> Scenario::vps_in(net::AsId as) const {
  std::vector<topo::Vp> out;
  for (const auto& vp : gen_.vps) {
    if (vp.as == as) out.push_back(vp);
  }
  return out;
}

std::unique_ptr<probe::LocalProbeServices> Scenario::services_for(
    const topo::Vp& vp, std::uint64_t seed,
    probe::TracerConfig tracer) const {
  // Spec-level reply spoofing applies unless the caller configured its own.
  if (tracer.spoof_reply_p <= 0.0) {
    tracer.spoof_reply_p = spec_.adversary.spoof_reply_p;
  }
  return std::make_unique<probe::LocalProbeServices>(gen_.net, *fib_, vp,
                                                     seed, tracer);
}

core::BdrmapResult Scenario::run_bdrmap(const topo::Vp& vp,
                                        core::BdrmapConfig config,
                                        std::uint64_t seed,
                                        probe::TracerConfig tracer) const {
  return std::move(
      run_bdrmap_parallel({vp}, config, seed, nullptr, tracer).per_vp.front());
}

runtime::MultiVpResult Scenario::run_bdrmap_parallel(
    const std::vector<topo::Vp>& vps, core::BdrmapConfig config,
    std::uint64_t base_seed, runtime::ThreadPool* pool,
    probe::TracerConfig tracer) const {
  // Obs runs get probe counters for free: wire the run's registry into the
  // probe stacks unless the caller supplied one explicitly.
  if (!tracer.metrics && config.obs) tracer.metrics = config.obs->registry();
  std::vector<runtime::VpJob> jobs;
  jobs.reserve(vps.size());
  for (const topo::Vp& vp : vps) {
    runtime::VpJob job;
    job.make_services = [this, vp, tracer](std::uint64_t seed)
        -> std::unique_ptr<probe::ProbeServices> {
      return services_for(vp, seed, tracer);
    };
    job.inputs = inputs_for(vp.as);
    jobs.push_back(std::move(job));
  }
  return runtime::MultiVpExecutor(pool).run(jobs, config, base_seed);
}

net::AsId Scenario::first_of(topo::AsKind kind, std::size_t index) const {
  std::size_t seen = 0;
  for (const auto& info : gen_.net.ases()) {
    if (info.kind == kind) {
      if (seen == index) return info.id;
      ++seen;
    }
  }
  return net::AsId{};
}

net::AsId Scenario::featured_access() const {
  return first_of(topo::AsKind::kAccess);
}
net::AsId Scenario::level3_like() const {
  return first_of(topo::AsKind::kTier1);
}
net::AsId Scenario::akamai_like() const {
  return first_of(topo::AsKind::kContent);
}
net::AsId Scenario::google_like() const {
  return first_of(topo::AsKind::kContent, 1);
}

topo::GeneratorConfig research_education_config(std::uint64_t seed) {
  // A small Internet where the VP network is an R&E network with tens of
  // customers, a couple of peers and one provider (§5.6's first network).
  topo::GeneratorConfig c;
  c.seed = seed;
  c.num_tier1 = 6;
  c.num_transit = 18;
  c.num_access = 4;
  c.num_content = 8;
  c.num_research_edu = 4;
  c.num_enterprise = 120;
  c.num_ixps = 3;
  // The paper's R&E network had ~30 customers, 2 peers, 1 provider.
  c.featured_ren_customer_weight = 30.0;
  return c;
}

topo::GeneratorConfig large_access_config(std::uint64_t seed) {
  // The §6 deployment: a 19-PoP US access network with dense Tier-1
  // peering and CDN interconnection.
  topo::GeneratorConfig c;
  c.seed = seed;
  return c;  // defaults are tuned for this scenario
}

topo::GeneratorConfig tier1_config(std::uint64_t seed) {
  // A larger Internet where the VP sits inside a Tier-1 with many hundreds
  // of customers (§5.6's Tier-1 network, scaled down ~5x).
  topo::GeneratorConfig c;
  c.seed = seed;
  c.num_transit = 48;
  c.num_enterprise = 380;
  c.num_content = 16;
  return c;
}

topo::GeneratorConfig small_access_config(std::uint64_t seed) {
  topo::GeneratorConfig c;
  c.seed = seed;
  c.num_tier1 = 5;
  c.num_transit = 14;
  c.num_access = 6;
  c.num_content = 6;
  c.num_research_edu = 2;
  c.num_enterprise = 80;
  c.num_ixps = 2;
  c.featured_access_pops = 4;  // a small regional access network
  return c;
}

topo::GeneratorConfig scale_config(std::uint64_t seed) {
  // Thousands of ASes: enough distinct §5.3 target ASes that a run
  // yields hundreds of slice tasks per VP. Enterprise stubs dominate, as
  // in the real routing table.
  topo::GeneratorConfig c;
  c.seed = seed;
  c.num_tier1 = 8;
  c.num_transit = 64;
  c.num_access = 12;
  c.num_content = 20;
  c.num_research_edu = 8;
  c.num_enterprise = 2000;
  c.num_ixps = 5;
  return c;
}

}  // namespace bdrmap::eval
