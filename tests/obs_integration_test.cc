// Observability bit-identity contract (DESIGN.md §11): running the full
// pipeline with instrumentation enabled must produce EXACTLY the border
// map a bare run produces — obs is read-only telemetry, never an input to
// inference. Also checks that an instrumented full run actually records
// what the export gate (tools/check_obs.py) requires: every stage span and
// nonzero heuristic fire counters. Suite name carries "Obs" so check.sh's
// tsan pass picks the multi-VP test up.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "core/heuristics.h"
#include "eval/degradation.h"
#include "eval/scenario.h"
#include "eval/scenario_registry.h"
#include "obs/obs.h"
#include "runtime/thread_pool.h"
#include "serve/churn.h"
#include "serve/engine.h"

namespace bdrmap::core {
namespace {

obs::ObsOptions enabled_options() {
  obs::ObsOptions options;
  options.enabled = true;
  options.run_label = "integration";
  return options;
}

bool span_recorded(const std::vector<obs::SpanRecord>& spans,
                   const std::string& name) {
  for (const obs::SpanRecord& s : spans) {
    if (s.name == name) return true;
  }
  return false;
}

TEST(ObsIntegration, InstrumentedRunIsBitIdentical) {
  // Same seed, same topology; one run bare, one with the full obs bundle
  // threaded through Fib, BGP simulator, probe engine, and pipeline.
  eval::Scenario bare(eval::small_access_config(9));
  obs::Observability obs(enabled_options());
  route::FibOptions fib_options;
  fib_options.metrics = obs.registry();
  eval::Scenario instrumented(eval::small_access_config(9), {}, fib_options);

  auto vp = bare.vps_in(bare.featured_access()).front();
  BdrmapResult plain = bare.run_bdrmap(vp, {}, 77);

  BdrmapConfig config;
  config.obs = &obs;
  BdrmapResult traced = instrumented.run_bdrmap(vp, config, 77);

  EXPECT_TRUE(eval::same_border_map(plain, traced));
  EXPECT_EQ(plain.stats.probes_sent, traced.stats.probes_sent);
  EXPECT_EQ(plain.stats.traces, traced.stats.traces);
  EXPECT_EQ(plain.stats.routers, traced.stats.routers);
}

TEST(ObsIntegration, NullObsPointerMatchesDisabledBundle) {
  eval::Scenario s(eval::small_access_config(9));
  auto vp = s.vps_in(s.featured_access()).front();

  BdrmapResult with_null = s.run_bdrmap(vp, {}, 77);  // config.obs == nullptr
  obs::Observability disabled;  // enabled == false, null registry/tracer
  BdrmapConfig config;
  config.obs = &disabled;
  BdrmapResult with_disabled = s.run_bdrmap(vp, config, 77);
  EXPECT_TRUE(eval::same_border_map(with_null, with_disabled));
}

TEST(ObsIntegration, FullRunRecordsStageSpansAndHeuristicFires) {
  obs::Observability obs(enabled_options());
  route::FibOptions fib_options;
  fib_options.metrics = obs.registry();
  eval::Scenario s(eval::small_access_config(9), {}, fib_options);
  auto vp = s.vps_in(s.featured_access()).front();
  BdrmapConfig config;
  config.obs = &obs;
  BdrmapResult result = s.run_bdrmap(vp, config, 77);
  ASSERT_FALSE(result.links.empty());

  std::vector<obs::SpanRecord> spans = obs.tracer()->snapshot();
  for (const char* name :
       {"bdrmap.run", "stage.schedule", "stage.trace", "stage.alias",
        "stage.merge", "stage.heuristics"}) {
    EXPECT_TRUE(span_recorded(spans, name)) << name;
  }
  EXPECT_EQ(obs.tracer()->open_span_count(), 0u);

  obs::MetricsSnapshot snap = obs.registry()->snapshot();
  EXPECT_EQ(snap.counter("core.links"), result.links.size());
  EXPECT_EQ(snap.counter("core.traces"), result.stats.traces);
  EXPECT_GT(snap.counter("probe.traces"), 0u);
  EXPECT_GT(snap.counter("route.fib.routing_fills"), 0u);
  std::uint64_t rule_fires = 0;
  for (const std::string_view slug : heuristic_rule_slugs()) {
    rule_fires +=
        snap.counter("core.heuristic." + std::string(slug) + ".fires");
  }
  // A run that inferred links must have credited at least one rule.
  EXPECT_GT(rule_fires, 0u);
  // One confidence per neighbor router, filed under its Table 1 tag.
  std::uint64_t router_confidences = 0;
  for (const obs::HistogramSample& h : snap.histograms) {
    if (h.name.rfind("core.confidence.", 0) == 0 &&
        h.name != "core.confidence.silent" &&
        h.name != "core.confidence.other_icmp") {
      router_confidences += h.count;
    }
  }
  EXPECT_EQ(router_confidences, result.stats.neighbor_routers);
}

TEST(ObsIntegration, MultiVpInstrumentedRunIsBitIdentical) {
  eval::Scenario bare(eval::small_access_config(9));
  obs::Observability obs(enabled_options());
  route::FibOptions fib_options;
  fib_options.metrics = obs.registry();
  eval::Scenario instrumented(eval::small_access_config(9), {}, fib_options);

  auto vps = bare.vps_in(bare.featured_access());
  ASSERT_GT(vps.size(), 1u);

  runtime::ThreadPool bare_pool(2);
  runtime::MultiVpResult plain =
      bare.run_bdrmap_parallel(vps, {}, 0x99, &bare_pool);

  runtime::ThreadPool obs_pool(2, obs.registry());
  BdrmapConfig config;
  config.obs = &obs;
  runtime::MultiVpResult traced =
      instrumented.run_bdrmap_parallel(vps, config, 0x99, &obs_pool);

  ASSERT_EQ(plain.per_vp.size(), traced.per_vp.size());
  for (std::size_t i = 0; i < plain.per_vp.size(); ++i) {
    EXPECT_TRUE(eval::same_border_map(plain.per_vp[i], traced.per_vp[i]))
        << "VP " << i;
  }

  // The executor + per-VP spans all landed and closed.
  std::vector<obs::SpanRecord> spans = obs.tracer()->snapshot();
  EXPECT_TRUE(span_recorded(spans, "multi_vp.run"));
  EXPECT_TRUE(span_recorded(spans, "multi_vp.reduce"));
  std::size_t vp_runs = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == "vp.run") ++vp_runs;
  }
  EXPECT_EQ(vp_runs, vps.size());
  EXPECT_EQ(obs.tracer()->open_span_count(), 0u);

  // Pool counters landed in the shared registry: one task per VP plus the
  // slice chunks fanned out below them. The submitting thread helps drain
  // the queue, so executed (pool-side pops) can undercount.
  obs::MetricsSnapshot snap = obs.registry()->snapshot();
  EXPECT_GT(snap.counter("runtime.tasks_submitted"), vps.size());
  EXPECT_GT(snap.counter("runtime.tasks_executed"), 0u);
  EXPECT_LE(snap.counter("runtime.tasks_executed"),
            snap.counter("runtime.tasks_submitted"));
}

// The memo fill counters count the fill that publishes (the first writer
// of a race), so for one seed they are a function of the work, not of the
// workers: a 19-VP access build and six churn epochs (relationship flips
// and link events) read the same fills and the same tie histogram
// sequentially and on 4 workers. Hit counters depend on scheduling and
// are not compared.
TEST(ObsIntegration, MemoFillCountersIgnoreWorkerCount) {
  auto fills = [](unsigned threads) {
    obs::MetricsRegistry registry;
    route::FibOptions fib_options;
    fib_options.metrics = &registry;
    const auto spec = eval::scenario_spec("access", 3);
    eval::Scenario scenario(*spec, fib_options);
    const net::AsId vp_as = scenario.first_of(spec->vp_kind);
    std::vector<serve::VpContext> contexts;
    for (const topo::Vp& vp : scenario.vps_in(vp_as)) {
      serve::VpContext ctx;
      ctx.make_services = [&scenario, vp](std::uint64_t seed) {
        return std::unique_ptr<probe::ProbeServices>(
            scenario.services_for(vp, seed));
      };
      ctx.inputs = scenario.inputs_for(vp_as);
      contexts.push_back(std::move(ctx));
    }
    auto pool = runtime::make_pool(threads);
    serve::EngineOptions options;
    options.base_seed = 3 ^ 0x515;
    options.pool = pool.get();
    serve::ServeEngine engine(scenario.net(), scenario.bgp_mutable(),
                              scenario.fib_mutable(), std::move(contexts),
                              options);
    engine.rebuild_full();
    serve::ChurnStream stream(scenario.net(), 3);
    for (int i = 0; i < 6; ++i) engine.apply(stream.next());
    const obs::MetricsSnapshot m = registry.snapshot();
    const obs::HistogramSample* tied =
        m.histogram("route.fib.egress_tied_sessions");
    return std::vector<std::uint64_t>{
        m.counter("route.fib.routing_fills"),
        m.counter("route.bgp.tier_cache_fills"),
        m.counter("route.bgp.table_fills"),
        m.counter("route.fib.egress_cache_misses"),
        tied ? tied->count : 0,
        tied ? tied->sum : 0};
  };
  const std::vector<std::uint64_t> sequential = fills(1);
  EXPECT_GT(sequential[0], 0u);
  EXPECT_GT(sequential[3], 0u);
  EXPECT_EQ(fills(4), sequential);
}

}  // namespace
}  // namespace bdrmap::core
