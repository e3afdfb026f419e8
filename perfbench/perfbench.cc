// perfbench — the repository benchmark binary (README.md in this directory).
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//
// One workload per process; every input is generated from --seed:
//   access19_map    the "access" family: all 19 VPs of the featured access
//                   network through Scenario::run_bdrmap_parallel, then
//                   core::merge_results (what `bdrmap_sim --all-vps` does).
//   scale2k_map     eval::scale_config (2117 ASes), 3 VPs, same path.
//   access19_churn  bdrmapd's shape: a ServeEngine over the 19 VPs runs
//                   rebuild_full, then seeded churn (ChurnSource) is
//                   applied in a closed loop while one reader thread runs
//                   64-lookup batches against SnapshotHandle::current().
// --smoke puts every workload on the small scenario family.
//
// --trace 0 measures the end-to-end metrics with observability off.
// --trace 1 turns the program's spans and counters on, times each layer's
// public entry points from here, and reports the per-layer split instead.
// Every output check that fails is listed under "problems". The last
// stdout line is one JSON object: host record, checks, metrics.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/merge.h"
#include "eval/degradation.h"
#include "eval/ground_truth.h"
#include "eval/scenario.h"
#include "eval/scenario_registry.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "route/bgp_sim.h"
#include "route/collectors.h"
#include "route/fib.h"
#include "runtime/thread_pool.h"
#include "serve/churn.h"
#include "serve/engine.h"
#include "serve/handle.h"
#include "serve/snapshot.h"
#include "topo/generator.h"

using namespace bdrmap;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// num / den, or 0 when den is 0.
double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Median and nearest-rank percentile (q in (0, 1]); 0 for no samples.
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

// ---------------------------------------------------------------------------
// Span and counter arithmetic over what a traced run records. Span
// functions take `first`, the id of the first span of the window to report
// on; earlier spans still count as parents and children.

double us_to_s(std::uint64_t us) { return static_cast<double>(us) * 1e-6; }

// Every closed span of one name, summed. A span's self time is its
// duration minus the part of its interval that its child spans cover.
struct SpanTotals {
  double total_s = 0.0;
  double self_s = 0.0;
};

using SpanTable = std::map<std::string, SpanTotals, std::less<>>;

// Self time of every span, indexed like `spans` (0 for open spans).
std::vector<double> self_times(const std::vector<obs::SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const obs::SpanRecord& s : spans) {
    if (s.closed && s.parent < spans.size()) {
      kids[s.parent].emplace_back(s.start_us, s.end_us);
    }
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& s = spans[i];
    if (!s.closed) continue;
    // Union of the children's intervals, clipped to the parent's.
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, lo = 0, hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::clamp(a, s.start_us, s.end_us);
      b = std::clamp(b, s.start_us, s.end_us);
      if (open && a <= hi) {
        hi = std::max(hi, b);
        continue;
      }
      if (open) covered += hi - lo;
      lo = a;
      hi = b;
      open = true;
    }
    if (open) covered += hi - lo;
    out[i] = us_to_s(s.duration_us() - std::min(covered, s.duration_us()));
  }
  return out;
}

SpanTable aggregate_spans(const std::vector<obs::SpanRecord>& spans,
                          std::size_t first = 0) {
  const std::vector<double> self = self_times(spans);
  SpanTable out;
  for (std::size_t i = first; i < spans.size(); ++i) {
    if (!spans[i].closed) continue;
    SpanTotals& t = out[spans[i].name];
    t.total_s += us_to_s(spans[i].duration_us());
    t.self_s += self[i];
  }
  return out;
}

// Durations (seconds) of the spans called `name`, in id order.
std::vector<double> durations_of(const std::vector<obs::SpanRecord>& spans,
                                 std::string_view name, std::size_t first = 0) {
  std::vector<double> out;
  for (std::size_t i = first; i < spans.size(); ++i) {
    if (spans[i].closed && spans[i].name == name) {
      out.push_back(us_to_s(spans[i].duration_us()));
    }
  }
  return out;
}

// Summed self or total seconds of the spans called `name`; 0 if none.
double self_s(const SpanTable& table, std::string_view name) {
  auto it = table.find(name);
  return it == table.end() ? 0.0 : it->second.self_s;
}

double total_s(const SpanTable& table, std::string_view name) {
  auto it = table.find(name);
  return it == table.end() ? 0.0 : it->second.total_s;
}

// after - before for one counter (0 when absent from both).
std::uint64_t counter_delta(const obs::MetricsSnapshot& before,
                            const obs::MetricsSnapshot& after,
                            std::string_view name) {
  const std::uint64_t a = after.counter(name);
  const std::uint64_t b = before.counter(name);
  return a >= b ? a - b : 0;
}

// CPUs this process may run on (the container's share, not the host's).
unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

// Everything one run reports: the metrics in print order, the failed
// output checks, and the operation counts.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  unsigned pool_workers = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Records one checked operation; false marks it failed.
  bool check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (problems.size() < 8) problems.push_back(what);
    }
    return ok;
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// One line per timed quantity: sample count and quartiles.
void print_samples(const char* name, const std::vector<double>& v,
                   double scale) {
  std::printf("%-14s n=%-4zu min %.4g  q1 %.4g  median %.4g  q3 %.4g  "
              "max %.4g\n",
              name, v.size(), scale * percentile(v, 0.0),
              scale * percentile(v, 0.25), scale * median(v),
              scale * percentile(v, 0.75), scale * percentile(v, 1.0));
}

// ---------------------------------------------------------------------------
// Workload inputs

// The topology is part of the workload, generated from the seed every
// bench in the repository uses; --seed draws what runs over it (probe
// RNG streams, the churn sequence, the lookup keys).
constexpr std::uint64_t kTopologySeed = 42;

eval::ScenarioSpec spec_for(const Options& o) {
  if (o.smoke) return *eval::scenario_spec("small", kTopologySeed);
  if (o.workload == "scale2k_map") {
    eval::ScenarioSpec s;  // same floor as the plain-config constructor
    s.name = "scale";
    s.config = eval::scale_config(kTopologySeed);
    return s;
  }
  return *eval::scenario_spec("access", kTopologySeed);
}

// VPs per run: all of the featured network's, or 3 on the scale topology.
std::size_t vp_cap(const Options& o) {
  return !o.smoke && o.workload == "scale2k_map" ? 3 : 0;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Lookup keys: 7 in 8 inside announced space, the rest uniform (misses).
std::vector<net::Ipv4Addr> make_queries(const topo::Internet& net,
                                        std::uint64_t seed) {
  constexpr std::size_t kCount = 1 << 16;
  std::vector<net::Ipv4Addr> out;
  out.reserve(kCount);
  const auto& announced = net.announced();
  std::uint64_t state = seed ^ 0x10f;
  for (std::size_t i = 0; i < kCount; ++i) {
    const std::uint64_t r = splitmix64(state);
    net::Ipv4Addr addr(static_cast<std::uint32_t>(r));
    if (!announced.empty() && (r & 7u) != 0) {
      const auto& ap = announced[(r >> 32) % announced.size()];
      addr = net::Ipv4Addr(ap.prefix.network().value() +
                           static_cast<std::uint32_t>(r % ap.prefix.size()));
    }
    out.push_back(addr);
  }
  return out;
}

// Lookup results land here so the compiler cannot drop the lookups.
std::atomic<std::uint64_t> g_sink{0};

// One closed-loop batch of 64 lookups against whatever snapshot is live.
std::uint64_t lookup_batch(const serve::SnapshotHandle& handle,
                           const std::vector<net::Ipv4Addr>& queries,
                           std::size_t& cursor) {
  serve::SnapshotHandle::SnapshotPtr snap = handle.current();
  std::uint64_t sink = 0;
  for (std::size_t j = 0; j < 64; ++j) {
    const auto q = snap->lookup(queries[(cursor + j) & (queries.size() - 1)]);
    sink += q.routed ? q.owner.value + q.border_count : 1;
  }
  cursor += 64;
  return sink;
}

// Single-threaded lookups/s over one 40 ms slice with nothing else
// running.
double lookup_slice(const serve::SnapshotHandle& handle,
                    const std::vector<net::Ipv4Addr>& queries) {
  std::size_t cursor = 0;
  std::uint64_t sink = 0, n = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    for (int b = 0; b < 16; ++b, n += 64) {
      sink += lookup_batch(handle, queries, cursor);
    }
    elapsed = since(t0);
  } while (elapsed < 0.04);
  g_sink.fetch_add(sink, std::memory_order_relaxed);
  return static_cast<double>(n) / elapsed;
}

// Median of five slices.
double solo_lookups_per_s(const serve::SnapshotHandle& handle,
                          const std::vector<net::Ipv4Addr>& queries) {
  std::vector<double> rates;
  for (int i = 0; i < 5; ++i) rates.push_back(lookup_slice(handle, queries));
  return median(rates);
}

// One reader thread running 64-lookup batches until stopped — the
// concurrent read side of bdrmapd. Joined by stop() or the destructor.
class Reader {
 public:
  Reader(const serve::SnapshotHandle& handle,
         const std::vector<net::Ipv4Addr>& queries)
      : start_(Clock::now()), thread_([this, &handle, &queries] {
          std::size_t cursor = 0;
          std::uint64_t n = 0, sink = 0;
          while (!stop_.load(std::memory_order_acquire)) {
            sink += lookup_batch(handle, queries, cursor);
            n += 64;
          }
          lookups_ = n;
          g_sink.fetch_add(sink, std::memory_order_relaxed);
        }) {}
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;
  ~Reader() { stop(); }

  // Stops and joins (idempotent).
  void stop() {
    if (thread_.joinable()) {
      stop_.store(true, std::memory_order_release);
      thread_.join();
      seconds_ = since(start_);
    }
  }
  // Valid after stop().
  std::uint64_t lookups() const { return lookups_; }
  double seconds() const { return seconds_; }

 private:
  std::atomic<bool> stop_{false};
  std::uint64_t lookups_ = 0;
  double seconds_ = 0.0;
  Clock::time_point start_;
  std::thread thread_;  // last: starts after every member it uses
};

std::vector<serve::OwnedPrefix> owned_prefixes(
    const asdata::OriginTable& origins) {
  // The routed view bdrmapd serves: each announced prefix owned by its
  // lowest origin (serve::ServeEngine's rule).
  std::vector<serve::OwnedPrefix> out;
  for (const auto& [prefix, set] : origins.all_prefixes()) {
    if (!set.empty()) {
      out.push_back({prefix, *std::min_element(set.begin(), set.end())});
    }
  }
  return out;
}

// eval::GroundTruth link accuracy, summed over VPs.
double link_accuracy(const topo::Internet& net, net::AsId vp_as,
                     const std::vector<core::BdrmapResult>& per_vp) {
  eval::GroundTruth truth(net, vp_as);
  std::size_t total = 0, correct = 0;
  for (const core::BdrmapResult& r : per_vp) {
    const eval::ValidationSummary s = truth.validate(r);
    total += s.links_total;
    correct += s.links_correct;
  }
  return ratio(static_cast<double>(correct), static_cast<double>(total));
}

std::uint64_t probes_of(const std::vector<core::BdrmapResult>& per_vp) {
  std::uint64_t n = 0;
  for (const core::BdrmapResult& r : per_vp) n += r.stats.probes_sent;
  return n;
}

// ---------------------------------------------------------------------------
// Substrate and pipeline, timed at their public entry points

struct Built {
  std::unique_ptr<eval::Scenario> scenario;
  net::AsId vp_as;
  std::vector<topo::Vp> vps;
  double setup_s = 0.0;
};

Built build(const eval::ScenarioSpec& spec, std::size_t cap,
            const route::FibOptions& fib_options = {}) {
  Built b;
  const auto t0 = Clock::now();
  b.scenario = std::make_unique<eval::Scenario>(spec, fib_options);
  b.setup_s = since(t0);
  b.vp_as = b.scenario->first_of(spec.vp_kind);
  b.vps = b.scenario->vps_in(b.vp_as);
  if (cap > 0 && b.vps.size() > cap) b.vps.resize(cap);
  return b;
}

// The Scenario constructor's substrate steps, called one by one so each
// layer gets its own span: topo::generate, the BgpSimulator, Fib and
// CollectorView constructors, and CollectorView::infer_relationships.
// `wall_s` times the same step-by-step build from outside, so sum() /
// wall_s is the share of that build the layer spans cover.
struct SubstrateSplit {
  double generate_s = 0, bgp_s = 0, fib_s = 0, collectors_s = 0, rel_s = 0;
  double wall_s = 0;
  std::uint64_t table_fills = 0;
  double sum() const {
    return generate_s + bgp_s + fib_s + collectors_s + rel_s;
  }
};

SubstrateSplit split_substrate(const eval::ScenarioSpec& spec) {
  obs::Observability obs({true, "substrate"});
  obs::Tracer* tr = obs.tracer();
  const auto t0 = Clock::now();
  topo::GeneratedInternet gen = [&] {
    obs::Span s(tr, "topo.generate");
    return topo::generate(spec.config);
  }();
  std::optional<route::BgpSimulator> bgp;
  {
    obs::Span s(tr, "route.bgp_build");
    bgp.emplace(gen.net, route::BgpPolicy{}, obs.registry());
  }
  std::optional<route::Fib> fib;
  {
    obs::Span s(tr, "route.fib_build");
    route::FibOptions fo;
    fo.metrics = obs.registry();
    fib.emplace(gen.net, *bgp, fo);
  }
  std::optional<route::CollectorView> view;
  {
    obs::Span s(tr, "route.collectors");
    view.emplace(gen.net, *bgp, spec.collectors);
  }
  {
    obs::Span s(tr, "asdata.rel_inference");
    asdata::RelationshipInferenceConfig ric;
    ric.clique_seed_size = spec.config.num_tier1;
    asdata::RelationshipStore rels = view->infer_relationships(ric);
    s.close();
  }
  SubstrateSplit out;
  out.wall_s = since(t0);
  const auto totals = aggregate_spans(tr->snapshot());
  out.generate_s = total_s(totals, "topo.generate");
  out.bgp_s = total_s(totals, "route.bgp_build");
  out.fib_s = total_s(totals, "route.fib_build");
  out.collectors_s = total_s(totals, "route.collectors");
  out.rel_s = total_s(totals, "asdata.rel_inference");
  out.table_fills = obs.registry()->snapshot().counter("route.bgp.table_fills");
  return out;
}

// One pipeline pass: run_bdrmap_parallel then core::merge_results.
struct Pass {
  runtime::MultiVpResult runs;
  core::MergedMap merged;
  double seconds = 0.0;
};

Pass run_pass(const Built& b, const core::BdrmapConfig& config,
              std::uint64_t base_seed, runtime::ThreadPool* pool) {
  obs::Tracer* tr = config.obs ? config.obs->tracer() : nullptr;
  Pass p;
  const auto t0 = Clock::now();
  obs::Span pass_span(tr, "bench.pass");
  p.runs = b.scenario->run_bdrmap_parallel(b.vps, config, base_seed, pool);
  {
    obs::Span merge_span(tr, "bench.merge_results");
    std::vector<const core::BdrmapResult*> ptrs;
    for (const core::BdrmapResult& r : p.runs.per_vp) ptrs.push_back(&r);
    p.merged = core::merge_results(ptrs);
  }
  pass_span.close();
  p.seconds = since(t0);
  return p;
}

std::shared_ptr<const serve::BorderMapSnapshot> compile(const Built& b,
                                                        const Pass& p,
                                                        std::uint64_t epoch) {
  return serve::BorderMapSnapshot::compile(
      owned_prefixes(b.scenario->collectors().public_origins()), p.merged,
      epoch);
}

// The per-layer metrics shared by every traced workload, in report order.
// Values a workload does not exercise stay 0.
struct LayerSplit {
  SubstrateSplit substrate;
  double tier_hit_ratio = 0, egress_hit_ratio = 0, routing_fills = 0;
  double schedule_s = 0, trace_s = 0, alias_s = 0, graph_s = 0,
         heuristics_s = 0, merge_results_s = 0;
  double traces = 0, alias_pair_tests = 0, stopset_hit_ratio = 0;
  double trace_packets = 0, udp_probes = 0, ipid_samples = 0,
         flows_per_batch = 0;
  double busy_ratio = 0, straggler_ratio = 0, steals = 0, parks = 0,
         reduce_s = 0;
  double rebuild_s = 0, collect_s = 0, infer_s = 0, compile_s = 0,
         dirty_bound_s = 0, dirty_slices = 0, slice_reuse_ratio = 0,
         lookup_ns = 0;
  double overhead_pct = 0, span_coverage = 0;
};

// Route, core, probe and runtime figures from one traced window: the span
// records it produced and the registry before and after. `units` divides
// sums into per-pass / per-epoch figures; `threads` is pool workers plus
// the calling thread, which helps in TaskGroup waits.
void pipeline_split(const std::vector<obs::SpanRecord>& spans,
                    std::size_t first, const obs::MetricsSnapshot& before,
                    const obs::MetricsSnapshot& after, double units,
                    unsigned threads, LayerSplit& out) {
  const auto totals = aggregate_spans(spans, first);
  auto delta = [&](const char* name) {
    return static_cast<double>(counter_delta(before, after, name));
  };
  const double tier_hits = delta("route.bgp.tier_cache_hits");
  out.tier_hit_ratio =
      ratio(tier_hits, tier_hits + delta("route.bgp.tier_cache_fills"));
  const double egress_hits = delta("route.fib.egress_cache_hits");
  out.egress_hit_ratio =
      ratio(egress_hits, egress_hits + delta("route.fib.egress_cache_misses"));
  out.routing_fills = delta("route.fib.routing_fills") / units;

  out.schedule_s = self_s(totals, "stage.schedule") / units;
  out.trace_s = self_s(totals, "stage.trace") / units;
  out.alias_s = (self_s(totals, "stage.alias") +
                 self_s(totals, "stage.midar")) /
                units;
  out.graph_s = self_s(totals, "stage.merge") / units;
  out.heuristics_s = self_s(totals, "stage.heuristics") / units;
  const double traces = delta("core.traces");
  out.traces = traces / units;
  out.alias_pair_tests = delta("core.alias_pair_tests") / units;
  out.stopset_hit_ratio = ratio(delta("core.stopset_hits"), traces);

  out.trace_packets = delta("probe.trace_packets") / units;
  out.udp_probes = delta("probe.udp_probes") / units;
  out.ipid_samples = delta("probe.ipid_samples") / units;
  out.flows_per_batch =
      ratio(delta("probe.batch.flows"), delta("probe.batch.batches"));

  // Task spans are per-VP runs and, on the serve path, collection slices;
  // fan-out spans are the executor calls that wait for them.
  const double task_s = total_s(totals, "vp.run") +
                        total_s(totals, "bdrmap.collect");
  const double fanout_s = total_s(totals, "multi_vp.run") +
                          total_s(totals, "multi_vp.collect") +
                          total_s(totals, "multi_vp.infer");
  out.busy_ratio = ratio(task_s, threads * fanout_s);
  const std::vector<double> vp_runs =
      durations_of(spans, "vp.run", first);
  double sum = 0, worst = 0;
  for (double d : vp_runs) {
    sum += d;
    worst = std::max(worst, d);
  }
  out.straggler_ratio =
      ratio(worst, ratio(sum, static_cast<double>(vp_runs.size())));
  out.steals = delta("runtime.steals") / units;
  out.parks = delta("runtime.parks") / units;
  out.reduce_s = total_s(totals, "multi_vp.reduce") / units;
}

// The split as named metrics, in BENCHMARK.json's per-layer order.
std::vector<Report::Metric> layer_metrics(const LayerSplit& s) {
  std::vector<Report::Metric> rep;
  auto add = [&rep](const char* name, double value, const char* unit) {
    rep.push_back({name, value, unit});
  };
  add("topo.generate_s", s.substrate.generate_s, "s");
  add("route.bgp_build_s", s.substrate.bgp_s, "s");
  add("route.fib_build_s", s.substrate.fib_s, "s");
  add("route.collectors_s", s.substrate.collectors_s, "s");
  add("route.bgp.table_fills",
          static_cast<double>(s.substrate.table_fills), "count");
  add("route.bgp.tier_hit_ratio", s.tier_hit_ratio, "ratio");
  add("route.fib.egress_hit_ratio", s.egress_hit_ratio, "ratio");
  add("route.fib.routing_fills", s.routing_fills, "count");
  add("asdata.rel_inference_s", s.substrate.rel_s, "s");
  add("core.schedule_s", s.schedule_s, "s");
  add("core.trace_s", s.trace_s, "s");
  add("core.alias_s", s.alias_s, "s");
  add("core.graph_s", s.graph_s, "s");
  add("core.heuristics_s", s.heuristics_s, "s");
  add("core.merge_results_s", s.merge_results_s, "s");
  add("core.traces", s.traces, "count");
  add("core.alias_pair_tests", s.alias_pair_tests, "count");
  add("core.stopset_hit_ratio", s.stopset_hit_ratio, "ratio");
  add("probe.trace_packets", s.trace_packets, "count");
  add("probe.udp_probes", s.udp_probes, "count");
  add("probe.ipid_samples", s.ipid_samples, "count");
  add("probe.batch.flows_per_batch", s.flows_per_batch, "flows");
  add("runtime.busy_ratio", s.busy_ratio, "ratio");
  add("runtime.straggler_ratio", s.straggler_ratio, "ratio");
  add("runtime.steals", s.steals, "count");
  add("runtime.parks", s.parks, "count");
  add("runtime.reduce_s", s.reduce_s, "s");
  add("serve.rebuild_s", s.rebuild_s, "s");
  add("serve.collect_s", s.collect_s, "s");
  add("serve.infer_s", s.infer_s, "s");
  add("serve.compile_s", s.compile_s, "s");
  add("serve.dirty_bound_s", s.dirty_bound_s, "s");
  add("serve.dirty_slices", s.dirty_slices, "count");
  add("serve.slice_reuse_ratio", s.slice_reuse_ratio, "ratio");
  add("serve.lookup_ns", s.lookup_ns, "ns");
  add("obs.overhead_pct", s.overhead_pct, "%");
  add("obs.span_coverage", s.span_coverage, "ratio");
  return rep;
}

// Median over per-iteration splits, metric by metric.
std::vector<Report::Metric> median_metrics(
    const std::vector<LayerSplit>& all) {
  std::vector<Report::Metric> out = layer_metrics(all.front());
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> v;
    for (const LayerSplit& s : all) v.push_back(layer_metrics(s)[i].value);
    out[i].value = median(v);
  }
  return out;
}

constexpr double kCoverageFloor = 0.9;

// The two findings the split exists to show (printed, never gated).
void print_findings(const std::vector<Report::Metric>& metrics) {
  auto get = [&metrics](std::string_view name) {
    for (const Report::Metric& m : metrics) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };
  double substrate = 0, largest = 0, core = 0;
  for (const char* name : {"topo.generate_s", "route.bgp_build_s",
                           "route.fib_build_s", "route.collectors_s",
                           "asdata.rel_inference_s"}) {
    substrate += get(name);
    largest = std::max(largest, get(name));
  }
  for (const char* name : {"core.schedule_s", "core.trace_s", "core.alias_s",
                           "core.graph_s", "core.heuristics_s",
                           "core.merge_results_s"}) {
    core += get(name);
  }
  std::printf("finding: route.collectors_s is %s substrate layer "
              "(%.3fs of %.3fs)\n",
              largest == get("route.collectors_s") ? "the largest"
                                                   : "NOT the largest",
              get("route.collectors_s"), substrate);
  std::printf("finding: core.* stages %.3fs %s substrate layers %.3fs\n", core,
              core > substrate ? ">" : "<=", substrate);
}

// ---------------------------------------------------------------------------
// Map workloads: one cold pass per fresh scenario, as bdrmap_sim runs

void map_workload(const Options& o, Report& rep) {
  const eval::ScenarioSpec spec = spec_for(o);
  const unsigned cpus = usable_cpus();
  rep.pool_workers = cpus > 1 ? cpus - 1 : 1;
  const std::uint64_t base_seed = o.seed ^ 0x515;
  auto plain_pool =
      std::make_unique<runtime::ThreadPool>(rep.pool_workers, nullptr);

  std::optional<std::uint64_t> fingerprint;
  std::optional<std::uint64_t> probes;
  double accuracy = -1.0;
  // Every pass of one seed must produce the same map and probe count.
  auto check_pass = [&](const Pass& p,
                        const serve::BorderMapSnapshot& snap) {
    if (!fingerprint) fingerprint = snap.fingerprint();
    if (!probes) probes = p.runs.total.probes_sent;
    const bool same = snap.fingerprint() == *fingerprint &&
                      p.runs.total.probes_sent == *probes;
    return rep.check(same, "border map fingerprint or probe count differs "
                           "between passes of one seed");
  };
  auto score = [&](const Built& b, const Pass& p) {
    if (accuracy >= 0) return;
    accuracy = link_accuracy(b.scenario->net(), b.vp_as, p.runs.per_vp);
    rep.check(accuracy >= spec.link_accuracy_floor,
              "link accuracy below the family floor");
  };

  const auto start = Clock::now();
  if (!o.trace) {
    // Each iteration: a fresh scenario and one cold pass, whose map is
    // compiled and published. The epoch and lookup metrics exist on every
    // workload; here an epoch is a cold pass until its map is published,
    // and one lookup slice runs on each published map, so the lookup
    // samples span the run.
    std::vector<double> setup, cold, epochs, lookups;
    serve::SnapshotHandle handle;
    std::vector<net::Ipv4Addr> queries;
    std::uint64_t epoch = 0;
    Built last;
    do {
      last = Built{};  // free the previous scenario before building anew
      last = build(spec, vp_cap(o));
      setup.push_back(last.setup_s);
      Pass p = run_pass(last, core::BdrmapConfig{}, base_seed,
                        plain_pool.get());
      cold.push_back(p.seconds);
      const auto c0 = Clock::now();
      handle.publish(compile(last, p, ++epoch));
      epochs.push_back(p.seconds + since(c0));
      check_pass(p, *handle.current());
      score(last, p);
      if (queries.empty()) {
        queries = make_queries(last.scenario->net(), o.seed);
      }
      lookups.push_back(lookup_slice(handle, queries));
    } while (since(start) < o.seconds);
    std::printf("%zu VPs, pool %u + caller\n", last.vps.size(),
                rep.pool_workers);
    print_samples("setup_s", setup, 1.0);
    print_samples("map_s", cold, 1.0);
    print_samples("lookup_mops", lookups, 1e-6);
    rep.add("setup_s", median(setup), "s");
    rep.add("map_s", median(cold), "s");
    rep.add("probes_sent", static_cast<double>(probes.value_or(0)), "count");
    rep.add("link_accuracy", accuracy, "fraction");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    rep.add("epoch_p50_ms", 1e3 * median(epochs), "ms");
    rep.add("epoch_p90_ms", 1e3 * percentile(epochs, 0.9), "ms");
    rep.add("lookup_mops", median(lookups) / 1e6, "Mlookup/s");
    return;
  }

  // Traced: per iteration, the substrate split, an untraced and a traced
  // cold pass on twin scenarios (their ratio is the tracing overhead),
  // then the traced pass's spans and counters.
  std::vector<LayerSplit> splits;
  double cover[3] = {0, 0, 0}, wall[3] = {0, 0, 0}, scenario_s = 0;
  int iteration = 0;
  do {
    LayerSplit s;
    s.substrate = split_substrate(spec);
    obs::Observability obs({true, o.workload});
    route::FibOptions fo;
    fo.metrics = obs.registry();
    core::BdrmapConfig plain, traced;
    traced.obs = &obs;
    // Alternate which twin is built and run first.
    Built u, t;
    if (iteration % 2 == 0) {
      u = build(spec, vp_cap(o));
      t = build(spec, vp_cap(o), fo);
    } else {
      t = build(spec, vp_cap(o), fo);
      u = build(spec, vp_cap(o));
    }
    auto traced_pool =
        std::make_unique<runtime::ThreadPool>(rep.pool_workers, obs.registry());
    Pass pu, pt;
    obs::MetricsSnapshot before, after;
    auto run_traced = [&] {
      before = obs.registry()->snapshot();
      pt = run_pass(t, traced, base_seed, traced_pool.get());
      after = obs.registry()->snapshot();
    };
    if (iteration % 2 == 0) {
      pu = run_pass(u, plain, base_seed, plain_pool.get());
      run_traced();
    } else {
      run_traced();
      pu = run_pass(u, plain, base_seed, plain_pool.get());
    }
    const std::vector<obs::SpanRecord> spans = obs.tracer()->snapshot();
    pipeline_split(spans, 0, before, after, 1.0, rep.pool_workers + 1, s);
    const auto totals = aggregate_spans(spans);
    s.merge_results_s = total_s(totals, "bench.merge_results");

    serve::SnapshotHandle handle;
    const auto c0 = Clock::now();
    handle.publish(compile(t, pt, 0));
    s.compile_s = since(c0);
    check_pass(pt, *handle.current());
    check_pass(pu, *compile(u, pu, 0));
    score(t, pt);
    s.lookup_ns =
        1e9 / solo_lookups_per_s(handle, make_queries(t.scenario->net(),
                                                      o.seed));
    s.overhead_pct = 100.0 * (pt.seconds / pu.seconds - 1.0);

    // Layer spans against the wall time of the same work, summed over
    // iterations: the substrate spans against their step-by-step build,
    // the executor and merge spans against the traced pass, the stage
    // spans against the per-VP runs.
    cover[0] += s.substrate.sum();
    wall[0] += s.substrate.wall_s;
    scenario_s += u.setup_s;
    cover[1] += total_s(totals, "multi_vp.run") +
                total_s(totals, "multi_vp.reduce") +
                s.merge_results_s;
    wall[1] += pt.seconds;
    cover[2] += s.schedule_s + s.trace_s + s.alias_s + s.graph_s +
                s.heuristics_s;
    wall[2] += total_s(totals, "vp.run");
    splits.push_back(s);
    ++iteration;
  } while (since(start) < o.seconds);
  std::printf("%d traced iterations; step-by-step substrate build %.3fs, "
              "Scenario build %.3fs (mean)\n",
              iteration, wall[0] / iteration, scenario_s / iteration);
  std::printf("coverage: substrate %.3f of its build, executor+merge %.3f "
              "of pass, stages %.3f of vp.run\n",
              ratio(cover[0], wall[0]), ratio(cover[1], wall[1]),
              ratio(cover[2], wall[2]));
  std::vector<Report::Metric> metrics = median_metrics(splits);
  print_findings(metrics);
  for (Report::Metric& m : metrics) {
    if (m.name == "obs.span_coverage") {
      m.value = std::min({ratio(cover[0], wall[0]), ratio(cover[1], wall[1]),
                          ratio(cover[2], wall[2])});
      rep.check(m.value >= kCoverageFloor,
                "layer spans cover less than 90% of the wall time");
    }
    rep.add(m.name, m.value, m.unit);
  }
}

// ---------------------------------------------------------------------------
// Churn workload: bdrmapd over the 19 VPs

struct Daemon {
  std::unique_ptr<eval::Scenario> scenario;  // outlives the engine
  std::unique_ptr<serve::ServeEngine> engine;
  net::AsId vp_as;
  double setup_s = 0.0;
  double rebuild_s = 0.0;
};

// Engine first: it holds references into the scenario.
void stop_daemon(Daemon& d) {
  d.engine.reset();
  d.scenario.reset();
}

Daemon start_daemon(const eval::ScenarioSpec& spec, std::uint64_t seed,
                    runtime::ThreadPool* pool, obs::Observability* obs) {
  Daemon d;
  const auto t0 = Clock::now();
  route::FibOptions fo;
  fo.metrics = obs ? obs->registry() : nullptr;
  d.scenario = std::make_unique<eval::Scenario>(spec, fo);
  const eval::Scenario& sc = *d.scenario;
  d.vp_as = sc.first_of(spec.vp_kind);
  // Probe counters, as Scenario::run_bdrmap_parallel wires them for obs.
  probe::TracerConfig tracer;
  tracer.metrics = fo.metrics;
  std::vector<serve::VpContext> contexts;
  for (const topo::Vp& vp : sc.vps_in(d.vp_as)) {
    serve::VpContext ctx;
    ctx.make_services = [&sc, vp, tracer](std::uint64_t s) {
      return std::unique_ptr<probe::ProbeServices>(
          sc.services_for(vp, s, tracer));
    };
    ctx.inputs = sc.inputs_for(d.vp_as);
    contexts.push_back(std::move(ctx));
  }
  serve::EngineOptions options;
  options.base_seed = seed ^ 0x515;
  options.pool = pool;
  options.obs = obs;
  options.config.obs = obs;
  d.engine = std::make_unique<serve::ServeEngine>(
      sc.net(), d.scenario->bgp_mutable(), d.scenario->fib_mutable(),
      std::move(contexts), options);
  const auto r0 = Clock::now();
  d.engine->rebuild_full();
  d.rebuild_s = since(r0);
  d.setup_s = since(t0);
  return d;
}

// The churn the workload applies, drawn from the seed: four prefix
// events, then one relationship flip, repeated. Prefix events withdraw an
// announced prefix or re-announce a withdrawn one; a flip turns a
// ground-truth c2p edge into p2p or back (which cannot create a provider
// cycle). The fixed mix keeps the two epoch-time modes in the same
// proportion on every seed.
//
// The events are restricted to those whose ServeEngine dirty bound is
// exact; the incremental map differs from recompute_reference() after
//  * link events: a failed IXP fabric takes down every member pair while
//    the bound covers one pair, and point-to-point failures diverge too;
//  * prefix events on prefixes whose public-view origins are not exactly
//    the announcing AS (the bound is keyed by true origins, the slices by
//    the public view).
class ChurnSource {
 public:
  ChurnSource(const eval::Scenario& sc, std::uint64_t seed)
      : state_(seed ^ 0xc4u) {
    const asdata::OriginTable& pub = sc.collectors().public_origins();
    for (const topo::AnnouncedPrefix& ap : sc.net().announced()) {
      const auto* origins = pub.origins(ap.prefix.network());
      if (origins && origins->size() == 1 && origins->front() == ap.origin &&
          std::find(up_.begin(), up_.end(), ap.prefix) == up_.end()) {
        up_.push_back(ap.prefix);
      }
    }
    const asdata::RelationshipStore& rels = sc.net().truth_relationships();
    for (const topo::InterdomainLinkInfo& l : sc.net().interdomain_links()) {
      const asdata::Relationship rel = rels.rel(l.as_a, l.as_b);
      if (rel != asdata::Relationship::kCustomer &&
          rel != asdata::Relationship::kProvider) {
        continue;
      }
      const bool a_provides = rel == asdata::Relationship::kCustomer;
      const Edge e{a_provides ? l.as_a : l.as_b, a_provides ? l.as_b : l.as_a,
                   false};
      if (std::find_if(edges_.begin(), edges_.end(), [&](const Edge& x) {
            return x.provider == e.provider && x.customer == e.customer;
          }) == edges_.end()) {
        edges_.push_back(e);
      }
    }
  }

  serve::ChurnEvent next() {
    serve::ChurnEvent e;
    const std::uint64_t r = splitmix64(state_);
    if (++count_ % 5 == 0 && !edges_.empty()) {
      Edge& edge = edges_[r % edges_.size()];
      edge.flipped = !edge.flipped;
      e.kind = serve::ChurnKind::kRelChange;
      e.as_a = edge.provider;
      e.as_b = edge.customer;
      e.new_rel = edge.flipped ? asdata::Relationship::kPeer
                               : asdata::Relationship::kCustomer;
      return e;
    }
    // Re-announce about as often as withdraw, so the withdrawn set stays
    // small and most of the table stays routed.
    const bool announce = !down_.empty() && (r >> 32) % 2 == 0;
    std::vector<net::Prefix>& from = announce ? down_ : up_;
    std::vector<net::Prefix>& to = announce ? up_ : down_;
    const std::size_t i = r % from.size();
    e.kind =
        announce ? serve::ChurnKind::kAnnounce : serve::ChurnKind::kWithdraw;
    e.prefix = from[i];
    to.push_back(from[i]);
    from.erase(from.begin() + static_cast<std::ptrdiff_t>(i));
    return e;
  }

 private:
  struct Edge {
    net::AsId provider, customer;
    bool flipped;
  };
  std::uint64_t state_;
  std::uint64_t count_ = 0;
  std::vector<net::Prefix> up_, down_;
  std::vector<Edge> edges_;
};

// Applies `count` churn events closed-loop — each only after the previous
// epoch published — and returns each apply()'s wall time.
std::vector<double> churn_loop(Daemon& d, std::uint64_t seed,
                               std::size_t count) {
  ChurnSource source(*d.scenario, seed);
  std::vector<double> epochs;
  while (epochs.size() < count) {
    const serve::ChurnEvent event = source.next();
    const auto t0 = Clock::now();
    d.engine->apply(event);
    epochs.push_back(since(t0));
  }
  return epochs;
}

// After the last epoch the live snapshot must equal a from-scratch
// recompute, per VP and by fingerprint.
void check_identity(const Daemon& d, Report& rep) {
  const serve::ServeEngine::Reference ref = d.engine->recompute_reference();
  const auto live = d.engine->handle().current();
  bool same = ref.snapshot->fingerprint() == live->fingerprint() &&
              ref.per_vp.size() == d.engine->last_results().size();
  for (std::size_t i = 0; same && i < ref.per_vp.size(); ++i) {
    same = eval::same_border_map(ref.per_vp[i], d.engine->last_results()[i]);
  }
  rep.check(same, "incremental map differs from recompute_reference()");
}

void churn_workload(const Options& o, Report& rep) {
  const eval::ScenarioSpec spec = spec_for(o);
  const unsigned cpus = usable_cpus();
  // Pool workers + the churn thread + one reader == the usable CPUs.
  rep.pool_workers = cpus > 2 ? cpus - 2 : 1;
  // p90 needs ten epochs beyond it, so a run ends at the first segment end
  // with both --seconds gone and 100 epochs in. 100 epochs take 35-57 s
  // on 4 CPUs.
  const std::size_t min_epochs = o.smoke ? 3 : 100;
  const std::size_t segment_epochs = o.smoke ? 3 : 25;
  auto plain_pool =
      std::make_unique<runtime::ThreadPool>(rep.pool_workers, nullptr);

  std::vector<double> setup, rebuild;
  std::optional<std::uint64_t> fingerprint, probes;
  double accuracy = -1.0;
  Daemon d;
  auto restart = [&] {
    stop_daemon(d);
    d = start_daemon(spec, o.seed, plain_pool.get(), nullptr);
    setup.push_back(d.setup_s);
    rebuild.push_back(d.rebuild_s);
    const std::uint64_t fp = d.engine->handle().current()->fingerprint();
    const std::uint64_t n = probes_of(d.engine->last_results());
    if (!fingerprint) {
      fingerprint = fp;
      probes = n;
      accuracy = link_accuracy(d.scenario->net(), d.vp_as,
                               d.engine->last_results());
      rep.check(accuracy >= spec.link_accuracy_floor,
                "link accuracy below the family floor");
    }
    rep.check(fp == *fingerprint && n == *probes,
              "rebuild_full map differs between set-ups of one seed");
  };
  restart();
  const auto queries = make_queries(d.scenario->net(), o.seed);

  if (!o.trace) {
    // Segments of one fresh daemon and 25 epochs, so the set-up samples
    // and the epoch samples both span the whole run. Each segment's churn
    // comes from its own seed, derived from --seed.
    std::vector<double> epochs;
    double lookups = 0, reader_s = 0;
    const auto start = Clock::now();
    for (std::uint64_t segment = 0;; ++segment) {
      if (segment > 0) restart();
      Reader reader(d.engine->handle(), queries);
      const std::vector<double> e =
          churn_loop(d, o.seed * 64 + segment, segment_epochs);
      reader.stop();
      lookups += static_cast<double>(reader.lookups());
      reader_s += reader.seconds();
      epochs.insert(epochs.end(), e.begin(), e.end());
      rep.attempted += e.size();
      check_identity(d, rep);
      if (since(start) >= o.seconds && epochs.size() >= min_epochs) break;
    }
    std::printf("%zu VPs, pool %u + churn thread + reader\n", d.engine->vp_count(),
                rep.pool_workers);
    print_samples("setup_s", setup, 1.0);
    print_samples("map_s", rebuild, 1.0);
    print_samples("epoch_ms", epochs, 1e3);
    rep.add("setup_s", median(setup), "s");
    rep.add("map_s", median(rebuild), "s");
    rep.add("probes_sent", static_cast<double>(probes.value_or(0)), "count");
    rep.add("link_accuracy", accuracy, "fraction");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    rep.add("epoch_p50_ms", 1e3 * median(epochs), "ms");
    rep.add("epoch_p90_ms", 1e3 * percentile(epochs, 0.9), "ms");
    rep.add("lookup_mops", ratio(lookups, reader_s) / 1e6, "Mlookup/s");
    return;
  }

  // Traced: the untraced daemon applies one segment of events, then a
  // traced twin applies the same sequence; the per-layer figures come from
  // the twin's spans and counters.
  LayerSplit s;
  s.substrate = split_substrate(spec);
  std::vector<double> plain_epochs;
  {
    Reader reader(d.engine->handle(), queries);
    plain_epochs = churn_loop(d, o.seed * 64, segment_epochs);
  }
  stop_daemon(d);
  obs::Observability obs({true, o.workload});
  auto traced_pool =
      std::make_unique<runtime::ThreadPool>(rep.pool_workers, obs.registry());
  Daemon t = start_daemon(spec, o.seed, traced_pool.get(), &obs);
  const std::size_t first_span = obs.tracer()->span_count();
  const obs::MetricsSnapshot before = obs.registry()->snapshot();
  std::vector<double> traced_epochs;
  {
    Reader reader(t.engine->handle(), queries);
    traced_epochs = churn_loop(t, o.seed * 64, segment_epochs);
  }
  const obs::MetricsSnapshot after = obs.registry()->snapshot();
  const std::vector<obs::SpanRecord> spans = obs.tracer()->snapshot();
  rep.attempted += traced_epochs.size();
  check_identity(t, rep);

  s.rebuild_s = median(durations_of(spans, "serve.rebuild"));
  const double n = static_cast<double>(traced_epochs.size());
  pipeline_split(spans, first_span, before, after, n, rep.pool_workers + 1,
                 s);
  const auto totals = aggregate_spans(spans, first_span);
  // Per-epoch means, like the core.* figures, so the serve phases add up
  // to the mean epoch. serve.apply's self time is the dirty-set bound and
  // the overlay updates.
  s.collect_s = total_s(totals, "serve.collect") / n;
  s.infer_s = total_s(totals, "serve.infer") / n;
  s.compile_s = total_s(totals, "serve.compile") / n;
  s.dirty_bound_s = self_s(totals, "serve.apply") / n;
  const double dirty = static_cast<double>(
      counter_delta(before, after, "serve.churn.dirty_slices"));
  const double clean = static_cast<double>(
      counter_delta(before, after, "serve.churn.clean_slices"));
  s.dirty_slices = dirty / n;
  s.slice_reuse_ratio = ratio(clean, dirty + clean);
  {
    // core::merge_results over the final epoch's per-VP results, timed
    // from outside (the engine runs it inside serve.compile).
    std::vector<const core::BdrmapResult*> ptrs;
    for (const auto& r : t.engine->last_results()) ptrs.push_back(&r);
    const auto m0 = Clock::now();
    const core::MergedMap merged = core::merge_results(ptrs);
    s.merge_results_s = since(m0);
    rep.check(!merged.links.empty(), "merged map is empty");
  }
  s.lookup_ns = 1e9 / solo_lookups_per_s(t.engine->handle(), queries);
  double plain_sum = 0, traced_sum = 0;
  for (double e : plain_epochs) plain_sum += e;
  for (double e : traced_epochs) traced_sum += e;
  s.overhead_pct = 100.0 * (traced_sum / plain_sum - 1.0);

  const double epoch_cov =
      ratio(total_s(totals, "serve.apply"), traced_sum);
  // Spans against the wall time of the same calls: the substrate split's
  // own build, and the traced daemon's rebuild_full.
  const double setup_cov = ratio(s.substrate.sum() + s.rebuild_s,
                                 s.substrate.wall_s + t.rebuild_s);
  const double stage_cov =
      ratio(s.schedule_s + s.trace_s + s.alias_s + s.graph_s + s.heuristics_s,
            (total_s(totals, "vp.run") +
             total_s(totals, "bdrmap.collect")) /
                n);
  s.span_coverage = std::min({epoch_cov, setup_cov, stage_cov});
  std::printf("coverage: serve.apply %.3f of epochs, substrate+rebuild %.3f "
              "of their calls, stages %.3f of task spans\n",
              epoch_cov, setup_cov, stage_cov);
  rep.check(s.span_coverage >= kCoverageFloor,
            "layer spans cover less than 90% of the wall time");
  std::printf("%zu untraced + %zu traced epochs\n", plain_epochs.size(),
              traced_epochs.size());
  const std::vector<Report::Metric> metrics = layer_metrics(s);
  print_findings(metrics);
  for (const Report::Metric& m : metrics) {
    rep.add(m.name, m.value, m.unit);
  }
}

// ---------------------------------------------------------------------------

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (!v) return false;
    ++i;
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else {
      return false;
    }
  }
  return o.workload == "access19_map" || o.workload == "scale2k_map" ||
         o.workload == "access19_churn";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: %s --workload access19_map|scale2k_map|"
                 "access19_churn --seed N --seconds S --trace 0|1 [--smoke]\n",
                 argv[0]);
    return 2;
  }
  Report rep;
  if (o.workload == "access19_churn") {
    churn_workload(o, rep);
  } else {
    map_workload(o, rep);
  }
  for (const Report::Metric& m : rep.metrics) {
    std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::string line = "{\"workload\": \"" + o.workload + "\", \"seed\": " +
                     std::to_string(o.seed) +
                     ", \"trace\": " + (o.trace ? "1" : "0") +
                     ", \"smoke\": " + (o.smoke ? "true" : "false") +
                     ", \"host\": {\"nproc\": " +
                     std::to_string(usable_cpus()) +
                     ", \"hardware_concurrency\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"pool_workers\": " +
                     std::to_string(rep.pool_workers) +
                     ", \"build_type\": \"" PERFBENCH_BUILD_TYPE
                     "\", \"compiler\": \"" PERFBENCH_COMPILER "\"}" +
                     ", \"attempted\": " + std::to_string(rep.attempted) +
                     ", \"failed\": " + std::to_string(rep.failed) +
                     ", \"problems\": [";
  for (std::size_t i = 0; i < rep.problems.size(); ++i) {
    line += (i ? ", \"" : "\"") + json_escape(rep.problems[i]) + "\"";
  }
  line += "], \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Report::Metric& m = rep.metrics[i];
    line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::puts(line.c_str());
  return 0;
}
