// bdrmapd — snapshot-serving border-map daemon (one-shot driver).
//
// Stands up the full serving stack over a synthetic scenario: builds a
// serve::ServeEngine across every VP of the featured network, compiles and
// publishes the epoch-0 BorderMapSnapshot, answers a batch of owner/border
// queries against it, then feeds a deterministic churn stream through the
// incremental re-inference path, publishing one snapshot per epoch.
//
// One-shot by design: the process runs the requested epochs/queries and
// exits 0, so CI (tools/check.sh --serve) can smoke the whole subsystem.
// --compare-full re-derives the final epoch from scratch and hard-gates
// bit-identity (eval::same_border_map per VP + snapshot fingerprint).
//
// Usage:
//   bdrmapd [--scenario NAME] [--seed N] [--threads N] [--churn K]
//           [--queries M] [--compare-full] [--obs-json FILE] [--quiet]
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cli_number.h"
#include "eval/degradation.h"
#include "eval/scenario_registry.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "runtime/thread_pool.h"
#include "serve/churn.h"
#include "serve/engine.h"
#include "serve/handle.h"
#include "serve/snapshot.h"

using namespace bdrmap;

namespace {

struct Options {
  std::string scenario = "ren";
  std::uint64_t seed = 42;
  unsigned threads = std::thread::hardware_concurrency();
  std::size_t churn = 4;     // churn events to apply (epochs after 0)
  std::size_t queries = 100000;
  bool compare_full = false;
  bool quiet = false;
  std::string obs_json_path;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scenario NAME] [--seed N] [--threads N]\n"
               "          [--churn K] [--queries M] [--compare-full]\n"
               "          [--obs-json FILE] [--quiet]\n",
               argv0);
}

bool parse_args(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    auto number = [&](auto* out) {
      return tools::parse_number(arg.c_str(), next(), out);
    };
    if (arg == "--scenario") {
      const char* v = next();
      if (!v) return false;
      opts->scenario = v;
    } else if (arg == "--seed") {
      if (!number(&opts->seed)) return false;
    } else if (arg == "--threads") {
      if (!number(&opts->threads)) return false;
    } else if (arg == "--churn") {
      if (!number(&opts->churn)) return false;
    } else if (arg == "--queries") {
      if (!number(&opts->queries)) return false;
    } else if (arg == "--compare-full") {
      opts->compare_full = true;
    } else if (arg == "--quiet") {
      opts->quiet = true;
    } else if (arg == "--obs-json") {
      const char* v = next();
      if (!v) return false;
      opts->obs_json_path = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Deterministic query mix: addresses drawn from the announced space (so
// most hit) plus a sprinkle of the whole u32 space (so some miss).
std::uint64_t run_queries(const serve::BorderMapSnapshot& snap,
                          const topo::Internet& net, std::size_t count,
                          std::uint64_t seed, std::size_t* hits) {
  const auto& announced = net.announced();
  std::uint64_t state = seed ^ 0xdab;
  std::uint64_t sink = 0;
  std::size_t routed = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t r = splitmix64(state);
    net::Ipv4Addr addr(static_cast<std::uint32_t>(r));
    if (!announced.empty() && (r & 7u) != 0) {  // 7/8 in announced space
      const auto& ap = announced[(r >> 32) % announced.size()];
      addr = net::Ipv4Addr(ap.prefix.network().value() +
                           static_cast<std::uint32_t>(
                               r % ap.prefix.size()));
    }
    serve::BorderMapSnapshot::Lookup q = snap.lookup(addr);
    if (q.routed) {
      ++routed;
      sink += q.owner.value + q.border_count;
    }
  }
  *hits = routed;
  return sink;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, &opts)) {
    usage(argv[0]);
    return 2;
  }

  auto spec = eval::scenario_spec(opts.scenario, opts.seed);
  if (!spec.has_value()) {
    std::fprintf(stderr, "unknown scenario: %s\n", opts.scenario.c_str());
    usage(argv[0]);
    return 2;
  }

  obs::ObsOptions obs_options;
  obs_options.enabled = !opts.obs_json_path.empty();
  obs_options.run_label = opts.scenario;
  obs::Observability obs(obs_options);

  route::FibOptions fib_options;
  fib_options.metrics = obs.registry();
  eval::Scenario scenario(*spec, fib_options);
  const net::AsId vp_as = scenario.first_of(spec->vp_kind);
  const auto vps = scenario.vps_in(vp_as);
  if (vps.empty()) {
    std::fprintf(stderr, "no VP available in %s\n", vp_as.str().c_str());
    return 1;
  }

  auto pool = runtime::make_pool(opts.threads, obs.registry());
  serve::EngineOptions engine_options;
  engine_options.config.obs = &obs;
  engine_options.base_seed = opts.seed ^ 0x515;
  engine_options.obs = &obs;
  engine_options.pool = pool.get();

  std::vector<serve::VpContext> contexts;
  for (const topo::Vp& vp : vps) {
    serve::VpContext ctx;
    ctx.make_services = [&scenario, vp](std::uint64_t seed) {
      return std::unique_ptr<probe::ProbeServices>(
          scenario.services_for(vp, seed));
    };
    ctx.inputs = scenario.inputs_for(vp_as);
    contexts.push_back(std::move(ctx));
  }

  serve::ServeEngine engine(scenario.net(), scenario.bgp_mutable(),
                            scenario.fib_mutable(), std::move(contexts),
                            engine_options);

  if (!opts.quiet) {
    std::printf("bdrmapd: scenario=%s seed=%llu, %zu VPs in %s, "
                "%u thread(s)\n",
                opts.scenario.c_str(),
                static_cast<unsigned long long>(opts.seed), vps.size(),
                vp_as.str().c_str(), opts.threads);
  }

  auto t0 = std::chrono::steady_clock::now();
  engine.rebuild_full();
  const double build_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  auto snap = engine.handle().current();
  if (!opts.quiet) {
    std::printf("epoch %llu: %zu prefixes, %zu borders, %zu trie nodes, "
                "fingerprint %016llx (full build %.3fs)\n",
                static_cast<unsigned long long>(snap->epoch()),
                snap->prefix_count(), snap->borders().size(),
                snap->node_count(),
                static_cast<unsigned long long>(snap->fingerprint()),
                build_s);
  }

  // Query batch against the live snapshot.
  if (opts.queries > 0) {
    std::size_t hits = 0;
    auto q0 = std::chrono::steady_clock::now();
    std::uint64_t sink =
        run_queries(*snap, scenario.net(), opts.queries, opts.seed, &hits);
    const double q_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - q0)
            .count();
    if (!opts.quiet) {
      std::printf("queries: %zu lookups, %zu routed, %.2fM lookups/s "
                  "(sink %llx)\n",
                  opts.queries, hits,
                  static_cast<double>(opts.queries) / q_s / 1e6,
                  static_cast<unsigned long long>(sink));
    }
  }

  // Churn-driven incremental epochs.
  serve::ChurnStream stream(scenario.net(), opts.seed);
  for (std::size_t i = 0; i < opts.churn; ++i) {
    const serve::ChurnEvent event = stream.next();
    auto c0 = std::chrono::steady_clock::now();
    const serve::ChurnApplyStats stats = engine.apply(event);
    const double c_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - c0)
            .count();
    snap = engine.handle().current();
    if (!opts.quiet) {
      std::printf("epoch %llu: %-28s %zu/%zu slices re-collected, "
                  "%zu/%zu alias pairs probed, %zu tier keys changed, "
                  "%zu alias addrs moved, fingerprint %016llx (%.3fs)\n",
                  static_cast<unsigned long long>(stats.epoch),
                  serve::describe(event).c_str(), stats.dirty_slices,
                  stats.dirty_slices + stats.clean_slices,
                  stats.alias_pairs_probed,
                  stats.alias_pairs_probed + stats.alias_pairs_reused,
                  stats.tier_keys_changed, stats.alias_addrs_moved,
                  static_cast<unsigned long long>(snap->fingerprint()), c_s);
    }
  }

  if (opts.compare_full) {
    auto r0 = std::chrono::steady_clock::now();
    serve::ServeEngine::Reference ref = engine.recompute_reference();
    const double r_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - r0)
            .count();
    bool identical = ref.per_vp.size() == engine.last_results().size() &&
                     ref.snapshot->fingerprint() == snap->fingerprint();
    for (std::size_t i = 0; identical && i < ref.per_vp.size(); ++i) {
      identical = eval::same_border_map(ref.per_vp[i],
                                        engine.last_results()[i]);
    }
    std::printf("compare-full: incremental %s from-scratch recompute "
                "(%.3fs)\n",
                identical ? "IDENTICAL to" : "DIVERGES from", r_s);
    if (!identical) return 1;
  }

  if (!opts.obs_json_path.empty()) {
    obs::ExportInfo info;
    info.tool = "bdrmapd";
    info.scenario = opts.scenario;
    info.seed = opts.seed;
    info.vps = vps.size();
    info.threads = opts.threads;
    if (!obs::write_json_file(opts.obs_json_path, obs, info)) {
      std::fprintf(stderr, "cannot open %s\n", opts.obs_json_path.c_str());
      return 1;
    }
    if (!opts.quiet) {
      std::printf("wrote observability export to %s\n",
                  opts.obs_json_path.c_str());
    }
  }
  return 0;
}
