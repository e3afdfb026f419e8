// bdrmap_sim — command-line front end for the full pipeline.
//
// Mirrors how the released sc_bdrmap is driven: pick a network to host the
// VP in, run the measurement + inference, and export the border map. The
// "Internet" is the synthetic substrate, selected by scenario name + seed.
//
// Usage:
//   bdrmap_sim [--scenario NAME] [--list-scenarios] [--seed N] [--vp K]
//              [--all-vps] [--threads N]
//              [--json FILE] [--warts FILE] [--dump-traces] [--table1]
//              [--validate] [--audit] [--quiet] [--obs-json FILE]
//
// Scenario names come from eval::scenario_registry — the four clean §5.6
// networks plus the adversarial families (route_leak, hijack, ...).
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "check/check.h"
#include "cli_number.h"
#include "core/offline.h"
#include "eval/ground_truth.h"
#include "eval/scenario_registry.h"
#include "eval/table1.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "runtime/multi_vp.h"
#include "runtime/thread_pool.h"
#include "warts/dot.h"
#include "warts/json.h"
#include "warts/warts.h"

using namespace bdrmap;

namespace {

struct Options {
  std::string scenario = "ren";
  bool list_scenarios = false;
  std::uint64_t seed = 42;
  std::size_t vp_index = 0;
  bool all_vps = false;  // run every VP of the network, in parallel
  unsigned threads = std::thread::hardware_concurrency();
  std::string json_path;
  std::string warts_path;
  std::string dot_path;
  std::string replay_path;  // offline re-analysis of an archived run
  bool dump_traces = false;
  bool table1 = false;
  bool validate = false;
  bool audit = false;  // invariant-check the run (src/check/)
  bool quiet = false;
  // Observability export (DESIGN.md §11): when set, the run executes with
  // metrics + tracing enabled and writes one JSON document here. The
  // border map itself is bit-identical either way.
  std::string obs_json_path;
};

void list_scenarios(std::FILE* out) {
  std::fprintf(out, "available scenarios:\n");
  for (const std::string& name : eval::scenario_names()) {
    auto spec = eval::scenario_spec(name, 1);
    std::fprintf(out, "  %-15s %s\n", name.c_str(),
                 spec ? spec->description.c_str() : "");
  }
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--scenario NAME] [--list-scenarios] [--seed N] [--vp K]\n"
      "          [--all-vps] [--threads N]\n"
      "          [--json FILE] [--warts FILE] [--dot FILE] [--replay FILE]\n"
      "          [--dump-traces] [--table1] [--validate] [--audit] "
      "[--quiet]\n"
      "          [--obs-json FILE]\n",
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
    } else if (arg == "--list-scenarios") {
      opts->list_scenarios = true;
    } else if (arg == "--seed") {
      if (!number(&opts->seed)) return false;
    } else if (arg == "--vp") {
      if (!number(&opts->vp_index)) return false;
    } else if (arg == "--all-vps") {
      opts->all_vps = true;
    } else if (arg == "--threads") {
      if (!number(&opts->threads)) return false;
    } else if (arg == "--json") {
      const char* v = next();
      if (!v) return false;
      opts->json_path = v;
    } else if (arg == "--warts") {
      const char* v = next();
      if (!v) return false;
      opts->warts_path = v;
    } else if (arg == "--dot") {
      const char* v = next();
      if (!v) return false;
      opts->dot_path = v;
    } else if (arg == "--replay") {
      const char* v = next();
      if (!v) return false;
      opts->replay_path = v;
    } else if (arg == "--dump-traces") {
      opts->dump_traces = true;
    } else if (arg == "--table1") {
      opts->table1 = true;
    } else if (arg == "--validate") {
      opts->validate = true;
    } else if (arg == "--audit") {
      opts->audit = true;
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

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, &opts)) {
    usage(argv[0]);
    return 2;
  }

  if (opts.list_scenarios) {
    list_scenarios(stdout);
    return 0;
  }

  auto spec = eval::scenario_spec(opts.scenario, opts.seed);
  if (!spec.has_value()) {
    std::fprintf(stderr, "unknown scenario: %s\n", opts.scenario.c_str());
    list_scenarios(stderr);
    usage(argv[0]);
    return 2;
  }
  const topo::AsKind vp_kind = spec->vp_kind;

  obs::ObsOptions obs_options;
  obs_options.enabled = !opts.obs_json_path.empty();
  obs_options.run_label = opts.scenario;
  obs::Observability obs(obs_options);

  route::FibOptions fib_options;
  fib_options.metrics = obs.registry();
  eval::Scenario scenario(*spec, fib_options);
  net::AsId vp_as = scenario.first_of(vp_kind);
  auto vps = scenario.vps_in(vp_as);
  if (vps.empty()) {
    std::fprintf(stderr, "no VP available in %s\n", vp_as.str().c_str());
    return 1;
  }
  if (opts.all_vps) {
    if (!opts.replay_path.empty() || opts.dump_traces || opts.table1 ||
        opts.audit || !opts.json_path.empty() || !opts.warts_path.empty() ||
        !opts.dot_path.empty()) {
      std::fprintf(stderr,
                   "--all-vps combines only with --validate/--threads/"
                   "--quiet/--obs-json; export and replay flags are "
                   "per-VP\n");
      return 2;
    }
    // The pool reports into the run's registry when observability is on
    // (registry() is null otherwise, giving the pool a private one).
    auto pool = runtime::make_pool(opts.threads, obs.registry());
    core::BdrmapConfig run_config;
    run_config.obs = &obs;
    if (!opts.quiet) {
      std::printf("scenario=%s seed=%llu: %zu VPs in %s on %u thread(s)\n",
                  opts.scenario.c_str(),
                  static_cast<unsigned long long>(opts.seed), vps.size(),
                  vp_as.str().c_str(), opts.threads);
    }
    // VP i probes with seed (seed ^ 0x515) + i, so VP 0 reproduces the
    // single-VP run bit for bit.
    runtime::MultiVpResult runs = scenario.run_bdrmap_parallel(
        vps, run_config, opts.seed ^ 0x515, pool.get());

    for (std::size_t i = 0; i < runs.per_vp.size(); ++i) {
      const core::BdrmapResult& r = runs.per_vp[i];
      std::printf("VP %2zu %-14s %zu traces -> %zu routers, %zu links, "
                  "%zu neighbor ASes\n",
                  i, scenario.net().pops()[vps[i].pop].city.c_str(),
                  r.stats.traces, r.stats.routers, r.links.size(),
                  r.links_by_as.size());
    }
    std::printf("merged: %zu links (%zu distinct neighbor ASes), "
                "%llu probes, %zu traces total\n",
                runs.merged_links.size(), runs.merged_links_by_as.size(),
                static_cast<unsigned long long>(runs.total.probes_sent),
                runs.total.traces);

    if (opts.validate) {
      eval::GroundTruth truth(scenario.net(), vp_as);
      std::size_t links_total = 0, links_correct = 0;
      for (const auto& r : runs.per_vp) {
        auto summary = truth.validate(r);
        links_total += summary.links_total;
        links_correct += summary.links_correct;
      }
      std::printf("validation: %zu/%zu links correct (%.1f%%) across "
                  "%zu VPs\n",
                  links_correct, links_total,
                  100.0 * static_cast<double>(links_correct) /
                      static_cast<double>(std::max<std::size_t>(
                          links_total, 1)),
                  runs.per_vp.size());
    }

    if (!opts.quiet) {
      std::printf("stages: run %.3fs, reduce %.3fs\n",
                  runs.times.run_seconds, runs.times.reduce_seconds);
      if (pool) {
        obs::MetricsSnapshot s = pool->metrics().snapshot();
        std::printf(
            "pool: %llu tasks submitted, %llu executed, "
            "%llu steals, %llu parks, %llu unparks\n",
            static_cast<unsigned long long>(
                s.counter("runtime.tasks_submitted")),
            static_cast<unsigned long long>(
                s.counter("runtime.tasks_executed")),
            static_cast<unsigned long long>(s.counter("runtime.steals")),
            static_cast<unsigned long long>(s.counter("runtime.parks")),
            static_cast<unsigned long long>(s.counter("runtime.unparks")));
      }
    }
    if (!opts.obs_json_path.empty()) {
      obs::ExportInfo info;
      info.tool = "bdrmap_sim";
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

  if (opts.vp_index >= vps.size()) {
    std::fprintf(stderr, "vp index %zu out of range (%zu VPs)\n",
                 opts.vp_index, vps.size());
    return 1;
  }
  const topo::Vp& vp = vps[opts.vp_index];
  if (!opts.quiet) {
    std::printf("scenario=%s seed=%llu VP %zu/%zu: %s at %s\n",
                opts.scenario.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.vp_index + 1,
                vps.size(), vp.as.str().c_str(),
                scenario.net().pops()[vp.pop].city.c_str());
  }

  core::BdrmapConfig run_config;
  run_config.obs = &obs;
  core::BdrmapResult result =
      opts.replay_path.empty()
          ? scenario.run_bdrmap(vp, run_config, opts.seed ^ 0x515)
          : core::analyze_offline(warts::load_traces(opts.replay_path),
                                  scenario.inputs_for(vp_as));
  if (!opts.replay_path.empty() && !opts.quiet) {
    std::printf("offline re-analysis of %s (analytic aliases only)\n",
                opts.replay_path.c_str());
  }

  if (!opts.quiet) {
    std::printf("%zu blocks, %llu probes, %zu traces -> %zu routers, "
                "%zu links across %zu neighbor ASes\n",
                result.stats.blocks,
                static_cast<unsigned long long>(result.stats.probes_sent),
                result.stats.traces, result.stats.routers,
                result.links.size(), result.links_by_as.size());
  }

  if (opts.table1) {
    auto inputs = scenario.inputs_for(vp_as);
    auto table = eval::build_table1(result, *inputs.rels, inputs.vp_ases);
    std::fputs(eval::render_table1(table, "heuristic attribution").c_str(),
               stdout);
  }

  if (opts.validate) {
    eval::GroundTruth truth(scenario.net(), vp_as);
    auto summary = truth.validate(result);
    std::printf("validation: %zu/%zu links correct (%.1f%%), "
                "%zu/%zu routers correct (%.1f%%)\n",
                summary.links_correct, summary.links_total,
                100.0 * summary.link_accuracy(), summary.routers_correct,
                summary.routers_total, 100.0 * summary.router_accuracy());
  }

  if (opts.audit) {
    // Invariant-check the inference products against the inputs the run
    // consumed (and the substrate, for the owner universe).
    auto inputs = scenario.inputs_for(vp_as);
    check::CheckContext ctx = check::inference_context(result, inputs);
    ctx.net = &scenario.net();
    check::CheckReport report = check::InvariantChecker().run(ctx);
    if (!report.clean()) std::fputs(report.summary().c_str(), stdout);
    std::printf("audit: %zu passes, %zu violations (%zu errors)\n",
                report.passes_run.size(), report.violations.size(),
                report.error_count());
    if (report.error_count() > 0) return 1;
  }

  if (opts.dump_traces) {
    std::fputs(warts::dump_text(result.graph.traces()).c_str(), stdout);
  }
  if (!opts.warts_path.empty()) {
    warts::save_traces(opts.warts_path, result.graph.traces());
    if (!opts.quiet) {
      std::printf("wrote %zu traces to %s\n", result.graph.traces().size(),
                  opts.warts_path.c_str());
    }
  }
  if (!opts.dot_path.empty()) {
    std::ofstream out(opts.dot_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", opts.dot_path.c_str());
      return 1;
    }
    out << warts::result_to_dot(result);
    if (!opts.quiet) {
      std::printf("wrote graphviz map to %s\n", opts.dot_path.c_str());
    }
  }
  if (!opts.json_path.empty()) {
    std::ofstream out(opts.json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", opts.json_path.c_str());
      return 1;
    }
    out << warts::result_to_json(result) << "\n";
    if (!opts.quiet) {
      std::printf("wrote border map to %s\n", opts.json_path.c_str());
    }
  }
  if (!opts.obs_json_path.empty()) {
    obs::ExportInfo info;
    info.tool = "bdrmap_sim";
    info.scenario = opts.scenario;
    info.seed = opts.seed;
    info.vps = 1;
    info.threads = 1;
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
