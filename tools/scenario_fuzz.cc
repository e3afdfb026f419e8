// scenario_fuzz — property-based Gao-Rexford scenario fuzzer (eval/fuzzer.h).
//
// Sweeps randomized topologies through the full pipeline, one scenario
// family per case, and checks the three fuzz properties (no crash/contract
// abort, per-family accuracy floor, clean invariant audit). Failing seeds
// are printed as one-line repro commands and the exit status is nonzero.
//
// Usage:
//   scenario_fuzz [--seeds N] [--base-seed S] [--family NAME]...
//                 [--floor X] [--threads N] [--obs-json FILE]
//                 [--list] [--quiet]
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "eval/fuzzer.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "runtime/flags.h"
#include "runtime/thread_pool.h"

using namespace bdrmap;

namespace {

struct Options {
  std::size_t seeds = 25;
  std::uint64_t base_seed = 1;
  std::vector<std::string> families;
  double floor_override = -1.0;
  unsigned threads = std::thread::hardware_concurrency();
  std::string obs_json_path;
  bool list = false;
  bool quiet = false;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds N] [--base-seed S] [--family NAME]...\n"
               "          [--floor X] [--threads N] [--obs-json FILE]\n"
               "          [--list] [--quiet]\n",
               argv0);
}

bool parse_args(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    auto number = [&](auto* out) {
      return runtime::parse_number(arg.c_str(), next(), out);
    };
    if (arg == "--seeds") {
      if (!number(&opts->seeds)) return false;
    } else if (arg == "--base-seed") {
      if (!number(&opts->base_seed)) return false;
    } else if (arg == "--family") {
      const char* v = next();
      if (!v) return false;
      opts->families.emplace_back(v);
    } else if (arg == "--floor") {
      if (!number(&opts->floor_override)) return false;
    } else if (arg == "--threads") {
      if (!number(&opts->threads)) return false;
    } else if (arg == "--obs-json") {
      const char* v = next();
      if (!v) return false;
      opts->obs_json_path = v;
    } else if (arg == "--list") {
      opts->list = true;
    } else if (arg == "--quiet") {
      opts->quiet = true;
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
  if (opts.list) {
    std::printf("default fuzz families:\n");
    for (const std::string& name : eval::default_fuzz_families()) {
      auto spec = eval::scenario_spec(name, 1);
      std::printf("  %-15s floor %.2f  %s\n", name.c_str(),
                  spec ? spec->fuzz_floor : 0.0,
                  spec ? spec->description.c_str() : "");
    }
    return 0;
  }
  for (const std::string& name : opts.families) {
    if (!eval::scenario_spec(name, 1).has_value()) {
      std::fprintf(stderr, "unknown family: %s\n", name.c_str());
      std::fprintf(stderr, "registered scenarios:\n");
      for (const std::string& known : eval::scenario_names()) {
        std::fprintf(stderr, "  %s\n", known.c_str());
      }
      return 2;
    }
  }

  obs::ObsOptions obs_options;
  obs_options.enabled = !opts.obs_json_path.empty();
  obs_options.run_label = "fuzz";
  obs::Observability obs(obs_options);

  eval::FuzzConfig config;
  config.base_seed = opts.base_seed;
  config.cases = opts.seeds;
  config.families = opts.families;
  config.floor_override = opts.floor_override;
  config.obs = obs_options.enabled ? &obs : nullptr;
  auto pool = runtime::make_pool(opts.threads, obs.registry());
  config.pool = pool.get();

  eval::FuzzSummary summary = eval::run_fuzz(config);

  for (const eval::FuzzCaseResult& c : summary.cases) {
    if (c.passed && opts.quiet) continue;
    if (c.passed) {
      std::printf("ok   %-15s seed %llu  accuracy %.3f (floor %.2f, "
                  "%zu links, audit clean)\n",
                  c.family.c_str(), static_cast<unsigned long long>(c.seed),
                  c.link_accuracy, c.floor, c.links_total);
      continue;
    }
    std::printf("FAIL %-15s seed %llu:", c.family.c_str(),
                static_cast<unsigned long long>(c.seed));
    if (c.crashed) std::printf(" crash [%s]", c.error.c_str());
    if (!c.gr_consistent) std::printf(" truth-graph-not-gao-rexford");
    if (c.audit_errors > 0) std::printf(" audit-errors=%zu", c.audit_errors);
    if (!c.crashed && c.links_total == 0) std::printf(" no-links-inferred");
    if (!c.crashed && c.links_total > 0 && c.link_accuracy < c.floor) {
      std::printf(" accuracy=%.3f<%.2f", c.link_accuracy, c.floor);
    }
    std::printf("\n     repro: %s\n", c.repro.c_str());
  }
  std::printf("fuzz: %zu cases, %zu failures\n", summary.cases.size(),
              summary.failures());

  if (!opts.obs_json_path.empty()) {
    obs::ExportInfo info;
    info.tool = "scenario_fuzz";
    info.scenario = "fuzz";
    info.seed = opts.base_seed;
    info.vps = opts.seeds;  // one VP pipeline per case
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
  return summary.passed() ? 0 : 1;
}
