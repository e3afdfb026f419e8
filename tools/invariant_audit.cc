// invariant_audit — run the bdrmap-verify invariant passes from the shell.
//
// Audits the routing substrate of a named scenario (AS graph, RIB, FIB) and
// optionally a full bdrmap inference run on top of it. Exit status: 0 when
// every pass is clean, 1 when violations were found, 2 on usage errors —
// which makes it usable directly as a CI gate.
//
// Usage:
//   invariant_audit [--scenario ren|access|tier1|small] [--seed N] [--vp K]
//                   [--passes id,id,...] [--list] [--no-pipeline]
//                   [--max-route-pairs N] [--max-fib-walks N] [--quiet]
#include <cstdio>
#include <string>
#include <vector>

#include "check/check.h"
#include "eval/scenario.h"
#include "runtime/flags.h"

using namespace bdrmap;

namespace {

struct Options {
  std::string scenario = "ren";
  std::uint64_t seed = 42;
  std::size_t vp_index = 0;
  std::vector<std::string> passes;
  bool list = false;
  bool run_pipeline = true;
  std::size_t max_route_pairs = 2000;
  std::size_t max_fib_walks = 400;
  bool quiet = false;
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--scenario ren|access|tier1|small] [--seed N] [--vp K]\n"
      "          [--passes id,id,...] [--list] [--no-pipeline]\n"
      "          [--max-route-pairs N] [--max-fib-walks N] [--quiet]\n",
      argv0);
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > start) out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
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
    if (arg == "--scenario") {
      const char* v = next();
      if (v == nullptr) return false;
      opts->scenario = v;
    } else if (arg == "--seed") {
      if (!number(&opts->seed)) return false;
    } else if (arg == "--vp") {
      if (!number(&opts->vp_index)) return false;
    } else if (arg == "--passes") {
      const char* v = next();
      if (v == nullptr) return false;
      opts->passes = split_csv(v);
    } else if (arg == "--list") {
      opts->list = true;
    } else if (arg == "--no-pipeline") {
      opts->run_pipeline = false;
    } else if (arg == "--max-route-pairs") {
      if (!number(&opts->max_route_pairs)) return false;
    } else if (arg == "--max-fib-walks") {
      if (!number(&opts->max_fib_walks)) return false;
    } else if (arg == "--quiet") {
      opts->quiet = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

void print_report(const char* title, const check::CheckReport& report,
                  bool quiet) {
  if (quiet && report.clean()) return;
  std::printf("-- %s --\n%s", title, report.summary().c_str());
  for (const auto& skipped : report.passes_skipped) {
    std::printf("  (skipped: %s)\n", skipped.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, &opts)) {
    usage(argv[0]);
    return 2;
  }

  check::InvariantChecker checker;
  if (opts.list) {
    for (const auto& pass : checker.passes()) {
      std::printf("%-28s %s\n", pass.id.c_str(), pass.description.c_str());
    }
    return 0;
  }

  topo::GeneratorConfig config;
  topo::AsKind vp_kind;
  if (opts.scenario == "ren") {
    config = eval::research_education_config(opts.seed);
    vp_kind = topo::AsKind::kResearchEdu;
  } else if (opts.scenario == "access") {
    config = eval::large_access_config(opts.seed);
    vp_kind = topo::AsKind::kAccess;
  } else if (opts.scenario == "tier1") {
    config = eval::tier1_config(opts.seed);
    vp_kind = topo::AsKind::kTier1;
  } else if (opts.scenario == "small") {
    config = eval::small_access_config(opts.seed);
    vp_kind = topo::AsKind::kAccess;
  } else {
    usage(argv[0]);
    return 2;
  }

  eval::Scenario scenario(config);
  bool violations = false;

  check::CheckContext substrate =
      check::substrate_context(scenario.net(), scenario.bgp(), scenario.fib());
  substrate.max_route_pairs = opts.max_route_pairs;
  substrate.max_fib_walks = opts.max_fib_walks;
  substrate.sample_seed = opts.seed;
  check::CheckReport substrate_report = checker.run(substrate, opts.passes);
  print_report("substrate", substrate_report, opts.quiet);
  violations = violations || !substrate_report.clean();

  if (opts.run_pipeline) {
    net::AsId vp_as = scenario.first_of(vp_kind);
    auto vps = scenario.vps_in(vp_as);
    if (vps.empty()) {
      std::fprintf(stderr, "no VPs in %s\n", vp_as.str().c_str());
      return 2;
    }
    const topo::Vp& vp = vps[opts.vp_index % vps.size()];
    core::InferenceInputs inputs = scenario.inputs_for(vp_as);
    core::BdrmapResult result = scenario.run_bdrmap(vp);

    check::CheckContext inference =
        check::inference_context(result, inputs);
    inference.net = &scenario.net();
    inference.sample_seed = opts.seed;
    check::CheckReport inference_report = checker.run(inference, opts.passes);
    print_report("inference", inference_report, opts.quiet);
    violations = violations || !inference_report.clean();
  }

  if (!opts.quiet) {
    std::printf("%s\n", violations ? "AUDIT: violations found"
                                   : "AUDIT: all invariants hold");
  }
  return violations ? 1 : 0;
}
