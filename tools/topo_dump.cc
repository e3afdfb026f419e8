// topo_dump — inspect a generated synthetic Internet.
//
// Prints the AS inventory, relationship counts, per-kind router/link
// statistics, and optionally the full interdomain link list — useful when
// tuning generator configurations or debugging an experiment.
//
// Usage: topo_dump [--scenario ren|access|tier1|small] [--seed N] [--links]
#include <cstdio>
#include <map>
#include <string>

#include "cli_number.h"
#include "eval/scenario.h"

using namespace bdrmap;

namespace {

const char* kind_name(topo::AsKind kind) {
  switch (kind) {
    case topo::AsKind::kTier1: return "tier1";
    case topo::AsKind::kTransit: return "transit";
    case topo::AsKind::kAccess: return "access";
    case topo::AsKind::kContent: return "content";
    case topo::AsKind::kEnterprise: return "enterprise";
    case topo::AsKind::kResearchEdu: return "research";
    case topo::AsKind::kIxpOperator: return "ixp";
  }
  return "?";
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scenario ren|access|tier1|small] "
               "[--seed N] [--links]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_name = "access";
  std::uint64_t seed = 42;
  bool list_links = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--scenario" && i + 1 < argc) {
      scenario_name = argv[++i];
    } else if (arg == "--seed") {
      const char* v = i + 1 < argc ? argv[++i] : nullptr;
      if (!tools::parse_number(arg.c_str(), v, &seed)) return usage(argv[0]);
    } else if (arg == "--links") {
      list_links = true;
    } else {
      return usage(argv[0]);
    }
  }

  topo::GeneratorConfig config;
  if (scenario_name == "ren") {
    config = eval::research_education_config(seed);
  } else if (scenario_name == "access") {
    config = eval::large_access_config(seed);
  } else if (scenario_name == "tier1") {
    config = eval::tier1_config(seed);
  } else if (scenario_name == "small") {
    config = eval::small_access_config(seed);
  } else {
    std::fprintf(stderr, "unknown scenario %s\n", scenario_name.c_str());
    return 2;
  }

  auto gen = topo::generate(config);
  const auto& net = gen.net;

  std::map<topo::AsKind, std::size_t> as_counts, router_counts;
  for (const auto& info : net.ases()) {
    ++as_counts[info.kind];
    router_counts[info.kind] += info.routers.size();
  }
  std::printf("ASes: %zu   routers: %zu   interfaces: %zu   links: %zu\n",
              net.ases().size(), net.routers().size(), net.ifaces().size(),
              net.links().size());
  for (const auto& [kind, count] : as_counts) {
    std::printf("  %-10s %4zu ASes, %5zu routers\n", kind_name(kind), count,
                router_counts[kind]);
  }

  std::size_t c2p = 0, p2p = 0;
  const auto& rels = net.truth_relationships();
  for (net::AsId as : rels.all_ases()) {
    c2p += rels.customers(as).size();
    p2p += rels.peers(as).size();
  }
  std::printf("relationships: %zu c2p, %zu p2p\n", c2p, p2p / 2);
  std::printf("interdomain links: %zu (%zu via IXP LANs)\n",
              net.interdomain_links().size(),
              static_cast<std::size_t>(std::count_if(
                  net.interdomain_links().begin(),
                  net.interdomain_links().end(),
                  [](const auto& il) { return il.via_ixp; })));
  std::printf("announced prefixes: %zu   RIR delegations: %zu   "
              "PTR records: %zu\n",
              net.announced().size(), net.rir().all().size(),
              net.reverse_dns().size());
  std::printf("VPs: %zu\n", gen.vps.size());

  if (list_links) {
    std::printf("\nlink  kind  a -> b (routers, city)\n");
    for (const auto& il : net.interdomain_links()) {
      std::printf("%5u %s %s(R%u) -- %s(R%u) @ %s\n", il.link.value,
                  il.via_ixp ? "ixp " : "pniv", il.as_a.str().c_str(),
                  il.router_a.value, il.as_b.str().c_str(),
                  il.router_b.value,
                  net.pops()[net.router(il.router_a).pop].city.c_str());
    }
  }
  return 0;
}
