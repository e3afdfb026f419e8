// Baseline comparison: bdrmap vs naive longest-prefix IP-AS mapping.
//
// §3 cites Huffaker et al.'s best router-ownership heuristic at 71%
// correct; §4 explains why plain IP-AS fails (provider-assigned link
// addressing, third-party addresses, unrouted space...). This bench scores
// both methods on identical traces against ground truth.
#include <cstdio>

#include "core/baseline.h"
#include "core/mapit.h"
#include "eval/ground_truth.h"
#include "eval/report.h"
#include "eval/scenario.h"

using namespace bdrmap;

namespace {

struct Row {
  std::string name;
  double bdrmap_acc = 0.0;
  double baseline_acc = 0.0;
  double mapit_acc = 0.0;
  double mapit_terminal_share = 0.0;  // the §3 critique, quantified
  std::size_t routers = 0;
  std::size_t baseline_false_links = 0;
};

Row compare(const char* name, const topo::GeneratorConfig& config,
            topo::AsKind vp_kind) {
  eval::Scenario scenario(config);
  net::AsId vp_as = scenario.first_of(vp_kind);
  auto vp = scenario.vps_in(vp_as).front();
  auto inputs = scenario.inputs_for(vp_as);
  auto result = scenario.run_bdrmap(vp);
  eval::GroundTruth truth(scenario.net(), vp_as);
  auto summary = truth.validate(result);

  Row row;
  row.name = name;
  row.routers = summary.routers_total;
  row.bdrmap_acc = 100.0 * summary.router_accuracy();

  auto baseline = core::naive_ip_as(result.graph.traces(), *inputs.origins,
                                    inputs.vp_ases);
  std::size_t total = 0, correct = 0;
  for (const auto& [addr, as] : baseline.owners) {
    auto r = scenario.net().router_at(addr);
    if (!r) continue;
    net::AsId owner = scenario.net().router(*r).owner;
    if (truth.same_org(owner, vp_as)) continue;  // score far side only
    ++total;
    correct += truth.same_org(as, owner);
  }
  row.baseline_acc = eval::pct(correct, total);

  // MAP-IT-style multipass interface relabeling on the same traces.
  auto mapit = core::run_mapit(result.graph.traces(), *inputs.origins);
  std::size_t mtotal = 0, mcorrect = 0;
  for (const auto& [addr, as] : mapit.owners) {
    auto r = scenario.net().router_at(addr);
    if (!r) continue;
    net::AsId owner = scenario.net().router(*r).owner;
    if (truth.same_org(owner, vp_as)) continue;
    ++mtotal;
    mcorrect += as.valid() && truth.same_org(as, owner);
  }
  row.mapit_acc = eval::pct(mcorrect, mtotal);
  row.mapit_terminal_share =
      eval::pct(mapit.terminal_interfaces, mapit.owners.size());

  // Baseline "interdomain links" naming an AS that is not actually the
  // operator on the far side (third-party / provider-addressing errors).
  for (const auto& link : baseline.links) {
    auto far = scenario.net().router_at(link.far_addr);
    if (!far) continue;
    if (!truth.same_org(scenario.net().router(*far).owner, link.far_as)) {
      ++row.baseline_false_links;
    }
  }
  return row;
}

}  // namespace

int main() {
  std::printf("bdrmap vs naive longest-prefix IP-AS ownership\n");
  std::printf("paper context: best prior router-ownership heuristic "
              "validated at 71%% [17]\n\n");
  std::vector<Row> rows = {
      compare("R&E network", eval::research_education_config(42),
              topo::AsKind::kResearchEdu),
      compare("Large access network", eval::large_access_config(42),
              topo::AsKind::kAccess),
      compare("Tier-1 network", eval::tier1_config(42), topo::AsKind::kTier1),
  };
  std::vector<std::vector<std::string>> cells;
  for (const auto& r : rows) {
    cells.push_back({r.name, std::to_string(r.routers),
                     eval::format_double(r.bdrmap_acc) + "%",
                     eval::format_double(r.baseline_acc) + "%",
                     eval::format_double(r.mapit_acc) + "%",
                     eval::format_double(r.mapit_terminal_share) + "%",
                     std::to_string(r.baseline_false_links)});
  }
  std::fputs(eval::render_table({"network", "routers scored", "bdrmap",
                                 "naive IP-AS", "MAP-IT-style",
                                 "terminal ifaces", "false links (naive)"},
                                cells)
                 .c_str(),
             stdout);
  std::printf("\nMAP-IT's constraint gap (§3): interfaces terminal in every "
              "trace have no\nsubsequent addresses to reason from — the "
              "paper notes half its interdomain\nlinks sit at path ends, "
              "where bdrmap's destination-based heuristics still "
              "apply.\n");
  return 0;
}
