// Golden border-map table (tests/golden_border_maps.txt): the reference
// every forwarding and inference change is checked against.
//
// Each row pins serve::BorderMapSnapshot::fingerprint(), a structural hash
// of the compiled border map, for one scenario family at ECMP probe salts
// 0-3, plus the two-VP "small" run at 1, 2 and 8 pool workers. The rows
// were first blessed on the commit that retired the alternative planes,
// where each of them reproduced every row: the uncached and the
// keyed-egress FIB, the per-call heuristics scans, the hard-coded legacy
// ladder, and probe waves off or 7 wide. All are since deleted; the FIB's
// last keyed map, for pinned prefixes, became columns of its flat rows
// with every row unchanged.
// They were re-blessed once when every run moved onto the (VP, target-AS)
// slice plan, which re-keys the probe RNG streams per slice, and once when
// alias pair tests moved onto keyed draws with a pair-local clock and
// IP-ID counts, which made a verdict independent of test order. The suite
// keeps the name of the cross-engine parity suite it replaced, because a
// row is the legacy ladder's map; "Heuristic" in the name also puts it in
// the tsan stage's ctest filter.
//
// A failing test prints its recomputed row in the table's format. Paste it
// into the table only when the change of map is intended.
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bdrmap.h"
#include "core/merge.h"
#include "eval/scenario.h"
#include "eval/scenario_registry.h"
#include "runtime/multi_vp.h"
#include "runtime/thread_pool.h"
#include "serve/snapshot.h"

namespace bdrmap::eval {
namespace {

using Row = std::vector<std::string>;

constexpr std::uint64_t kScenarioSeed = 42;
constexpr std::uint64_t kProbeSeed = 0x515;
constexpr std::uint32_t kSalts = 4;

std::string fingerprint(const std::vector<const core::BdrmapResult*>& runs) {
  const std::uint64_t fp =
      serve::BorderMapSnapshot::compile({}, core::merge_results(runs),
                                        /*epoch=*/0)
          ->fingerprint();
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, fp);
  return buf;
}

// The committed table, keyed by row name.
const std::map<std::string, Row>& golden_table() {
  static const std::map<std::string, Row> table = [] {
    std::map<std::string, Row> rows;
    std::ifstream in(BDRMAP_SOURCE_DIR "/tests/golden_border_maps.txt");
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line.front() == '#') continue;
      std::istringstream fields(line);
      std::string name;
      std::string fp;
      fields >> name;
      while (fields >> fp) rows[name].push_back(fp);
    }
    return rows;
  }();
  return table;
}

void expect_row(const std::string& name, const Row& got) {
  std::string line = name;
  line.resize(std::max<std::size_t>(line.size(), 16), ' ');
  for (const std::string& fp : got) line += " " + fp;
  auto it = golden_table().find(name);
  ASSERT_NE(it, golden_table().end()) << "no committed row; add:\n" << line;
  EXPECT_EQ(it->second, got)
      << "border map changed; if on purpose, re-bless with:\n"
      << line;
}

// The family's featured VP: the first VP of its VP network.
topo::Vp featured_vp(const Scenario& s) {
  return s.vps_in(s.first_of(s.spec().vp_kind)).front();
}

class HeuristicParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(HeuristicParityTest, RegistryMatchesLegacyLadder) {
  auto s = make_scenario(GetParam(), kScenarioSeed);
  ASSERT_NE(s, nullptr);
  const topo::Vp vp = featured_vp(*s);
  Row row;
  for (std::uint32_t salt = 0; salt < kSalts; ++salt) {
    core::BdrmapResult r = s->run_bdrmap(vp, {}, kProbeSeed + salt);
    EXPECT_FALSE(r.links.empty()) << "salt " << salt;
    row.push_back(fingerprint({&r}));
  }
  expect_row(GetParam(), row);
}

INSTANTIATE_TEST_SUITE_P(Families, HeuristicParityTest,
                         ::testing::ValuesIn(scenario_names()),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

TEST(HeuristicParityTest, EcmpSaltsAndProbeWaves) {
  // A job built by hand over the scenario's own services, run straight on
  // the executor, must land on the family's row at every salt. The name
  // is kept from when the row was also checked with probe waves off;
  // WalkReferenceTest.TraceHopsFollowReferenceWalk checks the walks.
  auto s = make_scenario("small", kScenarioSeed);
  const topo::Vp vp = featured_vp(*s);
  runtime::VpJob job;
  job.make_services = [&s, vp](std::uint64_t seed) {
    return s->services_for(vp, seed);
  };
  job.inputs = s->inputs_for(vp.as);
  Row row;
  for (std::uint32_t salt = 0; salt < kSalts; ++salt) {
    const runtime::MultiVpResult m =
        runtime::MultiVpExecutor(nullptr).run({job}, {}, kProbeSeed + salt);
    row.push_back(fingerprint({&m.per_vp.front()}));
  }
  expect_row("small", row);
}

TEST(HeuristicParityTest, ShardedIdenticalAcrossWorkersAndEngines) {
  // A fresh scenario per worker count: every run fills the shared FIB and
  // BGP caches from cold, concurrently at 2 and 8 workers, while the
  // slices of both VPs interleave on the pool.
  for (unsigned workers : {1u, 2u, 8u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    auto s = make_scenario("small", kScenarioSeed);
    std::vector<topo::Vp> vps = s->vps_in(s->first_of(s->spec().vp_kind));
    if (vps.size() > 2) vps.resize(2);
    runtime::ThreadPool pool(workers);
    runtime::MultiVpResult m = s->run_bdrmap_parallel(vps, {}, 0x1517, &pool);
    std::vector<const core::BdrmapResult*> runs;
    for (const core::BdrmapResult& r : m.per_vp) runs.push_back(&r);
    expect_row("small/sharded", {fingerprint(runs)});
  }
}

}  // namespace
}  // namespace bdrmap::eval
