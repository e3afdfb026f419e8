// Ground-truth scoring, Table 1 accounting and report rendering.
#include <gtest/gtest.h>

#include "eval/ground_truth.h"
#include "eval/report.h"
#include "eval/scenario.h"
#include "eval/table1.h"

namespace bdrmap::eval {
namespace {

TEST(GroundTruth, TrueOwnerMajorityVote) {
  Scenario s(small_access_config(3));
  GroundTruth truth(s.net(), s.first_of(topo::AsKind::kAccess));
  const auto& iface = s.net().ifaces().front();
  auto owner = truth.true_owner(std::vector<net::Ipv4Addr>{iface.addr});
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(*owner, s.net().router(iface.router).owner);
  EXPECT_FALSE(truth.true_owner(
      std::vector<net::Ipv4Addr>{net::Ipv4Addr::of(203, 0, 113, 1)}));
}

TEST(GroundTruth, TrueNeighborsNonEmptyAndSorted) {
  Scenario s(small_access_config(3));
  GroundTruth truth(s.net(), s.first_of(topo::AsKind::kAccess));
  auto neighbors = truth.true_neighbors();
  ASSERT_GT(neighbors.size(), 2u);
  EXPECT_TRUE(std::is_sorted(neighbors.begin(), neighbors.end()));
}

TEST(Table1, ColumnsPartitionNeighbors) {
  Scenario s(small_access_config(3));
  net::AsId vp_as = s.first_of(topo::AsKind::kAccess);
  auto result = s.run_bdrmap(s.vps_in(vp_as).front());
  auto inputs = s.inputs_for(vp_as);
  Table1 t = build_table1(result, *inputs.rels, inputs.vp_ases);

  std::size_t bdrmap_total = 0, by_as = result.links_by_as.size();
  for (std::size_t c = 0; c < kRelColumns; ++c) {
    bdrmap_total += t.observed_in_bdrmap[c];
  }
  EXPECT_EQ(bdrmap_total, by_as);

  // Heuristic rows sum to the neighbor-router row per column.
  for (std::size_t c = 0; c < kRelColumns; ++c) {
    std::size_t sum = 0;
    for (const auto& [h, counts] : t.rows) sum += counts[c];
    EXPECT_EQ(sum, t.neighbor_routers[c]) << "column " << c;
  }
  EXPECT_GT(t.bgp_coverage(), 0.5);
  EXPECT_LE(t.bgp_coverage(), 1.0);

  auto rendered = render_table1(t, "test");
  EXPECT_NE(rendered.find("Coverage of BGP"), std::string::npos);
  EXPECT_NE(rendered.find("Neighbor routers"), std::string::npos);
}

TEST(Report, TableAlignsColumns) {
  auto out = render_table({"name", "x"}, {{"a", "1"}, {"bbbb", "22"}});
  EXPECT_NE(out.find("bbbb"), std::string::npos);
  EXPECT_EQ(out.front(), 'n');
}

TEST(Report, CdfIsMonotoneAndEndsAtOne) {
  auto c = cdf({3, 1, 2, 2, 5});
  ASSERT_FALSE(c.empty());
  EXPECT_EQ(c.back().first, 5);
  EXPECT_DOUBLE_EQ(c.back().second, 1.0);
  for (std::size_t i = 1; i < c.size(); ++i) {
    EXPECT_GT(c[i].second, c[i - 1].second);
    EXPECT_GT(c[i].first, c[i - 1].first);
  }
}

TEST(Report, SeriesPlotsWithoutCrashing) {
  auto out = render_series("title", {{1, 1}, {2, 4}, {3, 9}});
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(render_series("empty", {}).find("no data"), std::string::npos);
}

TEST(Report, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0), "1.0");
}

TEST(GroundTruth, ValidatesLinksAgainstTruthTopology) {
  Scenario s(small_access_config(3));
  net::AsId vp_as = s.first_of(topo::AsKind::kAccess);
  auto result = s.run_bdrmap(s.vps_in(vp_as).front());
  GroundTruth truth(s.net(), vp_as);
  auto summary = truth.validate(result);
  EXPECT_EQ(summary.links.size(), result.links.size());
  EXPECT_EQ(summary.routers_total, summary.routers.size());
  EXPECT_LE(summary.links_correct, summary.links_total);
  // Every scored link resolves its near side to a real router when the
  // graph knew one.
  for (const auto& lt : summary.links) {
    const auto& link = result.links[lt.link_index];
    if (link.vp_router != core::InferredLink::kNoRouter) {
      EXPECT_TRUE(lt.near_router.valid());
    }
  }
}

}  // namespace
}  // namespace bdrmap::eval
