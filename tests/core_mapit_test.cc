#include "core/mapit.h"

#include <gtest/gtest.h>

#include "eval/ground_truth.h"
#include "eval/scenario.h"
#include "test_support.h"

namespace bdrmap::core {
namespace {

using net::AsId;
using test::ip;
using test::make_trace;
using test::pfx;

class MapItFixture : public ::testing::Test {
 protected:
  MapItFixture() {
    origins_.add(pfx("10.0.0.0/8"), AsId(1));
    origins_.add(pfx("20.0.0.0/8"), AsId(2));
    origins_.add(pfx("30.0.0.0/8"), AsId(3));
  }
  asdata::OriginTable origins_;
};

TEST_F(MapItFixture, RelabelsFarSideOfProviderAssignedLink) {
  // AS2's border carries a VP(AS1)-assigned ingress 10.0.1.2 followed by
  // AS2 space: MAP-IT relabels it to AS2.
  auto result = run_mapit(
      {make_trace(AsId(2), "20.0.9.9",
                  {{"10.0.0.1"}, {"10.0.1.2"}, {"20.0.0.1"}, {"20.0.1.1"}})},
      origins_);
  EXPECT_EQ(result.owners.at(ip("10.0.1.2")), AsId(2));
  EXPECT_EQ(result.owners.at(ip("10.0.0.1")), AsId(1));
  EXPECT_GE(result.relabeled, 1u);
}

TEST_F(MapItFixture, TerminalInterfacesKeepTheirMapping) {
  // The firewalled-customer shape: the border's VP-assigned ingress is the
  // last thing seen — MAP-IT has no successors to reason from and keeps
  // the (wrong) AS1 label. This is the paper's §3 critique.
  auto result = run_mapit(
      {make_trace(AsId(2), "20.0.9.9",
                  {{"10.0.0.1"}, {"10.0.1.2"}, {nullptr}, {nullptr}})},
      origins_);
  EXPECT_EQ(result.owners.at(ip("10.0.1.2")), AsId(1));
  EXPECT_GE(result.terminal_interfaces, 1u);
}

TEST_F(MapItFixture, MajorityRequiredToRelabel) {
  // Successors split between AS2 and AS3: no two-thirds majority, no move.
  auto result = run_mapit(
      {make_trace(AsId(2), "20.0.9.9",
                  {{"10.0.0.1"}, {"10.0.1.2"}, {"20.0.0.1"}}),
       make_trace(AsId(3), "30.0.9.9",
                  {{"10.0.0.1"}, {"10.0.1.2"}, {"30.0.0.1"}})},
      origins_);
  EXPECT_EQ(result.owners.at(ip("10.0.1.2")), AsId(1));
}

TEST_F(MapItFixture, ConvergesWithinPassBudget) {
  // A two-deep provider-assigned chain needs two passes to settle.
  auto result = run_mapit(
      {make_trace(AsId(2), "20.0.9.9",
                  {{"10.0.0.1"}, {"10.0.1.2"}, {"20.0.0.1"}, {"20.0.1.1"},
                   {"20.0.2.1"}})},
      origins_);
  EXPECT_LE(result.passes_run, 8u);
  EXPECT_EQ(result.owners.at(ip("10.0.1.2")), AsId(2));
}

TEST(MapItPipeline, UnderperformsBdrmapOnFirewalledCustomers) {
  eval::Scenario s(eval::small_access_config(42));
  net::AsId vp_as = s.first_of(topo::AsKind::kAccess);
  auto result = s.run_bdrmap(s.vps_in(vp_as).front());
  auto inputs = s.inputs_for(vp_as);
  auto mapit = run_mapit(result.graph.traces(), *inputs.origins);
  eval::GroundTruth truth(s.net(), vp_as);

  // Score both on far-side interfaces.
  std::size_t total = 0, mapit_correct = 0;
  for (const auto& [addr, label] : mapit.owners) {
    auto r = s.net().router_at(addr);
    if (!r) continue;
    net::AsId owner = s.net().router(*r).owner;
    if (truth.same_org(owner, vp_as)) continue;
    ++total;
    mapit_correct += label.valid() && truth.same_org(label, owner);
  }
  auto summary = truth.validate(result);
  ASSERT_GT(total, 50u);
  double mapit_acc =
      static_cast<double>(mapit_correct) / static_cast<double>(total);
  EXPECT_GT(summary.router_accuracy(), mapit_acc);
  // And the terminal-interface population is substantial, as §3 observes.
  EXPECT_GT(mapit.terminal_interfaces * 4, mapit.owners.size());
}

}  // namespace
}  // namespace bdrmap::core
