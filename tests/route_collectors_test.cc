// The simulated public BGP view: coverage and — critically — the hidden
// links the paper's "trace" column depends on.
#include "route/collectors.h"

#include <gtest/gtest.h>

#include "test_support.h"
#include "topo/generator.h"

namespace bdrmap::route {
namespace {

using net::AsId;

class CollectorFixture : public ::testing::Test {
 protected:
  CollectorFixture() {
    topo::GeneratorConfig config;
    config.seed = 5;
    config.num_transit = 16;
    config.num_enterprise = 80;
    gen_ = std::make_unique<topo::GeneratedInternet>(topo::generate(config));
    bgp_ = std::make_unique<BgpSimulator>(gen_->net);
    view_ = std::make_unique<CollectorView>(gen_->net, *bgp_);
  }

  std::unique_ptr<topo::GeneratedInternet> gen_;
  std::unique_ptr<BgpSimulator> bgp_;
  std::unique_ptr<CollectorView> view_;
};

TEST_F(CollectorFixture, AllTier1sAreCollectorPeers) {
  std::size_t tier1s = 0;
  for (const auto& info : gen_->net.ases()) {
    if (info.kind == topo::AsKind::kTier1) ++tier1s;
  }
  std::size_t tier1_peers = 0;
  for (AsId p : view_->peer_ases()) {
    if (gen_->net.as_info(p).kind == topo::AsKind::kTier1) ++tier1_peers;
  }
  EXPECT_EQ(tier1_peers, tier1s);
}

TEST_F(CollectorFixture, PublicOriginsSubsetOfTruth) {
  for (const auto& [prefix, origins] :
       view_->public_origins().all_prefixes()) {
    const auto* truth = gen_->net.truth_origins().origins(prefix.first());
    ASSERT_NE(truth, nullptr) << prefix.str();
    for (AsId o : origins) {
      EXPECT_NE(std::find(truth->begin(), truth->end(), o), truth->end());
    }
  }
}

TEST_F(CollectorFixture, UnroutedInfraAbsentFromPublicView) {
  for (const auto& info : gen_->net.ases()) {
    for (const auto& block : info.unrouted_infra) {
      EXPECT_FALSE(
          view_->public_origins().origins(block.first()) != nullptr &&
          view_->public_origins().origin(block.first()) == info.id)
          << block.str();
    }
  }
}

TEST_F(CollectorFixture, MostAnnouncedPrefixesVisible) {
  // Transit guarantees reachability, so the collectors should see nearly
  // every announced prefix.
  std::size_t truth_count = gen_->net.truth_origins().prefix_count();
  std::size_t public_count = view_->public_origins().prefix_count();
  EXPECT_GE(public_count * 10, truth_count * 9);
}

TEST_F(CollectorFixture, SomePeerLinksAreHidden) {
  // Route-server peerings between non-collector networks should be
  // invisible — the "hidden peer" phenomenon (§5.4.5 / Table 1).
  const auto& rels = gen_->net.truth_relationships();
  std::size_t peer_links = 0, hidden = 0;
  for (const auto& il : gen_->net.interdomain_links()) {
    if (rels.rel(il.as_a, il.as_b) != asdata::Relationship::kPeer) continue;
    ++peer_links;
    if (!view_->link_visible(il.as_a, il.as_b)) ++hidden;
  }
  EXPECT_GT(peer_links, 0u);
  EXPECT_GT(hidden, 0u) << "no hidden peers: Table 1 trace column empty";
}

TEST_F(CollectorFixture, InferredRelationshipsMostlyMatchTruth) {
  asdata::RelationshipInferenceConfig ric;
  ric.clique_seed_size = 8;
  auto inferred = view_->infer_relationships(ric);
  const auto& truth = gen_->net.truth_relationships();
  std::size_t checked = 0, agree = 0;
  for (AsId a : inferred.all_ases()) {
    for (AsId b : inferred.neighbors(a)) {
      if (b < a) continue;
      auto t = truth.rel(a, b);
      if (t == asdata::Relationship::kNone) continue;  // spurious
      ++checked;
      agree += inferred.rel(a, b) == t;
    }
  }
  ASSERT_GT(checked, 50u);
  // CAIDA's algorithm validates >90%; our simplified version should get
  // the vast majority right on a clean hierarchy.
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(checked), 0.8);
}

TEST_F(CollectorFixture, PathsEndAtOrigins) {
  for (const auto& path : view_->paths()) {
    ASSERT_GE(path.size(), 2u);
    // The last AS must originate something.
    EXPECT_FALSE(
        gen_->net.truth_origins().prefixes_of(path.back()).empty());
  }
}

TEST_F(CollectorFixture, EachPeersPathsComeInAscendingOriginOrder) {
  // Path order is part of the view's output, so it must not depend on the
  // standard library's hash layout.
  const auto& paths = view_->paths();
  ASSERT_FALSE(paths.empty());
  std::size_t runs = 1;
  for (std::size_t i = 1; i < paths.size(); ++i) {
    if (paths[i].front() != paths[i - 1].front()) {
      ++runs;
      continue;
    }
    EXPECT_LT(paths[i - 1].back(), paths[i].back()) << "path " << i;
  }
  EXPECT_LE(runs, view_->peer_ases().size()) << "a peer's paths are split";
}

}  // namespace
}  // namespace bdrmap::route
