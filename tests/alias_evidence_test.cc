// Alias evidence as a keyed, reusable unit (DESIGN.md §8, docs/serving.md
// §4). A pair verdict and a Mercator source are pure functions of the
// tail's probe seed, their key and the forwarding state, so:
//  * one VP's candidate pairs tested in any order give the same verdicts,
//    the same Mercator sources and, pair by pair, the same IP-ID samples
//    (the order-independence oracle);
//  * a SliceStore's evidence replays a cold run: a second executor run
//    over the store probes no alias pair and infers the same map, and a VP
//    whose evidence was cleared probes its pairs again.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/alias_resolution.h"
#include "core/bdrmap.h"
#include "eval/degradation.h"
#include "eval/scenario.h"
#include "eval/scenario_registry.h"
#include "netbase/rng.h"
#include "runtime/multi_vp.h"
#include "runtime/thread_pool.h"

namespace bdrmap::core {
namespace {

constexpr std::uint64_t kTailSeed = 0x7a11;

using Verdicts = std::vector<std::pair<std::uint64_t, AliasVerdict>>;
using Sources =
    std::vector<std::pair<std::uint32_t, std::optional<std::uint32_t>>>;

Verdicts sorted_verdicts(const AliasEvidence& e) {
  Verdicts out(e.verdicts.begin(), e.verdicts.end());
  std::sort(out.begin(), out.end());
  return out;
}

Sources sorted_sources(const AliasEvidence& e) {
  Sources out;
  for (const auto& [addr, src] : e.udp_sources) {
    out.emplace_back(addr.value(), src ? std::optional<std::uint32_t>(
                                             src->value())
                                       : std::nullopt);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Forwards to a probe stack and logs every IP-ID sample under the alias
// test it belongs to: (addr, t, reply) per begin_alias_test key.
class RecordingServices final : public probe::ProbeServices {
 public:
  using Sample = std::tuple<std::uint32_t, std::uint64_t, std::int32_t>;

  explicit RecordingServices(std::unique_ptr<probe::ProbeServices> inner)
      : inner_(std::move(inner)) {}

  probe::TraceResult trace(Ipv4Addr dst, const probe::StopFn& stop) override {
    return inner_->trace(dst, stop);
  }
  std::optional<Ipv4Addr> udp_probe(Ipv4Addr addr) override {
    return inner_->udp_probe(addr);
  }
  std::optional<std::uint16_t> ipid_sample(Ipv4Addr addr, double t) override {
    const auto id = inner_->ipid_sample(addr, t);
    std::uint64_t t_bits;
    std::memcpy(&t_bits, &t, sizeof t_bits);
    samples_[key_].emplace_back(addr.value(), t_bits, id ? *id : -1);
    return id;
  }
  void begin_alias_test(std::uint64_t key) override {
    key_ = key;
    inner_->begin_alias_test(key);
  }
  void record_footprint(std::vector<std::uint64_t>* sink) override {
    inner_->record_footprint(sink);
  }
  void addr_footprint(Ipv4Addr addr, std::vector<std::uint64_t>& out) override {
    inner_->addr_footprint(addr, out);
  }
  std::optional<bool> timestamp_probe(Ipv4Addr dst, Ipv4Addr c) override {
    return inner_->timestamp_probe(dst, c);
  }
  Ipv4Addr vp_addr() const override { return inner_->vp_addr(); }
  std::uint64_t probes_sent() const override { return inner_->probes_sent(); }
  void reseed(std::uint64_t seed) override { inner_->reseed(seed); }

  const std::map<std::uint64_t, std::vector<Sample>>& samples() const {
    return samples_;
  }

 private:
  std::unique_ptr<probe::ProbeServices> inner_;
  std::uint64_t key_ = 0;
  std::map<std::uint64_t, std::vector<Sample>> samples_;
};

std::unique_ptr<eval::Scenario> access_scenario() {
  auto spec = eval::scenario_spec("access", 42);
  EXPECT_TRUE(spec.has_value());
  return std::make_unique<eval::Scenario>(*spec);
}

// The oracle: the access scenario's first VP runs its pipeline once, which
// yields the candidate pairs its tail tests, the evidence it measured and
// the IP-ID samples of every pair. Testing those pairs in shuffled orders
// on fresh stacks of the same seed must reproduce all three exactly.
TEST(AliasEvidenceTest, PairVerdictsIgnoreTestOrder) {
  const auto scenario = access_scenario();
  const net::AsId vp_as = scenario->featured_access();
  const topo::Vp vp = scenario->vps_in(vp_as).front();
  const InferenceInputs inputs = scenario->inputs_for(vp_as);

  auto collector = scenario->services_for(vp, 0x515);
  CollectedTraces traces = Bdrmap(*collector, inputs).collect();
  RecordingServices tail(scenario->services_for(vp, kTailSeed));
  AliasEvidence measured;
  Bdrmap(tail, inputs).run_with(std::move(traces), &measured);
  ASSERT_GT(measured.verdicts.size(), 500u);
  const Verdicts want_verdicts = sorted_verdicts(measured);
  const Sources want_sources = sorted_sources(measured);
  std::size_t aliases = 0;
  for (const auto& [key, verdict] : want_verdicts) {
    aliases += verdict == AliasVerdict::kAlias;
  }
  EXPECT_GT(aliases, 0u);  // the pairs exercise Ally, not only Mercator

  std::vector<std::pair<Ipv4Addr, Ipv4Addr>> pairs;
  for (const auto& [key, verdict] : want_verdicts) {
    pairs.emplace_back(Ipv4Addr(static_cast<std::uint32_t>(key >> 32)),
                       Ipv4Addr(static_cast<std::uint32_t>(key)));
  }
  for (std::uint64_t order = 0; order < 3; ++order) {
    net::Rng rng(order);
    rng.shuffle(pairs);
    RecordingServices services(scenario->services_for(vp, kTailSeed));
    AliasEvidence evidence;
    AliasResolver resolver(services, {}, &evidence);
    for (const auto& [a, b] : pairs) {
      // Swapping the pair's sides must not matter either.
      if (order % 2 == 0) {
        resolver.test_pair(a, b);
      } else {
        resolver.test_pair(b, a);
      }
    }
    EXPECT_EQ(sorted_verdicts(evidence), want_verdicts) << "order " << order;
    EXPECT_EQ(sorted_sources(evidence), want_sources) << "order " << order;
    EXPECT_TRUE(services.samples() == tail.samples()) << "order " << order;
  }
}

// A store's evidence replays a cold run: the second run over an untouched
// store probes no alias pair and sends no tail probe, yet gives the cold
// map; clearing one VP's evidence makes that VP alone probe again.
TEST(AliasEvidenceTest, StoredEvidenceReplaysColdRun) {
  auto spec = eval::scenario_spec("small", 42);
  ASSERT_TRUE(spec.has_value());
  const eval::Scenario scenario(*spec);
  const net::AsId vp_as = scenario.first_of(spec->vp_kind);
  std::vector<topo::Vp> vps = scenario.vps_in(vp_as);
  if (vps.size() > 3) vps.resize(3);
  std::vector<runtime::VpJob> jobs;
  for (const topo::Vp& vp : vps) {
    runtime::VpJob job;
    job.make_services = [&scenario, vp](std::uint64_t seed) {
      return std::unique_ptr<probe::ProbeServices>(
          scenario.services_for(vp, seed));
    };
    job.inputs = scenario.inputs_for(vp_as);
    jobs.push_back(std::move(job));
  }
  runtime::ThreadPool pool(4);
  const runtime::MultiVpExecutor executor(&pool);
  const runtime::MultiVpResult cold = executor.run(jobs, {}, 0x515);

  runtime::SliceStore store;
  const runtime::MultiVpResult first = executor.run(jobs, {}, 0x515, &store);
  const runtime::MultiVpResult second = executor.run(jobs, {}, 0x515, &store);
  store.evidence[0] = {};
  const runtime::MultiVpResult third = executor.run(jobs, {}, 0x515, &store);
  ASSERT_EQ(store.evidence.size(), jobs.size());
  for (std::size_t vp = 0; vp < jobs.size(); ++vp) {
    const BdrmapStats& c = cold.per_vp[vp].stats;
    EXPECT_GT(c.alias_pair_tests, 0u) << "VP " << vp;
    EXPECT_EQ(c.alias_pairs_reused, 0u) << "VP " << vp;
    EXPECT_EQ(first.per_vp[vp].stats.alias_pairs_reused, 0u) << "VP " << vp;
    EXPECT_EQ(first.per_vp[vp].stats.probes_sent, c.probes_sent);
    for (const runtime::MultiVpResult* run : {&first, &second, &third}) {
      EXPECT_TRUE(eval::same_border_map(run->per_vp[vp], cold.per_vp[vp]))
          << "VP " << vp;
    }
    const BdrmapStats& warm = second.per_vp[vp].stats;
    EXPECT_EQ(warm.alias_pairs_reused, warm.alias_pair_tests) << "VP " << vp;
    EXPECT_LT(warm.probes_sent, c.probes_sent) << "VP " << vp;
    const std::size_t reused = third.per_vp[vp].stats.alias_pairs_reused;
    EXPECT_EQ(reused, vp == 0 ? 0u : warm.alias_pair_tests) << "VP " << vp;
  }
}

}  // namespace
}  // namespace bdrmap::core
