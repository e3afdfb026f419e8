#include "core/offline.h"

#include <unordered_set>

namespace bdrmap::core {

namespace {

// A ProbeServices that answers nothing: offline analysis owns no prober.
class NullProbeServices final : public probe::ProbeServices {
 public:
  probe::TraceResult trace(Ipv4Addr dst, const probe::StopFn&) override {
    probe::TraceResult t;
    t.dst = dst;
    return t;
  }
  std::optional<Ipv4Addr> udp_probe(Ipv4Addr) override {
    return std::nullopt;
  }
  std::optional<std::uint16_t> ipid_sample(Ipv4Addr, double) override {
    return std::nullopt;
  }
  void begin_alias_test(std::uint64_t) override {}
  // Its probes read no forwarding state.
  void record_footprint(std::vector<std::uint64_t>*) override {}
  void addr_footprint(Ipv4Addr, std::vector<std::uint64_t>&) override {}
  std::optional<bool> timestamp_probe(Ipv4Addr, Ipv4Addr) override {
    return std::nullopt;
  }
  Ipv4Addr vp_addr() const override { return {}; }
  std::uint64_t probes_sent() const override { return 0; }
  void reseed(std::uint64_t) override {}
};

}  // namespace

BdrmapResult analyze_offline(std::vector<ObservedTrace> traces,
                             const InferenceInputs& inputs,
                             OfflineConfig config) {
  NullProbeServices null_services;
  AliasResolver resolver(null_services);
  if (config.analytic_aliases) {
    run_apar(traces, resolver);
  }

  // Collect the time-exceeded addresses for the closure.
  std::vector<Ipv4Addr> addrs;
  std::unordered_set<Ipv4Addr> seen;
  for (const auto& trace : traces) {
    for (const auto& hop : trace.hops) {
      if (hop.kind != probe::ReplyKind::kTimeExceeded) continue;
      if (seen.insert(hop.addr).second) addrs.push_back(hop.addr);
    }
  }
  auto groups = resolver.groups(addrs);

  BdrmapStats stats;
  stats.traces = traces.size();
  stats.alias_pair_tests = resolver.pair_tests();
  return infer_borders(RouterGraph(std::move(traces), groups), inputs,
                       config.heuristics, stats);
}

}  // namespace bdrmap::core
