#include "probe/alias.h"

#include <algorithm>

namespace bdrmap::probe {

std::optional<Ipv4Addr> AliasProber::udp_probe(Ipv4Addr addr) {
  ++probes_sent_;
  udp_probes_.inc();
  auto iface = net_.iface_at(addr);
  if (!iface) return std::nullopt;  // hosts don't emit port unreachables here
  net::RouterId owner = net_.iface(*iface).router;
  const auto& router = net_.router(owner);
  if (!router.behavior.responds_udp) return std::nullopt;
  if (!tracer_.reaches_addr(addr)) return std::nullopt;
  if (net::unit_draw(net::mix(seed_, addr.value(), kUdpSalt)) <
      router.behavior.rate_limit_drop) {
    return std::nullopt;
  }
  // The reply is transmitted from the interface toward the prober; if the
  // router cannot resolve a route back, it uses its canonical address.
  // The tracer memoizes this per-router lookup (the VP address is fixed).
  if (auto out = tracer_.egress_iface_to_vp(owner)) {
    return net_.iface(*out).addr;
  }
  return net_.canonical_addr(owner);
}

std::uint32_t AliasProber::count_reply(std::uint64_t key) {
  for (auto& [counter, count] : reply_counts_) {
    if (counter == key) return ++count;
  }
  reply_counts_.emplace_back(key, 1);
  return 1;
}

std::uint16_t AliasProber::next_ipid(const topo::Router& router,
                                     net::IfaceId iface, double t,
                                     std::uint64_t random_draw) {
  switch (router.behavior.ipid) {
    case topo::IpidKind::kSharedCounter: {
      const std::uint32_t count = count_reply(router.id.value);
      double base = router.behavior.ipid_init +
                    router.behavior.ipid_velocity * t +
                    static_cast<double>(count);
      return static_cast<std::uint16_t>(
          static_cast<std::uint64_t>(base) & 0xffff);
    }
    case topo::IpidKind::kPerInterface: {
      const std::uint32_t count =
          count_reply(0x100000000ULL | iface.value);
      // Each interface has its own counter: decorrelated initial value and
      // velocity derived from the interface id.
      std::uint32_t init = router.behavior.ipid_init ^
                           static_cast<std::uint16_t>(iface.value * 40503u);
      double velocity =
          router.behavior.ipid_velocity * (1.0 + (iface.value % 7) * 0.37);
      double base = init + velocity * t + static_cast<double>(count);
      return static_cast<std::uint16_t>(
          static_cast<std::uint64_t>(base) & 0xffff);
    }
    case topo::IpidKind::kRandom:
      return static_cast<std::uint16_t>(random_draw >> 48);
    case topo::IpidKind::kZero:
      return 0;
  }
  return 0;
}

const AliasProber::Target& AliasProber::target(Ipv4Addr addr) {
  for (std::size_t i = 0; i < target_count_; ++i) {
    if (targets_[i].addr == addr) return targets_[i];
  }
  // A test sampling more addresses than targets_ holds reuses the last
  // slot: a Target is a pure function of its address.
  Target& out = targets_[std::min(target_count_, targets_.size() - 1)];
  target_count_ = std::min(target_count_ + 1, targets_.size());
  out = {addr, {}, nullptr, false};
  if (const auto iface = net_.iface_at(addr)) {
    out.iface = *iface;
    out.router = &net_.router(net_.iface(*iface).router);
    out.answers = out.router->behavior.responds_echo &&
                  tracer_.reaches_addr(addr);
  }
  return out;
}

// BDRMAP_HOT_BEGIN(ipid_sample) — BDR104: 30 samples per pair test over
// the test's resolved targets; no lookup repeats per sample.
std::optional<std::uint16_t> AliasProber::ipid_sample(Ipv4Addr addr,
                                                      double t) {
  ++probes_sent_;
  // Two independent draws per sample: rate limiting and a random ID.
  const std::uint64_t sample = ++test_samples_;
  const Target& to = target(addr);
  if (!to.answers) return std::nullopt;
  if (net::unit_draw(net::mix(test_stream_, sample, 0)) <
      to.router->behavior.rate_limit_drop) {
    return std::nullopt;
  }
  return next_ipid(*to.router, to.iface, t, net::mix(test_stream_, sample, 1));
}
// BDRMAP_HOT_END(ipid_sample)

}  // namespace bdrmap::probe
