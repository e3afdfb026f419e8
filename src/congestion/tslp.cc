#include "congestion/tslp.h"

#include <algorithm>
#include <span>

namespace bdrmap::congestion {

std::vector<TslpTarget> make_targets(const core::BdrmapResult& result,
                                     const topo::Internet& net) {
  std::vector<TslpTarget> targets;
  const core::RouterGraph& graph = result.graph;
  for (const auto& link : result.links) {
    if (link.vp_router == core::InferredLink::kNoRouter ||
        link.neighbor_router == core::InferredLink::kNoRouter) {
      continue;
    }
    const std::span<const net::Ipv4Addr> near = graph.addrs(link.vp_router);
    const std::span<const net::Ipv4Addr> far =
        graph.addrs(link.neighbor_router);
    if (near.empty() || far.empty()) continue;

    TslpTarget t;
    t.near_addr = near.front();
    t.neighbor_as = link.neighbor_as;
    // Prefer a far-side address whose point-to-point subnet mate sits on
    // the near router: probes to it are guaranteed to cross exactly this
    // interconnect. A far address supplied by the neighbor can otherwise
    // be routed over a parallel link, corrupting the time series — the
    // kind of artifact [24] wrestles with.
    t.far_addr = far.front();
    bool mated = false;
    for (net::Ipv4Addr a : far) {
      auto iface = net.iface_at(a);
      if (!iface) continue;
      const auto& l = net.link(net.iface(*iface).link);
      if (l.kind == topo::LinkKind::kInternal) continue;
      auto on_near = [&](net::Ipv4Addr m) {
        return std::find(near.begin(), near.end(), m) != near.end();
      };
      bool mate_on_near = on_near(net::mate31(a));
      if (auto m30 = net::mate30(a)) mate_on_near |= on_near(*m30);
      if (mate_on_near || !mated) {
        t.far_addr = a;
        t.truth_link = l.id;
      }
      if (mate_on_near) {
        mated = true;
        break;
      }
    }
    targets.push_back(t);
  }
  return targets;
}

std::vector<TslpSeries> run_tslp(const std::vector<TslpTarget>& targets,
                                 CongestionModel& model, const topo::Vp& vp,
                                 TslpConfig config) {
  std::vector<TslpSeries> out;
  out.reserve(targets.size());
  for (const auto& target : targets) {
    TslpSeries series;
    series.target = target;
    for (double h = 0.0; h < config.duration_hours;
         h += config.interval_hours) {
      double hour = std::fmod(h, 24.0);
      series.hours.push_back(hour);
      series.near_rtt_ms.push_back(model.rtt_ms(vp, target.near_addr, hour));
      series.far_rtt_ms.push_back(model.rtt_ms(vp, target.far_addr, hour));
    }

    // Baseline far-minus-near: the minimum observed delta (off-peak).
    double baseline = 1e18;
    std::vector<std::optional<double>> delta(series.hours.size());
    for (std::size_t i = 0; i < series.hours.size(); ++i) {
      if (series.near_rtt_ms[i] && series.far_rtt_ms[i]) {
        double d = *series.far_rtt_ms[i] - *series.near_rtt_ms[i];
        delta[i] = d;
        baseline = std::min(baseline, d);
      }
    }
    if (baseline > 1e17) {
      out.push_back(std::move(series));
      continue;  // never got a paired sample
    }

    // Level shift: enough consecutive samples elevated above baseline.
    int streak = 0;
    for (std::size_t i = 0; i < delta.size(); ++i) {
      if (!delta[i]) {
        streak = 0;
        continue;
      }
      double elevation = *delta[i] - baseline;
      if (elevation >= config.elevation_threshold_ms) {
        ++streak;
        if (streak >= config.min_consecutive_samples) {
          series.congested = true;
          series.max_elevation_ms =
              std::max(series.max_elevation_ms, elevation);
        }
      } else {
        streak = 0;
      }
    }
    out.push_back(std::move(series));
  }
  return out;
}

TslpScore score_tslp(const std::vector<TslpSeries>& series,
                     const CongestionModel& model) {
  TslpScore score;
  for (const auto& s : series) {
    ++score.targets;
    bool truth = s.target.truth_link.valid() &&
                 model.link_congested(s.target.truth_link);
    score.truth_congested += truth;
    score.detected += s.congested;
    score.true_positive += truth && s.congested;
  }
  return score;
}

}  // namespace bdrmap::congestion
