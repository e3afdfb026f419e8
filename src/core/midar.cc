#include "core/midar.h"

#include <algorithm>
#include <cmath>

namespace bdrmap::core {

namespace {

// Unwraps b relative to a on the 16-bit counter circle, assuming the
// counter moved forward by less than half the space.
double forward_delta(std::uint16_t a, std::uint16_t b) {
  std::int32_t d = static_cast<std::int32_t>(b) - static_cast<std::int32_t>(a);
  if (d < 0) d += 0x10000;
  return static_cast<double>(d);
}

}  // namespace

void MidarResolver::resolve(const std::vector<Ipv4Addr>& addrs) {
  stats_ = Stats{};
  stats_.addresses = addrs.size();

  // --- Stage 1: estimation. Sample each address a few times, derive the
  // counter velocity and a projection to a common reference time.
  struct Track {
    Ipv4Addr addr;
    double velocity = 0.0;   // ids per second
    double projected = 0.0;  // projected counter value at reference_time
  };
  std::vector<Track> tracks;
  const double reference_time =
      clock_ + config_.estimation_samples * config_.estimation_gap + 60.0;

  for (Ipv4Addr addr : addrs) {
    // Each address's estimation is its own measurement, like a pair test.
    services_.begin_alias_test(pair_key(addr, addr));
    std::vector<std::pair<double, std::uint16_t>> samples;
    double t = clock_;
    for (int i = 0; i < config_.estimation_samples; ++i) {
      auto id = services_.ipid_sample(addr, t);
      if (id) samples.emplace_back(t, *id);
      t += config_.estimation_gap;
    }
    if (samples.empty()) continue;
    ++stats_.responsive;
    if (samples.size() < 2) continue;

    // Velocity from first to last, requiring each step monotone-forward
    // and the total advance sane (MIDAR discards erratic counters).
    bool sane = true;
    double total = 0.0;
    bool all_zero = true;
    for (std::size_t i = 1; i < samples.size(); ++i) {
      double step = forward_delta(samples[i - 1].second, samples[i].second);
      if (step > 0x8000) sane = false;  // likely random IDs
      total += step;
      all_zero &= samples[i].second == 0;
    }
    all_zero &= samples[0].second == 0;
    double span = samples.back().first - samples.front().first;
    if (!sane || all_zero || span <= 0.0) continue;
    double velocity = total / span;
    if (velocity > config_.max_velocity) continue;
    ++stats_.monotonic;

    Track track;
    track.addr = addr;
    track.velocity = velocity;
    track.projected = std::fmod(static_cast<double>(samples.back().second) +
                                    velocity *
                                        (reference_time - samples.back().first),
                                65536.0);
    tracks.push_back(track);
  }
  clock_ = reference_time;

  // --- Stage 2: discovery. Sort by projected value; a sliding window
  // pairs addresses whose projections are within tolerance (a shared
  // counter must project to the same value, modulo velocity error).
  std::sort(tracks.begin(), tracks.end(),
            [](const Track& a, const Track& b) {
              return a.projected < b.projected;
            });
  std::vector<std::pair<Ipv4Addr, Ipv4Addr>> candidates;
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    std::size_t budget = config_.max_window_pairs;
    for (std::size_t j = i + 1; j < tracks.size() && budget > 0; ++j) {
      double gap = tracks[j].projected - tracks[i].projected;
      if (gap > config_.window_tolerance) {
        // Wrap-around window: the circle's seam needs one extra check.
        if (tracks[i].projected >
            65536.0 - config_.window_tolerance) {
          double wrapped = tracks[j].projected + 65536.0 -
                           tracks[i].projected;
          if (wrapped > 65536.0 + config_.window_tolerance) break;
        } else {
          break;
        }
      }
      candidates.emplace_back(tracks[i].addr, tracks[j].addr);
      --budget;
    }
  }
  stats_.candidate_pairs = candidates.size();

  // --- Stage 3: corroboration. The strict interleaved monotonic test
  // (the shared resolver's Ally+MIDAR machinery), with caching.
  for (const auto& [a, b] : candidates) {
    if (resolver_.test_pair(a, b) == AliasVerdict::kAlias) {
      ++stats_.confirmed;
    }
  }
}

}  // namespace bdrmap::core
