#include "obs/metrics.h"

#include <algorithm>

#include "netbase/contract.h"

namespace bdrmap::obs {

void Histogram::observe(std::uint64_t v) const {
  if (!cells_) return;
  std::size_t i = 0;
  while (i < cells_->bounds.size() && v > cells_->bounds[i]) ++i;
  cells_->buckets[i].fetch_add(1, std::memory_order_relaxed);
  cells_->count.fetch_add(1, std::memory_order_relaxed);
  cells_->sum.fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const {
  return cells_ ? cells_->count.load(std::memory_order_relaxed) : 0;
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::int64_t MetricsSnapshot::gauge(std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return g.value;
  }
  return 0;
}

const HistogramSample* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

const MetricsRegistry::Entry* MetricsRegistry::lookup(const std::string& name,
                                                      Kind want) {
  auto it = names_.find(name);
  if (it == names_.end()) return nullptr;
  BDRMAP_EXPECTS(it->second.kind == want,
                 "metric name reused with a different instrument kind");
  return &it->second;
}

Counter MetricsRegistry::counter(std::string_view name) {
  std::string key(name);
  net::MutexLock lk(mu_);
  if (const Entry* e = lookup(key, Kind::kCounter)) {
    // Under kLog contract mode lookup() can return a mismatched entry;
    // hand back a no-op handle rather than aliasing the wrong cell.
    if (e->kind != Kind::kCounter) return Counter{};
    return Counter(&counters_[e->index]);
  }
  std::size_t index = counters_.size();
  counters_.emplace_back(0);
  counter_names_.push_back(key);
  names_.emplace(std::move(key), Entry{Kind::kCounter, index});
  return Counter(&counters_[index]);
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  std::string key(name);
  net::MutexLock lk(mu_);
  if (const Entry* e = lookup(key, Kind::kGauge)) {
    if (e->kind != Kind::kGauge) return Gauge{};
    return Gauge(&gauges_[e->index]);
  }
  std::size_t index = gauges_.size();
  gauges_.emplace_back(0);
  gauge_names_.push_back(key);
  names_.emplace(std::move(key), Entry{Kind::kGauge, index});
  return Gauge(&gauges_[index]);
}

Histogram MetricsRegistry::histogram(std::string_view name,
                                     std::vector<std::uint64_t> bounds) {
  BDRMAP_EXPECTS(!bounds.empty(), "histogram needs at least one bucket bound");
  BDRMAP_EXPECTS(std::is_sorted(bounds.begin(), bounds.end()),
                 "histogram bucket bounds must ascend");
  std::string key(name);
  net::MutexLock lk(mu_);
  if (const Entry* e = lookup(key, Kind::kHistogram)) {
    if (e->kind != Kind::kHistogram) return Histogram{};
    BDRMAP_EXPECTS(histograms_[e->index].bounds == bounds,
                   "histogram re-requested with different bucket bounds");
    return Histogram(&histograms_[e->index]);
  }
  std::size_t index = histograms_.size();
  auto& cells = histograms_.emplace_back();
  cells.bounds = std::move(bounds);
  for (std::size_t i = 0; i < cells.bounds.size() + 1; ++i) {
    cells.buckets.emplace_back(0);
  }
  histogram_names_.push_back(key);
  names_.emplace(std::move(key), Entry{Kind::kHistogram, index});
  return Histogram(&histograms_[index]);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  net::MutexLock lk(mu_);
  snap.counters.reserve(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    snap.counters.push_back(
        {counter_names_[i], counters_[i].load(std::memory_order_relaxed)});
  }
  snap.gauges.reserve(gauge_names_.size());
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    snap.gauges.push_back(
        {gauge_names_[i], gauges_[i].load(std::memory_order_relaxed)});
  }
  snap.histograms.reserve(histogram_names_.size());
  for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
    const auto& cells = histograms_[i];
    HistogramSample h;
    h.name = histogram_names_[i];
    h.bounds = cells.bounds;
    h.buckets.reserve(cells.buckets.size());
    for (const auto& b : cells.buckets) {
      h.buckets.push_back(b.load(std::memory_order_relaxed));
    }
    h.count = cells.count.load(std::memory_order_relaxed);
    h.sum = cells.sum.load(std::memory_order_relaxed);
    snap.histograms.push_back(std::move(h));
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

}  // namespace bdrmap::obs
