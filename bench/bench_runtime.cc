// Runtime engine benchmark: what the work-stealing pool actually buys.
//
// Two measurements, written to BENCH_runtime.json (and stdout):
//
//  1. multi-VP scaling — every VP of the small access network, sequential
//     (null pool) vs pooled at 1/2/4/8 workers. Speedups are whatever the
//     host really delivers (a 1-core container honestly reports ~1x).
//  2. determinism spot check — the pooled runs must be bit-identical to
//     the sequential baseline, re-verified here so the numbers published
//     in the JSON are guaranteed to describe equivalent work.
//
// Usage: bench_runtime [--out FILE] [--repeat N] [--threads N,N,...]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "eval/degradation.h"
#include "eval/scenario.h"
#include "obs/metrics.h"
#include "runtime/multi_vp.h"
#include "runtime/thread_pool.h"

using namespace bdrmap;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Best-of-N wall time: the minimum is the least noise-contaminated
// estimate of the true cost on a shared machine.
template <typename Fn>
double best_of(int repeat, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    double t0 = now_seconds();
    fn();
    double dt = now_seconds() - t0;
    if (r == 0 || dt < best) best = dt;
  }
  return best;
}

std::string json_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_runtime.json";
  int repeat = 10;
  std::vector<unsigned> thread_counts = {1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::atoi(argv[++i]);
      if (repeat < 1) repeat = 1;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      thread_counts.clear();
      for (const char* p = argv[++i]; *p != '\0';) {
        thread_counts.push_back(
            static_cast<unsigned>(std::strtoul(p, const_cast<char**>(&p), 10)));
        if (*p == ',') ++p;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out FILE] [--repeat N] [--threads N,N,...]\n",
                   argv[0]);
      return 2;
    }
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  eval::Scenario scenario(eval::small_access_config(42));
  net::AsId vp_as = scenario.featured_access();
  std::vector<topo::Vp> vps = scenario.vps_in(vp_as);
  std::printf("bench_runtime: %zu VPs, hardware_concurrency=%u, "
              "best of %d\n\n",
              vps.size(), hw, repeat);

  // --- 1. multi-VP scaling ---
  runtime::MultiVpResult baseline =
      scenario.run_bdrmap_parallel(vps, {}, 0x1000, nullptr);
  double sequential = best_of(repeat, [&] {
    auto r = scenario.run_bdrmap_parallel(vps, {}, 0x1000, nullptr);
    (void)r;
  });
  std::printf("multi VP (%zu): sequential %.3fs\n", vps.size(), sequential);

  struct ScalePoint {
    unsigned threads = 0;
    double seconds = 0.0;
    bool identical = false;
    obs::MetricsSnapshot stats;
  };
  std::vector<ScalePoint> points;
  for (unsigned t : thread_counts) {
    runtime::ThreadPool pool(t);
    ScalePoint p;
    p.threads = t;
    runtime::MultiVpResult check =
        scenario.run_bdrmap_parallel(vps, {}, 0x1000, &pool);
    p.identical = check.per_vp.size() == baseline.per_vp.size();
    for (std::size_t i = 0; p.identical && i < baseline.per_vp.size(); ++i) {
      p.identical =
          eval::same_border_map(check.per_vp[i], baseline.per_vp[i]);
    }
    p.seconds = best_of(repeat, [&] {
      auto r = scenario.run_bdrmap_parallel(vps, {}, 0x1000, &pool);
      (void)r;
    });
    p.stats = pool.metrics().snapshot();
    std::printf("  %u thread(s): %.3fs (%.2fx, identical: %s; "
                "%llu tasks, %llu steals, %llu parks)\n",
                t, p.seconds, sequential / p.seconds,
                p.identical ? "yes" : "NO",
                static_cast<unsigned long long>(
                    p.stats.counter("runtime.tasks_executed")),
                static_cast<unsigned long long>(
                    p.stats.counter("runtime.steals")),
                static_cast<unsigned long long>(
                    p.stats.counter("runtime.parks")));
    points.push_back(p);
  }

  // --- 2. emit JSON ---
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"bench\": \"runtime\",\n";
  out << "  \"scenario\": \"small_access\",\n";
  out << "  \"vps\": " << vps.size() << ",\n";
  out << "  \"hardware_concurrency\": " << hw << ",\n";
  out << "  \"repeat\": " << repeat << ",\n";
  out << "  \"multi_vp\": {\n";
  out << "    \"sequential_seconds\": " << json_double(sequential) << ",\n";
  out << "    \"pooled\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
    out << "      {\"threads\": " << p.threads
        << ", \"seconds\": " << json_double(p.seconds)
        << ", \"speedup\": " << json_double(sequential / p.seconds)
        << ", \"identical\": " << (p.identical ? "true" : "false")
        << ", \"tasks\": " << p.stats.counter("runtime.tasks_executed")
        << ", \"steals\": " << p.stats.counter("runtime.steals")
        << ", \"parks\": " << p.stats.counter("runtime.parks") << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "    ]\n  }\n}\n";
  std::printf("\nwrote %s\n", out_path.c_str());

  bool ok = true;
  for (const ScalePoint& p : points) ok = ok && p.identical;
  if (!ok) {
    std::printf("FAIL: determinism criterion violated\n");
    return 1;
  }
  return 0;
}
