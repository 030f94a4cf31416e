// The topology window's p99 complete latency is the element at index
// 0.99*(n-1) of the window's sorted per-root latencies. The sim window p99
// feeds the scenario goldens and the controller arms, so
// finalize_topology_window must pick exactly that element, not an
// approximation of it.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "runtime/window_stats.hpp"

namespace repro::runtime {
namespace {

double sorted_p99(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(0.99 * static_cast<double>(v.size() - 1))];
}

TEST(WindowStats, TopologyP99EqualsSortedReference) {
  common::Pcg32 rng(20240, 3);
  for (std::size_t n : {1u, 2u, 100u, 225000u}) {
    for (bool duplicate_heavy : {false, true}) {
      TopologyCounters c;
      for (std::size_t i = 0; i < n; ++i) {
        // Duplicate-heavy windows draw from 5 distinct values, so the p99
        // index sits inside a long run of equal latencies.
        double lat = duplicate_heavy ? 1e-3 * static_cast<double>(rng.bounded(5))
                                     : rng.exponential(1000.0);
        c.latencies.push_back(lat);
        c.latency_sum += lat;
      }
      c.acked = n;
      const double expected = sorted_p99(c.latencies);
      dsps::TopologyWindowStats s = finalize_topology_window(c, 0.1, 7);
      EXPECT_EQ(s.p99_complete_latency, expected)
          << "n=" << n << " duplicate_heavy=" << duplicate_heavy;
      EXPECT_EQ(s.acked, n);
      EXPECT_EQ(s.pending, 7u);
      EXPECT_TRUE(c.latencies.empty());  // the window's counters are reset
    }
  }
}

TEST(WindowStats, EmptyWindowHasZeroP99) {
  TopologyCounters c;
  EXPECT_EQ(finalize_topology_window(c, 0.1, 0).p99_complete_latency, 0.0);
}

}  // namespace
}  // namespace repro::runtime
