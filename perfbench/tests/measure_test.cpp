// Tests of the benchmark's measurement rules: the percentile rule, the
// histogram's quantiles, and CPU-time delta accounting. Exit code 0 when
// every check holds.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <vector>

#include "measure.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

template <typename F>
bool throws(F f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

/// A fixed amount of arithmetic on the calling thread (no clock reads, no
/// system calls).
void burn() {
  volatile double x = 1.0;
  for (long i = 0; i < 60000000; ++i) x = x * 1.0000001;
}

void percentile_rule() {
  using perfbench::highest_supported_percentile;
  using perfbench::percentile_supported;
  using perfbench::samples_beyond;
  check(samples_beyond(1000, 99.0) == 10, "1000 samples leave 10 beyond p99");
  check(percentile_supported(1000, 99.0), "p99 needs 1000 samples: 1000 suffice");
  check(!percentile_supported(999, 99.0), "p99 needs 1000 samples: 999 do not");
  check(percentile_supported(10000, 99.9), "p99.9 from 10000 samples");
  check(!percentile_supported(9999, 99.9), "no p99.9 from 9999 samples");
  check(!highest_supported_percentile(19).has_value(), "under 20 samples: no percentile");
  check(highest_supported_percentile(20) == 50.0, "20 samples support p50 only");
  check(highest_supported_percentile(100) == 90.0, "100 samples: p90");
  check(highest_supported_percentile(999) == 90.0, "999 samples: p90");
  check(highest_supported_percentile(1000) == 99.0, "1000 samples: p99");
  check(highest_supported_percentile(123456) == 99.99, "123456 samples: p99.99");
}

void histogram_quantiles() {
  using perfbench::Distribution;
  using perfbench::Histogram;
  // Bucket geometry: every value lands inside its bucket.
  bool inside = true;
  for (std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 129ull, 255ull, 256ull, 1000ull, 123456789ull,
                          (1ull << 40) + 12345ull, ~0ull}) {
    std::size_t b = Histogram::bucket_of(v);
    std::uint64_t lo = Histogram::bucket_lower(b);
    inside = inside && b < Histogram::kBuckets && lo <= v && v - lo < Histogram::bucket_width(b);
  }
  check(inside, "every value falls in [lower, lower + width) of its bucket");

  Histogram h;
  for (std::uint64_t v = 1; v <= 100000; ++v) h.record(v * 1000);  // 1 us .. 100 ms
  Distribution d;
  d.add(h.snapshot());
  check(d.total() == 100000, "distribution counts every record");
  double p50 = d.quantile(0.50), p99 = d.quantile(0.99);
  check(std::fabs(p50 - 50e6) / 50e6 < 0.01, "p50 of a uniform sample within 1%");
  check(std::fabs(p99 - 99e6) / 99e6 < 0.01, "p99 of a uniform sample within 1%");

  Distribution later = d;
  later.add(h.snapshot());
  later.subtract(d.counts);
  check(later.total() == d.total(), "subtracting an earlier snapshot leaves the interval");
  check(throws([&] { Distribution().subtract(later.counts); }),
        "subtracting more than was recorded throws");
  check(throws([] { Distribution().quantile(0.5); }), "quantile of nothing throws");
}

void cpu_delta() {
  using perfbench::cpu_seconds_between;
  using perfbench::CpuTime;
  CpuTime a{1000000, 500000};
  CpuTime b{3500000, 750000};
  check(std::fabs(cpu_seconds_between(a, b) - 2.75) < 1e-12, "delta adds user and system parts");
  check(throws([&] { cpu_seconds_between(b, a); }), "a reversed interval throws");
  check(throws([&] { cpu_seconds_between(CpuTime{1, 5}, CpuTime{2, 4}); }),
        "a system part going backwards throws");

  // The same work on one thread, then on two at once: the process delta
  // sees both threads.
  CpuTime t0 = perfbench::process_cpu();
  burn();
  double one = cpu_seconds_between(t0, perfbench::process_cpu());
  t0 = perfbench::process_cpu();
  std::int64_t w0 = perfbench::now_ns();
  std::thread other(burn);
  burn();
  other.join();
  double wall = static_cast<double>(perfbench::now_ns() - w0) * 1e-9;
  double two = cpu_seconds_between(t0, perfbench::process_cpu());
  std::printf("      work on 1 thread: cpu %.3f s; on 2 threads: cpu %.3f s over wall %.3f s\n",
              one, two, wall);
  check(two >= 1.6 * one, "process CPU counts every thread");
  check(two <= 2.0 * wall + 0.05, "process CPU never exceeds threads x wall");

  // Sleeping costs (almost) nothing.
  t0 = perfbench::process_cpu();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  check(cpu_seconds_between(t0, perfbench::process_cpu()) < 0.05, "sleep is not CPU time");
}

void median_rule() {
  check(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "median of an odd sample");
  check(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5, "median of an even sample");
  check(throws([] { perfbench::median({}); }), "median of nothing throws");
}

void sample_quantiles() {
  // Eleven values 0, 10, ..., 100 in shuffled order: position q * 10.
  std::vector<double> v = {50, 0, 100, 30, 70, 10, 90, 20, 80, 40, 60};
  check(perfbench::sample_quantile(v, 0.0) == 0.0, "quantile 0 is the minimum");
  check(perfbench::sample_quantile(v, 1.0) == 100.0, "quantile 1 is the maximum");
  check(std::abs(perfbench::sample_quantile(v, 0.9) - 90.0) < 1e-9, "p90 of 0..100");
  check(std::abs(perfbench::sample_quantile(v, 0.95) - 95.0) < 1e-9, "p95 interpolates");
  check(std::abs(perfbench::sample_quantile({1.0, 2.0}, 0.1) - 1.1) < 1e-9,
        "p10 of two values interpolates");
  check(perfbench::sample_quantile({7.0}, 0.9) == 7.0, "quantile of one value");
  check(throws([] { perfbench::sample_quantile({1.0}, 1.5); }), "q outside [0, 1] throws");
  check(throws([] { perfbench::sample_quantile({}, 0.5); }), "quantile of nothing throws");
}

}  // namespace

int main() {
  percentile_rule();
  histogram_quantiles();
  cpu_delta();
  median_rule();
  sample_quantiles();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
