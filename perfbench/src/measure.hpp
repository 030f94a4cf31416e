#pragma once
// Measurement primitives of the benchmark: clocks, process CPU time,
// peak memory, a log-linear latency histogram with the percentile rule,
// robust summaries, spans, and a small JSON writer. Nothing here knows
// about the program under test.
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns();

/// Process CPU time (user + system, all threads) in microseconds, as two
/// separate components so a delta can be checked for each.
struct CpuTime {
  std::int64_t user_us = 0;
  std::int64_t sys_us = 0;
};
CpuTime process_cpu();
/// CPU seconds spent between two samples (user + system). Throws
/// std::logic_error when `end` precedes `begin` in either component.
double cpu_seconds_between(const CpuTime& begin, const CpuTime& end);

/// Peak resident set size of the process so far, in MB (ru_maxrss).
double peak_rss_mb();

/// The CPUs the calling thread may run on (sched_getaffinity), ascending.
std::vector<int> allowed_cpus();
/// Restricts every thread of the process to `cpus` (sched_setaffinity on
/// each entry of /proc/self/task). Threads started later inherit the mask
/// of the thread that starts them. Throws when a thread cannot be moved.
void set_process_cpus(const std::vector<int>& cpus);

/// Quantile q in [0, 1] of a sample (copied, not reordered), interpolated
/// linearly between order statistics: position q * (n - 1). Throws on an
/// empty sample or q outside [0, 1].
double sample_quantile(std::vector<double> values, double q);
/// sample_quantile(values, 0.5).
double median(std::vector<double> values);

/// Log-linear histogram of non-negative integer values (nanoseconds):
/// exact below 128, then 128 sub-buckets per power of two (<0.8%
/// relative bucket width). One writer at a time per instance; counts are
/// relaxed atomics, so another thread may snapshot while it records.
class Histogram {
 public:
  static constexpr std::size_t kSub = 128;
  static constexpr std::size_t kBuckets = kSub + 57 * kSub;

  Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t value) {
    std::atomic<std::uint64_t>& c = counts_[bucket_of(value)];
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  /// Current counts, as plain numbers.
  std::vector<std::uint64_t> snapshot() const;

  static std::size_t bucket_of(std::uint64_t value);
  /// [lower, lower + width) of bucket `index`.
  static std::uint64_t bucket_lower(std::size_t index);
  static std::uint64_t bucket_width(std::size_t index);

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
};

/// Plain bucket counts (a snapshot or a difference of snapshots).
struct Distribution {
  std::vector<std::uint64_t> counts = std::vector<std::uint64_t>(Histogram::kBuckets, 0);

  std::uint64_t total() const;
  void add(const std::vector<std::uint64_t>& other);
  /// this - earlier, bucket by bucket (throws if a count went down).
  void subtract(const std::vector<std::uint64_t>& earlier);
  /// Value at quantile q in [0, 1], interpolated linearly inside the
  /// bucket that holds rank q * total. Throws on an empty distribution.
  double quantile(double q) const;
};

/// The percentile rule: a percentile p may be reported from n samples only
/// when at least ten samples lie beyond it, n * (1 - p/100) >= 10.
std::uint64_t samples_beyond(std::uint64_t n, double percentile);
bool percentile_supported(std::uint64_t n, double percentile);
/// Highest percentile of the ladder 50, 90, 99, 99.9, ... that n samples
/// support; nullopt below 20 samples.
std::optional<double> highest_supported_percentile(std::uint64_t n);

/// One timed span. Spans are kept in memory and written out at the end.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  long parent = -1;  ///< index of the enclosing span, -1 at the top
};

/// Records spans around the benchmark's calls into the program. Disabled
/// tracers record nothing and cost one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  long begin(const std::string& name);
  void end(long index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Summed duration (seconds) and count of the spans with this name.
  double total_seconds(const std::string& name) const;
  std::size_t count(const std::string& name) const;
  /// Write every span as one JSON object per line. Returns false when the
  /// file could not be written.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  long open_ = -1;
};

/// RAII span on a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name)
      : tracer_(tracer), index_(tracer.begin(name)) {}
  ~ScopedSpan() { tracer_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  long index_;
};

/// Minimal ordered JSON object builder (numbers, strings, nested objects).
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& integer(const std::string& key, std::int64_t value);
  JsonObject& str(const std::string& key, const std::string& value);
  JsonObject& boolean(const std::string& key, bool value);
  JsonObject& obj(const std::string& key, const JsonObject& value);
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_escape(const std::string& s);

}  // namespace perfbench
