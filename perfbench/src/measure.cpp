#include "measure.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CpuTime process_cpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  CpuTime t;
  t.user_us = static_cast<std::int64_t>(ru.ru_utime.tv_sec) * 1000000 + ru.ru_utime.tv_usec;
  t.sys_us = static_cast<std::int64_t>(ru.ru_stime.tv_sec) * 1000000 + ru.ru_stime.tv_usec;
  return t;
}

double cpu_seconds_between(const CpuTime& begin, const CpuTime& end) {
  if (end.user_us < begin.user_us || end.sys_us < begin.sys_us) {
    throw std::logic_error("cpu_seconds_between: end sample precedes begin sample");
  }
  return static_cast<double>((end.user_us - begin.user_us) + (end.sys_us - begin.sys_us)) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) throw std::runtime_error("sched_getaffinity");
  std::vector<int> out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
  }
  return out;
}

void set_process_cpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) throw std::runtime_error("cannot list /proc/self/task");
  std::string failed;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const pid_t tid = static_cast<pid_t>(std::strtol(entry->d_name, nullptr, 10));
    // A thread that exited since the listing is not an error.
    if (sched_setaffinity(tid, sizeof set, &set) != 0 && errno != ESRCH) failed = entry->d_name;
  }
  closedir(dir);
  if (!failed.empty()) throw std::runtime_error("sched_setaffinity failed for thread " + failed);
}

double sample_quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of an empty sample");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("quantile outside [0, 1]");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] + (pos - static_cast<double>(lo)) * (values[lo + 1] - values[lo]);
}

double median(std::vector<double> values) { return sample_quantile(std::move(values), 0.5); }

// --- histogram -------------------------------------------------------------

Histogram::Histogram() : counts_(new std::atomic<std::uint64_t>[kBuckets]) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i].store(0, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::snapshot() const {
  std::vector<std::uint64_t> out(kBuckets);
  for (std::size_t i = 0; i < kBuckets; ++i) out[i] = counts_[i].load(std::memory_order_relaxed);
  return out;
}

std::size_t Histogram::bucket_of(std::uint64_t value) {
  if (value < kSub) return static_cast<std::size_t>(value);
  int e = 63 - __builtin_clzll(value);  // >= 7
  int shift = e - 7;
  std::uint64_t mantissa = value >> shift;  // in [128, 256)
  return kSub + static_cast<std::size_t>(e - 7) * kSub + static_cast<std::size_t>(mantissa - kSub);
}

std::uint64_t Histogram::bucket_lower(std::size_t index) {
  if (index < kSub) return index;
  std::size_t octave = (index - kSub) / kSub;  // e - 7
  std::uint64_t mantissa = kSub + (index - kSub) % kSub;
  return mantissa << octave;
}

std::uint64_t Histogram::bucket_width(std::size_t index) {
  if (index < kSub) return 1;
  return std::uint64_t{1} << ((index - kSub) / kSub);
}

std::uint64_t Distribution::total() const {
  std::uint64_t n = 0;
  for (std::uint64_t c : counts) n += c;
  return n;
}

void Distribution::add(const std::vector<std::uint64_t>& other) {
  if (other.size() != counts.size()) throw std::invalid_argument("Distribution::add: size");
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other[i];
}

void Distribution::subtract(const std::vector<std::uint64_t>& earlier) {
  if (earlier.size() != counts.size()) throw std::invalid_argument("Distribution::subtract: size");
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (earlier[i] > counts[i]) throw std::logic_error("Distribution::subtract: count went down");
    counts[i] -= earlier[i];
  }
}

double Distribution::quantile(double q) const {
  std::uint64_t n = total();
  if (n == 0) throw std::invalid_argument("quantile of an empty distribution");
  q = std::clamp(q, 0.0, 1.0);
  double rank = q * static_cast<double>(n);
  double below = 0.0;
  std::size_t last = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    last = i;
    double c = static_cast<double>(counts[i]);
    if (below + c >= rank) {
      double frac = (rank - below) / c;
      return static_cast<double>(Histogram::bucket_lower(i)) +
             frac * static_cast<double>(Histogram::bucket_width(i));
    }
    below += c;
  }
  return static_cast<double>(Histogram::bucket_lower(last) + Histogram::bucket_width(last));
}

std::uint64_t samples_beyond(std::uint64_t n, double percentile) {
  // Round the share before flooring so 99.9 -> 0.001 exactly enough for
  // n = 10000 to yield 10, not 9.
  double beyond = static_cast<double>(n) * (100.0 - percentile) / 100.0;
  return static_cast<std::uint64_t>(std::floor(beyond + 1e-9));
}

bool percentile_supported(std::uint64_t n, double percentile) {
  return samples_beyond(n, percentile) >= 10;
}

std::optional<double> highest_supported_percentile(std::uint64_t n) {
  static const double kLadder[] = {99.9999, 99.999, 99.99, 99.9, 99.0, 90.0, 50.0};
  for (double p : kLadder) {
    if (percentile_supported(n, p)) return p;
  }
  return std::nullopt;
}

// --- spans -----------------------------------------------------------------

long Tracer::begin(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  open_ = static_cast<long>(spans_.size()) - 1;
  return open_;
}

void Tracer::end(long index) {
  if (!enabled_ || index < 0) return;
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = now_ns();
  open_ = s.parent;
}

double Tracer::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (const auto& s : spans_) {
    if (s.name == name) total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  return total;
}

std::size_t Tracer::count(const std::string& name) const {
  std::size_t n = 0;
  for (const auto& s : spans_) n += s.name == name ? 1 : 0;
  return n;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"name\":\"" << json_escape(s.name)
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

// --- json ------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonObject& JsonObject::num(const std::string& key, double value) {
  if (!std::isfinite(value)) {
    fields_.emplace_back(key, "null");
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  fields_.emplace_back(key, buf);
  return *this;
}

JsonObject& JsonObject::integer(const std::string& key, std::int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, "\"" + json_escape(value) + "\"");
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::obj(const std::string& key, const JsonObject& value) {
  fields_.emplace_back(key, value.dump());
  return *this;
}

std::string JsonObject::dump() const {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << json_escape(fields_[i].first) << "\": " << fields_[i].second;
  }
  out << "}";
  return out.str();
}

}  // namespace perfbench
