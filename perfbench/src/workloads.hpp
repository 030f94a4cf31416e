#pragma once
// The benchmark's workloads. Each runs the program through its public
// exp / rt / control APIs, measures a phase of fixed length, drains, and
// returns its end-to-end metrics, the counts the output checks read and,
// in a traced run, the per-layer metrics.
#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// DRNN set-ups per run; setup_s is their median.
  std::size_t setup_repeats = 3;
  /// Loop threads of the async engine, set explicitly (the engine default
  /// is one per core). On a 4-core VM, ten-second runs of the saturated
  /// workload at 2 and 3 loop threads flipped between two latency regimes
  /// (p99 0.1 ms or 0.9 ms) and varied 16% in throughput; at 1 thread they
  /// stayed within +-6%. The traced run reports the 2-thread pool per layer.
  std::size_t loop_threads = 1;
  /// Directory the span file is written to ("" = not written).
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< what the value was computed from (0 = one reading)
  std::string note;
};

struct RunResult {
  std::vector<Metric> end_to_end;
  /// Traced run only: the per-layer metrics, and the end-to-end metrics
  /// of the traced phase (the tracing overhead is their difference).
  std::vector<Metric> per_layer;
  std::vector<Metric> traced_end_to_end;
  JsonObject checks;  ///< counts the output checks read
  JsonObject pinned;  ///< exact simulated outcomes (simulator workload only)
  JsonObject check_course;  ///< the same for the fixed check course (simulator only)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;
};

const std::vector<std::string>& workload_names();
/// Seed used when none is given (recorded in BENCHMARK.json).
std::uint64_t default_seed(const std::string& workload);
/// Throws std::invalid_argument on an unknown workload name.
RunResult run_workload(const Options& options);

/// Unit and the end-to-end metric each per-layer metric should move.
struct LayerInfo {
  const char* name;
  const char* unit;
  const char* moves;
};
const std::vector<LayerInfo>& layer_table();

}  // namespace perfbench
