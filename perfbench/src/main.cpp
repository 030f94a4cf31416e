// Benchmark binary: runs one workload and prints a human report followed,
// on the last line, by one JSON document of everything measured (metrics
// with units and sample counts, the counts the output checks read, the
// host fingerprint). perfbench/run.py builds this binary, runs it and
// applies the output checks.
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--setup-repeats N] [--commit ID] [--out-dir DIR]
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "measure.hpp"
#include "workloads.hpp"

namespace {

using perfbench::JsonObject;
using perfbench::Metric;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

struct Args {
  std::map<std::string, std::string> values;

  Args(int argc, char** argv) {
    static const std::set<std::string> known = {"workload",      "seed",   "seconds", "trace",
                                                "setup-repeats", "commit", "out-dir"};
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) != 0 || i + 1 >= argc) throw std::invalid_argument("bad argument " + a);
      std::string key = a.substr(2);
      if (known.count(key) == 0) throw std::invalid_argument("unknown option --" + key);
      values[key] = argv[++i];
    }
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
};

long parse_long(const std::string& key, const std::string& text, long lo, long hi) {
  char* end = nullptr;
  long v = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || v < lo || v > hi) {
    throw std::invalid_argument("--" + key + " wants an integer in [" + std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got '" + text + "'");
  }
  return v;
}

JsonObject metric_json(const Metric& m) {
  JsonObject o;
  o.num("value", m.value).str("unit", m.unit).integer("samples", static_cast<long long>(m.samples));
  if (!m.note.empty()) o.str("note", m.note);
  return o;
}

void print_metric(const Metric& m, const char* moves) {
  std::printf("  %-34s %16.6g %-6s", m.name.c_str(), m.value, m.unit.c_str());
  if (m.samples > 0) std::printf(" n=%-9llu", static_cast<unsigned long long>(m.samples));
  if (moves != nullptr) std::printf(" -> %s", moves);
  if (!m.note.empty()) std::printf("  [%s]", m.note.c_str());
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (!kOptimized) {
      std::fprintf(stderr,
                   "perfbench: refusing to run a build without optimization (flags: '%s'); "
                   "configure with -DCMAKE_BUILD_TYPE=RelWithDebInfo or Release\n",
                   PERFBENCH_CXX_FLAGS);
      return 2;
    }
    Args args(argc, argv);
    perfbench::Options opt;
    opt.workload = args.get("workload", "");
    bool known = false;
    for (const auto& w : perfbench::workload_names()) known = known || w == opt.workload;
    if (!known) throw std::invalid_argument("--workload must name a workload, got '" + opt.workload + "'");
    opt.seed = static_cast<std::uint64_t>(parse_long(
        "seed", args.get("seed", std::to_string(perfbench::default_seed(opt.workload))), 0,
        2000000000L));
    opt.seconds = static_cast<double>(parse_long("seconds", args.get("seconds", "10"), 1, 60));
    opt.trace = parse_long("trace", args.get("trace", "0"), 0, 1) == 1;
    opt.setup_repeats =
        static_cast<std::size_t>(parse_long("setup-repeats", args.get("setup-repeats", "3"), 1, 9));
    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    opt.out_dir = args.get("out-dir", "");

    JsonObject fingerprint;
    fingerprint.integer("nproc", nproc)
        .str("cpu", cpu_model())
        .str("compiler", std::string("g++ ") + __VERSION__)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .str("cxx_flags", PERFBENCH_CXX_FLAGS)
        .integer("loop_threads", static_cast<long long>(opt.loop_threads))
        .str("commit", args.get("commit", "unknown"));

    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
    std::printf("host: %s\n", fingerprint.dump().c_str());
    std::fflush(stdout);

    perfbench::RunResult r = perfbench::run_workload(opt);
    for (const auto& note : r.notes) std::printf("workload: %s\n", note.c_str());

    JsonObject metrics;
    std::printf("end-to-end%s:\n", opt.trace ? " (untraced phase)" : "");
    for (const auto& m : r.end_to_end) {
      print_metric(m, nullptr);
      metrics.obj(m.name, metric_json(m));
    }
    JsonObject layers, traced;
    if (opt.trace) {
      std::printf("end-to-end (traced phase):\n");
      for (const auto& m : r.traced_end_to_end) {
        print_metric(m, nullptr);
        traced.obj(m.name, metric_json(m));
      }
      std::map<std::string, const Metric*> by_name;
      for (const auto& m : r.per_layer) by_name[m.name] = &m;
      std::printf("per-layer (metric -> the end-to-end metric it should move):\n");
      for (const auto& info : perfbench::layer_table()) {
        auto it = by_name.find(info.name);
        if (it == by_name.end()) throw std::logic_error(std::string("layer metric missing: ") + info.name);
        Metric m = *it->second;
        m.unit = info.unit;
        print_metric(m, info.moves);
        layers.obj(m.name, metric_json(m));
        by_name.erase(it);
      }
      if (!by_name.empty()) throw std::logic_error("layer metric not in the table: " + by_name.begin()->first);
    }

    JsonObject doc;
    doc.str("workload", opt.workload)
        .integer("seed", static_cast<long long>(opt.seed))
        .num("seconds", opt.seconds)
        .boolean("trace", opt.trace)
        .obj("fingerprint", fingerprint)
        .obj("metrics", metrics)
        .integer("attempted", static_cast<long long>(r.attempted))
        .integer("failed", static_cast<long long>(r.failed))
        .obj("checks", r.checks)
        .obj("pinned", r.pinned)
        .obj("check_course", r.check_course);
    if (opt.trace) doc.obj("layers", layers).obj("traced_metrics", traced);
    std::printf("%s\n", doc.dump().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
