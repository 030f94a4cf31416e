#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "control/controller.hpp"
#include "control/controller_factory.hpp"
#include "control/drnn_predictor.hpp"
#include "control/predictor.hpp"
#include "dsps/engine.hpp"
#include "exp/scenario_spec.hpp"
#include "probes.hpp"
#include "rt/async_engine.hpp"

namespace perfbench {

namespace exp = repro::exp;
namespace rt = repro::rt;

namespace {

using repro::exp::ScenarioSpec;

// --- workload constants ------------------------------------------------------

/// The registered course the simulator workload repeats.
constexpr const char* kCourse = "t7-bakeoff";
/// Courses per requested second. `--seconds` sets the course count, so a
/// run's inputs stay a function of seed and seconds; a course takes
/// 0.5-1.2 s on a 4-core Xeon, so the phase lasts up to `--seconds`.
constexpr double kCoursesPerSecond = 1.0;

/// Wall seconds per metrics window (RtConfig's default). The engine keeps a
/// window's per-root latencies in one vector; at 0.25 s its capacity
/// doubled or not with the host's speed, moving peak RSS by 30%.
constexpr double kAsyncWindow = 0.1;
constexpr double kSaturatedRate = 5e6;     ///< spout schedule, far above capacity
constexpr std::size_t kSaturatedBatch = 64;
constexpr std::size_t kSaturatedQueueCap = 256;
constexpr std::size_t kSaturatedPending = 4096;
/// Async set-ups per run (each waits out one window); setup_s is their
/// median, a figure of about 0.15 ms.
constexpr std::size_t kAsyncSetups = 21;
/// Wall seconds per async measurement slice.
constexpr double kSlice = 0.5;
/// Rates and CPU costs summarise per-slice (per-course) readings by these
/// quantiles: a rate by the 90th percentile, a cost by the 10th. On a
/// shared 4-core Xeon VM the host's speed is bimodal over tens of seconds
/// and differs between CPUs: consecutive courses of one run ran at
/// 430k-500k or 700k-840k tuples/s, and an unpinned run could stay on a
/// slow CPU throughout. So the simulator plays course k on the k-th allowed
/// CPU in turn; over ten runs its 90th-percentile rate then spread 8%
/// (quartile distance / median), against 41% unrotated. A slower program
/// moves every slice, so it shows in full.
constexpr double kFastRate = 0.9;
constexpr double kLowCost = 0.1;

// --- instrumentation wrappers --------------------------------------------------

/// Per counter task: root latency at the counter (where a url-count tuple
/// tree completes) and its execute count.
struct CounterProbe {
  Histogram latency;
  std::atomic<std::uint64_t> executed{0};
};

/// Per aggregator task: the sum of the partial counts it merged.
struct AggregatorProbe {
  std::atomic<std::int64_t> counted{0};
};

/// Shared by the wrapped components of one engine.
struct ProbeState {
  std::atomic<bool> closed{false};       ///< the spout offers no more roots
  /// now_ns() when a counter began its first window callback (0 = not yet).
  std::atomic<std::int64_t> first_window_ns{0};
  std::atomic<std::uint64_t> slots{0};   ///< inter-arrival draws
  std::atomic<std::uint64_t> emitted{0};

  CounterProbe* add_counter() {
    std::lock_guard<std::mutex> lock(mutex);
    counters.push_back(std::make_unique<CounterProbe>());
    return counters.back().get();
  }
  AggregatorProbe* add_aggregator() {
    std::lock_guard<std::mutex> lock(mutex);
    aggregators.push_back(std::make_unique<AggregatorProbe>());
    return aggregators.back().get();
  }
  Distribution latency() {
    std::lock_guard<std::mutex> lock(mutex);
    Distribution d;
    for (const auto& c : counters) d.add(c->latency.snapshot());
    return d;
  }
  std::uint64_t counter_executed() {
    std::lock_guard<std::mutex> lock(mutex);
    std::uint64_t n = 0;
    for (const auto& c : counters) n += c->executed.load(std::memory_order_relaxed);
    return n;
  }
  std::int64_t aggregated() {
    std::lock_guard<std::mutex> lock(mutex);
    std::int64_t n = 0;
    for (const auto& a : aggregators) n += a->counted.load(std::memory_order_relaxed);
    return n;
  }

  std::mutex mutex;  ///< guards the two vectors (not the counts inside)
  std::vector<std::unique_ptr<CounterProbe>> counters;
  std::vector<std::unique_ptr<AggregatorProbe>> aggregators;
};

template <typename T>
void bump(std::atomic<T>& counter, T by = 1) {
  // Single writer per counter: a relaxed load + store, no locked RMW.
  counter.store(counter.load(std::memory_order_relaxed) + by, std::memory_order_relaxed);
}

std::uint64_t to_ns(double seconds) {
  return seconds > 0.0 ? static_cast<std::uint64_t>(std::llround(seconds * 1e9)) : 0;
}

/// Forwards to the app's spout, counting the inter-arrival draws (schedule
/// slots) and the roots emitted.
class ProbeSpout final : public dsps::Spout {
 public:
  ProbeSpout(std::unique_ptr<dsps::Spout> inner, std::shared_ptr<ProbeState> probe)
      : inner_(std::move(inner)), probe_(std::move(probe)) {}

  void open(std::size_t task_index, std::size_t peer_count) override {
    inner_->open(task_index, peer_count);
  }
  double next_delay(sim::SimTime now) override {
    bump(probe_->slots, std::uint64_t{1});
    return inner_->next_delay(now);
  }
  std::optional<dsps::Values> next(sim::SimTime now) override {
    if (probe_->closed.load(std::memory_order_relaxed)) return std::nullopt;
    std::optional<dsps::Values> v = inner_->next(now);
    if (v) bump(probe_->emitted, std::uint64_t{1});
    return v;
  }
  void on_ack(std::uint64_t root_id) override { inner_->on_ack(root_id); }
  void on_fail(std::uint64_t root_id) override { inner_->on_fail(root_id); }

 private:
  std::unique_ptr<dsps::Spout> inner_;
  std::shared_ptr<ProbeState> probe_;
};

/// Forwards to the counter bolt and records each root's latency, from its
/// emit time to the moment the counter has executed it.
class CounterProbeBolt final : public dsps::Bolt {
 public:
  CounterProbeBolt(std::unique_ptr<dsps::Bolt> inner, std::shared_ptr<ProbeState> probe,
                   CounterProbe* slot)
      : inner_(std::move(inner)), probe_(std::move(probe)), slot_(slot) {}

  void prepare(std::size_t task_index, std::size_t peer_count) override {
    inner_->prepare(task_index, peer_count);
  }
  void execute(const dsps::Tuple& input, dsps::OutputCollector& out) override {
    inner_->execute(input, out);
    slot_->latency.record(to_ns(out.now() - input.root_emit_time));
    bump(slot_->executed, std::uint64_t{1});
  }
  void on_window(sim::SimTime now, dsps::OutputCollector& out) override {
    std::int64_t unset = 0;
    probe_->first_window_ns.compare_exchange_strong(unset, now_ns(), std::memory_order_relaxed);
    inner_->on_window(now, out);
  }
  double tuple_cost(const dsps::Tuple& input) const override { return inner_->tuple_cost(input); }

 private:
  std::unique_ptr<dsps::Bolt> inner_;
  std::shared_ptr<ProbeState> probe_;
  CounterProbe* slot_;
};

/// Forwards to the aggregator bolt and sums the partial counts it merges.
class AggregatorProbeBolt final : public dsps::Bolt {
 public:
  AggregatorProbeBolt(std::unique_ptr<dsps::Bolt> inner, AggregatorProbe* slot)
      : inner_(std::move(inner)), slot_(slot) {}

  void prepare(std::size_t task_index, std::size_t peer_count) override {
    inner_->prepare(task_index, peer_count);
  }
  void execute(const dsps::Tuple& input, dsps::OutputCollector& out) override {
    bump(slot_->counted, input.as_int(1));
    inner_->execute(input, out);
  }
  void on_window(sim::SimTime now, dsps::OutputCollector& out) override {
    inner_->on_window(now, out);
  }
  double tuple_cost(const dsps::Tuple& input) const override { return inner_->tuple_cost(input); }

 private:
  std::unique_ptr<dsps::Bolt> inner_;
  AggregatorProbe* slot_;
};

/// Wrap the url-count components of `topo` (names "urls", "counter",
/// "aggregator") so they report to `probe`.
void instrument(dsps::Topology& topo, const std::shared_ptr<ProbeState>& probe) {
  std::size_t found = 0;
  for (auto& s : topo.spouts) {
    if (s.name != "urls") continue;
    dsps::SpoutFactory inner = s.factory;
    s.factory = [inner, probe] { return std::make_unique<ProbeSpout>(inner(), probe); };
    ++found;
  }
  for (auto& b : topo.bolts) {
    dsps::BoltFactory inner = b.factory;
    if (b.name == "counter") {
      b.factory = [inner, probe] {
        return std::make_unique<CounterProbeBolt>(inner(), probe, probe->add_counter());
      };
      ++found;
    } else if (b.name == "aggregator") {
      b.factory = [inner, probe] {
        return std::make_unique<AggregatorProbeBolt>(inner(), probe->add_aggregator());
      };
      ++found;
    }
  }
  if (found != 3) throw std::invalid_argument("instrument: topology is not url-count");
}

// --- shared helpers ----------------------------------------------------------

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

void sleep_for(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(std::max(0.0, seconds)));
}

/// Poll `done` every millisecond for at most `limit` seconds.
template <typename Pred>
bool wait_until(Pred done, double limit) {
  std::int64_t t0 = now_ns();
  while (!done()) {
    if (seconds_since(t0) > limit) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

std::string tail_note(const Distribution& d) {
  std::uint64_t n = d.total();
  std::optional<double> p = highest_supported_percentile(n);
  if (!p) return "tail: fewer than 20 samples";
  char buf[160];
  std::snprintf(buf, sizeof buf, "tail p%g = %.4f ms (n=%llu, %llu beyond)", *p,
                d.quantile(*p / 100.0) * 1e-6, static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(samples_beyond(n, *p)));
  return buf;
}

/// One measurement slice: the work done and the resources it took.
struct Slice {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t executed = 0;
  std::uint64_t acked = 0;
};

/// Latency metrics (ms) of the whole measured phase, with the highest
/// percentile that has ten samples beyond it noted.
void add_latency(std::vector<Metric>& out, const Distribution& all, const std::string& what) {
  if (!percentile_supported(all.total(), 99.0)) {
    throw std::runtime_error("too few latency samples for a p99");
  }
  std::string note = what + "; " + tail_note(all);
  out.push_back({"lat_p50_ms", all.quantile(0.50) * 1e-6, "ms", all.total(), note});
  out.push_back({"lat_p99_ms", all.quantile(0.99) * 1e-6, "ms", all.total(), note});
}

/// Throughput and CPU cost: the kFastRate quantile of the per-slice rates
/// and the kLowCost quantile of the per-slice CPU costs; whole-phase
/// figures are noted.
void add_rates(std::vector<Metric>& out, const std::vector<Slice>& slices,
               const std::string& slice_kind) {
  std::vector<double> rate, cpu;
  Slice all;
  for (const auto& s : slices) {
    if (s.executed == 0 || s.wall_s <= 0.0) continue;
    rate.push_back(static_cast<double>(s.executed) / s.wall_s);
    cpu.push_back(s.cpu_s * 1e6 / static_cast<double>(s.executed));
    all.wall_s += s.wall_s;
    all.cpu_s += s.cpu_s;
    all.executed += s.executed;
  }
  if (rate.empty()) throw std::runtime_error("no executed tuples in the measured phase");
  char note[112];
  std::snprintf(note, sizeof note, "p90 over %zu %s; whole phase %.6g", rate.size(),
                slice_kind.c_str(), static_cast<double>(all.executed) / all.wall_s);
  out.push_back({"tuples_per_s", sample_quantile(rate, kFastRate), "1/s", all.executed, note});
  std::snprintf(note, sizeof note, "process user+sys; p10 over %zu %s; whole phase %.6g",
                cpu.size(), slice_kind.c_str(), all.cpu_s * 1e6 / static_cast<double>(all.executed));
  out.push_back({"cpu_us_per_tuple", sample_quantile(cpu, kLowCost), "us", all.executed, note});
}

// --- DRNN set-up -------------------------------------------------------------

struct Pretrained {
  std::shared_ptr<control::PerformancePredictor> predictor;
  double trace_s = 0.0;
  double fit_s = 0.0;
  std::size_t epochs = 0;
};

/// The scenario harness's DRNN recipe through public calls, timed in two
/// parts: a simulator profiling trace of the scenario (faults removed,
/// slowdown ramps mixed in), then PerformancePredictor::fit on it.
Pretrained pretrain_drnn(const ScenarioSpec& spec, Tracer& tracer) {
  ScenarioSpec train = spec;
  train.backend = runtime::BackendKind::kSim;
  train.controller = "none";
  train.faults.clear();
  train.interference.ramp_rate = std::max(train.interference.ramp_rate, 4.0);
  train.duration = spec.train_duration;

  Pretrained out;
  std::vector<dsps::WindowSample> trace;
  std::int64_t t0 = now_ns();
  {
    ScopedSpan span(tracer, "sim.trace");
    exp::ScenarioApp app = exp::build_scenario_app(train);
    dsps::Engine engine(app.topology, train.cluster_config());
    engine.apply_fault_plan(exp::make_fault_plan(train));
    engine.run_for(train.duration);
    trace = engine.history();
  }
  out.trace_s = seconds_since(t0);

  std::vector<std::uint64_t> executed;
  for (const auto& sample : trace) {
    if (executed.size() < sample.workers.size()) executed.resize(sample.workers.size(), 0);
    for (const auto& w : sample.workers) executed[w.worker] += w.executed;
  }
  std::vector<std::size_t> workers;
  for (std::size_t w = 0; w < executed.size(); ++w) {
    if (executed[w] > 0) workers.push_back(w);
  }

  t0 = now_ns();
  {
    ScopedSpan span(tracer, "nn.fit");
    out.predictor = control::make_predictor("drnn", spec.seed + 17);
    out.predictor->fit(trace, workers);
  }
  out.fit_s = seconds_since(t0);
  if (auto* drnn = dynamic_cast<control::DrnnPredictor*>(out.predictor.get())) {
    out.epochs = drnn->last_report().epochs_run;
  }
  return out;
}

/// Pretrain `repeats` times (identical seeded work); setup_s is the median.
Pretrained pretrain_repeated(const ScenarioSpec& spec, std::size_t repeats, Tracer& tracer,
                             std::vector<double>& setup_times) {
  Pretrained last;
  for (std::size_t i = 0; i < repeats; ++i) {
    last = pretrain_drnn(spec, tracer);
    setup_times.push_back(last.trace_s + last.fit_s);
  }
  return last;
}

void add_pretrain_layers(std::vector<Metric>& layers, const Pretrained& p) {
  layers.push_back({"sim.trace_s", p.trace_s, "s", 1, "profiling trace"});
  layers.push_back({"nn.fit_s", p.fit_s, "s", 1, "PerformancePredictor::fit"});
  layers.push_back({"nn.epochs", static_cast<double>(p.epochs), "count", 1, ""});
  layers.push_back({"nn.epoch_ms", p.epochs > 0 ? p.fit_s * 1e3 / p.epochs : 0.0, "ms",
                    p.epochs, ""});
}

// --- sim-t7-drnn -------------------------------------------------------------

/// The DRNN the simulator workload deploys: pretrained on the registered
/// course with its registered seed. It is set-up, the same work in every run; the
/// workload seed reaches only the measured run's spec and generators.
ScenarioSpec pretraining_spec() { return exp::ScenarioRegistry::instance().get(kCourse); }

ScenarioSpec registered_course(std::uint64_t seed) {
  ScenarioSpec spec = exp::ScenarioRegistry::instance().get(kCourse);
  spec.seed = seed;
  return spec;
}

/// `course` back to back `repeats` times in one run: its rate phases and
/// fault events shifted by whole courses, and every worker it slows
/// restored one second before each course ends, so each course starts
/// from a healthy cluster like the registered one.
ScenarioSpec repeated_course(const ScenarioSpec& course, std::size_t repeats) {
  ScenarioSpec out = course;
  out.name = course.name + "-x" + std::to_string(repeats);
  out.duration = course.duration * static_cast<double>(repeats);
  for (std::size_t t = 0; t < out.topologies.size(); ++t) {
    out.topologies[t].phases.clear();
    for (std::size_t k = 0; k < repeats; ++k) {
      for (auto phase : course.topologies[t].phases) {
        phase.at += course.duration * static_cast<double>(k);
        out.topologies[t].phases.push_back(phase);
      }
    }
  }
  out.faults.clear();
  for (std::size_t k = 0; k < repeats; ++k) {
    double shift = course.duration * static_cast<double>(k);
    for (auto fault : course.faults) {
      fault.at += shift;
      out.faults.push_back(fault);
      if (fault.kind == "ramp" || fault.kind == "slowdown") {
        out.faults.push_back({"clear-slowdown", shift + course.duration - 1.0, fault.target, 0.0,
                              0.0});
      }
    }
  }
  std::stable_sort(out.faults.begin(), out.faults.end(),
                   [](const exp::FaultSpec& a, const exp::FaultSpec& b) { return a.at < b.at; });
  out.validate();
  return out;
}

/// One measured simulator run: the courses on one engine under the DRNN
/// arm, then a drain until every root has resolved.
struct SimPhase {
  std::vector<Slice> courses;  ///< one slice per course
  Distribution latency;        ///< every root of the measured courses
  dsps::EngineTotals measured;  ///< at the end of the courses
  dsps::EngineTotals end;       ///< after the drain
  std::uint64_t pending_end = 0;
  std::uint64_t residual_queued = 0;
  std::uint64_t slots = 0;
  std::uint64_t offered = 0;
  control::ControllerTotals ctl;
  std::uint64_t actuations = 0;
  std::vector<dsps::WindowSample> history;  ///< traced phase only
};

SimPhase run_sim_phase(const ScenarioSpec& spec, double course_seconds, std::size_t courses,
                       const std::shared_ptr<control::PerformancePredictor>& predictor,
                       Tracer& tracer) {
  auto probe = std::make_shared<ProbeState>(0.0);
  exp::ScenarioApp app = exp::build_scenario_app(spec);
  instrument(app.topology, probe);
  dsps::Engine engine(app.topology, spec.cluster_config());
  engine.apply_fault_plan(exp::make_fault_plan(spec));
  control::ControllerOptions arm_options;
  arm_options.seed = spec.seed;
  arm_options.predictor = predictor;
  std::unique_ptr<control::Controller> arm = control::make_controller("drnn", arm_options);
  arm->attach(engine);
  std::shared_ptr<dsps::DynamicRatio> ratio = engine.dynamic_ratio("urls", "counter");
  const std::uint64_t ratio_version0 = ratio->version();

  SimPhase ph;
  const std::vector<int> cpus = allowed_cpus();
  for (std::size_t c = 0; c < courses; ++c) {
    set_process_cpus({cpus[c % cpus.size()]});  // see kFastRate
    dsps::EngineTotals before = engine.totals();
    CpuTime cpu0 = process_cpu();
    std::int64_t t0 = now_ns();
    if (tracer.enabled()) {
      for (double t = 0.0; t < course_seconds; t += spec.window_seconds) {
        ScopedSpan span(tracer, "dsps.run_for");
        engine.run_for(spec.window_seconds);
      }
    } else {
      engine.run_for(course_seconds);
    }
    Slice slice;
    slice.wall_s = seconds_since(t0);
    slice.cpu_s = cpu_seconds_between(cpu0, process_cpu());
    slice.executed = engine.totals().tuples_executed - before.tuples_executed;
    slice.acked = engine.totals().acked - before.acked;
    ph.courses.push_back(slice);
  }
  set_process_cpus(cpus);
  ph.measured = engine.totals();
  ph.latency = probe->latency();
  ph.slots = probe->slots.load();
  ph.offered = probe->emitted.load();
  ph.ctl = arm->totals();
  ph.actuations = ratio->version() - ratio_version0;

  // Drain: the spout stops offering roots; run until every root resolved.
  probe->closed.store(true);
  for (int i = 0; i < 120 && engine.pending_roots() > 0; ++i) engine.run_for(1.0);
  engine.run_for(2.0 * spec.window_seconds);  // the last partial counts reach the aggregator
  ph.end = engine.totals();
  ph.pending_end = engine.pending_roots();
  for (std::size_t task = 0; task < app.topology.total_tasks(); ++task) {
    ph.residual_queued += engine.queue_length_of_task(task);
  }
  if (tracer.enabled()) ph.history = engine.history();
  return ph;
}

/// The exact simulated outcomes of a phase of `courses` courses, which a
/// reference pins.
JsonObject pinned_outcomes(const SimPhase& ph, std::uint64_t seed, std::size_t courses,
                           double sim_seconds) {
  const dsps::EngineTotals& end = ph.end;
  JsonObject o;
  o.integer("seed", static_cast<std::int64_t>(seed))
      .integer("courses", static_cast<std::int64_t>(courses))
      .num("goodput_tps", static_cast<double>(ph.measured.acked) / sim_seconds)
      .num("lat_p50_ms", ph.latency.quantile(0.50) * 1e-6)
      .num("lat_p99_ms", ph.latency.quantile(0.99) * 1e-6)
      .num("ok_pct", 100.0 * static_cast<double>(end.acked) / static_cast<double>(end.roots_emitted))
      .num("offered_pct", 100.0 * static_cast<double>(ph.offered) / static_cast<double>(ph.slots))
      .integer("roots_emitted", static_cast<std::int64_t>(end.roots_emitted))
      .integer("acked", static_cast<std::int64_t>(end.acked))
      .integer("failed", static_cast<std::int64_t>(end.failed))
      .integer("executed", static_cast<std::int64_t>(end.tuples_executed))
      .integer("replays", static_cast<std::int64_t>(end.replays))
      .integer("tuples_lost", static_cast<std::int64_t>(end.tuples_lost))
      .integer("control_rounds", static_cast<std::int64_t>(ph.ctl.control_rounds))
      .integer("actuations", static_cast<std::int64_t>(ph.actuations));
  return o;
}

RunResult run_sim(const Options& opt) {
  RunResult r;
  Tracer tracer(opt.trace);
  const ScenarioSpec course = registered_course(opt.seed);
  const std::size_t repeats = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(opt.seconds * kCoursesPerSecond)));
  const ScenarioSpec spec = repeated_course(course, repeats);

  std::vector<double> setup_times;
  Pretrained pre = pretrain_repeated(pretraining_spec(), opt.trace ? 1 : opt.setup_repeats,
                                     tracer, setup_times);

  Tracer off(false);
  const SimPhase ph = run_sim_phase(spec, course.duration, repeats, pre.predictor, off);
  const dsps::EngineTotals& t = ph.measured;
  const dsps::EngineTotals& end = ph.end;
  const double sim_seconds = spec.duration;
  const double goodput = static_cast<double>(t.acked) / sim_seconds;
  const double ok_pct =
      100.0 * static_cast<double>(end.acked) / static_cast<double>(end.roots_emitted);
  const double offered_pct = 100.0 * static_cast<double>(ph.offered) / static_cast<double>(ph.slots);

  r.pinned = pinned_outcomes(ph, opt.seed, repeats, sim_seconds);
  // The check course: one registered course at the registered seed, whose
  // outcomes the reference always holds, so every run compares exact
  // values whatever its seed and length.
  const ScenarioSpec check_spec = repeated_course(pretraining_spec(), 1);
  const SimPhase check = run_sim_phase(check_spec, course.duration, 1, pre.predictor, off);
  r.check_course = pinned_outcomes(check, check_spec.seed, 1, course.duration);

  std::vector<Metric>& m = r.end_to_end;
  m.push_back({"setup_s", median(setup_times), "s", setup_times.size(),
               "median of sim profiling trace + DRNN fit"});
  add_rates(m, ph.courses, "courses");
  m.push_back({"goodput_tps", goodput, "1/s", t.acked, "acked roots per simulated second"});
  add_latency(m, ph.latency, "simulated, at the counter");
  m.push_back({"ok_pct", ok_pct, "%", end.roots_emitted, "acked / root emissions incl. replays"});
  m.push_back({"offered_pct", offered_pct, "%", ph.slots, "roots emitted / spout schedule slots"});
  m.push_back({"peak_rss_mb", peak_rss_mb(), "MB", 0, ""});

  r.attempted = end.roots_emitted - end.replays;
  r.failed = end.replays_exhausted;
  r.notes.push_back(std::to_string(repeats) + " x " + kCourse + " (" +
                    std::to_string(static_cast<long long>(sim_seconds)) + " sim-s)");

  r.checks.str("kind", "sim")
      .integer("roots_emitted", static_cast<std::int64_t>(end.roots_emitted))
      .integer("acked", static_cast<std::int64_t>(end.acked))
      .integer("failed", static_cast<std::int64_t>(end.failed))
      .integer("pending", static_cast<std::int64_t>(ph.pending_end))
      .integer("residual_queued", static_cast<std::int64_t>(ph.residual_queued))
      .integer("delivered", static_cast<std::int64_t>(end.tuples_delivered))
      .integer("executed", static_cast<std::int64_t>(end.tuples_executed))
      .integer("dropped", static_cast<std::int64_t>(end.tuples_dropped))
      .integer("lost", static_cast<std::int64_t>(end.tuples_lost))
      .integer("dropped_overflow", static_cast<std::int64_t>(end.tuples_dropped_overflow))
      .integer("replays_exhausted", static_cast<std::int64_t>(end.replays_exhausted))
      .integer("control_rounds", static_cast<std::int64_t>(ph.ctl.control_rounds))
      .integer("actuations", static_cast<std::int64_t>(ph.actuations));

  if (!opt.trace) return r;

  // Traced phase: the same courses on a fresh engine, run_for in window
  // slices under spans; then the offline layer replays on its data.
  const SimPhase tr = run_sim_phase(spec, course.duration, repeats, pre.predictor, tracer);
  add_rates(r.traced_end_to_end, tr.courses, "courses");
  std::vector<Metric>& L = r.per_layer;
  add_pretrain_layers(L, pre);
  PredictCost predict = replay_predict(*pre.predictor, tr.history, spec.worker_count());
  L.push_back({"nn.predict_us", predict.us_per_call, "us", predict.calls, "streaming replay"});
  L.push_back({"control.round_ms", tr.ctl.mean_round_ms, "ms", tr.ctl.control_rounds, ""});
  L.push_back({"control.rounds", static_cast<double>(tr.ctl.control_rounds), "count", 0, ""});
  L.push_back({"control.actuations", static_cast<double>(tr.actuations), "count", 0, ""});
  const double run_for_s = tracer.total_seconds("dsps.run_for");
  L.push_back({"sim.sim_s_per_wall_s", sim_seconds / run_for_s, "1",
               tracer.count("dsps.run_for"), "Engine::run_for in window slices"});
  L.push_back({"dsps.replays", static_cast<double>(tr.measured.replays), "count", 0, ""});
  L.push_back({"dsps.tuples_lost", static_cast<double>(tr.measured.tuples_lost), "count", 0, ""});
  exp::ScenarioApp plain = exp::build_scenario_app(course);
  const std::size_t tasks = plain.topology.total_tasks();
  L.push_back({"dsps.acker_ns_per_tuple", acker_ns_per_tuple(spec.batch_size, 200000), "ns",
               200000, ""});
  L.push_back({"runtime.route_ns_per_tuple",
               route_ns_per_tuple(plain.topology, spec.worker_count(), spec.batch_size, 200000),
               "ns", 200000, ""});
  L.push_back({"runtime.admit_ns_per_batch",
               admit_ns_per_batch(spec.flow, tasks, spec.batch_size, 200000), "ns", 200000,
               runtime::overflow_policy_name(spec.flow.policy)});
  L.push_back({"runtime.bp_stall_s_per_s", 0.0, "1", 0, "unbounded queues"});
  const auto acked_per_window = static_cast<std::size_t>(goodput * spec.window_seconds);
  L.push_back({"runtime.window_finalize_us",
               window_finalize_us(tasks, spec.worker_count(), acked_per_window, 200), "us", 200,
               std::to_string(acked_per_window) + " acked per window"});
  for (const char* name :
       {"rt.wakeups_per_ktuple", "rt.wakeup_useful_pct", "rt.steals_per_ktuple",
        "rt.suspends_per_ktuple", "rt.ready_peak", "rt.queue_wait_us", "rt.exec_us",
        "rt.single_thread_tuples_per_s", "rt.single_thread_cpu_us_per_tuple",
        "rt.pool_tuples_per_s", "rt.pool_cpu_us_per_tuple"}) {
    L.push_back({name, 0.0, "", 0, "n/a: the simulator never runs rt"});
  }
  const auto per_window = static_cast<std::size_t>(
      static_cast<double>(t.tuples_executed) / sim_seconds * spec.window_seconds /
      static_cast<double>(plain.topology.parallelism_of("counter")));
  L.push_back({"apps.execute_ns_per_tuple", execute_ns_per_tuple(plain.topology, 200000, per_window),
               "ns", 200000, ""});
  L.push_back({"trace.overhead_pct",
               100.0 * (r.end_to_end[1].value / r.traced_end_to_end[0].value - 1.0), "%", 0,
               "untraced / traced tuples_per_s - 1"});
  if (!opt.out_dir.empty()) tracer.write_jsonl(opt.out_dir + "/spans-sim-t7-drnn.jsonl");
  return r;
}

// --- async-url-saturated ----------------------------------------------------

ScenarioSpec async_spec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "bench-url-saturated";
  spec.backend = runtime::BackendKind::kAsync;
  spec.seed = seed;
  spec.window_seconds = kAsyncWindow;
  exp::TopologySpec topo;
  topo.name = "url";
  topo.app = exp::AppKind::kUrlCount;
  topo.base_rate = kSaturatedRate;
  topo.amplitude = 0.0;
  spec.topologies = {topo};
  spec.batch_size = kSaturatedBatch;
  spec.flow.queue_capacity = kSaturatedQueueCap;
  spec.flow.policy = runtime::OverflowPolicy::kBlockUpstream;
  spec.max_spout_pending = kSaturatedPending;
  spec.validate();
  return spec;
}

rt::AsyncConfig async_config(const ScenarioSpec& spec, std::size_t threads) {
  rt::AsyncConfig cfg;
  cfg.workers = spec.worker_count();
  cfg.window_seconds = spec.window_seconds;
  cfg.ack_timeout = spec.ack_timeout;
  cfg.max_spout_pending = spec.max_spout_pending;
  cfg.flow = spec.flow;
  cfg.batch_size = spec.batch_size;
  cfg.threads = threads;
  return cfg;
}

/// Readings at one instant of a live async run.
struct AsyncMark {
  std::int64_t wall_ns = 0;
  CpuTime cpu;
  rt::RtTotals totals;
  double engine_s = 0.0;
  std::uint64_t emitted = 0;
  std::uint64_t slots = 0;
};

AsyncMark mark(rt::AsyncEngine& engine, ProbeState& probe) {
  AsyncMark m;
  m.wall_ns = now_ns();
  m.cpu = process_cpu();
  m.totals = engine.totals();
  m.engine_s = engine.now_seconds();
  m.emitted = probe.emitted.load();
  m.slots = probe.slots.load();
  return m;
}

/// One measured async run: start, warm up, measure `seconds` in slices,
/// drain, stop.
struct AsyncPhase {
  std::vector<Slice> slices;
  AsyncMark begin, end;
  Distribution latency;
  rt::RtTotals final_totals;
  std::uint64_t pending_last = 0;
  std::uint64_t counter_executed = 0;
  std::int64_t aggregated = 0;
  bool drained = false;
  std::vector<dsps::WindowSample> windows;  ///< the measured phase's windows
  double bp_stall_s = 0.0;
};

AsyncPhase run_async_phase(const ScenarioSpec& spec, std::size_t threads, double seconds,
                           Tracer& tracer) {
  auto probe = std::make_shared<ProbeState>();
  exp::ScenarioApp app = exp::build_scenario_app(spec);
  instrument(app.topology, probe);
  rt::AsyncEngine engine(app.topology, async_config(spec, threads));

  AsyncPhase ph;
  {
    ScopedSpan span(tracer, "rt.start");
    engine.start();
  }
  {
    ScopedSpan span(tracer, "warmup");  // caches and the first windows
    sleep_for(1.0);
  }

  std::vector<std::uint64_t> lat0 = probe->latency().counts;
  ph.begin = mark(engine, *probe);
  AsyncMark prev = ph.begin;
  const std::size_t n_slices =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(seconds / kSlice)));
  for (std::size_t i = 0; i < n_slices; ++i) {
    ScopedSpan span(tracer, "measure.slice");
    sleep_for(static_cast<double>(i + 1) * kSlice - seconds_since(ph.begin.wall_ns));
    AsyncMark cur = mark(engine, *probe);
    Slice s;
    s.wall_s = static_cast<double>(cur.wall_ns - prev.wall_ns) * 1e-9;
    s.cpu_s = cpu_seconds_between(prev.cpu, cur.cpu);
    s.executed = cur.totals.executed - prev.totals.executed;
    s.acked = cur.totals.acked - prev.totals.acked;
    ph.slices.push_back(s);
    prev = cur;
  }
  ph.end = prev;
  ph.latency = probe->latency();
  ph.latency.subtract(lat0);

  {
    // Drain: stop offering roots, wait for every root to resolve and the
    // counters' last partial counts to reach the aggregators.
    ScopedSpan span(tracer, "drain");
    probe->closed.store(true);
    bool roots = wait_until(
        [&] {
          rt::RtTotals t = engine.totals();
          return t.acked + t.failed == t.roots_emitted;
        },
        2.0 * spec.ack_timeout);
    bool counts = wait_until(
        [&] {
          return probe->aggregated() == static_cast<std::int64_t>(probe->counter_executed());
        },
        20.0 * kAsyncWindow);
    sleep_for(3.0 * kAsyncWindow);  // a window boundary after the last ack
    ph.drained = roots && counts;
  }
  {
    ScopedSpan span(tracer, "rt.stop");
    engine.stop();
  }
  ph.final_totals = engine.totals();
  ph.counter_executed = probe->counter_executed();
  ph.aggregated = probe->aggregated();
  const auto& hist = engine.window_history().samples();
  if (!hist.empty()) ph.pending_last = hist.back().topology.pending;
  for (const auto& w : hist) {
    if (w.time > ph.begin.engine_s && w.time <= ph.end.engine_s) ph.windows.push_back(w);
  }
  for (const auto& w : ph.windows) {
    for (const auto& task : w.tasks) ph.bp_stall_s += task.bp_stall;
  }
  return ph;
}

/// Topology build -> engine start -> a counter's first window callback,
/// less the window period the engine waits for that first boundary.
std::vector<double> async_setup_times(const ScenarioSpec& spec, std::size_t threads,
                                      std::size_t repeats) {
  std::vector<double> out;
  for (std::size_t i = 0; i < repeats; ++i) {
    std::int64_t t0 = now_ns();
    auto probe = std::make_shared<ProbeState>();
    exp::ScenarioApp app = exp::build_scenario_app(spec);
    instrument(app.topology, probe);
    rt::AsyncEngine engine(app.topology, async_config(spec, threads));
    engine.start();
    bool ok = wait_until([&] { return probe->first_window_ns.load() != 0; }, 30.0);
    engine.stop();
    if (!ok) throw std::runtime_error("async set-up: no window completed within 30 s");
    out.push_back(static_cast<double>(probe->first_window_ns.load() - t0) * 1e-9 -
                  spec.window_seconds);
  }
  return out;
}

std::vector<Metric> async_end_to_end(const AsyncPhase& ph, double setup_s, std::size_t setups) {
  std::vector<Metric> m;
  m.push_back({"setup_s", setup_s, "s", setups,
               "median of topology build -> engine start -> first window, less the period"});
  add_rates(m, ph.slices, "0.5 s slices");
  const double wall = static_cast<double>(ph.end.wall_ns - ph.begin.wall_ns) * 1e-9;
  const std::uint64_t acked = ph.end.totals.acked - ph.begin.totals.acked;
  std::vector<double> goodput;
  for (const auto& s : ph.slices) goodput.push_back(static_cast<double>(s.acked) / s.wall_s);
  char note[112];
  std::snprintf(note, sizeof note,
                "acked roots per wall second, p90 over %zu slices; whole phase %.6g",
                goodput.size(), static_cast<double>(acked) / wall);
  m.push_back({"goodput_tps", sample_quantile(goodput, kFastRate), "1/s", acked, note});
  add_latency(m, ph.latency, "from emit to counter execute");
  const rt::RtTotals& f = ph.final_totals;
  m.push_back({"ok_pct", 100.0 * static_cast<double>(f.acked) / static_cast<double>(f.roots_emitted),
               "%", f.roots_emitted, "acked / roots emitted, after the drain"});
  // A draw the pending cap refuses is a schedule slot not offered.
  const double scheduled = static_cast<double>(ph.end.slots - ph.begin.slots);
  m.push_back({"offered_pct",
               100.0 * static_cast<double>(ph.end.emitted - ph.begin.emitted) / scheduled, "%",
               static_cast<std::uint64_t>(scheduled), "roots emitted / spout schedule slots"});
  m.push_back({"peak_rss_mb", peak_rss_mb(), "MB", 0, ""});
  return m;
}

void add_async_checks(RunResult& r, const AsyncPhase& ph) {
  const rt::RtTotals& f = ph.final_totals;
  r.checks.str("kind", "async")
      .integer("roots_emitted", static_cast<std::int64_t>(f.roots_emitted))
      .integer("acked", static_cast<std::int64_t>(f.acked))
      .integer("failed", static_cast<std::int64_t>(f.failed))
      .integer("pending", static_cast<std::int64_t>(ph.pending_last))
      .integer("lost", static_cast<std::int64_t>(f.lost))
      .integer("dropped_overflow", static_cast<std::int64_t>(f.dropped_overflow))
      .integer("counter_executed", static_cast<std::int64_t>(ph.counter_executed))
      .integer("aggregated", ph.aggregated)
      .boolean("drained", ph.drained);
  r.attempted = f.roots_emitted;
  r.failed = f.failed + f.lost + f.dropped_overflow;
}

/// tuples_per_s and cpu_us_per_tuple of a phase, over its rate slices.
std::vector<Metric> async_rates(const AsyncPhase& ph) {
  std::vector<Metric> m;
  add_rates(m, ph.slices, "0.5 s slices");
  return m;
}

/// Per-layer rows of the traced 1-thread phase `ph` and of the same load on
/// a pool of two loop threads: one loop thread never parks on a peer or
/// steals from one, so the scheduler's wakeup and steal rows come from the
/// pool.
void add_async_layers(std::vector<Metric>& L, const AsyncPhase& ph, const AsyncPhase& pool,
                      const ScenarioSpec& spec) {
  const rt::RtTotals& a = ph.begin.totals;
  const rt::RtTotals& b = ph.end.totals;
  const double executed = static_cast<double>(b.executed - a.executed);
  const double wall = static_cast<double>(ph.end.wall_ns - ph.begin.wall_ns) * 1e-9;
  L.push_back({"dsps.acker_ns_per_tuple", acker_ns_per_tuple(spec.batch_size, 200000), "ns",
               200000, ""});
  exp::ScenarioApp plain = exp::build_scenario_app(spec);
  L.push_back({"runtime.route_ns_per_tuple",
               route_ns_per_tuple(plain.topology, spec.worker_count(), spec.batch_size, 200000),
               "ns", 200000, ""});
  L.push_back({"runtime.admit_ns_per_batch",
               admit_ns_per_batch(spec.flow, plain.topology.total_tasks(), spec.batch_size, 200000),
               "ns", 200000, runtime::overflow_policy_name(spec.flow.policy)});
  L.push_back({"runtime.bp_stall_s_per_s", ph.bp_stall_s / wall, "1", ph.windows.size(), ""});
  std::size_t acked_per_window = static_cast<std::size_t>(
      static_cast<double>(b.acked - a.acked) / wall * spec.window_seconds);
  L.push_back({"runtime.window_finalize_us",
               window_finalize_us(plain.topology.total_tasks(), spec.worker_count(),
                                  acked_per_window, 200),
               "us", 200, std::to_string(acked_per_window) + " acked per window"});

  const rt::RtTotals& pa = pool.begin.totals;
  const rt::RtTotals& pb = pool.end.totals;
  const double pool_executed = static_cast<double>(pb.executed - pa.executed);
  const std::uint64_t productive = pb.wakeups_productive - pa.wakeups_productive;
  const std::uint64_t wakeups = productive + (pb.wakeups_spurious - pa.wakeups_spurious);
  L.push_back({"rt.wakeups_per_ktuple", static_cast<double>(wakeups) * 1e3 / pool_executed,
               "count", pb.executed - pa.executed, "2 loop threads"});
  L.push_back({"rt.wakeup_useful_pct",
               wakeups > 0 ? 100.0 * static_cast<double>(productive) / static_cast<double>(wakeups)
                           : 0.0,
               "%", wakeups, "2 loop threads"});
  L.push_back({"rt.steals_per_ktuple",
               static_cast<double>(pb.steals - pa.steals) * 1e3 / pool_executed, "count",
               pb.steals - pa.steals, "2 loop threads"});
  L.push_back({"rt.suspends_per_ktuple",
               static_cast<double>(b.suspends - a.suspends) * 1e3 / executed, "count", 0, ""});
  L.push_back({"rt.ready_peak", static_cast<double>(b.ready_peak), "count", 0, "lifetime"});
  double wsum = 0.0, qsum = 0.0, esum = 0.0;
  for (const auto& w : ph.windows) {
    for (const auto& task : w.tasks) {
      double n = static_cast<double>(task.executed);
      wsum += n;
      qsum += n * task.avg_queue_wait;
      esum += n * task.avg_exec_latency;
    }
  }
  L.push_back({"rt.queue_wait_us", wsum > 0 ? qsum / wsum * 1e6 : 0.0, "us",
               static_cast<std::uint64_t>(wsum), "executed-weighted window means"});
  L.push_back({"rt.exec_us", wsum > 0 ? esum / wsum * 1e6 : 0.0, "us",
               static_cast<std::uint64_t>(wsum), "executed-weighted window means"});
  std::size_t per_window = static_cast<std::size_t>(
      executed / wall * spec.window_seconds /
      static_cast<double>(plain.topology.parallelism_of("counter")));
  L.push_back({"apps.execute_ns_per_tuple", execute_ns_per_tuple(plain.topology, 200000, per_window),
               "ns", 200000, ""});
  L.push_back({"dsps.replays", 0.0, "count", 0, "n/a: no replay on rt"});
  L.push_back({"dsps.tuples_lost", static_cast<double>(b.lost - a.lost), "count", 0, ""});
  L.push_back({"sim.sim_s_per_wall_s", 0.0, "1", 0, "n/a: no simulator in the run"});
}

RunResult run_async(const Options& opt) {
  RunResult r;
  Tracer tracer(opt.trace);
  const ScenarioSpec spec = async_spec(opt.seed);

  std::vector<double> setup_times;
  {
    ScopedSpan span(tracer, "setup");
    setup_times = async_setup_times(spec, opt.loop_threads, kAsyncSetups);
  }

  Tracer off(false);
  const AsyncPhase ph = run_async_phase(spec, opt.loop_threads, opt.seconds, off);
  r.end_to_end = async_end_to_end(ph, median(setup_times), setup_times.size());
  add_async_checks(r, ph);
  r.notes.push_back("closed loop max_spout_pending " + std::to_string(kSaturatedPending) +
                    ", batch " + std::to_string(spec.batch_size) + ", " +
                    std::to_string(opt.loop_threads) + " loop thread(s), " +
                    runtime::overflow_policy_name(spec.flow.policy) + " queues");
  if (!opt.trace) return r;

  // Traced phase on a fresh engine; the per-layer numbers come from it and
  // from the same load on a pool of two loop threads.
  const AsyncPhase tr = run_async_phase(spec, opt.loop_threads, opt.seconds, tracer);
  r.traced_end_to_end = async_rates(tr);
  AsyncPhase pool;
  {
    ScopedSpan span(tracer, "pool");
    pool = run_async_phase(spec, 2, opt.seconds / 2.0, tracer);
  }
  std::vector<Metric>& L = r.per_layer;
  for (const char* name : {"sim.trace_s", "nn.fit_s", "nn.epochs", "nn.epoch_ms", "nn.predict_us",
                           "control.round_ms", "control.rounds", "control.actuations"}) {
    L.push_back({name, 0.0, "", 0, "n/a: no controller on this workload"});
  }
  add_async_layers(L, tr, pool, spec);
  // The single-threaded baseline is the untraced phase itself.
  std::vector<Metric> one = async_rates(ph);
  L.push_back({"rt.single_thread_tuples_per_s", one[0].value, "", one[0].samples, "1 loop thread"});
  L.push_back({"rt.single_thread_cpu_us_per_tuple", one[1].value, "", one[1].samples,
               "1 loop thread"});
  std::vector<Metric> two = async_rates(pool);
  L.push_back({"rt.pool_tuples_per_s", two[0].value, "", two[0].samples, "2 loop threads"});
  L.push_back({"rt.pool_cpu_us_per_tuple", two[1].value, "", two[1].samples, "2 loop threads"});
  L.push_back({"trace.overhead_pct",
               100.0 * (r.end_to_end[1].value / r.traced_end_to_end[0].value - 1.0), "%", 0,
               "untraced / traced tuples_per_s - 1"});
  if (!opt.out_dir.empty()) {
    tracer.write_jsonl(opt.out_dir + "/spans-" + opt.workload + ".jsonl");
  }
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sim-t7-drnn", "async-url-saturated"};
  return names;
}

std::uint64_t default_seed(const std::string& workload) {
  if (workload == "sim-t7-drnn") return 53;  // the registered t7-bakeoff seed
  if (workload == "async-url-saturated") return 7;
  throw std::invalid_argument("unknown workload " + workload);
}

RunResult run_workload(const Options& options) {
  if (options.workload == "sim-t7-drnn") return run_sim(options);
  if (options.workload == "async-url-saturated") return run_async(options);
  throw std::invalid_argument("unknown workload " + options.workload);
}

const std::vector<LayerInfo>& layer_table() {
  static const std::vector<LayerInfo> table = {
      {"sim.trace_s", "s", "setup_s (sim)"},
      {"nn.fit_s", "s", "setup_s (sim)"},
      {"nn.epochs", "count", "setup_s (sim)"},
      {"nn.epoch_ms", "ms", "setup_s (sim)"},
      {"nn.predict_us", "us", "control.round_ms -> cpu_us_per_tuple (sim)"},
      {"control.round_ms", "ms", "cpu_us_per_tuple (sim)"},
      {"control.rounds", "count", "cpu_us_per_tuple (sim)"},
      {"control.actuations", "count", "goodput_tps, lat_p99_ms (sim quality)"},
      {"sim.sim_s_per_wall_s", "1", "tuples_per_s (sim)"},
      {"dsps.replays", "count", "ok_pct, goodput_tps (sim)"},
      {"dsps.tuples_lost", "count", "ok_pct, goodput_tps (sim)"},
      {"dsps.acker_ns_per_tuple", "ns", "cpu_us_per_tuple (saturated)"},
      {"runtime.route_ns_per_tuple", "ns", "tuples_per_s, cpu_us_per_tuple (saturated)"},
      {"runtime.admit_ns_per_batch", "ns", "tuples_per_s (saturated)"},
      {"runtime.bp_stall_s_per_s", "1", "tuples_per_s (saturated)"},
      {"runtime.window_finalize_us", "us", "cpu_us_per_tuple (saturated)"},
      {"rt.wakeups_per_ktuple", "count", "rt.pool_cpu_us_per_tuple (saturated, 2 loop threads)"},
      {"rt.wakeup_useful_pct", "%", "rt.pool_cpu_us_per_tuple (saturated, 2 loop threads)"},
      {"rt.steals_per_ktuple", "count", "rt.pool_tuples_per_s (saturated, 2 loop threads)"},
      {"rt.suspends_per_ktuple", "count", "cpu_us_per_tuple, tuples_per_s (saturated)"},
      {"rt.ready_peak", "count", "cpu_us_per_tuple, tuples_per_s (saturated)"},
      {"rt.queue_wait_us", "us", "lat_p50_ms, lat_p99_ms (saturated)"},
      {"rt.exec_us", "us", "lat_p50_ms, lat_p99_ms (saturated)"},
      {"rt.single_thread_tuples_per_s", "1/s", "baseline for tuples_per_s (saturated)"},
      {"rt.single_thread_cpu_us_per_tuple", "us", "baseline for cpu_us_per_tuple (saturated)"},
      {"rt.pool_tuples_per_s", "1/s", "tuples_per_s (saturated) on 2 loop threads"},
      {"rt.pool_cpu_us_per_tuple", "us", "cpu_us_per_tuple (saturated) on 2 loop threads"},
      {"apps.execute_ns_per_tuple", "ns", "floor of cpu_us_per_tuple"},
      {"trace.overhead_pct", "%", "tracing cost on tuples_per_s"},
  };
  return table;
}

}  // namespace perfbench
