#include "probes.hpp"

#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "dsps/acker.hpp"
#include "dsps/scheduler.hpp"
#include "measure.hpp"
#include "runtime/topology_state.hpp"
#include "runtime/tuple_batch.hpp"
#include "runtime/window_stats.hpp"

namespace perfbench {
namespace {

/// Collects what a bolt emits; the clock reads 0.
class CaptureCollector final : public dsps::OutputCollector {
 public:
  void emit(dsps::Values values, const std::string&) override {
    emitted.push_back(std::move(values));
  }
  sim::SimTime now() const override { return 0.0; }
  std::size_t task_index() const override { return 0; }
  std::size_t peer_count() const override { return 1; }

  std::vector<dsps::Values> emitted;
};

/// `n` value rows from the topology's first spout, in emission order.
std::vector<dsps::Values> record_spout(const dsps::Topology& topo, std::size_t n) {
  if (topo.spouts.empty()) throw std::invalid_argument("record_spout: topology has no spout");
  std::unique_ptr<dsps::Spout> spout = topo.spouts.front().factory();
  spout->open(0, topo.spouts.front().parallelism);
  std::vector<dsps::Values> rows;
  rows.reserve(n);
  double t = 0.0;
  while (rows.size() < n) {
    t += spout->next_delay(t);
    std::optional<dsps::Values> v = spout->next(t);
    if (v) rows.push_back(std::move(*v));
  }
  return rows;
}

const dsps::BoltSpec& bolt_named(const dsps::Topology& topo, const std::string& name) {
  for (const auto& b : topo.bolts) {
    if (b.name == name) return b;
  }
  throw std::invalid_argument("topology has no bolt " + name);
}

}  // namespace

double route_ns_per_tuple(const dsps::Topology& topo, std::size_t workers, std::size_t batch,
                          std::size_t tuples) {
  dsps::Assignment assignment = dsps::interleaved_schedule(topo, workers, 1);
  runtime::TopologyState state(topo, assignment, 0x9000);
  std::vector<dsps::Values> rows = record_spout(topo, batch);
  runtime::TupleBatch b;
  b.stream = dsps::kDefaultStream;
  for (std::size_t i = 0; i < rows.size(); ++i) b.push_row(i + 1, i + 1, 0.0, std::move(rows[i]));

  runtime::BatchRouteScratch scratch;
  std::uint64_t delivered = 0;
  auto deliver = [&delivered](std::size_t, std::vector<std::uint32_t>& picked, bool) {
    delivered += picked.size();
  };
  const std::size_t rounds = std::max<std::size_t>(1, tuples / batch);
  state.route_batch(0, b, scratch, deliver);  // warm the scratch buffers
  delivered = 0;
  std::int64_t t0 = now_ns();
  for (std::size_t r = 0; r < rounds; ++r) state.route_batch(0, b, scratch, deliver);
  std::int64_t t1 = now_ns();
  if (delivered < rounds * batch) throw std::logic_error("route replay delivered too few rows");
  return static_cast<double>(t1 - t0) / static_cast<double>(rounds * batch);
}

double acker_ns_per_tuple(std::size_t batch, std::size_t tuples) {
  dsps::Acker acker(8.0);
  std::uint64_t completed = 0;
  acker.set_on_complete([&completed](std::uint64_t, double, std::size_t) { ++completed; });
  std::vector<std::uint64_t> roots(batch), ids(batch);
  const std::size_t rounds = std::max<std::size_t>(1, tuples / batch);
  std::uint64_t next = 1;
  std::int64_t t0 = now_ns();
  for (std::size_t r = 0; r < rounds; ++r) {
    double t = static_cast<double>(r) * 1e-4;
    for (std::size_t i = 0; i < batch; ++i) {
      roots[i] = next;
      ids[i] = next + (std::uint64_t{1} << 40);
      ++next;
      acker.register_root(roots[i], t, 0);
    }
    acker.add_anchors(roots.data(), ids.data(), batch);
    acker.ack_batch(roots.data(), ids.data(), batch, t + 1e-5);
  }
  std::int64_t t1 = now_ns();
  if (completed != rounds * batch) throw std::logic_error("acker replay lost trees");
  return static_cast<double>(t1 - t0) / static_cast<double>(rounds * batch);
}

double admit_ns_per_batch(const runtime::FlowControlConfig& flow, std::size_t tasks,
                          std::size_t batch, std::size_t batches) {
  runtime::FlowControl fc(flow, tasks);
  std::uint64_t admitted = 0;
  std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < batches; ++i) {
    std::size_t dest = i % tasks;
    std::size_t n = fc.admit_n(dest, batch);
    fc.acquire_n(dest, n);
    admitted += n;
    fc.release_n(dest, n);
  }
  std::int64_t t1 = now_ns();
  if (admitted == 0) throw std::logic_error("admission replay admitted nothing");
  return static_cast<double>(t1 - t0) / static_cast<double>(batches);
}

double window_finalize_us(std::size_t tasks, std::size_t workers, std::size_t acked_per_window,
                          std::size_t windows) {
  repro::common::Pcg32 rng(17, 0x51);
  std::vector<runtime::TaskCounters> task_c(tasks);
  std::vector<runtime::WorkerCounters> worker_c(workers);
  runtime::TopologyCounters topo_c;
  std::int64_t busy = 0;
  double sink = 0.0;
  for (std::size_t w = 0; w < windows; ++w) {
    for (auto& c : task_c) {
      c.executed = 1000;
      c.emitted = 900;
      c.received = 1000;
      c.exec_time = 0.05;
      c.queue_wait = 0.01;
    }
    for (auto& c : worker_c) {
      c.executed = 1000;
      c.service_seconds = 0.05;
      c.exec_time_sum = 0.05;
    }
    topo_c.roots_emitted = topo_c.acked = acked_per_window;
    for (std::size_t i = 0; i < acked_per_window; ++i) {
      double lat = rng.exponential(1000.0);
      topo_c.latency_sum += lat;
      topo_c.latencies.push_back(lat);
    }
    std::int64_t t0 = now_ns();
    for (std::size_t t = 0; t < tasks; ++t) {
      sink += runtime::finalize_task_window(t, "c", t, t % workers, task_c[t], 0).avg_exec_latency;
    }
    for (std::size_t k = 0; k < workers; ++k) {
      sink += runtime::finalize_worker_window(k, 0, 1, worker_c[k], 0, 1.0).avg_proc_time;
    }
    sink += runtime::finalize_topology_window(topo_c, 1.0, 0).p99_complete_latency;
    busy += now_ns() - t0;
  }
  if (!(sink >= 0.0)) throw std::logic_error("finalize replay produced a negative statistic");
  return static_cast<double>(busy) * 1e-3 / static_cast<double>(windows);
}

double execute_ns_per_tuple(const dsps::Topology& topo, std::size_t tuples,
                            std::size_t tuples_per_window) {
  std::vector<dsps::Values> rows = record_spout(topo, tuples);
  const dsps::BoltSpec& counter_spec = bolt_named(topo, "counter");
  const dsps::BoltSpec& aggregator_spec = bolt_named(topo, "aggregator");
  std::unique_ptr<dsps::Bolt> counter = counter_spec.factory();
  std::unique_ptr<dsps::Bolt> aggregator = aggregator_spec.factory();
  counter->prepare(0, counter_spec.parallelism);
  aggregator->prepare(0, aggregator_spec.parallelism);

  CaptureCollector counter_out;
  CaptureCollector aggregator_out;
  dsps::Tuple in;
  std::int64_t busy = 0;
  std::uint64_t executed = 0;
  tuples_per_window = std::max<std::size_t>(1, tuples_per_window);
  for (std::size_t lo = 0; lo < rows.size(); lo += tuples_per_window) {
    std::size_t hi = std::min(rows.size(), lo + tuples_per_window);
    std::int64_t t0 = now_ns();
    for (std::size_t i = lo; i < hi; ++i) {
      in.values = std::move(rows[i]);
      counter->execute(in, counter_out);
    }
    busy += now_ns() - t0;
    executed += hi - lo;
    counter_out.emitted.clear();
    counter->on_window(0.0, counter_out);  // untimed: window work, not per tuple
    t0 = now_ns();
    for (auto& partial : counter_out.emitted) {
      in.values = std::move(partial);
      aggregator->execute(in, aggregator_out);
    }
    busy += now_ns() - t0;
    executed += counter_out.emitted.size();
    aggregator->on_window(0.0, aggregator_out);
  }
  return static_cast<double>(busy) / static_cast<double>(executed);
}

PredictCost replay_predict(control::PerformancePredictor& predictor,
                           const std::vector<dsps::WindowSample>& history,
                           std::size_t workers) {
  predictor.reset_stream();
  PredictCost cost;
  std::int64_t busy = 0;
  double sink = 0.0;
  for (const auto& sample : history) {
    predictor.observe(sample);
    if (predictor.observed_windows() < predictor.min_history()) continue;
    std::int64_t t0 = now_ns();
    for (std::size_t w = 0; w < workers; ++w) sink += predictor.predict_next(w);
    busy += now_ns() - t0;
    cost.calls += workers;
  }
  predictor.reset_stream();
  if (cost.calls == 0) return cost;
  if (sink != sink) throw std::logic_error("predict replay produced NaN");
  cost.us_per_call = static_cast<double>(busy) * 1e-3 / static_cast<double>(cost.calls);
  return cost;
}

}  // namespace perfbench
