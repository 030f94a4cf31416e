// M1 micro-benchmarks: per-tuple grouping overhead (the key claim: dynamic
// grouping costs about the same as shuffle), event-queue throughput, acker
// operations, window finalize, and whole-engine simulation rate.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "dsps/acker.hpp"
#include "dsps/engine.hpp"
#include "dsps/grouping.hpp"
#include "runtime/window_stats.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace repro;

dsps::Tuple url_tuple() {
  dsps::Tuple t;
  t.values = {std::string("url-42")};
  return t;
}

void BM_ShuffleGroupingSelect(benchmark::State& state) {
  dsps::ShuffleGrouping g(8, 1);
  dsps::Tuple t = url_tuple();
  std::vector<std::size_t> out;
  for (auto _ : state) {
    g.select(t, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShuffleGroupingSelect);

void BM_FieldsGroupingSelect(benchmark::State& state) {
  dsps::FieldsGrouping g(8, {0});
  dsps::Tuple t = url_tuple();
  std::vector<std::size_t> out;
  for (auto _ : state) {
    g.select(t, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FieldsGroupingSelect);

void BM_DynamicGroupingSelect(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  auto ratio = std::make_shared<dsps::DynamicRatio>(n);
  std::vector<double> weights(n);
  for (std::size_t i = 0; i < n; ++i) weights[i] = static_cast<double>(i + 1);
  ratio->set_ratios(weights);
  dsps::DynamicGrouping g(ratio);
  dsps::Tuple t = url_tuple();
  std::vector<std::size_t> out;
  for (auto _ : state) {
    g.select(t, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DynamicGroupingSelect)->Arg(4)->Arg(16)->Arg(64);

void BM_PartialKeyGroupingSelect(benchmark::State& state) {
  dsps::PartialKeyGrouping g(8, {0});
  dsps::Tuple t = url_tuple();
  std::vector<std::size_t> out;
  for (auto _ : state) {
    g.select(t, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PartialKeyGroupingSelect);

void BM_DynamicRatioUpdate(benchmark::State& state) {
  auto ratio = std::make_shared<dsps::DynamicRatio>(8);
  std::vector<double> w(8, 1.0);
  double bump = 0.0;
  for (auto _ : state) {
    w[0] = 1.0 + (bump += 0.001);
    ratio->set_ratios(w);
    benchmark::DoNotOptimize(ratio->version());
  }
}
BENCHMARK(BM_DynamicRatioUpdate);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < 1000; ++i) {
      q.schedule_at(static_cast<double>(i % 100), [] {});
    }
    q.run_until(1000.0);
    benchmark::DoNotOptimize(q.executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_AckerTupleTree(benchmark::State& state) {
  dsps::Acker acker(60.0);
  std::uint64_t root = 1;
  for (auto _ : state) {
    acker.register_root(root, 0.0, 0);
    acker.add_anchor(root, root + 1);
    acker.add_anchor(root, root + 2);
    acker.ack_tuple(root, root + 1, 0.1);
    acker.ack_tuple(root, root + 2, 0.2);
    benchmark::DoNotOptimize(acker.pending());
    root += 3;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AckerTupleTree);

/// The async spout/bolt shape at a steady `range(0)` pending roots: per
/// 64-row batch, register and anchor 64 new roots, ack_batch the 64 oldest
/// (completing them) and sweep once, as AsyncEngine::spout_step does.
/// Nothing times out, so the sweep's early-out is what is measured.
void BM_AckerChurn(benchmark::State& state) {
  constexpr std::size_t kBatch = 64;
  constexpr std::uint64_t kIdOffset = std::uint64_t{1} << 40;
  dsps::Acker acker(30.0);
  std::uint64_t completed = 0;
  acker.set_on_complete([&completed](std::uint64_t, double, std::size_t) { ++completed; });
  std::uint64_t next = 1;
  double t = 0.0;
  std::vector<std::uint64_t> roots(kBatch), ids(kBatch);
  auto register_batch = [&] {
    for (std::size_t i = 0; i < kBatch; ++i) {
      roots[i] = next++;
      ids[i] = roots[i] + kIdOffset;
      acker.register_root(roots[i], t, 0);
    }
    acker.add_anchors(roots.data(), ids.data(), kBatch);
  };
  while (acker.pending() < static_cast<std::size_t>(state.range(0))) register_batch();
  const std::uint64_t pending = acker.pending();
  for (auto _ : state) {
    t += 1e-5;
    register_batch();
    for (std::size_t i = 0; i < kBatch; ++i) {
      roots[i] = next - pending - kBatch + i;
      ids[i] = roots[i] + kIdOffset;
    }
    acker.ack_batch(roots.data(), ids.data(), kBatch, t);
    acker.sweep(t);
    benchmark::DoNotOptimize(completed);
  }
  if (acker.pending() != pending) state.SkipWithError("pending roots drifted");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_AckerChurn)->Arg(4096);

/// One topology window's finalize at `range(0)` acked roots: the p99 pick
/// over the window's latency vector (refilled, untimed, each iteration).
void BM_FinalizeTopologyWindow(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Pcg32 rng(17, 0x51);
  std::vector<double> latencies(n);
  for (double& lat : latencies) lat = rng.exponential(1000.0);
  runtime::TopologyCounters c;
  for (auto _ : state) {
    state.PauseTiming();
    c.latencies.assign(latencies.begin(), latencies.end());
    c.acked = n;
    state.ResumeTiming();
    dsps::TopologyWindowStats s = runtime::finalize_topology_window(c, 0.1, 0);
    benchmark::DoNotOptimize(s.p99_complete_latency);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FinalizeTopologyWindow)->Arg(225000)->Unit(benchmark::kMicrosecond);

/// Whole-engine throughput: simulated tuples per wall second.
void BM_EngineSimulationRate(benchmark::State& state) {
  class FastSpout : public dsps::Spout {
   public:
    double next_delay(sim::SimTime) override { return 1.0 / 2000.0; }
    std::optional<dsps::Values> next(sim::SimTime) override {
      return dsps::Values{static_cast<std::int64_t>(n_++)};
    }

   private:
    std::int64_t n_ = 0;
  };
  class CheapBolt : public dsps::Bolt {
   public:
    void execute(const dsps::Tuple&, dsps::OutputCollector&) override {}
    double tuple_cost(const dsps::Tuple&) const override { return 50e-6; }
  };

  for (auto _ : state) {
    dsps::TopologyBuilder b("bench");
    b.set_spout("s", [] { return std::make_unique<FastSpout>(); });
    b.set_bolt("w", [] { return std::make_unique<CheapBolt>(); }, 4).shuffle_grouping("s");
    dsps::ClusterConfig cfg;
    cfg.machines = 2;
    cfg.cores_per_machine = 2;
    cfg.workers_per_machine = 2;
    dsps::Engine engine(b.build(), cfg);
    engine.run_for(5.0);
    benchmark::DoNotOptimize(engine.totals().acked);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(engine.totals().roots_emitted));
  }
}
BENCHMARK(BM_EngineSimulationRate)->Unit(benchmark::kMillisecond);

}  // namespace
