#pragma once
// Offline layer replays for the traced run: each times one module's public
// call on the workload's own topology, batch size and data, from outside
// the program.
#include <cstddef>
#include <vector>

#include "control/predictor.hpp"
#include "dsps/metrics.hpp"
#include "dsps/topology.hpp"
#include "runtime/flow_control.hpp"

namespace perfbench {

// The program's modules, by their short names.
namespace control = repro::control;
namespace dsps = repro::dsps;
namespace runtime = repro::runtime;
namespace sim = repro::sim;

/// runtime::TopologyState::route_batch from the first spout task, over
/// batches of `batch` rows drawn from the topology's own spout.
double route_ns_per_tuple(const dsps::Topology& topo, std::size_t workers, std::size_t batch,
                          std::size_t tuples);

/// dsps::Acker register + anchor + ack of one-hop trees, `batch` at a time.
double acker_ns_per_tuple(std::size_t batch, std::size_t tuples);

/// runtime::FlowControl admit_n + acquire_n + release_n of one batch.
double admit_ns_per_batch(const runtime::FlowControlConfig& flow, std::size_t tasks,
                          std::size_t batch, std::size_t batches);

/// One window of runtime::finalize_* over `tasks` tasks, `workers` workers
/// and `acked_per_window` root latencies.
double window_finalize_us(std::size_t tasks, std::size_t workers, std::size_t acked_per_window,
                          std::size_t windows);

/// The topology's bolts' execute() on tuples recorded from its spout: the
/// "counter" bolt on every tuple, its window partials through the
/// "aggregator". Nanoseconds per executed tuple of both.
double execute_ns_per_tuple(const dsps::Topology& topo, std::size_t tuples,
                            std::size_t tuples_per_window);

/// predict_next for every worker after each window of `history`, through
/// the streaming path (observe + predict_next). Microseconds per call.
struct PredictCost {
  double us_per_call = 0.0;
  std::size_t calls = 0;
};
PredictCost replay_predict(control::PerformancePredictor& predictor,
                           const std::vector<dsps::WindowSample>& history,
                           std::size_t workers);

}  // namespace perfbench
