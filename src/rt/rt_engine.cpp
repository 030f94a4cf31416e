#include "rt/rt_engine.hpp"

#include <algorithm>
#include <cmath>
#include <thread>
#include <stdexcept>

#include "common/rng.hpp"

namespace repro::rt {

namespace {
constexpr auto kIdleSleep = std::chrono::microseconds(200);
constexpr auto kMetricsPoll = std::chrono::milliseconds(2);

dsps::Assignment make_assignment(const dsps::Topology& topo, const RtConfig& cfg) {
  if (cfg.workers == 0) throw std::invalid_argument("RtEngine: need workers");
  return dsps::interleaved_schedule(topo, cfg.workers, 1);
}

/// Per-thread RNG for drop decisions (each thread gets its own stream).
std::atomic<std::uint64_t> g_drop_stream{0};
common::Pcg32& drop_rng() {
  thread_local common::Pcg32 rng(0xd20bu, g_drop_stream.fetch_add(1, std::memory_order_relaxed));
  return rng;
}

/// Which worker the current thread runs (kNoWorker on non-worker threads).
/// A kBlockUpstream push to a task the pushing thread itself owns must not
/// wait — that thread is also the one that would drain the queue.
constexpr std::size_t kNoWorker = static_cast<std::size_t>(-1);
thread_local std::size_t tl_worker = kNoWorker;

std::chrono::steady_clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds));
}
}  // namespace

/// Per-task collector: emits land in the task's per-stream coalescing
/// buffer on the calling worker thread (routed the moment a batch fills —
/// at batch_size 1, immediately).
class RtEngine::Collector : public runtime::TaskCollectorBase {
 public:
  Collector(RtEngine* engine, std::size_t task)
      : runtime::TaskCollectorBase(&engine->core_, task), engine_(engine) {}

  void emit(dsps::Values values, const std::string& stream) override {
    dsps::Tuple t;
    t.root_id = current_root_;
    t.root_emit_time = current_root_emit_;
    t.stream = stream;
    t.values = std::move(values);
    engine_->buffer_emit(task_, std::move(t));
  }

  sim::SimTime now() const override {
    return engine_->seconds_since_start(std::chrono::steady_clock::now());
  }

  void set_context(std::uint64_t root, double root_emit_seconds) {
    current_root_ = root;
    current_root_emit_ = root_emit_seconds;
  }
  void clear_context() { current_root_ = 0; }

 private:
  RtEngine* engine_;
  std::uint64_t current_root_ = 0;
  double current_root_emit_ = 0.0;  ///< seconds since start()
};

RtEngine::RtEngine(dsps::Topology topology, RtConfig config)
    : topo_(std::move(topology)),
      config_(config),
      assignment_(make_assignment(topo_, config_)),
      core_(topo_, assignment_, 0x9000),
      flow_(config_.flow, core_.task_count()),
      acker_(config.ack_timeout),
      history_(config.history_capacity) {
  if (config_.flow.policy == runtime::OverflowPolicy::kBlockUpstream) {
    if (config_.max_spout_pending == 0) {
      throw std::invalid_argument(
          "RtEngine: kBlockUpstream needs max_spout_pending > 0 — the "
          "pending-tree limit is the end-to-end cap on parked emits");
    }
    if (!(config_.bp_max_wait > 0.0)) {
      throw std::invalid_argument("RtEngine: kBlockUpstream needs bp_max_wait > 0");
    }
    if (config_.batch_size > config_.flow.queue_capacity) {
      throw std::invalid_argument(
          "RtEngine: batch_size must be <= queue_capacity under kBlockUpstream — "
          "batches park whole, so a larger batch could never be admitted");
    }
  }
  if (config_.batch_size == 0) {
    throw std::invalid_argument("RtEngine: batch_size must be >= 1");
  }
  spout_cap_.store(config_.max_spout_pending, std::memory_order_relaxed);
  tasks_.resize(core_.task_count());
  task_worker_.resize(core_.task_count());
  for (std::size_t gid = 0; gid < tasks_.size(); ++gid) {
    tasks_[gid].collector = std::make_unique<Collector>(this, gid);
    tasks_[gid].queue = std::make_unique<TaskQueue>();
    task_worker_[gid].store(core_.task(gid).worker, std::memory_order_relaxed);
  }
  workers_.resize(config_.workers);

  // All acker calls happen under acker_mutex_, so the callbacks (and the
  // per-window topology counters they touch) are serialized by it too.
  acker_.set_on_complete([this](std::uint64_t, double latency, std::size_t) {
    acked_.fetch_add(1, std::memory_order_relaxed);
    latency_ns_sum_.fetch_add(static_cast<std::uint64_t>(latency * 1e9),
                              std::memory_order_relaxed);
    ++w_topo_.acked;
    w_topo_.latency_sum += latency;
    w_topo_.latencies.push_back(latency);
  });
  acker_.set_on_fail([this](std::uint64_t, std::size_t) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    ++w_topo_.failed;
  });

  core_.open_components();
}

RtEngine::~RtEngine() { stop(); }

double RtEngine::seconds_since_start(std::chrono::steady_clock::time_point tp) const {
  return std::chrono::duration<double>(tp - start_time_).count();
}

double RtEngine::now_seconds() const {
  return seconds_since_start(std::chrono::steady_clock::now());
}

void RtEngine::start() {
  if (started_) throw std::logic_error("RtEngine::start called twice");
  started_ = true;
  running_.store(true);
  start_time_ = std::chrono::steady_clock::now();
  auto window = to_duration(config_.window_seconds);
  for (auto& t : tasks_) {
    t.next_spout_poll = start_time_;
    t.next_window = start_time_ + window;
  }
  threads_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
  metrics_thread_ = std::thread([this] { metrics_loop(); });
}

void RtEngine::stop() {
  if (!running_.exchange(false)) {
    // Not running (never started or already stopped): still join leftovers.
  }
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  if (metrics_thread_.joinable()) metrics_thread_.join();
}

void RtEngine::run_for(std::chrono::milliseconds duration) {
  start();
  std::this_thread::sleep_for(duration);
  stop();
}

void RtEngine::worker_loop(std::size_t worker) {
  tl_worker = worker;
  auto window = to_duration(config_.window_seconds);
  // Versioned snapshot of this worker's executor list: crash reassignment
  // and restart reclaim bump assignment_version_, and the loop re-reads
  // its list under the assignment mutex at the next iteration.
  std::vector<std::size_t> my_tasks;
  std::uint64_t seen_version = assignment_version_.load(std::memory_order_acquire) + 1;
  while (running_.load(std::memory_order_relaxed)) {
    std::uint64_t version = assignment_version_.load(std::memory_order_acquire);
    if (version != seen_version) {
      std::lock_guard<std::mutex> lock(assignment_mutex_);
      my_tasks = core_.worker_tasks()[worker];
      seen_version = version;
    }
    if (!workers_[worker].alive.load(std::memory_order_relaxed)) {
      // Crashed: park until restart (the thread itself stays alive).
      std::this_thread::sleep_for(kIdleSleep);
      continue;
    }
    bool did_work = false;
    auto now = std::chrono::steady_clock::now();
    for (std::size_t task_id : my_tasks) {
      TaskRt& task = tasks_[task_id];
      // Execution lease: skip the task while another worker (the previous
      // owner, mid-migration) is still stepping it.
      bool lease_free = false;
      if (!task.lease.compare_exchange_strong(lease_free, true, std::memory_order_acquire)) {
        continue;
      }
      runtime::TaskInfo& info = core_.task(task_id);
      if (info.spout) {
        if (now >= task.next_spout_poll) {
          spout_step(task, task_id, now);
          did_work = true;
        }
      } else {
        did_work |= bolt_step(task, task_id, worker);
        if (now >= task.next_window) {
          task.next_window += window;
          auto* collector = static_cast<Collector*>(task.collector.get());
          collector->clear_context();
          info.bolt->on_window(seconds_since_start(now), *collector);
          flush_emits(task_id);
        }
      }
      task.lease.store(false, std::memory_order_release);
    }
    if (did_work) {
      wakeups_productive_.fetch_add(1, std::memory_order_relaxed);
    } else {
      wakeups_spurious_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(kIdleSleep);
    }
  }
}

void RtEngine::metrics_loop() {
  auto window = to_duration(config_.window_seconds);
  auto next = start_time_ + window;
  while (running_.load(std::memory_order_relaxed)) {
    auto now = std::chrono::steady_clock::now();
    if (now < next) {
      std::this_thread::sleep_for(std::min<std::chrono::steady_clock::duration>(
          next - now, kMetricsPoll));
      continue;
    }
    sample_window(now);
    next += window;
  }
}

void RtEngine::sample_window(std::chrono::steady_clock::time_point now) {
  dsps::WindowSample sample;
  sample.time = seconds_since_start(now);
  sample.window = config_.window_seconds;

  // Placement snapshot: worker task lists mutate under crash/restart, so
  // read them once under the assignment mutex (per-task owners come from
  // the atomic mirror).
  std::vector<std::vector<std::size_t>> worker_tasks;
  {
    std::lock_guard<std::mutex> lock(assignment_mutex_);
    worker_tasks = core_.worker_tasks();
  }

  // Drain per-task window counters; fold per-worker sums from the same
  // deltas before they are consumed by the task finalizer.
  std::vector<runtime::WorkerCounters> worker_acc(config_.workers);
  std::uint64_t win_overflow = 0;
  sample.tasks.reserve(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    TaskRt& t = tasks_[i];
    runtime::TaskCounters c;
    c.executed = t.w_executed.exchange(0, std::memory_order_relaxed);
    c.emitted = t.w_emitted.exchange(0, std::memory_order_relaxed);
    c.received = t.w_received.exchange(0, std::memory_order_relaxed);
    c.dropped = t.w_dropped.exchange(0, std::memory_order_relaxed);
    c.exec_time = static_cast<double>(t.w_exec_ns.exchange(0, std::memory_order_relaxed)) * 1e-9;
    c.queue_wait = static_cast<double>(t.w_wait_ns.exchange(0, std::memory_order_relaxed)) * 1e-9;
    if (flow_.bounded()) {
      c.dropped_overflow = flow_.take_overflow_drops(i);
      c.bp_stall = flow_.take_stall(i);
      win_overflow += c.dropped_overflow;
    }

    const runtime::TaskInfo& info = core_.task(i);
    std::size_t owner = task_worker_[i].load(std::memory_order_relaxed);
    runtime::WorkerCounters& wc = worker_acc[owner];
    wc.executed += c.executed;
    wc.emitted += c.emitted;
    wc.received += c.received;
    wc.exec_time_sum += c.exec_time;
    wc.queue_wait_sum += c.queue_wait;
    wc.service_seconds += c.exec_time;  // busy time == summed execute time
    wc.bp_stall += c.bp_stall;

    std::size_t queue_len;
    {
      std::lock_guard<std::mutex> lock(t.queue->mutex);
      queue_len = t.queue->tuples;
    }
    sample.tasks.push_back(runtime::finalize_task_window(
        i, core_.components()[info.component].name, info.comp_index, owner, c, queue_len));
  }

  sample.workers.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    std::size_t qlen = 0;
    for (std::size_t t : worker_tasks[w]) qlen += sample.tasks[t].queue_len;
    sample.workers.push_back(runtime::finalize_worker_window(
        w, /*machine=*/0, worker_tasks[w].size(), worker_acc[w], qlen, config_.window_seconds));
  }
  // No machine model under the threads runtime, but the forecast features
  // want a machine row for every worker's machine — synthesize machine 0
  // (where every rt worker reports) from the worker windows.
  {
    dsps::MachineWindowStats machine;
    double busy = 0.0;
    for (const auto& ws : sample.workers) busy += ws.cpu_share;
    double cores =
        static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
    machine.machine = 0;
    machine.cpu_util = std::min(1.0, busy / cores);
    machine.load = busy;
    sample.machines.push_back(machine);
  }

  // Scheduler observability: window deltas of the lifetime wakeup
  // counters (metrics thread only, so a plain prev-snapshot suffices).
  dsps::SchedulerWindowStats totals = scheduler_totals();
  sample.scheduler.wakeups_productive = totals.wakeups_productive - sched_prev_.wakeups_productive;
  sample.scheduler.wakeups_spurious = totals.wakeups_spurious - sched_prev_.wakeups_spurious;
  sched_prev_ = totals;

  {
    std::lock_guard<std::mutex> lock(acker_mutex_);
    w_topo_.dropped_overflow += win_overflow;
    acker_.sweep(seconds_since_start(now));
    sample.topology =
        runtime::finalize_topology_window(w_topo_, config_.window_seconds, acker_.pending());
  }

  history_.push(std::move(sample));

  if (control_hook_ && control_interval_ > 0.0) {
    std::size_t every = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(control_interval_ / config_.window_seconds)));
    if (history_.total() % every == 0) control_hook_(*this);
  }
}

void RtEngine::spout_step(TaskRt& task, std::size_t task_id,
                          std::chrono::steady_clock::time_point now) {
  dsps::Spout& spout = *core_.task(task_id).spout;
  double t_now = seconds_since_start(now);
  double delay = spout.next_delay(t_now);

  std::size_t budget = 0;
  const std::size_t cap = spout_cap_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(acker_mutex_);
    std::size_t pending = acker_.pending_for(task_id);
    budget = pending >= cap ? 0 : cap - pending;
  }
  budget = std::min(budget, config_.batch_size);
  if (budget == 0) {
    task.next_spout_poll = now + to_duration(std::max(delay, 1e-6));
    return;
  }

  // Pull up to a batch of tuples in one step; each extra pull consumes its
  // own inter-arrival delay so the configured spout rate is preserved.
  thread_local runtime::TupleBatch batch;
  batch.clear();
  batch.stream = dsps::kDefaultStream;
  while (batch.size() < budget) {
    if (!batch.empty()) delay += spout.next_delay(t_now);
    std::optional<dsps::Values> vals = spout.next(t_now);
    if (!vals.has_value()) break;
    std::uint64_t root = next_tuple_id_.fetch_add(1, std::memory_order_relaxed);
    batch.push_row(0, root, t_now, std::move(*vals));
  }
  task.next_spout_poll = now + to_duration(std::max(delay, 1e-6));
  if (batch.empty()) return;

  {
    std::lock_guard<std::mutex> lock(acker_mutex_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      acker_.register_root(batch.root_ids[i], t_now, task_id);
    }
    w_topo_.roots_emitted += batch.size();
  }
  roots_emitted_.fetch_add(batch.size(), std::memory_order_relaxed);
  route_emit_batch(task_id, batch);
  {
    std::lock_guard<std::mutex> lock(acker_mutex_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      acker_.discard_if_unanchored(batch.root_ids[i], t_now);
    }
    acker_.sweep(t_now);
  }
}

bool RtEngine::bolt_step(TaskRt& task, std::size_t task_id, std::size_t worker) {
  QueuedBatch qb;
  {
    std::lock_guard<std::mutex> lock(task.queue->mutex);
    if (task.queue->items.empty()) return false;
    qb = std::move(task.queue->items.front());
    task.queue->items.pop_front();
    task.queue->tuples -= qb.batch.size();
  }
  const std::size_t n = qb.batch.size();
  if (flow_.bounded()) {
    // The pop freed a whole batch of slots: release the credits and wake
    // blocked upstream emitters (all of them when more than one slot
    // opened — any parked batch that now fits may proceed).
    flow_.release_n(task_id, n);
    if (n == 1) {
      task.queue->cv.notify_one();
    } else {
      task.queue->cv.notify_all();
    }
  }
  auto begin = std::chrono::steady_clock::now();
  task.w_wait_ns.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(begin - qb.enqueued).count()) *
          n,
      std::memory_order_relaxed);

  auto* collector = static_cast<Collector*>(task.collector.get());
  dsps::Bolt* bolt = core_.task(task_id).bolt.get();
  thread_local dsps::Tuple probe;
  probe.stream = qb.batch.stream;
  for (std::size_t i = 0; i < n; ++i) {
    collector->set_context(qb.batch.root_ids[i], qb.batch.root_emit_times[i]);
    qb.batch.borrow_row(i, probe);
    bolt->execute(probe, *collector);
  }
  collector->clear_context();
  // Route out everything the executes buffered BEFORE acking the inputs:
  // a child tuple must anchor before its parent's ack, or a root could
  // complete while its descendants are still in a coalescing buffer.
  flush_emits(task_id);

  auto done = std::chrono::steady_clock::now();
  double factor = workers_[worker].slowdown.load(std::memory_order_relaxed);
  if (factor > 1.0) {
    // Injected slowdown: stretch this batch's execution by busy-waiting,
    // so the padding shows up in avg_proc_time exactly like a degraded
    // host.
    auto deadline =
        done + to_duration(std::chrono::duration<double>(done - begin).count() * (factor - 1.0));
    while (std::chrono::steady_clock::now() < deadline &&
           running_.load(std::memory_order_relaxed)) {
    }
    done = std::chrono::steady_clock::now();
  }
  task.w_exec_ns.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(done - begin).count()),
      std::memory_order_relaxed);
  task.executed.fetch_add(n, std::memory_order_relaxed);
  task.w_executed.fetch_add(n, std::memory_order_relaxed);

  bool any_anchored = false;
  for (std::size_t i = 0; i < n; ++i) {
    any_anchored = any_anchored || qb.batch.root_ids[i] != 0;
  }
  if (any_anchored) {
    std::lock_guard<std::mutex> lock(acker_mutex_);
    acker_.ack_batch(qb.batch.root_ids.data(), qb.batch.ids.data(), n, seconds_since_start(done));
  }
  return true;
}

void RtEngine::buffer_emit(std::size_t task, dsps::Tuple&& t) {
  runtime::TupleBatch* full = tasks_[task].emits.append(std::move(t), config_.batch_size);
  if (full != nullptr) {
    route_emit_batch(task, *full);
    full->clear();
  }
}

void RtEngine::flush_emits(std::size_t task) {
  tasks_[task].emits.flush([&](runtime::TupleBatch& b) { route_emit_batch(task, b); });
}

void RtEngine::route_emit_batch(std::size_t src_task, runtime::TupleBatch& batch) {
  tasks_[src_task].w_emitted.fetch_add(batch.size(), std::memory_order_relaxed);
  thread_local runtime::BatchRouteScratch scratch;
  core_.route_batch(
      src_task, batch, scratch,
      [&](std::size_t dest, const std::vector<std::uint32_t>& rows, bool may_move) {
        // Fresh per-destination batch (it crosses threads, so no pool).
        runtime::TupleBatch copy;
        copy.stream = batch.stream;
        if (may_move) {
          copy.steal_rows(batch, rows);  // each row consumed once: no payload copy
        } else {
          copy.append_rows(batch, rows);
        }
        const std::size_t m = copy.size();
        std::uint64_t base = next_tuple_id_.fetch_add(m, std::memory_order_relaxed);
        bool any_anchored = false;
        for (std::size_t k = 0; k < m; ++k) {
          copy.ids[k] = base + k;
          any_anchored = any_anchored || copy.root_ids[k] != 0;
        }
        if (any_anchored) {
          // One acker-lock acquisition anchors the whole batch.
          std::lock_guard<std::mutex> lock(acker_mutex_);
          acker_.add_anchors(copy.root_ids.data(), copy.ids.data(), m);
        }
        enqueue(src_task, dest, std::move(copy));
      });
}

void RtEngine::enqueue(std::size_t src_task, std::size_t dest, runtime::TupleBatch&& b) {
  TaskRt& task = tasks_[dest];
  task.w_received.fetch_add(b.size(), std::memory_order_relaxed);
  double p =
      workers_[task_worker_[dest].load(std::memory_order_relaxed)].drop_prob.load(
          std::memory_order_relaxed);
  if (p > 0.0) {
    // Injected loss filters per row; survivors compact in place. Dropped
    // rows are never acked: their roots fail at the timeout sweep.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (drop_rng().bernoulli(p)) continue;
      b.move_row(i, kept);
      ++kept;
    }
    std::size_t dropped = b.size() - kept;
    if (dropped > 0) {
      task.w_dropped.fetch_add(dropped, std::memory_order_relaxed);
      b.truncate(kept);
    }
    if (b.empty()) return;
  }

  QueuedBatch qb;
  qb.batch = std::move(b);
  qb.enqueued = std::chrono::steady_clock::now();
  const std::size_t m = qb.batch.size();
  TaskQueue& q = *task.queue;
  // Destination-side re-coalescing (batch > 1 only; q.mutex must be held):
  // routing fans each batch into per-destination fragments, so without a
  // merge the effective batch size decays by the fan-out at every hop.
  // Fold the fragment into the queue tail when it fits; the tail keeps its
  // own enqueue timestamp (queue-wait measured from the first fragment).
  // Credit/capacity accounting is unchanged — callers still acquire per
  // incoming row and bump q.tuples by the same amount either way.
  auto push_or_merge = [&](QueuedBatch&& in) {
    if (config_.batch_size > 1 && !q.items.empty()) {
      runtime::TupleBatch& tail = q.items.back().batch;
      if (tail.stream == in.batch.stream &&
          tail.size() + in.batch.size() <= config_.batch_size) {
        tail.append_all(std::move(in.batch));
        return;
      }
    }
    q.items.push_back(std::move(in));
  };
  if (!flow_.bounded()) {
    // Historical soft capacity: pushes never block (a producer and its
    // consumer can share a worker thread, so a hard wait could
    // self-deadlock). End-to-end backpressure comes from the spout
    // pending-tree limit; the high-water mark is tracked for diagnostics.
    std::lock_guard<std::mutex> lock(q.mutex);
    push_or_merge(std::move(qb));
    q.tuples += m;
    q.high_water = std::max(q.high_water, q.tuples);
    return;
  }

  const std::size_t cap = flow_.config().queue_capacity;
  std::unique_lock<std::mutex> lock(q.mutex);
  if (flow_.config().policy == runtime::OverflowPolicy::kDropNewest) {
    // Admit as many leading rows as fit; shed the tail with exact
    // per-tuple accounting. Shed rows stay anchored, so their roots fail
    // at the ack-timeout sweep like any other loss.
    const std::size_t free = cap > q.tuples ? cap - q.tuples : 0;
    if (free == 0) {
      lock.unlock();
      flow_.count_overflow_drops(dest, m);
      return;
    }
    const std::size_t shed = m > free ? m - free : 0;
    if (shed > 0) qb.batch.truncate(free);
    flow_.acquire_n(dest, qb.batch.size());
    q.tuples += qb.batch.size();
    q.high_water = std::max(q.high_water, q.tuples);
    push_or_merge(std::move(qb));
    lock.unlock();
    if (shed > 0) flow_.count_overflow_drops(dest, shed);
    return;
  }
  // kBlockUpstream: wait for whole-batch credit — batches never split.
  auto wait_started = std::chrono::steady_clock::time_point{};
  auto deadline = std::chrono::steady_clock::time_point{};
  while (q.tuples + m > cap) {
    // Never wait on a queue this thread itself drains (the destination
    // is owned by the pushing worker), on a dead destination's queue,
    // or during shutdown: push over capacity instead — a soft overflow
    // that preserves liveness and is bounded by max_spout_pending.
    std::size_t owner = task_worker_[dest].load(std::memory_order_relaxed);
    if (owner == tl_worker || !workers_[owner].alive.load(std::memory_order_relaxed) ||
        !running_.load(std::memory_order_relaxed)) {
      break;
    }
    auto now = std::chrono::steady_clock::now();
    if (wait_started == std::chrono::steady_clock::time_point{}) {
      wait_started = now;
      deadline = now + to_duration(config_.bp_max_wait);
    } else if (now >= deadline) {
      // Escape valve for worker-thread wait cycles (A full toward B
      // while B is full toward A): capacity is exceeded transiently
      // rather than deadlocking.
      break;
    }
    q.cv.wait_until(lock, std::min(deadline, now + std::chrono::milliseconds(20)));
  }
  if (wait_started != std::chrono::steady_clock::time_point{}) {
    flow_.add_stall(src_task, std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                            wait_started)
                                  .count());
    qb.enqueued = std::chrono::steady_clock::now();  // waited: restart queue-wait clock
  }
  flow_.acquire_n(dest, m);
  push_or_merge(std::move(qb));
  q.tuples += m;
  q.high_water = std::max(q.high_water, q.tuples);
}

RtTotals RtEngine::totals() const {
  RtTotals t;
  t.roots_emitted = roots_emitted_.load();
  t.acked = acked_.load();
  t.failed = failed_.load();
  for (const auto& task : tasks_) t.executed += task.executed.load();
  t.lost = lost_.load();
  t.dropped_overflow = flow_.total_dropped_overflow();
  t.worker_crashes = crashes_.load();
  t.worker_restarts = restarts_.load();
  t.worker_retires = retires_.load();
  t.worker_adds = adds_.load();
  t.task_migrations = migrations_.load();
  t.wakeups_productive = wakeups_productive_.load();
  t.wakeups_spurious = wakeups_spurious_.load();
  return t;
}

dsps::SchedulerWindowStats RtEngine::scheduler_totals() const {
  dsps::SchedulerWindowStats s;
  s.wakeups_productive = wakeups_productive_.load(std::memory_order_relaxed);
  s.wakeups_spurious = wakeups_spurious_.load(std::memory_order_relaxed);
  return s;
}

double RtEngine::mean_complete_latency() const {
  std::uint64_t n = acked_.load();
  if (n == 0) return 0.0;
  return static_cast<double>(latency_ns_sum_.load()) / static_cast<double>(n) * 1e-9;
}

std::vector<std::uint64_t> RtEngine::executed_per_task() const {
  std::vector<std::uint64_t> out;
  out.reserve(tasks_.size());
  for (const auto& t : tasks_) out.push_back(t.executed.load());
  return out;
}

std::pair<std::size_t, std::size_t> RtEngine::tasks_of(const std::string& component) const {
  return core_.tasks_of(component);
}

std::size_t RtEngine::worker_of_task(std::size_t global_task) const {
  return task_worker_.at(global_task).load(std::memory_order_relaxed);
}

std::vector<std::size_t> RtEngine::workers_of(const std::string& component) const {
  return core_.workers_of(component);
}

std::size_t RtEngine::queue_length_of_task(std::size_t global_task) const {
  TaskQueue& q = *tasks_.at(global_task).queue;
  std::lock_guard<std::mutex> lock(q.mutex);
  return q.tuples;
}

std::shared_ptr<dsps::DynamicRatio> RtEngine::dynamic_ratio(const std::string& from,
                                                            const std::string& to) const {
  return runtime::find_dynamic_ratio(topo_, from, to);
}

std::vector<runtime::DynamicEdge> RtEngine::dynamic_edges() const {
  return runtime::list_dynamic_edges(topo_);
}

void RtEngine::set_control_hook(double interval, runtime::ControlSurface::ControlHook hook) {
  if (started_) throw std::logic_error("RtEngine::set_control_hook: set before start()");
  control_interval_ = interval;
  control_hook_ = std::move(hook);
}

void RtEngine::set_max_spout_pending(std::size_t cap) {
  if (config_.flow.policy == runtime::OverflowPolicy::kBlockUpstream && cap == 0) {
    throw std::invalid_argument(
        "RtEngine::set_max_spout_pending: kBlockUpstream needs a cap > 0 — "
        "the pending-tree limit is the end-to-end cap on parked emits");
  }
  spout_cap_.store(cap, std::memory_order_relaxed);
}

void RtEngine::set_worker_slowdown(std::size_t worker, double factor) {
  workers_.at(worker).slowdown.store(std::max(1.0, factor), std::memory_order_relaxed);
}

void RtEngine::set_worker_drop_prob(std::size_t worker, double probability) {
  workers_.at(worker).drop_prob.store(std::clamp(probability, 0.0, 1.0),
                                      std::memory_order_relaxed);
}

double RtEngine::worker_slowdown(std::size_t worker) const {
  return workers_.at(worker).slowdown.load(std::memory_order_relaxed);
}

double RtEngine::worker_drop_prob(std::size_t worker) const {
  return workers_.at(worker).drop_prob.load(std::memory_order_relaxed);
}

void RtEngine::crash_worker(std::size_t worker) {
  std::lock_guard<std::mutex> lock(assignment_mutex_);
  WorkerRt& w = workers_.at(worker);
  if (!w.alive.load(std::memory_order_relaxed)) return;
  w.alive.store(false, std::memory_order_relaxed);
  w.slowdown.store(1.0, std::memory_order_relaxed);
  w.drop_prob.store(0.0, std::memory_order_relaxed);
  crashes_.fetch_add(1, std::memory_order_relaxed);
  // The process dies with everything it queued (those roots fail at the
  // ack timeout). A tuple mid-execute on the worker thread completes —
  // documented tolerance vs the simulator's instant kill.
  for (std::size_t t : core_.worker_tasks()[worker]) {
    TaskQueue& q = *tasks_[t].queue;
    std::size_t wiped;
    {
      std::lock_guard<std::mutex> qlock(q.mutex);
      wiped = q.tuples;
      lost_.fetch_add(wiped, std::memory_order_relaxed);
      q.items.clear();
      q.tuples = 0;
    }
    if (flow_.bounded()) {
      // The dead queue's credits come back; wake every blocked emitter
      // (they re-check and see a dead owner or free capacity).
      flow_.release_n(t, wiped);
      q.cv.notify_all();
    }
  }
  // Reassignment candidates: alive AND active — a retired worker must not
  // pick up a dead one's executors.
  std::vector<bool> alive(workers_.size(), false);
  bool any_alive = false;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    alive[i] = workers_[i].alive.load(std::memory_order_relaxed) &&
               workers_[i].active.load(std::memory_order_relaxed);
    any_alive = any_alive || alive[i];
  }
  if (any_alive) {
    // Same deterministic supervisor policy as the simulator, so the
    // recovered routing tables agree across backends.
    for (const dsps::TaskMove& m :
         dsps::plan_crash_reassignment(core_.worker_tasks(), worker, alive)) {
      core_.reassign_task(m.task, m.to_worker);
      task_worker_[m.task].store(m.to_worker, std::memory_order_relaxed);
    }
  }
  // else: total outage — executors stay parked with their dead worker.
  assignment_version_.fetch_add(1, std::memory_order_release);
}

void RtEngine::restart_worker(std::size_t worker) {
  std::lock_guard<std::mutex> lock(assignment_mutex_);
  WorkerRt& w = workers_.at(worker);
  if (w.alive.load(std::memory_order_relaxed)) return;
  w.alive.store(true, std::memory_order_relaxed);
  restarts_.fetch_add(1, std::memory_order_relaxed);
  if (!w.active.load(std::memory_order_relaxed)) {
    // Retired: rejoin the pool but host nothing until add_worker().
    assignment_version_.fetch_add(1, std::memory_order_release);
    return;
  }
  // Reclaim the originally assigned executors (graceful migration: queues
  // live with the task; the execution lease keeps old and new owner from
  // stepping a task concurrently during the handover).
  for (std::size_t t = 0; t < core_.task_count(); ++t) {
    if (assignment_.task_to_worker[t] == worker && core_.task(t).worker != worker) {
      core_.reassign_task(t, worker);
      task_worker_[t].store(worker, std::memory_order_relaxed);
    }
  }
  assignment_version_.fetch_add(1, std::memory_order_release);
}

bool RtEngine::worker_alive(std::size_t worker) const {
  return workers_.at(worker).alive.load(std::memory_order_relaxed);
}

bool RtEngine::worker_active(std::size_t worker) const {
  return workers_.at(worker).active.load(std::memory_order_relaxed);
}

std::vector<std::vector<std::size_t>> RtEngine::worker_task_snapshot() const {
  std::lock_guard<std::mutex> lock(assignment_mutex_);
  return core_.worker_tasks();
}

void RtEngine::reassign_task_locked(std::size_t task, std::size_t to_worker) {
  core_.reassign_task(task, to_worker);
  task_worker_[task].store(to_worker, std::memory_order_relaxed);
  migrations_.fetch_add(1, std::memory_order_relaxed);
}

void RtEngine::add_worker(std::size_t worker) {
  std::lock_guard<std::mutex> lock(assignment_mutex_);
  WorkerRt& w = workers_.at(worker);
  if (w.active.load(std::memory_order_relaxed)) return;
  w.active.store(true, std::memory_order_relaxed);
  adds_.fetch_add(1, std::memory_order_relaxed);
  assignment_version_.fetch_add(1, std::memory_order_release);
}

void RtEngine::retire_worker(std::size_t worker) {
  std::lock_guard<std::mutex> lock(assignment_mutex_);
  WorkerRt& w = workers_.at(worker);
  if (!w.active.load(std::memory_order_relaxed)) return;
  w.active.store(false, std::memory_order_relaxed);
  if (w.alive.load(std::memory_order_relaxed) && !core_.worker_tasks()[worker].empty()) {
    std::vector<bool> hosts(workers_.size(), false);
    bool any_host = false;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      hosts[i] = workers_[i].alive.load(std::memory_order_relaxed) &&
                 workers_[i].active.load(std::memory_order_relaxed);
      any_host = any_host || hosts[i];
    }
    if (!any_host) {
      w.active.store(true, std::memory_order_relaxed);  // fail closed
      throw std::invalid_argument("retire_worker: no active worker left to host worker " +
                                  std::to_string(worker) + "'s executors");
    }
    // Graceful drain via the shared deterministic policy; queued tuples
    // travel with each task and the lease serializes the handover.
    for (const dsps::TaskMove& m :
         dsps::plan_crash_reassignment(core_.worker_tasks(), worker, hosts)) {
      reassign_task_locked(m.task, m.to_worker);
    }
  }
  retires_.fetch_add(1, std::memory_order_relaxed);
  assignment_version_.fetch_add(1, std::memory_order_release);
}

void RtEngine::migrate_tasks(const std::vector<dsps::TaskMove>& moves) {
  std::lock_guard<std::mutex> lock(assignment_mutex_);
  // Fail closed: validate the whole batch before touching placement.
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const dsps::TaskMove& m = moves[i];
    const std::string field = "migrate_tasks: moves[" + std::to_string(i) + "]";
    if (m.task >= core_.task_count()) {
      throw std::invalid_argument(field + ".task: no task " + std::to_string(m.task));
    }
    if (m.to_worker >= workers_.size()) {
      throw std::invalid_argument(field + ".to_worker: no worker " +
                                  std::to_string(m.to_worker));
    }
    if (!workers_[m.to_worker].alive.load(std::memory_order_relaxed)) {
      throw std::invalid_argument(field + ".to_worker: worker " + std::to_string(m.to_worker) +
                                  " is dead");
    }
    if (!workers_[m.to_worker].active.load(std::memory_order_relaxed)) {
      throw std::invalid_argument(field + ".to_worker: worker " + std::to_string(m.to_worker) +
                                  " is retired");
    }
  }
  bool moved = false;
  for (const dsps::TaskMove& m : moves) {
    if (core_.task(m.task).worker == m.to_worker) continue;
    reassign_task_locked(m.task, m.to_worker);
    moved = true;
  }
  if (moved) assignment_version_.fetch_add(1, std::memory_order_release);
}

std::string RtEngine::placement_audit() const {
  std::lock_guard<std::mutex> lock(assignment_mutex_);
  std::string audit = core_.placement_audit();
  if (!audit.empty()) return audit;
  bool any_alive = false;
  bool any_active = false;
  for (const auto& w : workers_) {
    bool a = w.alive.load(std::memory_order_relaxed);
    any_alive = any_alive || a;
    any_active = any_active || (a && w.active.load(std::memory_order_relaxed));
  }
  for (std::size_t t = 0; t < core_.task_count(); ++t) {
    std::size_t owner = core_.task(t).worker;
    if (task_worker_[t].load(std::memory_order_relaxed) != owner) {
      return "task " + std::to_string(t) + "'s placement mirror is stale";
    }
    if (any_alive && !workers_[owner].alive.load(std::memory_order_relaxed)) {
      return "task " + std::to_string(t) + " is placed on dead worker " + std::to_string(owner);
    }
    if (any_active && workers_[owner].alive.load(std::memory_order_relaxed) &&
        !workers_[owner].active.load(std::memory_order_relaxed)) {
      return "task " + std::to_string(t) + " is placed on retired worker " +
             std::to_string(owner);
    }
  }
  return {};
}

}  // namespace repro::rt
