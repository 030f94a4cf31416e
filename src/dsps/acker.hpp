#pragma once
// Storm's XOR-based tuple-tree acker: each root tracks a 64-bit ack value;
// anchoring XORs a tuple id in, acking XORs it out; zero means the whole
// tree is processed. Complete latency is measured here.
//
// The acker also owns the at-least-once replay hook: the engine can stash
// a root's values (`stash_replay`), and when the timeout sweep fails that
// root the values are handed back through the replay callback so the
// engine can re-emit them under a fresh root id. This is what makes the
// delivery guarantee hold under worker crashes — lost tuples surface as
// timeouts, and timeouts drive replay.
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "dsps/tuple.hpp"
#include "sim/clock.hpp"

namespace repro::dsps {

class Acker {
 public:
  using CompleteFn = std::function<void(std::uint64_t root, double latency, std::size_t spout_task)>;
  using FailFn = std::function<void(std::uint64_t root, std::size_t spout_task)>;
  /// Fired by sweep() for failed roots with stashed values. `attempt` is
  /// the attempt number of the FAILED emission (0 = the original).
  using ReplayFn =
      std::function<void(std::uint64_t root, std::size_t spout_task, Values&& values,
                         std::size_t attempt)>;

  explicit Acker(double timeout) : timeout_(timeout) {}

  void set_on_complete(CompleteFn fn) { on_complete_ = std::move(fn); }
  void set_on_fail(FailFn fn) { on_fail_ = std::move(fn); }
  void set_on_replay(ReplayFn fn) { on_replay_ = std::move(fn); }

  /// Start tracking `root`. Root 0 means "unanchored" to every engine (their
  /// tuple ids start at 1) and is ignored, as is a root already pending.
  void register_root(std::uint64_t root, sim::SimTime emit_time, std::size_t spout_task);
  /// Keep a copy of the root's values for timeout-driven replay. Call
  /// right after register_root; `attempt` counts prior emissions of the
  /// same logical tuple (0 for the original).
  void stash_replay(std::uint64_t root, Values values, std::size_t attempt);
  /// XOR a delivered tuple id into the root's ack value.
  void add_anchor(std::uint64_t root, std::uint64_t tuple_id);
  /// XOR a processed tuple id out; fires completion when the value reaches 0.
  void ack_tuple(std::uint64_t root, std::uint64_t tuple_id, sim::SimTime now);

  // --- batched data path -------------------------------------------------
  // Column-at-a-time variants over parallel root/id arrays (a TupleBatch's
  // root_ids/ids columns). Semantically exactly n per-row calls in row
  // order — completions fire at the same row they would per-tuple — but
  // consecutive same-root runs reuse one table lookup, which is the common
  // layout after per-destination coalescing. Rows with root 0 (unanchored)
  // are skipped, mirroring the engines' per-tuple guard.
  void add_anchors(const std::uint64_t* roots, const std::uint64_t* ids, std::size_t n);
  void ack_batch(const std::uint64_t* roots, const std::uint64_t* ids, std::size_t n,
                 sim::SimTime now);

  /// Complete a root that never received an anchor (no subscribers):
  /// nothing downstream will ever ack it, so it is done by definition.
  void discard_if_unanchored(std::uint64_t root, sim::SimTime now);

  /// Fail all roots older than the timeout (in ascending root-id order, so
  /// replay re-emission is deterministic). Call periodically: while no
  /// root can have expired (tracked by a lower bound on the pending emit
  /// times) it returns without scanning the table.
  void sweep(sim::SimTime now);

  std::size_t pending() const { return size_; }
  /// In-flight roots of one spout task. O(1): served from per-spout
  /// counters maintained at every register/complete/discard/sweep, NOT by
  /// scanning the root table — this sits on the spout-throttling hot path
  /// (max_spout_pending) and, under flow control, gates the credit-based
  /// backpressure release.
  std::size_t pending_for(std::size_t spout_task) const;
  /// Consistency audit of the cached per-spout counters and the root
  /// table's size against a full recount, and of every root's reachability
  /// from its home slot (tests and debugging). Returns "" when all hold,
  /// else a diagnostic naming the first mismatch.
  std::string pending_audit() const;
  double timeout() const { return timeout_; }

  /// Multiplier of the root table's hash: a root's home slot in a table of
  /// 2^b slots is the top b bits of `root * kHashMul` (mod 2^64). Public so
  /// tests can construct colliding roots.
  static constexpr std::uint64_t kHashMul = 0x9E3779B97F4A7C15ull;

 private:
  struct Entry {
    std::uint64_t ack_val = 0;
    sim::SimTime emit_time = 0.0;
    std::size_t spout_task = 0;
    bool anchored = false;  ///< at least one anchor seen
    bool has_replay = false;
    std::size_t attempt = 0;
    Values replay_values;
  };

  /// One slot of the open-addressing root table; `root == 0` marks it empty.
  struct Slot {
    std::uint64_t root = 0;
    Entry entry;
  };

  Slot* find(std::uint64_t root);
  /// Claim a slot for nonzero `root`; nullptr when it is already present.
  Slot* insert(std::uint64_t root);
  void erase(Slot* slot);
  std::size_t home(std::uint64_t root) const {
    return static_cast<std::size_t>((root * kHashMul) >> shift_);
  }
  /// Erase `slot` and drop its spout's pending count; returns the entry.
  Entry take(Slot* slot);

  double timeout_;
  // Linear probing over a power-of-two table kept at most half full;
  // erase shifts the following run back, so there are no tombstones.
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;  ///< 64 - log2(slots_.size())
  /// Lower bound on the emit_time of every pending root: lowered by
  /// register_root, recomputed from the survivors by each full sweep.
  sim::SimTime min_emit_time_ = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> per_spout_counts_;
  CompleteFn on_complete_;
  FailFn on_fail_;
  ReplayFn on_replay_;
};

}  // namespace repro::dsps
