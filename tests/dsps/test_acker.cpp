#include "dsps/acker.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <random>
#include <tuple>

namespace repro::dsps {
namespace {

struct AckerFixture : ::testing::Test {
  AckerFixture() : acker(5.0) {
    acker.set_on_complete([this](std::uint64_t root, double latency, std::size_t spout) {
      completed.push_back(root);
      latencies.push_back(latency);
      spouts.push_back(spout);
    });
    acker.set_on_fail([this](std::uint64_t root, std::size_t) { failed.push_back(root); });
  }
  Acker acker;
  std::vector<std::uint64_t> completed, failed;
  std::vector<double> latencies;
  std::vector<std::size_t> spouts;
};

TEST_F(AckerFixture, SingleTupleTree) {
  acker.register_root(1, 0.0, 0);
  acker.add_anchor(1, 100);
  EXPECT_EQ(acker.pending(), 1u);
  acker.ack_tuple(1, 100, 2.5);
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0], 1u);
  EXPECT_DOUBLE_EQ(latencies[0], 2.5);
  EXPECT_EQ(acker.pending(), 0u);
}

TEST_F(AckerFixture, MultiLevelTree) {
  // root -> a -> {b, c}; completion only after every node acks.
  acker.register_root(1, 0.0, 0);
  acker.add_anchor(1, 10);  // a delivered
  acker.add_anchor(1, 20);  // b delivered (emitted during a's execute)
  acker.add_anchor(1, 30);  // c delivered
  acker.ack_tuple(1, 10, 1.0);
  EXPECT_TRUE(completed.empty());
  acker.ack_tuple(1, 20, 2.0);
  EXPECT_TRUE(completed.empty());
  acker.ack_tuple(1, 30, 3.0);
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_DOUBLE_EQ(latencies[0], 3.0);
}

TEST_F(AckerFixture, InterleavedAnchorAndAck) {
  acker.register_root(1, 0.0, 0);
  acker.add_anchor(1, 10);
  // Processing a emits d, then acks a.
  acker.add_anchor(1, 40);
  acker.ack_tuple(1, 10, 1.0);
  EXPECT_TRUE(completed.empty());
  acker.ack_tuple(1, 40, 2.0);
  EXPECT_EQ(completed.size(), 1u);
}

TEST_F(AckerFixture, TimeoutSweepFails) {
  acker.register_root(1, 0.0, 0);
  acker.add_anchor(1, 10);
  acker.register_root(2, 4.0, 0);
  acker.add_anchor(2, 20);
  acker.sweep(5.0);  // root 1 is 5s old -> fail; root 2 only 1s old
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], 1u);
  EXPECT_EQ(acker.pending(), 1u);
}

TEST_F(AckerFixture, AckAfterFailIsIgnored) {
  acker.register_root(1, 0.0, 0);
  acker.add_anchor(1, 10);
  acker.sweep(10.0);
  acker.ack_tuple(1, 10, 11.0);
  EXPECT_TRUE(completed.empty());
  EXPECT_EQ(failed.size(), 1u);
}

TEST_F(AckerFixture, PendingPerSpoutTask) {
  acker.register_root(1, 0.0, 0);
  acker.register_root(2, 0.0, 1);
  acker.register_root(3, 0.0, 1);
  EXPECT_EQ(acker.pending_for(0), 1u);
  EXPECT_EQ(acker.pending_for(1), 2u);
  EXPECT_EQ(acker.pending_for(7), 0u);
  acker.add_anchor(2, 50);
  acker.ack_tuple(2, 50, 1.0);
  EXPECT_EQ(acker.pending_for(1), 1u);
}

TEST_F(AckerFixture, DiscardUnanchoredCompletesImmediately) {
  acker.register_root(1, 1.0, 0);
  acker.discard_if_unanchored(1, 1.5);
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_DOUBLE_EQ(latencies[0], 0.5);
}

TEST_F(AckerFixture, DiscardDoesNothingWhenAnchored) {
  acker.register_root(1, 0.0, 0);
  acker.add_anchor(1, 10);
  acker.discard_if_unanchored(1, 1.0);
  EXPECT_TRUE(completed.empty());
  EXPECT_EQ(acker.pending(), 1u);
}

TEST_F(AckerFixture, CompletionReportsSpoutTask) {
  acker.register_root(9, 0.0, 3);
  acker.add_anchor(9, 90);
  acker.ack_tuple(9, 90, 0.1);
  ASSERT_EQ(spouts.size(), 1u);
  EXPECT_EQ(spouts[0], 3u);
}

// The O(1) per-spout pending counters must track the root map exactly
// through the full lifecycle the engines exercise: timeout-driven replay
// (sweep fails the root, the replay callback re-registers the same values
// under a fresh root id, as both engines do on crash-induced loss) and
// unanchored discard. pending_audit() recounts the map and reports the
// first divergence.
TEST_F(AckerFixture, PendingCountsMatchMapUnderReplayAndDiscard) {
  std::uint64_t next_root = 100;
  std::vector<std::uint64_t> replayed_roots;
  acker.set_on_replay([&](std::uint64_t, std::size_t spout, Values&& values,
                          std::size_t attempt) {
    // Re-emit under a fresh root, like Engine::replay_root after a crash.
    std::uint64_t fresh = next_root++;
    acker.register_root(fresh, 20.0, spout);
    acker.stash_replay(fresh, std::move(values), attempt + 1);
    acker.add_anchor(fresh, fresh * 10);
    replayed_roots.push_back(fresh);
  });

  // Roots spread over three spout tasks, all with stashed replay values.
  for (std::uint64_t r = 1; r <= 6; ++r) {
    std::size_t spout = r % 3;
    acker.register_root(r, 0.0, spout);
    acker.stash_replay(r, Values{static_cast<long long>(r)}, 0);
    acker.add_anchor(r, r * 10);
  }
  // An unanchored root (no subscribers) on spout 2, discarded immediately.
  acker.register_root(7, 0.0, 2);
  acker.discard_if_unanchored(7, 0.5);
  EXPECT_EQ(acker.pending_audit(), "");
  EXPECT_EQ(acker.pending(), 6u);
  EXPECT_EQ(acker.pending_for(0) + acker.pending_for(1) + acker.pending_for(2), 6u);

  // Two roots complete normally.
  acker.ack_tuple(1, 10, 1.0);
  acker.ack_tuple(2, 20, 1.0);
  EXPECT_EQ(acker.pending_audit(), "");
  EXPECT_EQ(acker.pending(), 4u);

  // The rest go down with a "crashed worker": never acked, so the timeout
  // sweep fails them and replay re-registers each under a fresh root.
  acker.sweep(20.0);
  EXPECT_EQ(failed.size(), 4u);
  ASSERT_EQ(replayed_roots.size(), 4u);
  EXPECT_EQ(acker.pending_audit(), "");
  EXPECT_EQ(acker.pending(), 4u);
  EXPECT_EQ(acker.pending_for(0) + acker.pending_for(1) + acker.pending_for(2), 4u);

  // Replayed roots complete; every counter drains to zero.
  for (std::uint64_t fresh : replayed_roots) acker.ack_tuple(fresh, fresh * 10, 21.0);
  EXPECT_EQ(acker.pending_audit(), "");
  EXPECT_EQ(acker.pending(), 0u);
  for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(acker.pending_for(s), 0u);
}

TEST_F(AckerFixture, UnknownRootIgnored) {
  acker.add_anchor(42, 1);
  acker.ack_tuple(42, 1, 0.0);
  EXPECT_TRUE(completed.empty());
  EXPECT_TRUE(failed.empty());
}

// --- sweep early-out -------------------------------------------------------
// sweep() skips the table scan while now - (lower bound on pending emit
// times) < timeout. These pin the cases where a stale or missing bound
// would skip a root the full scan fails.

// Two async spouts stamp roots with their own clock reads, so a root can
// register with an older emit_time than roots already pending.
TEST_F(AckerFixture, SweepSeesRootOlderThanLiveOnes) {
  acker.register_root(1, 10.0, 0);
  acker.sweep(12.0);
  EXPECT_TRUE(failed.empty());
  acker.register_root(2, 3.0, 1);
  acker.sweep(8.0);  // 8 - 3 == timeout
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], 2u);

  // The same after a full scan has set the bound from the survivors.
  acker.register_root(3, 0.0, 0);
  acker.register_root(4, 9.0, 0);
  acker.sweep(9.5);  // full scan: root 3 fails; survivors 1 (10.0) and 4 (9.0)
  ASSERT_EQ(failed.size(), 2u);
  EXPECT_EQ(failed[1], 3u);
  acker.register_root(5, 5.0, 1);  // older than every survivor
  acker.sweep(10.0);
  ASSERT_EQ(failed.size(), 3u);
  EXPECT_EQ(failed[2], 5u);
  EXPECT_EQ(acker.pending(), 2u);
  EXPECT_EQ(acker.pending_audit(), "");
}

// A root fails exactly when now - emit_time >= timeout in floating point,
// including at equality and at emit times whose difference rounds.
TEST_F(AckerFixture, SweepTimeoutBoundaryIsExact) {
  std::uint64_t root = 1;
  for (double emit : {0.0, 0.1, 0.2, 0.3, 0.7, 1.1, 1e-9, 123.456}) {
    const double at = emit + 5.0;
    for (double now : {std::nextafter(at, 0.0), at, std::nextafter(at, 1e9)}) {
      Acker a(5.0);
      std::vector<std::uint64_t> fails;
      a.set_on_fail([&fails](std::uint64_t r, std::size_t) { fails.push_back(r); });
      a.register_root(root, emit, 0);
      a.sweep(now);
      const bool expect_fail = now - emit >= 5.0;
      EXPECT_EQ(fails.size(), expect_fail ? 1u : 0u) << "emit=" << emit << " now=" << now;
      EXPECT_EQ(a.pending(), expect_fail ? 0u : 1u);
      ++root;
    }
  }
}

// Acking the oldest root leaves the bound stale (too low); the next full
// scan must raise it to the oldest survivor without failing it early, and
// the survivor must still fail on time.
TEST_F(AckerFixture, SweepRescansAfterOldestRootAcked) {
  acker.register_root(1, 0.0, 0);
  acker.add_anchor(1, 11);
  acker.register_root(2, 3.0, 0);
  acker.add_anchor(2, 22);
  acker.sweep(4.0);
  acker.ack_tuple(1, 11, 4.5);
  ASSERT_EQ(completed.size(), 1u);
  acker.sweep(5.5);  // bound 0.0 is stale: full scan, root 2 survives
  EXPECT_TRUE(failed.empty());
  acker.sweep(7.9);
  EXPECT_TRUE(failed.empty());
  acker.sweep(8.0);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], 2u);
  EXPECT_EQ(acker.pending(), 0u);
}

// Root 0 is the engines' "unanchored" marker and the table's empty key:
// registering it is ignored, as is registering a root already pending.
TEST_F(AckerFixture, RootZeroAndDuplicateRegistrationIgnored) {
  acker.register_root(0, 0.0, 2);
  EXPECT_EQ(acker.pending(), 0u);
  EXPECT_EQ(acker.pending_for(2), 0u);
  acker.add_anchor(0, 5);
  acker.ack_tuple(0, 5, 1.0);
  acker.discard_if_unanchored(0, 1.0);
  acker.sweep(100.0);
  EXPECT_TRUE(completed.empty());
  EXPECT_TRUE(failed.empty());

  acker.register_root(7, 1.0, 0);
  acker.register_root(7, 2.0, 1);  // duplicate: the first registration stands
  EXPECT_EQ(acker.pending(), 1u);
  EXPECT_EQ(acker.pending_for(0), 1u);
  EXPECT_EQ(acker.pending_for(1), 0u);
  EXPECT_EQ(acker.pending_audit(), "");
  acker.discard_if_unanchored(7, 1.5);
  ASSERT_EQ(latencies.size(), 1u);
  EXPECT_DOUBLE_EQ(latencies[0], 0.5);
  EXPECT_EQ(spouts[0], 0u);
}

// --- differential test against a std::map model ---------------------------

/// Inverse of an odd multiplier mod 2^64 (Newton: each step doubles the
/// correct low bits, starting from 3).
constexpr std::uint64_t mul_inverse(std::uint64_t a) {
  std::uint64_t x = a;
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}
constexpr std::uint64_t kHashInv = mul_inverse(Acker::kHashMul);
static_assert(Acker::kHashMul * kHashInv == 1);

/// Roots whose hash products are `top` in the top 12 bits, zeros, and a
/// small counter in the low bits, so they share one home slot in every
/// table size the test reaches.
std::vector<std::uint64_t> colliding_roots(std::uint64_t top, std::size_t count) {
  std::vector<std::uint64_t> roots;
  for (std::uint64_t j = 1; j <= count; ++j) roots.push_back(((top << 52) | j) * kHashInv);
  return roots;
}

/// The acker's semantics over an ordered map: the reference the flat table
/// is checked against. Callbacks are recorded as events.
struct AckerModel {
  struct Entry {
    std::uint64_t ack_val = 0;
    double emit_time = 0.0;
    std::size_t spout = 0;
    bool anchored = false;
    bool has_replay = false;
    std::size_t attempt = 0;
    Values values;
  };
  /// (kind, root, latency or replay attempt, spout): 'C'omplete, 'F'ail, 'R'eplay.
  using Event = std::tuple<char, std::uint64_t, double, std::size_t>;

  explicit AckerModel(double timeout) : timeout(timeout) {}

  void register_root(std::uint64_t root, double t, std::size_t spout) {
    if (root == 0 || roots.count(root) != 0) return;
    roots[root] = Entry{0, t, spout, false, false, 0, {}};
  }
  void stash(std::uint64_t root, Values v, std::size_t attempt) {
    auto it = roots.find(root);
    if (it == roots.end()) return;
    it->second.has_replay = true;
    it->second.attempt = attempt;
    it->second.values = std::move(v);
  }
  void anchor(std::uint64_t root, std::uint64_t id) {
    auto it = roots.find(root);
    if (it == roots.end()) return;
    it->second.ack_val ^= id;
    it->second.anchored = true;
  }
  void ack(std::uint64_t root, std::uint64_t id, double now) {
    auto it = roots.find(root);
    if (it == roots.end()) return;
    it->second.ack_val ^= id;
    if (it->second.anchored && it->second.ack_val == 0) complete(it, now);
  }
  void discard(std::uint64_t root, double now) {
    auto it = roots.find(root);
    if (it != roots.end() && !it->second.anchored) complete(it, now);
  }
  template <typename Replay>
  void sweep(double now, Replay&& replay) {
    std::vector<std::uint64_t> expired;
    for (const auto& [root, e] : roots) {
      if (now - e.emit_time >= timeout) expired.push_back(root);
    }
    for (std::uint64_t root : expired) {
      Entry e = std::move(roots.at(root));
      roots.erase(root);
      events.emplace_back('F', root, 0.0, e.spout);
      if (e.has_replay) replay(root, e.spout, std::move(e.values), e.attempt);
    }
  }
  std::size_t pending_for(std::size_t spout) const {
    std::size_t n = 0;
    for (const auto& [root, e] : roots) n += e.spout == spout ? 1 : 0;
    return n;
  }

  void complete(std::map<std::uint64_t, Entry>::iterator it, double now) {
    events.emplace_back('C', it->first, now - it->second.emit_time, it->second.spout);
    roots.erase(it);
  }

  double timeout;
  std::map<std::uint64_t, Entry> roots;
  std::vector<Event> events;
};

// Random register/stash/anchor/ack/discard/sweep traffic, per row and
// batched, over roots that collide in clusters at the table's first and
// last slots (so probe runs wrap around and erases shift entries across
// the wrap) mixed with sequential roots. Each replay registers two fresh
// roots, so sweeps grow the table from inside the replay callback.
// Completion, fail and replay order, latencies, replayed values and
// pending counts must match the model exactly.
TEST(AckerDifferential, MatchesMapModelUnderChurn) {
  constexpr double kTimeout = 1.0;
  constexpr std::size_t kSpouts = 3;
  Acker acker(kTimeout);
  AckerModel model(kTimeout);
  std::vector<AckerModel::Event> events;
  std::vector<Values> replayed, model_replayed;
  acker.set_on_complete([&](std::uint64_t root, double latency, std::size_t spout) {
    events.emplace_back('C', root, latency, spout);
  });
  acker.set_on_fail(
      [&](std::uint64_t root, std::size_t spout) { events.emplace_back('F', root, 0.0, spout); });

  // Fresh replay roots come from one counter per side, advanced identically.
  // Only the first replay of a logical tuple stashes again, which bounds the
  // fan-out.
  std::uint64_t fresh_real = 1'000'000, fresh_model = 1'000'000;
  double now = 0.0;
  acker.set_on_replay([&](std::uint64_t root, std::size_t spout, Values&& v, std::size_t attempt) {
    events.emplace_back('R', root, static_cast<double>(attempt), spout);
    replayed.push_back(v);
    for (int k = 0; k < 2; ++k) {
      std::uint64_t r = fresh_real++;
      acker.register_root(r, now, spout);
      if (k == 0 && attempt == 0) acker.stash_replay(r, v, attempt + 1);
      acker.add_anchor(r, r * 3);
    }
  });
  auto model_replay = [&](std::uint64_t root, std::size_t spout, Values&& v,
                          std::size_t attempt) {
    model.events.emplace_back('R', root, static_cast<double>(attempt), spout);
    model_replayed.push_back(v);
    for (int k = 0; k < 2; ++k) {
      std::uint64_t r = fresh_model++;
      model.register_root(r, now, spout);
      if (k == 0 && attempt == 0) model.stash(r, v, attempt + 1);
      model.anchor(r, r * 3);
    }
  };

  std::vector<std::uint64_t> pool = colliding_roots(0xFFF, 40);  // home: last slot
  for (std::uint64_t r : colliding_roots(0x000, 40)) pool.push_back(r);  // home: slot 0
  for (std::uint64_t r : colliding_roots(0x801, 20)) pool.push_back(r);
  for (std::uint64_t r = 1; r <= 400; ++r) pool.push_back(r);

  std::mt19937_64 rng(0xACC0);
  auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  // Outstanding anchor ids per root, so acks can complete trees.
  std::map<std::uint64_t, std::vector<std::uint64_t>> outstanding;
  std::uint64_t next_id = 1ull << 40;

  auto live_root = [&]() -> std::uint64_t {
    if (model.roots.empty()) return pool[pick(pool.size())];
    auto it = model.roots.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(pick(model.roots.size())));
    return it->first;
  };
  auto ack_id = [&](std::uint64_t root) -> std::uint64_t {
    auto& ids = outstanding[root];
    if (ids.empty()) return next_id++;  // a stray id: leaves the tree incomplete
    std::size_t k = pick(ids.size());
    std::uint64_t id = ids[k];
    ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(k));
    return id;
  };

  for (int step = 0; step < 30000; ++step) {
    switch (pick(9)) {
      case 0:
      case 1: {  // register, sometimes with an emit time older than live roots
        std::uint64_t r = pool[pick(pool.size())];
        double t = pick(4) == 0 ? now - 0.5 * static_cast<double>(pick(100)) / 100.0 : now;
        std::size_t spout = pick(kSpouts);
        acker.register_root(r, t, spout);
        model.register_root(r, t, spout);
        if (pick(2) == 0) {
          Values v{static_cast<std::int64_t>(r % 1000)};
          acker.stash_replay(r, v, 0);
          model.stash(r, v, 0);
        }
        break;
      }
      case 2: {  // anchor
        std::uint64_t r = live_root();
        std::uint64_t id = next_id++;
        outstanding[r].push_back(id);
        acker.add_anchor(r, id);
        model.anchor(r, id);
        break;
      }
      case 3: {  // ack
        std::uint64_t r = live_root();
        std::uint64_t id = ack_id(r);
        acker.ack_tuple(r, id, now);
        model.ack(r, id, now);
        break;
      }
      case 4: {  // batched anchors, in same-root runs
        std::vector<std::uint64_t> roots, ids;
        for (std::size_t k = 0, runs = 1 + pick(4); k < runs; ++k) {
          std::uint64_t r = pick(5) == 0 ? 0 : live_root();
          for (std::size_t m = 0, len = 1 + pick(3); m < len; ++m) {
            roots.push_back(r);
            ids.push_back(next_id++);
            if (r != 0) outstanding[r].push_back(ids.back());
          }
        }
        acker.add_anchors(roots.data(), ids.data(), roots.size());
        for (std::size_t k = 0; k < roots.size(); ++k) {
          if (roots[k] != 0) model.anchor(roots[k], ids[k]);
        }
        break;
      }
      case 5: {  // batched acks, in same-root runs
        std::vector<std::uint64_t> roots, ids;
        for (std::size_t k = 0, runs = 1 + pick(4); k < runs; ++k) {
          std::uint64_t r = pick(5) == 0 ? 0 : live_root();
          for (std::size_t m = 0, len = 1 + pick(3); m < len; ++m) {
            roots.push_back(r);
            ids.push_back(r == 0 ? next_id++ : ack_id(r));
          }
        }
        acker.ack_batch(roots.data(), ids.data(), roots.size(), now);
        for (std::size_t k = 0; k < roots.size(); ++k) {
          if (roots[k] != 0) model.ack(roots[k], ids[k], now);
        }
        break;
      }
      case 6: {  // discard
        std::uint64_t r = live_root();
        acker.discard_if_unanchored(r, now);
        model.discard(r, now);
        break;
      }
      case 7: {  // sweep
        acker.sweep(now);
        model.sweep(now, model_replay);
        break;
      }
      default:
        now += 0.001 * static_cast<double>(pick(20));
        break;
    }
    ASSERT_EQ(acker.pending(), model.roots.size()) << "step " << step;
    if (step % 97 == 0) {
      ASSERT_EQ(acker.pending_audit(), "") << "step " << step;
      for (std::size_t s = 0; s < kSpouts; ++s) {
        ASSERT_EQ(acker.pending_for(s), model.pending_for(s)) << "step " << step;
      }
    }
  }
  // Drain: everything left times out, in ascending root order.
  now += 2 * kTimeout;
  acker.set_on_replay(nullptr);
  acker.sweep(now);
  model.sweep(now, [](std::uint64_t, std::size_t, Values&&, std::size_t) {});
  EXPECT_EQ(acker.pending(), 0u);
  EXPECT_EQ(acker.pending_audit(), "");
  ASSERT_EQ(events.size(), model.events.size());
  std::map<char, std::size_t> kinds;
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(events[i], model.events[i]) << "event " << i;
    ++kinds[std::get<0>(events[i])];
  }
  EXPECT_EQ(replayed, model_replayed);
  // The traffic must have exercised every path it claims to.
  EXPECT_GT(kinds['C'], 500u);
  EXPECT_GT(kinds['F'], 500u);
  EXPECT_GT(kinds['R'], 300u);
}

// A sweep that fails several stashed roots, each replayed under three fresh
// roots, grows the table mid-sweep; the roots it has yet to fail must still
// be found and failed in ascending order, and the fresh roots tracked.
TEST_F(AckerFixture, SweepReplayGrowsTableMidSweep) {
  std::uint64_t next_root = 100;
  std::vector<std::uint64_t> fresh_roots;
  acker.set_on_replay([&](std::uint64_t, std::size_t spout, Values&& values, std::size_t) {
    for (int k = 0; k < 3; ++k) {
      std::uint64_t fresh = next_root++;
      acker.register_root(fresh, 6.0, spout);
      acker.stash_replay(fresh, values, 1);
      acker.add_anchor(fresh, fresh * 10);
      fresh_roots.push_back(fresh);
    }
  });
  for (std::uint64_t r = 7; r >= 1; --r) {  // registration order is not fail order
    acker.register_root(r, 0.0, r % 2);
    acker.stash_replay(r, Values{static_cast<std::int64_t>(r)}, 0);
    acker.add_anchor(r, r * 10);
  }
  acker.sweep(6.0);
  EXPECT_EQ(failed, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(acker.pending(), 21u);
  EXPECT_EQ(acker.pending_audit(), "");
  for (std::uint64_t fresh : fresh_roots) acker.ack_tuple(fresh, fresh * 10, 6.5);
  EXPECT_EQ(completed, fresh_roots);
  EXPECT_EQ(acker.pending(), 0u);
}

}  // namespace
}  // namespace repro::dsps
