#include "dsps/acker.hpp"

#include <algorithm>
#include <bit>

namespace repro::dsps {

namespace {
constexpr std::size_t kMinSlots = 16;
}  // namespace

Acker::Slot* Acker::find(std::uint64_t root) {
  if (root == 0 || size_ == 0) return nullptr;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(root);; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.root == root) return &s;
    if (s.root == 0) return nullptr;
  }
}

Acker::Slot* Acker::insert(std::uint64_t root) {
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t cap = std::max(kMinSlots, 2 * old.size());
    slots_ = std::vector<Slot>(cap);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
    for (Slot& s : old) {
      if (s.root == 0) continue;
      std::size_t i = home(s.root);
      while (slots_[i].root != 0) i = (i + 1) & (cap - 1);
      slots_[i] = std::move(s);
    }
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(root);
  for (; slots_[i].root != 0; i = (i + 1) & mask) {
    if (slots_[i].root == root) return nullptr;
  }
  ++size_;
  slots_[i].root = root;
  return &slots_[i];
}

void Acker::erase(Slot* slot) {
  // Backward-shift deletion: walk the probe run after the hole and move
  // back every entry whose home does not lie cyclically in (hole, j], so
  // each remaining root stays reachable from its home without tombstones.
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = static_cast<std::size_t>(slot - slots_.data());
  for (std::size_t j = (hole + 1) & mask; slots_[j].root != 0; j = (j + 1) & mask) {
    const std::size_t h = home(slots_[j].root);
    if (((j - h) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = std::move(slots_[j]);
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --size_;
}

Acker::Entry Acker::take(Slot* slot) {
  Entry e = std::move(slot->entry);
  erase(slot);
  if (e.spout_task < per_spout_counts_.size() && per_spout_counts_[e.spout_task] > 0) {
    --per_spout_counts_[e.spout_task];
  }
  return e;
}

void Acker::register_root(std::uint64_t root, sim::SimTime emit_time, std::size_t spout_task) {
  if (root == 0) return;
  Slot* s = insert(root);
  if (s == nullptr) return;
  Entry& e = s->entry;
  e.emit_time = emit_time;
  e.spout_task = spout_task;
  min_emit_time_ = std::min(min_emit_time_, emit_time);
  if (spout_task >= per_spout_counts_.size()) per_spout_counts_.resize(spout_task + 1, 0);
  ++per_spout_counts_[spout_task];
}

void Acker::stash_replay(std::uint64_t root, Values values, std::size_t attempt) {
  Slot* s = find(root);
  if (s == nullptr) return;  // already completed (e.g. unanchored discard)
  s->entry.has_replay = true;
  s->entry.attempt = attempt;
  s->entry.replay_values = std::move(values);
}

void Acker::add_anchor(std::uint64_t root, std::uint64_t tuple_id) {
  Slot* s = find(root);
  if (s == nullptr) return;  // already completed/failed
  s->entry.ack_val ^= tuple_id;
  s->entry.anchored = true;
}

void Acker::ack_tuple(std::uint64_t root, std::uint64_t tuple_id, sim::SimTime now) {
  Slot* s = find(root);
  if (s == nullptr) return;
  s->entry.ack_val ^= tuple_id;
  if (s->entry.anchored && s->entry.ack_val == 0) {
    Entry e = take(s);
    if (on_complete_) on_complete_(root, now - e.emit_time, e.spout_task);
  }
}

void Acker::add_anchors(const std::uint64_t* roots, const std::uint64_t* ids, std::size_t n) {
  Slot* s = nullptr;
  std::uint64_t cached_root = 0;  // 0 is never looked up: unanchored rows skip
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t root = roots[i];
    if (root == 0) continue;
    if (root != cached_root) {
      s = find(root);
      cached_root = root;
    }
    if (s == nullptr) continue;  // already completed/failed
    s->entry.ack_val ^= ids[i];
    s->entry.anchored = true;
  }
}

void Acker::ack_batch(const std::uint64_t* roots, const std::uint64_t* ids, std::size_t n,
                      sim::SimTime now) {
  Slot* s = nullptr;
  std::uint64_t cached_root = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t root = roots[i];
    if (root == 0) continue;
    if (root != cached_root) {
      s = find(root);
      cached_root = root;
    }
    if (s == nullptr) continue;
    s->entry.ack_val ^= ids[i];
    if (s->entry.anchored && s->entry.ack_val == 0) {
      Entry e = take(s);
      // The erase shifted slots and the callback may register roots.
      s = nullptr;
      cached_root = 0;
      if (on_complete_) on_complete_(root, now - e.emit_time, e.spout_task);
    }
  }
}

void Acker::discard_if_unanchored(std::uint64_t root, sim::SimTime now) {
  Slot* s = find(root);
  if (s == nullptr || s->entry.anchored) return;
  Entry e = take(s);
  if (on_complete_) on_complete_(root, now - e.emit_time, e.spout_task);
}

void Acker::sweep(sim::SimTime now) {
  // Every pending emit_time is >= min_emit_time_, and floating-point
  // subtraction is monotone, so no root can pass the test below.
  if (now - min_emit_time_ < timeout_) return;
  std::vector<std::pair<std::uint64_t, Entry>> expired;
  sim::SimTime survivors_min = std::numeric_limits<double>::infinity();
  for (Slot& s : slots_) {
    if (s.root == 0) continue;
    if (now - s.entry.emit_time >= timeout_) {
      expired.emplace_back(s.root, std::move(s.entry));
    } else {
      survivors_min = std::min(survivors_min, s.entry.emit_time);
    }
  }
  min_emit_time_ = survivors_min;  // replays registered below lower it again
  // Canonical order: the replay callback re-emits tuples (consuming RNG
  // draws and scheduling events), so the processing order must not depend
  // on the table layout.
  std::sort(expired.begin(), expired.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [root, entry] : expired) {
    if (Slot* s = find(root)) take(s);
    if (on_fail_) on_fail_(root, entry.spout_task);
    if (entry.has_replay && on_replay_) {
      on_replay_(root, entry.spout_task, std::move(entry.replay_values), entry.attempt);
    }
  }
}

std::size_t Acker::pending_for(std::size_t spout_task) const {
  return spout_task < per_spout_counts_.size() ? per_spout_counts_[spout_task] : 0;
}

std::string Acker::pending_audit() const {
  std::vector<std::size_t> recount(per_spout_counts_.size(), 0);
  std::size_t live = 0;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (s.root == 0) continue;
    ++live;
    // Linear probing finds a root only if no empty slot lies between its
    // home and where it sits.
    for (std::size_t j = home(s.root); j != i; j = (j + 1) & mask) {
      if (slots_[j].root == 0) {
        return "root table: root " + std::to_string(s.root) + " unreachable from its home slot";
      }
    }
    if (s.entry.spout_task >= recount.size()) recount.resize(s.entry.spout_task + 1, 0);
    ++recount[s.entry.spout_task];
  }
  if (live != size_) {
    return "root table: size " + std::to_string(size_) + " != live slots " +
           std::to_string(live);
  }
  for (std::size_t s = 0; s < std::max(recount.size(), per_spout_counts_.size()); ++s) {
    std::size_t cached = s < per_spout_counts_.size() ? per_spout_counts_[s] : 0;
    std::size_t actual = s < recount.size() ? recount[s] : 0;
    if (cached != actual) {
      return "spout task " + std::to_string(s) + ": cached pending " + std::to_string(cached) +
             " != recounted " + std::to_string(actual);
    }
  }
  return {};
}

}  // namespace repro::dsps
