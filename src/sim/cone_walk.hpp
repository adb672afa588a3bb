// The slot-ordered cone walk shared by the EvalPlan engines. Every fanout
// edge of a live slot targets a higher slot (PlanChecker's plan-topo-order
// rule), so draining a queued-bit set over slots upward walks a fanout cone
// in topological order: pushes made while visiting a slot land above it.
//
// SlotWavefront is that bit set (PODEM's implication, the Auto fault
// selector's cone sampling). ConeWalk adds scratch rows, deviation marks and
// a visited list (FaultSimEngine, SuiteOracle's ConeScratch).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sim/eval_plan.hpp"
#include "util/debug.hpp"

namespace tz {

class SlotWavefront {
 public:
  /// Cover slots [0, n). Growing keeps pending bits; never shrinks.
  void resize(std::size_t n) {
    if ((n + 63) / 64 > bits_.size()) bits_.resize((n + 63) / 64, 0);
  }

  /// Idempotent until `s` is visited. During a drain, `s` must lie above
  /// the slot being visited.
  void push(SlotId s) {
    TZ_DBG_ASSERT(s < bits_.size() * 64, "SlotWavefront::push slot index");
    TZ_DBG_ASSERT(cursor_ == kNoSlot || s > cursor_,
                  "SlotWavefront::push at or below the drain cursor");
    const std::size_t w = s >> 6;
    bits_[w] |= std::uint64_t{1} << (s & 63);
    if (w < lo_) lo_ = w;
    if (w >= hi_) hi_ = w + 1;
  }

  /// Visit every pending slot, lowest first, including the ones `visit`
  /// pushes; leaves the wavefront empty.
  template <typename Visit>
  void drain(Visit&& visit) {
    for (std::size_t w = lo_; w < hi_; ++w) {
      while (bits_[w] != 0) {
        const auto s = static_cast<SlotId>(64 * w + std::countr_zero(bits_[w]));
        bits_[w] &= bits_[w] - 1;
        cursor_ = s;
        visit(s);
      }
    }
    cursor_ = kNoSlot;
    lo_ = kNone;
    hi_ = 0;
  }

  /// Drop every pending slot without visiting it.
  void clear() {
    for (std::size_t w = lo_; w < hi_; ++w) bits_[w] = 0;
    lo_ = kNone;
    hi_ = 0;
  }

 private:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  std::vector<std::uint64_t> bits_;
  std::size_t lo_ = kNone, hi_ = 0;  ///< words [lo_, hi_) may be nonzero
  SlotId cursor_ = kNoSlot;  ///< slot being visited, kNoSlot outside drains
};

class ConeWalk {
 public:
  /// Cover `slots` rows of `words` words. Grow-only.
  void resize(std::size_t slots, std::size_t words) {
    words_ = words;
    if (rows_.size() < slots * words) rows_.resize(slots * words);
    if (marks_.size() < slots) marks_.resize(slots, 0);
    wave_.resize(slots);
  }

  /// Start a walk at `s`: unmark the previous walk's slots, mark `s` as
  /// deviating and schedule its live readers. Returns the row the caller
  /// fills with the forced value.
  std::uint64_t* seed(const EvalPlan& plan, SlotId s) {
    for (const SlotId v : visited_) marks_[v] = 0;
    visited_.clear();
    mark(plan, s);
    return mut_row(s);
  }

  /// Start a walk that forces `s` to the constant `value`, unless `base_row`
  /// already holds it on every `mask` lane: then nothing can deviate, no
  /// walk starts and the call returns false.
  bool seed_const(const EvalPlan& plan, SlotId s, bool value,
                  const std::uint64_t* base_row, const std::uint64_t* mask) {
    const std::uint64_t c = value ? ~std::uint64_t{0} : 0;
    std::uint64_t diff = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      diff |= (base_row[w] ^ c) & mask[w];
    }
    if (diff == 0) return false;
    std::fill_n(seed(plan, s), words_, c);
    return true;
  }

  /// Evaluate the scheduled cone in slot order. Fanins read the walk's row
  /// where marked and `base(slot)` elsewhere; a slot whose new row differs
  /// from `base(slot)` on some `mask[w]` lane is marked and schedules its
  /// readers.
  template <typename Base>
  void run(const EvalPlan& plan, Base&& base, const std::uint64_t* mask) {
    const auto get = [&](SlotId f) -> const std::uint64_t* {
      return marks_[f] ? row(f) : base(f);
    };
    wave_.drain([&](SlotId s) {
      std::uint64_t* out = mut_row(s);
      eval_plan_slot(plan, s, words_, get, out);
      const std::uint64_t* b = base(s);
      std::uint64_t changed = 0;
      for (std::size_t w = 0; w < words_; ++w) {
        changed |= (out[w] ^ b[w]) & mask[w];
      }
      if (changed) mark(plan, s);
    });
  }

  // The last walk's result, readable until the next seed.
  bool marked(SlotId s) const { return marks_[s] != 0; }
  /// The walk's row for `s`; meaningful only while `marked(s)`.
  const std::uint64_t* row(SlotId s) const {
    return rows_.data() + std::size_t{s} * words_;
  }
  /// Marked slots in marking order (the seed first).
  std::span<const SlotId> visited() const { return visited_; }

 private:
  std::uint64_t* mut_row(SlotId s) {
    return rows_.data() + std::size_t{s} * words_;
  }
  void mark(const EvalPlan& plan, SlotId s) {
    marks_[s] = 1;
    visited_.push_back(s);
    for (const SlotId r : plan.fanout(s)) {
      if (plan.op(r) != EvalOp::Dead) wave_.push(r);
    }
  }

  std::size_t words_ = 0;
  std::vector<std::uint64_t> rows_;
  std::vector<char> marks_;
  std::vector<SlotId> visited_;
  SlotWavefront wave_;
};

}  // namespace tz
