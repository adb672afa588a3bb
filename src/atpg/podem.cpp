#include "atpg/podem.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>

namespace tz {
namespace {

// Packed two-machine three-valued logic. Per machine, one bit says "may be
// 0" and one "may be 1": 0 = {may0}, 1 = {may1}, X = {may0, may1}. The good
// machine owns bits 0-1 and the faulty machine bits 2-3, so every gate
// function below evaluates both machines at once with plain bit operations.
using V = std::uint8_t;
constexpr V kGood0 = 1, kGood1 = 2, kFaulty0 = 4, kFaulty1 = 8;
constexpr V kMay0 = kGood0 | kFaulty0;  // both machines at 0
constexpr V kMay1 = kGood1 | kFaulty1;  // both machines at 1
constexpr V kAllX = kMay0 | kMay1;
constexpr V kGoodMask = kGood0 | kGood1, kFaultyMask = kFaulty0 | kFaulty1;

V v_not(V a) { return static_cast<V>(((a & kMay0) << 1) | ((a & kMay1) >> 1)); }

/// Per machine: may be 0 iff some input may be 0, may be 1 iff all may be 1.
V v_and_fold(V lo_acc, V hi_acc) {
  return static_cast<V>((lo_acc & kMay0) | (hi_acc & kMay1));
}

V v_xor(V a, V b) {
  // Per machine: may be 0 iff the inputs may be equal, may be 1 iff they
  // may differ (X on either side makes both possible).
  const V a0 = a & kMay0, a1 = (a & kMay1) >> 1;
  const V b0 = b & kMay0, b1 = (b & kMay1) >> 1;
  const V may0 = (a0 & b0) | (a1 & b1);
  const V may1 = (a0 & b1) | (a1 & b0);
  return static_cast<V>(may0 | (may1 << 1));
}

/// Both machines known and disagreeing: a D or a D'.
bool is_error(V v) { return ((v ^ (v >> 2)) & kGoodMask) == kGoodMask; }
bool good_is_x(V v) { return (v & kGoodMask) == kGoodMask; }
bool faulty_is_x(V v) { return (v & kFaultyMask) == kFaultyMask; }

/// Two-machine evaluation of a non-source plan slot over CSR fanins `f`.
V eval_pair(EvalOp op, const SlotId* f, std::size_t arity, const V* v) {
  switch (op) {
    case EvalOp::Const0: return kMay0;
    case EvalOp::Const1: return kMay1;
    case EvalOp::Buf: return v[f[0]];
    case EvalOp::Not: return v_not(v[f[0]]);
    case EvalOp::And2:
      return v_and_fold(v[f[0]] | v[f[1]], v[f[0]] & v[f[1]]);
    case EvalOp::Nand2:
      return v_not(v_and_fold(v[f[0]] | v[f[1]], v[f[0]] & v[f[1]]));
    case EvalOp::Or2:  // OR is AND with the roles of the two bits swapped
      return v_and_fold(v[f[0]] & v[f[1]], v[f[0]] | v[f[1]]);
    case EvalOp::Nor2:
      return v_not(v_and_fold(v[f[0]] & v[f[1]], v[f[0]] | v[f[1]]));
    case EvalOp::Xor2: return v_xor(v[f[0]], v[f[1]]);
    case EvalOp::Xnor2: return v_not(v_xor(v[f[0]], v[f[1]]));
    case EvalOp::Mux: {
      // out = sel ? b : a, per machine: a where sel may be 0, b where it may
      // be 1 (an X select agrees only where both branches do).
      const V s0 = v[f[0]] & kMay0, s1 = (v[f[0]] & kMay1) >> 1;
      return static_cast<V>(((s0 | (s0 << 1)) & v[f[1]]) |
                            ((s1 | (s1 << 1)) & v[f[2]]));
    }
    case EvalOp::AndN:
    case EvalOp::NandN:
    case EvalOp::OrN:
    case EvalOp::NorN: {
      V any = 0, all = kAllX;
      for (std::size_t i = 0; i < arity; ++i) {
        any |= v[f[i]];
        all &= v[f[i]];
      }
      const bool is_and = op == EvalOp::AndN || op == EvalOp::NandN;
      const V out = is_and ? v_and_fold(any, all) : v_and_fold(all, any);
      return op == EvalOp::NandN || op == EvalOp::NorN ? v_not(out) : out;
    }
    case EvalOp::XorN:
    case EvalOp::XnorN: {
      V acc = kMay0;
      for (std::size_t i = 0; i < arity; ++i) acc = v_xor(acc, v[f[i]]);
      return op == EvalOp::XnorN ? v_not(acc) : acc;
    }
    case EvalOp::Source:
    case EvalOp::Dead:
      return kAllX;  // handled by caller
  }
  return kAllX;
}

/// Non-controlling value heuristic for propagating through a gate.
bool noncontrolling(EvalOp op) {
  switch (op) {
    case EvalOp::And2:
    case EvalOp::Nand2:
    case EvalOp::AndN:
    case EvalOp::NandN:
      return true;
    case EvalOp::Or2:
    case EvalOp::Nor2:
    case EvalOp::OrN:
    case EvalOp::NorN:
      return false;
    default:
      return true;
  }
}

/// Does the gate invert the backtraced objective value?
bool inverts(EvalOp op) {
  return op == EvalOp::Not || op == EvalOp::Nand2 || op == EvalOp::NandN ||
         op == EvalOp::Nor2 || op == EvalOp::NorN || op == EvalOp::Xnor2 ||
         op == EvalOp::XnorN;
}

}  // namespace

PodemEngine::PodemEngine(const Netlist& nl)
    : nl_(&nl),
      plan_(nl),
      all_x_(plan_.num_slots(), kAllX),
      val_(plan_.num_slots(), kAllX),
      pi_assign_(plan_.num_slots(), -1),
      is_input_(plan_.num_slots(), 0),
      po_uses_(plan_.num_slots(), 0),
      frontier_((plan_.num_slots() + 63) / 64, 0) {
  wave_.resize(plan_.num_slots());
  const std::uint32_t* offs = plan_.fanin_offsets_data();
  const SlotId* fan = plan_.fanin_slots_data();
  for (SlotId s = 0; s < plan_.num_slots(); ++s) {
    const EvalOp op = plan_.op(s);
    if (op == EvalOp::Source) continue;  // PI or DFF output: X
    all_x_[s] =
        eval_pair(op, fan + offs[s], offs[s + 1] - offs[s], all_x_.data());
  }
  for (SlotId s : plan_.input_slots()) is_input_[s] = 1;
  for (SlotId s : plan_.output_slots()) ++po_uses_[s];
}

void PodemEngine::imply(SlotId fault_slot, V stuck) {
  // The machine state is a pure function of (pi_assign, fault), so
  // re-evaluating exactly the slots whose fanin changed reproduces a full
  // pass bit for bit.
  const EvalOp* ops = plan_.ops_data();
  const std::uint32_t* offs = plan_.fanin_offsets_data();
  const SlotId* fan = plan_.fanin_slots_data();
  wave_.drain([&](SlotId s) {
    const EvalOp op = ops[s];
    const SlotId* f = fan + offs[s];
    const std::size_t arity = offs[s + 1] - offs[s];
    V v;
    if (op == EvalOp::Source) {
      v = pi_assign_[s] < 0 ? kAllX : pi_assign_[s] ? kMay1 : kMay0;
    } else {
      v = eval_pair(op, f, arity, val_.data());
    }
    if (s == fault_slot) v = static_cast<V>((v & kGoodMask) | stuck);
    if (v != val_[s]) {
      if (po_uses_[s] != 0) {
        if (is_error(val_[s])) po_errors_ -= po_uses_[s];
        if (is_error(v)) po_errors_ += po_uses_[s];
      }
      val_[s] = v;
      for (SlotId reader : plan_.fanout(s)) wave_.push(reader);
    }
    // D-frontier membership: undetermined output and an error on some
    // fanin. It depends on the fanins too, so refresh on every visit.
    bool frontier = false;
    if (op != EvalOp::Source && (good_is_x(v) || faulty_is_x(v))) {
      for (std::size_t i = 0; i < arity && !frontier; ++i) {
        frontier = is_error(val_[f[i]]);
      }
    }
    const std::size_t w = s >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (s & 63);
    if (frontier) {
      frontier_[w] |= bit;
      frontier_lo_ = std::min(frontier_lo_, w);
    } else {
      frontier_[w] &= ~bit;
    }
  });
}

SlotId PodemEngine::first_frontier_gate() {
  while (frontier_lo_ < frontier_.size() && frontier_[frontier_lo_] == 0) {
    ++frontier_lo_;
  }
  if (frontier_lo_ == frontier_.size()) return kNoSlot;
  return static_cast<SlotId>(64 * frontier_lo_ +
                             std::countr_zero(frontier_[frontier_lo_]));
}

PodemResult PodemEngine::run(const Fault& fault, const PodemOptions& opt) {
  const SlotId fs = plan_.slot_of(fault.node);
  if (fs == kNoSlot) {
    throw std::invalid_argument("podem: fault site is not a live node");
  }
  const bool stuck_one = fault.value == StuckAt::One;
  const V stuck = stuck_one ? kFaulty1 : kFaulty0;
  const V activate = stuck_one ? kGood0 : kGood1;  // good value exciting it

  // All-X start: no errors anywhere, so the frontier and PO counter are
  // empty until the fault slot's own implication fills them in.
  std::copy(all_x_.begin(), all_x_.end(), val_.begin());
  std::fill(pi_assign_.begin(), pi_assign_.end(), -1);
  wave_.clear();
  std::fill(frontier_.begin(), frontier_.end(), 0);
  frontier_lo_ = frontier_.size();
  po_errors_ = 0;
  wave_.push(fs);
  imply(fs, stuck);

  // Objective selection. Returns nullopt when no useful objective exists
  // (dead end -> backtrack).
  auto objective = [&]() -> std::optional<std::pair<SlotId, bool>> {
    if (good_is_x(val_[fs])) return std::make_pair(fs, !stuck_one);
    if ((val_[fs] & kGoodMask) != activate) return std::nullopt;
    const SlotId g = first_frontier_gate();
    if (g == kNoSlot) return std::nullopt;
    for (SlotId fi : plan_.fanins(g)) {
      if (good_is_x(val_[fi]) || faulty_is_x(val_[fi])) {
        return std::make_pair(fi, noncontrolling(plan_.op(g)));
      }
    }
    return std::nullopt;
  };

  // Backtrace an objective to an unassigned primary input.
  auto backtrace = [&](SlotId s, bool val) -> std::pair<SlotId, bool> {
    std::size_t dff_hops = 0;
    while (!is_input_[s]) {
      if (plan_.op(s) == EvalOp::Source) {
        // DFF output: the plan compiles its d-input edge out, so follow the
        // netlist fanin (a DFF neither inverts nor has a second choice).
        // The walk from a slot is fixed, so more hops than there are DFFs
        // means it is circling a sequential loop: a dead end, like a tie.
        if (++dff_hops > plan_.dff_slots().size()) break;
        s = plan_.slot_of(nl_->node(plan_.node_of(s)).fanin[0]);
        continue;
      }
      const std::span<const SlotId> fi = plan_.fanins(s);
      if (fi.empty()) break;  // tie cell: cannot backtrace further
      if (inverts(plan_.op(s))) val = !val;
      SlotId next = fi[0];
      for (SlotId f : fi) {
        if (good_is_x(val_[f])) { next = f; break; }
      }
      s = next;
    }
    return {s, val};
  };

  struct Decision {
    SlotId pi;
    bool value;
    bool tried_both;
  };
  std::vector<Decision> decisions;
  PodemResult result;

  while (true) {
    if (po_errors_ > 0) {
      const auto& pis = plan_.input_slots();
      result.status = PodemStatus::Detected;
      result.pattern.resize(pis.size());
      result.assigned.resize(pis.size());
      for (std::size_t i = 0; i < pis.size(); ++i) {
        result.pattern[i] = pi_assign_[pis[i]] == 1;
        result.assigned[i] = pi_assign_[pis[i]] >= 0 ? 1 : 0;
      }
      return result;
    }
    const auto obj = objective();
    bool need_backtrack = !obj.has_value();
    if (!need_backtrack) {
      const auto [pi, val] = backtrace(obj->first, obj->second);
      if (!is_input_[pi] || pi_assign_[pi] >= 0) {
        // Backtrace hit a tie cell or an already-assigned PI: dead end.
        need_backtrack = true;
      } else {
        decisions.push_back({pi, val, false});
        pi_assign_[pi] = val ? 1 : 0;
        wave_.push(pi);
        imply(fs, stuck);
        continue;
      }
    }
    // Backtrack. The changed PIs are queued as they change; a run that ends
    // here never drains them, so the next run() clears the wavefront.
    bool flipped = false;
    while (!decisions.empty()) {
      Decision& d = decisions.back();
      wave_.push(d.pi);
      if (!d.tried_both) {
        d.tried_both = true;
        d.value = !d.value;
        pi_assign_[d.pi] = d.value ? 1 : 0;
        ++result.backtracks;
        flipped = true;
        break;
      }
      pi_assign_[d.pi] = -1;
      decisions.pop_back();
    }
    if (!flipped) {
      result.status = PodemStatus::Untestable;
      return result;
    }
    if (result.backtracks > opt.backtrack_limit) {
      result.status = PodemStatus::Aborted;
      return result;
    }
    imply(fs, stuck);
  }
}

PodemResult podem(const Netlist& nl, const Fault& fault,
                  const PodemOptions& opt) {
  return PodemEngine(nl).run(fault, opt);
}

}  // namespace tz
