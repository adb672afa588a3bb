// PODEM automatic test pattern generation (TetraMAX substitute).
//
// Classic PODEM (Goel 1981): decisions are made only on primary inputs, an
// objective/backtrace pair drives the search, and full forward implication
// runs two three-valued machines (good and faulty) in lockstep — the usual
// decomposition of the 5-valued {0,1,X,D,D'} algebra.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "atpg/fault.hpp"
#include "sim/cone_walk.hpp"
#include "sim/eval_plan.hpp"
#include "sim/patterns.hpp"

namespace tz {

struct PodemOptions {
  int backtrack_limit = 500;  ///< Abort threshold per fault.
};

enum class PodemStatus : std::uint8_t {
  Detected,    ///< Pattern found.
  Untestable,  ///< Search space exhausted: fault is redundant.
  Aborted,     ///< Backtrack limit hit.
};

struct PodemResult {
  PodemStatus status = PodemStatus::Aborted;
  std::vector<bool> pattern;   ///< PI assignment (X filled with 0), PI order.
  std::vector<char> assigned;  ///< 1 where the PI was actually constrained.
  int backtracks = 0;
};

/// Reusable PODEM engine: compiles the netlist into an EvalPlan once and
/// serves one fault per run() call. Both three-valued machines live in
/// plan-slot order, so slot ids are topological ranks and implication walks
/// the plan's opcode stream and CSR fanin/fanout arrays, never Node objects.
/// A slot's good and faulty values share one byte (a "may be 0" and a "may
/// be 1" bit per machine, X = both), so one pass over the fanins evaluates
/// the two machines together.
///
///  - Cached all-X start: the good machine with every PI at X does not
///    depend on the fault, so it is computed once here; run() copies it into
///    both machines and implies from the fault slot alone.
///  - Wavefront: implication drains a sim/cone_walk.hpp SlotWavefront.
///    It pushes only to readers of the visited slot, which have higher slot
///    ids, so the upward bit scan visits lowest slot first at O(1) per event.
///  - D-frontier bitset: every slot implication visits has its frontier bit
///    refreshed (membership depends on its fanins as well as its own value);
///    the lowest set bit is the first frontier gate in topological order.
///    A counter of erroring PO entries replaces the per-decision PO scan.
///
/// The search itself (objective, backtrace, backtracking) is the classic
/// one; backtrace follows a DFF output to its d-input through the netlist,
/// since the plan compiles that edge out, and treats a walk that circles a
/// sequential loop as a dead end, like a tie cell. ATPG loops that target
/// many faults on one netlist should hold one engine.
class PodemEngine {
 public:
  /// The netlist must outlive the engine and stay structurally unchanged.
  explicit PodemEngine(const Netlist& nl);

  /// Throws std::invalid_argument when the fault site is not a live node.
  PodemResult run(const Fault& fault, const PodemOptions& opt = {});

 private:
  /// Drain the wavefront: evaluate every queued slot, lowest first.
  void imply(SlotId fault_slot, std::uint8_t stuck);
  SlotId first_frontier_gate();

  const Netlist* nl_;
  EvalPlan plan_;
  std::vector<std::uint8_t> all_x_;     // both machines, every PI at X
  std::vector<std::uint8_t> val_;       // packed good/faulty pair per slot
  std::vector<std::int8_t> pi_assign_;  // -1 = X, else 0/1
  std::vector<char> is_input_;
  std::vector<std::uint32_t> po_uses_;  // PO entries each slot drives
  std::size_t po_errors_ = 0;           // PO entries with good != faulty
  SlotWavefront wave_;
  std::vector<std::uint64_t> frontier_;
  std::size_t frontier_lo_ = 0;  // frontier_ words below this are zero
};

/// Generate a test for one stuck-at fault on a combinational netlist.
/// One-shot wrapper over PodemEngine.
PodemResult podem(const Netlist& nl, const Fault& fault,
                  const PodemOptions& opt = {});

}  // namespace tz
