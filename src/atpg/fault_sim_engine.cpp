#include "atpg/fault_sim_engine.hpp"

#include <algorithm>
#include <cstdint>

namespace tz {

FaultSimEngine::FaultSimEngine(std::shared_ptr<FaultSimContext> ctx)
    : FaultSimBackend(std::move(ctx)) {}

FaultSimEngine::FaultSimEngine(const Netlist& nl)
    : FaultSimEngine(std::make_shared<FaultSimContext>(nl)) {}

FaultSimEngine::FaultSimEngine(const Netlist& nl, const PatternSet& patterns)
    : FaultSimEngine(nl) {
  set_patterns(patterns);
}

void FaultSimEngine::sync_scratch() {
  // resync_structure moves the pattern epoch too.
  if (synced_patterns_ == ctx_->pattern_epoch()) return;
  words_ = ctx_->words();
  valid_.assign(words_, ~std::uint64_t{0});
  if (words_ != 0) valid_.back() = ctx_->tail_mask();
  walk_.resize(ctx_->plan().num_slots(), words_);
  bits_.assign(words_, 0);
  synced_patterns_ = ctx_->pattern_epoch();
}

bool FaultSimEngine::simulate_fault(const Fault& f, bool want_bits) {
  sync_scratch();
  const EvalPlan& plan = ctx_->plan();
  if (want_bits) std::fill(bits_.begin(), bits_.end(), 0);
  if (!ctx_->netlist().is_alive(f.node) || words_ == 0) return false;
  const SlotId site = plan.slot_of(f.node);
  if (!ctx_->po_reachable_slot(site)) return false;

  // Inject the stuck value at the site. If no pattern excites the fault
  // (good value already equals the stuck value everywhere), nothing can
  // propagate — skip the whole cone.
  if (!walk_.seed_const(plan, site, f.value == StuckAt::One,
                        ctx_->good_row(site), valid_.data())) {
    return false;
  }
  // Padding lanes past the last pattern may deviate freely: the walk and
  // the PO compare below both mask them out.
  walk_.run(plan, [&](SlotId s) { return ctx_->good_row(s); }, valid_.data());

  bool any = false;
  for (const SlotId po : plan.output_slots()) {
    if (!walk_.marked(po)) continue;
    const std::uint64_t* gp = ctx_->good_row(po);
    const std::uint64_t* fp = walk_.row(po);
    for (std::size_t w = 0; w < words_; ++w) {
      const std::uint64_t diff = (gp[w] ^ fp[w]) & valid_[w];
      if (!diff) continue;
      if (!want_bits) return true;
      any = true;
      bits_[w] |= diff;
    }
  }
  return any;
}

bool FaultSimEngine::detects(const Fault& f) {
  return simulate_fault(f, /*want_bits=*/false);
}

const std::vector<std::uint64_t>& FaultSimEngine::detection_bits(
    const Fault& f) {
  simulate_fault(f, /*want_bits=*/true);
  return bits_;
}

std::vector<bool> FaultSimEngine::simulate(std::span<const Fault> faults) {
  std::vector<bool> detected(faults.size(), false);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    detected[i] = simulate_fault(faults[i], /*want_bits=*/false);
  }
  return detected;
}

std::size_t FaultSimEngine::drop_sim(std::span<const Fault> faults,
                                     std::vector<bool>& detected) {
  std::size_t newly = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (detected[i]) continue;
    if (simulate_fault(faults[i], /*want_bits=*/false)) {
      detected[i] = true;
      ++newly;
    }
  }
  return newly;
}

std::vector<std::vector<std::uint64_t>> FaultSimEngine::detection_matrix(
    std::span<const Fault> faults) {
  std::vector<std::vector<std::uint64_t>> matrix(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    simulate_fault(faults[i], /*want_bits=*/true);
    matrix[i] = bits_;
  }
  return matrix;
}

}  // namespace tz
