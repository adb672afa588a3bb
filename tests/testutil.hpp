// Shared fixtures for the TrojanZero test suites: tiny helper netlists and
// deterministic RNG seeding. Keep helpers here instead of copy-pasting them
// across suite files.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "atpg/fault_sim_backend.hpp"
#include "atpg/test_set.hpp"
#include "campaign/driver.hpp"
#include "core/insertion.hpp"
#include "core/salvage.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/netlist.hpp"
#include "sim/gate_eval.hpp"
#include "sim/patterns.hpp"

namespace tz::test {

// Canonical seed for tests that need an arbitrary-but-fixed RNG stream.
inline constexpr std::uint64_t kTestSeed = 0xC0FFEE;

// Forces the fault-simulation backend (0 = Auto, 1 = Event, 2 = Packed) for
// the guarded scope and restores the TZ_FAULT_MODE environment default
// afterwards — RAII so a throw or fatal assertion cannot leak a forced mode
// into later tests of the aggregated runner.
struct FaultModeGuard {
  explicit FaultModeGuard(int mode) { set_fault_sim_mode(mode); }
  ~FaultModeGuard() { set_fault_sim_mode(-1); }
  FaultModeGuard(const FaultModeGuard&) = delete;
  FaultModeGuard& operator=(const FaultModeGuard&) = delete;
};

// Adds `n` primary inputs named <prefix>0 .. <prefix>{n-1}.
inline std::vector<NodeId> add_inputs(Netlist& nl, int n,
                                      const std::string& prefix = "i") {
  std::vector<NodeId> ins;
  ins.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ins.push_back(nl.add_input(prefix + std::to_string(i)));
  }
  return ins;
}

// Minimal two-gate netlist: h = NOT(g), g = AND(a, b), output h.
inline Netlist two_gate() {
  Netlist nl("two");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::And, "g", {a, b});
  const NodeId h = nl.add_gate(GateType::Not, "h", {g});
  nl.mark_output(h);
  return nl;
}

// Eight-input testbed with two rare AND triggers (r0, r1), a XOR victim `v`
// feeding output o, and a second output o2 keeping the triggers alive.
inline Netlist payload_testbed(NodeId* victim, std::vector<NodeId>* rare) {
  Netlist nl;
  const std::vector<NodeId> ins = add_inputs(nl, 8);
  const NodeId r0 = nl.add_gate(GateType::And, "r0", {ins[0], ins[1]});
  const NodeId r1 = nl.add_gate(GateType::And, "r1", {ins[2], ins[3]});
  const NodeId v = nl.add_gate(GateType::Xor, "v", {ins[4], ins[5]});
  const NodeId o = nl.add_gate(GateType::Xor, "o", {v, ins[6]});
  const NodeId o2 = nl.add_gate(GateType::Or, "o2", {r0, r1, ins[7]});
  nl.mark_output(o);
  nl.mark_output(o2);
  *victim = v;
  *rare = {r0, r1};
  return nl;
}

// Node-walking reference simulation: one node-major row of
// `ps.num_words()` words per NodeId, evaluated in topological order through
// the sim/gate_eval.hpp kernels (eval_gate_word at one word, eval_gate_row
// otherwise). DFF outputs read `dff_state` (one word per DFF) or 0. This is
// the independent oracle the compiled EvalPlan walk is checked against.
inline std::vector<std::vector<std::uint64_t>> reference_rows(
    const Netlist& nl, const PatternSet& ps,
    const std::vector<std::uint64_t>* dff_state = nullptr) {
  const std::size_t words = ps.num_words();
  std::vector<std::vector<std::uint64_t>> rows(
      nl.raw_size(), std::vector<std::uint64_t>(words, 0));
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    const auto src = ps.words(i);
    rows[nl.inputs()[i]].assign(src.begin(), src.end());
  }
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    rows[nl.dffs()[i]].assign(words, dff_state ? (*dff_state)[i] : 0);
  }
  for (const NodeId id : nl.topo_order()) {
    const Node& n = nl.node(id);
    if (n.type == GateType::Input || n.type == GateType::Dff) continue;
    if (words == 1) {
      rows[id][0] = eval_gate_word(n, [&](NodeId f) { return rows[f][0]; });
    } else {
      eval_gate_row(
          n, words, [&](NodeId f) { return rows[f].data(); },
          rows[id].data());
    }
  }
  return rows;
}

// Golden-output digest: fields are appended in a fixed little-endian byte
// encoding and hashed with tz::fnv1a64. Doubles contribute their bit
// patterns, so a digest match is as strict as EXPECT_EQ on every field.
class Digest {
 public:
  Digest& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<char>(v >> (8 * i)));
    return *this;
  }
  Digest& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
  Digest& str(std::string_view s) {
    u64(s.size());
    bytes_.append(s);
    return *this;
  }
  Digest& words(const std::vector<std::uint64_t>& w) {
    u64(w.size());
    for (const std::uint64_t v : w) u64(v);
    return *this;
  }
  Digest& flags(const std::vector<bool>& b) {
    u64(b.size());
    for (const bool v : b) bytes_.push_back(v ? '1' : '0');
    return *this;
  }
  // Every signal's words, padding lanes past the last pattern masked off.
  Digest& patterns(const PatternSet& ps) {
    u64(ps.num_signals()).u64(ps.num_patterns());
    for (std::size_t s = 0; s < ps.num_signals(); ++s) {
      const auto w = ps.words(s);
      for (std::size_t i = 0; i < w.size(); ++i) {
        u64(i + 1 == w.size() ? w[i] & ps.tail_mask() : w[i]);
      }
    }
    return *this;
  }
  Digest& power(const PowerReport& p) {
    return f64(p.dynamic_uw).f64(p.leakage_uw).f64(p.area_ge);
  }
  Digest& test_set(const DefenderTestSet& ts) {
    str(ts.name).patterns(ts.patterns).patterns(ts.golden);
    return u64(ts.coverage.total_faults)
        .u64(ts.coverage.detected)
        .u64(ts.untestable)
        .u64(ts.aborted);
  }
  Digest& suite(const DefenderSuite& suite) {
    u64(suite.algorithms.size());
    for (const DefenderTestSet& ts : suite.algorithms) test_set(ts);
    return *this;
  }
  // Algorithm 1 verdicts, reported power and the salvaged netlist N'.
  Digest& salvage(const SalvageResult& r) {
    u64(r.candidates).u64(r.rejected).u64(r.expendable_gates);
    u64(r.accepted.size());
    for (const SalvageRecord& a : r.accepted) {
      str(a.node_name).u64(a.tie_value).f64(a.probability).u64(a.gates_removed);
    }
    return power(r.power_after).str(write_bench_string(r.modified));
  }
  // Algorithm 2 choices, counters, reported power and (on success) N''.
  Digest& insertion(const InsertionResult& r) {
    u64(r.success).str(r.ht_name).str(r.victim_name).u64(r.dummy_gates);
    u64(static_cast<std::uint64_t>(r.tried_hts))
        .u64(static_cast<std::uint64_t>(r.tried_locations))
        .u64(static_cast<std::uint64_t>(r.fail_build))
        .u64(static_cast<std::uint64_t>(r.fail_test))
        .u64(static_cast<std::uint64_t>(r.fail_caps));
    f64(r.trigger_p1).power(r.power);
    return str(r.success ? write_bench_string(r.infected) : std::string());
  }

  std::uint64_t value() const { return fnv1a64(bytes_); }

 private:
  std::string bytes_;
};

}  // namespace tz::test
