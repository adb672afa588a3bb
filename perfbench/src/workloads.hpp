// The benchmark workloads. Each runs in one of two modes:
//
//  - untraced: the product's own entry points in a closed loop (one op at a
//    time, the next only after the previous returns), timed with
//    steady_clock; set-up is repeated and reported as a median;
//  - traced: one fixed pass over the workload's ops. Each op runs once
//    through the product entry point (untraced, for the wall-time ratio and
//    the reference result) and once through a replay that calls each
//    layer's public functions in the order the product calls them, with a
//    span around every call. The replay's result must equal the product's
//    byte for byte, so the per-layer split is of the same work.
//
// Correctness gates (checks.hpp) run outside every timed region in both
// modes; each failed gate counts as a failed op.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "trace.hpp"

namespace tz {
struct DefenderSuite;
struct FlowResult;
namespace sat {
struct MiterStats;
}
}  // namespace tz

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 0;    ///< 0 reproduces the committed workloads.
  double seconds = 10.0;     ///< Untraced closed-loop measuring time.
  bool short_mode = false;   ///< One op per workload, one set-up.
  std::string workdir;       ///< Scratch space (checkpoints, trace file).
  std::size_t threads = 1;   ///< min(4, effective CPUs).
};

/// Count metrics gathered by the traced replay at the layer boundaries.
struct Counters {
  void add_suite(const tz::DefenderSuite& suite);
  void add_flow(const tz::FlowResult& r);
  void add_miter(const tz::sat::MiterStats& m, std::int64_t conflicts,
                 std::int64_t propagations);

  std::mutex mu;  // guards every field below (campaign jobs run in parallel)
  double suites = 0, patterns = 0, coverage_sum = 0, podem_aborts = 0,
         untestable = 0;
  double candidates = 0, accepted = 0, insert_tries = 0, insert_rejects = 0,
         dummy_gates = 0, ht_inserted = 0;
  double sat_calls = 0, outputs_proved = 0, outputs_shared = 0,
         sweep_merges = 0, prepass_hits = 0, conflicts = 0, propagations = 0;
};

struct Report {
  /// Record a gate's verdict; an empty reason is a pass.
  void check(const std::string& why) {
    if (!why.empty()) failures.push_back(why);
  }
  /// Record one timed op of the given kind (circuit or job shape).
  void add_op(const std::string& kind, double ms) {
    op_ms.push_back(ms);
    op_ms_by_kind[kind].push_back(ms);
  }

  std::size_t attempted = 0;
  std::vector<std::string> failures;
  // Untraced measurements.
  std::vector<double> setup_s;
  std::vector<double> op_ms;
  std::map<std::string, std::vector<double>> op_ms_by_kind;
  double timed_wall_s = 0.0;
  std::size_t ops = 0;
  // Traced measurements.
  double untraced_ms = 0.0;  ///< Product wall of the replayed ops.
  double traced_ms = 0.0;    ///< Replay wall of the same ops.
  double busy_ms = 0.0;      ///< campaign1k: job time minus artifact waits.
  double suite_keys = 0.0;   ///< campaign1k: distinct defender suites built.
  std::vector<std::string> notes;  ///< Extra human-readable lines.
};

/// Run `cfg.workload`; `tracer`/`counters` non-null selects traced mode.
/// Throws on set-up failure (no result is printed then).
void run_workload(const Config& cfg, Report& rep, Tracer* tracer,
                  Counters* counters);

/// Self-test of the correctness gates: each gate passes on a good result
/// and trips on a corrupted one. Returns one line per case.
std::vector<std::pair<std::string, bool>> gate_self_test(const Config& cfg);

}  // namespace perfbench
