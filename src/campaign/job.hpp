// Campaign job layer: one flow run as a pure, serializable unit of work.
//
// A JobSpec is the complete, explicit input of one TrojanZero flow — the
// circuit, the HT shape, the defender configuration, the RNG seed and the
// salvage order. The unit the scheduler layer (campaign/driver.hpp) fans
// out is a salvage group: the jobs that share a salvage_key (circuit,
// defender suite, resolved Pth, order) and differ only in their HT shape.
// Algorithm 1 never reads the HT shape, so run_flow_group salvages once and
// then runs each job's insertion, Pft and stamp against that one result,
// handing each row to a sink as soon as it is done. Same specs + same
// artifact content => bit-identical rows, at every thread count, shard
// count, group cut and TZ_FAULT_MODE setting that the engine stack already
// guarantees bit-identity for; run_flow_job is the group of one.
// FlowMeta.eval_plan is always true and stays on the wire so merged
// campaign digests keep their bytes.
//
// FlowMeta.wall_ms of a grouped row is the time of its own insertion phase;
// the group's first row also carries the shared salvage, so the sum of
// wall_ms over a group's rows is still the work done. wall_ms is volatile:
// the merge zeroes it.
//
// FlowResult rows travel as JSON (flow_result_to_json / _from_json): every
// scalar and record field round-trips; the netlists (original,
// salvage.modified, insertion.infected) and the suite are intentionally NOT
// serialized — a deserialized result carries empty netlists plus the
// FlowMeta stamp, and the report printers read only serialized fields, so a
// row loaded from a JSONL checkpoint prints exactly like a freshly computed
// one. Rows from the shared-artifact path carry no copy of N or of the
// suite either (original and suite stay empty; the engine reads the store's
// entries in place); the cold run_trojanzero_flow keeps both.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "campaign/artifacts.hpp"
#include "campaign/json.hpp"
#include "core/report.hpp"

namespace tz {

/// Explicit input of one flow job. Zero/negative sentinel fields resolve to
/// the Table-I per-circuit defaults (resolved()); `threads` steers intra-job
/// parallelism and is deliberately NOT part of the identity (id()) — results
/// are bit-identical at every thread count.
struct JobSpec {
  std::string circuit;        ///< make_benchmark name.
  double pth = 0.0;           ///< 0 = Table-I spec (0.992 for unknown names).
  int counter_bits = -1;      ///< -1 = Table-I spec (3 for unknown names).
  int trigger_width = 2;      ///< Rare nets ANDed into the trigger.
  std::uint64_t seed = 0;     ///< Defender testgen seed; 0 = default 0xA7C.
  std::string defender = "atpg";  ///< "atpg" | "atpg+rand" | "full".
  char order = 'p';           ///< 'p' ByProbability | 'l' ByLeakage.
  std::size_t threads = 1;    ///< Intra-job scan threads (0 = TZ_THREADS).

  /// Copy with every sentinel field replaced by its resolved default.
  JobSpec resolved() const;

  /// Canonical job identity: resolved fields, fixed order, to_chars
  /// doubles. The checkpoint/merge key and the shard-assignment input.
  std::string id() const;

  /// The defender suite configuration this spec resolves to (the tier-2
  /// artifact key).
  TestGenOptions testgen() const;

  /// The FlowOptions run_flow_group hands the engine (explicit HT ladder,
  /// resolved thresholds, per-job threads).
  FlowOptions flow_options() const;

  Json to_json() const;       ///< Resolved fields, canonical member order.
  static JobSpec from_json(const Json& j);
};

/// Salvage-group key: every input Algorithm 1 reads — the circuit, the
/// defender suite's testgen fingerprint, the resolved Pth and the salvage
/// order. Jobs with equal keys differ only in their HT shape. Throws what
/// testgen() throws (unknown defender).
std::string salvage_key(const JobSpec& spec);

/// One job's outcome within a group: `index` into the group's specs, then
/// `result` on success, or nullptr and what the job threw. `result` is only
/// valid during the call (the group reuses it for its next row).
using FlowRowSink =
    std::function<void(std::size_t index, const FlowResult* result,
                       const std::exception_ptr& error)>;

/// Run one salvage group against shared artifacts: look the group's
/// artifacts up in `store` (which builds them if missing), run Algorithm 1
/// once, then for each spec in order run its insertion, Pft and stamp and
/// call `sink` before the next row starts. Reads the store's entries
/// const-only and never touches global state. When the artifacts or the
/// salvage throw, every spec gets that error; an insertion that throws
/// fails its own row only. Throws std::invalid_argument when the specs do
/// not share one salvage_key.
void run_flow_group(const std::vector<JobSpec>& specs, ArtifactStore& store,
                    const FlowRowSink& sink);

/// One flow job: run_flow_group over {spec}, rethrowing its error.
/// Bit-identical on the wire to run_trojanzero_flow for the same resolved
/// options.
FlowResult run_flow_job(const JobSpec& spec, ArtifactStore& store);

/// FlowResult wire format. Netlists are not serialized (see file comment);
/// everything else round-trips exactly, including the FlowMeta stamp.
Json flow_result_to_json(const FlowResult& r);
FlowResult flow_result_from_json(const Json& j);

}  // namespace tz
