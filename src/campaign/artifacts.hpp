// Campaign artifact layer: build-once, share-everywhere flow inputs.
//
// A campaign is a (circuit × HT descriptor × seed × defender config) sweep —
// thousands of jobs, but only a handful of distinct circuits and a modest
// number of distinct (circuit, defender config, seed) suites. Before this
// layer every job re-ran make_benchmark, re-analyzed power, regenerated the
// ATPG suite and re-simulated it into SuiteOracle's row cache from scratch;
// all of that is a pure function of the job's key, so the ArtifactStore
// memoizes it at two tiers:
//
//  - Circuit tier (keyed by make_benchmark name): the synthesis-clean
//    netlist exactly as make_benchmark emits it (order-sensitive consumers —
//    suite generation, power summation — see the same bytes as a cold run),
//    its compacted twin (id-identical to the work netlist every job's
//    salvage derives), and the one-time golden power/area totals.
//
//  - Suite tier (keyed by circuit + a TestGenOptions fingerprint): the
//    defender suite and a fully built SuiteOracle on the circuit's netlist —
//    the compiled EvalPlan and the fused golden simulation rows. Salvage
//    clones the oracle copy-on-write (SuiteOracle's seeded constructor
//    deep-copies the plan and rows; the shared entry is never mutated).
//
// Jobs read the netlist and the suite in place; they copy neither. The
// store holds inputs only, not salvage results: a salvage result is one
// salvage group's (campaign/job.hpp), lives in that group's task for as
// long as its rows take, and is never shared beyond it. Memoizing every
// group's result here would keep all of them alive for the whole campaign.
//
// Thread safety: any number of jobs may call get_circuit / get_suite
// concurrently. The store uses one mutex for the maps plus a per-entry
// build mutex: two racing requests for the same key build it exactly once,
// and requests for different keys do not block each other. A build that
// throws is not retried: the entry keeps the exception and every later
// request for the key rethrows it. The store does not schedule builds:
// workers that request keys in grid order mostly wait on one key's build
// mutex, so the campaign driver requests each distinct key from its own
// worker before any job runs. Handed-out references stay valid for the life
// of the store (entries are never evicted; a campaign's working set is its
// distinct keys, which is small by design).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <string>

#include "atpg/test_set.hpp"
#include "core/flow_engine.hpp"
#include "netlist/netlist.hpp"
#include "tech/power_model.hpp"
#include "util/thread_safety.hpp"

namespace tz {

/// Per-circuit shared artifacts (tier 1).
struct CircuitArtifacts {
  std::string name;
  Netlist netlist;    ///< Exactly make_benchmark(name); jobs read it as N.
  /// netlist.compact() — id-identical to the work netlist each job's
  /// salvage derives, the basis for the shared oracle's caches.
  Netlist compacted;
  PowerReport golden_totals; ///< P/A of N — salvage baseline + caps.
};

/// Per-(circuit, defender) shared artifacts (tier 2).
struct SuiteArtifacts {
  const CircuitArtifacts* circuit = nullptr;
  DefenderSuite suite;
  /// Oracle built on circuit->netlist + suite: compiled plan + golden rows.
  /// Null when the oracle fell back to sequential mode (DFFs / interface
  /// mismatch) — jobs then build their own.
  std::unique_ptr<SuiteOracle> oracle;
  double atpg_coverage = 0.0;  ///< Front algorithm's coverage.
};

/// The immutable artifact bundle one salvage group consumes (const refs
/// into the store). Assembled by ArtifactStore::get_job_inputs; feed
/// `shared` to FlowEngine::set_shared.
struct SharedArtifacts {
  const CircuitArtifacts* circuit = nullptr;
  const SuiteArtifacts* defender = nullptr;
  const PowerModel* pm = nullptr;  ///< The store's shared model.
  FlowSharedInputs shared;  ///< Points into the two entries above.
};

class ArtifactStore {
 public:
  ArtifactStore();

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// The shared power model (one CellLibrary::tsmc65_like() per store).
  const PowerModel& power_model() const { return pm_; }

  /// Tier-1 lookup: builds the circuit entry on first use, returns the
  /// shared entry afterwards. Throws what make_benchmark throws on an
  /// unknown name, on the first request and every later one.
  const CircuitArtifacts& get_circuit(const std::string& name);

  /// Tier-2 lookup: builds (suite + oracle) for this circuit/defender
  /// fingerprint on first use. `opt` must be the job's fully resolved
  /// TestGenOptions (the key is a fingerprint of every generation-relevant
  /// field, so two jobs share iff their suites would be identical).
  const SuiteArtifacts& get_suite(const std::string& circuit,
                                  const TestGenOptions& opt);

  /// Convenience: both tiers + a wired FlowSharedInputs.
  SharedArtifacts get_job_inputs(const std::string& circuit,
                                 const TestGenOptions& testgen);

  /// Number of successfully built entries (observability + tests).
  std::size_t circuit_count() const { return circuits_built_.load(); }
  std::size_t suite_count() const { return suites_built_.load(); }

 private:
  struct CircuitEntry {
    Mutex build_mu;
    bool built TZ_GUARDED_BY(build_mu) = false;
    std::exception_ptr error TZ_GUARDED_BY(build_mu);  ///< Failed build.
    CircuitArtifacts art;
  };
  struct SuiteEntry {
    Mutex build_mu;
    bool built TZ_GUARDED_BY(build_mu) = false;
    std::exception_ptr error TZ_GUARDED_BY(build_mu);  ///< Failed build.
    SuiteArtifacts art;
  };

  PowerModel pm_;
  std::atomic<std::size_t> circuits_built_{0}, suites_built_{0};
  Mutex mu_;
  /// node-stable maps: references into entries survive later insertions.
  std::map<std::string, std::unique_ptr<CircuitEntry>> circuits_
      TZ_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<SuiteEntry>> suites_
      TZ_GUARDED_BY(mu_);
};

/// Stable fingerprint of every TestGenOptions field that changes the
/// generated suite — the tier-2 cache key and part of the job id.
std::string testgen_fingerprint(const TestGenOptions& opt);

}  // namespace tz
