#include "campaign/artifacts.hpp"

#include <charconv>

#include "gen/iscas.hpp"

namespace tz {

namespace {

void append_number(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

}  // namespace

std::string testgen_fingerprint(const TestGenOptions& opt) {
  // Every field that changes generate_atpg_tests / make_defender_suite
  // output, in a fixed order. Compact key=value text — readable in a job id
  // and stable across runs (to_chars for the one double).
  std::string fp;
  fp += "rp=" + std::to_string(opt.random_patterns);
  fp += ",seed=" + std::to_string(opt.seed);
  fp += ",bt=" + std::to_string(opt.podem.backtrack_limit);
  fp += ",col=" + std::string(opt.collapse ? "1" : "0");
  fp += ",cov=";
  append_number(fp, opt.coverage_target);
  fp += ",mp=" + std::to_string(opt.max_patterns);
  fp += ",ord=";
  fp += opt.fault_order == TestGenOptions::FaultOrder::Shuffled ? "s" : "t";
  fp += ",os=" + std::to_string(opt.fault_order_seed);
  fp += ",rv=" + std::string(opt.with_random_validation ? "1" : "0");
  fp += ",vp=" + std::to_string(opt.validation_patterns);
  fp += ",wk=" + std::string(opt.with_walking ? "1" : "0");
  return fp;
}

ArtifactStore::ArtifactStore() : pm_(CellLibrary::tsmc65_like()) {}

const CircuitArtifacts& ArtifactStore::get_circuit(const std::string& name) {
  CircuitEntry* entry = nullptr;
  {
    MutexLock lk(mu_);
    std::unique_ptr<CircuitEntry>& slot = circuits_[name];
    if (!slot) slot = std::make_unique<CircuitEntry>();
    entry = slot.get();
  }
  MutexLock build(entry->build_mu);
  if (entry->error) std::rethrow_exception(entry->error);
  if (!entry->built) {
    CircuitArtifacts& art = entry->art;
    art.name = name;
    // The shared netlist must be byte-for-byte what the legacy cold path
    // uses (suite generation and power analysis are order-sensitive), so it
    // is NOT compacted here. The compacted twin mirrors exactly what every
    // job's salvage derives via `original_->compact()` — compact() is
    // deterministic, so the oracle seed built on it is id-identical to the
    // job's work netlist.
    try {
      art.netlist = make_benchmark(name);
      art.compacted = art.netlist.compact();
      art.golden_totals = pm_.analyze(art.netlist).totals;
    } catch (...) {
      entry->error = std::current_exception();
      throw;
    }
    entry->built = true;
    circuits_built_.fetch_add(1);
  }
  return entry->art;
}

const SuiteArtifacts& ArtifactStore::get_suite(const std::string& circuit,
                                               const TestGenOptions& opt) {
  // Resolve tier 1 first (outside this entry's build lock: circuit and
  // suite entries use different mutexes, and get_circuit is idempotent).
  const CircuitArtifacts& cart = get_circuit(circuit);

  const std::string key = circuit + "|" + testgen_fingerprint(opt);
  SuiteEntry* entry = nullptr;
  {
    MutexLock lk(mu_);
    std::unique_ptr<SuiteEntry>& slot = suites_[key];
    if (!slot) slot = std::make_unique<SuiteEntry>();
    entry = slot.get();
  }
  MutexLock build(entry->build_mu);
  if (entry->error) std::rethrow_exception(entry->error);
  if (!entry->built) {
    SuiteArtifacts& art = entry->art;
    art.circuit = &cart;
    try {
      art.suite = make_defender_suite(cart.netlist, opt);
      if (!art.suite.algorithms.empty()) {
        art.atpg_coverage = art.suite.algorithms.front().coverage.coverage();
      }
      // The shared oracle: compiled plan + fused golden rows, built once, on
      // the compacted twin so its slot-major caches line up node-for-node
      // with the `original_->compact()` every job's salvage performs.
      // Sequential circuits (DFFs) get no oracle — the flow's
      // functional_test fallback has nothing to share.
      auto oracle = std::make_unique<SuiteOracle>(cart.compacted, art.suite);
      if (!oracle->sequential()) art.oracle = std::move(oracle);
    } catch (...) {
      entry->error = std::current_exception();
      throw;
    }
    entry->built = true;
    suites_built_.fetch_add(1);
  }
  return entry->art;
}

SharedArtifacts ArtifactStore::get_job_inputs(const std::string& circuit,
                                              const TestGenOptions& testgen) {
  SharedArtifacts out;
  const SuiteArtifacts& suite = get_suite(circuit, testgen);
  out.circuit = suite.circuit;
  out.defender = &suite;
  out.pm = &pm_;
  out.shared.salvage_oracle = suite.oracle.get();
  out.shared.golden_totals = &suite.circuit->golden_totals;
  return out;
}

}  // namespace tz
