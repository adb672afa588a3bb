#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "atpg/fault_sim_backend.hpp"
#include "campaign/artifacts.hpp"
#include "campaign/driver.hpp"
#include "campaign/job.hpp"
#include "checks.hpp"
#include "core/flow_engine.hpp"
#include "core/trigger_prob.hpp"
#include "gen/iscas.hpp"
#include "netlist/rewrite.hpp"
#include "prob/signal_prob.hpp"
#include "sat/miter.hpp"
#include "sim/eval_plan.hpp"
#include "util/thread_pool.hpp"

namespace fs = std::filesystem;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// campaign1k's set-up repetitions per run (~0.3 ms each); setup_s reports
// their median. table1 and equiv-rand10k instead rebuild their set-up
// between ops.
constexpr int kSetupRepsCampaign = 200;

// The circuit equiv checks. rand100k pairs took 1.3-1.9 s, so a run held
// ~4 per witness and one slow spell of the host moved a whole run; rand10k
// pairs take 65-120 ms, so a run holds ~35 per witness.
const char* const kEquivCircuit = "rand10k";

// equiv-rand10k rebuilds its inputs (~50 ms) after every this many ops
// (65-120 ms each).
constexpr std::size_t kOpsPerSetupEquiv = 8;

// equiv-rand10k draws its witnesses from the kWitnessWindow deepest Pth
// gates. The witness search's SAT effort still varies by gate, so a run
// cycles kWitnesses of them.
constexpr std::size_t kWitnessWindow = 64;
constexpr std::size_t kWitnesses = 8;

// Algorithm 1 threshold the flow resolves for circuits outside Table I
// (JobSpec::resolved); the equivalence witness is a tie this rare.
constexpr double kDefaultPth = 0.992;

const std::vector<std::string> kTable1Circuits = {"c432",  "c499",  "c880",
                                                  "c1908", "c3540", "c6288"};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t testgen_seed(const Config& cfg) {
  return tz::TestGenOptions{}.seed + cfg.seed;
}

// ----------------------------------------------------------- flow replay

/// The product's flow (campaign/job.cpp run_flow_common) step by step, with
/// a span around each layer call. `arts` null = the cold path.
tz::FlowResult replay_flow(const std::string& name,
                           const tz::FlowOptions& options,
                           const tz::SharedArtifacts* arts, Tracer* t,
                           Counters* c) {
  tz::FlowResult r;
  r.benchmark = name;
  std::optional<tz::PowerModel> own_pm;
  const tz::PowerModel* pm = nullptr;
  if (arts != nullptr) {
    r.original = arts->circuit->netlist;
    pm = arts->pm;
    r.suite = arts->defender->suite;
    r.atpg_coverage = arts->defender->atpg_coverage;
    r.p_n = arts->circuit->golden_totals;
  } else {
    {
      Span s(t, "gen.make_benchmark");
      r.original = tz::make_benchmark(name);
    }
    own_pm.emplace(tz::CellLibrary::tsmc65_like());
    pm = &*own_pm;
    {
      Span s(t, "atpg.make_defender_suite");
      r.suite = tz::make_defender_suite(r.original, options.testgen);
    }
    c->add_suite(r.suite);
    r.atpg_coverage = r.suite.algorithms.front().coverage.coverage();
    Span s(t, "tech.analyze");
    r.p_n = pm->analyze(r.original).totals;
  }

  tz::FlowEngine engine(r.original, r.suite, *pm);
  if (arts != nullptr) engine.set_shared(&arts->shared);
  tz::SalvageOptions sopt;
  sopt.pth = options.pth;
  sopt.order = options.order;
  sopt.threads = options.threads;
  {
    Span s(t, "core.salvage");
    r.salvage = engine.salvage(sopt);
  }
  r.p_np = r.salvage.power_after;

  tz::InsertionOptions iopt = options.insertion;
  if (iopt.library.empty()) {
    for (int bits = options.counter_bits; bits >= 2; --bits) {
      iopt.library.push_back(tz::counter_trojan(bits));
    }
    iopt.library.push_back(tz::counter_trojan(0));
  }
  if (iopt.threads == 0) iopt.threads = options.threads;
  {
    Span s(t, "core.insert");
    r.insertion = engine.insert(r.salvage, iopt);
  }
  r.p_npp = r.insertion.power;
  if (r.insertion.success) {
    std::size_t test_len = 0;
    for (const tz::DefenderTestSet& ts : r.suite.algorithms) {
      test_len += ts.patterns.num_patterns();
    }
    r.pft = tz::analytic_pft(r.insertion.trigger_p1, test_len, 0);
    r.pft_payload = tz::analytic_pft(r.insertion.trigger_p1, test_len,
                                     r.insertion.ht_desc.counter_bits);
  }

  r.meta.circuit = name;
  r.meta.seed = options.testgen.seed;
  r.meta.gates = r.original.gate_count();
  r.meta.inputs = r.original.inputs().size();
  r.meta.outputs = r.original.outputs().size();
  for (const tz::DefenderTestSet& ts : r.suite.algorithms) {
    r.meta.suite_patterns.push_back(ts.patterns.num_patterns());
  }
  r.meta.eval_plan = tz::eval_plan_enabled();
  r.meta.fault_mode = std::string(tz::to_string(tz::fault_sim_mode()));
  r.meta.threads = tz::resolve_threads(options.threads);
  c->add_flow(r);
  return r;
}

/// The product's ArtifactStore (campaign/artifacts.cpp) with a span around
/// each layer call and around every wait on a build lock, so time a job
/// spends blocked behind another job's build shows as campaign.wait.
class TracedStore {
 public:
  tz::SharedArtifacts get_job_inputs(const std::string& circuit,
                                     const tz::TestGenOptions& testgen,
                                     Tracer* t, Counters* c) {
    const tz::SuiteArtifacts& suite = get_suite(circuit, testgen, t, c);
    tz::SharedArtifacts out;
    out.circuit = suite.circuit;
    out.defender = &suite;
    out.pm = &pm_;
    out.shared.salvage_oracle = suite.oracle.get();
    out.shared.golden_totals = &suite.circuit->golden_totals;
    return out;
  }

  std::size_t suite_count() {
    std::lock_guard<std::mutex> lk(mu_);
    return suites_.size();
  }

 private:
  struct CircuitEntry {
    std::mutex build_mu;
    bool built = false;  // guarded by build_mu
    tz::CircuitArtifacts art;
  };
  struct SuiteEntry {
    std::mutex build_mu;
    bool built = false;  // guarded by build_mu
    tz::SuiteArtifacts art;
  };

  template <class Entry>
  Entry* slot(std::map<std::string, std::unique_ptr<Entry>>& map,
              const std::string& key) {
    std::lock_guard<std::mutex> lk(mu_);
    std::unique_ptr<Entry>& e = map[key];
    if (!e) e = std::make_unique<Entry>();
    return e.get();
  }

  static std::unique_lock<std::mutex> wait_for(std::mutex& m, Tracer* t) {
    Span s(t, "campaign.wait");
    return std::unique_lock<std::mutex>(m);
  }

  const tz::CircuitArtifacts& get_circuit(const std::string& name,
                                          Tracer* t) {
    CircuitEntry* e = slot(circuits_, name);
    const std::unique_lock<std::mutex> build = wait_for(e->build_mu, t);
    if (!e->built) {
      e->art.name = name;
      {
        Span s(t, "gen.make_benchmark");
        e->art.netlist = tz::make_benchmark(name);
      }
      e->art.compacted = e->art.netlist.compact();
      Span s(t, "tech.analyze");
      e->art.golden_totals = pm_.analyze(e->art.netlist).totals;
      e->built = true;
    }
    return e->art;
  }

  const tz::SuiteArtifacts& get_suite(const std::string& circuit,
                                      const tz::TestGenOptions& opt,
                                      Tracer* t, Counters* c) {
    const tz::CircuitArtifacts& cart = get_circuit(circuit, t);
    SuiteEntry* e =
        slot(suites_, circuit + "|" + tz::testgen_fingerprint(opt));
    const std::unique_lock<std::mutex> build = wait_for(e->build_mu, t);
    if (!e->built) {
      tz::SuiteArtifacts& art = e->art;
      art.circuit = &cart;
      {
        Span s(t, "atpg.make_defender_suite");
        art.suite = tz::make_defender_suite(cart.netlist, opt);
      }
      c->add_suite(art.suite);
      if (!art.suite.algorithms.empty()) {
        art.atpg_coverage = art.suite.algorithms.front().coverage.coverage();
      }
      Span s(t, "core.suite_oracle");
      auto oracle = std::make_unique<tz::SuiteOracle>(cart.compacted, art.suite);
      if (!oracle->sequential()) art.oracle = std::move(oracle);
      e->built = true;
    }
    return e->art;
  }

  tz::PowerModel pm_{tz::CellLibrary::tsmc65_like()};
  std::mutex mu_;  // guards the two maps (entries themselves are stable)
  std::map<std::string, std::unique_ptr<CircuitEntry>> circuits_;
  std::map<std::string, std::unique_ptr<SuiteEntry>> suites_;
};

// ------------------------------------------------------------ campaign1k

tz::CampaignGrid campaign_grid(const Config& cfg) {
  tz::CampaignGrid g = tz::CampaignGrid::preset("campaign1k");
  for (std::uint64_t& s : g.seeds) s += cfg.seed;
  if (cfg.short_mode) {  // one suite key: 4 jobs
    g.circuits.resize(1);
    g.seeds.resize(1);
  }
  return g;
}

struct CampaignRun {
  std::string merged;
  std::string error;
  std::size_t jobs = 0;
  double wall_ms = 0.0;
  std::vector<double> job_ms;  ///< Per-job wall from the checkpoint rows.
};

CampaignRun product_campaign(const tz::CampaignGrid& grid,
                             const std::string& dir, std::size_t threads) {
  fs::remove_all(dir);
  tz::CampaignOptions opt;
  opt.out_dir = dir;
  opt.threads = threads;
  CampaignRun run;
  const auto t0 = Clock::now();
  try {
    const tz::CampaignRunStats st = tz::run_campaign(grid, opt);
    run.jobs = st.completed + st.failed;
    run.merged = tz::merge_campaign(grid, dir, 1);
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  run.wall_ms = ms_since(t0);
  // The merge zeroes wall_ms, so per-job latency comes from the checkpoint.
  std::ifstream in(tz::shard_file(dir, 0, 1));
  for (std::string line; std::getline(in, line);) {
    const tz::Json row = tz::Json::parse(line);
    if (const tz::Json* res = row.find("result")) {
      run.job_ms.push_back(res->get("meta").get("wall_ms").as_double());
    }
  }
  return run;
}

/// run_campaign + merge_campaign replayed with spans: the same pool, the
/// same per-job steps (artifacts, flow, JSON codec, checkpoint append) and
/// the product's merge over the replay's checkpoint.
std::string replay_campaign(const tz::CampaignGrid& grid,
                            const std::string& dir, std::size_t threads,
                            Tracer* t, Counters* c, Report& rep) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::vector<tz::JobSpec> jobs = grid.expand();
  TracedStore store;
  std::ofstream out(tz::shard_file(dir, 0, 1), std::ios::binary);
  std::mutex io_mu;
  const auto t0 = Clock::now();
  tz::ThreadPool pool(threads);
  pool.parallel_for(jobs.size(), [&](std::size_t k, std::size_t worker) {
    Tracer::set_thread(static_cast<unsigned>(worker));
    Span op(t, "op", static_cast<int>(k));
    const tz::JobSpec r = jobs[k].resolved();
    tz::Json row = tz::Json(tz::JsonObject{});
    row.set("id", jobs[k].id());
    row.set("spec", jobs[k].to_json());
    std::string line;
    try {
      tz::SharedArtifacts arts;
      {
        Span s(t, "campaign.artifacts");
        arts = store.get_job_inputs(r.circuit, r.testgen(), t, c);
      }
      const tz::FlowResult fr =
          replay_flow(r.circuit, r.flow_options(), &arts, t, c);
      Span s(t, "campaign.codec");
      row.set("result", tz::flow_result_to_json(fr));
      line = row.dump();
    } catch (const std::exception& e) {
      row.set("error", std::string(e.what()));
      line = row.dump();
    }
    Span s(t, "campaign.checkpoint");
    const std::lock_guard<std::mutex> lk(io_mu);
    out << line << '\n';
    out.flush();
  });
  Tracer::set_thread(0);
  std::string merged;
  {
    Span s(t, "campaign.merge");
    merged = tz::merge_campaign(grid, dir, 1);
  }
  rep.traced_ms += ms_since(t0);
  rep.suite_keys = static_cast<double>(store.suite_count());
  return merged;
}

/// Re-run a seeded sample of jobs, one per circuit, on the cold path (no
/// artifact sharing) and hold the merged rows to them; their N'' also go
/// through the defender and power gates.
void check_cold_sample(const Config& cfg, const tz::CampaignGrid& grid,
                       const std::string& merged, Report& rep) {
  std::map<std::string, std::string> result_by_id;
  std::size_t pos = merged.find('\n');  // skip the header line
  while (pos != std::string::npos && pos + 1 < merged.size()) {
    const std::size_t end = merged.find('\n', pos + 1);
    const tz::Json row = tz::Json::parse(
        std::string_view(merged).substr(pos + 1, end - pos - 1));
    if (const tz::Json* res = row.find("result")) {
      result_by_id[row.get("id").as_string()] = res->dump();
    }
    pos = end;
  }
  const std::vector<tz::JobSpec> jobs = grid.expand();
  const std::size_t per_circuit = jobs.size() / grid.circuits.size();
  const tz::PowerModel pm(tz::CellLibrary::tsmc65_like());
  for (std::size_t ci = 0; ci < grid.circuits.size(); ++ci) {
    const std::size_t pick =
        ci * per_circuit + splitmix64(cfg.seed ^ ci) % per_circuit;
    const tz::JobSpec spec = jobs[pick].resolved();
    const tz::FlowResult cold =
        tz::run_trojanzero_flow(spec.circuit, spec.flow_options());
    const auto it = result_by_id.find(jobs[pick].id());
    if (it == result_by_id.end() || it->second != canonical_row(cold)) {
      rep.check("campaign row " + jobs[pick].id() +
                " differs from its cold re-run");
    }
    rep.check(check_flow(cold, pm, pm.analyze(cold.original).totals));
  }
}

void run_campaign1k(const Config& cfg, Report& rep, Tracer* t, Counters* c) {
  const std::string dir = cfg.workdir + "/campaign1k-product";
  if (t == nullptr) {
    // Set-up: the grid, its expansion and every job id, which is what
    // run_campaign derives before its first job. The sweep pays its
    // artifact builds inside its jobs by design. Half the repetitions run
    // before the sweep and half after it, so the median spans the run.
    const int reps = cfg.short_mode ? 1 : kSetupRepsCampaign;
    tz::CampaignGrid grid;
    std::size_t jobs = 0;
    const auto set_up = [&] {
      const auto t0 = Clock::now();
      grid = campaign_grid(cfg);
      std::vector<std::string> ids;
      for (const tz::JobSpec& spec : grid.expand()) ids.push_back(spec.id());
      jobs = ids.size();
      rep.setup_s.push_back(ms_since(t0) / 1e3);
    };
    for (int i = 0; i < (reps + 1) / 2; ++i) set_up();
    // A run is exactly one sweep (~30 s), whatever --seconds says: a second
    // sweep would double the run for no new kind of work. The sweep is the
    // run's only op, so op_ms_p50 is its wall: campaign1k has no steady
    // per-job latency (see README).
    CampaignRun run = product_campaign(grid, dir, cfg.threads);
    fs::remove_all(dir);
    for (int i = (reps + 1) / 2; i < reps; ++i) set_up();
    rep.timed_wall_s = run.wall_ms / 1e3;
    rep.ops = run.jobs;
    rep.attempted = jobs;
    rep.add_op("campaign", run.wall_ms);
    if (!run.job_ms.empty()) {
      std::vector<double>& ms = run.job_ms;
      std::sort(ms.begin(), ms.end());
      rep.notes.push_back("job_wall_ms p50 " + std::to_string(ms[ms.size() / 2]) +
                          " p90 " + std::to_string(ms[ms.size() * 9 / 10]) +
                          " n " + std::to_string(ms.size()));
    }
    if (!run.error.empty()) {
      rep.check("campaign: " + run.error);
      return;
    }
    rep.check(check_campaign_rows(run.merged, jobs));
    rep.check(check_campaign_digest(run.merged, cfg.short_mode, cfg.seed));
    rep.notes.push_back("merged_digest " + digest_hex(run.merged));
    check_cold_sample(cfg, grid, run.merged, rep);
    return;
  }

  const tz::CampaignGrid grid = campaign_grid(cfg);
  const CampaignRun run = product_campaign(grid, dir, cfg.threads);
  rep.untraced_ms += run.wall_ms;
  const std::string replay_dir = cfg.workdir + "/campaign1k-replay";
  const std::string merged =
      replay_campaign(grid, replay_dir, cfg.threads, t, c, rep);
  rep.attempted += grid.expand().size();
  rep.check(run.error.empty() ? "" : "campaign: " + run.error);
  rep.check(check_campaign_rows(merged, grid.expand().size()));
  rep.check(merged == run.merged
                ? ""
                : "replayed campaign merge differs from the product's");
  rep.check(check_campaign_digest(merged, cfg.short_mode, cfg.seed));
  rep.busy_ms = t->total_ms("op") - t->total_ms("campaign.wait");
  rep.notes.push_back("merged_digest " + digest_hex(merged));
  fs::remove_all(dir);
  fs::remove_all(replay_dir);
}

// ---------------------------------------------------------------- table1

tz::FlowOptions table1_options(const Config& cfg, const std::string& name) {
  const tz::BenchmarkSpec& spec = tz::spec_for(name);
  tz::FlowOptions opt;
  opt.pth = spec.pth;
  opt.counter_bits = spec.counter_bits;
  opt.testgen.seed = testgen_seed(cfg);
  opt.threads = cfg.threads;
  return opt;
}

void run_table1(const Config& cfg, Report& rep, Tracer* t, Counters* c) {
  // Every op is a cold flow, so set-up holds only the resolved options and
  // the power gate's reference: each circuit generated and analyzed once,
  // independently of the flows under test. It is rebuilt, as one more timed
  // set-up, after every cycle, so the set-up median samples the same
  // stretch of time as the ops.
  const std::size_t cycle = cfg.short_mode ? 1 : kTable1Circuits.size();
  const tz::PowerModel pm(tz::CellLibrary::tsmc65_like());
  std::vector<tz::FlowOptions> opts;
  std::vector<tz::PowerReport> caps;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    opts.clear();
    caps.clear();
    for (std::size_t k = 0; k < cycle; ++k) {
      opts.push_back(table1_options(cfg, kTable1Circuits[k]));
      caps.push_back(pm.analyze(tz::make_benchmark(kTable1Circuits[k])).totals);
    }
    rep.setup_s.push_back(ms_since(t0) / 1e3);
  };
  set_up();

  if (t == nullptr) {
    // Cycle n runs every circuit with defender testgen seed base + n, so a
    // run averages over many defender suites and runs at neighbouring seeds
    // share most of them, as campaign1k's seed window does.
    for (std::uint64_t n = 0;; ++n) {
      for (std::size_t k = 0; k < cycle; ++k) {
        tz::FlowOptions opt = opts[k];
        opt.testgen.seed += n;
        const auto t0 = Clock::now();
        const tz::FlowResult r =
            tz::run_trojanzero_flow(kTable1Circuits[k], opt);
        const double ms = ms_since(t0);
        rep.add_op(kTable1Circuits[k], ms);
        rep.timed_wall_s += ms / 1e3;
        ++rep.ops;
        ++rep.attempted;
        rep.check(check_flow(r, pm, caps[k]));
      }
      if (rep.timed_wall_s >= cfg.seconds || cfg.short_mode) return;
      set_up();
    }
  }

  for (std::size_t k = 0; k < cycle; ++k) {
    auto t0 = Clock::now();
    const tz::FlowResult product =
        tz::run_trojanzero_flow(kTable1Circuits[k], opts[k]);
    rep.untraced_ms += ms_since(t0);
    t0 = Clock::now();
    tz::FlowResult replay;
    {
      Span op(t, "op", static_cast<int>(k));
      replay = replay_flow(kTable1Circuits[k], opts[k], nullptr, t, c);
    }
    rep.traced_ms += ms_since(t0);
    ++rep.attempted;
    rep.check(check_flow(product, pm, caps[k]));
    rep.check(check_same_row(product, replay));
  }
}

// --------------------------------------------------------- equiv-rand10k

/// 32 evenly spaced 2-input ANDs rewritten as NOR(NOT a, NOT b): equivalent
/// to the original by De Morgan (the BM_SatEquivalence100k proof case).
tz::Netlist demorgan_rewrites(const tz::Netlist& original) {
  tz::Netlist nl = original;
  std::vector<tz::NodeId> ands;
  for (const tz::NodeId id : nl.topo_order()) {
    if (nl.node(id).type == tz::GateType::And &&
        nl.node(id).fanin.size() == 2) {
      ands.push_back(id);
    }
  }
  const std::size_t step = std::max<std::size_t>(1, ands.size() / 32);
  int done = 0;
  for (std::size_t i = 0; i < ands.size() && done < 32; i += step, ++done) {
    const tz::NodeId g = ands[i];
    const auto fan = nl.node(g).fanin;
    const std::string tag = "dm" + std::to_string(done);
    const tz::NodeId na = nl.add_gate(tz::GateType::Not, tag + "_a", {fan[0]});
    const tz::NodeId nb = nl.add_gate(tz::GateType::Not, tag + "_b", {fan[1]});
    const tz::NodeId ng = nl.add_gate(tz::GateType::Nor, tag + "_g", {na, nb});
    nl.replace_uses(g, ng);
    nl.remove_node(g);
  }
  return nl;
}

/// A copy of `n` with gate `g` tied to 1: one salvage-shaped edit.
tz::Netlist tied_copy(const tz::Netlist& n, tz::NodeId g) {
  tz::Netlist w = n;
  tz::tie_to_constant(w, g, true);
  return w;
}

/// `count` gates of `n` whose one-probability is >= Pth and whose tie to 1
/// changes the circuit's function (a replayed SAT witness confirms it) where
/// random simulation does not see it. The seed picks the start among the
/// kWitnessWindow deepest such gates; the walk goes shallower from there and
/// keeps the first `count` that qualify. A deep tie only reaches outputs
/// late in the miter's topological output order, so every witness search
/// proves nearly every output equal first.
std::vector<tz::NodeId> pick_witness_gates(const tz::Netlist& n,
                                           std::uint64_t seed,
                                           std::size_t count) {
  const tz::SignalProb sp(n);
  std::vector<std::size_t> pos(n.raw_size(), 0);
  const std::vector<tz::NodeId> topo = n.topo_order();
  for (std::size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  std::vector<tz::NodeId> rare;
  for (const tz::Candidate& cand : tz::find_candidates(n, sp, kDefaultPth)) {
    if (cand.tie_value) rare.push_back(cand.node);
  }
  if (rare.empty()) throw std::runtime_error(n.name() + " has no Pth gate");
  std::sort(rare.begin(), rare.end(), [&pos](tz::NodeId a, tz::NodeId b) {
    return pos[a] > pos[b];
  });
  std::vector<tz::NodeId> picked;
  const std::size_t window = std::min(rare.size(), kWitnessWindow);
  for (std::size_t i = splitmix64(seed) % window;
       i < rare.size() && picked.size() < count; ++i) {
    const tz::Netlist w = tied_copy(n, rare[i]);
    tz::sat::IncrementalMiter miter(n, w);  // production options
    const tz::sat::EquivalenceResult r = miter.check();
    if (!miter.stats().prepass_hit &&
        check_equivalence_result(n, w, r, false).empty()) {
      picked.push_back(rare[i]);
    }
  }
  if (picked.size() < count) {
    throw std::runtime_error("too few function-changing Pth ties in " +
                             n.name());
  }
  return picked;
}

struct EquivInputs {
  tz::Netlist n, proof;
  std::vector<tz::Netlist> witnesses;
};

/// Generate the circuit, its De Morgan proof copy and one witness copy per
/// picked gate. make_benchmark is deterministic, so gate ids picked on one
/// build hold for every later build.
EquivInputs make_equiv_inputs(const std::vector<tz::NodeId>& gates,
                              Tracer* t) {
  EquivInputs in;
  {
    Span s(t, "gen.make_benchmark");
    in.n = tz::make_benchmark(kEquivCircuit);
  }
  in.proof = demorgan_rewrites(in.n);
  for (const tz::NodeId g : gates) in.witnesses.push_back(tied_copy(in.n, g));
  return in;
}

bool same_verdict(const tz::sat::EquivalenceResult& a,
                  const tz::sat::EquivalenceResult& b) {
  return a.equivalent == b.equivalent && a.decided == b.decided &&
         a.counterexample == b.counterexample &&
         a.failing_output == b.failing_output;
}

/// check_equivalence (sat/equivalence.cpp) replayed with its miter stats.
tz::sat::EquivalenceResult replay_check(const tz::Netlist& a,
                                        const tz::Netlist& b, Tracer* t,
                                        Counters* c) {
  tz::sat::MiterOptions opts;
  if (const char* e = std::getenv("TZ_SAT_PREPASS")) {
    opts.prepass = std::string_view(e) != "0";
  }
  Span s(t, "sat.check");
  tz::sat::IncrementalMiter miter(a, b, opts);
  const tz::sat::EquivalenceResult r = miter.check();
  c->add_miter(miter.stats(), miter.solver().stats().conflicts,
               miter.solver().stats().propagations);
  return r;
}

void run_equiv(const Config& cfg, Report& rep, Tracer* t, Counters* c) {
  // The witness gates are picked and confirmed once, untimed: the search
  // is the benchmark's own input selection, not work the ops reuse.
  const std::size_t cycle = cfg.short_mode ? 1 : kWitnesses;
  const std::vector<tz::NodeId> gates =
      pick_witness_gates(tz::make_benchmark(kEquivCircuit), cfg.seed, cycle);
  std::optional<EquivInputs> in;
  const auto set_up = [&] {
    in.reset();
    const auto t0 = Clock::now();
    in.emplace(make_equiv_inputs(gates, t));
    rep.setup_s.push_back(ms_since(t0) / 1e3);
  };
  set_up();

  // One op: the proof check, then one witness check, cycling the witnesses.
  // Timing the two as a pair keeps each witness's latencies unimodal. The
  // inputs are rebuilt, as one more timed set-up, after every
  // kOpsPerSetupEquiv ops, so the set-up median samples the same stretch of
  // time as the ops.
  if (t == nullptr) {
    do {
      const std::size_t k = rep.ops % cycle;
      const tz::Netlist& w = in->witnesses[k];
      const auto t0 = Clock::now();
      const tz::sat::EquivalenceResult proof =
          tz::sat::check_equivalence(in->n, in->proof);
      const tz::sat::EquivalenceResult witness =
          tz::sat::check_equivalence(in->n, w);
      const double ms = ms_since(t0);
      rep.add_op("witness" + std::to_string(k), ms);
      rep.timed_wall_s += ms / 1e3;
      ++rep.ops;
      ++rep.attempted;
      rep.check(check_equivalence_result(in->n, in->proof, proof, true));
      rep.check(check_equivalence_result(in->n, w, witness, false));
      if (rep.ops % kOpsPerSetupEquiv == 0) set_up();
    } while (rep.timed_wall_s < cfg.seconds && !cfg.short_mode);
    return;
  }

  for (std::size_t k = 0; k < cycle; ++k) {
    const tz::Netlist& w = in->witnesses[k];
    auto t0 = Clock::now();
    const tz::sat::EquivalenceResult proof =
        tz::sat::check_equivalence(in->n, in->proof);
    const tz::sat::EquivalenceResult witness =
        tz::sat::check_equivalence(in->n, w);
    rep.untraced_ms += ms_since(t0);
    t0 = Clock::now();
    tz::sat::EquivalenceResult proof_replay, witness_replay;
    {
      Span op(t, "op", static_cast<int>(k));
      proof_replay = replay_check(in->n, in->proof, t, c);
      witness_replay = replay_check(in->n, w, t, c);
    }
    rep.traced_ms += ms_since(t0);
    ++rep.attempted;
    rep.check(check_equivalence_result(in->n, in->proof, proof, true));
    rep.check(check_equivalence_result(in->n, w, witness, false));
    rep.check(same_verdict(proof, proof_replay) &&
                      same_verdict(witness, witness_replay)
                  ? ""
                  : "replayed equivalence checks differ from the product's");
  }
}

}  // namespace

// --------------------------------------------------------------- Counters

void Counters::add_suite(const tz::DefenderSuite& suite) {
  const std::lock_guard<std::mutex> lk(mu);
  ++suites;
  for (const tz::DefenderTestSet& ts : suite.algorithms) {
    patterns += static_cast<double>(ts.patterns.num_patterns());
    podem_aborts += static_cast<double>(ts.aborted);
    untestable += static_cast<double>(ts.untestable);
  }
  if (!suite.algorithms.empty()) {
    coverage_sum += suite.algorithms.front().coverage.coverage();
  }
}

void Counters::add_flow(const tz::FlowResult& r) {
  const std::lock_guard<std::mutex> lk(mu);
  candidates += static_cast<double>(r.salvage.candidates);
  accepted += static_cast<double>(r.salvage.accepted.size());
  insert_tries += r.insertion.tried_locations;
  insert_rejects += r.insertion.fail_build + r.insertion.fail_test +
                    r.insertion.fail_caps;
  dummy_gates += static_cast<double>(r.insertion.dummy_gates);
  ht_inserted += r.insertion.success ? 1 : 0;
}

void Counters::add_miter(const tz::sat::MiterStats& m,
                         std::int64_t conflicts_, std::int64_t propagations_) {
  const std::lock_guard<std::mutex> lk(mu);
  sat_calls += static_cast<double>(m.sat_calls);
  outputs_proved += static_cast<double>(m.outputs_proved);
  outputs_shared += static_cast<double>(m.outputs_shared);
  sweep_merges += static_cast<double>(m.sweep_merges);
  prepass_hits += m.prepass_hit ? 1 : 0;
  conflicts += static_cast<double>(conflicts_);
  propagations += static_cast<double>(propagations_);
}

// -------------------------------------------------------------- dispatch

void run_workload(const Config& cfg, Report& rep, Tracer* tracer,
                  Counters* counters) {
  fs::create_directories(cfg.workdir);
  if (cfg.workload == "campaign1k") {
    run_campaign1k(cfg, rep, tracer, counters);
  } else if (cfg.workload == "table1") {
    run_table1(cfg, rep, tracer, counters);
  } else if (cfg.workload == "equiv-rand10k") {
    run_equiv(cfg, rep, tracer, counters);
  } else {
    throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
  }
}

// ------------------------------------------------------------- self-test

std::vector<std::pair<std::string, bool>> gate_self_test(const Config& cfg) {
  std::vector<std::pair<std::string, bool>> out;
  // Each case: the gate passes on the good result and trips on the
  // corrupted one.
  const auto record = [&out](const std::string& name, const std::string& good,
                             const std::string& bad) {
    out.emplace_back(name, good.empty() && !bad.empty());
  };

  const tz::FlowResult r = tz::run_trojanzero_flow("c432");
  if (!r.insertion.success) throw std::runtime_error("c432: no HT inserted");
  const tz::PowerModel pm(tz::CellLibrary::tsmc65_like());
  const tz::PowerReport caps = pm.analyze(r.original).totals;
  {
    // Complement the driver of the first output: a visible functional change.
    tz::Netlist bad = r.insertion.infected;
    const tz::NodeId po = bad.outputs().front();
    const tz::GateType ty = bad.node(po).type;
    static const std::map<tz::GateType, tz::GateType> kFlip = {
        {tz::GateType::And, tz::GateType::Nand},
        {tz::GateType::Nand, tz::GateType::And},
        {tz::GateType::Or, tz::GateType::Nor},
        {tz::GateType::Nor, tz::GateType::Or},
        {tz::GateType::Xor, tz::GateType::Xnor},
        {tz::GateType::Xnor, tz::GateType::Xor},
        {tz::GateType::Buf, tz::GateType::Not},
        {tz::GateType::Not, tz::GateType::Buf}};
    bad.retype(po, kFlip.at(ty));
    record("defender_pass", check_defender_pass(r.insertion.infected, r.suite),
           check_defender_pass(bad, r.suite));
  }
  {
    // Unread gates are invisible to the defender but cost power and area.
    tz::Netlist bad = r.insertion.infected;
    const std::vector<tz::NodeId> pis = bad.inputs();
    for (int i = 0; i < 64; ++i) {
      bad.add_gate(tz::GateType::And, "pad" + std::to_string(i),
                   {pis[i % pis.size()], pis[(i + 1) % pis.size()]});
    }
    record("power_caps", check_caps(r.insertion.infected, pm, caps),
           check_caps(bad, pm, caps));
  }

  {
    tz::FlowResult bad = r;
    bad.pft += 1.0;
    record("same_row", check_same_row(r, r), check_same_row(r, bad));
  }

  // The campaign cases use the --short grid at seed 0, whose merged digest
  // is pinned.
  Config small = cfg;
  small.short_mode = true;
  small.seed = 0;
  const tz::CampaignGrid grid = campaign_grid(small);
  const std::size_t jobs = grid.expand().size();
  const std::string dir = cfg.workdir + "/selftest-campaign";
  const CampaignRun run = product_campaign(grid, dir, cfg.threads);
  if (!run.error.empty()) throw std::runtime_error(run.error);
  const std::size_t last_row = run.merged.rfind('\n', run.merged.size() - 2);
  {
    const std::string dropped = run.merged.substr(0, last_row + 1);
    record("campaign_rows", check_campaign_rows(run.merged, jobs),
           check_campaign_rows(dropped, jobs));
  }
  {
    const tz::Json row = tz::Json::parse(std::string_view(run.merged).substr(
        last_row + 1, run.merged.size() - last_row - 2));
    tz::Json err = tz::Json(tz::JsonObject{});
    err.set("id", row.get("id"));
    err.set("spec", row.get("spec"));
    err.set("error", "injected");
    const std::string bad =
        run.merged.substr(0, last_row + 1) + err.dump() + "\n";
    record("campaign_error_row", check_campaign_rows(run.merged, jobs),
           check_campaign_rows(bad, jobs));
  }
  {
    // A duplicated checkpoint row breaks the CampaignChecker bijection.
    const std::string shard = tz::shard_file(dir, 0, 1);
    std::string first;
    std::getline(std::ifstream(shard), first);
    std::ofstream(shard, std::ios::app) << first << '\n';
    std::string why;
    try {
      tz::merge_campaign(grid, dir, 1);
    } catch (const std::exception& e) {
      why = std::string("merge rejected the checkpoint: ") + e.what();
    }
    record("campaign_checker", "", why);
  }
  {
    std::string bad = run.merged;
    bad[bad.size() / 2] ^= 1;
    record("campaign_digest", check_campaign_digest(run.merged, true, 0),
           check_campaign_digest(bad, true, 0));
  }
  {
    // Every row's result rewritten: whichever job the sample re-runs cold
    // no longer matches.
    std::string bad;
    std::size_t pos = 0;
    for (std::size_t end; (end = run.merged.find('\n', pos)) !=
                          std::string::npos;
         pos = end + 1) {
      tz::Json row = tz::Json::parse(
          std::string_view(run.merged).substr(pos, end - pos));
      if (tz::Json* res = row.find("result")) res->set("benchmark", "bad");
      bad += row.dump() + "\n";
    }
    Report good_rep, bad_rep;
    check_cold_sample(small, grid, run.merged, good_rep);
    check_cold_sample(small, grid, bad, bad_rep);
    record("campaign_cold_sample",
           good_rep.failures.empty() ? "" : good_rep.failures.front(),
           bad_rep.failures.empty() ? "" : bad_rep.failures.front());
  }
  fs::remove_all(dir);

  {
    const tz::Netlist a = tz::make_benchmark("rand1k");
    const tz::Netlist w =
        tied_copy(a, pick_witness_gates(a, cfg.seed, 1).front());
    const tz::sat::EquivalenceResult res = tz::sat::check_equivalence(a, w);
    tz::sat::EquivalenceResult flipped = res;
    flipped.equivalent = !flipped.equivalent;
    record("equiv_verdict", check_equivalence_result(a, w, res, false),
           check_equivalence_result(a, w, flipped, false));
    // The witness replayed against an identical copy cannot differ.
    record("equiv_witness", check_equivalence_result(a, w, res, false),
           check_equivalence_result(a, a, res, false));
  }
  return out;
}

}  // namespace perfbench
