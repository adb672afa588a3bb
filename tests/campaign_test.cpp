// Campaign engine tests (src/campaign/): the deterministic JSON wire
// format, JobSpec identity/resolution, the artifact layer's shared-vs-cold
// bit-identity, grid expansion + sharding, the checkpoint/resume/merge
// byte-identity contract across shard and thread counts (including a
// simulated mid-shard kill with a torn trailing line), the CampaignChecker
// corruption tests (one per Camp* CheckId), and the cgroup CPU-quota
// parsers behind ThreadPool's thread resolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/artifacts.hpp"
#include "campaign/driver.hpp"
#include "campaign/job.hpp"
#include "campaign/json.hpp"
#include "core/report.hpp"
#include "gen/iscas.hpp"
#include "util/thread_pool.hpp"
#include "verify/verify.hpp"

namespace tz {
namespace {

namespace fs = std::filesystem;

// Fresh per-test scratch directory under the gtest temp root.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("tz_campaign_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// The small multi-circuit grid the scheduler tests sweep: two circuits so
// multi-shard runs exercise both populated and empty shards, two seeds so
// the suite tier of the ArtifactStore holds more than one entry.
CampaignGrid small_grid() {
  CampaignGrid g;
  g.name = "test";
  g.circuits = {"c17", "c432"};
  g.seeds = {0, 11};
  return g;
}

// ------------------------------------------------------------------- JSON

TEST(CampaignJson, DumpIsDeterministicAndParseRoundTrips) {
  Json obj = Json(JsonObject{});
  obj.set("b", 1);
  obj.set("a", Json(JsonArray{Json(true), Json(nullptr), Json("x\"\n")}));
  obj.set("d", 0.1);
  const std::string text = obj.dump();
  // Insertion order, not sorted order; to_chars shortest double.
  EXPECT_EQ(text, "{\"b\":1,\"a\":[true,null,\"x\\\"\\n\"],\"d\":0.1}");
  EXPECT_EQ(Json::parse(text).dump(), text);
}

TEST(CampaignJson, NumbersRoundTripExactly) {
  // Shortest-round-trip doubles re-parse to the same bits.
  for (const double v : {0.992, 1.0 / 3.0, 1e-17, 123456.789, -0.0078125}) {
    const std::string text = Json(v).dump();
    EXPECT_EQ(Json::parse(text).as_double(), v) << text;
    EXPECT_EQ(Json::parse(text).dump(), text);
  }
  EXPECT_EQ(Json::parse("9223372036854775807").as_int(),
            INT64_C(9223372036854775807));
}

TEST(CampaignJson, MalformedInputThrowsWithOffset) {
  EXPECT_THROW(Json::parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,2"), std::runtime_error);
  EXPECT_THROW(Json::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
  // Typed accessors fail loudly on mismatches.
  EXPECT_THROW(Json::parse("[1]").as_object(), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\":1}").get("b"), std::runtime_error);
}

// ---------------------------------------------------------------- JobSpec

TEST(CampaignJob, SpecResolvesTableDefaultsAndId) {
  JobSpec s;
  s.circuit = "c432";
  const JobSpec r = s.resolved();
  EXPECT_EQ(r.pth, spec_for("c432").pth);
  EXPECT_EQ(r.counter_bits, spec_for("c432").counter_bits);
  EXPECT_EQ(r.seed, TestGenOptions{}.seed);
  EXPECT_EQ(r.trigger_width, 2);
  // threads is intentionally not part of the identity.
  JobSpec t = s;
  t.threads = 8;
  EXPECT_EQ(s.id(), t.id());
  EXPECT_NE(s.id().find("c432|pth="), std::string::npos);
}

TEST(CampaignJob, SpecJsonRoundTripPreservesIdentity) {
  JobSpec s;
  s.circuit = "c880";
  s.seed = 42;
  s.counter_bits = 2;
  s.trigger_width = 4;
  s.defender = "atpg+rand";
  s.order = 'l';
  const JobSpec back = JobSpec::from_json(s.to_json());
  EXPECT_EQ(back.id(), s.id());
  EXPECT_EQ(s.to_json().dump(), back.to_json().dump());
}

TEST(CampaignJob, UnknownDefenderThrows) {
  JobSpec s;
  s.circuit = "c17";
  s.defender = "bogus";
  EXPECT_THROW(s.testgen(), std::runtime_error);
}

// ----------------------------------------------------- FlowResult wire fmt

TEST(CampaignJob, FlowResultJsonRoundTripsByteIdentically) {
  JobSpec s;
  s.circuit = "c17";
  ArtifactStore store;
  const FlowResult r = run_flow_job(s, store);

  // The FlowMeta stamp is populated by the flow itself.
  EXPECT_EQ(r.meta.circuit, "c17");
  EXPECT_EQ(r.meta.seed, TestGenOptions{}.seed);
  EXPECT_GT(r.meta.gates, 0u);
  EXPECT_GT(r.meta.inputs, 0u);
  EXPECT_FALSE(r.meta.suite_patterns.empty());
  EXPECT_GT(r.meta.total_patterns(), 0u);
  EXPECT_FALSE(r.meta.fault_mode.empty());
  EXPECT_GE(r.meta.threads, 1u);
  EXPECT_GT(r.meta.wall_ms, 0.0);

  const std::string wire = flow_result_to_json(r).dump();
  const FlowResult back = flow_result_from_json(Json::parse(wire));
  EXPECT_EQ(flow_result_to_json(back).dump(), wire);
  EXPECT_EQ(back.meta.gates, r.meta.gates);
  EXPECT_EQ(back.meta.suite_patterns, r.meta.suite_patterns);
  EXPECT_EQ(back.atpg_coverage, r.atpg_coverage);
  EXPECT_EQ(back.insertion.success, r.insertion.success);
}

// ---------------------------------------------------------- artifact layer

TEST(CampaignArtifacts, StoreBuildsOnceAndSharesAcrossJobs) {
  ArtifactStore store;
  JobSpec a;
  a.circuit = "c17";
  JobSpec b = a;
  b.counter_bits = 3;  // different HT shape, same circuit + defender suite
  run_flow_job(a, store);
  run_flow_job(b, store);
  EXPECT_EQ(store.circuit_count(), 1u);
  EXPECT_EQ(store.suite_count(), 1u);
  JobSpec c = a;
  c.seed = 7;  // new suite tier entry, same circuit tier entry
  run_flow_job(c, store);
  EXPECT_EQ(store.circuit_count(), 1u);
  EXPECT_EQ(store.suite_count(), 2u);
}

TEST(CampaignArtifacts, FailedBuildIsCachedAndNotCounted) {
  // A build that throws runs once: later requests rethrow the same error,
  // and the counters report built entries only.
  ArtifactStore store;
  std::string first;
  for (int i = 0; i < 3; ++i) {
    try {
      store.get_circuit("no_such_circuit");
      ADD_FAILURE() << "get_circuit accepted an unknown circuit";
    } catch (const std::exception& e) {
      if (i == 0) first = e.what();
      EXPECT_EQ(e.what(), first);
    }
  }
  EXPECT_NE(first.find("no_such_circuit"), std::string::npos);
  EXPECT_THROW(store.get_suite("no_such_circuit", TestGenOptions{}),
               std::exception);
  EXPECT_EQ(store.circuit_count(), 0u);
  EXPECT_EQ(store.suite_count(), 0u);
}

TEST(CampaignArtifacts, SharedJobBitIdenticalToColdFlow) {
  // The core artifact-layer contract: a job run against the shared store
  // (seeded oracle, cached suite/netlist/power) produces byte-for-byte the
  // same wire row as the legacy cold path with the same resolved options.
  for (const char* name : {"c17", "c432"}) {
    JobSpec s;
    s.circuit = name;
    ArtifactStore store;
    run_flow_job(s, store);  // warm the store so the second run shares
    FlowResult shared = run_flow_job(s, store);
    FlowResult cold = run_trojanzero_flow(name, s.flow_options());
    shared.meta.wall_ms = 0.0;
    cold.meta.wall_ms = 0.0;
    EXPECT_EQ(flow_result_to_json(shared).dump(),
              flow_result_to_json(cold).dump())
        << name;
  }
}

TEST(CampaignArtifacts, FingerprintSeparatesSuiteConfigs) {
  TestGenOptions a = FlowOptions::atpg_only_defender();
  TestGenOptions b = a;
  EXPECT_EQ(testgen_fingerprint(a), testgen_fingerprint(b));
  b.seed = 99;
  EXPECT_NE(testgen_fingerprint(a), testgen_fingerprint(b));
  b = a;
  b.random_patterns = 128;
  EXPECT_NE(testgen_fingerprint(a), testgen_fingerprint(b));
}

// ------------------------------------------------------------------- grid

TEST(CampaignGridTest, ExpansionIsCanonicalCrossProduct) {
  CampaignGrid g = small_grid();
  g.counter_bits = {2, 3};
  const std::vector<JobSpec> jobs = g.expand();
  ASSERT_EQ(jobs.size(), 2u * 2u * 2u);
  // Circuits outermost, then seeds, then counter_bits.
  EXPECT_EQ(jobs[0].circuit, "c17");
  EXPECT_EQ(jobs[0].seed, 0u);
  EXPECT_EQ(jobs[0].counter_bits, 2);
  EXPECT_EQ(jobs[1].counter_bits, 3);
  EXPECT_EQ(jobs[2].seed, 11u);
  EXPECT_EQ(jobs[4].circuit, "c432");
  // Expansion is deterministic and ids are unique.
  std::vector<std::string> ids;
  for (const JobSpec& j : jobs) ids.push_back(j.id());
  std::vector<std::string> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(CampaignGridTest, GridJsonRoundTrip) {
  CampaignGrid g = small_grid();
  g.counter_bits = {2, 3};
  g.trigger_widths = {2, 4};
  g.job_threads = 2;
  const CampaignGrid back = CampaignGrid::from_json(g.to_json());
  EXPECT_EQ(back.to_json().dump(), g.to_json().dump());
  EXPECT_EQ(back.expand().size(), g.expand().size());
}

TEST(CampaignGridTest, PresetsExpandToDocumentedSizes) {
  EXPECT_EQ(CampaignGrid::preset("table1").expand().size(),
            iscas85_specs().size());
  EXPECT_EQ(CampaignGrid::preset("fig3").expand().size(), 1u);
  EXPECT_EQ(CampaignGrid::preset("smoke").expand().size(), 8u);
  // The committed >=1k-job campaign config.
  EXPECT_EQ(CampaignGrid::preset("campaign1k").expand().size(), 1024u);
  EXPECT_THROW(CampaignGrid::preset("nope"), std::runtime_error);
}

TEST(CampaignGridTest, ShardingIsByCircuitAndInRange) {
  const std::vector<JobSpec> jobs = CampaignGrid::preset("smoke").expand();
  for (const std::size_t n : {1u, 2u, 4u, 7u}) {
    for (const JobSpec& j : jobs) {
      const std::size_t s = shard_of(j, n);
      EXPECT_LT(s, n);
      // Circuit affinity: every job of a circuit lands on the same shard.
      JobSpec other = j;
      other.seed = j.seed + 1;
      EXPECT_EQ(shard_of(other, n), s);
    }
  }
}

// -------------------------------------------------------- scheduler layer

// Run every shard of `grid` into `dir` and return the merged artifact.
std::string run_and_merge(const CampaignGrid& grid, const fs::path& dir,
                          std::size_t shards, std::size_t threads) {
  for (std::size_t s = 0; s < shards; ++s) {
    CampaignOptions opt;
    opt.out_dir = dir.string();
    opt.shard_index = s;
    opt.shard_count = shards;
    opt.threads = threads;
    const CampaignRunStats stats = run_campaign(grid, opt);
    EXPECT_EQ(stats.failed, 0u);
  }
  return merge_campaign(grid, dir.string(), shards);
}

TEST(CampaignDriver, MergedArtifactByteIdenticalAcrossShardsAndThreads) {
  const CampaignGrid grid = small_grid();
  const fs::path ref_dir = scratch_dir("ref");
  const std::string reference = run_and_merge(grid, ref_dir, 1, 1);
  ASSERT_FALSE(reference.empty());

  // The acceptance matrix: shard counts {2, 4} x thread counts {1, 8} all
  // reproduce the single-shard single-thread bytes (1x8 covers the
  // remaining cell).
  int config = 0;
  for (const std::size_t shards : {2u, 4u}) {
    for (const std::size_t threads : {1u, 8u}) {
      const fs::path dir = scratch_dir("cfg" + std::to_string(config++));
      EXPECT_EQ(run_and_merge(grid, dir, shards, threads), reference)
          << shards << " shards, " << threads << " threads";
    }
  }
  const fs::path dir = scratch_dir("t8");
  EXPECT_EQ(run_and_merge(grid, dir, 1, 8), reference);

  // The artifact parses back into rows in canonical grid order.
  const std::vector<CampaignRow> rows = parse_campaign_artifact(reference);
  const std::vector<JobSpec> jobs = grid.expand();
  ASSERT_EQ(rows.size(), jobs.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].id, jobs[i].id());
    EXPECT_TRUE(rows[i].error.empty());
    EXPECT_EQ(rows[i].result.meta.wall_ms, 0.0);  // zeroed by the merge
  }
}

TEST(CampaignDriver, ResumeAfterInterruptReproducesBytes) {
  const CampaignGrid grid = small_grid();
  const fs::path ref_dir = scratch_dir("resume_ref");
  const std::string reference = run_and_merge(grid, ref_dir, 1, 1);

  // "Kill" the run after two jobs (max_jobs is the interrupt hook), then
  // tear the checkpoint tail the way an interrupted write would.
  const fs::path dir = scratch_dir("resume");
  CampaignOptions opt;
  opt.out_dir = dir.string();
  opt.threads = 1;
  opt.max_jobs = 2;
  CampaignRunStats stats = run_campaign(grid, opt);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.skipped, 0u);
  {
    std::ofstream out(shard_file(dir.string(), 0, 1),
                      std::ios::binary | std::ios::app);
    out << "{\"id\":\"torn-partial-row";  // no newline: a torn tail
  }

  // Not complete yet; status says so.
  std::ostringstream status;
  EXPECT_FALSE(campaign_status(grid, dir.string(), 1, status));
  EXPECT_NE(status.str().find("2/4"), std::string::npos);

  // Restart: the torn tail is truncated, completed jobs are skipped, the
  // remaining jobs run, and the merged bytes match the uninterrupted run.
  opt.max_jobs = 0;
  stats = run_campaign(grid, opt);
  EXPECT_EQ(stats.skipped, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(merge_campaign(grid, dir.string(), 1), reference);

  std::ostringstream done;
  EXPECT_TRUE(campaign_status(grid, dir.string(), 1, done));
}

TEST(CampaignDriver, FailedJobsBecomeErrorRows) {
  // A bogus defender (testgen() throws) and an unknown circuit
  // (make_benchmark throws) fail inside their jobs. The artifact phase
  // skips their keys; the jobs still throw in the job loop and record the
  // same error rows at every thread count, beside the good row.
  CampaignGrid grid;
  grid.name = "mixed";
  grid.circuits = {"c17", "no_such_circuit"};
  grid.defenders = {"atpg", "bogus"};
  std::string merged[2];
  const std::size_t threads[2] = {1, 4};
  for (int t = 0; t < 2; ++t) {
    const fs::path dir = scratch_dir("mixed" + std::to_string(threads[t]));
    CampaignOptions opt;
    opt.out_dir = dir.string();
    opt.threads = threads[t];
    const CampaignRunStats stats = run_campaign(grid, opt);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.failed, 3u);
    EXPECT_EQ(stats.artifact_keys, 1u);  // only c17/atpg builds
    merged[t] = merge_campaign(grid, dir.string(), 1);
  }
  EXPECT_EQ(merged[0], merged[1]);

  const std::vector<CampaignRow> rows = parse_campaign_artifact(merged[0]);
  ASSERT_EQ(rows.size(), 4u);  // grid order: c17 x {atpg, bogus}, then
                               // no_such_circuit x {atpg, bogus}
  EXPECT_TRUE(rows[0].error.empty());
  EXPECT_NE(rows[1].error.find("bogus"), std::string::npos);
  EXPECT_NE(rows[2].error.find("no_such_circuit"), std::string::npos);
  EXPECT_NE(rows[3].error.find("bogus"), std::string::npos);
}

TEST(CampaignDriver, MergeRequiresEveryShardFile) {
  const CampaignGrid grid = small_grid();
  const fs::path dir = scratch_dir("missing");
  CampaignOptions opt;
  opt.out_dir = dir.string();
  opt.shard_count = 2;
  opt.shard_index = 0;
  opt.threads = 1;
  run_campaign(grid, opt);
  EXPECT_THROW(merge_campaign(grid, dir.string(), 2), std::runtime_error);
}

TEST(CampaignDriver, MergeOfIncompleteCampaignFailsTheChecker) {
  const CampaignGrid grid = small_grid();
  const fs::path dir = scratch_dir("incomplete");
  CampaignOptions opt;
  opt.out_dir = dir.string();
  opt.threads = 1;
  opt.max_jobs = 1;
  run_campaign(grid, opt);
  try {
    merge_campaign(grid, dir.string(), 1);
    FAIL() << "merge of an incomplete campaign must throw";
  } catch (const VerifyError& e) {
    EXPECT_FALSE(e.report().ok());
    bool missing = false;
    for (const auto& v : e.report().violations) {
      missing |= v.id == CheckId::CampMergeMissing;
    }
    EXPECT_TRUE(missing);
  }
}

TEST(CampaignDriver, InMemoryCampaignMatchesCheckpointedRows) {
  const CampaignGrid grid = small_grid();
  const std::vector<FlowResult> mem = run_campaign_in_memory(grid, 2);
  const fs::path dir = scratch_dir("inmem");
  const std::vector<CampaignRow> rows =
      parse_campaign_artifact(run_and_merge(grid, dir, 1, 1));
  ASSERT_EQ(mem.size(), rows.size());
  for (std::size_t i = 0; i < mem.size(); ++i) {
    FlowResult a = mem[i];
    a.meta.wall_ms = 0.0;  // the merge zeroes it; in-memory keeps it
    EXPECT_EQ(flow_result_to_json(a).dump(),
              flow_result_to_json(rows[i].result).dump());
  }
}

// Distinct artifact keys (circuit × testgen fingerprint) of jobs [b, e).
std::size_t distinct_keys(const std::vector<JobSpec>& jobs, std::size_t b,
                          std::size_t e) {
  std::vector<std::string> keys;
  for (std::size_t i = b; i < e; ++i) {
    const JobSpec r = jobs[i].resolved();
    keys.push_back(r.circuit + "|" + testgen_fingerprint(r.testgen()));
  }
  std::sort(keys.begin(), keys.end());
  return static_cast<std::size_t>(
      std::unique(keys.begin(), keys.end()) - keys.begin());
}

TEST(CampaignDriver, ArtifactPhaseBuildsEachDistinctKeyOfTheRun) {
  const CampaignGrid grid = small_grid();
  const fs::path dir = scratch_dir("keys");
  CampaignOptions opt;
  opt.out_dir = dir.string();
  opt.threads = 4;
  const CampaignRunStats stats = run_campaign(grid, opt);
  const std::vector<JobSpec> jobs = grid.expand();
  EXPECT_EQ(stats.artifact_keys, distinct_keys(jobs, 0, jobs.size()));
  EXPECT_EQ(stats.artifact_keys, 4u);  // 2 circuits x 2 seeds

  // Two HT shapes per (circuit, seed): adjacent job pairs share a key. A
  // run cut at 2 jobs, and a resumed run cut at 2 more, each build only
  // the key of their own two jobs.
  CampaignGrid shapes = small_grid();
  shapes.trigger_widths = {2, 4};
  const std::vector<JobSpec> shape_jobs = shapes.expand();
  const fs::path resume_dir = scratch_dir("keys_resume");
  opt.out_dir = resume_dir.string();
  opt.max_jobs = 2;
  CampaignRunStats part = run_campaign(shapes, opt);
  EXPECT_EQ(part.completed, 2u);
  EXPECT_EQ(part.artifact_keys, distinct_keys(shape_jobs, 0, 2));
  EXPECT_EQ(part.artifact_keys, 1u);
  part = run_campaign(shapes, opt);
  EXPECT_EQ(part.skipped, 2u);
  EXPECT_EQ(part.completed, 2u);
  EXPECT_EQ(part.artifact_keys, distinct_keys(shape_jobs, 2, 4));
  EXPECT_EQ(part.artifact_keys, 1u);

  // Nothing pending: nothing built.
  opt.out_dir = dir.string();
  opt.max_jobs = 0;
  EXPECT_EQ(run_campaign(grid, opt).artifact_keys, 0u);
}

// ------------------------------------------- CampaignChecker corruption

// Baseline healthy view the corruption tests perturb: 4 jobs over 2 shards,
// fully checkpointed and merged.
struct CheckerFixture {
  std::vector<std::string> ids{"a", "b", "c", "d"};
  std::vector<std::size_t> assign{0, 1, 0, 1};
  std::vector<std::vector<std::string>> shard_rows{{"a", "c"}, {"b", "d"}};
  std::vector<std::string> merged{"a", "b", "c", "d"};

  CampaignView view() {
    CampaignView v;
    v.num_shards = 2;
    v.job_ids = ids;
    v.job_shard = assign;
    v.shard_rows = shard_rows;
    v.merged_ids = merged;
    v.check_merged = true;
    return v;
  }
};

bool names(const VerifyReport& report, CheckId id) {
  for (const auto& v : report.violations) {
    if (v.id == id) return true;
  }
  return false;
}

TEST(CampaignChecker, HealthyViewPasses) {
  CheckerFixture f;
  EXPECT_TRUE(CampaignChecker::run(f.view()).ok());
}

TEST(CampaignChecker, CorruptPartition) {
  CheckerFixture f;
  f.assign[2] = 5;  // out of range for 2 shards
  EXPECT_TRUE(names(CampaignChecker::run(f.view()), CheckId::CampPartition));
  CheckerFixture dup;
  dup.ids[3] = "a";  // same job expanded twice
  EXPECT_TRUE(names(CampaignChecker::run(dup.view()), CheckId::CampPartition));
}

TEST(CampaignChecker, CorruptShardRows) {
  CheckerFixture f;
  f.shard_rows[0].push_back("b");  // b is assigned to shard 1
  EXPECT_TRUE(names(CampaignChecker::run(f.view()), CheckId::CampShardRows));
  CheckerFixture unparseable;
  unparseable.shard_rows[1].emplace_back();  // "" = row that failed to parse
  EXPECT_TRUE(
      names(CampaignChecker::run(unparseable.view()), CheckId::CampShardRows));
  CheckerFixture twice;
  twice.shard_rows[0].push_back("a");  // same job recorded twice
  EXPECT_TRUE(
      names(CampaignChecker::run(twice.view()), CheckId::CampShardRows));
}

TEST(CampaignChecker, CorruptMergeDuplicate) {
  CheckerFixture f;
  f.merged.push_back("c");
  EXPECT_TRUE(
      names(CampaignChecker::run(f.view()), CheckId::CampMergeDuplicate));
}

TEST(CampaignChecker, CorruptMergeMissing) {
  CheckerFixture f;
  f.merged.pop_back();
  EXPECT_TRUE(
      names(CampaignChecker::run(f.view()), CheckId::CampMergeMissing));
}

// --------------------------------------------------- cgroup quota parsing

TEST(ThreadResolve, ParseCpuQuota) {
  using detail::parse_cpu_quota;
  EXPECT_EQ(parse_cpu_quota("max", "100000"), 0u);       // v2 unlimited
  EXPECT_EQ(parse_cpu_quota("-1", "100000"), 0u);        // v1 unlimited
  EXPECT_EQ(parse_cpu_quota("100000", "100000"), 1u);    // exactly 1 CPU
  EXPECT_EQ(parse_cpu_quota("200000", "100000"), 2u);
  EXPECT_EQ(parse_cpu_quota("150000", "100000"), 2u);    // ceil
  EXPECT_EQ(parse_cpu_quota("150000\n", "100000\n"), 2u);  // kernel newlines
  EXPECT_EQ(parse_cpu_quota("", "100000"), 0u);
  EXPECT_EQ(parse_cpu_quota("garbage", "100000"), 0u);
  EXPECT_EQ(parse_cpu_quota("100000", "0"), 0u);
}

TEST(ThreadResolve, ParseCpuMaxLine) {
  using detail::parse_cpu_max_line;
  EXPECT_EQ(parse_cpu_max_line("max 100000\n"), 0u);
  EXPECT_EQ(parse_cpu_max_line("400000 100000\n"), 4u);
  EXPECT_EQ(parse_cpu_max_line("50000 100000"), 1u);  // half a CPU -> 1
  EXPECT_EQ(parse_cpu_max_line("no-space"), 0u);
}

TEST(ThreadResolve, EffectiveCountBoundsResolution) {
  EXPECT_GE(effective_cpu_count(), 1u);
  // Explicit request always wins.
  EXPECT_EQ(resolve_threads(3), 3u);
  // Default resolution is at most the effective count (or TZ_THREADS).
  EXPECT_GE(resolve_threads(0), 1u);
}

}  // namespace
}  // namespace tz
