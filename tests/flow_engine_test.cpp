// Tests for the incremental FlowEngine layer: SuiteOracle equivalence with
// full functional_test, PowerTracker parity with from-scratch analysis,
// tie undo logs, and the dummy-balancing loop's cap discipline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/flow_engine.hpp"
#include "core/ht_library.hpp"
#include "core/insertion.hpp"
#include "core/report.hpp"
#include "gen/iscas.hpp"
#include "netlist/rewrite.hpp"
#include "prob/signal_prob.hpp"
#include "sim/simulator.hpp"
#include "tech/power_tracker.hpp"
#include "testutil.hpp"
#include "util/thread_pool.hpp"

namespace tz {
namespace {

PowerModel model() { return PowerModel(CellLibrary::tsmc65_like()); }

TestGenOptions defender_defaults() { return FlowOptions::atpg_only_defender(); }

// ---- SuiteOracle -----------------------------------------------------------

TEST(SuiteOracle, TieVerdictMatchesFullFunctionalTest) {
  // For every Algorithm 1 candidate, the oracle's cone re-simulation must
  // agree with streaming the whole suite over the tied netlist.
  for (const char* name : {"c432", "c880"}) {
    const Netlist original = make_benchmark(name);
    const DefenderSuite suite = make_defender_suite(original, defender_defaults());
    const Netlist work = original.compact();
    const SignalProb sp(work);
    const auto cands = find_candidates(work, sp, spec_for(name).pth, false);
    ASSERT_FALSE(cands.empty());
    SuiteOracle oracle(work, suite);
    ASSERT_FALSE(oracle.sequential());
    for (const Candidate& c : cands) {
      Netlist reference = work;
      tie_to_constant(reference, c.node, c.tie_value);
      const bool expect_visible = !functional_test(reference, suite);
      EXPECT_EQ(oracle.tie_visible(c.node, c.tie_value), expect_visible)
          << name << " candidate " << work.node(c.node).name;
    }
  }
}

TEST(SuiteOracle, CommittedTiesKeepLaterVerdictsExact) {
  // Accepted ties must leave the cache describing the updated netlist, so a
  // later candidate in the same run is judged against the right baseline.
  const Netlist original = make_benchmark("c880");
  const DefenderSuite suite = make_defender_suite(original, defender_defaults());
  Netlist work = original.compact();
  const SignalProb sp(work);
  const auto cands = find_candidates(work, sp, 0.992, false);
  SuiteOracle oracle(work, suite);
  for (const Candidate& c : cands) {
    if (!work.is_alive(c.node)) continue;
    Netlist reference = work;
    tie_to_constant(reference, c.node, c.tie_value);
    const bool expect_visible = !functional_test(reference, suite);
    ASSERT_EQ(oracle.tie_visible(c.node, c.tie_value), expect_visible);
    if (!expect_visible) {
      oracle.commit_tie(c.node, c.tie_value);
      tie_to_constant(work, c.node, c.tie_value);
      oracle.resync_structure();
    }
  }
  EXPECT_TRUE(functional_test(work, suite));
}

TEST(SuiteOracle, HtVerdictMatchesMaterializedFunctionalTest) {
  // The pre-materialisation replay (trigger AND + counter + masked payload
  // deviation) must agree with building the HT and streaming the suite.
  const Netlist original = make_benchmark("c880");
  const DefenderSuite suite = make_defender_suite(original, defender_defaults());
  const PowerModel pm = model();
  const SalvageResult sal = salvage_power_area(original, suite, pm, {.pth = 0.992});
  const Netlist& nprime = sal.modified;
  const SignalProb sp(nprime);
  const auto locations = payload_locations(nprime, 6);
  SuiteOracle oracle(nprime, suite);
  ASSERT_FALSE(oracle.sequential());
  int checked = 0;
  for (const TrojanDesc& desc :
       {counter_trojan(2), counter_trojan(3), counter_trojan(0, 2)}) {
    for (NodeId victim : locations) {
      const auto pool = trigger_pool(nprime, sp, 0.05, victim);
      if (pool.size() < static_cast<std::size_t>(desc.trigger_width)) continue;
      Netlist reference = nprime;
      build_trojan(reference, desc, pool, victim);
      const bool expect_visible = !functional_test(reference, suite);
      EXPECT_EQ(oracle.ht_visible(
                    std::span<const NodeId>(
                        pool.data(),
                        static_cast<std::size_t>(desc.trigger_width)),
                    desc.counter_bits, victim),
                expect_visible)
          << desc.name << " at " << nprime.node(victim).name;
      ++checked;
    }
  }
  EXPECT_GT(checked, 5);
}

// ---- TieUndo ---------------------------------------------------------------

TEST(TieUndo, RevertRestoresStructureAndFunction) {
  const Netlist original = make_benchmark("c432").compact();
  const DefenderSuite suite = make_defender_suite(original, defender_defaults());
  Netlist work = original;
  const SignalProb sp(work);
  const auto cands = find_candidates(work, sp, 0.975, false);
  ASSERT_GE(cands.size(), 3u);
  const PatternSet probe = random_patterns(work.inputs().size(), 128, 7);
  const PatternSet golden = BitSimulator(original).outputs(probe);
  for (const Candidate& c : cands) {
    TieUndo undo;
    const TieResult tie = tie_to_constant(work, c.node, c.tie_value, &undo);
    EXPECT_EQ(undo.removed.size(), tie.gates_removed);
    undo_tie(work, undo);
    work.check();
  }
  // After every tie was reverted the netlist computes the original function
  // and carries the original cell population.
  EXPECT_EQ(work.live_count(), original.live_count());
  EXPECT_EQ(work.gate_count(), original.gate_count());
  EXPECT_TRUE(BitSimulator::responses_equal(BitSimulator(work).outputs(probe),
                                            golden));
}

TEST(TieUndo, RevertHandlesTiedPrimaryOutput) {
  // include_outputs salvage ties an output: the tie cell takes over the PO
  // slot; the revert must hand it back.
  Netlist nl("po");
  const auto ins = test::add_inputs(nl, 2);
  const NodeId g = nl.add_gate(GateType::And, "g", {ins[0], ins[1]});
  const NodeId o = nl.add_gate(GateType::Or, "o", {g, ins[0]});
  nl.mark_output(o);
  TieUndo undo;
  tie_to_constant(nl, o, true, &undo);
  EXPECT_NE(nl.outputs()[0], o);
  undo_tie(nl, undo);
  nl.check();
  ASSERT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.outputs()[0], o);
  EXPECT_EQ(nl.find("g"), g);
}

// ---- PowerTracker ----------------------------------------------------------

TEST(PowerTracker, MatchesAnalyzeThroughHtInsertionAndDummies) {
  const Netlist original = make_benchmark("c880");
  const DefenderSuite suite = make_defender_suite(original, defender_defaults());
  const PowerModel pm = model();
  const SalvageResult sal = salvage_power_area(original, suite, pm, {.pth = 0.992});
  Netlist work = sal.modified;
  PowerTracker tracker(work, pm);
  {
    const PowerReport full = pm.analyze(work).totals;
    const PowerReport inc = tracker.totals();
    EXPECT_NEAR(inc.dynamic_uw, full.dynamic_uw, 1e-9);
    EXPECT_NEAR(inc.leakage_uw, full.leakage_uw, 1e-9);
    EXPECT_NEAR(inc.area_ge, full.area_ge, 1e-9);
  }
  // Materialise a counter HT and resync: the tracker must agree with a
  // from-scratch analysis including the DFF probability fixpoint.
  const SignalProb sp(work);
  const auto locations = payload_locations(work, 4);
  ASSERT_FALSE(locations.empty());
  const NodeId victim = locations[0];
  const auto pool = trigger_pool(work, sp, 0.05, victim);
  ASSERT_GE(pool.size(), 2u);
  const std::size_t size_before = work.raw_size();
  build_trojan(work, counter_trojan(3), pool, victim);
  std::vector<NodeId> fresh;
  for (NodeId id = static_cast<NodeId>(size_before); id < work.raw_size(); ++id) {
    fresh.push_back(id);
  }
  std::vector<NodeId> cap_changed(pool.begin(), pool.begin() + 2);
  cap_changed.push_back(victim);
  tracker.resync(fresh, cap_changed);
  {
    const PowerReport full = pm.analyze(work).totals;
    const PowerReport inc = tracker.totals();
    EXPECT_NEAR(inc.dynamic_uw, full.dynamic_uw, 1e-9);
    EXPECT_NEAR(inc.leakage_uw, full.leakage_uw, 1e-9);
    EXPECT_NEAR(inc.area_ge, full.area_ge, 1e-9);
  }
  // And through a handful of dummy gates (tie-fed and PI-fed flavours).
  for (int k = 0; k < 4; ++k) {
    const std::size_t before = work.raw_size();
    const NodeId src =
        k % 2 ? work.const_node(false) : work.inputs()[k % work.inputs().size()];
    add_dummy_gate(work, src, k % 2 ? GateType::Nand : GateType::Buf, "tz_dummy");
    fresh.clear();
    for (NodeId id = static_cast<NodeId>(before); id < work.raw_size(); ++id) {
      fresh.push_back(id);
    }
    tracker.resync(fresh, {{src}});
  }
  const PowerReport full = pm.analyze(work).totals;
  const PowerReport inc = tracker.totals();
  EXPECT_NEAR(inc.dynamic_uw, full.dynamic_uw, 1e-9);
  EXPECT_NEAR(inc.leakage_uw, full.leakage_uw, 1e-9);
  EXPECT_NEAR(inc.area_ge, full.area_ge, 1e-9);
}

TEST(PowerTracker, RollbackRestoresRowsBitExact) {
  Netlist nl = make_benchmark("c432");
  const PowerModel pm = model();
  PowerTracker tracker(nl, pm);
  const PowerReport before = tracker.totals();
  tracker.begin();
  const std::size_t size_before = nl.raw_size();
  const NodeId src = nl.inputs()[0];
  add_dummy_gate(nl, src, GateType::Xor, "tz_dummy");
  std::vector<NodeId> fresh;
  for (NodeId id = static_cast<NodeId>(size_before); id < nl.raw_size(); ++id) {
    fresh.push_back(id);
  }
  tracker.resync(fresh, {{src}});
  EXPECT_GT(tracker.totals().total_uw(), before.total_uw());
  tracker.rollback();
  for (NodeId id = static_cast<NodeId>(nl.raw_size()); id-- > size_before;) {
    if (nl.is_alive(id)) nl.remove_node(id);
  }
  const PowerReport after = tracker.totals();
  EXPECT_EQ(after.dynamic_uw, before.dynamic_uw);  // bit-exact, not NEAR
  EXPECT_EQ(after.leakage_uw, before.leakage_uw);
  EXPECT_EQ(after.area_ge, before.area_ge);
}

// ---- balance_with_dummies --------------------------------------------------

TEST(BalanceWithDummies, NeverExceedsAnyComponentCap) {
  const Netlist original = make_benchmark("c880");
  const DefenderSuite suite = make_defender_suite(original, defender_defaults());
  const PowerModel pm = model();
  const PowerReport threshold = pm.analyze(original).totals;
  const SalvageResult sal = salvage_power_area(original, suite, pm, {.pth = 0.992});
  Netlist work = sal.modified;
  PowerTracker tracker(work, pm);
  InsertionOptions opt;
  const std::size_t added = balance_with_dummies(work, tracker, threshold, opt);
  EXPECT_GT(added, 0u);
  const PowerReport p = pm.analyze(work).totals;
  EXPECT_LE(p.total_uw(), threshold.total_uw());
  EXPECT_LE(p.dynamic_uw, threshold.dynamic_uw);
  EXPECT_LE(p.leakage_uw, threshold.leakage_uw);
  EXPECT_LE(p.area_ge, threshold.area_ge);
  // Tracker stayed in sync through the whole loop.
  EXPECT_NEAR(tracker.totals().total_uw(), p.total_uw(), 1e-9);
}

TEST(BalanceWithDummies, PicksFlavourByDeficitShape) {
  const PowerModel pm = model();
  auto first_dummy_fed_by_tie = [&](const PowerReport& threshold) {
    Netlist nl = make_benchmark("c432");
    PowerTracker tracker(nl, pm);
    const std::size_t size_before = nl.raw_size();
    InsertionOptions opt;
    const std::size_t added = balance_with_dummies(nl, tracker, threshold, opt);
    EXPECT_GT(added, 0u);
    for (NodeId id = static_cast<NodeId>(size_before); id < nl.raw_size();
         ++id) {
      if (!nl.is_alive(id) || is_const(nl.node(id).type)) continue;
      return is_const(nl.node(nl.node(id).fanin[0]).type);
    }
    ADD_FAILURE() << "no dummy placed";
    return false;
  };
  const PowerReport base = pm.analyze(make_benchmark("c432")).totals;
  // Leakage-shaped deficit (dp == dl): tie-fed gates top up leakage without
  // burning the dynamic budget.
  PowerReport leak_shape = base;
  leak_shape.leakage_uw += 0.5;
  leak_shape.area_ge += 50.0;
  EXPECT_TRUE(first_dummy_fed_by_tie(leak_shape));
  // Dynamic-shaped deficit (dp >> dl): PI-fed gates burn switching power.
  // (A little leakage headroom is required — every cell leaks — but the
  // dominant gap is dynamic, so the PI-fed menu leads.)
  PowerReport dyn_shape = base;
  dyn_shape.dynamic_uw += 1.0;
  dyn_shape.leakage_uw += 0.1;
  dyn_shape.area_ge += 50.0;
  EXPECT_FALSE(first_dummy_fed_by_tie(dyn_shape));
}

// ---- Algorithm 2 cap regression (the headline bugfix) ----------------------

TEST(Insertion, SuccessImpliesComponentwisePowerCaps) {
  // The TrojanZero contract: N'' never exceeds N on total, dynamic or
  // leakage power, or area. The pre-fix code let leakage drift to 1.02x and
  // never checked dynamic at all.
  for (const char* name : {"c432", "c499", "c880", "c1908", "c3540"}) {
    const FlowResult r = run_trojanzero_flow(name);
    ASSERT_TRUE(r.insertion.success) << name;
    const PowerReport& p = r.insertion.power;
    const PowerReport& t = r.insertion.threshold;
    EXPECT_LE(p.total_uw(), t.total_uw()) << name;
    EXPECT_LE(p.dynamic_uw, t.dynamic_uw) << name;
    EXPECT_LE(p.leakage_uw, t.leakage_uw) << name;
    EXPECT_LE(p.area_ge, t.area_ge) << name;
  }
}

// ---- trigger pool invariants after the rewrite -----------------------------

TEST(TriggerPool, RareListFilterMatchesAndStaysLoopFree) {
  const Netlist original = make_benchmark("c880");
  const DefenderSuite suite = make_defender_suite(original, defender_defaults());
  const PowerModel pm = model();
  const SalvageResult sal = salvage_power_area(original, suite, pm, {.pth = 0.992});
  const Netlist& nprime = sal.modified;
  const SignalProb sp(nprime);
  const auto rare = rare_net_list(nprime, sp, 0.05);
  ASSERT_FALSE(rare.empty());
  for (std::size_t i = 1; i < rare.size(); ++i) {
    EXPECT_LE(sp.p1(rare[i - 1]), sp.p1(rare[i]));
  }
  for (NodeId victim : payload_locations(nprime, 8)) {
    const auto mask = downstream_mask(nprime, victim);
    const auto pool = trigger_pool(nprime, sp, 0.05, victim);
    // Never a net in the victim's transitive fanout (loop freedom)...
    for (NodeId p : pool) EXPECT_FALSE(mask[p]);
    // ...and exactly the rare list minus the masked nets, order preserved.
    std::vector<NodeId> expect;
    for (NodeId id : rare) {
      if (!mask[id]) expect.push_back(id);
    }
    EXPECT_EQ(pool, expect);
  }
}

// ---- parallel candidate scans: bit-identical to the sequential engine ------

void expect_same_salvage(const SalvageResult& a, const SalvageResult& b,
                         const std::string& label) {
  EXPECT_EQ(a.candidates, b.candidates) << label;
  EXPECT_EQ(a.rejected, b.rejected) << label;
  EXPECT_EQ(a.expendable_gates, b.expendable_gates) << label;
  ASSERT_EQ(a.accepted.size(), b.accepted.size()) << label;
  for (std::size_t i = 0; i < a.accepted.size(); ++i) {
    EXPECT_EQ(a.accepted[i].node_name, b.accepted[i].node_name) << label;
    EXPECT_EQ(a.accepted[i].tie_value, b.accepted[i].tie_value) << label;
    EXPECT_EQ(a.accepted[i].probability, b.accepted[i].probability) << label;
    EXPECT_EQ(a.accepted[i].gates_removed, b.accepted[i].gates_removed)
        << label;
  }
  // Reported power must be bit-identical, not merely close.
  EXPECT_EQ(a.power_after.dynamic_uw, b.power_after.dynamic_uw) << label;
  EXPECT_EQ(a.power_after.leakage_uw, b.power_after.leakage_uw) << label;
  EXPECT_EQ(a.power_after.area_ge, b.power_after.area_ge) << label;
}

void expect_same_insertion(const InsertionResult& a, const InsertionResult& b,
                           const std::string& label) {
  EXPECT_EQ(a.success, b.success) << label;
  EXPECT_EQ(a.ht_name, b.ht_name) << label;
  EXPECT_EQ(a.victim_name, b.victim_name) << label;
  EXPECT_EQ(a.dummy_gates, b.dummy_gates) << label;
  EXPECT_EQ(a.tried_hts, b.tried_hts) << label;
  EXPECT_EQ(a.tried_locations, b.tried_locations) << label;
  EXPECT_EQ(a.fail_build, b.fail_build) << label;
  EXPECT_EQ(a.fail_test, b.fail_test) << label;
  EXPECT_EQ(a.fail_caps, b.fail_caps) << label;
  EXPECT_EQ(a.trigger_p1, b.trigger_p1) << label;
  EXPECT_EQ(a.power.dynamic_uw, b.power.dynamic_uw) << label;
  EXPECT_EQ(a.power.leakage_uw, b.power.leakage_uw) << label;
  EXPECT_EQ(a.power.area_ge, b.power.area_ge) << label;
  if (a.success && b.success) {
    EXPECT_EQ(a.infected.live_count(), b.infected.live_count()) << label;
    EXPECT_EQ(a.infected.gate_count(), b.infected.gate_count()) << label;
  }
}

TEST(ParallelScan, BitIdenticalAcrossThreadCounts) {
  // The ordered reduction promises: accepted candidates, HT/victim/dummy
  // choices and reported power never depend on the worker count. c6288 is
  // the >2k-gate array-multiplier stress (rare cut relaxed as in the bench,
  // so the trigger search walks a real pool).
  struct Case {
    const char* name;
    double rare_p1;
    std::vector<TrojanDesc> library;
  };
  const Case cases[] = {
      {"c880", 0.05, {}},
      {"c1908", 0.05, {}},
      {"c6288", 0.25, {counter_trojan(5), counter_trojan(3)}},
  };
  for (const Case& c : cases) {
    const Netlist original = make_benchmark(c.name);
    const DefenderSuite suite =
        make_defender_suite(original, defender_defaults());
    const PowerModel pm = model();
    SalvageOptions sopt;
    sopt.pth = spec_for(c.name).pth;
    InsertionOptions iopt;
    iopt.rare_p1 = c.rare_p1;
    iopt.library = c.library;

    sopt.threads = 1;
    iopt.threads = 1;
    const SalvageResult s1 = salvage_power_area(original, suite, pm, sopt);
    const InsertionResult r1 = insert_trojan(original, s1, suite, pm, iopt);

    for (const std::size_t t : {std::size_t{2}, std::size_t{8}}) {
      const std::string label =
          std::string(c.name) + " threads=" + std::to_string(t);
      sopt.threads = t;
      iopt.threads = t;
      const SalvageResult st = salvage_power_area(original, suite, pm, sopt);
      expect_same_salvage(s1, st, label);
      const InsertionResult rt = insert_trojan(original, st, suite, pm, iopt);
      expect_same_insertion(r1, rt, label);
    }
  }
}

// The EvalPlanFlow digests below were recorded when the Node-walking
// evaluator still ran beside the compiled plan: both evaluators, and every
// thread count checked here, produced these exact bytes. test::Digest covers
// every field expect_same_salvage/expect_same_insertion compare, plus the
// written N' and N'' netlists.

std::uint64_t flow_digest(const SalvageResult& s, const InsertionResult& r) {
  return test::Digest().salvage(s).insertion(r).value();
}

TEST(EvalPlanFlow, FlowMatchesGoldenAcrossThreadCounts) {
  // Accepted/rejected ties, HT/victim/dummy choices and reported power on
  // the compiled-plan engines, sequentially and at every thread count (CI
  // also diffs the Table-1 output against bench/golden/table1.txt).
  struct Case {
    const char* name;
    double rare_p1;
    std::vector<TrojanDesc> library;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"c880", 0.05, {}, 0x271aeba0d8963514ull},
      {"c1908", 0.05, {}, 0xa2b5e1a34f2ec6f2ull},
      {"c6288", 0.25, {counter_trojan(5), counter_trojan(3)},
       0x03d9c9ed8c0ef5dcull},
  };
  for (const Case& c : cases) {
    const Netlist original = make_benchmark(c.name);
    const DefenderSuite suite =
        make_defender_suite(original, defender_defaults());
    const PowerModel pm = model();
    SalvageOptions sopt;
    sopt.pth = spec_for(c.name).pth;
    InsertionOptions iopt;
    iopt.rare_p1 = c.rare_p1;
    iopt.library = c.library;
    for (const std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      sopt.threads = t;
      iopt.threads = t;
      const SalvageResult st = salvage_power_area(original, suite, pm, sopt);
      const InsertionResult rt = insert_trojan(original, st, suite, pm, iopt);
      const std::uint64_t got = flow_digest(st, rt);
      EXPECT_EQ(got, c.digest) << c.name << " threads=" << t << std::hex
                               << " 0x" << got;
    }
  }
}

TEST(EvalPlanFlow, FaultBackendBitIdenticalThroughFlow) {
  // The fault-simulation backend must be invisible end to end: the defender
  // suite ATPG generates and every downstream flow verdict (accepted ties,
  // HT/victim choices, power numbers) are bit-identical across Event/Packed
  // x threads {1, 2, 8}, and match the recorded digests.
  const Netlist original = make_benchmark("c880");
  const PowerModel pm = model();
  SalvageOptions sopt;
  sopt.pth = spec_for("c880").pth;
  InsertionOptions iopt;
  iopt.rare_p1 = 0.05;
  constexpr std::uint64_t kSuiteDigest = 0x2c8823ce2aed3133ull;
  constexpr std::uint64_t kFlowDigest = 0x271aeba0d8963514ull;

  struct Combo {
    int fault_mode;
    std::vector<std::size_t> threads;
  };
  const Combo combos[] = {
      {1, {1, 8}},     // event, sequential and parallel
      {2, {1, 2, 8}},  // packed, every worker count
  };
  for (const Combo& c : combos) {
    const test::FaultModeGuard fguard(c.fault_mode);
    const std::string base_label = "fault_mode=" + std::to_string(c.fault_mode);
    const DefenderSuite suite =
        make_defender_suite(original, defender_defaults());
    const std::uint64_t suite_digest = test::Digest().suite(suite).value();
    EXPECT_EQ(suite_digest, kSuiteDigest)
        << base_label << std::hex << " 0x" << suite_digest;
    for (const std::size_t t : c.threads) {
      const std::string label = base_label + " threads=" + std::to_string(t);
      sopt.threads = t;
      iopt.threads = t;
      const SalvageResult st = salvage_power_area(original, suite, pm, sopt);
      const InsertionResult rt = insert_trojan(original, st, suite, pm, iopt);
      const std::uint64_t got = flow_digest(st, rt);
      EXPECT_EQ(got, kFlowDigest) << label << std::hex << " 0x" << got;
    }
  }
}

TEST(EvalPlanFlow, HundredKGateMatchesGoldenAcrossThreads) {
  // The 100k-gate scale proof for the compiled-plan engines on a generated
  // circuit: a fixed random DAG ("rand100k", 100,000 gates) with a bounded
  // random defender suite (full ATPG is out of the tier-1 budget at this
  // size). Three layers, each pinned to a recorded digest:
  //  1. raw simulation: primary-output responses at a row width wide enough
  //     that the plan path goes stripe-major;
  //  2. a bounded Algorithm 1 walk (first 32 invisible ties, committed
  //     through the oracle's incremental plan patch): accepted ties and the
  //     salvaged netlist;
  //  3. Algorithm 2 into that salvaged slack must pick the same HT, victim
  //     and power numbers at threads {1, 2, 8}.
  const Netlist nl = make_benchmark("rand100k");
  ASSERT_EQ(nl.gate_count(), 100000u);
  DefenderSuite suite;
  {
    DefenderTestSet ts;
    ts.name = "random";
    ts.patterns = random_patterns(nl.inputs().size(), 256, 11);
    ts.golden = BitSimulator(nl).outputs(ts.patterns);
    suite.algorithms.push_back(std::move(ts));
  }

  // Layer 1: outputs at 6400 patterns (100 words) — block_words splits this
  // width at 100k slots, so the run is genuinely stripe-major.
  const PatternSet wide = random_patterns(nl.inputs().size(), 6400, 3);
  {
    BitSimulator sim(nl);
    ASSERT_LT(sim.plan().block_words(wide.num_words()), wide.num_words());
    const std::uint64_t got = test::Digest().patterns(sim.outputs(wide)).value();
    EXPECT_EQ(got, 0x5d8d05c90888b501ull) << std::hex << "0x" << got;
  }

  // Layer 2: bounded salvage walk.
  Netlist work = nl;
  test::Digest accepted;
  std::size_t n_accepted = 0;
  {
    const SignalProb sp(work);
    const auto cands = find_candidates(work, sp, 0.99999999, false);
    SuiteOracle oracle(work, suite);
    std::vector<std::string> names;
    for (const Candidate& c : cands) {
      if (names.size() >= 32) break;
      if (!work.is_alive(c.node)) continue;
      if (oracle.tie_visible(c.node, c.tie_value)) continue;
      names.push_back(work.node(c.node).name);
      oracle.commit_tie(c.node, c.tie_value);
      tie_to_constant(work, c.node, c.tie_value);
      oracle.resync_structure();
    }
    n_accepted = names.size();
    accepted.u64(names.size());
    for (const std::string& n : names) accepted.str(n);
  }
  work.sweep_dead_gates();
  EXPECT_TRUE(functional_test(work, suite));
  ASSERT_GE(n_accepted, 16u);
  SalvageResult sr;
  sr.modified = work.compact();
  accepted.str(write_bench_string(sr.modified));
  EXPECT_EQ(accepted.value(), 0x60c7ef14056f986bull)
      << std::hex << "0x" << accepted.value();

  // Layer 3: insertion into the salvaged slack at every thread count.
  const PowerModel pm = model();
  InsertionOptions iopt;
  iopt.rare_p1 = 0.05;
  iopt.library = {counter_trojan(3), counter_trojan(2)};
  for (const std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    iopt.threads = t;
    const InsertionResult r = insert_trojan(nl, sr, suite, pm, iopt);
    EXPECT_TRUE(r.success) << "threads=" << t;
    const std::uint64_t got = test::Digest().insertion(r).value();
    EXPECT_EQ(got, 0x544c3d581787297full)
        << "rand100k threads=" << t << std::hex << " 0x" << got;
  }
}

TEST(ParallelScan, ConcurrentOracleMatchesBuiltinScratch) {
  // The const judging API on per-thread scratch must agree verdict-for-
  // verdict with the single-threaded convenience overloads.
  const Netlist original = make_benchmark("c880");
  const DefenderSuite suite =
      make_defender_suite(original, defender_defaults());
  const Netlist work = original.compact();
  const SignalProb sp(work);
  const auto cands = find_candidates(work, sp, 0.992, false);
  ASSERT_FALSE(cands.empty());
  SuiteOracle oracle(work, suite);
  ASSERT_FALSE(oracle.sequential());
  std::vector<char> expected(cands.size(), 0);
  for (std::size_t i = 0; i < cands.size(); ++i) {
    expected[i] = oracle.tie_visible(cands[i].node, cands[i].tie_value);
  }
  ThreadPool pool(4);
  std::vector<ConeScratch> scratch;
  for (std::size_t w = 0; w < pool.size(); ++w) scratch.emplace_back(oracle);
  std::vector<char> got(cands.size(), 0);
  const SuiteOracle& shared = oracle;
  pool.parallel_for(cands.size(), [&](std::size_t i, std::size_t w) {
    got[i] =
        shared.tie_visible(cands[i].node, cands[i].tie_value, scratch[w]);
  });
  EXPECT_EQ(got, expected);
}

// ---- consolidated collision-avoidance naming -------------------------------

TEST(UniqueName, SharedSchemeHandlesCollisions) {
  Netlist nl("names");
  const NodeId a = nl.add_input("g");
  EXPECT_EQ(nl.unique_name("h"), "h");
  EXPECT_EQ(nl.unique_name("g"), "g_1");
  nl.add_gate(GateType::Not, "g_1", {a});
  EXPECT_EQ(nl.unique_name("g"), "g_2");
  // build_trojan and add_dummy_gate derive names through the same utility:
  // pre-existing collisions must not throw.
  NodeId victim;
  std::vector<NodeId> rare;
  Netlist tb = test::payload_testbed(&victim, &rare);
  tb.add_gate(GateType::Not, "ht_payload", {tb.inputs()[0]});
  tb.mark_output(tb.find("ht_payload"));
  const InsertedHT ht = build_trojan(tb, counter_trojan(2, 2), rare, victim);
  EXPECT_EQ(tb.node(ht.payload_mux).name, "ht_payload_1");
  const NodeId d1 = add_dummy_gate(tb, tb.inputs()[0], GateType::Buf, "dmy");
  const NodeId d2 = add_dummy_gate(tb, tb.inputs()[0], GateType::Buf, "dmy");
  EXPECT_EQ(tb.node(d1).name, "dmy");
  EXPECT_EQ(tb.node(d2).name, "dmy_1");
}

}  // namespace
}  // namespace tz
