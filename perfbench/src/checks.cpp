#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>

#include "atpg/test_set.hpp"
#include "campaign/driver.hpp"
#include "campaign/job.hpp"
#include "sim/patterns.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace {

// Caps are compared with a relative slack that only absorbs summation-order
// rounding between the incremental tracker and a fresh analysis.
bool over_cap(double value, double cap) {
  return value > cap + 1e-9 * std::max(1.0, std::abs(cap));
}

// merge_campaign digests of the campaign1k grid at seed 0, full and --short:
// they pin the sweep's output, so a change that alters any row is caught.
constexpr const char* kCampaign1kDigestSeed0 = "66152c8e92719f85";
constexpr const char* kCampaign1kShortDigestSeed0 = "d3074c9b2b8f9641";

}  // namespace

std::string check_defender_pass(const tz::Netlist& infected,
                                const tz::DefenderSuite& suite) {
  return tz::functional_test(infected, suite)
             ? ""
             : "N'' fails its defender suite";
}

std::string check_caps(const tz::Netlist& infected, const tz::PowerModel& pm,
                       const tz::PowerReport& caps) {
  const tz::PowerReport p = pm.analyze(infected).totals;
  if (over_cap(p.total_uw(), caps.total_uw())) return "N'' over total power cap";
  if (over_cap(p.dynamic_uw, caps.dynamic_uw)) return "N'' over dynamic power cap";
  if (over_cap(p.leakage_uw, caps.leakage_uw)) return "N'' over leakage power cap";
  if (over_cap(p.area_ge, caps.area_ge)) return "N'' over area cap";
  return "";
}

std::string check_flow(const tz::FlowResult& r, const tz::PowerModel& pm,
                       const tz::PowerReport& caps) {
  if (!r.insertion.success) return "";
  std::string why = check_defender_pass(r.insertion.infected, r.suite);
  if (why.empty()) why = check_caps(r.insertion.infected, pm, caps);
  return why.empty() ? "" : r.benchmark + ": " + why;
}

std::string check_campaign_rows(const std::string& merged,
                                std::size_t expected_rows) {
  std::vector<tz::CampaignRow> rows;
  try {
    rows = tz::parse_campaign_artifact(merged);
  } catch (const std::exception& e) {
    return std::string("merged artifact does not parse: ") + e.what();
  }
  if (rows.size() != expected_rows) {
    return "merged artifact has " + std::to_string(rows.size()) +
           " rows, expected " + std::to_string(expected_rows);
  }
  for (const tz::CampaignRow& row : rows) {
    if (!row.error.empty()) return "error row " + row.id + ": " + row.error;
  }
  return "";
}

std::string check_campaign_digest(const std::string& merged, bool short_grid,
                                  std::uint64_t seed) {
  if (seed != 0) return "";
  const std::string digest = digest_hex(merged);
  const char* pinned =
      short_grid ? kCampaign1kShortDigestSeed0 : kCampaign1kDigestSeed0;
  return digest == pinned ? ""
                          : "merged digest " + digest +
                                " differs from the pinned seed-0 digest " +
                                pinned;
}

std::string check_equivalence_result(const tz::Netlist& a,
                                     const tz::Netlist& b,
                                     const tz::sat::EquivalenceResult& r,
                                     bool expect_equivalent) {
  if (!r.decided) return "equivalence check undecided";
  if (r.equivalent != expect_equivalent) {
    return expect_equivalent ? "equivalent pair reported different"
                             : "different pair reported equivalent";
  }
  if (r.equivalent) return "";
  if (r.counterexample.size() != a.inputs().size()) {
    return "witness has " + std::to_string(r.counterexample.size()) +
           " inputs, circuit has " + std::to_string(a.inputs().size());
  }
  tz::PatternSet ps(a.inputs().size(), 1);
  for (std::size_t i = 0; i < r.counterexample.size(); ++i) {
    ps.set(0, i, r.counterexample[i]);
  }
  const bool differs = !tz::BitSimulator::responses_equal(
      tz::BitSimulator(a).outputs(ps), tz::BitSimulator(b).outputs(ps));
  return differs ? "" : "witness does not replay to a differing output";
}

std::string canonical_row(const tz::FlowResult& r) {
  tz::Json j = tz::flow_result_to_json(r);
  if (tz::Json* meta = j.find("meta")) {
    if (tz::Json* wall = meta->find("wall_ms")) *wall = tz::Json(0.0);
  }
  return j.dump();
}

std::string check_same_row(const tz::FlowResult& expected,
                           const tz::FlowResult& actual) {
  return canonical_row(expected) == canonical_row(actual)
             ? ""
             : expected.benchmark + ": result rows differ";
}

std::string digest_hex(const std::string& text) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(tz::fnv1a64(text)));
  return buf;
}

}  // namespace perfbench
