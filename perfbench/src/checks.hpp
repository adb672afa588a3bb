// Correctness gates of the benchmark. They run outside every timed region
// and use code paths the engines under test do not: the defender replay is
// a plain functional_test stream (not the SuiteOracle the flow judges
// with), the power caps come from a fresh from-scratch PowerModel::analyze
// (not the flow's incremental PowerTracker), and SAT witnesses are replayed
// through BitSimulator. Each check returns an empty string when the result
// holds, else a one-line reason; every non-empty reason counts as a failed
// op.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/report.hpp"
#include "netlist/netlist.hpp"
#include "sat/equivalence.hpp"
#include "tech/power_model.hpp"

namespace perfbench {

/// N'' must pass every defender test set it was inserted against.
std::string check_defender_pass(const tz::Netlist& infected,
                                const tz::DefenderSuite& suite);

/// A fresh analysis of N'' must stay at or under each of the four caps:
/// total, dynamic and leakage power and area of the HT-free circuit.
std::string check_caps(const tz::Netlist& infected, const tz::PowerModel& pm,
                       const tz::PowerReport& caps);

/// Both gates above on one flow result; an HT that could not be inserted is
/// a valid outcome and passes.
std::string check_flow(const tz::FlowResult& r, const tz::PowerModel& pm,
                       const tz::PowerReport& caps);

/// A merged campaign artifact holds `expected_rows` rows and no error row.
std::string check_campaign_rows(const std::string& merged,
                                std::size_t expected_rows);

/// The merged campaign1k artifact must hash to its pinned digest. Digests
/// are pinned for seed 0 only, for the full grid and for the one-key grid
/// of --short; at any other seed this gate has nothing to compare and
/// passes.
std::string check_campaign_digest(const std::string& merged, bool short_grid,
                                  std::uint64_t seed);

/// The verdict on (a, b) matches the known answer; a non-equivalence
/// witness must replay through BitSimulator to a differing output.
std::string check_equivalence_result(const tz::Netlist& a,
                                     const tz::Netlist& b,
                                     const tz::sat::EquivalenceResult& r,
                                     bool expect_equivalent);

/// Two runs of the same job (product and replay, or two product runs) must
/// give the same canonical row.
std::string check_same_row(const tz::FlowResult& expected,
                           const tz::FlowResult& actual);

/// Canonical JSON row of a flow result with the volatile wall time zeroed:
/// two runs of the same job compare equal byte for byte.
std::string canonical_row(const tz::FlowResult& r);

/// FNV-1a digest of a merged campaign artifact, as 16 hex digits.
std::string digest_hex(const std::string& text);

}  // namespace perfbench
