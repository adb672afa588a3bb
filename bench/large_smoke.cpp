// Large-circuit CI smoke: generate a 100k-gate netlist, simulate a pattern
// sample through both value-matrix layouts, and fail unless the two agree
// with each other and with the committed digest of the responses; then diff
// the event-driven and word-packed fault-simulation backends' detection
// matrices on a fault sample. Bounded to a few seconds — this is a
// correctness gate for the stripe-major + SIMD path and the packed fault
// sweep at the scale the microbenchmarks measure, not a performance run.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "atpg/fault_sim_backend.hpp"
#include "campaign/driver.hpp"
#include "gen/iscas.hpp"
#include "sim/simulator.hpp"

namespace {

/// FNV-1a digest of the 6400-pattern rand100k responses (seed 17), recorded
/// when the Node-walking evaluator still ran beside the compiled plan and
/// both agreed on it.
constexpr std::uint64_t kResponseDigest = 0x6300133782f8e939ull;

long long ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Digest over (signals, patterns, every signal's words little-endian with
/// the padding lanes masked) — the encoding tests/testutil.hpp uses.
std::uint64_t response_digest(const tz::PatternSet& ps) {
  std::string bytes;
  const auto put = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<char>(v >> (8 * i)));
  };
  put(ps.num_signals());
  put(ps.num_patterns());
  for (std::size_t s = 0; s < ps.num_signals(); ++s) {
    const auto w = ps.words(s);
    for (std::size_t i = 0; i < w.size(); ++i) {
      put(i + 1 == w.size() ? w[i] & ps.tail_mask() : w[i]);
    }
  }
  return tz::fnv1a64(bytes);
}

}  // namespace

int main() {
  using namespace tz;
  auto t0 = std::chrono::steady_clock::now();
  const Netlist nl = make_benchmark("rand100k");
  std::printf("rand100k: %zu gates, generated in %lld ms\n", nl.gate_count(),
              ms_since(t0));
  if (nl.gate_count() != 100000) {
    std::fprintf(stderr, "FAIL: expected exactly 100000 gates\n");
    return 1;
  }

  // 6400 patterns = 100 words: wide enough that the plan path splits the row
  // width and the Auto layout goes stripe-major at this slot count.
  const PatternSet ps = random_patterns(nl.inputs().size(), 6400, 17);
  const BitSimulator sim(nl);
  if (sim.plan().block_words(ps.num_words()) >= ps.num_words()) {
    std::fprintf(stderr, "FAIL: sample width does not exercise striping\n");
    return 1;
  }
  struct Case {
    const char* name;
    ValueLayout layout;
  };
  const Case cases[] = {{"plan contiguous", ValueLayout::Contiguous},
                        {"plan stripe-major", ValueLayout::Striped}};
  NodeValues vals;
  PatternSet reference;
  for (const Case& c : cases) {
    t0 = std::chrono::steady_clock::now();
    sim.run_into(vals, ps, nullptr, c.layout);
    const long long elapsed = ms_since(t0);
    PatternSet out(nl.outputs().size(), ps.num_patterns());
    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
      auto dst = out.words(o);
      vals.copy_row(nl.outputs()[o], dst.data());
      if (!dst.empty()) dst.back() &= out.tail_mask();
    }
    std::printf("%-22s %5lld ms\n", c.name, elapsed);
    const std::uint64_t digest = response_digest(out);
    if (digest != kResponseDigest) {
      std::fprintf(stderr,
                   "FAIL: %s response digest %016llx, expected %016llx\n",
                   c.name, static_cast<unsigned long long>(digest),
                   static_cast<unsigned long long>(kResponseDigest));
      return 1;
    }
    if (reference.num_patterns() == 0) {
      reference = std::move(out);
    } else if (!BitSimulator::responses_equal(reference, out)) {
      std::fprintf(stderr, "FAIL: %s diverges from the contiguous layout\n",
                   c.name);
      return 1;
    }
  }
  std::printf("OK: both layouts bit-identical and on the golden digest "
              "(%zu patterns)\n",
              ps.num_patterns());

  // Packed-vs-event fault-simulation parity at the same scale: detection
  // matrices over a fault sample must be word-identical between the two
  // backends. CI runs this binary under TZ_SIMD=1 and TZ_SIMD=0, so the
  // parity also covers both kernel families the packed sweep dispatches to.
  const auto universe = fault_universe(nl);
  std::vector<Fault> faults;
  const std::size_t stride = std::max<std::size_t>(1, universe.size() / 256);
  for (std::size_t i = 0; i < universe.size(); i += stride) {
    faults.push_back(universe[i]);
  }
  const PatternSet fps = random_patterns(nl.inputs().size(), 128, 23);
  std::vector<std::vector<std::uint64_t>> matrices[2];
  const FaultSimMode modes[] = {FaultSimMode::Event, FaultSimMode::Packed};
  for (int m = 0; m < 2; ++m) {
    t0 = std::chrono::steady_clock::now();
    const auto backend = make_fault_sim_backend(nl, modes[m]);
    backend->set_patterns(fps);
    matrices[m] = backend->detection_matrix(faults);
    std::printf("%-6s fault-sim:      %5lld ms (%zu faults)\n",
                std::string(backend->name()).c_str(), ms_since(t0),
                faults.size());
  }
  if (matrices[0] != matrices[1]) {
    std::fprintf(stderr,
                 "FAIL: packed detection matrices diverge from event\n");
    return 1;
  }
  std::printf("OK: packed and event detection matrices bit-identical\n");
  return 0;
}
