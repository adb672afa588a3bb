// TrojanZero benchmark program: one workload per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--commit <sha>] [--short] [--selftest]
//
// Human-readable lines go first; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer metrics of a traced replay
// and writes its spans as Chrome trace-event JSON into --workdir.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/json.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Config;
using perfbench::Counters;
using perfbench::Report;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Args {
  Config cfg;
  bool trace = false;
  bool selftest = false;
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") {
      a.cfg.workload = value();
    } else if (k == "--seed") {
      a.cfg.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.cfg.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() != "0";
    } else if (k == "--workdir") {
      a.cfg.workdir = value();
    } else if (k == "--commit") {
      a.commit = value();
    } else if (k == "--short") {
      a.cfg.short_mode = true;
    } else if (k == "--selftest") {
      a.selftest = true;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.cfg.workdir.empty()) throw std::invalid_argument("--workdir missing");
  if (!a.selftest && a.cfg.workload.empty()) {
    throw std::invalid_argument("--workload missing");
  }
  return a;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Geometric mean over op kinds of each kind's median latency. A workload
/// cycles a few op kinds of very different cost (circuits, witnesses), so
/// its pooled latencies cluster by kind and the pooled median sits in a gap
/// between two clusters, where it jumps from run to run; each kind's median
/// does not. The geometric mean weighs every kind equally, so a gain on any
/// one of them shows, and it averages the kinds' noise where a median over
/// kinds would follow the middle two.
double gmean_of_kind_medians(const Report& rep) {
  if (rep.op_ms_by_kind.empty()) return 0.0;
  double log_sum = 0.0;
  for (const auto& [kind, ms] : rep.op_ms_by_kind) {
    log_sum += std::log(quantile(ms, 0.5));
  }
  return std::exp(log_sum / static_cast<double>(rep.op_ms_by_kind.size()));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

tz::Json run_stamp(const Args& a) {
  tz::Json j = tz::Json(tz::JsonObject{});
  j.set("workload", a.cfg.workload);
  j.set("seed", static_cast<std::int64_t>(a.cfg.seed));
  j.set("trace", a.trace);
  j.set("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  j.set("effective_cpus", tz::resolve_threads(0));
  j.set("threads", a.cfg.threads);
  j.set("cpu_model", cpu_model());
  j.set("build_type", PERFBENCH_BUILD_TYPE);
  j.set("commit", a.commit);
  return j;
}

std::vector<Metric> end_to_end(const Report& rep) {
  return {
      {"setup_s", quantile(rep.setup_s, 0.5), "s"},
      {"ops_per_s", static_cast<double>(rep.ops) / rep.timed_wall_s, "1/s"},
      {"op_ms_p50", gmean_of_kind_medians(rep), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

std::vector<Metric> per_layer(const Report& rep, perfbench::Tracer& t,
                              Counters& c, std::size_t threads) {
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  return {
      {"atpg.suite_ms", t.total_ms("atpg.make_defender_suite"), "ms"},
      {"atpg.patterns", c.patterns, "count"},
      {"atpg.coverage", ratio(c.coverage_sum, c.suites), "ratio"},
      {"atpg.podem_aborts", c.podem_aborts, "count"},
      {"atpg.untestable", c.untestable, "count"},
      {"campaign.parallel_efficiency",
       ratio(rep.busy_ms, static_cast<double>(threads) * rep.untraced_ms),
       "ratio"},
      {"campaign.suite_keys", rep.suite_keys, "count"},
      {"campaign.codec_ms", t.total_ms("campaign.codec"), "ms"},
      {"campaign.merge_ms", t.total_ms("campaign.merge"), "ms"},
      {"campaign.wait_ms", t.total_ms("campaign.wait"), "ms"},
      {"core.salvage_ms", t.total_ms("core.salvage"), "ms"},
      {"core.insert_ms", t.total_ms("core.insert"), "ms"},
      {"core.oracle_ms", t.total_ms("core.suite_oracle"), "ms"},
      {"core.candidates", c.candidates, "count"},
      {"core.accepted", c.accepted, "count"},
      {"core.accept_ratio", ratio(c.accepted, c.candidates), "ratio"},
      {"core.insert_tries", c.insert_tries, "count"},
      {"core.insert_rejects", c.insert_rejects, "count"},
      {"core.dummy_gates", c.dummy_gates, "count"},
      {"core.ht_inserted", c.ht_inserted, "count"},
      {"gen.build_ms", t.total_ms("gen.make_benchmark"), "ms"},
      {"tech.analyze_ms", t.total_ms("tech.analyze"), "ms"},
      {"sat.check_ms", t.total_ms("sat.check"), "ms"},
      {"sat.sat_calls", c.sat_calls, "count"},
      {"sat.outputs_proved", c.outputs_proved, "count"},
      {"sat.outputs_shared", c.outputs_shared, "count"},
      {"sat.sweep_merges", c.sweep_merges, "count"},
      {"sat.prepass_hits", c.prepass_hits, "count"},
      {"sat.conflicts", c.conflicts, "count"},
      {"sat.propagations", c.propagations, "count"},
      {"trace.unaccounted_ratio", t.unaccounted_ratio(), "ratio"},
      {"trace.wall_ratio", ratio(rep.traced_ms, rep.untraced_ms), "ratio"},
  };
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

int run_selftest(const Args& a) {
  bool all = true;
  tz::Json cases = tz::Json(tz::JsonObject{});
  for (const auto& [name, tripped] : perfbench::gate_self_test(a.cfg)) {
    std::cout << "gate " << name << (tripped ? " trips" : " DOES NOT TRIP")
              << "\n";
    cases.set(name, tripped);
    all = all && tripped;
  }
  tz::Json out = tz::Json(tz::JsonObject{});
  out.set("selftest", std::move(cases));
  std::cout << out.dump() << std::endl;
  return all ? 0 : 1;
}

int run(const Args& a) {
  Report rep;
  perfbench::Tracer tracer;
  Counters counters;
  const tz::Json stamp = run_stamp(a);
  std::cout << "stamp " << stamp.dump() << "\n";
  perfbench::run_workload(a.cfg, rep, a.trace ? &tracer : nullptr,
                          a.trace ? &counters : nullptr);

  std::vector<Metric> metrics;
  if (a.trace) {
    metrics = per_layer(rep, tracer, counters, a.cfg.threads);
    std::cout << "self time by layer (ms):\n";
    for (const auto& [layer, ms] : tracer.self_ms_by_layer()) {
      std::cout << "  " << layer << " " << fmt(ms) << "\n";
    }
    const std::string path = a.cfg.workdir + "/trace-" + a.cfg.workload +
                             "-seed" + std::to_string(a.cfg.seed) + ".json";
    if (!tracer.write_chrome_json(path, stamp.dump())) {
      rep.check("cannot write " + path);
    }
    std::cout << "trace_file " << path << "\n";
  } else {
    metrics = end_to_end(rep);
    std::cout << "ops " << rep.ops << " in " << fmt(rep.timed_wall_s)
              << " s\n";
    for (const auto& [kind, ms] : rep.op_ms_by_kind) {
      std::cout << "op " << kind << " n=" << ms.size() << " min_ms="
                << fmt(quantile(ms, 0)) << " p50_ms=" << fmt(quantile(ms, 0.5))
                << " max_ms=" << fmt(quantile(ms, 1)) << "\n";
    }
    if (rep.op_ms.size() >= 100) {
      std::cout << "metric op_ms_p90 " << fmt(quantile(rep.op_ms, 0.9))
                << " ms\n";
    }
  }
  const std::size_t failed = std::min(rep.failures.size(), rep.attempted);
  std::cout << "metric fail_ratio "
            << fmt(rep.attempted > 0 ? static_cast<double>(failed) /
                                           static_cast<double>(rep.attempted)
                                     : 1.0)
            << " ratio\n";
  for (const std::string& why : rep.failures) {
    std::cout << "FAILED " << why << "\n";
  }
  for (const std::string& note : rep.notes) std::cout << note << "\n";

  tz::Json out = tz::Json(tz::JsonObject{});
  tz::Json m = tz::Json(tz::JsonObject{});
  for (const Metric& x : metrics) {
    std::cout << "metric " << x.name << " " << fmt(x.value) << " " << x.unit
              << "\n";
    tz::Json v = tz::Json(tz::JsonObject{});
    v.set("value", x.value);
    v.set("unit", x.unit);
    m.set(x.name, std::move(v));
  }
  out.set("correct", rep.failures.empty() && rep.attempted > 0);
  out.set("attempted", std::max<std::size_t>(rep.attempted, 1));
  out.set("failed", rep.attempted > 0 ? failed : std::size_t{1});
  out.set("metrics", std::move(m));
  std::cout << out.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args a = parse_args(argc, argv);
    a.cfg.threads = std::min<std::size_t>(4, tz::effective_cpu_count());
    return a.selftest ? run_selftest(a) : run(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
