// dbmr_perfbench: runs one benchmark workload and prints its result as the
// last line of standard output, one JSON object:
//
//   {"correct": bool, "attempted": N, "failed": N,
//    "metrics": {"name": {"value": x, "unit": "u"}, ...}}
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics and write their spans to
// --trace-file as Chrome trace_event JSON.  METRICS.md maps every name.
//
// Usage: dbmr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                       [--trace-file PATH] [--tiny]

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

const char* const kWorkloads[] = {"paper_grid", "contended_scale",
                                  "engine_oltp", "crash_sweep"};

/// End-to-end metrics every workload reports when untraced.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"}, {"ops_per_cpu_s", "1/s"}};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: dbmr_perfbench --workload "
               "paper_grid|contended_scale|engine_oltp|crash_sweep --seed N "
               "--seconds S --trace 0|1 [--trace-file PATH] [--tiny]\n",
               msg);
  std::exit(2);
}

/// Parses a whole non-negative decimal number; exits on anything else.
uint64_t ParseCount(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*text == '\0' || *text == '-' || end == nullptr || *end != '\0') {
    Usage((std::string(flag) + " wants a whole number").c_str());
  }
  return v;
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig cfg;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      cfg.tiny = true;
      continue;
    }
    if (i + 1 >= argc) Usage((flag + " needs a value").c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = ParseCount("--seed", value);
      have_seed = true;
    } else if (flag == "--seconds") {
      cfg.seconds = static_cast<double>(ParseCount("--seconds", value));
      have_seconds = true;
    } else if (flag == "--trace") {
      const uint64_t t = ParseCount("--trace", value);
      if (t > 1) Usage("--trace is 0 or 1");
      cfg.trace = t == 1;
      have_trace = true;
    } else if (flag == "--trace-file") {
      cfg.trace_file = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || cfg.workload == w;
  if (!known) Usage("--workload names no workload");
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds and --trace are required");
  }
  return cfg;
}

/// The number with every significant digit, as JSON.
std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  const RunConfig cfg = ParseArgs(argc, argv);
  Tracer tracer(cfg.trace);
  RunResult result;
  if (cfg.workload == "paper_grid") {
    RunPaperGrid(cfg, &tracer, &result);
  } else if (cfg.workload == "contended_scale") {
    RunContendedScale(cfg, &tracer, &result);
  } else if (cfg.workload == "engine_oltp") {
    RunEngineOltp(cfg, &tracer, &result);
  } else {
    RunCrashSweep(cfg, &tracer, &result);
  }
  result.Set("peak_rss_mb", PeakRssMb(), "MB");

  // Report exactly the mode's metric set: a per-layer name the workload
  // does not measure reads 0 (its layer is bypassed); a missing end-to-end
  // metric or an unknown name is a benchmark bug.
  const auto per_layer = PerLayerMetricNames();
  const auto& names = cfg.trace ? per_layer : kEndToEnd;
  std::set<std::string> known;
  for (const auto& [name, unit] : kEndToEnd) known.insert(name);
  for (const auto& [name, unit] : per_layer) known.insert(name);
  for (const auto& [name, m] : result.metrics) {
    if (known.count(name) == 0) result.Fail("unlisted metric " + name);
  }
  std::string metrics;
  for (const auto& [name, unit] : names) {
    double value = 0;
    auto it = result.metrics.find(name);
    if (it != result.metrics.end()) {
      value = it->second.value;
      if (it->second.unit != unit) result.Fail("unit of " + name);
    } else if (!cfg.trace) {
      result.Fail("end-to-end metric " + name + " not measured");
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + Number(value) +
               ", \"unit\": \"" + unit + "\"}";
  }

  if (cfg.trace && !cfg.trace_file.empty()) {
    if (tracer.WriteChromeJson(cfg.trace_file)) {
      std::fprintf(stderr, "trace: %zu spans written to %s\n", tracer.size(),
                   cfg.trace_file.c_str());
    } else {
      result.Fail("cannot write " + cfg.trace_file);
    }
  }
  for (const std::string& p : result.problems) {
    std::fprintf(stderr, "check failed: %s\n", p.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
