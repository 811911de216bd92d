// Shared plumbing of the dbmr benchmark: clocks, in-memory spans written
// out as Chrome trace_event JSON, percentiles, and the per-run result every
// workload fills in.
//
// Every timing the benchmark reports is taken here, around calls into a
// layer's public API; nothing inside the program under test is timed.

#ifndef DBMR_PERFBENCH_HARNESS_H_
#define DBMR_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since an arbitrary fixed origin.
int64_t NowNs();

/// CPU time consumed by every thread of this process, in nanoseconds.
int64_t ProcessCpuNs();

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Linear-interpolated percentile (p in [0, 100]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);

/// Median of `v`; 0 when empty.
double Median(std::vector<double> v);

/// What the command line asked for.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Shrinks every workload to a smoke-test size (self-test only).
  bool tiny = false;
  /// Where a traced run writes its spans.
  std::string trace_file;
};

/// In-memory spans: name, start, end, parent span and thread track.
/// Begin/End nest on the calling (main) thread; Add records a span timed
/// elsewhere, e.g. on a pool worker, after the fact.  Disabled tracers
/// record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span as a child of the innermost open one; returns its id
  /// (-1 when disabled).
  int Begin(std::string name);
  void End(int id);

  /// Records a finished span under `parent` (-1: top level) on track
  /// `tid`.
  void Add(std::string name, int64_t start_ns, int64_t end_ns, int parent,
           int tid);

  /// Innermost open span, or -1.
  int current() const { return open_.empty() ? -1 : open_.back(); }

  size_t size() const { return spans_.size(); }

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// timestamps are microseconds since the first span.  False on I/O
  /// error.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int tid = 0;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on the main thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer), id_(tracer->Begin(std::move(name))) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// One reported number.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What one benchmark run found.  `failed` counts failed operations (see
/// METRICS.md for what fails, per workload); `correct` is false when the
/// benchmark's own consistency checks fail — passes over identical inputs
/// disagree, the traced pass disagrees with the untraced one, the
/// simulation auditor reports a violation, or the accounting is off.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;  // why `correct` is false

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// Runs `setup` `reps` times and returns the median process CPU time of
/// one repetition, in seconds; the caller keeps the state of the last
/// repetition.  `teardown` runs untimed before each repetition and frees
/// the previous repetition's state, so only construction is timed.  CPU
/// time, not wall time: on a shared host a set-up lasting milliseconds is
/// dominated by when the scheduler gets round to it, while the work it does
/// repeats.
template <typename Teardown, typename Setup>
double TimedSetup(int reps, Teardown&& teardown, Setup&& setup) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    teardown();
    const int64_t t0 = ProcessCpuNs();
    setup();
    s.push_back(static_cast<double>(ProcessCpuNs() - t0) * 1e-9);
  }
  return Median(s);
}

/// Workload entry points (sim_workloads.cc, engine_oltp.cc, crash_sweep.cc).
void RunPaperGrid(const RunConfig& cfg, Tracer* tracer, RunResult* out);
void RunContendedScale(const RunConfig& cfg, Tracer* tracer, RunResult* out);
void RunEngineOltp(const RunConfig& cfg, Tracer* tracer, RunResult* out);
void RunCrashSweep(const RunConfig& cfg, Tracer* tracer, RunResult* out);

/// Every per-layer metric name with its unit, in report order.  Names a
/// workload does not measure are reported as 0 (layer bypassed).
std::vector<std::pair<std::string, std::string>> PerLayerMetricNames();

/// Sim families (core::ArchRegistry entries with a sim half) and engine
/// fixtures, in registry order.
std::vector<std::string> SimFamilies();
std::vector<std::string> EngineNames();

}  // namespace perfbench

#endif  // DBMR_PERFBENCH_HARNESS_H_
