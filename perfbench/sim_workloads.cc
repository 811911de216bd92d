// paper_grid and contended_scale: the simulation side of dbmr.
//
// paper_grid runs the paper's own traffic: every sim family of
// core::ArchRegistry across the four §4 configurations, through
// core::RunGrid on one pool.  contended_scale runs one large logging
// machine with Zipf-skewed short transactions, the only workload where
// admission at high MPL, lock waits and deadlock restarts do real work.
// Both are closed loops: a pass starts only after the previous one ends,
// and every pass replays the same seeded inputs, so simulated statistics
// must repeat exactly from pass to pass.

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/arch_registry.h"
#include "core/experiment.h"
#include "core/grid.h"
#include "core/thread_pool.h"
#include "harness.h"
#include "machine/machine.h"
#include "machine/recovery_arch.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/str.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using dbmr::Rng;
using dbmr::StrFormat;
namespace core = dbmr::core;
namespace machine = dbmr::machine;
namespace sim = dbmr::sim;
namespace workload = dbmr::workload;

/// Host time one architecture instance spent in its own hooks.
struct ArchTiming {
  std::string family;
  int64_t self_ns = 0;
  uint64_t hooks = 0;           // hook calls
  uint64_t sync_callbacks = 0;  // callbacks run inside a hook
  int64_t attach_ns = 0;  // machine construction
  int64_t finish_ns = 0;  // result collection (Machine::Finish)
  std::thread::id thread;
};

/// Forwards every RecoveryArch virtual to the wrapped architecture and
/// charges the host time spent inside the hooks to `timing`.  Self time
/// excludes the machine callbacks a hook invokes: every callback handed to
/// the architecture is wrapped, and time is charged only while the
/// innermost frame on the owner stack belongs to the architecture.
class TimedArch : public machine::RecoveryArch {
 public:
  TimedArch(std::unique_ptr<machine::RecoveryArch> inner, ArchTiming* timing)
      : inner_(std::move(inner)), timing_(timing) {}

  std::string name() const override { return inner_->name(); }
  std::string registry_name() const override {
    return inner_->registry_name();
  }
  void Attach(machine::Machine* m) override {
    timing_->attach_ns = NowNs();
    timing_->thread = std::this_thread::get_id();
    machine_ = m;
    Push(true);
    inner_->Attach(m);
    Pop();
  }
  void BeforeRead(dbmr::txn::TxnId t, uint64_t page,
                  std::function<void()> done) override {
    std::function<void()> cb = Wrap(std::move(done));
    Push(true);
    inner_->BeforeRead(t, page, std::move(cb));
    Pop();
  }
  machine::Placement ReadPlacement(uint64_t page) override {
    Push(true);
    const machine::Placement p = inner_->ReadPlacement(page);
    Pop();
    return p;
  }
  int ReadTransferPages() const override {
    Push(true);
    const int n = inner_->ReadTransferPages();
    Pop();
    return n;
  }
  sim::TimeMs ExtraCpu(dbmr::txn::TxnId t, uint64_t page,
                       bool is_write) override {
    Push(true);
    const sim::TimeMs ms = inner_->ExtraCpu(t, page, is_write);
    Pop();
    return ms;
  }
  void CollectRecoveryData(dbmr::txn::TxnId t, uint64_t page,
                           std::function<void()> ready) override {
    std::function<void()> cb = Wrap(std::move(ready));
    Push(true);
    inner_->CollectRecoveryData(t, page, std::move(cb));
    Pop();
  }
  void WriteUpdatedPage(dbmr::txn::TxnId t, uint64_t page,
                        std::function<void()> done) override {
    std::function<void()> cb = Wrap(std::move(done));
    Push(true);
    inner_->WriteUpdatedPage(t, page, std::move(cb));
    Pop();
  }
  void OnCommit(dbmr::txn::TxnId t, std::function<void()> done) override {
    std::function<void()> cb = Wrap(std::move(done));
    Push(true);
    inner_->OnCommit(t, std::move(cb));
    Pop();
  }
  void OnRestart(dbmr::txn::TxnId t, std::function<void()> done) override {
    std::function<void()> cb = Wrap(std::move(done));
    Push(true);
    inner_->OnRestart(t, std::move(cb));
    Pop();
  }
  void ContributeStats(machine::MachineResult* r) override {
    Push(true);
    inner_->ContributeStats(r);
    Pop();
    timing_->finish_ns = NowNs();
  }

 private:
  void Switch() const {
    const int64_t now = NowNs();
    if (!owners_.empty() && owners_.back()) timing_->self_ns += now - last_;
    last_ = now;
  }
  void Push(bool arch) const {
    Switch();
    if (arch) {
      ++timing_->hooks;
    } else if (!owners_.empty() && owners_.back()) {
      ++timing_->sync_callbacks;
    }
    owners_.push_back(arch);
  }
  void Pop() const {
    Switch();
    owners_.pop_back();
  }
  std::function<void()> Wrap(std::function<void()> cb) {
    return [this, cb = std::move(cb)] {
      Push(false);
      cb();
      Pop();
    };
  }

  std::unique_ptr<machine::RecoveryArch> inner_;
  ArchTiming* timing_;
  // Owner stack: true while architecture code runs, false inside a
  // machine callback.  Mutable so the const hook can be timed too.
  mutable std::vector<bool> owners_;
  mutable int64_t last_ = 0;
};

/// Thread-safe collection of per-instance timings for one traced pass.
class ArchTimings {
 public:
  ArchTiming* New(const std::string& family) {
    std::lock_guard<std::mutex> lock(mu_);
    all_.push_back(std::make_unique<ArchTiming>());
    all_.back()->family = family;
    return all_.back().get();
  }
  /// Wraps `make` so every instance it builds is timed.
  core::ArchFactory Wrap(const std::string& family, core::ArchFactory make) {
    return [this, family, make] {
      return std::make_unique<TimedArch>(make(), New(family));
    };
  }
  const std::vector<std::unique_ptr<ArchTiming>>& all() const { return all_; }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<ArchTiming>> all_;
};

/// Forwarding TxnSource that counts the pages it hands out and, when
/// `timed`, times every Next() call.
class CountingSource : public workload::TxnSource {
 public:
  CountingSource(std::unique_ptr<workload::TxnSource> inner, bool timed)
      : inner_(std::move(inner)), timed_(timed) {}
  bool Next(workload::TransactionSpec* out) override {
    const int64_t t0 = timed_ ? NowNs() : 0;
    const bool more = inner_->Next(out);
    if (timed_) ns_ += NowNs() - t0;
    ++calls_;
    if (more) pages_ += out->num_reads() + out->num_writes();
    return more;
  }
  uint64_t total() const override { return inner_->total(); }
  int64_t ns() const { return ns_; }
  uint64_t calls() const { return calls_; }
  uint64_t pages() const { return pages_; }

 private:
  std::unique_ptr<workload::TxnSource> inner_;
  bool timed_;
  int64_t ns_ = 0;
  uint64_t calls_ = 0;
  uint64_t pages_ = 0;
};

/// Calibration leg: a bare sim::Simulator firing `events` events of inline
/// closures that each reschedule one successor, holding `depth` events
/// pending — the machine's event count and peak pending depth without the
/// machine.  Returns host ns per fired event.
double KernelNsPerEvent(uint64_t events, uint64_t depth, uint64_t seed) {
  struct Loop {
    sim::Simulator sim;
    Rng rng;
    uint64_t left = 0;
    void Arm() {
      if (left == 0) return;
      --left;
      sim.Schedule(rng.Exponential(1.0), [this] { Arm(); });
    }
  };
  Loop loop;
  loop.rng = Rng(seed);
  loop.left = std::max<uint64_t>(events, 1);
  loop.sim.Reserve(static_cast<size_t>(depth) + 1);
  for (uint64_t i = 0; i < std::max<uint64_t>(depth, 1); ++i) loop.Arm();
  const int64_t t0 = NowNs();
  loop.sim.Run();
  const int64_t t1 = NowNs();
  return static_cast<double>(t1 - t0) /
         static_cast<double>(loop.sim.events_executed());
}

/// Pending depth of the deep-queue calibration leg: four times the depth
/// at which the kernel leaves its heap for the ladder queue today (8192),
/// and far above any depth the benchmark's machines reach.
constexpr uint64_t kDeepQueueDepth = 32768;

double Extra(const machine::MachineResult& r, const std::string& key) {
  auto it = r.extra.find(key);
  return it == r.extra.end() ? 0.0 : it->second;
}

/// Every simulated statistic of a result (auditor bookkeeping excluded),
/// printed with full precision: two runs of the same inputs must produce
/// the same string.
std::string Fingerprint(const machine::MachineResult& r) {
  std::string s = StrFormat(
      "%s|%.17g|%llu|%llu|%llu|%lld|%.17g|%.17g|%.17g|%.17g|%.17g|%llu",
      r.arch_name.c_str(), r.total_time_ms,
      static_cast<unsigned long long>(r.total_pages),
      static_cast<unsigned long long>(r.pages_read),
      static_cast<unsigned long long>(r.pages_written),
      static_cast<long long>(r.completion_ms.count()), r.completion_ms.mean(),
      r.completion_ms.min(), r.completion_ms.max(), r.qp_util,
      r.avg_blocked_pages,
      static_cast<unsigned long long>(r.deadlock_restarts));
  for (double u : r.data_disk_util) s += StrFormat("|%.17g", u);
  for (uint64_t a : r.data_disk_accesses) {
    s += StrFormat("|%llu", static_cast<unsigned long long>(a));
  }
  for (const auto& [k, v] : r.extra) {
    if (k.rfind("audit_", 0) == 0) continue;
    s += StrFormat("|%s=%.17g", k.c_str(), v);
  }
  return s;
}

/// Simulated-statistics summary over a set of results (exact counts).
struct SimTotals {
  double txns = 0;
  double events = 0;
  double max_pending = 0;
  double ladder_spills = 0;
  double restarts = 0;
  double disk_accesses = 0;
  double util_sum = 0;
  double util_n = 0;
  double ms_per_page_sum = 0;
  double completion_sum = 0;

  void Add(const machine::MachineResult& r) {
    const double n = static_cast<double>(r.completion_ms.count());
    txns += n;
    events += Extra(r, "sim_events_executed");
    max_pending = std::max(max_pending, Extra(r, "sim_slot_pool_highwater"));
    ladder_spills += Extra(r, "sim_ladder_spills");
    restarts += static_cast<double>(r.deadlock_restarts);
    for (uint64_t a : r.data_disk_accesses) {
      disk_accesses += static_cast<double>(a);
    }
    for (double u : r.data_disk_util) {
      util_sum += u;
      util_n += 1;
    }
    ms_per_page_sum += r.exec_time_per_page_ms;
    completion_sum += r.completion_ms.mean() * n;
  }

  void Report(RunResult* out, double runs) const {
    out->Set("sim.events_per_txn", events / txns, "count");
    out->Set("sim.max_pending_events", max_pending, "count");
    out->Set("sim.ladder_spills", ladder_spills, "count");
    out->Set("txn.restarts_per_txn", restarts / txns, "count");
    out->Set("txn.commit_ratio", txns / (txns + restarts), "ratio");
    out->Set("hw.disk_accesses_per_txn", disk_accesses / txns, "count");
    out->Set("hw.data_disk_util_mean", util_sum / util_n, "ratio");
    out->Set("machine.sim_ms_per_page", ms_per_page_sum / runs, "ms");
    out->Set("machine.sim_completion_mean_ms", completion_sum / txns, "ms");
  }
};

/// The kernel calibration legs of a traced run, each the median of three:
/// sim.kernel_ns_per_event at the mean event count of `machines` machines
/// and their peak pending depth, and sim.deep_queue_ns_per_event at
/// kDeepQueueDepth pending — the only leg that runs the ladder queue.
void KernelLegs(const SimTotals& totals, double machines,
                const RunConfig& cfg, Tracer* tracer, RunResult* out) {
  ScopedSpan span(tracer, "kernel_calibration");
  const uint64_t deep_events = (cfg.tiny ? 2 : 64) * kDeepQueueDepth;
  std::vector<double> ns, deep_ns;
  for (uint64_t rep = 0; rep < 3; ++rep) {
    ns.push_back(KernelNsPerEvent(
        static_cast<uint64_t>(totals.events / machines),
        static_cast<uint64_t>(totals.max_pending), cfg.seed + rep));
    deep_ns.push_back(
        KernelNsPerEvent(deep_events, kDeepQueueDepth, cfg.seed + rep));
  }
  out->Set("sim.kernel_ns_per_event", Median(ns), "ns");
  out->Set("sim.deep_queue_ns_per_event", Median(deep_ns), "ns");
}

/// Audit outcome of a traced pass: a violation fails the run's `weight`
/// operations.
void CheckAudit(const machine::MachineResult& r, const std::string& where,
                uint64_t weight, RunResult* out) {
  if (Extra(r, "audit_checks") <= 0) {
    out->Fail(where + ": auditor did not run");
  }
  if (!r.audit_violations.empty()) {
    out->failed += weight;
    out->Fail(where + ": audit violation: " + r.audit_violations[0]);
  }
}

/// Self time the wrapper itself adds per hook call and per synchronous
/// callback, measured on the bare architecture, whose hooks do nothing.
struct WrapperFloor {
  double hook_ns = 0;
  double callback_ns = 0;
};

WrapperFloor MeasureWrapperFloor() {
  constexpr int kCalls = 200000;
  WrapperFloor floor;
  ArchTiming plain;
  TimedArch bare(std::make_unique<machine::BareArch>(), &plain);
  for (int i = 0; i < kCalls; ++i) bare.ExtraCpu(0, 0, false);
  floor.hook_ns = static_cast<double>(plain.self_ns) / kCalls;
  ArchTiming with_cb;
  TimedArch bare_cb(std::make_unique<machine::BareArch>(), &with_cb);
  for (int i = 0; i < kCalls; ++i) bare_cb.BeforeRead(0, 0, [] {});
  floor.callback_ns =
      static_cast<double>(with_cb.self_ns) / kCalls - floor.hook_ns;
  return floor;
}

/// Self share per family of a traced pass: hook self time, less the
/// wrapper's own floor, over machine time (construction to result
/// collection).
void ReportSelfShares(const ArchTimings& timings, RunResult* out) {
  const WrapperFloor floor = MeasureWrapperFloor();
  std::map<std::string, std::pair<double, double>> by_family;
  for (const auto& t : timings.all()) {
    auto& [self, total] = by_family[t->family];
    self += std::max(0.0, static_cast<double>(t->self_ns) -
                              static_cast<double>(t->hooks) * floor.hook_ns -
                              static_cast<double>(t->sync_callbacks) *
                                  floor.callback_ns);
    total += static_cast<double>(t->finish_ns - t->attach_ns);
  }
  for (const auto& [family, st] : by_family) {
    out->Set("machine.arch." + family + ".self_share", st.first / st.second,
             "ratio");
  }
}

// ----------------------------------------------------------------------
// paper_grid

/// Replicates of each (family, configuration) cell per pass.  More cells
/// than pool threads keeps the pass's idle tail — the last cells running
/// while other threads wait — a small share of its wall time.
constexpr int kGridReplicates = 4;

struct GridInputs {
  core::GridSpec spec;
  std::vector<uint64_t> expected_pages;  // per cell, from the generator
};

core::GridSpec BuildGrid(uint64_t seed, int num_txns, int replicates,
                         ArchTimings* timings) {
  core::GridSpec spec;
  spec.name = "paper_grid";
  spec.base_seed = seed;
  spec.seed_policy = core::SeedPolicy::kDerived;
  for (int rep = 0; rep < replicates; ++rep) {
    for (const std::string& family : SimFamilies()) {
      auto make = core::MakeSimArchFactory(family);
      DBMR_CHECK(make.ok());
      core::ArchFactory factory = std::move(*make);
      if (timings != nullptr) factory = timings->Wrap(family, factory);
      spec.AddConfigSweep(family, factory, num_txns);
    }
  }
  return spec;
}

/// The workload a grid cell runs (RunGrid re-seeds each cell from the
/// base seed and the cell index).
workload::WorkloadOptions CellWorkload(const core::GridSpec& spec, size_t i) {
  workload::WorkloadOptions w = spec.cells[i].setup.workload;
  w.seed = core::DeriveCellSeed(spec.base_seed, i);
  return w;
}

}  // namespace

void RunPaperGrid(const RunConfig& cfg, Tracer* tracer, RunResult* out) {
  const int num_txns = cfg.tiny ? 6 : 60;
  const int replicates = cfg.tiny ? 1 : kGridReplicates;
  GridInputs in;
  std::unique_ptr<core::ThreadPool> pool;
  {
    ScopedSpan span(tracer, "setup");
    auto teardown = [&] {
      in = GridInputs();
      pool.reset();
    };
    const double setup_s = TimedSetup(5, teardown, [&] {
      in.spec = BuildGrid(cfg.seed, num_txns, replicates, nullptr);
      for (size_t i = 0; i < in.spec.cells.size(); ++i) {
        in.expected_pages.push_back(workload::TotalPages(
            workload::GenerateWorkload(CellWorkload(in.spec, i))));
      }
      pool = std::make_unique<core::ThreadPool>(0);
    });
    out->Set("setup_s", setup_s, "s");
  }

  // Every pass replays the same cells, so each pass's rate samples the
  // host alone; the median pass resists bursts of load from elsewhere.
  std::vector<std::string> first;  // per-cell fingerprints of pass 1
  std::vector<double> cpu_rate, wall_rate;
  double wall_ns = 0;
  double cpu_ns = 0;
  double cell_wall_ns = 0;
  double events = 0;
  std::map<std::string, double> family_ms;
  SimTotals totals;  // pass 1's simulated statistics
  int passes = 0;

  const int64_t start = NowNs();
  do {
    ScopedSpan span(tracer, StrFormat("pass%d", passes));
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    core::GridRunOptions opts;
    opts.pool = pool.get();
    const core::MetricsRegistry reg = core::RunGrid(in.spec, opts);
    const double wall = static_cast<double>(NowNs() - t0);
    const double cpu = static_cast<double>(ProcessCpuNs() - cpu0);
    double txns = 0;
    for (const core::CellMetrics& c : reg.cells()) {
      const machine::MachineResult& r = c.result;
      const size_t i = static_cast<size_t>(c.cell_index);
      out->attempted += 1;
      txns += static_cast<double>(r.completion_ms.count());
      const std::string fp = Fingerprint(r);
      if (passes == 0) {
        first.push_back(fp);
        totals.Add(r);
      }
      if (fp != first[i] || r.completion_ms.count() != num_txns ||
          r.total_pages != in.expected_pages[i]) {
        ++out->failed;
        out->Fail("cell " + c.cell_name + " differs between passes or from "
                  "its generated workload");
      }
      family_ms[c.arch_label] += c.wall_ms;
      cell_wall_ns += c.wall_ms * 1e6;
      events += Extra(r, "sim_events_executed");
    }
    cpu_rate.push_back(txns / (cpu * 1e-9));
    wall_rate.push_back(txns / (wall * 1e-9));
    wall_ns += wall;
    cpu_ns += cpu;
    ++passes;
  } while (static_cast<double>(NowNs() - start) * 1e-9 < cfg.seconds);

  if (!cfg.trace) {
    out->Set("ops_per_cpu_s", Median(cpu_rate), "1/s");
    return;
  }
  out->Set("wall_ops_per_s", Median(wall_rate), "1/s");

  // Traced pass: every architecture wrapped, the auditor collecting.
  ArchTimings timings;
  core::GridSpec traced = BuildGrid(cfg.seed, num_txns, replicates, &timings);
  for (core::GridCellSpec& cell : traced.cells) {
    cell.setup.machine.audit = true;
    cell.setup.machine.audit_abort = false;
  }
  int64_t traced_ns = 0;
  {
    ScopedSpan span(tracer, "pass.traced");
    const int grid_span = tracer->current();
    core::GridRunOptions opts;
    opts.pool = pool.get();
    const int64_t t0 = NowNs();
    const core::MetricsRegistry reg = core::RunGrid(traced, opts);
    traced_ns = NowNs() - t0;
    for (const core::CellMetrics& c : reg.cells()) {
      const size_t i = static_cast<size_t>(c.cell_index);
      if (Fingerprint(c.result) != first[i]) {
        ++out->failed;
        out->Fail("cell " + c.cell_name + ": traced statistics differ");
      }
      CheckAudit(c.result, c.cell_name, 1, out);
    }
    std::map<std::thread::id, int> tids;
    for (const auto& t : timings.all()) {
      const int tid =
          tids.emplace(t->thread, static_cast<int>(tids.size()) + 1)
              .first->second;
      tracer->Add("Machine " + t->family, t->attach_ns, t->finish_ns,
                  grid_span, tid);
    }
  }
  ReportSelfShares(timings, out);

  for (const auto& [family, ms] : family_ms) {
    out->Set("machine." + family + ".host_ms", ms / passes, "ms");
  }
  out->Set("machine.host_ns_per_event", cell_wall_ns / events, "ns");
  out->Set("core.pool_busy_share",
           cpu_ns / (wall_ns * static_cast<double>(pool->size())), "ratio");
  totals.Report(out, static_cast<double>(in.spec.cells.size()));
  out->Set("trace_overhead_frac",
           static_cast<double>(traced_ns) / (wall_ns / passes) - 1.0, "ratio");

  KernelLegs(totals, static_cast<double>(in.spec.cells.size()), cfg, tracer,
             out);
  {
    ScopedSpan span(tracer, "workload_drain");
    int64_t ns = 0;
    uint64_t calls = 0;
    for (size_t i = 0; i < in.spec.cells.size(); ++i) {
      CountingSource src(
          workload::MakeGeneratorSource(CellWorkload(in.spec, i)), true);
      workload::TransactionSpec spec;
      while (src.Next(&spec)) {
      }
      ns += src.ns();
      calls += src.calls();
    }
    out->Set("workload.next_ns",
             static_cast<double>(ns) / static_cast<double>(calls), "ns");
  }
}

// ----------------------------------------------------------------------
// contended_scale

namespace {

/// Machines per pass.  The host cost of a transaction here depends on the
/// waits-for graphs its seed happens to build, so one machine is a poor
/// sample of the workload; a pass runs several, each from its own seed.
constexpr int kScaleMachines = 8;

machine::MachineConfig ScaleMachine(uint64_t seed) {
  machine::MachineConfig m;
  m.num_query_processors = 1000;
  m.cache_frames = 4000;
  m.num_data_disks = 64;
  m.db_pages = 4000000;
  m.mpl = 400;
  m.audit = false;
  m.seed = seed;
  return m;
}

workload::WorkloadOptions ScaleWorkload(uint64_t seed, bool tiny) {
  workload::WorkloadOptions w;
  w.num_transactions = tiny ? 500 : 2500;
  w.min_pages = 1;
  w.max_pages = 4;
  w.zipf_theta = 0.9;
  w.kind = workload::ReferenceKind::kRandom;
  w.db_pages = 4000000;
  w.seed = seed;
  return w;
}

std::unique_ptr<machine::RecoveryArch> MakeLogging() {
  auto make = core::MakeSimArchFactory("logging");
  DBMR_CHECK(make.ok());
  return (*make)();
}

/// One machine of a pass, with the source it streams from.
struct ScaleMachineRun {
  CountingSource* source = nullptr;  // owned by `machine`
  std::unique_ptr<machine::Machine> machine;
};

/// Builds machine `k` (seeded from the run's seed); `traced` wraps the
/// architecture, times the source and turns the auditor on.
ScaleMachineRun BuildScaleMachine(uint64_t seed, int k, bool tiny,
                                  bool traced, ArchTimings* timings) {
  const uint64_t s = core::DeriveCellSeed(seed, static_cast<uint64_t>(k));
  machine::MachineConfig mc = ScaleMachine(s);
  std::unique_ptr<machine::RecoveryArch> arch = MakeLogging();
  if (traced) {
    mc.audit = true;
    mc.audit_abort = false;
    arch = std::make_unique<TimedArch>(std::move(arch),
                                       timings->New("logging"));
  }
  auto src = std::make_unique<CountingSource>(
      workload::MakeGeneratorSource(ScaleWorkload(s, tiny)), traced);
  ScaleMachineRun run;
  run.source = src.get();
  run.machine = std::make_unique<machine::Machine>(mc, std::move(src),
                                                   std::move(arch));
  return run;
}

}  // namespace

void RunContendedScale(const RunConfig& cfg, Tracer* tracer, RunResult* out) {
  // Machines of the next pass, built (Zipf tables included) before timing.
  std::vector<ScaleMachineRun> ready;
  auto build_pass = [&] {
    for (int k = 0; k < kScaleMachines; ++k) {
      ready.push_back(BuildScaleMachine(cfg.seed, k, cfg.tiny, false, nullptr));
    }
  };
  {
    ScopedSpan span(tracer, "setup");
    out->Set("setup_s",
             TimedSetup(5, [&] { ready.clear(); }, build_pass), "s");
  }
  const uint64_t want = static_cast<uint64_t>(
      ScaleWorkload(cfg.seed, cfg.tiny).num_transactions);

  // Every pass replays the same machines, so each pass's rate samples the
  // host alone; the median pass resists bursts of load from elsewhere.
  std::vector<std::string> first;  // per-machine fingerprints of pass 1
  std::vector<machine::MachineResult> pass0;
  std::vector<double> cpu_rate, wall_rate;
  double events = 0;
  double wall_ns = 0;
  int passes = 0;

  // Accounting and repetition checks of machine `k`'s result.
  auto check = [&](const machine::MachineResult& r, int k,
                   const ScaleMachineRun& run, const std::string& where) {
    const std::string fp = Fingerprint(r);
    if (first.size() <= static_cast<size_t>(k)) first.push_back(fp);
    out->attempted += want;
    if (static_cast<uint64_t>(r.completion_ms.count()) != want ||
        r.total_pages != run.source->pages() ||
        fp != first[static_cast<size_t>(k)]) {
      out->failed += want;
      out->Fail(where + ": simulated statistics differ between passes or "
                "from the generated workload");
    }
  };

  const int64_t start = NowNs();
  do {
    ScopedSpan span(tracer, StrFormat("pass%d", passes));
    if (passes > 0) build_pass();
    double wall = 0;
    double cpu = 0;
    double txns = 0;
    for (int k = 0; k < kScaleMachines; ++k) {
      ScaleMachineRun& run = ready[static_cast<size_t>(k)];
      const int64_t cpu0 = ProcessCpuNs();
      const int64_t t0 = NowNs();
      const machine::MachineResult r = run.machine->Run();
      wall += static_cast<double>(NowNs() - t0);
      cpu += static_cast<double>(ProcessCpuNs() - cpu0);
      txns += static_cast<double>(r.completion_ms.count());
      events += Extra(r, "sim_events_executed");
      check(r, k, run, StrFormat("pass %d machine %d", passes, k));
      if (passes == 0) pass0.push_back(r);
    }
    ready.clear();
    cpu_rate.push_back(txns / (cpu * 1e-9));
    wall_rate.push_back(txns / (wall * 1e-9));
    wall_ns += wall;
    ++passes;
  } while (static_cast<double>(NowNs() - start) * 1e-9 < cfg.seconds);

  if (!cfg.trace) {
    out->Set("ops_per_cpu_s", Median(cpu_rate), "1/s");
    return;
  }
  out->Set("wall_ops_per_s", Median(wall_rate), "1/s");

  // Traced pass: the same machines, wrapped and audited; their simulated
  // statistics must repeat exactly.
  ArchTimings timings;
  int64_t next_ns = 0;
  uint64_t next_calls = 0;
  int64_t traced_ns = 0;
  {
    ScopedSpan span(tracer, "pass.traced");
    for (int k = 0; k < kScaleMachines; ++k) {
      ScaleMachineRun run =
          BuildScaleMachine(cfg.seed, k, cfg.tiny, true, &timings);
      const int64_t t0 = NowNs();
      const machine::MachineResult r = run.machine->Run();
      const int64_t t1 = NowNs();
      traced_ns += t1 - t0;
      const std::string where = StrFormat("traced machine %d", k);
      check(r, k, run, where);
      CheckAudit(r, where, want, out);
      next_ns += run.source->ns();
      next_calls += run.source->calls();
      tracer->Add("Machine::Run logging", t0, t1, tracer->current(), 0);
    }
  }
  ReportSelfShares(timings, out);
  SimTotals totals;
  for (const machine::MachineResult& r : pass0) totals.Add(r);
  totals.Report(out, kScaleMachines);
  out->Set("machine.logging.host_ms", wall_ns * 1e-6 / passes, "ms");
  out->Set("machine.host_ns_per_event", wall_ns / events, "ns");
  out->Set("workload.next_ns",
           static_cast<double>(next_ns) / static_cast<double>(next_calls),
           "ns");
  out->Set("trace_overhead_frac",
           static_cast<double>(traced_ns) / (wall_ns / passes) - 1.0, "ratio");
  KernelLegs(totals, kScaleMachines, cfg, tracer, out);
}

}  // namespace perfbench
