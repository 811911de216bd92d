// crash_sweep: the recovery-dominated use of the store, on tiny stores.
//
// The dbmr_torture default fault families (write crash, nested crash
// inside Recover(), double recover, transient fault, bit flip) for every
// engine over a contiguous window of torture seeds, each (engine, seed)
// one chaos::CrashSweeper::Run on one shared core::ThreadPool, followed by
// a media-failure sweep over torture seeds M = seed and M+1.  The window is
// kWindow seeds starting at S = 1 + (seed - 1) mod kWindowStarts, so every
// window contains the WAL seeds known to violate the commit contract
// (18, 33 and 60); no seed in the window is ever skipped.  Only 18 windows
// exist, so benchmark seeds equal mod 18 share one; the media sweep takes
// the whole seed.  Each violation is a failed operation.  A pass is
// closed-loop: one Run after another.
//
// The failed count of a run (that of its first pass; every pass must
// repeat it) equals the total_violations of
//   dbmr_torture --seeds=S..S+63 --jobs=N
// plus that of
//   dbmr_torture --seeds=M,M+1 --media-faults --no-nested --no-transient
//                --bit-flips=0 --max-crash-points=0

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chaos/crash_sweeper.h"
#include "core/thread_pool.h"
#include "harness.h"
#include "util/str.h"

namespace perfbench {
namespace {

namespace chaos = dbmr::chaos;
namespace core = dbmr::core;
using dbmr::StrFormat;

constexpr uint64_t kWindow = 64;
constexpr uint64_t kWindowStarts = 18;  // start <= 18 keeps 18..60 inside
constexpr uint64_t kMediaSeeds = 2;

chaos::SweepOptions MediaOptions() {
  chaos::SweepOptions o;
  o.media_faults = true;
  o.fixture.log_mirroring = true;
  o.fixture.archive = true;
  o.nested_recovery_crashes = false;
  o.nested_recovery_read_crashes = false;
  o.transient_faults = false;
  o.bit_flip_trials = 0;
  o.max_crash_points = 0;
  o.jobs = 1;
  return o;
}

/// Deterministic outcome of one (engine, seed) sweep.
struct Outcome {
  int64_t schedules = 0;
  size_t violations = 0;
  int64_t replay_records = 0;
  bool operator==(const Outcome&) const = default;
};

/// Everything one pass measured.
struct PassResult {
  std::vector<Outcome> outcomes;  // default sweeps, then media sweeps
  // Schedules per CPU second and per wall second of each unit: one per
  // seed, then the media sweep.
  std::vector<double> unit_cpu_rate, unit_wall_rate;
  std::map<std::string, double> sweep_ns, cpu_ns, recovery_ms;
  std::map<std::string, int64_t> schedules;
  std::map<std::string, size_t> violations;
  double default_wall_ns = 0;
  double default_cpu_ns = 0;
  double media_wall_ns = 0;
  int64_t media_schedules = 0;
  int64_t total_schedules = 0;
  size_t total_violations = 0;
};

}  // namespace

void RunCrashSweep(const RunConfig& cfg, Tracer* tracer, RunResult* out) {
  const uint64_t start = 1 + (cfg.seed - 1) % kWindowStarts;
  const uint64_t window = cfg.tiny ? 2 : kWindow;
  const uint64_t media_seeds = cfg.tiny ? 1 : kMediaSeeds;
  std::vector<std::string> engines;
  std::unique_ptr<core::ThreadPool> pool;
  // The window's sweepers, seed-major, then the media sweepers; a sweeper
  // can Run() again, so every pass reuses them.
  std::vector<std::unique_ptr<chaos::CrashSweeper>> sweepers, media;
  {
    ScopedSpan span(tracer, "setup");
    auto teardown = [&] {
      sweepers.clear();
      media.clear();
      pool.reset();
    };
    const double setup_s = TimedSetup(41, teardown, [&] {
      engines = EngineNames();
      pool = std::make_unique<core::ThreadPool>(0);
      chaos::SweepOptions o;
      o.jobs = static_cast<int>(pool->size());
      for (uint64_t s = start; s < start + window; ++s) {
        for (const std::string& e : engines) {
          o.seed = s;
          sweepers.push_back(std::make_unique<chaos::CrashSweeper>(e, o));
        }
      }
      chaos::SweepOptions m = MediaOptions();
      for (const std::string& e : engines) {
        for (uint64_t s = cfg.seed; s < cfg.seed + media_seeds; ++s) {
          m.seed = s;
          media.push_back(std::make_unique<chaos::CrashSweeper>(e, m));
        }
      }
    });
    out->Set("setup_s", setup_s, "s");
  }

  // Seed-major: each torture seed's sweeps over every engine form one
  // unit, and the run reports the median unit's rate.  Every window holds
  // kWindow units of similar mix, so the median is steady across windows
  // and resists bursts of load from elsewhere on the host.
  auto run_pass = [&](const std::string& label) {
    ScopedSpan pass_span(tracer, label);
    PassResult p;
    const int64_t d0 = NowNs();
    const int64_t dcpu0 = ProcessCpuNs();
    for (uint64_t u = 0; u < window; ++u) {
      const int64_t u0 = NowNs();
      const int64_t ucpu0 = ProcessCpuNs();
      int64_t unit_schedules = 0;
      for (size_t i = 0; i < engines.size(); ++i) {
        const std::string& e = engines[i];
        ScopedSpan span(tracer,
                        StrFormat("sweep %s seed %llu", e.c_str(),
                                  static_cast<unsigned long long>(start + u)));
        chaos::CrashSweeper& sweeper = *sweepers[u * engines.size() + i];
        const int64_t cpu0 = ProcessCpuNs();
        const int64_t t0 = NowNs();
        const chaos::SweepReport r = sweeper.Run(pool.get());
        p.sweep_ns[e] += static_cast<double>(NowNs() - t0);
        p.cpu_ns[e] += static_cast<double>(ProcessCpuNs() - cpu0);
        p.recovery_ms[e] += r.recovery_ms;
        p.schedules[e] += r.schedules;
        p.violations[e] += r.violations.size();
        unit_schedules += r.schedules;
        p.outcomes.push_back({r.schedules, r.violations.size(),
                              r.replay_records});
      }
      const double n = static_cast<double>(unit_schedules);
      p.unit_cpu_rate.push_back(
          n / (static_cast<double>(ProcessCpuNs() - ucpu0) * 1e-9));
      p.unit_wall_rate.push_back(
          n / (static_cast<double>(NowNs() - u0) * 1e-9));
    }
    p.default_wall_ns = static_cast<double>(NowNs() - d0);
    p.default_cpu_ns = static_cast<double>(ProcessCpuNs() - dcpu0);

    // Media sweeps run sequentially inside each Run, so parallelize across
    // (engine, seed) instead, one single-threaded sweeper per pool slot.
    ScopedSpan media_span(tracer, "media sweep");
    std::vector<chaos::SweepReport> reports(media.size());
    const int64_t m0 = NowNs();
    const int64_t mcpu0 = ProcessCpuNs();
    pool->ParallelFor(reports.size(),
                      [&](size_t i) { reports[i] = media[i]->Run(nullptr); });
    p.media_wall_ns = static_cast<double>(NowNs() - m0);
    const double media_cpu_ns = static_cast<double>(ProcessCpuNs() - mcpu0);
    for (const chaos::SweepReport& r : reports) {
      p.media_schedules += r.schedules;
      p.total_violations += r.violations.size();
      p.outcomes.push_back({r.schedules, r.violations.size(),
                            r.replay_records});
    }
    const double media_n = static_cast<double>(p.media_schedules);
    p.unit_cpu_rate.push_back(media_n / (media_cpu_ns * 1e-9));
    p.unit_wall_rate.push_back(media_n / (p.media_wall_ns * 1e-9));
    p.total_schedules = p.media_schedules;
    for (const auto& [e, n] : p.schedules) p.total_schedules += n;
    for (const auto& [e, n] : p.violations) p.total_violations += n;
    return p;
  };

  std::vector<PassResult> passes;
  double wall_ns = 0;
  const int64_t t_start = NowNs();
  do {
    passes.push_back(run_pass(StrFormat("pass%zu", passes.size())));
    const PassResult& p = passes.back();
    wall_ns += p.default_wall_ns + p.media_wall_ns;
    if (!(p.outcomes == passes[0].outcomes)) {
      out->Fail("a pass found different schedules or violations than the "
                "first");
    }
  } while (static_cast<double>(NowNs() - t_start) * 1e-9 < cfg.seconds);
  // Every pass sweeps the same schedules, so the first pass alone is the
  // run's operation count, however many passes fit in --seconds.
  out->attempted += static_cast<uint64_t>(passes[0].total_schedules);
  out->failed += passes[0].total_violations;

  std::vector<double> cpu_rate, wall_rate;
  for (const PassResult& p : passes) {
    cpu_rate.insert(cpu_rate.end(), p.unit_cpu_rate.begin(),
                    p.unit_cpu_rate.end());
    wall_rate.insert(wall_rate.end(), p.unit_wall_rate.begin(),
                     p.unit_wall_rate.end());
  }
  if (!cfg.trace) {
    out->Set("ops_per_cpu_s", Median(cpu_rate), "1/s");
    return;
  }
  out->Set("wall_ops_per_s", Median(wall_rate), "1/s");

  const PassResult traced = run_pass("pass.traced");
  if (!(traced.outcomes == passes[0].outcomes)) {
    out->Fail("the traced pass found different schedules or violations");
  }
  const double n = static_cast<double>(passes.size());
  out->Set("trace_overhead_frac",
           (traced.default_wall_ns + traced.media_wall_ns) / (wall_ns / n) -
               1.0,
           "ratio");
  double busy = 0;
  double wall = 0;
  double media_ms = 0;
  std::map<std::string, double> sweep_ns, cpu_ns, recovery_ms;
  for (const PassResult& p : passes) {
    busy += p.default_cpu_ns;
    wall += p.default_wall_ns;
    media_ms += p.media_wall_ns * 1e-6;
    for (const std::string& e : engines) {
      sweep_ns[e] += p.sweep_ns.at(e);
      cpu_ns[e] += p.cpu_ns.at(e);
      recovery_ms[e] += p.recovery_ms.at(e);
    }
  }
  for (const std::string& e : engines) {
    out->Set("chaos." + e + ".sweep_ms", sweep_ns[e] * 1e-6 / n, "ms");
    out->Set("chaos." + e + ".recover_share",
             recovery_ms[e] / (cpu_ns[e] * 1e-6), "ratio");
    out->Set("chaos." + e + ".schedules",
             static_cast<double>(passes[0].schedules.at(e)), "count");
    out->Set("chaos." + e + ".violations",
             static_cast<double>(passes[0].violations.at(e)), "count");
  }
  out->Set("chaos.media_sweep_ms", media_ms / n, "ms");
  out->Set("chaos.media_schedules",
           static_cast<double>(passes[0].media_schedules), "count");
  out->Set("core.pool_busy_share",
           busy / (wall * static_cast<double>(pool->size())), "ratio");
}

}  // namespace perfbench
