#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <ctime>

#include "core/arch_registry.h"
#include "machine/recovery_arch.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

int Tracer::Begin(std::string name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), NowNs(), 0, current(), 0});
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::Add(std::string name, int64_t start_ns, int64_t end_ns,
                 int parent, int tid) {
  if (!enabled_) return;
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, tid});
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  int64_t origin = 0;
  if (!spans_.empty()) {
    origin = spans_[0].start_ns;
    for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f,
               "{\"traceEvents\":[\n{\"ph\":\"M\",\"pid\":0,\"name\":"
               "\"process_name\",\"args\":{\"name\":\"dbmr_perfbench\"}}");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"name\":\"%s\",\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}",
                 s.tid, static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 JsonEscape(s.name).c_str(), i, s.parent);
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}

std::vector<std::string> SimFamilies() {
  dbmr::machine::EnsureSimArchsLinked();
  std::vector<std::string> out;
  for (const dbmr::core::ArchEntry* e :
       dbmr::core::ArchRegistry::Global().SimEntries()) {
    out.push_back(e->name);
  }
  return out;
}

std::vector<std::string> EngineNames() {
  return dbmr::core::ArchRegistry::Global().EngineVariantNames();
}

std::vector<std::pair<std::string, std::string>> PerLayerMetricNames() {
  std::vector<std::pair<std::string, std::string>> m = {
      {"wall_ops_per_s", "1/s"},
      {"machine.host_ns_per_event", "ns"},
      {"sim.kernel_ns_per_event", "ns"},
      {"sim.deep_queue_ns_per_event", "ns"},
      {"sim.events_per_txn", "count"},
      {"sim.max_pending_events", "count"},
      {"sim.ladder_spills", "count"},
      {"workload.next_ns", "ns"},
  };
  for (const std::string& f : SimFamilies()) {
    m.emplace_back("machine." + f + ".host_ms", "ms");
  }
  for (const std::string& f : SimFamilies()) {
    m.emplace_back("machine.arch." + f + ".self_share", "ratio");
  }
  const std::vector<std::pair<std::string, std::string>> sim_tail = {
      {"txn.restarts_per_txn", "count"},
      {"txn.commit_ratio", "ratio"},
      {"hw.disk_accesses_per_txn", "count"},
      {"hw.data_disk_util_mean", "ratio"},
      {"machine.sim_ms_per_page", "ms"},
      {"machine.sim_completion_mean_ms", "ms"},
      {"core.pool_busy_share", "ratio"},
      {"recovery.txn_p50_us", "us"},
      {"recovery.txn_p99_us", "us"},
      {"recovery.recover_p50_ms", "ms"},
      {"recovery.recover_p99_ms", "ms"},
  };
  m.insert(m.end(), sim_tail.begin(), sim_tail.end());
  const std::vector<std::string> engines = EngineNames();
  const std::vector<std::pair<std::string, std::string>> per_engine = {
      {"recovery.%s.txn_p50_us", "us"},
      {"recovery.%s.recover_p50_ms", "ms"},
      {"recovery.%s.replay_records", "count"},
      {"store.%s.writes_per_txn", "count"},
      {"store.%s.write_amp", "ratio"},
      {"store.%s.reads_per_recover", "count"},
      {"store.%s.disk_share", "ratio"},
      {"chaos.%s.sweep_ms", "ms"},
      {"chaos.%s.recover_share", "ratio"},
      {"chaos.%s.schedules", "count"},
      {"chaos.%s.violations", "count"},
  };
  for (const auto& [pattern, unit] : per_engine) {
    for (const std::string& e : engines) {
      std::string name = pattern;
      name.replace(name.find("%s"), 2, e);
      m.emplace_back(name, unit);
    }
  }
  const std::vector<std::pair<std::string, std::string>> tail = {
      {"recovery.differential.merge_ms", "ms"},
      {"peak_rss_mb", "MB"},
      {"chaos.media_sweep_ms", "ms"},
      {"chaos.media_schedules", "count"},
      {"trace_overhead_frac", "ratio"},
  };
  m.insert(m.end(), tail.begin(), tail.end());
  return m;
}

}  // namespace perfbench
