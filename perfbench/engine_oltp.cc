// engine_oltp: the functional engines' forward path and restart at a
// realistic page size.
//
// Every chaos::MakeEngineFixture engine runs the same seeded script from
// one client, a closed loop (each transaction starts after the previous
// one ends): 1 read + 4 writes per transaction, a quarter of them aborted,
// over 256 pages of 4 KiB — four times the 64-frame wal/aries pool, so
// steal and eviction run.  Every kTxnsPerCrash transactions the engine is
// crashed and recovered, and every page is checked against the
// benchmark's own committed-state model; the differential engine is merged
// at the same points.  A pass starts from freshly formatted fixtures, so
// every pass does identical I/O.
//
// The traced pass builds the same engines on TimedDisk, a VirtualDisk that
// times its four I/O entry points, to split engine time into disk and
// non-disk work.  Its I/O counts must equal the untraced passes'.

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chaos/engine_zoo.h"
#include "harness.h"
#include "store/page_engine.h"
#include "store/recovery/aries_engine.h"
#include "store/recovery/differential_page_engine.h"
#include "store/recovery/overwrite_engine.h"
#include "store/recovery/shadow_engine.h"
#include "store/recovery/version_select_engine.h"
#include "store/recovery/wal_engine.h"
#include "store/virtual_disk.h"
#include "util/rng.h"
#include "util/str.h"

namespace perfbench {
namespace {

namespace chaos = dbmr::chaos;
namespace store = dbmr::store;
using dbmr::Rng;
using dbmr::Status;
using dbmr::StrFormat;

constexpr uint64_t kPages = 256;
constexpr size_t kBlockSize = 4096;
constexpr size_t kPoolFrames = 64;
constexpr int kWritesPerTxn = 4;
constexpr double kAbortProb = 0.25;
constexpr size_t kPatterns = 64;
constexpr size_t kTxnsPerCrash = 128;
constexpr int kRoundsPerPass = 40;

struct TxnOp {
  uint32_t read = 0;
  uint32_t write[kWritesPerTxn] = {};
  uint32_t pattern[kWritesPerTxn] = {};
  bool abort = false;
};

/// The seeded input every engine receives: the transactions and the byte
/// patterns their writes carry.
struct Script {
  std::vector<TxnOp> txns;
  std::vector<std::vector<uint8_t>> patterns;
};

Script MakeScript(uint64_t seed, size_t n) {
  Rng rng(seed);
  Script s;
  for (size_t p = 0; p < kPatterns; ++p) {
    std::vector<uint8_t> bytes(kBlockSize);
    for (size_t i = 0; i < kBlockSize; i += 8) {
      const uint64_t w = rng.Next();
      std::memcpy(&bytes[i], &w, 8);
    }
    s.patterns.push_back(std::move(bytes));
  }
  s.txns.resize(n);
  for (TxnOp& op : s.txns) {
    op.read = static_cast<uint32_t>(rng.UniformInt(0, kPages - 1));
    for (int w = 0; w < kWritesPerTxn; ++w) {
      bool fresh = false;
      while (!fresh) {
        op.write[w] = static_cast<uint32_t>(rng.UniformInt(0, kPages - 1));
        fresh = true;
        for (int v = 0; v < w; ++v) fresh = fresh && op.write[v] != op.write[w];
      }
      op.pattern[w] = static_cast<uint32_t>(rng.UniformInt(0, kPatterns - 1));
    }
    op.abort = rng.Bernoulli(kAbortProb);
  }
  return s;
}

/// A VirtualDisk that times its four I/O entry points.
class TimedDisk : public store::VirtualDisk {
 public:
  TimedDisk(std::string name, uint64_t blocks)
      : VirtualDisk(std::move(name), blocks, kBlockSize) {}

  Status Read(store::BlockId b, store::PageData* out) const override {
    const int64_t t0 = NowNs();
    Status st = VirtualDisk::Read(b, out);
    io_ns_ += NowNs() - t0;
    return st;
  }
  Status ReadInto(store::BlockId b, uint8_t* out) const override {
    const int64_t t0 = NowNs();
    Status st = VirtualDisk::ReadInto(b, out);
    io_ns_ += NowNs() - t0;
    return st;
  }
  Status ReadRef(store::BlockId b, const uint8_t** out) const override {
    const int64_t t0 = NowNs();
    Status st = VirtualDisk::ReadRef(b, out);
    io_ns_ += NowNs() - t0;
    return st;
  }
  Status Write(store::BlockId b, const store::PageData& data) override {
    const int64_t t0 = NowNs();
    Status st = VirtualDisk::Write(b, data);
    io_ns_ += NowNs() - t0;
    return st;
  }
  int64_t io_ns() const { return io_ns_; }

 private:
  mutable int64_t io_ns_ = 0;
};

/// One engine on its disks: either the registry's fixture (untraced) or
/// the same engine built over TimedDisks (traced).
struct Fixture {
  chaos::EngineFixture zoo;
  std::vector<std::unique_ptr<TimedDisk>> timed;
  std::unique_ptr<store::PageEngine> own;
  store::PageEngine* engine = nullptr;

  uint64_t reads() const {
    uint64_t n = zoo.TotalReads();
    for (const auto& d : timed) n += d->reads();
    return n;
  }
  uint64_t writes() const {
    uint64_t n = zoo.TotalWrites();
    for (const auto& d : timed) n += d->writes();
    return n;
  }
  int64_t io_ns() const {
    int64_t n = 0;
    for (const auto& d : timed) n += d->io_ns();
    return n;
  }
};

chaos::FixtureOptions OltpOptions() {
  chaos::FixtureOptions o;
  o.num_pages = kPages;
  o.block_size = kBlockSize;
  o.wal_pool_frames = kPoolFrames;
  return o;
}

/// The engines chaos::MakeEngineFixture builds for OltpOptions(), with the
/// same disk geometry, over TimedDisks.
std::unique_ptr<store::PageEngine> BuildOnTimedDisks(
    const std::string& name, std::vector<std::unique_ptr<TimedDisk>>* disks) {
  auto add = [disks](const char* disk_name, uint64_t blocks) {
    disks->push_back(std::make_unique<TimedDisk>(disk_name, blocks));
    return disks->back().get();
  };
  const chaos::FixtureOptions o = OltpOptions();
  if (name == "wal") {
    store::VirtualDisk* data = add("data", o.num_pages);
    std::vector<store::VirtualDisk*> logs;
    for (size_t i = 0; i < o.wal_logs; ++i) {
      logs.push_back(add(StrFormat("log%zu", i).c_str(), 1024));
    }
    store::WalEngineOptions wo;
    wo.pool_frames = o.wal_pool_frames;
    wo.recovery_jobs = o.recovery_jobs;
    return std::make_unique<store::WalEngine>(data, logs, wo);
  }
  if (name == "shadow") {
    store::ShadowEngineOptions so;
    so.recovery_jobs = o.recovery_jobs;
    return std::make_unique<store::ShadowEngine>(
        add("d", o.num_pages * 3 + 8), o.num_pages, so);
  }
  if (name == "differential") {
    store::DifferentialEngineOptions dopts;
    dopts.a_blocks = 96;
    dopts.d_blocks = 8;
    dopts.base_blocks = 8;
    dopts.recovery_jobs = o.recovery_jobs;
    store::VirtualDisk* d = add(
        "d", 1 + dopts.a_blocks + dopts.d_blocks + 2 * dopts.base_blocks);
    return std::make_unique<store::DifferentialPageEngine>(
        d, o.num_pages, /*payload_bytes=*/32, dopts);
  }
  if (name == "overwrite-noundo" || name == "overwrite-noredo") {
    store::OverwriteEngineOptions oo;
    oo.mode = name == "overwrite-noundo" ? store::OverwriteMode::kNoUndo
                                         : store::OverwriteMode::kNoRedo;
    oo.list_blocks = 48;
    oo.scratch_blocks = 48;
    oo.recovery_jobs = o.recovery_jobs;
    return std::make_unique<store::OverwriteEngine>(
        add("d", o.num_pages + 97), o.num_pages, oo);
  }
  if (name == "version-select") {
    store::VersionSelectEngineOptions vo;
    vo.list_blocks = 48;
    vo.recovery_jobs = o.recovery_jobs;
    return std::make_unique<store::VersionSelectEngine>(
        add("d", 1 + vo.list_blocks + 2 * o.num_pages), o.num_pages, vo);
  }
  if (name == "aries") {
    store::VirtualDisk* data = add("data", o.num_pages);
    store::AriesEngineOptions ao;
    ao.pool_frames = o.wal_pool_frames;
    ao.recovery_jobs = o.recovery_jobs;
    return std::make_unique<store::AriesEngine>(data, add("log", 4096), ao);
  }
  return nullptr;
}

/// Builds and formats `name`; false (with `why`) when it cannot.
bool MakeFixture(const std::string& name, bool timed, Fixture* fx,
                 std::string* why) {
  if (timed) {
    fx->own = BuildOnTimedDisks(name, &fx->timed);
    if (fx->own == nullptr) {
      *why = "no timed-disk build for engine " + name;
      return false;
    }
    const Status st = fx->own->Format();
    if (!st.ok()) {
      *why = name + ": Format: " + st.ToString();
      return false;
    }
    fx->engine = fx->own.get();
    return true;
  }
  auto r = chaos::MakeEngineFixture(name, OltpOptions());
  if (!r.ok()) {
    *why = name + ": " + r.status().ToString();
    return false;
  }
  fx->zoo = std::move(*r);
  fx->engine = fx->zoo.engine.get();
  return true;
}

/// Deterministic outcome of one engine's pass; passes over the same script
/// must agree exactly.
struct Counts {
  uint64_t committed = 0;
  uint64_t txns = 0;
  uint64_t recoveries = 0;
  uint64_t txn_writes = 0;      // disk writes during transactions
  uint64_t all_writes = 0;      // every disk write of the pass
  uint64_t recover_reads = 0;   // disk reads inside Recover()
  uint64_t replay_records = 0;
  uint64_t failed = 0;
  bool operator==(const Counts&) const = default;
};

/// One engine's state during a pass plus its host-time samples.
struct EngineRun {
  std::string name;
  Fixture fx;
  size_t payload = 0;
  std::vector<uint64_t> version;   // committed model: 0 = never written
  std::vector<uint32_t> pattern;
  uint64_t next_version = 1;
  size_t next_txn = 0;
  Counts counts;
  std::vector<double> txn_us;
  std::vector<double> recover_ms;
  std::vector<double> merge_ms;
  int64_t busy_ns = 0;  // engine calls, timed from outside
  uint64_t format_writes = 0;  // writes before the pass began
};

/// Bytes a write of (pattern, version) carries: the pattern with the
/// version stamped into its first 8 bytes, so a stale page never matches.
void Fill(const Script& s, uint32_t pattern, uint64_t version, size_t n,
          store::PageData* out) {
  out->assign(s.patterns[pattern].begin(), s.patterns[pattern].begin() + n);
  std::memcpy(out->data(), &version, sizeof(version));
}

void Expected(const Script& s, const EngineRun& e, uint32_t page,
              store::PageData* out) {
  if (e.version[page] == 0) {
    out->assign(e.payload, 0);
  } else {
    Fill(s, e.pattern[page], e.version[page], e.payload, out);
  }
}

class OltpRunner {
 public:
  OltpRunner(const Script& script, size_t txns_per_crash, RunResult* out)
      : script_(script), txns_per_crash_(txns_per_crash), out_(out) {}

  /// Formats fresh fixtures for every engine.
  bool Prepare(const std::vector<std::string>& engines, bool timed,
               std::vector<EngineRun>* runs) {
    runs->clear();
    for (const std::string& name : engines) {
      EngineRun run;
      run.name = name;
      std::string why;
      if (!MakeFixture(name, timed, &run.fx, &why)) {
        out_->Fail(why);
        return false;
      }
      run.payload = run.fx.engine->payload_size();
      run.version.assign(kPages, 0);
      run.pattern.assign(kPages, 0);
      run.format_writes = run.fx.writes();
      runs->push_back(std::move(run));
    }
    return true;
  }

  /// One round: a chunk of transactions, then crash, recover, verify (and
  /// merge, for the differential engine).
  void Round(EngineRun* e) {
    const uint64_t w0 = e->fx.writes();
    for (size_t i = 0; i < txns_per_crash_; ++i) Txn(e);
    e->counts.txn_writes += e->fx.writes() - w0;
    Restart(e);
    Verify(e);
    Merge(e);
    e->counts.all_writes = e->fx.writes() - e->format_writes;
  }

 private:
  void Failed(EngineRun* e, const std::string& what) {
    ++e->counts.failed;
    if (problems_++ < 5) {
      std::fprintf(stderr, "engine_oltp: %s: %s\n", e->name.c_str(),
                   what.c_str());
    }
  }

  void Txn(EngineRun* e) {
    const TxnOp& op = script_.txns[e->next_txn % script_.txns.size()];
    ++e->next_txn;
    uint64_t versions[kWritesPerTxn];
    for (int w = 0; w < kWritesPerTxn; ++w) {
      versions[w] = e->next_version++;
      Fill(script_, op.pattern[w], versions[w], e->payload, &bufs_[w]);
    }
    store::PageEngine* eng = e->fx.engine;
    ++e->counts.txns;
    ++out_->attempted;

    const int64_t t0 = NowNs();
    auto begin = eng->Begin();
    if (!begin.ok()) {
      Failed(e, "Begin: " + begin.status().ToString());
      return;
    }
    const dbmr::txn::TxnId t = *begin;
    Status st = eng->Read(t, op.read, &read_);
    for (int w = 0; w < kWritesPerTxn && st.ok(); ++w) {
      st = eng->Write(t, op.write[w], bufs_[w]);
    }
    const bool commit = st.ok() && !op.abort;
    const Status end = commit ? eng->Commit(t) : eng->Abort(t);
    const int64_t t1 = NowNs();
    e->busy_ns += t1 - t0;
    e->txn_us.push_back(static_cast<double>(t1 - t0) * 1e-3);

    if (!st.ok() || !end.ok()) {
      Failed(e, "txn: " + (st.ok() ? end : st).ToString());
      return;
    }
    Expected(script_, *e, op.read, &expect_);
    if (read_ != expect_) Failed(e, StrFormat("read of page %u", op.read));
    if (commit) {
      ++e->counts.committed;
      for (int w = 0; w < kWritesPerTxn; ++w) {
        e->version[op.write[w]] = versions[w];
        e->pattern[op.write[w]] = op.pattern[w];
      }
    }
  }

  void Restart(EngineRun* e) {
    store::PageEngine* eng = e->fx.engine;
    eng->Crash();
    const uint64_t r0 = e->fx.reads();
    const int64_t t0 = NowNs();
    const Status st = eng->Recover();
    const int64_t t1 = NowNs();
    e->busy_ns += t1 - t0;
    e->recover_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    e->counts.recover_reads += e->fx.reads() - r0;
    e->counts.replay_records += eng->last_recovery_stats().replay_records;
    ++e->counts.recoveries;
    ++out_->attempted;
    if (!st.ok()) Failed(e, "Recover: " + st.ToString());
  }

  void Verify(EngineRun* e) {
    store::PageEngine* eng = e->fx.engine;
    const int64_t t0 = NowNs();
    auto begin = eng->Begin();
    if (!begin.ok()) {
      Failed(e, "verify Begin: " + begin.status().ToString());
      return;
    }
    for (uint32_t p = 0; p < kPages; ++p) {
      ++out_->attempted;
      const Status st = eng->Read(*begin, p, &read_);
      Expected(script_, *e, p, &expect_);
      if (!st.ok()) {
        Failed(e, StrFormat("verify read of page %u: %s", p,
                            st.ToString().c_str()));
      } else if (read_ != expect_) {
        Failed(e, StrFormat("page %u does not match the model", p));
      }
    }
    const Status st = eng->Commit(*begin);
    e->busy_ns += NowNs() - t0;
    if (!st.ok()) Failed(e, "verify Commit: " + st.ToString());
  }

  /// Folds the differential engine's A/D files into its base; other
  /// engines have nothing to merge.
  void Merge(EngineRun* e) {
    auto* diff = dynamic_cast<store::DifferentialPageEngine*>(e->fx.engine);
    if (diff == nullptr) return;
    const int64_t t0 = NowNs();
    const Status st = diff->inner().Merge();
    const int64_t t1 = NowNs();
    e->busy_ns += t1 - t0;
    e->merge_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    if (!st.ok()) Failed(e, "Merge: " + st.ToString());
  }

  const Script& script_;
  size_t txns_per_crash_;
  RunResult* out_;
  int problems_ = 0;
  store::PageData bufs_[kWritesPerTxn];
  store::PageData read_;
  store::PageData expect_;
};

}  // namespace

void RunEngineOltp(const RunConfig& cfg, Tracer* tracer, RunResult* out) {
  const size_t txns_per_crash = cfg.tiny ? 16 : kTxnsPerCrash;
  const int rounds = cfg.tiny ? 2 : kRoundsPerPass;
  const std::vector<std::string> engines = EngineNames();
  Script script;
  std::vector<EngineRun> runs;
  std::unique_ptr<OltpRunner> runner;
  {
    ScopedSpan span(tracer, "setup");
    auto teardown = [&] {
      runs.clear();
      runner.reset();
      script = Script();
    };
    const double setup_s = TimedSetup(5, teardown, [&] {
      script = MakeScript(cfg.seed, txns_per_crash * rounds);
      runner = std::make_unique<OltpRunner>(script, txns_per_crash, out);
      runner->Prepare(engines, /*timed=*/false, &runs);
    });
    out->Set("setup_s", setup_s, "s");
  }
  if (!out->correct) return;

  // A pass interleaves the engines round by round, so every engine sees the
  // same host conditions.  Every pass replays the same script on fresh
  // fixtures, so each pass's rate samples the host alone; the median pass
  // resists bursts of load from elsewhere.
  std::vector<double> cpu_rate, wall_rate;
  auto pass = [&](const std::string& label) {
    ScopedSpan span(tracer, label);
    const int64_t t0 = NowNs();
    for (int r = 0; r < rounds; ++r) {
      for (EngineRun& e : runs) {
        ScopedSpan round(tracer, e.name + " round");
        runner->Round(&e);
      }
    }
    return NowNs() - t0;
  };

  std::map<std::string, Counts> first;
  std::map<std::string, std::vector<double>> txn_us, recover_ms;
  std::vector<double> merge_ms, all_txn_us, all_recover_ms;
  double wall_ns = 0;
  int passes = 0;
  auto absorb = [&](const std::vector<EngineRun>& done, bool traced) {
    for (const EngineRun& e : done) {
      out->failed += e.counts.failed;
      auto [it, inserted] = first.emplace(e.name, e.counts);
      if (!inserted && !(it->second == e.counts)) {
        out->Fail(e.name + (traced ? ": traced pass" : ": a pass") +
                  " did different I/O than the first pass");
      }
      if (traced) continue;
      auto& t = txn_us[e.name];
      t.insert(t.end(), e.txn_us.begin(), e.txn_us.end());
      auto& r = recover_ms[e.name];
      r.insert(r.end(), e.recover_ms.begin(), e.recover_ms.end());
      all_txn_us.insert(all_txn_us.end(), e.txn_us.begin(), e.txn_us.end());
      all_recover_ms.insert(all_recover_ms.end(), e.recover_ms.begin(),
                            e.recover_ms.end());
      merge_ms.insert(merge_ms.end(), e.merge_ms.begin(), e.merge_ms.end());
    }
  };

  const int64_t start = NowNs();
  do {
    if (passes > 0 && !runner->Prepare(engines, false, &runs)) return;
    const int64_t cpu0 = ProcessCpuNs();
    const double wall = static_cast<double>(pass(StrFormat("pass%d", passes)));
    const double cpu = static_cast<double>(ProcessCpuNs() - cpu0);
    double committed = 0;
    for (const EngineRun& e : runs) {
      committed += static_cast<double>(e.counts.committed);
    }
    cpu_rate.push_back(committed / (cpu * 1e-9));
    wall_rate.push_back(committed / (wall * 1e-9));
    wall_ns += wall;
    absorb(runs, false);
    ++passes;
  } while (static_cast<double>(NowNs() - start) * 1e-9 < cfg.seconds);

  if (!cfg.trace) {
    out->Set("ops_per_cpu_s", Median(cpu_rate), "1/s");
    return;
  }
  out->Set("wall_ops_per_s", Median(wall_rate), "1/s");

  if (!runner->Prepare(engines, /*timed=*/true, &runs)) return;
  const double traced_ns = static_cast<double>(pass("pass.traced"));
  absorb(runs, true);
  out->Set("trace_overhead_frac", traced_ns / (wall_ns / passes) - 1.0,
           "ratio");
  for (const EngineRun& e : runs) {
    const Counts& c = first[e.name];
    const double txns = static_cast<double>(c.txns);
    const double recs = static_cast<double>(c.recoveries);
    const double payload_bytes = static_cast<double>(c.committed) *
                                 kWritesPerTxn *
                                 static_cast<double>(e.payload);
    out->Set("recovery." + e.name + ".txn_p50_us", Median(txn_us[e.name]),
             "us");
    out->Set("recovery." + e.name + ".recover_p50_ms",
             Median(recover_ms[e.name]), "ms");
    out->Set("recovery." + e.name + ".replay_records",
             static_cast<double>(c.replay_records) / recs, "count");
    out->Set("store." + e.name + ".writes_per_txn",
             static_cast<double>(c.txn_writes) / txns, "count");
    out->Set("store." + e.name + ".write_amp",
             static_cast<double>(c.all_writes) * kBlockSize / payload_bytes,
             "ratio");
    out->Set("store." + e.name + ".reads_per_recover",
             static_cast<double>(c.recover_reads) / recs, "count");
    out->Set("store." + e.name + ".disk_share",
             static_cast<double>(e.fx.io_ns()) /
                 static_cast<double>(e.busy_ns),
             "ratio");
  }
  out->Set("recovery.differential.merge_ms", Median(merge_ms), "ms");
  out->Set("recovery.txn_p50_us", Percentile(all_txn_us, 50), "us");
  out->Set("recovery.txn_p99_us", Percentile(all_txn_us, 99), "us");
  out->Set("recovery.recover_p50_ms", Percentile(all_recover_ms, 50), "ms");
  out->Set("recovery.recover_p99_ms", Percentile(all_recover_ms, 99), "ms");
}

}  // namespace perfbench
