// point_read and scan_update: the paper's TPCD system (scale 0.05, 7,500
// customers, Table 4.1 cache configuration) served over rcc.wire.v1 on a
// UNIX socket, with one client thread per connection.
//
//   point_read   closed-loop Q1 clustered point lookups, k uniform over
//                all customers, in ten read slices; before each slice a
//                burst of single-row UPDATEs and virtual-time steps, so
//                write and delivery latency are measured without running
//                beside a read, yet sample the host across the whole run
//                rather than the one moment a single burst runs in.
//   scan_update  closed-loop Customer range scans on c_acctbal (45% and 5%
//                widths under a 10 MIN bound served from cust_prj, and the
//                5% width under a 1 SEC bound no view can meet, served by
//                the back-end) beside one open-loop writer that sends
//                single-row UPDATEs at a fixed rate and advances virtual
//                time after every k-th write.

#include <unistd.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "bench_util.h"
#include "common/rng.h"
#include "common/strings.h"
#include "rig.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"

namespace perfbench {
namespace {

using rcc::Row;
using rcc::StrPrintf;
using rcc::server::RccClient;

enum class Workload { kPointRead, kScanUpdate };

constexpr double kScale = 0.05;
/// One CR1 refresh interval per step, so every step fires deliveries.
constexpr rcc::SimTimeMs kStepMs = 15000;
constexpr int kSetupRuns = 5;
/// Statements per reader stream; readers wrap around.
constexpr size_t kStreamLen = 1 << 16;
/// point_read's writes: UPDATEs in all, the bursts (and read slices) they
/// are split into, and UPDATEs per virtual-time step.
constexpr int kBurstWrites = 1000;
constexpr int kBursts = 10;
constexpr int kBurstWritesPerStep = 5;
/// scan_update's writer: open-loop rate and writes per virtual-time step.
constexpr double kWritePeriodUs = 50000;  // 20 writes/s
constexpr int kWritesPerStep = 5;
constexpr size_t kWriterStreamLen = 4096;
/// In-process replay lengths (SELECTs) and scan_update's interleave.
constexpr int kReplayPointReads = 3000;
constexpr int kReplayScanReads = 400;
constexpr int kReplayReadsPerWrite = 4;
constexpr int kReplayWritesPerStep = 5;

/// c_acctbal spans [-999.99, 9999.99]; literals are in thousandths and end
/// in 5, so no stored (two-decimal) balance ever equals a bound.
constexpr int64_t kAcctbalMaxMilli = 9999990;
constexpr int64_t kWideMilli = 4949990;   // 45% of the balance range
constexpr int64_t kNarrowMilli = 549990;  // 5%

/// Server workers, and reader connections on point_read: half the host's
/// cores, at most 2 (2 + 2 on 4 cores). CoreRotation keeps them all on one
/// core at a time.
int Workers() {
  long cores = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::clamp<long>(cores / 2, 1, 2));
}

/// scan_update's writer takes one connection, so it reads on one fewer.
int ReaderConnections(Workload w) {
  return w == Workload::kPointRead ? Workers() : std::max(1, Workers() - 1);
}

std::string Milli(int64_t m) {
  return StrPrintf("%lld.%03lld", static_cast<long long>(m / 1000),
                   static_cast<long long>(m % 1000));
}

/// Plan shape each class must get from the deterministic warm-up.
rcc::PlanShape ExpectedShape(const std::string& cls) {
  return cls == "scan_remote" ? rcc::PlanShape::kRemoteOnly
                              : rcc::PlanShape::kAllLocal;
}

struct TpcdRig {
  std::unique_ptr<rcc::RccSystem> sys;
  std::unique_ptr<rcc::server::RccServer> srv;  // destroyed before sys
  std::string socket_path;
  /// Sorted master c_acctbal values: ground truth for scan row counts
  /// (the workloads never write c_acctbal).
  std::vector<double> acctbal;
  int64_t customers = 0;
  bool warm_ok = true;
};

Stmt PointStmt(int64_t key) {
  Stmt s;
  s.cls = "point";
  s.sql = StrPrintf(
      "SELECT c_custkey, c_name, c_acctbal FROM Customer C "
      "WHERE C.c_custkey = %lld CURRENCY BOUND 10 MIN ON (C)",
      static_cast<long long>(key));
  s.expect_rows = 1;
  s.expect_key = key;
  return s;
}

Stmt ScanStmt(const std::string& cls, int64_t lo_milli, int64_t width_milli,
              const std::vector<double>& acctbal) {
  Stmt s;
  s.cls = cls;
  const int64_t hi_milli = lo_milli + width_milli;
  s.sql = StrPrintf(
      "SELECT c_custkey, c_name, c_nationkey, c_acctbal FROM Customer C "
      "WHERE C.c_acctbal >= %s AND C.c_acctbal < %s CURRENCY BOUND %s ON (C)",
      Milli(lo_milli).c_str(), Milli(hi_milli).c_str(),
      cls == "scan_remote" ? "1 SEC" : "10 MIN");
  // m / 1000.0 is the correctly rounded value of the decimal literal, the
  // same double the parser produces.
  auto lo = std::lower_bound(acctbal.begin(), acctbal.end(), lo_milli / 1000.0);
  auto hi = std::lower_bound(acctbal.begin(), acctbal.end(), hi_milli / 1000.0);
  s.expect_rows = hi - lo;
  return s;
}

/// UPDATE of a column the scans project but never filter on, so every
/// scan's row count stays fixed.
Stmt UpdateStmt(int64_t key, int64_t nation) {
  Stmt s;
  s.kind = Stmt::Kind::kUpdate;
  s.cls = "update";
  s.sql = StrPrintf("UPDATE Customer SET c_nationkey = %lld WHERE c_custkey = %lld",
                    static_cast<long long>(nation), static_cast<long long>(key));
  s.expect_rows = 1;
  return s;
}

Stmt RandomScan(rcc::Rng* rng, const std::string& cls, int64_t width,
                const std::vector<double>& acctbal) {
  int64_t lo = rng->Uniform(0, kAcctbalMaxMilli - width) / 10 * 10 + 5;
  return ScanStmt(cls, lo, width, acctbal);
}

/// Class of position `i` in a scan_update reader stream: per 8 statements,
/// 5 narrow (so the median falls inside one class), 2 wide, 1 back-end.
const char* ScanClassAt(size_t i) {
  switch (i % 8) {
    case 0:
    case 4:
      return "scan_wide";
    case 7:
      return "scan_remote";
    default:
      return "scan_narrow";
  }
}

/// Every template once, serially, in a fixed order. The 45% scan is
/// planned before the 5% one: both share one parameterized plan, and the
/// first literal planned decides it.
std::vector<Stmt> WarmupStatements(Workload w, const TpcdRig& rig) {
  std::vector<Stmt> out;
  if (w == Workload::kPointRead) {
    out.push_back(PointStmt(1));
  } else {
    out.push_back(ScanStmt("scan_wide", 2000005, kWideMilli, rig.acctbal));
    out.push_back(ScanStmt("scan_narrow", 2000005, kNarrowMilli, rig.acctbal));
    out.push_back(ScanStmt("scan_remote", 2000005, kNarrowMilli, rig.acctbal));
  }
  out.push_back(UpdateStmt(1, 0));
  return out;
}

/// Load, cache setup and warm-up (plus the server when `serve`): what
/// setup_s measures.
std::unique_ptr<TpcdRig> SetupTpcd(Workload w, bool serve, Tally* tally) {
  auto rig = std::make_unique<TpcdRig>();
  rig->sys = rcc::bench::MakePaperSystem(kScale);
  rig->sys->backend()->table("Customer")->Scan([&](const Row& r) {
    rig->acctbal.push_back(r[3].AsDouble());
    return true;
  });
  std::sort(rig->acctbal.begin(), rig->acctbal.end());
  rig->customers = static_cast<int64_t>(rig->acctbal.size());

  std::unique_ptr<rcc::Session> session = rig->sys->CreateSession();
  rig->warm_ok = WarmUp(WarmupStatements(w, *rig), session.get(),
                        session.get(), ExpectedShape, tally);
  if (!serve) return rig;
  rcc::server::ServerOptions so;
  // Relative to the working directory, which run.py points at the build
  // directory; short enough for sun_path wherever the checkout lives.
  so.uds_path = StrPrintf("perfbench.%d.sock", static_cast<int>(getpid()));
  so.workers = Workers();
  rig->socket_path = so.uds_path;
  rig->srv = std::make_unique<rcc::server::RccServer>(rig->sys.get(), so);
  rcc::Status st = rig->srv->Start();
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: server start failed: %s\n",
                 st.ToString().c_str());
    std::exit(1);
  }
  return rig;
}

struct TpcdInputs {
  std::vector<std::vector<Stmt>> readers;  // one stream per connection
  std::vector<Stmt> writes;
};

TpcdInputs Generate(Workload w, uint64_t seed, int connections,
                    const TpcdRig& rig, bool smoke) {
  TpcdInputs in;
  const size_t len = smoke ? 512 : kStreamLen;
  for (int c = 0; c < connections; ++c) {
    rcc::Rng rng(seed * 1000003 + static_cast<uint64_t>(c) + 1);
    std::vector<Stmt> stream;
    stream.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      if (w == Workload::kPointRead) {
        stream.push_back(PointStmt(rng.Uniform(1, rig.customers)));
      } else {
        const std::string cls = ScanClassAt(i);
        stream.push_back(RandomScan(
            &rng, cls, cls == "scan_wide" ? kWideMilli : kNarrowMilli,
            rig.acctbal));
      }
    }
    in.readers.push_back(std::move(stream));
  }
  rcc::Rng rng(seed * 1000003 + 999);
  for (size_t i = 0; i < kWriterStreamLen; ++i) {
    in.writes.push_back(
        UpdateStmt(rng.Uniform(1, rig.customers), rng.Uniform(0, 24)));
  }
  return in;
}

// -- wire window ----------------------------------------------------------------

struct WireReply {
  rcc::server::StatusFramePayload status;
  std::vector<Row> rows;
  double decode_us = 0;
  std::string error;
};

/// One kQuery round trip over the raw frame layer (what RccClient::Query
/// does), so the traced run can time DecodeRowsPayload on its own. False
/// on a transport or protocol error.
bool WireQuery(RccClient* c, const std::string& sql, bool time_decode,
               WireReply* out) {
  using rcc::server::Opcode;
  const uint32_t seq = c->NextSeq();
  rcc::Status st = c->SendFrame(Opcode::kQuery, seq, sql);
  if (!st.ok()) {
    out->error = st.ToString();
    return false;
  }
  for (;;) {
    rcc::Result<rcc::server::Frame> frame = c->ReadFrame();
    if (!frame.ok()) {
      out->error = frame.status().ToString();
      return false;
    }
    if (frame->seq != seq) {
      out->error = "response for another request";
      return false;
    }
    switch (frame->op) {
      case Opcode::kRowsHeader:
        break;
      case Opcode::kRows: {
        rcc::Status d;
        if (time_decode) {
          out->decode_us += TimeUs([&] {
            d = rcc::server::DecodeRowsPayload(frame->payload, &out->rows);
          });
        } else {
          d = rcc::server::DecodeRowsPayload(frame->payload, &out->rows);
        }
        if (!d.ok()) {
          out->error = d.ToString();
          return false;
        }
        break;
      }
      case Opcode::kStatus: {
        rcc::Status d =
            rcc::server::DecodeStatusPayload(frame->payload, &out->status);
        if (!d.ok()) out->error = d.ToString();
        return d.ok();
      }
      default:
        out->error = "unexpected response opcode";
        return false;
    }
  }
}

bool Connect(RccClient* c, const std::string& path, Tally* tally) {
  if (c->ConnectUds(path).ok() && c->Hello("perfbench").ok()) return true;
  tally->Attempt();
  tally->Fail("cannot connect to " + path);
  return false;
}

struct ReadSample {
  const std::string* cls;
  double at_s;  // completion, seconds into the window
  double us;
  double decode_us;
};

struct WindowOut {
  int64_t reads = 0;
  int64_t writes = 0;
  Window read_window;
  std::vector<ReadSample> samples;
  /// Writes and the AdvanceVirtualTime calls that fired at least one
  /// delivery, timed over the writer's own window.
  Window write_window;
  std::vector<TimedSample> write_us, delivery_us;

  ReadStats Stats() const {
    std::vector<TimedSample> v;
    v.reserve(samples.size());
    for (const ReadSample& s : samples) v.push_back({s.at_s, s.us});
    return ReadStatsOf(v, read_window);
  }
  double WriteP50() const { return QuietP50(write_us, write_window); }
  double DeliveryP50() const { return QuietP50(delivery_us, write_window); }
};

/// Sends `count` of `writes` in order from `first`: open loop every
/// `period_us` until `end` when period_us > 0 (latency counts from each
/// write's due time), else back to back. After every `per_step` writes,
/// advances virtual time through the server. Samples are timed from
/// `start`.
void RunWriter(TpcdRig& rig, const std::vector<Stmt>& writes, size_t first,
               size_t count, double period_us, Clock::time_point start,
               Clock::time_point end, int per_step, WindowOut* out,
               Tally* tally) {
  RccClient client;
  if (!Connect(&client, rig.socket_path, tally)) return;
  const std::vector<rcc::CacheDbms*> caches = {rig.sys->cache()};
  for (size_t i = 0; i < count; ++i) {
    Clock::time_point due =
        period_us > 0
            ? start + std::chrono::microseconds(
                          static_cast<int64_t>(static_cast<double>(i) * period_us))
            : Clock::now();
    if (period_us > 0) {
      if (due >= end) break;
      std::this_thread::sleep_until(due);
    }
    const Stmt& s = writes[(first + i) % writes.size()];
    WireReply reply;
    bool ok = WireQuery(&client, s.sql, false, &reply);
    double us = UsSince(due);
    tally->Attempt();
    ++out->writes;
    if (!ok) {
      tally->Fail("update: " + reply.error);
      return;
    }
    std::string why = reply.status.ok()
                          ? CheckAffected(s, reply.status.rows_affected)
                          : "update: " + reply.status.message;
    if (!why.empty()) {
      tally->Fail(why);
    } else {
      out->write_us.push_back({UsSince(start) / 1e6, us});
    }
    if ((i + 1) % static_cast<size_t>(per_step) == 0) {
      int64_t before = ReadAgents(caches).total_deliveries();
      double step_us = TimeUs([&] { rig.srv->AdvanceVirtualTime(kStepMs); });
      if (ReadAgents(caches).total_deliveries() > before) {
        out->delivery_us.push_back({UsSince(start) / 1e6, step_us});
      }
    }
  }
  out->write_window.start = start;
  out->write_window.seconds = UsSince(start) / 1e6;
  if (period_us > 0) {
    out->write_window.seconds =
        std::min(out->write_window.seconds, UsBetween(start, end) / 1e6);
  }
  (void)client.Goodbye();
}

/// Runs the client threads for `seconds` while this thread keeps the
/// process on the core `cores` picks.
WindowOut RunWindow(Workload w, TpcdRig& rig, const TpcdInputs& in,
                    double seconds, bool traced, CoreRotation* cores,
                    Tally* tally) {
  WindowOut out;
  const int n = static_cast<int>(in.readers.size());
  std::vector<std::vector<ReadSample>> per_reader(n);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  cores->Tick(start);  // the client threads start on the current core
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      RccClient client;
      if (!Connect(&client, rig.socket_path, tally)) return;
      const std::vector<Stmt>& stream = in.readers[c];
      std::vector<ReadSample>& samples = per_reader[c];
      samples.reserve(1 << 18);
      for (size_t i = 0; Clock::now() < end; ++i) {
        const Stmt& s = stream[i % stream.size()];
        WireReply reply;
        Clock::time_point t0 = Clock::now();
        bool ok = WireQuery(&client, s.sql, traced, &reply);
        Clock::time_point t1 = Clock::now();
        double us = UsBetween(t0, t1);
        tally->Attempt();
        if (!ok) {
          tally->Fail(s.cls + ": " + reply.error);
          return;  // the connection is unusable
        }
        std::string why = reply.status.ok()
                              ? CheckRows(s, reply.rows)
                              : s.cls + ": " + reply.status.message;
        if (!why.empty()) {
          tally->Fail(why);
          continue;
        }
        samples.push_back(
            {&s.cls, UsBetween(start, t1) / 1e6, us, reply.decode_us});
      }
      (void)client.Goodbye();
    });
  }
  if (w == Workload::kScanUpdate) {
    threads.emplace_back([&] {
      RunWriter(rig, in.writes, 0, SIZE_MAX, kWritePeriodUs, start, end,
                kWritesPerStep, &out, tally);
    });
  }
  for (Clock::time_point now = Clock::now(); now < end; now = Clock::now()) {
    cores->Tick(now);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  for (std::thread& t : threads) t.join();
  out.read_window = {start, std::min(seconds, UsSince(start) / 1e6)};
  for (const auto& v : per_reader) {
    out.samples.insert(out.samples.end(), v.begin(), v.end());
  }
  out.reads = static_cast<int64_t>(out.samples.size());
  return out;
}

/// Burst `k` of `bursts` of point_read's writes, sent back to back with no
/// read running; samples are timed from `origin`.
void RunWriteBurst(TpcdRig& rig, const TpcdInputs& in, int k, int bursts,
                   Clock::time_point origin, WindowOut* out, Tally* tally) {
  const size_t n = kBurstWrites / bursts;
  RunWriter(rig, in.writes, k * n, n, 0, origin, origin, kBurstWritesPerStep,
            out, tally);
}

/// Appends the reads of `slice` to `all`, timed from the start of `all`'s
/// window, which grows to the end of the slice.
void AppendReads(const WindowOut& slice, WindowOut* all) {
  if (all->samples.empty() && all->reads == 0) {
    all->read_window.start = slice.read_window.start;
  }
  const double offset =
      UsBetween(all->read_window.start, slice.read_window.start) / 1e6;
  for (ReadSample r : slice.samples) {
    r.at_s += offset;
    all->samples.push_back(r);
  }
  all->reads += slice.reads;
  all->read_window.seconds = offset + slice.read_window.seconds;
}

// -- in-process replay ----------------------------------------------------------

std::vector<Stmt> ReplaySequence(Workload w, const TpcdInputs& in,
                                 bool smoke) {
  const std::vector<Stmt>& reads = in.readers[0];
  std::vector<Stmt> seq;
  size_t writes = 0;
  auto add_write = [&] {
    seq.push_back(in.writes[writes % in.writes.size()]);
    if (++writes % kReplayWritesPerStep == 0) seq.push_back(StepMarker());
  };
  if (w == Workload::kPointRead) {
    for (int i = 0; i < (smoke ? 10 : kBurstWrites); ++i) add_write();
    const size_t n = smoke ? 40 : kReplayPointReads;
    for (size_t i = 0; i < n; ++i) seq.push_back(reads[i % reads.size()]);
  } else {
    const size_t n = smoke ? 40 : kReplayScanReads;
    for (size_t i = 0; i < n; ++i) {
      seq.push_back(reads[i % reads.size()]);
      if ((i + 1) % kReplayReadsPerWrite == 0) add_write();
    }
  }
  return seq;
}

/// Single-threaded in-process replay on a fresh system: the spans behind
/// the server.
void RunReplay(Workload w, const TpcdInputs& in, bool smoke, SpanLog* spans,
               LayerInputs* layers, Tally* tally) {
  std::unique_ptr<TpcdRig> rig = SetupTpcd(w, /*serve=*/false, tally);
  std::unique_ptr<rcc::Session> session = rig->sys->CreateSession();
  rcc::CacheDbms* cache = rig->sys->cache();
  const std::vector<rcc::CacheDbms*> caches = {cache};
  for (const Stmt& s : ReplaySequence(w, in, smoke)) {
    switch (s.kind) {
      case Stmt::Kind::kStep:
        TimedStep(caches, [&] { rig->sys->AdvanceBy(kStepMs); }, spans,
                  layers);
        break;
      case Stmt::Kind::kUpdate:
        ReplayParse(s, spans, tally);
        TimedSessionExecute(session.get(), s, spans, tally);
        break;
      case Stmt::Kind::kSelect:
        ReplaySelectLayers(cache, s, /*wire=*/true, ExpectedShape(s.cls),
                           spans, layers, tally);
        TimedSessionExecute(session.get(), s, spans, tally);
        break;
    }
  }
}

int RunTpcd(Workload w, const Options& opts) {
  Tally tally;
  Report report;
  std::unique_ptr<TpcdRig> rig;
  const int connections = ReaderConnections(w);
  if (!opts.trace) {
    double setup_s = MedianSetupSeconds(opts.smoke ? 1 : kSetupRuns, &rig, [&] {
      return SetupTpcd(w, /*serve=*/true, &tally);
    });
    TpcdInputs in = Generate(w, opts.seed, connections, *rig, opts.smoke);
    CoreRotation cores(Clock::now());
    cores.Tick(Clock::now());  // the server's threads too, bursts included
    const double rss_before = PeakRssMb();
    WindowOut win, burst;
    if (w == Workload::kPointRead) {
      const Clock::time_point origin = Clock::now();
      for (int k = 0; k < kBursts; ++k) {
        RunWriteBurst(*rig, in, k, kBursts, origin, &burst, &tally);
        AppendReads(RunWindow(w, *rig, in, opts.seconds / kBursts, false,
                              &cores, &tally),
                    &win);
      }
    } else {
      win = RunWindow(w, *rig, in, opts.seconds, false, &cores, &tally);
    }
    const WindowOut& writes = w == Workload::kPointRead ? burst : win;
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    e2e.reads = win.Stats();
    e2e.write_p50_us = writes.WriteP50();
    e2e.delivery_p50_us = writes.DeliveryP50();
    win = WindowOut();  // free the latency samples before reading RSS
    e2e.peak_rss_mb = std::max(rss_before, CurrentRssMb());
    AddEndToEndMetrics(e2e, &report);
    return Finish(report, tally, tally.failed() == 0 && rig->warm_ok);
  }

  // Traced run: alternating untraced and traced one-second wire slices on
  // one server, so host drift hits both alike; then the in-process replay
  // on a fresh system.
  rig = SetupTpcd(w, /*serve=*/true, &tally);
  const bool warm_ok = rig->warm_ok;
  TpcdInputs in = Generate(w, opts.seed, connections, *rig, opts.smoke);
  rcc::obs::Counter* bytes_tx = rig->sys->metrics().counter("rcc.server.bytes_tx");
  SpanLog spans;
  LayerInputs layers;
  layers.spans = &spans;
  SliceQps qps;
  std::vector<double> untraced_p50;
  int64_t traced_bytes = 0, traced_stmts = 0;
  std::vector<WindowOut> windows(1);
  CoreRotation cores(Clock::now());
  cores.Tick(Clock::now());
  if (w == Workload::kPointRead) {
    RunWriteBurst(*rig, in, 0, 1, Clock::now(), &windows[0], &tally);
  }
  const int slices = TraceSlices(opts.seconds);
  for (int k = 0; k < slices; ++k) {
    const bool traced = k % 2 == 1;
    const int64_t bytes0 = bytes_tx->value();
    WindowOut win = RunWindow(w, *rig, in, opts.seconds / slices, traced,
                              &cores, &tally);
    ReadStats st = win.Stats();
    qps.Add(traced, win.read_window, st.qps);
    if (traced) {
      traced_bytes += bytes_tx->value() - bytes0;
      traced_stmts += win.reads + win.writes;
      for (const ReadSample& r : win.samples) {
        spans.Add("wire.roundtrip", *r.cls, r.us);
        spans.Add("wire.decode", *r.cls, r.decode_us);
      }
    } else {
      untraced_p50.push_back(st.p50_us);
    }
    windows.push_back(std::move(win));
  }
  rig.reset();

  RunReplay(w, in, opts.smoke, &spans, &layers, &tally);
  layers.wire_read_p50_us = Median(untraced_p50);
  layers.bytes_per_stmt = static_cast<double>(traced_bytes) /
                          static_cast<double>(std::max<int64_t>(1, traced_stmts));
  for (const WindowOut& win : windows) {
    for (const TimedSample& d : win.delivery_us) layers.quiesce_step_us.push_back(d.us);
    for (const TimedSample& d : win.write_us) layers.write_us.push_back(d.us);
  }
  layers.qps_untraced = qps.Median(false);
  layers.qps_traced = qps.Median(true);
  layers.error_ratio = static_cast<double>(tally.failed()) /
                       static_cast<double>(std::max<int64_t>(1, tally.attempted()));
  AddLayerMetrics(layers, &report);
  for (const std::string& line : spans.ClassTable()) report.Note(line);
  return Finish(report, tally, tally.failed() == 0 && warm_ok);
}

}  // namespace

int RunPointRead(const Options& opts) {
  return RunTpcd(Workload::kPointRead, opts);
}

int RunScanUpdate(const Options& opts) {
  return RunTpcd(Workload::kScanUpdate, opts);
}

}  // namespace perfbench
