// fleet_route: the bookstore (500 books) on an 8-node heterogeneous
// FleetSystem, in process with one client thread. Every SELECT goes through
// a FleetSystem::CreateSession() session, so Session::Execute dispatches it
// with FleetRouter::RouteSelect. Virtual time advances 497 ms before each
// arrival, and before every 8th arrival's SELECT an anchor session sends a
// burst of 3 UPDATE Books. Each UPDATE scans the 500 master rows; a lone
// write between SELECTs finds those rows evicted by the reads' 8-node
// prepares, so its latency follows the host's shared-cache contention
// (45 or 90 us within one run) more than the write path. In a burst the
// last two writes run warm, so the median lands on a warm one. Bursts come
// every 3,976 virtual ms, under the fastest node's 4 s update interval, so
// every delivery still carries ops.
//
// Classes, by arrival position (per 6: 4 point lookups, so the median
// falls inside one class):
//   books_point    Books point lookup, 5 s bound
//   books_range    Books range, 20 s bound
//   reviews_range  Reviews range, 20 s bound (partial nodes lack Reviews)

#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "common/strings.h"
#include "fleet/fleet.h"
#include "fleet/router.h"
#include "rig.h"
#include "sim/history.h"
#include "sim/oracle.h"
#include "sql/parser.h"
#include "workload/bookstore.h"

namespace perfbench {
namespace {

using rcc::Row;
using rcc::StrPrintf;

constexpr uint64_t kFleetSeed = 20040613;
constexpr int kNodes = 8;
constexpr int64_t kBooks = 500;
constexpr rcc::SimTimeMs kStart = 35000;
constexpr rcc::SimTimeMs kArrivalStepMs = 497;
constexpr int kSetupRuns = 9;  // setup takes ~25 ms; more runs, steadier median
constexpr size_t kStreamLen = 1 << 16;
constexpr size_t kBurstEvery = 8;  // arrivals between UPDATE bursts
constexpr int kBurstLen = 3;
/// Arrivals in the traced run's in-process layer replay.
constexpr size_t kReplayArrivals = 600;

/// The node specs of bench_fleet_routing, cycled: a complete
/// default-cadence node, a fast partial node without Reviews, and a slow
/// complete node.
rcc::fleet::FleetConfig MakeFleetConfig() {
  rcc::fleet::FleetConfig fc;
  fc.seed = kFleetSeed;
  for (int i = 0; i < kNodes; ++i) {
    rcc::fleet::FleetNodeConfig nc;
    nc.node = i + 1;
    if (i % 3 == 1) {
      nc.update_interval = 4000;
      nc.update_delay = 1500;
      nc.reviews = false;
    } else if (i % 3 == 2) {
      nc.update_interval = 12000;
      nc.update_delay = 5000;
    }
    fc.nodes.push_back(nc);
  }
  return fc;
}

/// Routed plan shape each class gets in the deterministic warm-up. At
/// warm-up time no node meets the 5 s bound, so the point lookup runs on
/// the backend tier.
rcc::PlanShape ExpectedShape(const std::string& cls) {
  return cls == "books_point" ? rcc::PlanShape::kRemoteOnly
                              : rcc::PlanShape::kAllLocal;
}

struct FleetRig {
  std::unique_ptr<rcc::sim::HistoryRecorder> recorder;  // outlives the fleet
  std::unique_ptr<rcc::fleet::FleetSystem> fleet;
  std::unique_ptr<rcc::Session> reader;  // fleet-routed
  std::unique_ptr<rcc::Session> writer;  // anchor DML
  std::vector<rcc::CacheDbms*> caches;
  /// Sorted Reviews.isbn values: ground truth for reviews_range (Reviews
  /// is never written).
  std::vector<int64_t> review_isbns;
  bool warm_ok = true;
  /// Index of the next arrival (windows continue where the last stopped).
  size_t next_arrival = 0;
};

Stmt BooksPoint(int64_t isbn) {
  Stmt s;
  s.cls = "books_point";
  s.sql = StrPrintf(
      "SELECT isbn, title, price FROM Books B WHERE B.isbn = %lld "
      "CURRENCY BOUND 5 SECONDS ON (B)",
      static_cast<long long>(isbn));
  s.expect_rows = 1;
  s.expect_key = isbn;
  return s;
}

Stmt BooksRange(int64_t below) {
  Stmt s;
  s.cls = "books_range";
  s.sql = StrPrintf(
      "SELECT isbn, price FROM Books B WHERE B.isbn < %lld "
      "CURRENCY BOUND 20 SECONDS ON (B)",
      static_cast<long long>(below));
  s.expect_rows = below - 1;
  return s;
}

Stmt ReviewsRange(int64_t below, const std::vector<int64_t>& isbns) {
  Stmt s;
  s.cls = "reviews_range";
  s.sql = StrPrintf(
      "SELECT isbn, rating FROM Reviews R WHERE R.isbn < %lld "
      "CURRENCY BOUND 20 SECONDS ON (R)",
      static_cast<long long>(below));
  s.expect_rows =
      std::lower_bound(isbns.begin(), isbns.end(), below) - isbns.begin();
  return s;
}

Stmt BooksUpdate(int64_t isbn, int64_t price) {
  Stmt s;
  s.kind = Stmt::Kind::kUpdate;
  s.cls = "update";
  s.sql = StrPrintf("UPDATE Books SET price = %lld WHERE isbn = %lld",
                    static_cast<long long>(price),
                    static_cast<long long>(isbn));
  s.expect_rows = 1;
  return s;
}

std::unique_ptr<FleetRig> SetupFleet(bool record, Tally* tally) {
  auto rig = std::make_unique<FleetRig>();
  if (record) rig->recorder = std::make_unique<rcc::sim::HistoryRecorder>(kFleetSeed);
  rig->fleet = std::make_unique<rcc::fleet::FleetSystem>(MakeFleetConfig());
  if (record) rig->fleet->SetHistorySink(rig->recorder.get());
  rcc::BookstoreConfig bc;
  bc.books = kBooks;
  bc.reviews_per_book = 2;
  bc.sales_per_book = 2;
  rcc::Status st = rig->fleet->LoadBookstore(bc);
  if (st.ok()) st = rig->fleet->SetupBookstore();
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: fleet setup failed: %s\n",
                 st.ToString().c_str());
    std::exit(1);
  }
  rig->fleet->AdvanceTo(kStart - 2000);  // steady state
  for (int n = 1; n <= kNodes; ++n) rig->caches.push_back(rig->fleet->node(n));
  rig->fleet->anchor()->backend()->table("Reviews")->Scan([&](const Row& r) {
    rig->review_isbns.push_back(r[0].AsInt());
    return true;
  });
  std::sort(rig->review_isbns.begin(), rig->review_isbns.end());
  rig->reader = rig->fleet->CreateSession();
  rig->writer = rig->fleet->anchor()->CreateSession();

  // Every template once, in a fixed order.
  rig->warm_ok = WarmUp({BooksPoint(7), BooksRange(40),
                         ReviewsRange(20, rig->review_isbns), BooksUpdate(1, 10)},
                        rig->reader.get(), rig->writer.get(), ExpectedShape,
                        tally);
  return rig;
}

/// One arrival: the SELECT, and the UPDATE burst sent before it (every
/// kBurstEvery-th arrival; empty otherwise).
struct Arrival {
  Stmt select;
  std::vector<Stmt> updates;
};

std::vector<Arrival> Generate(uint64_t seed, const FleetRig& rig, bool smoke) {
  rcc::Rng rng(seed * 1000003 + 17);
  std::vector<Arrival> out;
  const size_t len = smoke ? 256 : kStreamLen;
  for (size_t i = 0; i < len; ++i) {
    Arrival a;
    switch (i % 6) {
      case 2:
        a.select = BooksRange(rng.Uniform(20, 60));
        break;
      case 5:
        a.select = ReviewsRange(rng.Uniform(10, 30), rig.review_isbns);
        break;
      default:
        a.select = BooksPoint(rng.Uniform(1, kBooks));
        break;
    }
    if (i % kBurstEvery == 0) {
      for (int w = 0; w < kBurstLen; ++w) {
        a.updates.push_back(
            BooksUpdate(rng.Uniform(1, kBooks), rng.Uniform(5, 150)));
      }
    }
    out.push_back(std::move(a));
  }
  return out;
}

rcc::SimTimeMs ArrivalTime(size_t i) {
  return kStart + static_cast<rcc::SimTimeMs>(i) * kArrivalStepMs;
}

struct WindowOut {
  Window window;
  std::vector<TimedSample> reads, write_us, delivery_us;
  ReadStats Stats() const { return ReadStatsOf(reads, window); }
};

/// Timed closed loop from the rig's next arrival until `seconds` pass.
/// With `spans`, each SELECT's client latency is also logged per class.
WindowOut RunWindow(FleetRig& rig, const std::vector<Arrival>& arrivals,
                    double seconds, SpanLog* spans, Tally* tally) {
  WindowOut out;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  CoreRotation rotation(start);
  size_t& i = rig.next_arrival;
  for (Clock::time_point now = start; now < end; now = Clock::now(), ++i) {
    rotation.Tick(now);
    const Arrival& a = arrivals[i % arrivals.size()];
    AgentCounts before = ReadAgents(rig.caches);
    double step_us = TimeUs([&] { rig.fleet->AdvanceTo(ArrivalTime(i)); });
    if (ReadAgents(rig.caches).total_deliveries() > before.total_deliveries()) {
      out.delivery_us.push_back({UsSince(start) / 1e6, step_us});
    }
    for (const Stmt& u : a.updates) {
      std::optional<rcc::Result<rcc::QueryResult>> r;
      double us = TimeUs([&] { r.emplace(rig.writer->Execute(u.sql)); });
      tally->Attempt();
      std::string why = r->ok() ? CheckAffected(u, (*r)->rows_affected)
                                : "update: " + r->status().ToString();
      if (why.empty()) {
        out.write_us.push_back({UsSince(start) / 1e6, us});
      } else {
        tally->Fail(why);
      }
    }
    std::optional<rcc::Result<rcc::QueryResult>> r;
    Clock::time_point t0 = Clock::now();
    r.emplace(rig.reader->Execute(a.select.sql));
    Clock::time_point t1 = Clock::now();
    double us = UsBetween(t0, t1);
    tally->Attempt();
    std::string why = r->ok() ? CheckRows(a.select, (*r)->rows)
                              : a.select.cls + ": " + r->status().ToString();
    if (!why.empty()) {
      tally->Fail(why);
      continue;
    }
    out.reads.push_back({UsBetween(start, t1) / 1e6, us});
    if (spans != nullptr) spans->Add("client.select", a.select.cls, us);
  }
  out.window = {start, std::min(seconds, UsSince(start) / 1e6)};
  return out;
}

/// The traced run's fixed-length in-process replay, from the first arrival
/// of a fresh recording fleet. Each SELECT is timed layer by layer on the
/// anchor, routed once through FleetRouter::RouteSelect, and once through
/// the fleet session, so every SELECT makes two routed executions.
void RunReplay(FleetRig& rig, const std::vector<Arrival>& arrivals,
               size_t count, SpanLog* spans, LayerInputs* layers,
               Tally* tally) {
  rcc::CacheDbms* anchor = rig.fleet->node(1);
  for (size_t i = 0; i < count; ++i) {
    const Arrival& a = arrivals[i % arrivals.size()];
    TimedStep(rig.caches, [&] { rig.fleet->AdvanceTo(ArrivalTime(i)); }, spans,
              layers);
    for (const Stmt& u : a.updates) {
      ReplayParse(u, spans, tally);
      TimedSessionExecute(rig.writer.get(), u, spans, tally);
    }
    const Stmt& s = a.select;
    ReplaySelectLayers(anchor, s, /*wire=*/false, std::nullopt, spans, layers,
                       tally);
    rcc::Result<std::unique_ptr<rcc::SelectStmt>> select = rcc::ParseSelect(s.sql);
    if (!select.ok()) {
      tally->Fail(s.cls + ": parse failed");
      continue;
    }
    std::optional<rcc::Result<rcc::CacheQueryOutcome>> routed;
    spans->Add("fleet.route", s.cls, TimeUs([&] {
                 routed.emplace(rig.fleet->router()->RouteSelect(**select, {}));
               }));
    if (!routed->ok()) {
      tally->Fail(s.cls + ": route failed: " + routed->status().ToString());
    } else if (std::string why = CheckRows(s, (*routed)->result.rows);
               !why.empty()) {
      tally->Fail("routed " + why);
    }
    TimedSessionExecute(rig.reader.get(), s, spans, tally);
    layers->routed += 2;
  }
}

int RunFleet(const Options& opts) {
  Tally tally;
  Report report;
  std::unique_ptr<FleetRig> rig;
  if (!opts.trace) {
    double setup_s = MedianSetupSeconds(opts.smoke ? 1 : kSetupRuns, &rig, [&] {
      return SetupFleet(/*record=*/false, &tally);
    });
    std::vector<Arrival> arrivals = Generate(opts.seed, *rig, opts.smoke);
    const double rss_before = PeakRssMb();
    WindowOut win = RunWindow(*rig, arrivals, opts.seconds, nullptr, &tally);
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    e2e.reads = win.Stats();
    e2e.write_p50_us = QuietP50(win.write_us, win.window);
    e2e.delivery_p50_us = QuietP50(win.delivery_us, win.window);
    win = WindowOut();  // free the latency samples before reading RSS
    e2e.peak_rss_mb = std::max(rss_before, CurrentRssMb());
    AddEndToEndMetrics(e2e, &report);
    return Finish(report, tally, tally.failed() == 0 && rig->warm_ok);
  }

  // Traced run: a fixed replay on a fleet that records its history, then
  // alternating one-second slices on an untraced fleet and on the recording
  // one (spans on), so host drift hits both alike. The whole history must
  // pass the conformance oracle with 0 violations.
  std::unique_ptr<FleetRig> plain = SetupFleet(/*record=*/false, &tally);
  rig = SetupFleet(/*record=*/true, &tally);
  const bool warm_ok = plain->warm_ok && rig->warm_ok;
  std::vector<Arrival> arrivals = Generate(opts.seed, *rig, opts.smoke);

  SpanLog spans;
  LayerInputs layers;
  layers.spans = &spans;
  const size_t replay_from = rig->recorder->Snapshot().events.size();
  const size_t replay_arrivals = opts.smoke ? 30 : kReplayArrivals;
  RunReplay(*rig, arrivals, replay_arrivals, &spans, &layers, &tally);
  rig->next_arrival = replay_arrivals;
  const size_t replay_to = rig->recorder->Snapshot().events.size();
  SliceQps qps;
  const int slices = TraceSlices(opts.seconds);
  for (int k = 0; k < slices; ++k) {
    const bool traced = k % 2 == 1;
    WindowOut win = RunWindow(traced ? *rig : *plain, arrivals,
                              opts.seconds / slices, traced ? &spans : nullptr,
                              &tally);
    qps.Add(traced, win.window, win.Stats().qps);
    for (const TimedSample& w : win.write_us) layers.write_us.push_back(w.us);
  }
  rcc::sim::History history = rig->recorder->Snapshot();
  // Route observations of the replay only: a fixed sequence, so the counts
  // repeat exactly.
  for (size_t e = replay_from; e < replay_to; ++e) {
    const rcc::sim::HistoryEvent& ev = history.events[e];
    if (ev.kind != rcc::sim::HistoryEvent::Kind::kRoute) continue;
    ++layers.route_observations;
    layers.probes += static_cast<int64_t>(ev.probes.size());
    if (ev.backend_tier) ++layers.backend_routes;
  }
  rcc::sim::OracleReport oracle = rcc::sim::CheckHistory(history);
  for (const rcc::sim::Violation& v : oracle.violations) {
    tally.Fail("oracle violation: " + v.rule);
  }
  report.Note(StrPrintf("oracle: %zu history events, %zu violations",
                        history.events.size(), oracle.violations.size()));

  layers.qps_untraced = qps.Median(false);
  layers.qps_traced = qps.Median(true);
  layers.error_ratio = static_cast<double>(tally.failed()) /
                       static_cast<double>(std::max<int64_t>(1, tally.attempted()));
  AddLayerMetrics(layers, &report);
  for (const std::string& line : spans.ClassTable()) report.Note(line);
  return Finish(report, tally, tally.failed() == 0 && warm_ok);
}

}  // namespace

int RunFleetRoute(const Options& opts) { return RunFleet(opts); }

}  // namespace perfbench
