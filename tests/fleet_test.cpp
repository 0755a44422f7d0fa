// Fleet conformance suite: the C&C-aware router over N heterogeneous cache
// nodes. Unit tests pin the eligibility ladder (cheapest eligible node,
// lowest-id tie-break, coverage failures, quarantine withdrawal, backend
// fall-through, deadline short-circuit), a property test randomizes per-node
// heartbeats against an independent re-derivation of the router's choice,
// and every recorded history replays clean through the multi-node
// conformance oracle. Epoch-pin hygiene is asserted after every scenario:
// routed statements must never leak an MVCC snapshot pin on any node.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "backend/fault_injector.h"
#include "core/statement_router.h"
#include "fleet/fleet.h"
#include "fleet/router.h"
#include "plan/plan_cache.h"
#include "replication/fault_injector.h"
#include "sim/history.h"
#include "sim/oracle.h"
#include "sql/parser.h"

namespace rcc {
namespace {

using fleet::BooksRegion;
using fleet::FleetConfig;
using fleet::FleetNodeConfig;
using fleet::FleetSystem;

/// The canonical heterogeneous three-node topology (mirrors the sim
/// runner's): a complete default-cadence node, a fast partial node without
/// Reviews, and a slow complete node.
FleetConfig ThreeNodeConfig(uint64_t seed = 42) {
  FleetConfig fc;
  fc.seed = seed;
  FleetNodeConfig n1;
  n1.update_interval = 8000;
  n1.update_delay = 3000;
  FleetNodeConfig n2;
  n2.update_interval = 4000;
  n2.update_delay = 1500;
  n2.reviews = false;
  FleetNodeConfig n3;
  n3.update_interval = 12000;
  n3.update_delay = 5000;
  fc.nodes = {n1, n2, n3};
  return fc;
}

Status SetupFleet(FleetSystem* f, sim::HistoryRecorder* recorder = nullptr) {
  if (recorder != nullptr) f->SetHistorySink(recorder);
  BookstoreConfig w;
  w.books = 80;
  w.reviews_per_book = 2;
  w.sales_per_book = 2;
  w.seed = 7;
  RCC_RETURN_NOT_OK(f->LoadBookstore(w));
  return f->SetupBookstore();
}

Result<CacheQueryOutcome> RouteSql(FleetSystem* f, const std::string& sql,
                                   RoutedStatementOptions opts = {}) {
  RCC_ASSIGN_OR_RETURN(auto stmt, ParseSelect(sql));
  return f->router()->RouteSelect(*stmt, opts);
}

std::vector<const sim::HistoryEvent*> EventsOfKind(
    const sim::History& h, sim::HistoryEvent::Kind kind) {
  std::vector<const sim::HistoryEvent*> out;
  for (const sim::HistoryEvent& ev : h.events) {
    if (ev.kind == kind) out.push_back(&ev);
  }
  return out;
}

void ExpectNoLeakedPins(FleetSystem* f) {
  for (int n = 1; n <= f->node_count(); ++n) {
    const SnapshotEpochManager& em = f->node(n)->epoch_manager();
    EXPECT_EQ(em.MinPinnedEpoch(), em.current_epoch()) << "node " << n;
  }
}

TEST(FleetRouterTest, UnconstrainedQueryKeepsTraditionalSemantics) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(1);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);

  // No currency clause: constraint normalization gives every operand the
  // default bound 0 ("current"), which no replica's delivered currency can
  // meet — the query keeps traditional semantics and serves from the
  // backend, on every node's probes recorded as ineligible.
  auto out = RouteSql(&f, "SELECT isbn FROM Books B WHERE B.isbn < 30");
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  sim::History h = recorder.Snapshot();
  auto routes = EventsOfKind(h, sim::HistoryEvent::Kind::kRoute);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_TRUE(routes[0]->backend_tier);
  ASSERT_EQ(routes[0]->probes.size(), 3u);
  for (const RouteProbe& p : routes[0]->probes) {
    EXPECT_EQ(p.bound_ms, 0);
    EXPECT_FALSE(p.eligible);
  }

  sim::OracleReport report = sim::CheckHistory(h);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.routes_checked, 1);
  ExpectNoLeakedPins(&f);
}

TEST(FleetRouterTest, LooseBoundRoutesToCheapestEligibleNode) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(1);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);

  // A loose bound every replica meets: all three nodes are eligible and the
  // choice is pure Eq. 1 cost (lowest id on ties), re-derived independently
  // from per-node Prepare.
  const std::string sql =
      "SELECT isbn FROM Books B WHERE B.isbn < 30 "
      "CURRENCY BOUND 1 HOUR ON (B)";
  auto out = RouteSql(&f, sql);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  sim::History h = recorder.Snapshot();
  auto routes = EventsOfKind(h, sim::HistoryEvent::Kind::kRoute);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_FALSE(routes[0]->backend_tier);
  ASSERT_EQ(routes[0]->probes.size(), 3u);
  for (const RouteProbe& p : routes[0]->probes) EXPECT_TRUE(p.eligible);

  auto stmt = ParseSelect(sql);
  ASSERT_TRUE(stmt.ok());
  int best = 0;
  double best_cost = 0;
  for (int n = 1; n <= 3; ++n) {
    auto plan = f.node(n)->Prepare(**stmt);
    ASSERT_TRUE(plan.ok());
    if (best == 0 || plan->est_cost < best_cost) {
      best = n;
      best_cost = plan->est_cost;
    }
  }
  EXPECT_EQ(routes[0]->node, best);

  sim::OracleReport report = sim::CheckHistory(h);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.routes_checked, 1);
  ExpectNoLeakedPins(&f);
}

TEST(FleetRouterTest, CoverageFailureExcludesPartialNode) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(2);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);

  // Node 2 materializes no Reviews view, so a Reviews-constrained query must
  // record a coverage-failure probe for it and never choose it.
  auto out = RouteSql(&f,
                      "SELECT isbn, rating FROM Reviews R WHERE R.isbn < 20 "
                      "CURRENCY BOUND 1 HOUR ON (R)");
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  sim::History h = recorder.Snapshot();
  auto routes = EventsOfKind(h, sim::HistoryEvent::Kind::kRoute);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_FALSE(routes[0]->backend_tier);
  EXPECT_NE(routes[0]->node, 2);
  ASSERT_EQ(routes[0]->probes.size(), 3u);
  bool saw_coverage_failure = false;
  for (const RouteProbe& p : routes[0]->probes) {
    if (p.node == 2) {
      EXPECT_EQ(p.region, kBackendRegion);
      EXPECT_FALSE(p.heartbeat_known);
      EXPECT_FALSE(p.eligible);
      saw_coverage_failure = true;
    } else {
      EXPECT_EQ(p.region, fleet::ReviewsRegion(p.node));
      EXPECT_TRUE(p.eligible);
    }
  }
  EXPECT_TRUE(saw_coverage_failure);

  sim::OracleReport report = sim::CheckHistory(h);
  EXPECT_TRUE(report.ok()) << report.Summary();
  ExpectNoLeakedPins(&f);
}

TEST(FleetRouterTest, TightBoundFallsThroughToBackendTier) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(3);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);

  // The minimum steady-state heartbeat lag across the fleet is node 2's
  // 1500ms delivery delay, so a 1s bound can never be met from any cache
  // node: the only eligible tier is the backend, whose data is current by
  // definition.
  auto out = RouteSql(&f,
                      "SELECT isbn, price FROM Books B WHERE B.isbn < 25 "
                      "CURRENCY BOUND 1 SECONDS ON (B)");
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  sim::History h = recorder.Snapshot();
  auto routes = EventsOfKind(h, sim::HistoryEvent::Kind::kRoute);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_TRUE(routes[0]->backend_tier);
  for (const RouteProbe& p : routes[0]->probes) EXPECT_FALSE(p.eligible);
  for (const sim::HistoryEvent* serve :
       EventsOfKind(h, sim::HistoryEvent::Kind::kServe)) {
    EXPECT_FALSE(serve->local) << "backend-tier dispatch served locally";
  }
  EXPECT_GE(
      f.anchor()->metrics().counter("rcc.fleet.backend_serves")->value(), 1);

  sim::OracleReport report = sim::CheckHistory(h);
  EXPECT_TRUE(report.ok()) << report.Summary();
  ExpectNoLeakedPins(&f);
}

TEST(FleetRouterTest, FailedNodeFallsThroughToPeer) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(4);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);

  // Break node 1's query channel completely. The (B, R) consistency class
  // spans two regions on every node, so no local placement can serve it and
  // every plan is all-remote; node 2 lacks Reviews (ineligible), nodes 1 and
  // 3 price identical all-remote plans and the tie goes to node 1 — whose
  // remote fetch now fails, so the router must fall through to node 3.
  FaultInjectorConfig fi;
  fi.transient_error_probability = 1.0;
  f.node(1)->SetFaultInjector(fi);

  auto out = RouteSql(&f,
                      "SELECT B.isbn, R.rating FROM Books B, Reviews R "
                      "WHERE B.isbn = R.isbn AND B.isbn < 10 "
                      "CURRENCY BOUND 1 HOUR ON (B, R)");
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  sim::History h = recorder.Snapshot();
  auto routes = EventsOfKind(h, sim::HistoryEvent::Kind::kRoute);
  ASSERT_EQ(routes.size(), 2u);
  EXPECT_FALSE(routes[0]->backend_tier);
  EXPECT_EQ(routes[0]->node, 1);
  EXPECT_FALSE(routes[1]->backend_tier);
  EXPECT_EQ(routes[1]->node, 3);
  EXPECT_EQ(f.anchor()->metrics().counter("rcc.fleet.fallthroughs")->value(),
            1);

  // Each attempt runs under its own query id, so the failed attempt's
  // answer and the successful one never blend in the oracle's view.
  EXPECT_NE(routes[0]->query, routes[1]->query);
  sim::OracleReport report = sim::CheckHistory(h);
  EXPECT_TRUE(report.ok()) << report.Summary();
  ExpectNoLeakedPins(&f);
}

TEST(FleetRouterTest, ExpiredDeadlineDoesNotFallThrough) {
  FleetSystem f(ThreeNodeConfig());
  ASSERT_TRUE(SetupFleet(&f).ok());
  f.AdvanceTo(30000);

  RoutedStatementOptions opts;
  opts.deadline = Deadline::After(std::chrono::steady_clock::now(), 0);
  auto out = RouteSql(&f,
                      "SELECT isbn, price FROM Books B WHERE B.isbn < 25 "
                      "CURRENCY BOUND 1 HOUR ON (B)",
                      opts);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsDeadlineExceeded()) << out.status().ToString();
  // The budget is spent: no retry on a peer was attempted.
  EXPECT_EQ(f.anchor()->metrics().counter("rcc.fleet.fallthroughs")->value(),
            0);
  ExpectNoLeakedPins(&f);
}

TEST(FleetRouterTest, QuarantinedNodeIsNeverServedFrom) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(5);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);

  // Poison node 2's delivery pipeline deterministically: the next delivery
  // carrying ops quarantines its region and withdraws the certified
  // heartbeat.
  ReplicationFaultConfig rf;
  rf.seed = 99;
  rf.poison_probability = 1.0;
  f.SetNodeReplicationFaults(2, rf);
  auto dml = f.anchor()->CreateSession();
  ASSERT_TRUE(
      dml->Execute("UPDATE Books SET price = price + 1 WHERE isbn <= 40")
          .ok());
  // Step in small increments so a check lands inside the quarantine window
  // (the auto-resync only fires at the region's next wakeup, several
  // intervals later).
  bool withdrawn = false;
  for (int i = 0; i < 60 && !withdrawn; ++i) {
    f.AdvanceBy(500);
    withdrawn = !f.node(2)->LocalHeartbeat(BooksRegion(2)).has_value();
  }
  ASSERT_TRUE(withdrawn) << "node 2 never quarantined";

  uint64_t quarantine_seq = 0;
  for (const sim::HistoryEvent& ev : recorder.Snapshot().events) {
    if (ev.kind == sim::HistoryEvent::Kind::kHealth && ev.node == 2 &&
        ev.health_to == RegionHealth::kQuarantined) {
      quarantine_seq = ev.seq;
    }
  }
  ASSERT_GT(quarantine_seq, 0u);

  // Queries issued while the heartbeat is withdrawn (virtual time frozen, so
  // no resync can land in between) must route around node 2.
  for (int i = 0; i < 8; ++i) {
    auto out = RouteSql(&f,
                        "SELECT isbn, price FROM Books B WHERE B.isbn < 30 "
                        "CURRENCY BOUND 1 HOUR ON (B)");
    ASSERT_TRUE(out.ok()) << out.status().ToString();
  }

  sim::History h = recorder.Snapshot();
  int64_t post_routes = 0;
  for (const sim::HistoryEvent& ev : h.events) {
    if (ev.seq <= quarantine_seq) continue;
    if (ev.kind == sim::HistoryEvent::Kind::kRoute) {
      ++post_routes;
      if (!ev.backend_tier) {
        EXPECT_NE(ev.node, 2) << "routed to a quarantined node, seq "
                              << ev.seq;
      }
    }
    if (ev.kind == sim::HistoryEvent::Kind::kGuard ||
        ev.kind == sim::HistoryEvent::Kind::kServe) {
      EXPECT_NE(ev.node, 2) << "served from a quarantined node, seq "
                            << ev.seq;
    }
  }
  EXPECT_EQ(post_routes, 8);

  sim::OracleReport report = sim::CheckHistory(h);
  EXPECT_TRUE(report.ok()) << report.Summary();
  ExpectNoLeakedPins(&f);
}

TEST(FleetRouterTest, PerNodeRoutedMetricsMatchHistory) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(6);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);

  const char* kPool[] = {
      "SELECT isbn FROM Books B WHERE B.isbn < 30",
      "SELECT isbn, price FROM Books B WHERE B.isbn < 40 "
      "CURRENCY BOUND 1 HOUR ON (B)",
      "SELECT isbn, rating FROM Reviews R WHERE R.isbn < 20 "
      "CURRENCY BOUND 1 HOUR ON (R)",
  };
  for (int i = 0; i < 9; ++i) {
    auto out = RouteSql(&f, kPool[i % 3]);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
  }

  sim::History h = recorder.Snapshot();
  int64_t cache_routes[4] = {0, 0, 0, 0};
  for (const sim::HistoryEvent* r :
       EventsOfKind(h, sim::HistoryEvent::Kind::kRoute)) {
    if (!r->backend_tier) ++cache_routes[r->node];
  }
  obs::MetricsRegistry& m = f.anchor()->metrics();
  for (int n = 1; n <= 3; ++n) {
    EXPECT_EQ(m.counter(obs::MetricsRegistry::NodeMetricName("rcc.fleet", n,
                                                             "routed"))
                  ->value(),
              cache_routes[n])
        << "node " << n;
  }
  sim::OracleReport report = sim::CheckHistory(h);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(FleetSessionTest, SessionSelectsRouteAcrossTheFleet) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(7);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);

  std::unique_ptr<Session> session = f.CreateSession();
  auto res = session->Execute(
      "SELECT isbn, price FROM Books B WHERE B.isbn < 40 "
      "CURRENCY BOUND 1 HOUR ON (B)");
  ASSERT_TRUE(res.ok()) << res.status().ToString();

  // EXPLAIN and DML stay on the anchor: no new route events.
  size_t routes_before =
      EventsOfKind(recorder.Snapshot(), sim::HistoryEvent::Kind::kRoute)
          .size();
  EXPECT_GE(routes_before, 1u);
  ASSERT_TRUE(
      session->Execute("EXPLAIN SELECT isbn FROM Books B WHERE B.isbn < 10")
          .ok());
  ASSERT_TRUE(
      session->Execute("UPDATE Books SET price = price + 1 WHERE isbn = 1")
          .ok());
  EXPECT_EQ(EventsOfKind(recorder.Snapshot(), sim::HistoryEvent::Kind::kRoute)
                .size(),
            routes_before);

  // Timeline mode flows into routed statements: the floor raised by one
  // query holds for the next, fleet-wide.
  ASSERT_TRUE(session->Execute("BEGIN TIMEORDERED").ok());
  ASSERT_TRUE(session
                  ->Execute("SELECT isbn, price FROM Books B "
                            "WHERE B.isbn < 40 CURRENCY BOUND 1 HOUR ON (B)")
                  .ok());
  ASSERT_TRUE(session
                  ->Execute("SELECT isbn, price FROM Books B "
                            "WHERE B.isbn < 40 CURRENCY BOUND 1 HOUR ON (B)")
                  .ok());
  ASSERT_TRUE(session->Execute("END TIMEORDERED").ok());

  sim::OracleReport report = sim::CheckHistory(recorder.Snapshot());
  EXPECT_TRUE(report.ok()) << report.Summary();
  ExpectNoLeakedPins(&f);
}

TEST(FleetPropertyTest, RouterAlwaysPicksCheapestEligibleNode) {
  // Randomized per-node heartbeats (seeded fleets advanced to arbitrary
  // points in their refresh cycles) against an independent re-derivation of
  // the eligibility ladder and the cost argmin. Every recorded history must
  // also replay clean through the multi-node oracle.
  const SimTimeMs kBounds[] = {2000, 5000, 12000, 3600000};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    FleetSystem f(ThreeNodeConfig(seed));
    sim::HistoryRecorder recorder(seed);
    ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
    f.AdvanceTo(20000 + static_cast<SimTimeMs>(seed * 1711));

    for (int step = 0; step < 12; ++step) {
      f.AdvanceBy(700 +
                  static_cast<SimTimeMs>((seed * 131 + step * 977) % 2300));
      SimTimeMs bound = kBounds[(seed + step) % 4];
      std::string sql =
          "SELECT isbn, price FROM Books B WHERE B.isbn < 35 "
          "CURRENCY BOUND " +
          std::to_string(bound) + " MILLISECONDS ON (B)";
      auto stmt = ParseSelect(sql);
      ASSERT_TRUE(stmt.ok());

      // Independent expectation, derived before the router runs: per node,
      // the certified heartbeat of the view's region and the router's
      // eligibility formula, then the Eq. 1 cost argmin with the lowest-id
      // tie-break.
      const SimTimeMs now = f.Now();
      int best = 0;
      double best_cost = 0;
      for (int n = 1; n <= 3; ++n) {
        auto views = f.node(n)->catalog().ViewsOnTable("Books");
        ASSERT_FALSE(views.empty());
        std::optional<SimTimeMs> hb =
            f.node(n)->LocalHeartbeat(views.front()->region);
        if (!hb.has_value() || *hb <= now - bound) continue;
        auto plan = f.node(n)->Prepare(**stmt);
        if (!plan.ok()) continue;
        if (best == 0 || plan->est_cost < best_cost) {
          best = n;
          best_cost = plan->est_cost;
        }
      }

      size_t routes_before =
          EventsOfKind(recorder.Snapshot(), sim::HistoryEvent::Kind::kRoute)
              .size();
      auto out = f.router()->RouteSelect(**stmt, {});
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      sim::History h = recorder.Snapshot();
      auto routes = EventsOfKind(h, sim::HistoryEvent::Kind::kRoute);
      ASSERT_GT(routes.size(), routes_before);
      const sim::HistoryEvent* first = routes[routes_before];
      if (best == 0) {
        EXPECT_TRUE(first->backend_tier) << "seed " << seed << " step "
                                         << step;
      } else {
        EXPECT_FALSE(first->backend_tier) << "seed " << seed << " step "
                                          << step;
        EXPECT_EQ(first->node, best) << "seed " << seed << " step " << step;
      }
    }

    sim::OracleReport report = sim::CheckHistory(recorder.Snapshot());
    EXPECT_TRUE(report.ok()) << "seed " << seed << "\n" << report.Summary();
    ExpectNoLeakedPins(&f);
  }
}

TEST(FleetShardingTest, MirroredShardsServeIdenticalData) {
  FleetConfig fc = ThreeNodeConfig();
  fc.backend_shards = 2;
  fc.nodes[1].shard = 1;
  fc.nodes[2].shard = 1;
  FleetSystem f(fc);
  ASSERT_TRUE(SetupFleet(&f).ok());
  ASSERT_EQ(f.shard_count(), 2);
  ASSERT_NE(f.shard(1), nullptr);
  f.AdvanceTo(30000);

  // Routed reads work no matter which shard backs the chosen node. (No
  // oracle replay here: mirrored shards have independent commit timestamp
  // spaces, and the recorded commit stream would be the anchor's only.)
  auto out = RouteSql(&f,
                      "SELECT isbn, price FROM Books B WHERE B.isbn < 25 "
                      "CURRENCY BOUND 1 HOUR ON (B)");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_GT(out->result.rows.size(), 0u);

  // Mirrored DML lands on every shard; the same rows must then be visible
  // both through the backend tier (anchor shard) and, after propagation,
  // from mirror-backed cache nodes.
  std::vector<RowOp> ops;
  for (int64_t isbn : {9001, 9002}) {
    RowOp op;
    op.kind = RowOp::Kind::kInsert;
    op.table = "Books";
    op.row = {Value::Int(isbn), Value::Str("mirrored"), Value::Double(12.5),
              Value::Int(3)};
    ops.push_back(std::move(op));
  }
  auto ts = f.ExecuteMirrored(std::move(ops));
  ASSERT_TRUE(ts.ok()) << ts.status().ToString();
  f.AdvanceBy(20000);

  auto strict = RouteSql(&f,
                         "SELECT isbn FROM Books B WHERE B.isbn >= 9001 "
                         "CURRENCY BOUND 1 SECONDS ON (B)");
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  EXPECT_EQ(strict->result.rows.size(), 2u);
  auto loose = RouteSql(&f,
                        "SELECT isbn FROM Books B WHERE B.isbn >= 9001 "
                        "CURRENCY BOUND 1 HOUR ON (B)");
  ASSERT_TRUE(loose.ok()) << loose.status().ToString();
  EXPECT_EQ(loose->result.rows.size(), 2u);
  ExpectNoLeakedPins(&f);
}

// -- route-time plan reuse ----------------------------------------------------

std::string BooksRangeSql(int64_t below) {
  return "SELECT isbn, price FROM Books B WHERE B.isbn < " +
         std::to_string(below) + " CURRENCY BOUND 1 HOUR ON (B)";
}

std::vector<int64_t> NodeMisses(FleetSystem* f) {
  std::vector<int64_t> out;
  for (int n = 1; n <= f->node_count(); ++n) {
    out.push_back(f->node(n)->plan_cache().misses());
  }
  return out;
}

int64_t PlanRefreshes(FleetSystem* f) {
  return f->anchor()->metrics().counter("rcc.fleet.plan_refreshes")->value();
}

/// The node the latest route event dispatched to (0 for the backend tier).
int LastRoutedNode(const sim::HistoryRecorder& recorder) {
  const sim::History h = recorder.Snapshot();
  auto routes = EventsOfKind(h, sim::HistoryEvent::Kind::kRoute);
  if (routes.empty() || routes.back()->backend_tier) return 0;
  return routes.back()->node;
}

/// The router's choice re-derived from scratch: Eq. 1 cost of a fresh
/// Prepare of `sql` on every node, lowest id on ties. Every node is
/// eligible under the loose bound these tests use.
int CheapestByFreshPrepare(FleetSystem* f, const std::string& sql) {
  auto stmt = ParseSelect(sql);
  EXPECT_TRUE(stmt.ok());
  int best = 0;
  double best_cost = 0;
  for (int n = 1; n <= f->node_count(); ++n) {
    auto plan = f->node(n)->Prepare(**stmt);
    if (!plan.ok()) continue;
    if (best == 0 || plan->est_cost < best_cost) {
      best = n;
      best_cost = plan->est_cost;
    }
  }
  return best;
}

TEST(FleetPlanCacheTest, RepeatedTemplateAddsNoMisses) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(11);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);
  std::unique_ptr<Session> session = f.CreateSession();

  // Warm-up: the session path (keyed by the statement text) and the
  // pre-parsed path (keyed by the rendered statement) each plan once.
  ASSERT_TRUE(session->Execute(BooksRangeSql(30)).ok());
  ASSERT_TRUE(RouteSql(&f, BooksRangeSql(30)).ok());
  const std::vector<int64_t> misses = NodeMisses(&f);
  const int64_t refreshes = PlanRefreshes(&f);
  EXPECT_EQ(refreshes, 2);

  for (int64_t below = 5; below < 45; below += 3) {
    auto res = session->Execute(BooksRangeSql(below));
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(res->rows.size(), static_cast<size_t>(below - 1));
    auto routed = RouteSql(&f, BooksRangeSql(below));
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    EXPECT_EQ(routed->result.rows.size(), static_cast<size_t>(below - 1));
  }
  EXPECT_EQ(NodeMisses(&f), misses);
  EXPECT_EQ(PlanRefreshes(&f), refreshes);

  sim::OracleReport report = sim::CheckHistory(recorder.Snapshot());
  EXPECT_TRUE(report.ok()) << report.Summary();
  ExpectNoLeakedPins(&f);
}

// A comment-led SELECT is routed with its text (the comment skipped), so it
// reuses the plain text's per-node entries.
TEST(FleetPlanCacheTest, CommentLedSelectRoutesWithItsText) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(13);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);
  std::unique_ptr<Session> session = f.CreateSession();
  ASSERT_TRUE(session->Execute(BooksRangeSql(30)).ok());
  const std::vector<int64_t> misses = NodeMisses(&f);
  const int64_t refreshes = PlanRefreshes(&f);
  const size_t routes =
      EventsOfKind(recorder.Snapshot(), sim::HistoryEvent::Kind::kRoute)
          .size();

  auto res = session->Execute("-- note\n" + BooksRangeSql(30));
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows.size(), 29u);
  EXPECT_EQ(EventsOfKind(recorder.Snapshot(), sim::HistoryEvent::Kind::kRoute)
                .size(),
            routes + 1);
  EXPECT_EQ(NodeMisses(&f), misses);
  EXPECT_EQ(PlanRefreshes(&f), refreshes);
  ExpectNoLeakedPins(&f);
}

TEST(FleetPlanCacheTest, StatisticsRefreshOnOneNodeRefreshesEveryNodeOnce) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(12);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);
  std::unique_ptr<Session> session = f.CreateSession();
  ASSERT_TRUE(session->Execute(BooksRangeSql(30)).ok());
  const int before_winner = LastRoutedNode(recorder);
  EXPECT_EQ(before_winner, CheapestByFreshPrepare(&f, BooksRangeSql(30)));

  // Node 2 learns that Books is tiny: its local plans get cheaper, and only
  // its plan cache moves version.
  TableStats stats = f.node(2)->catalog().GetStats("Books");
  stats.row_count = 4;
  stats.avg_row_bytes = 8;
  ASSERT_TRUE(f.node(2)->UpdateStatistics("Books", stats).ok());

  const std::vector<int64_t> misses = NodeMisses(&f);
  const int64_t refreshes = PlanRefreshes(&f);
  ASSERT_TRUE(session->Execute(BooksRangeSql(12)).ok());
  // Node 2 missed; the others hit with plans built from other literals, so
  // the router re-planned every node once from this text.
  EXPECT_EQ(PlanRefreshes(&f), refreshes + 1);
  std::vector<int64_t> expected_misses = misses;
  expected_misses[1] += 1;
  EXPECT_EQ(NodeMisses(&f), expected_misses);
  const int winner = LastRoutedNode(recorder);
  EXPECT_EQ(winner, CheapestByFreshPrepare(&f, BooksRangeSql(12)));
  EXPECT_EQ(winner, 2) << "the statistics refresh should flip the winner";

  // That one refresh serves the template from here on.
  ASSERT_TRUE(session->Execute(BooksRangeSql(12)).ok());
  ASSERT_TRUE(session->Execute(BooksRangeSql(19)).ok());
  EXPECT_EQ(LastRoutedNode(recorder), winner);
  EXPECT_EQ(PlanRefreshes(&f), refreshes + 1);
  EXPECT_EQ(NodeMisses(&f), expected_misses);

  sim::OracleReport report = sim::CheckHistory(recorder.Snapshot());
  EXPECT_TRUE(report.ok()) << report.Summary();
  ExpectNoLeakedPins(&f);
}

TEST(FleetPlanCacheTest, QuarantineAndResyncOfOneNodeRefreshesEveryNodeOnce) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(13);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);
  std::unique_ptr<Session> session = f.CreateSession();
  ASSERT_TRUE(session->Execute(BooksRangeSql(30)).ok());

  // Quarantine node 3, then let it resync: each health transition moves
  // only node 3's plan-cache version.
  ReplicationFaultConfig rf;
  rf.seed = 5;
  rf.poison_probability = 1.0;
  f.SetNodeReplicationFaults(3, rf);
  ASSERT_TRUE(
      session->Execute("UPDATE Books SET price = price + 1 WHERE isbn <= 10")
          .ok());
  for (int i = 0; i < 80 && f.node(3)->RegionHealthOf(BooksRegion(3)) !=
                                RegionHealth::kQuarantined;
       ++i) {
    f.AdvanceBy(500);
  }
  ASSERT_EQ(f.node(3)->RegionHealthOf(BooksRegion(3)),
            RegionHealth::kQuarantined);
  f.node(3)->ClearReplicationFaults();
  for (int i = 0; i < 80 && f.node(3)->RegionHealthOf(BooksRegion(3)) !=
                                RegionHealth::kHealthy;
       ++i) {
    f.AdvanceBy(500);
  }
  ASSERT_EQ(f.node(3)->RegionHealthOf(BooksRegion(3)),
            RegionHealth::kHealthy);

  const std::vector<int64_t> misses = NodeMisses(&f);
  const int64_t refreshes = PlanRefreshes(&f);
  ASSERT_TRUE(session->Execute(BooksRangeSql(12)).ok());
  EXPECT_EQ(PlanRefreshes(&f), refreshes + 1);
  std::vector<int64_t> expected_misses = misses;
  expected_misses[2] += 1;
  EXPECT_EQ(NodeMisses(&f), expected_misses);
  EXPECT_EQ(LastRoutedNode(recorder),
            CheapestByFreshPrepare(&f, BooksRangeSql(12)));

  ASSERT_TRUE(session->Execute(BooksRangeSql(19)).ok());
  EXPECT_EQ(PlanRefreshes(&f), refreshes + 1);
  EXPECT_EQ(NodeMisses(&f), expected_misses);

  sim::OracleReport report = sim::CheckHistory(recorder.Snapshot());
  EXPECT_TRUE(report.ok()) << report.Summary();
  ExpectNoLeakedPins(&f);
}

TEST(FleetPlanCacheTest, DegradeModesNeverShareAnEntry) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(14);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);
  std::unique_ptr<Session> session = f.CreateSession();
  const std::string sql = BooksRangeSql(30);

  ASSERT_TRUE(session->Execute("SET DEGRADE NONE").ok());
  ASSERT_TRUE(session->Execute(sql).ok());
  const std::vector<int64_t> misses = NodeMisses(&f);
  const int64_t refreshes = PlanRefreshes(&f);
  // The same text under ALWAYS is a different key on every node.
  ASSERT_TRUE(session->Execute("SET DEGRADE ALWAYS").ok());
  ASSERT_TRUE(session->Execute(sql).ok());
  std::vector<int64_t> expected_misses = misses;
  for (int64_t& m : expected_misses) ++m;
  EXPECT_EQ(NodeMisses(&f), expected_misses);
  EXPECT_EQ(PlanRefreshes(&f), refreshes + 1);
  // Back under NONE, the NONE entries still serve.
  ASSERT_TRUE(session->Execute("SET DEGRADE NONE").ok());
  ASSERT_TRUE(session->Execute(sql).ok());
  EXPECT_EQ(NodeMisses(&f), expected_misses);
  EXPECT_EQ(PlanRefreshes(&f), refreshes + 1);

  for (int n = 1; n <= f.node_count(); ++n) {
    PlanCache& pc = f.node(n)->plan_cache();
    auto none = pc.Lookup(sql, DegradeMode::kNone, false);
    auto always = pc.Lookup(sql, DegradeMode::kAlways, false);
    ASSERT_TRUE(none.hit.has_value()) << "node " << n;
    ASSERT_TRUE(always.hit.has_value()) << "node " << n;
    EXPECT_NE(none.hit->entry, always.hit->entry) << "node " << n;
    EXPECT_EQ(none.hit->entry->created_degrade, DegradeMode::kNone);
    EXPECT_EQ(always.hit->entry->created_degrade, DegradeMode::kAlways);
  }

  sim::OracleReport report = sim::CheckHistory(recorder.Snapshot());
  EXPECT_TRUE(report.ok()) << report.Summary();
  ExpectNoLeakedPins(&f);
}

TEST(FleetSessionTest, TraceOnCarriesTheServingNodesGuardEvents) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(15);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);
  std::unique_ptr<Session> session = f.CreateSession();

  auto quiet = session->Execute(BooksRangeSql(30));
  ASSERT_TRUE(quiet.ok()) << quiet.status().ToString();
  EXPECT_EQ(quiet->trace, nullptr);

  ASSERT_TRUE(session->Execute("SET TRACE ON").ok());
  auto traced = session->Execute(BooksRangeSql(30));
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  ASSERT_NE(traced->trace, nullptr);
  const int node = LastRoutedNode(recorder);
  ASSERT_GT(node, 0);
  ASSERT_GT(traced->trace->CountOf(obs::TraceEventKind::kGuardProbe), 0);
  for (const obs::TraceEvent& ev : traced->trace->events()) {
    if (ev.kind == obs::TraceEventKind::kGuardProbe) {
      EXPECT_EQ(ev.region, BooksRegion(node)) << ev.detail;
    }
  }
  ExpectNoLeakedPins(&f);
}

TEST(FleetConcurrencyTest, RoutedSessionHammerDuringQuarantine) {
  // Routed sessions on pool-like threads while the simulation thread pokes
  // a node into quarantine and back — the server's locking discipline:
  // statements shared, virtual-time steps and DML exclusive. Runs under
  // TSan via the `tsan` label.
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(16);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);
  f.BeginConcurrentBatch();
  std::shared_mutex engine_mu;
  // glibc's rwlock prefers readers; this flag keeps four looping readers
  // from starving the simulation thread.
  std::atomic<bool> writer_waiting{false};
  auto exclusive = [&] {
    writer_waiting.store(true, std::memory_order_release);
    std::unique_lock<std::shared_mutex> lock(engine_mu);
    writer_waiting.store(false, std::memory_order_release);
    return lock;
  };
  std::atomic<bool> stop{false};
  std::atomic<int64_t> failures{0};
  std::atomic<int64_t> answered{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::unique_ptr<Session> session = f.CreateSession();
      {
        // Control statements read the virtual clock too: shared, like the
        // server runs them.
        std::shared_lock<std::shared_mutex> lock(engine_mu);
        session->Execute(t % 2 == 0 ? "SET DEGRADE NONE"
                                    : "SET DEGRADE ALWAYS");
      }
      for (int i = 0; !stop.load(std::memory_order_acquire); ++i) {
        while (writer_waiting.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        std::shared_lock<std::shared_mutex> lock(engine_mu);
        std::string sql =
            i % 3 == 2 ? "SELECT isbn, rating FROM Reviews R WHERE R.isbn < " +
                             std::to_string(5 + i % 20) +
                             " CURRENCY BOUND 1 HOUR ON (R)"
                       : BooksRangeSql(5 + (i * 7 + t) % 40);
        auto res = session->Execute(sql);
        if (res.ok()) {
          answered.fetch_add(1, std::memory_order_relaxed);
        } else {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::unique_ptr<Session> dml = f.anchor()->CreateSession();
  ReplicationFaultConfig rf;
  rf.seed = 8;
  rf.poison_probability = 1.0;
  {
    auto lock = exclusive();
    f.SetNodeReplicationFaults(2, rf);
  }
  bool quarantined = false;
  for (int step = 0; step < 120; ++step) {
    // Let the readers make progress between steps (bounded, so a stuck
    // reader fails the answered/failures checks instead of hanging).
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (answered.load(std::memory_order_relaxed) +
                   failures.load(std::memory_order_relaxed) <
               4 * step &&
           std::chrono::steady_clock::now() < until) {
      std::this_thread::yield();
    }
    auto lock = exclusive();
    if (step % 4 == 0) {
      ASSERT_TRUE(dml->Execute("UPDATE Books SET price = price + 1 "
                               "WHERE isbn = " +
                               std::to_string(1 + step % 50))
                      .ok());
    }
    f.AdvanceBy(250);
    if (!quarantined && f.node(2)->RegionHealthOf(BooksRegion(2)) ==
                            RegionHealth::kQuarantined) {
      quarantined = true;
      f.node(2)->ClearReplicationFaults();
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  f.EndConcurrentBatch();

  EXPECT_TRUE(quarantined);
  EXPECT_EQ(f.node(2)->RegionHealthOf(BooksRegion(2)), RegionHealth::kHealthy);
  EXPECT_GE(answered.load(), 4 * 119);
  EXPECT_EQ(failures.load(), 0);
  sim::OracleReport report = sim::CheckHistory(recorder.Snapshot());
  EXPECT_TRUE(report.ok()) << report.Summary();
  ExpectNoLeakedPins(&f);
}

}  // namespace
}  // namespace rcc
