// Engine-facing helpers shared by the workloads: the statement record with
// its expected answer, answer checks, replication counters, and the
// in-process layer replay that times each module through its public
// functions.

#ifndef RCC_PERFBENCH_RIG_H_
#define RCC_PERFBENCH_RIG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/rcc.h"
#include "harness.h"

namespace perfbench {

/// One generated statement and the answer it must produce.
struct Stmt {
  enum class Kind { kSelect, kUpdate, kStep };
  Kind kind = Kind::kSelect;
  std::string sql;
  /// Statement class (README.md lists them per workload).
  std::string cls;
  /// SELECT: exact row count. UPDATE: exact rows affected.
  int64_t expect_rows = 0;
  /// Point lookups: the key column 0 must hold; -1 for other classes.
  int64_t expect_key = -1;
};

inline Stmt StepMarker() {
  Stmt s;
  s.kind = Stmt::Kind::kStep;
  s.cls = "step";
  return s;
}

/// "" when `rows` is the answer `s` expects, else what is wrong.
std::string CheckRows(const Stmt& s, const std::vector<rcc::Row>& rows);
std::string CheckAffected(const Stmt& s, int64_t rows_affected);

/// Deliveries and ops applied per distribution agent (in `caches` order),
/// read from DistributionAgent counters.
struct AgentCounts {
  std::vector<int64_t> deliveries;
  std::vector<int64_t> ops;
  int64_t total_deliveries() const;
  int64_t total_ops() const;
};
AgentCounts ReadAgents(const std::vector<rcc::CacheDbms*>& caches);

/// Non-template core of TimedStep.
void RecordStep(const std::vector<rcc::CacheDbms*>& caches,
                const AgentCounts& before, double us, SpanLog* spans,
                LayerInputs* layers);

/// Runs one virtual-time step (`advance`) with no statement in flight.
/// When the step raised a delivery count, its real time is recorded as a
/// replication.deliver span along with its ops and its ns per row of the
/// views in the regions that applied ops.
template <typename Fn>
void TimedStep(const std::vector<rcc::CacheDbms*>& caches, Fn&& advance,
               SpanLog* spans, LayerInputs* layers) {
  AgentCounts before = ReadAgents(caches);
  double us = TimeUs(advance);
  RecordStep(caches, before, us, spans, layers);
}

/// Layer replay of one SELECT against `cache`, each call timed from here:
/// PlanCache::Lookup, ParseStatement, CacheDbms::Prepare,
/// CacheDbms::ExecutePrepared (the cached plan with its bound params on a
/// hit, else the fresh plan), BackendServer::ExecuteRemote and, when
/// `wire`, EncodeRowsPayload/DecodeRowsPayload in the server's frame-sized
/// chunks. Answers are checked; a cached plan whose shape differs from
/// `expected_shape` is a failure.
void ReplaySelectLayers(rcc::CacheDbms* cache, const Stmt& s, bool wire,
                        std::optional<rcc::PlanShape> expected_shape,
                        SpanLog* spans, LayerInputs* layers, Tally* tally);

/// Times ParseStatement on an UPDATE text (UPDATEs are never plan-cached).
void ReplayParse(const Stmt& s, SpanLog* spans, Tally* tally);

/// The deterministic warm-up: runs each statement once, in order (SELECTs
/// on `reader`, UPDATEs on `writer`), before anything is timed. Returns
/// false, counting a failure, on a wrong answer or a SELECT whose plan
/// shape differs from `expected_shape(cls)`.
bool WarmUp(const std::vector<Stmt>& stmts, rcc::Session* reader,
            rcc::Session* writer,
            rcc::PlanShape (*expected_shape)(const std::string& cls),
            Tally* tally);

/// Runs `s` through Session::Execute, timed as core.select / core.update,
/// and checks the answer. Returns the result when it ran.
std::optional<rcc::QueryResult> TimedSessionExecute(rcc::Session* session,
                                                    const Stmt& s,
                                                    SpanLog* spans,
                                                    Tally* tally);

}  // namespace perfbench

#endif  // RCC_PERFBENCH_RIG_H_
