#include "rig.h"

#include <algorithm>

#include "common/strings.h"
#include "plan/plan_cache.h"
#include "replication/agent.h"
#include "server/wire.h"
#include "sql/parser.h"

namespace perfbench {

using rcc::CacheDbms;
using rcc::Row;
using rcc::StrPrintf;

namespace {
/// Rows per kRows frame, as the server chunks result sets.
constexpr size_t kRowsPerFrame = 256;
}  // namespace

std::string CheckRows(const Stmt& s, const std::vector<Row>& rows) {
  if (static_cast<int64_t>(rows.size()) != s.expect_rows) {
    return StrPrintf("%s: %zu rows, expected %lld: %s", s.cls.c_str(),
                     rows.size(), static_cast<long long>(s.expect_rows),
                     s.sql.c_str());
  }
  if (s.expect_key >= 0 &&
      (rows[0].empty() || rows[0][0].type() != rcc::ValueType::kInt64 ||
       rows[0][0].AsInt() != s.expect_key)) {
    return StrPrintf("%s: wrong key returned for %s", s.cls.c_str(),
                     s.sql.c_str());
  }
  return "";
}

std::string CheckAffected(const Stmt& s, int64_t rows_affected) {
  if (rows_affected == s.expect_rows) return "";
  return StrPrintf("%s: %lld rows affected, expected %lld: %s", s.cls.c_str(),
                   static_cast<long long>(rows_affected),
                   static_cast<long long>(s.expect_rows), s.sql.c_str());
}

int64_t AgentCounts::total_deliveries() const {
  int64_t n = 0;
  for (int64_t d : deliveries) n += d;
  return n;
}

int64_t AgentCounts::total_ops() const {
  int64_t n = 0;
  for (int64_t o : ops) n += o;
  return n;
}

AgentCounts ReadAgents(const std::vector<CacheDbms*>& caches) {
  AgentCounts out;
  for (CacheDbms* cache : caches) {
    for (const auto& agent : cache->agents()) {
      out.deliveries.push_back(agent->deliveries());
      out.ops.push_back(agent->ops_applied());
    }
  }
  return out;
}

void RecordStep(const std::vector<CacheDbms*>& caches,
                const AgentCounts& before, double us, SpanLog* spans,
                LayerInputs* layers) {
  AgentCounts after = ReadAgents(caches);
  int64_t delivered = after.total_deliveries() - before.total_deliveries();
  if (delivered <= 0) return;
  int64_t view_rows = 0;
  size_t i = 0;
  for (CacheDbms* cache : caches) {
    for (const auto& agent : cache->agents()) {
      if (after.ops[i] > before.ops[i]) {
        for (const auto& view : agent->region()->Snapshot()->views) {
          view_rows += static_cast<int64_t>(view->data().num_rows());
        }
      }
      ++i;
    }
  }
  spans->Add("replication.deliver", "step", us);
  layers->deliveries += delivered;
  layers->ops += after.total_ops() - before.total_ops();
  if (view_rows > 0) {
    layers->ns_per_view_row.push_back(us * 1000.0 /
                                      static_cast<double>(view_rows));
  }
}

void ReplaySelectLayers(CacheDbms* cache, const Stmt& s, bool wire,
                        std::optional<rcc::PlanShape> expected_shape,
                        SpanLog* spans, LayerInputs* layers, Tally* tally) {
  const std::string& cls = s.cls;
  rcc::PlanCache::LookupResult looked;
  spans->Add("plan.lookup", cls, TimeUs([&] {
               looked = cache->plan_cache().Lookup(
                   s.sql, rcc::DegradeMode::kNone, /*timeordered=*/false);
             }));
  ++layers->lookups;
  if (looked.hit.has_value()) {
    ++layers->hits;
    // An L1 hit returns before normalization runs.
    if (looked.norm.text.empty()) ++layers->l1_hits;
  }

  std::optional<rcc::Result<rcc::Statement>> parsed;
  spans->Add("sql.parse", cls,
             TimeUs([&] { parsed.emplace(rcc::ParseStatement(s.sql)); }));
  if (!parsed->ok() || (*parsed)->kind != rcc::StatementKind::kSelect) {
    tally->Fail(cls + ": parse failed: " + s.sql);
    return;
  }
  const rcc::SelectStmt& select = *(*parsed)->select;

  std::optional<rcc::Result<rcc::QueryPlan>> plan;
  spans->Add("optimizer.prepare", cls,
             TimeUs([&] { plan.emplace(cache->Prepare(select)); }));
  if (!plan->ok()) {
    tally->Fail(cls + ": prepare failed: " + plan->status().ToString());
    return;
  }

  CacheDbms::PreparedExecOptions eo;
  const rcc::QueryPlan* exec_plan = &**plan;
  std::vector<rcc::Value> params;
  if (looked.hit.has_value()) {
    exec_plan = looked.hit->entry->plan.get();
    params = looked.hit->params;
    eo.degrade = looked.hit->entry->created_degrade;
    eo.params = &params;
  }
  std::optional<rcc::Result<rcc::CacheQueryOutcome>> outcome;
  spans->Add("cache.execute_prepared", cls, TimeUs([&] {
               outcome.emplace(cache->ExecutePrepared(*exec_plan, eo));
             }));
  if (!outcome->ok()) {
    tally->Fail(cls + ": execute failed: " + outcome->status().ToString());
    return;
  }
  const rcc::CacheQueryOutcome& o = **outcome;
  const std::vector<Row>& rows = o.result.rows;
  std::string why = CheckRows(s, rows);
  if (!why.empty()) tally->Fail(why);
  if (expected_shape.has_value() && looked.hit.has_value() &&
      o.shape != *expected_shape) {
    tally->Fail(cls + ": cached plan shape " +
                std::string(rcc::PlanShapeName(o.shape)) + ", warm-up saw " +
                std::string(rcc::PlanShapeName(*expected_shape)));
  }
  spans->Add("exec.setup", cls, o.stats.setup_ms * 1000.0);
  spans->Add("exec.run", cls, o.stats.run_ms * 1000.0);
  spans->Add("exec.shutdown", cls, o.stats.shutdown_ms * 1000.0);
  layers->exec_run_us_total += o.stats.run_ms * 1000.0;
  layers->exec_rows += o.stats.rows_returned;
  layers->switch_local += o.stats.switch_local;
  layers->switch_remote += o.stats.switch_remote;
  layers->guard_evaluations += o.stats.guard_evaluations;

  std::optional<rcc::Result<rcc::RemoteResult>> remote;
  spans->Add("backend.remote", cls, TimeUs([&] {
               remote.emplace(cache->backend()->ExecuteRemote(select));
             }));
  if (!remote->ok()) {
    tally->Fail(cls + ": remote failed: " + remote->status().ToString());
  } else if (std::string w = CheckRows(s, (*remote)->rows); !w.empty()) {
    tally->Fail("backend " + w);
  }

  if (!wire) return;
  std::vector<std::string> payloads;
  spans->Add("server.encode", cls, TimeUs([&] {
               for (size_t i = 0; i < rows.size(); i += kRowsPerFrame) {
                 payloads.push_back(rcc::server::EncodeRowsPayload(
                     rows, i, std::min(rows.size(), i + kRowsPerFrame)));
               }
             }));
  std::vector<Row> decoded;
  bool decode_ok = true;
  spans->Add("server.decode", cls, TimeUs([&] {
               for (const std::string& p : payloads) {
                 decode_ok &= rcc::server::DecodeRowsPayload(p, &decoded).ok();
               }
             }));
  if (!decode_ok || decoded.size() != rows.size()) {
    tally->Fail(cls + ": rows payload did not round-trip");
  }
}

void ReplayParse(const Stmt& s, SpanLog* spans, Tally* tally) {
  std::optional<rcc::Result<rcc::Statement>> parsed;
  spans->Add("sql.parse", s.cls,
             TimeUs([&] { parsed.emplace(rcc::ParseStatement(s.sql)); }));
  if (!parsed->ok()) tally->Fail(s.cls + ": parse failed: " + s.sql);
}

std::optional<rcc::QueryResult> TimedSessionExecute(rcc::Session* session,
                                                    const Stmt& s,
                                                    SpanLog* spans,
                                                    Tally* tally) {
  std::optional<rcc::Result<rcc::QueryResult>> r;
  double us = TimeUs([&] { r.emplace(session->Execute(s.sql)); });
  tally->Attempt();
  if (!r->ok()) {
    tally->Fail(s.cls + ": " + r->status().ToString());
    return std::nullopt;
  }
  const bool update = s.kind == Stmt::Kind::kUpdate;
  std::string why = update ? CheckAffected(s, (*r)->rows_affected)
                           : CheckRows(s, (*r)->rows);
  if (!why.empty()) {
    tally->Fail(why);
    return std::nullopt;
  }
  if (spans != nullptr) {
    spans->Add(update ? "core.update" : "core.select", s.cls, us);
  }
  return std::move(**r);
}

bool WarmUp(const std::vector<Stmt>& stmts, rcc::Session* reader,
            rcc::Session* writer,
            rcc::PlanShape (*expected_shape)(const std::string& cls),
            Tally* tally) {
  bool ok = true;
  for (const Stmt& s : stmts) {
    const bool select = s.kind == Stmt::Kind::kSelect;
    std::optional<rcc::QueryResult> r =
        TimedSessionExecute(select ? reader : writer, s, nullptr, tally);
    if (!r.has_value()) {
      ok = false;
    } else if (select && r->shape != expected_shape(s.cls)) {
      tally->Fail("warm-up " + s.cls + " planned as " +
                  std::string(rcc::PlanShapeName(r->shape)));
      ok = false;
    }
  }
  return ok;
}

}  // namespace perfbench
