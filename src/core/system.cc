#include "core/system.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

#include "core/session.h"

namespace rcc {

RccSystem::RccSystem(SystemConfig config)
    : config_(config),
      scheduler_(&clock_),
      backend_(&clock_, config_.costs),
      cache_(&backend_, &scheduler_, config_.costs) {
  cache_.SetMetricsRegistry(&metrics_);
}

void RccSystem::AdvanceTo(SimTimeMs t) {
  scheduler_.RunUntil(t);
  for (BackendServer* backend : reclaimed_backends_) {
    backend->ReclaimAppliedLog();
  }
}

std::unique_ptr<Session> RccSystem::CreateSession() {
  return std::make_unique<Session>(this);
}

void RccSystem::SetHistorySink(HistorySink* sink) {
  cache_.SetHistorySink(sink);
  if (sink == nullptr) {
    backend_.set_commit_observer(nullptr);
    return;
  }
  backend_.set_commit_observer([this, sink](const CommittedTxn& txn) {
    sink->OnCommit(txn, clock_.Now());
  });
}

ThreadPool* RccSystem::EnsurePool(int workers) {
  if (pool_ == nullptr || pool_workers_ != workers) {
    pool_.reset();  // join the old pool before spawning the new one
    pool_ = std::make_unique<ThreadPool>(workers);
    pool_workers_ = workers;
  }
  return pool_.get();
}

void RaiseFloor(std::atomic<SimTimeMs>* cell, SimTimeMs seen) {
  SimTimeMs cur = cell->load(std::memory_order_relaxed);
  while (seen > cur &&
         !cell->compare_exchange_weak(cur, seen, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
  }
}

std::vector<Result<QueryResult>> RccSystem::ExecuteConcurrent(
    const std::vector<std::string>& sqls, const ConcurrentBatchOptions& opts) {
  const int workers =
      opts.workers > 0 ? opts.workers : ThreadPool::DefaultWorkers();
  // Indexed slots instead of a shared push-back vector: each worker writes
  // only its own element, so result order is input order by construction.
  std::vector<std::optional<Result<QueryResult>>> slots(sqls.size());

  // The batch is time-ordered exactly when it carries a floor; that is the
  // plan-cache key's flag, so a session's batch shares its serial entries.
  const bool timeordered =
      opts.floor_cell != nullptr || opts.timeline_floor >= 0;
  auto run_one = [this, &sqls, &opts,
                  timeordered](size_t i) -> Result<QueryResult> {
    // Lookup, parse and plan are thread-safe, so they run inside the worker
    // task too.
    RCC_ASSIGN_OR_RETURN(
        PlanCacheHit prepared,
        cache_.LookupOrPrepare(sqls[i], opts.degrade, timeordered));
    CacheDbms::PreparedExecOptions eo;
    eo.timeline_floor = opts.timeline_floor;
    if (opts.floor_cell != nullptr) {
      eo.timeline_floor =
          std::max(eo.timeline_floor,
                   opts.floor_cell->load(std::memory_order_acquire));
    }
    // Behaves under the plan's creation mode, audited under the batch's, as
    // Session::ExecuteSelect runs it.
    eo.degrade = prepared.entry->created_degrade;
    eo.audit_degrade = opts.degrade;
    eo.session_tag = opts.session_tag;
    eo.params = &prepared.params;
    RCC_ASSIGN_OR_RETURN(CacheQueryOutcome outcome,
                         cache_.ExecutePrepared(*prepared.entry->plan, eo));
    if (opts.floor_cell != nullptr && outcome.max_seen_heartbeat >= 0) {
      RaiseFloor(opts.floor_cell, outcome.max_seen_heartbeat);
    }
    return MakeQueryResult(std::move(outcome));
  };

  cache_.BeginConcurrentBatch();
  if (workers <= 1) {
    // Inline execution under the same batch contract — the equivalence
    // baseline for the pooled runs (and what tests compare against).
    for (size_t i = 0; i < sqls.size(); ++i) slots[i] = run_one(i);
  } else {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(sqls.size());
    for (size_t i = 0; i < sqls.size(); ++i) {
      tasks.push_back([&run_one, &slots, i] { slots[i] = run_one(i); });
    }
    EnsurePool(workers)->Run(std::move(tasks));
  }
  cache_.EndConcurrentBatch();

  std::vector<Result<QueryResult>> results;
  results.reserve(slots.size());
  for (auto& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace rcc
