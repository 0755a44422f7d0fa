#include "semantics/model.h"

#include <algorithm>

#include "common/strings.h"

namespace rcc {
namespace semantics {

namespace {

/// True when transaction `txn` modifies `table`.
bool Touches(const CommittedTxn& txn, std::string_view table) {
  for (const RowOp& op : txn.ops) {
    if (EqualsIgnoreCase(op.table, table)) return true;
  }
  return false;
}

}  // namespace

SimTimeMs XTime(const UpdateLog& log, std::string_view table,
                TxnTimestamp as_of) {
  // Every freed transaction is at or before as_of (the precondition), so the
  // freed prefix contributes the commit time of its last touch of `table`.
  SimTimeMs x = log.FreedXTime(table).value_or(0);
  for (size_t i = log.base(); i < log.size(); ++i) {
    const CommittedTxn& txn = log.at(i);
    if (txn.id > as_of) break;
    if (Touches(txn, table)) x = txn.commit_time;
  }
  return x;
}

std::optional<SimTimeMs> StalePoint(const UpdateLog& log,
                                    std::string_view table,
                                    TxnTimestamp as_of) {
  for (size_t i = log.base(); i < log.size(); ++i) {
    const CommittedTxn& txn = log.at(i);
    if (txn.id <= as_of) continue;
    if (Touches(txn, table)) return txn.commit_time;
  }
  return std::nullopt;
}

SimTimeMs CurrencyOf(const UpdateLog& log, std::string_view table,
                     TxnTimestamp as_of, SimTimeMs now) {
  auto stale = StalePoint(log, table, as_of);
  if (!stale.has_value()) return 0;
  return now > *stale ? now - *stale : 0;
}

bool MutuallyConsistent(const UpdateLog& log,
                        const std::vector<CopyState>& copies) {
  for (const CopyState& older : copies) {
    for (const CopyState& newer : copies) {
      if (older.as_of >= newer.as_of) continue;
      // A transaction in (older.as_of, newer.as_of] touching older.table
      // means the older copy misses an update the newer one may reflect.
      for (size_t i = log.base(); i < log.size(); ++i) {
        const CommittedTxn& txn = log.at(i);
        if (txn.id <= older.as_of) continue;
        if (txn.id > newer.as_of) break;
        if (Touches(txn, older.table)) return false;
      }
    }
  }
  return true;
}

SimTimeMs Distance(const UpdateLog& log, const CopyState& a,
                   const CopyState& b) {
  // Order so that xa <= xb; the distance is how stale the older copy is at
  // the younger copy's transaction time.
  const CopyState& older = a.as_of <= b.as_of ? a : b;
  const CopyState& newer = a.as_of <= b.as_of ? b : a;
  SimTimeMs tm = XTime(log, newer.table, newer.as_of);
  return CurrencyOf(log, older.table, older.as_of, tm);
}

SimTimeMs GroupDistance(const UpdateLog& log,
                        const std::vector<CopyState>& copies) {
  SimTimeMs max_d = 0;
  for (size_t i = 0; i < copies.size(); ++i) {
    for (size_t j = i + 1; j < copies.size(); ++j) {
      max_d = std::max(max_d, Distance(log, copies[i], copies[j]));
    }
  }
  return max_d;
}

}  // namespace semantics
}  // namespace rcc
