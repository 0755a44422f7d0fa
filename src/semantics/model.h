#ifndef RCC_SEMANTICS_MODEL_H_
#define RCC_SEMANTICS_MODEL_H_

#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "txn/update_log.h"

namespace rcc {

/// Executable form of the paper's appendix semantics (§8). These functions
/// interpret the back-end update log as the history Hn and compute the
/// formal notions — xtime, stale point, currency, snapshot consistency and
/// Δ-consistency — against which the engine's behaviour is validated in
/// tests and (optionally) at runtime.
///
/// The log may have had its applied prefix reclaimed
/// (UpdateLog::TruncateBefore). Every function below answers exactly as on
/// the full log as long as each copy's `as_of` is at or after
/// log.TimestampAtPosition(log.base()) — which holds for any copy a region
/// can serve, since the backend frees only what every region it feeds has
/// applied.
namespace semantics {

/// A replica of one table reflecting back-end snapshot `as_of`
/// (= the id of the last transaction applied).
struct CopyState {
  std::string table;
  TxnTimestamp as_of = kInitialTimestamp;
};

/// xtime(O, Hn): commit time of the latest transaction at or before `as_of`
/// that modified `table`; 0 when the table is untouched in that prefix.
SimTimeMs XTime(const UpdateLog& log, std::string_view table,
                TxnTimestamp as_of);

/// The stale point of a copy of `table` synced at snapshot `as_of`: commit
/// virtual time of the first later transaction modifying the table, or
/// nullopt when the copy is still identical to the master.
std::optional<SimTimeMs> StalePoint(const UpdateLog& log,
                                    std::string_view table,
                                    TxnTimestamp as_of);

/// currency(C, now): how long the copy has been stale at virtual time `now`
/// (0 when not stale) — the appendix's xtime(Tn) − stale(C, Hn) measured on
/// the virtual clock.
SimTimeMs CurrencyOf(const UpdateLog& log, std::string_view table,
                     TxnTimestamp as_of, SimTimeMs now);

/// True when the copies can all be attributed to one database snapshot: for
/// every pair, no transaction in (min(as_of), max(as_of)] touched the table
/// of the older copy. (Copies in one currency region trivially qualify:
/// equal as_of.)
bool MutuallyConsistent(const UpdateLog& log,
                        const std::vector<CopyState>& copies);

/// Δ-consistency distance between two copies (appendix §8.5): with
/// xtime(A) <= xtime(B) = Tm, distance(A,B) = currency(A, Hm). Returns 0 for
/// mutually consistent copies.
SimTimeMs Distance(const UpdateLog& log, const CopyState& a,
                   const CopyState& b);

/// Maximum pairwise distance over a set: the set is Δ-consistent with this
/// bound (appendix: "we extend the notion of Δ-consistency for a set K").
SimTimeMs GroupDistance(const UpdateLog& log,
                        const std::vector<CopyState>& copies);

}  // namespace semantics
}  // namespace rcc

#endif  // RCC_SEMANTICS_MODEL_H_
