#ifndef RCC_TXN_UPDATE_LOG_H_
#define RCC_TXN_UPDATE_LOG_H_

#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "storage/table.h"
#include "txn/oracle.h"

namespace rcc {

/// A single row modification inside a committed transaction.
struct RowOp {
  enum class Kind { kInsert, kUpdate, kDelete };

  Kind kind = Kind::kInsert;
  /// Master table the op applies to.
  std::string table;
  /// Full new row for insert/update; unused for delete.
  Row row;
  /// The *source* primary key the op addresses: the deleted row's key for
  /// kDelete, the pre-image key for kUpdate (filled in by the back-end when
  /// the transaction executes; it differs from KeyOf(row) when the update
  /// changes a clustered-key column), derivable from `row` for kInsert.
  TableKey key;
};

/// A committed update transaction, as shipped to replicas. Transactional
/// replication applies these one at a time, in commit order, which is what
/// makes all views served by the same distribution agent mutually consistent
/// (paper §3.1).
struct CommittedTxn {
  TxnTimestamp id = kInitialTimestamp;
  /// Virtual time at which the transaction committed on the back-end.
  SimTimeMs commit_time = 0;
  std::vector<RowOp> ops;
};

/// Append-only log of committed transactions on the back-end; distribution
/// agents each track their own read position.
///
/// Positions are absolute: position i names the i-th transaction ever
/// appended, before and after the applied prefix is reclaimed
/// (TruncateBefore). Only positions in [base(), size()) can be read with
/// at(); the freed prefix leaves behind its last timestamp (so
/// TimestampAtPosition(base()) still answers) and, per table, the commit
/// time of the last freed transaction that touched it (so
/// semantics::XTime answers as if nothing had been freed).
class UpdateLog {
 public:
  UpdateLog() = default;

  UpdateLog(const UpdateLog&) = delete;
  UpdateLog& operator=(const UpdateLog&) = delete;

  /// Appends a committed transaction. Ids must be increasing.
  void Append(CommittedTxn txn);

  /// One past the last position ever appended.
  size_t size() const { return base_ + txns_.size(); }
  /// First position still held in memory (0 until a prefix is reclaimed).
  size_t base() const { return base_; }
  /// The transaction at absolute position i; requires base() <= i < size().
  const CommittedTxn& at(size_t i) const;

  /// Index of the first transaction with commit_time > t, i.e. the log
  /// position an agent snapshotting at time t replicates up to. Never below
  /// base(): every freed transaction committed before the reader that
  /// applied it took its snapshot.
  size_t UpperBoundByCommitTime(SimTimeMs t) const;

  /// Timestamp of the last transaction at or before log position `pos`
  /// (kInitialTimestamp when pos == 0). Requires pos >= base() (or 0).
  TxnTimestamp TimestampAtPosition(size_t pos) const;

  /// Commit time of the last freed transaction touching `table`
  /// (case-insensitive); nullopt when none did.
  std::optional<SimTimeMs> FreedXTime(std::string_view table) const;

  /// Frees every transaction before absolute position `pos` (clamped to
  /// size()). Callers pass a position every reader has already applied.
  /// Returns the number of transactions freed.
  size_t TruncateBefore(size_t pos);

 private:
  std::deque<CommittedTxn> txns_;
  size_t base_ = 0;
  /// Timestamp of the last freed transaction: TimestampAtPosition(base_).
  TxnTimestamp base_timestamp_ = kInitialTimestamp;
  /// Lower-cased table name -> commit time of its last freed transaction.
  std::map<std::string, SimTimeMs> freed_xtime_;
};

}  // namespace rcc

#endif  // RCC_TXN_UPDATE_LOG_H_
