#include "txn/update_log.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace rcc {

void UpdateLog::Append(CommittedTxn txn) {
  RCC_CHECK(txn.id > (txns_.empty() ? base_timestamp_ : txns_.back().id),
            "update log timestamps must be increasing");
  RCC_CHECK(txns_.empty() || txn.commit_time >= txns_.back().commit_time,
            "update log commit times must be non-decreasing");
  txns_.push_back(std::move(txn));
}

const CommittedTxn& UpdateLog::at(size_t i) const {
  RCC_CHECK(i >= base_ && i < size(), "log position out of range");
  return txns_[i - base_];
}

size_t UpdateLog::UpperBoundByCommitTime(SimTimeMs t) const {
  auto it = std::upper_bound(
      txns_.begin(), txns_.end(), t,
      [](SimTimeMs lhs, const CommittedTxn& rhs) { return lhs < rhs.commit_time; });
  return base_ + static_cast<size_t>(it - txns_.begin());
}

TxnTimestamp UpdateLog::TimestampAtPosition(size_t pos) const {
  if (pos == 0) return kInitialTimestamp;
  RCC_CHECK(pos >= base_ && pos <= size(), "log position out of range");
  if (pos == base_) return base_timestamp_;
  return txns_[pos - 1 - base_].id;
}

std::optional<SimTimeMs> UpdateLog::FreedXTime(std::string_view table) const {
  auto it = freed_xtime_.find(ToLower(table));
  if (it == freed_xtime_.end()) return std::nullopt;
  return it->second;
}

size_t UpdateLog::TruncateBefore(size_t pos) {
  size_t freed = 0;
  while (base_ < pos && !txns_.empty()) {
    const CommittedTxn& txn = txns_.front();
    for (const RowOp& op : txn.ops) {
      freed_xtime_[ToLower(op.table)] = txn.commit_time;
    }
    base_timestamp_ = txn.id;
    txns_.pop_front();
    ++base_;
    ++freed;
  }
  return freed;
}

}  // namespace rcc
