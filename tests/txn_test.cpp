#include <gtest/gtest.h>

#include <optional>

#include "txn/oracle.h"
#include "txn/update_log.h"

namespace rcc {
namespace {

TEST(OracleTest, TimestampsIncrease) {
  TimestampOracle oracle;
  EXPECT_EQ(oracle.last_committed(), kInitialTimestamp);
  TxnTimestamp a = oracle.NextCommit(10);
  TxnTimestamp b = oracle.NextCommit(20);
  EXPECT_LT(a, b);
  EXPECT_EQ(oracle.last_committed(), b);
  EXPECT_EQ(oracle.last_commit_time(), 20);
}

CommittedTxn MakeTxn(TxnTimestamp id, SimTimeMs at, const std::string& table) {
  CommittedTxn txn;
  txn.id = id;
  txn.commit_time = at;
  RowOp op;
  op.kind = RowOp::Kind::kUpdate;
  op.table = table;
  txn.ops.push_back(std::move(op));
  return txn;
}

TEST(UpdateLogTest, AppendAndAccess) {
  UpdateLog log;
  log.Append(MakeTxn(1, 100, "t"));
  log.Append(MakeTxn(2, 150, "t"));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.at(0).id, 1u);
  EXPECT_EQ(log.at(1).commit_time, 150);
}

TEST(UpdateLogTest, UpperBoundByCommitTime) {
  UpdateLog log;
  log.Append(MakeTxn(1, 100, "t"));
  log.Append(MakeTxn(2, 150, "t"));
  log.Append(MakeTxn(3, 150, "t"));
  log.Append(MakeTxn(4, 200, "t"));
  EXPECT_EQ(log.UpperBoundByCommitTime(99), 0u);
  EXPECT_EQ(log.UpperBoundByCommitTime(100), 1u);
  EXPECT_EQ(log.UpperBoundByCommitTime(150), 3u);
  EXPECT_EQ(log.UpperBoundByCommitTime(151), 3u);
  EXPECT_EQ(log.UpperBoundByCommitTime(10000), 4u);
}

TEST(UpdateLogTest, TimestampAtPosition) {
  UpdateLog log;
  log.Append(MakeTxn(5, 100, "t"));
  log.Append(MakeTxn(9, 150, "t"));
  EXPECT_EQ(log.TimestampAtPosition(0), kInitialTimestamp);
  EXPECT_EQ(log.TimestampAtPosition(1), 5u);
  EXPECT_EQ(log.TimestampAtPosition(2), 9u);
}

TEST(UpdateLogTest, TruncationKeepsAbsolutePositionsAndBaseTimestamp) {
  UpdateLog log;
  log.Append(MakeTxn(5, 100, "t"));
  log.Append(MakeTxn(9, 150, "u"));
  log.Append(MakeTxn(12, 150, "T"));
  log.Append(MakeTxn(15, 200, "u"));
  log.Append(MakeTxn(20, 250, "t"));
  const size_t upper_before = log.UpperBoundByCommitTime(200);

  EXPECT_EQ(log.TruncateBefore(3), 3u);
  // Positions are absolute: nothing about the retained suffix moved.
  EXPECT_EQ(log.size(), 5u);
  EXPECT_EQ(log.base(), 3u);
  EXPECT_EQ(log.at(3).id, 15u);
  EXPECT_EQ(log.at(4).commit_time, 250);
  EXPECT_EQ(log.UpperBoundByCommitTime(200), upper_before);
  EXPECT_EQ(log.UpperBoundByCommitTime(10000), 5u);
  // Commit times inside the freed prefix clamp to the base.
  EXPECT_EQ(log.UpperBoundByCommitTime(120), 3u);
  // The freed prefix leaves its last timestamp behind.
  EXPECT_EQ(log.TimestampAtPosition(0), kInitialTimestamp);
  EXPECT_EQ(log.TimestampAtPosition(3), 12u);
  EXPECT_EQ(log.TimestampAtPosition(4), 15u);
  EXPECT_EQ(log.TimestampAtPosition(5), 20u);
  // ...and, per table (case-insensitive), its last commit time.
  EXPECT_EQ(log.FreedXTime("t"), std::optional<SimTimeMs>(150));
  EXPECT_EQ(log.FreedXTime("U"), std::optional<SimTimeMs>(150));
  EXPECT_FALSE(log.FreedXTime("v").has_value());

  // Truncating below the base is a no-op; past the end clamps to size().
  EXPECT_EQ(log.TruncateBefore(2), 0u);
  EXPECT_EQ(log.TruncateBefore(99), 2u);
  EXPECT_EQ(log.base(), 5u);
  EXPECT_EQ(log.TimestampAtPosition(5), 20u);
  EXPECT_EQ(log.UpperBoundByCommitTime(10000), 5u);
  // Appends continue at the next absolute position.
  log.Append(MakeTxn(21, 300, "t"));
  EXPECT_EQ(log.size(), 6u);
  EXPECT_EQ(log.at(5).id, 21u);
  EXPECT_EQ(log.TimestampAtPosition(6), 21u);
}

TEST(UpdateLogDeathTest, FreedPositionsCannotBeRead) {
  UpdateLog log;
  log.Append(MakeTxn(1, 100, "t"));
  log.Append(MakeTxn(2, 150, "t"));
  log.Append(MakeTxn(3, 200, "t"));
  log.TruncateBefore(2);
  EXPECT_DEATH(log.at(1), "out of range");
  EXPECT_DEATH(log.TimestampAtPosition(1), "out of range");
}

TEST(UpdateLogDeathTest, EmptiedLogStillRejectsOldIds) {
  UpdateLog log;
  log.Append(MakeTxn(4, 100, "t"));
  log.TruncateBefore(1);
  EXPECT_DEATH(log.Append(MakeTxn(4, 150, "t")), "increasing");
}

TEST(UpdateLogDeathTest, RejectsNonIncreasingIds) {
  UpdateLog log;
  log.Append(MakeTxn(2, 100, "t"));
  EXPECT_DEATH(log.Append(MakeTxn(2, 150, "t")), "increasing");
}

}  // namespace
}  // namespace rcc
