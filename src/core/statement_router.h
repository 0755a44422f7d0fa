#ifndef RCC_CORE_STATEMENT_ROUTER_H_
#define RCC_CORE_STATEMENT_ROUTER_H_

#include <cstdint>
#include <string_view>

#include "cache/cache_dbms.h"

namespace rcc {

/// Session-level options a routed statement carries: the same knobs
/// Session::ExecuteSelect hands to the local CacheDbms. The plan-cache key
/// is (text, degrade, timeordered); the router looks it up in every node's
/// own PlanCache, since a plan is only valid for the view set it was built
/// against.
struct RoutedStatementOptions {
  /// The SELECT's source text, which must parse to the routed statement.
  /// Empty: the router renders the statement with SelectStmt::ToString. The
  /// caller keeps the text alive for the call.
  std::string_view text;
  SimTimeMs timeline_floor = -1;
  DegradeMode degrade = DegradeMode::kNone;
  /// The session is inside BEGIN/END TIMEORDERED (part of the cache key).
  bool timeordered = false;
  /// Receives the serving node's structured events (SET TRACE ON).
  obs::QueryTrace* trace = nullptr;
  uint64_t session_tag = 0;
  Deadline deadline;
  bool shed_hint = false;
};

/// Dispatches a parsed SELECT to whichever execution target can satisfy its
/// C&C constraint — the seam between Session (which owns SQL surface and
/// session state) and the fleet layer (which owns topology). A Session with
/// no router executes against the system's single cache exactly as before;
/// a Session handed a router forwards every plain SELECT and keeps
/// EXPLAIN/DML/session statements local. Implementations must be
/// thread-safe: the network front end funnels statements from pool threads.
class StatementRouter {
 public:
  virtual ~StatementRouter() = default;

  virtual Result<CacheQueryOutcome> RouteSelect(
      const SelectStmt& stmt, const RoutedStatementOptions& opts) = 0;
};

}  // namespace rcc

#endif  // RCC_CORE_STATEMENT_ROUTER_H_
