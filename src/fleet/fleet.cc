#include "fleet/fleet.h"

#include <utility>

#include "fleet/router.h"

namespace rcc {
namespace fleet {

namespace {

/// Mirrors the anchor backend's full schema and data onto `shard` (mirrored
/// sharding: every shard can answer every remote query, so a node's remote
/// channel is just its shard).
Status MirrorBackend(BackendServer* source, BackendServer* shard) {
  for (const std::string& name : source->catalog().TableNames()) {
    const TableDef* def = source->catalog().FindTable(name);
    if (def == nullptr) continue;
    RCC_RETURN_NOT_OK(shard->CreateTable(*def));
    const Table* master = source->table(name);
    if (master == nullptr) continue;
    std::vector<Row> rows;
    master->Scan([&rows](const Row& row) {
      rows.push_back(row);
      return true;
    });
    RCC_RETURN_NOT_OK(shard->BulkLoad(name, rows));
  }
  return Status::OK();
}

/// Defines one node's bookstore regions and view subset. The same view
/// names recur on every node — catalogs are per-node, and queries name base
/// tables, never views.
Status SetupNodeBookstore(CacheDbms* cache, const FleetNodeConfig& cfg) {
  if (cfg.books || cfg.sales) {
    RegionDef r1;
    r1.cid = BooksRegion(cfg.node);
    r1.update_interval = cfg.update_interval;
    r1.update_delay = cfg.update_delay;
    r1.heartbeat_interval = 1000;
    RCC_RETURN_NOT_OK(cache->DefineRegion(r1));
  }
  if (cfg.reviews) {
    RegionDef r2;
    r2.cid = ReviewsRegion(cfg.node);
    r2.update_interval = cfg.update_interval;
    r2.update_delay = cfg.update_delay;
    r2.heartbeat_interval = 1000;
    RCC_RETURN_NOT_OK(cache->DefineRegion(r2));
  }
  if (cfg.books) {
    ViewDef books_copy;
    books_copy.name = "BooksCopy";
    books_copy.source_table = "Books";
    books_copy.columns = {"isbn", "title", "price", "stock"};
    books_copy.region = BooksRegion(cfg.node);
    RCC_RETURN_NOT_OK(cache->CreateView(books_copy));
  }
  if (cfg.sales) {
    ViewDef sales_copy;
    sales_copy.name = "SalesCopy";
    sales_copy.source_table = "Sales";
    sales_copy.columns = {"sale_id", "isbn", "year", "amount"};
    sales_copy.region = BooksRegion(cfg.node);
    sales_copy.secondary_indexes.push_back(
        IndexDef{"idx_salescopy_isbn", {"isbn"}});
    RCC_RETURN_NOT_OK(cache->CreateView(sales_copy));
  }
  if (cfg.reviews) {
    ViewDef reviews_copy;
    reviews_copy.name = "ReviewsCopy";
    reviews_copy.source_table = "Reviews";
    reviews_copy.columns = {"isbn", "review_id", "rating"};
    reviews_copy.region = ReviewsRegion(cfg.node);
    RCC_RETURN_NOT_OK(cache->CreateView(reviews_copy));
  }
  return Status::OK();
}

}  // namespace

FleetSystem::FleetSystem(FleetConfig config)
    : config_(std::move(config)),
      anchor_(SystemConfig{config_.costs, config_.seed}) {
  if (config_.nodes.empty()) config_.nodes.push_back(FleetNodeConfig{});
  // Normalize ids to 1..N (callers list nodes in order; the id field is
  // authoritative for region naming, so it must match the position).
  for (size_t i = 0; i < config_.nodes.size(); ++i) {
    config_.nodes[i].node = static_cast<int>(i) + 1;
  }
  config_.nodes[0].shard = 0;  // the anchor cache fronts the anchor backend
  for (int s = 1; s < config_.backend_shards; ++s) {
    extra_shards_.push_back(
        std::make_unique<BackendServer>(anchor_.clock(), config_.costs));
    anchor_.AddReclaimedBackend(extra_shards_.back().get());
  }
  for (size_t i = 1; i < config_.nodes.size(); ++i) {
    BackendServer* backend = shard(config_.nodes[i].shard);
    if (backend == nullptr) backend = anchor_.backend();
    auto cache = std::make_unique<CacheDbms>(backend, anchor_.scheduler(),
                                             config_.costs);
    // One registry fleet-wide: per-cache counters aggregate across nodes;
    // per-node visibility comes from the router's rcc.fleet.node.* names.
    cache->SetMetricsRegistry(&anchor_.metrics());
    extra_nodes_.push_back(std::move(cache));
  }
  router_ = std::make_unique<FleetRouter>(this);
}

FleetSystem::~FleetSystem() = default;

CacheDbms* FleetSystem::node(int node) {
  if (node == 1) return anchor_.cache();
  int idx = node - 2;
  if (idx < 0 || idx >= static_cast<int>(extra_nodes_.size())) return nullptr;
  return extra_nodes_[idx].get();
}

const FleetNodeConfig* FleetSystem::node_config(int node) const {
  int idx = node - 1;
  if (idx < 0 || idx >= static_cast<int>(config_.nodes.size())) return nullptr;
  return &config_.nodes[idx];
}

BackendServer* FleetSystem::shard(int index) {
  if (index == 0) return anchor_.backend();
  int idx = index - 1;
  if (idx < 0 || idx >= static_cast<int>(extra_shards_.size())) return nullptr;
  return extra_shards_[idx].get();
}

std::unique_ptr<Session> FleetSystem::CreateSession() {
  std::unique_ptr<Session> session = anchor_.CreateSession();
  session->set_router(router_.get());
  return session;
}

Status FleetSystem::LoadBookstore(const BookstoreConfig& config) {
  RCC_RETURN_NOT_OK(rcc::LoadBookstore(&anchor_, config));
  for (auto& s : extra_shards_) {
    RCC_RETURN_NOT_OK(MirrorBackend(anchor_.backend(), s.get()));
  }
  for (auto& cache : extra_nodes_) {
    RCC_RETURN_NOT_OK(cache->CreateShadow());
  }
  return Status::OK();
}

Status FleetSystem::SetupBookstore() {
  for (const FleetNodeConfig& cfg : config_.nodes) {
    CacheDbms* cache = node(cfg.node);
    if (cache == nullptr) continue;
    RCC_RETURN_NOT_OK(SetupNodeBookstore(cache, cfg));
  }
  return Status::OK();
}

void FleetSystem::SetHistorySink(HistorySink* sink) {
  // Detach every consumer of the old wrappers before destroying them.
  anchor_.SetHistorySink(nullptr);
  for (auto& cache : extra_nodes_) cache->SetHistorySink(nullptr);
  router_->SetHistorySink(nullptr);
  tag_sinks_.clear();
  if (sink == nullptr) return;
  for (int n = 1; n <= node_count(); ++n) {
    tag_sinks_.push_back(std::make_unique<NodeTaggingSink>(sink, n));
  }
  // The anchor wires commits and cache events; extra nodes only their cache
  // events (the commit stream is backend-global and must be recorded once).
  anchor_.SetHistorySink(tag_sinks_[0].get());
  for (size_t i = 0; i < extra_nodes_.size(); ++i) {
    extra_nodes_[i]->SetHistorySink(tag_sinks_[i + 1].get());
  }
  router_->SetHistorySink(sink);
}

void FleetSystem::SetNodeReplicationFaults(int node_id,
                                           const ReplicationFaultConfig& config) {
  CacheDbms* cache = node(node_id);
  if (cache != nullptr) cache->SetReplicationFaults(config);
}

void FleetSystem::BeginConcurrentBatch() {
  for (int n = 1; n <= node_count(); ++n) node(n)->BeginConcurrentBatch();
}

void FleetSystem::EndConcurrentBatch() {
  for (int n = 1; n <= node_count(); ++n) node(n)->EndConcurrentBatch();
}

Result<TxnTimestamp> FleetSystem::ExecuteMirrored(std::vector<RowOp> ops) {
  for (auto& s : extra_shards_) {
    std::vector<RowOp> copy = ops;
    RCC_RETURN_NOT_OK(s->ExecuteTransaction(std::move(copy)).status());
  }
  return anchor_.backend()->ExecuteTransaction(std::move(ops));
}

}  // namespace fleet
}  // namespace rcc
