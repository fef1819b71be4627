/// \file query_spec.h
/// \brief The query API: semantic QuerySpec + ExecPolicy, and
/// SpatialAggQuery, the pair of them that the executor and service run.
///
/// A query has two halves:
///
///  * QuerySpec — the semantic request: dataset, aggregate, filters,
///    variant, ε, canvas, result ranges. Two equal specs MUST produce
///    bitwise-identical results; operator==/HashSpec are the one semantic
///    identity, and the ResultCache keys on it (query::CacheKey).
///  * ExecPolicy — the execution tuning: memory cap, CPU threads, transfer
///    overlap, cache, pruning and routing behavior. Changing any of these
///    never changes results (the determinism suites prove it).
///
/// SpatialAggQuery is the plain pair {spec, policy} that the executor and
/// the service run, so each field has one name.
///
/// QuerySpecBuilder validates at Build() (ε ≥ 0 and finite, an explicit
/// canvas > 0, ≤ 5 filters, aggregate column present for non-COUNT) and
/// returns Status instead of letting malformed queries reach admission;
/// column existence is checked against the dataset at submit
/// (ValidateSpecColumns). The versioned JSON (de)serialization here is the
/// single v1 schema shared by the HTTP server, the client, the CLI, and
/// the traffic bench (docs/API.md).
#pragma once

#include <cstdint>
#include <string>

#include "agg/aggregate.h"
#include "common/json.h"
#include "common/status.h"
#include "data/point_table.h"
#include "query/filter.h"
#include "query/query.h"

namespace rj {

/// Version of the public JSON schema (the "v" envelope field). Bump only
/// with a migration story; parsers reject other versions.
inline constexpr int kQuerySchemaVersion = 1;

/// How a query executes — knobs that tune speed and resource usage but
/// never the result (the determinism suites prove bitwise-identical output
/// across all of them). Excluded from semantic equality and cache keys.
struct ExecPolicy {
  /// Cap on the query's device-memory working set (0 = plan against the
  /// device's free budget); point batches are sized so each shard's
  /// allocations stay within it. QueryService overrides this with the
  /// admission grant; it is client-settable only for direct Executor use.
  std::size_t device_memory_cap_bytes = 0;
  /// Threads for the CPU index-join variant.
  int cpu_threads = 1;
  /// Double-buffer host→device transfers (join::BatchPipeline): two upload
  /// buffers are in flight, so admission reserves 2× the upload stride.
  /// Off reproduces the serialized transfer→draw timing.
  bool overlap_transfers = true;
  /// Consult the service result cache. False forces a fresh execution
  /// (still admission-controlled); the fresh result is not stored either —
  /// the knob exists for baselines and cache-bust debugging.
  bool use_result_cache = true;
  /// Disk-resident (block-source) datasets only: zone-map block pruning
  /// (docs/STORAGE.md). Pruning is conservative-exact, so results are
  /// bitwise identical on/off; false exists for full-scan baselines and
  /// the bench's pruning axis. Ignored for in-memory datasets.
  bool block_pruning = true;
  /// Sharded datasets only: spatially-selective shard routing — skip
  /// shards whose zone map proves no row can reach the query's canvas
  /// region or pass its filters. Conservative-exact like block pruning,
  /// so results are bitwise identical on/off; false exists for all-shard
  /// baselines and the bench's routing axis. Ignored when unsharded.
  bool shard_routing = true;
  /// Sharded datasets only: reuse cached per-shard partials keyed on
  /// (semantic query, shard id), so pans that re-cover some shards skip
  /// re-executing them. Ignored when unsharded or when use_result_cache
  /// is false.
  bool shard_cache = true;
};

struct SpatialAggQuery;

/// What a query computes. Equal specs (operator==) are guaranteed to
/// produce bitwise-identical results; HashSpec is consistent with equality.
struct QuerySpec {
  /// Dataset name, resolved by QueryService/the server at submit. Empty is
  /// valid for direct Executor use (the executor is already bound to its
  /// dataset).
  std::string dataset;
  AggregateKind aggregate = AggregateKind::kCount;
  /// Attribute column the aggregate reads (ignored — and canonicalized
  /// away — for COUNT).
  std::size_t aggregate_column = PointTable::npos;
  FilterSet filters;
  JoinVariant variant = JoinVariant::kBoundedRaster;
  /// ε bound for the bounded variant, world units.
  double epsilon = 10.0;
  /// Canvas side for the accurate variant (0 = the device's FBO limit).
  std::int32_t canvas_dim = 0;
  /// Compute §5 result ranges (bounded variant, single tile only).
  bool with_result_ranges = false;

  /// The column the aggregate actually reads: COUNT ignores
  /// aggregate_column, so its identity canonicalizes to npos —
  /// `COUNT(col 3)` and `COUNT(col 7)` are the same query.
  std::size_t EffectiveAggregateColumn() const {
    return aggregate == AggregateKind::kCount ? PointTable::npos
                                              : aggregate_column;
  }

  /// This spec executed under `policy`.
  SpatialAggQuery ToQuery(const ExecPolicy& policy = {}) const;
};

/// Semantic equality: true when the two specs must produce bitwise
/// identical results — dataset name, aggregate (with COUNT's column
/// canonicalized away), order-insensitive filters, variant, ε, canvas dim
/// and the ranges flag. The execution knobs (ExecPolicy) are outside it:
/// the determinism suites prove results identical across them, and keying
/// on them would split identical traffic across cache entries.
bool operator==(const QuerySpec& a, const QuerySpec& b);
inline bool operator!=(const QuerySpec& a, const QuerySpec& b) {
  return !(a == b);
}

/// Hash consistent with operator== (equal specs hash equally).
std::size_t HashSpec(const QuerySpec& spec);

/// One query as the executor and the service run it: what it computes and
/// how. Only `spec` is its identity (QuerySpec operator==, query::CacheKey).
struct SpatialAggQuery {
  QuerySpec spec;
  ExecPolicy policy;
};

/// Checks the spec's column references against a dataset with
/// `num_attribute_columns` attribute columns: every filter column and a
/// non-COUNT aggregate column must exist. The submit-time half of
/// validation (the builder cannot know the dataset's width).
Status ValidateSpecColumns(const QuerySpec& spec,
                           std::size_t num_attribute_columns);

/// Fluent, validating constructor for QuerySpec. Setters never fail;
/// Build() reports the first problem as InvalidArgument:
///
///   RJ_ASSIGN_OR_RETURN(QuerySpec spec, QuerySpecBuilder()
///       .Dataset("taxi").Sum(2).Filter(4, FilterOp::kLess, 12.0f)
///       .Variant(JoinVariant::kBoundedRaster).Epsilon(20.0)
///       .WithResultRanges().Build());
class QuerySpecBuilder {
 public:
  QuerySpecBuilder& Dataset(std::string name);
  /// Aggregate selectors; non-COUNT kinds require the column they read.
  QuerySpecBuilder& Count();
  QuerySpecBuilder& Sum(std::size_t column);
  QuerySpecBuilder& Average(std::size_t column);
  QuerySpecBuilder& Min(std::size_t column);
  QuerySpecBuilder& Max(std::size_t column);
  QuerySpecBuilder& Aggregate(AggregateKind kind,
                              std::size_t column = PointTable::npos);
  QuerySpecBuilder& Filter(std::size_t column, FilterOp op, float value);
  QuerySpecBuilder& Variant(JoinVariant variant);
  QuerySpecBuilder& Epsilon(double epsilon);
  /// An explicit canvas must be positive (0 stays "device FBO limit" only
  /// as the unset default).
  QuerySpecBuilder& CanvasDim(std::int32_t dim);
  QuerySpecBuilder& WithResultRanges(bool on = true);

  /// Validates and returns the spec, or the first accumulated error.
  Result<QuerySpec> Build() const;

 private:
  QuerySpec spec_;
  Status error_ = Status::OK();  // first setter/validation failure
};

// --- v1 JSON (de)serialization -------------------------------------------
//
// Field-for-field schema in docs/API.md. Deserializers are strict: unknown
// fields, wrong types, and out-of-domain enum names are InvalidArgument
// carrying the schema version ("v1 query spec: unknown field 'foo'"), so a
// v2 client failing against a v1 server yields an actionable error instead
// of silently dropped semantics.

/// The "query" object: {"dataset":"taxi","aggregate":"sum","column":2,...}.
json::Value SpecToJson(const QuerySpec& spec);
Status SpecFromJson(const json::Value& v, QuerySpec* out);

/// The "exec" object: {"cpu_threads":4,"overlap_transfers":true,...}.
json::Value ExecPolicyToJson(const ExecPolicy& policy);
Status ExecPolicyFromJson(const json::Value& v, ExecPolicy* out);

/// A complete POST /v1/query request body.
struct QueryRequest {
  QuerySpec spec;
  ExecPolicy policy;
  /// Scheduling lane (service::Priority::kHigh when true).
  bool high_priority = false;
};

/// {"v":1,"query":{...},"exec":{...},"priority":"high"} — "exec" and
/// "priority" are optional on input and omitted when default on output.
std::string QueryRequestToJson(const QueryRequest& request);
Result<QueryRequest> ParseQueryRequest(const std::string& body);

/// Wire names for the enums ("sum", "bounded", "le", ...), shared by the
/// schema and the CLI so the two never drift.
const char* AggregateWireName(AggregateKind kind);
Result<AggregateKind> AggregateFromWireName(const std::string& name);
const char* VariantWireName(JoinVariant variant);
Result<JoinVariant> VariantFromWireName(const std::string& name);
const char* FilterOpWireName(FilterOp op);
Result<FilterOp> FilterOpFromWireName(const std::string& name);

}  // namespace rj
