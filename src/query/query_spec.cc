#include "query/query_spec.h"

#include <cmath>
#include <limits>
#include <utility>

namespace rj {

namespace {

/// Versioned error prefix so schema failures are self-describing.
Status SchemaError(const std::string& what) {
  return Status::InvalidArgument(
      "v" + std::to_string(kQuerySchemaVersion) + " query spec: " + what);
}

/// Rejects members of `v` outside the allowlist.
Status CheckKnownFields(const json::Value& v, const char* const* allowed,
                        std::size_t n, const char* context) {
  for (const auto& [key, unused] : v.members()) {
    (void)unused;
    bool known = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (key == allowed[i]) {
        known = true;
        break;
      }
    }
    if (!known) {
      return SchemaError(std::string("unknown field '") + key + "' in " +
                         context);
    }
  }
  return Status::OK();
}

Status RequireObject(const json::Value& v, const char* context) {
  if (!v.is_object()) {
    return SchemaError(std::string(context) + " must be a JSON object");
  }
  return Status::OK();
}

Status ReadString(const json::Value& obj, const char* key, std::string* out,
                  bool required) {
  const json::Value* v = obj.Find(key);
  if (v == nullptr) {
    if (required) return SchemaError(std::string("missing field '") + key + "'");
    return Status::OK();
  }
  if (!v->is_string()) {
    return SchemaError(std::string("field '") + key + "' must be a string");
  }
  *out = v->AsString();
  return Status::OK();
}

Status ReadBool(const json::Value& obj, const char* key, bool* out) {
  const json::Value* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_bool()) {
    return SchemaError(std::string("field '") + key + "' must be a boolean");
  }
  *out = v->AsBool();
  return Status::OK();
}

Status ReadDouble(const json::Value& obj, const char* key, double* out) {
  const json::Value* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_number()) {
    return SchemaError(std::string("field '") + key + "' must be a number");
  }
  *out = v->AsNumber();
  return Status::OK();
}

/// Non-negative integral number → size_t.
Status ReadIndex(const json::Value& obj, const char* key, std::size_t* out) {
  const json::Value* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_number()) {
    return SchemaError(std::string("field '") + key + "' must be a number");
  }
  const double d = v->AsNumber();
  if (!(d >= 0) || d != std::floor(d) || d > 1e15) {
    return SchemaError(std::string("field '") + key +
                       "' must be a non-negative integer");
  }
  *out = static_cast<std::size_t>(d);
  return Status::OK();
}

}  // namespace

// --- Wire names -----------------------------------------------------------

const char* AggregateWireName(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kCount: return "count";
    case AggregateKind::kSum: return "sum";
    case AggregateKind::kAverage: return "avg";
    case AggregateKind::kMin: return "min";
    case AggregateKind::kMax: return "max";
  }
  return "count";
}

Result<AggregateKind> AggregateFromWireName(const std::string& name) {
  if (name == "count") return AggregateKind::kCount;
  if (name == "sum") return AggregateKind::kSum;
  if (name == "avg") return AggregateKind::kAverage;
  if (name == "min") return AggregateKind::kMin;
  if (name == "max") return AggregateKind::kMax;
  return SchemaError("unknown aggregate '" + name +
                     "' (count|sum|avg|min|max)");
}

const char* VariantWireName(JoinVariant variant) {
  switch (variant) {
    case JoinVariant::kBoundedRaster: return "bounded";
    case JoinVariant::kAccurateRaster: return "accurate";
    case JoinVariant::kIndexDevice: return "index_device";
    case JoinVariant::kIndexCpu: return "index_cpu";
    case JoinVariant::kAuto: return "auto";
  }
  return "bounded";
}

Result<JoinVariant> VariantFromWireName(const std::string& name) {
  if (name == "bounded") return JoinVariant::kBoundedRaster;
  if (name == "accurate") return JoinVariant::kAccurateRaster;
  if (name == "index_device") return JoinVariant::kIndexDevice;
  if (name == "index_cpu") return JoinVariant::kIndexCpu;
  if (name == "auto") return JoinVariant::kAuto;
  return SchemaError("unknown variant '" + name +
                     "' (bounded|accurate|index_device|index_cpu|auto)");
}

const char* FilterOpWireName(FilterOp op) {
  switch (op) {
    case FilterOp::kGreater: return "gt";
    case FilterOp::kGreaterEqual: return "ge";
    case FilterOp::kLess: return "lt";
    case FilterOp::kLessEqual: return "le";
    case FilterOp::kEqual: return "eq";
  }
  return "gt";
}

Result<FilterOp> FilterOpFromWireName(const std::string& name) {
  if (name == "gt") return FilterOp::kGreater;
  if (name == "ge") return FilterOp::kGreaterEqual;
  if (name == "lt") return FilterOp::kLess;
  if (name == "le") return FilterOp::kLessEqual;
  if (name == "eq") return FilterOp::kEqual;
  return SchemaError("unknown filter op '" + name + "' (gt|ge|lt|le|eq)");
}

// --- QuerySpec -------------------------------------------------------------

SpatialAggQuery QuerySpec::ToQuery(const ExecPolicy& policy) const {
  return {*this, policy};
}

bool operator==(const QuerySpec& a, const QuerySpec& b) {
  return a.dataset == b.dataset && a.aggregate == b.aggregate &&
         a.EffectiveAggregateColumn() == b.EffectiveAggregateColumn() &&
         a.filters == b.filters && a.variant == b.variant &&
         a.epsilon == b.epsilon && a.canvas_dim == b.canvas_dim &&
         a.with_result_ranges == b.with_result_ranges;
}

std::size_t HashSpec(const QuerySpec& spec) {
  std::size_t seed = std::hash<std::string>{}(spec.dataset);
  seed = detail::HashCombine(
      seed, std::hash<int>{}(static_cast<int>(spec.aggregate)));
  seed = detail::HashCombine(
      seed, std::hash<std::size_t>{}(spec.EffectiveAggregateColumn()));
  seed = detail::HashCombine(seed, spec.filters.Hash());
  seed = detail::HashCombine(
      seed, std::hash<int>{}(static_cast<int>(spec.variant)));
  seed = detail::HashCombine(seed, detail::HashDoubleBits(spec.epsilon));
  seed = detail::HashCombine(seed,
                             std::hash<std::int32_t>{}(spec.canvas_dim));
  return detail::HashCombine(seed,
                             std::hash<bool>{}(spec.with_result_ranges));
}

Status ValidateSpecColumns(const QuerySpec& spec,
                           std::size_t num_attribute_columns) {
  if (spec.aggregate != AggregateKind::kCount &&
      spec.aggregate_column >= num_attribute_columns) {
    return Status::InvalidArgument(
        "aggregate column " + std::to_string(spec.aggregate_column) +
        " does not exist (dataset has " +
        std::to_string(num_attribute_columns) + " attribute columns)");
  }
  for (const AttributeFilter& f : spec.filters.filters()) {
    if (f.column >= num_attribute_columns) {
      return Status::InvalidArgument(
          "filter column " + std::to_string(f.column) +
          " does not exist (dataset has " +
          std::to_string(num_attribute_columns) + " attribute columns)");
    }
  }
  return Status::OK();
}

// --- QuerySpecBuilder -------------------------------------------------------

QuerySpecBuilder& QuerySpecBuilder::Dataset(std::string name) {
  spec_.dataset = std::move(name);
  return *this;
}

QuerySpecBuilder& QuerySpecBuilder::Aggregate(AggregateKind kind,
                                              std::size_t column) {
  spec_.aggregate = kind;
  spec_.aggregate_column = column;
  return *this;
}

QuerySpecBuilder& QuerySpecBuilder::Count() {
  return Aggregate(AggregateKind::kCount);
}
QuerySpecBuilder& QuerySpecBuilder::Sum(std::size_t column) {
  return Aggregate(AggregateKind::kSum, column);
}
QuerySpecBuilder& QuerySpecBuilder::Average(std::size_t column) {
  return Aggregate(AggregateKind::kAverage, column);
}
QuerySpecBuilder& QuerySpecBuilder::Min(std::size_t column) {
  return Aggregate(AggregateKind::kMin, column);
}
QuerySpecBuilder& QuerySpecBuilder::Max(std::size_t column) {
  return Aggregate(AggregateKind::kMax, column);
}

QuerySpecBuilder& QuerySpecBuilder::Filter(std::size_t column, FilterOp op,
                                           float value) {
  const Status st = spec_.filters.Add(AttributeFilter{column, op, value});
  if (!st.ok() && error_.ok()) error_ = st;
  return *this;
}

QuerySpecBuilder& QuerySpecBuilder::Variant(JoinVariant variant) {
  spec_.variant = variant;
  return *this;
}

QuerySpecBuilder& QuerySpecBuilder::Epsilon(double epsilon) {
  spec_.epsilon = epsilon;
  return *this;
}

QuerySpecBuilder& QuerySpecBuilder::CanvasDim(std::int32_t dim) {
  if (dim <= 0 && error_.ok()) {
    error_ = Status::InvalidArgument(
        "explicit canvas dimension must be positive, got " +
        std::to_string(dim) + " (leave unset for the device FBO limit)");
  }
  spec_.canvas_dim = dim;
  return *this;
}

QuerySpecBuilder& QuerySpecBuilder::WithResultRanges(bool on) {
  spec_.with_result_ranges = on;
  return *this;
}

Result<QuerySpec> QuerySpecBuilder::Build() const {
  RJ_RETURN_NOT_OK(error_);
  if (std::isnan(spec_.epsilon) || std::isinf(spec_.epsilon) ||
      spec_.epsilon < 0.0) {
    return Status::InvalidArgument("epsilon must be finite and >= 0");
  }
  if (spec_.aggregate != AggregateKind::kCount &&
      spec_.aggregate_column == PointTable::npos) {
    return Status::InvalidArgument(
        std::string(AggregateKindName(spec_.aggregate)) +
        " requires an aggregate column");
  }
  return spec_;
}

// --- JSON -------------------------------------------------------------------

json::Value SpecToJson(const QuerySpec& spec) {
  json::Value v = json::Value::Object();
  if (!spec.dataset.empty()) v.Set("dataset", json::Value::Str(spec.dataset));
  v.Set("aggregate", json::Value::Str(AggregateWireName(spec.aggregate)));
  if (spec.aggregate != AggregateKind::kCount &&
      spec.aggregate_column != PointTable::npos) {
    v.Set("column",
          json::Value::Number(static_cast<double>(spec.aggregate_column)));
  }
  if (!spec.filters.empty()) {
    json::Value filters = json::Value::Array();
    // Canonical (column, op, value) order so serialization is a function of
    // semantic identity, not Add() order — equal specs serialize equally.
    for (const AttributeFilter& f : spec.filters.Canonical()) {
      json::Value jf = json::Value::Object();
      jf.Set("column", json::Value::Number(static_cast<double>(f.column)));
      jf.Set("op", json::Value::Str(FilterOpWireName(f.op)));
      jf.Set("value", json::Value::Number(static_cast<double>(f.value)));
      filters.Append(std::move(jf));
    }
    v.Set("filters", std::move(filters));
  }
  v.Set("variant", json::Value::Str(VariantWireName(spec.variant)));
  v.Set("epsilon", json::Value::Number(spec.epsilon));
  if (spec.canvas_dim != 0) {
    v.Set("canvas_dim",
          json::Value::Number(static_cast<double>(spec.canvas_dim)));
  }
  if (spec.with_result_ranges) {
    v.Set("with_result_ranges", json::Value::Bool(true));
  }
  return v;
}

Status SpecFromJson(const json::Value& v, QuerySpec* out) {
  RJ_RETURN_NOT_OK(RequireObject(v, "\"query\""));
  static const char* kFields[] = {"dataset",    "aggregate", "column",
                                  "filters",    "variant",   "epsilon",
                                  "canvas_dim", "with_result_ranges"};
  RJ_RETURN_NOT_OK(
      CheckKnownFields(v, kFields, std::size(kFields), "\"query\""));

  QuerySpecBuilder builder;
  std::string dataset;
  RJ_RETURN_NOT_OK(ReadString(v, "dataset", &dataset, /*required=*/false));
  builder.Dataset(std::move(dataset));

  std::string aggregate = "count";
  RJ_RETURN_NOT_OK(
      ReadString(v, "aggregate", &aggregate, /*required=*/false));
  AggregateKind kind = AggregateKind::kCount;
  RJ_ASSIGN_OR_RETURN(kind, AggregateFromWireName(aggregate));
  std::size_t column = PointTable::npos;
  RJ_RETURN_NOT_OK(ReadIndex(v, "column", &column));
  builder.Aggregate(kind, column);

  if (const json::Value* filters = v.Find("filters")) {
    if (!filters->is_array()) {
      return SchemaError("field 'filters' must be an array");
    }
    for (std::size_t i = 0; i < filters->size(); ++i) {
      const json::Value& jf = (*filters)[i];
      RJ_RETURN_NOT_OK(RequireObject(jf, "filter"));
      static const char* kFilterFields[] = {"column", "op", "value"};
      RJ_RETURN_NOT_OK(CheckKnownFields(jf, kFilterFields,
                                        std::size(kFilterFields), "filter"));
      std::size_t fcolumn = PointTable::npos;
      RJ_RETURN_NOT_OK(ReadIndex(jf, "column", &fcolumn));
      if (fcolumn == PointTable::npos) {
        return SchemaError("filter missing 'column'");
      }
      std::string op;
      RJ_RETURN_NOT_OK(ReadString(jf, "op", &op, /*required=*/true));
      FilterOp fop = FilterOp::kGreater;
      RJ_ASSIGN_OR_RETURN(fop, FilterOpFromWireName(op));
      const json::Value* value = jf.Find("value");
      if (value == nullptr || !value->is_number()) {
        return SchemaError("filter 'value' must be a number");
      }
      builder.Filter(fcolumn, fop, static_cast<float>(value->AsNumber()));
    }
  }

  std::string variant = "bounded";
  RJ_RETURN_NOT_OK(ReadString(v, "variant", &variant, /*required=*/false));
  JoinVariant jv = JoinVariant::kBoundedRaster;
  RJ_ASSIGN_OR_RETURN(jv, VariantFromWireName(variant));
  builder.Variant(jv);

  double epsilon = 10.0;
  RJ_RETURN_NOT_OK(ReadDouble(v, "epsilon", &epsilon));
  builder.Epsilon(epsilon);

  if (v.Find("canvas_dim") != nullptr) {
    std::size_t dim = 0;
    RJ_RETURN_NOT_OK(ReadIndex(v, "canvas_dim", &dim));
    if (dim > static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
      return SchemaError("field 'canvas_dim' out of range");
    }
    builder.CanvasDim(static_cast<std::int32_t>(dim));
  }

  bool ranges = false;
  RJ_RETURN_NOT_OK(ReadBool(v, "with_result_ranges", &ranges));
  builder.WithResultRanges(ranges);

  RJ_ASSIGN_OR_RETURN(*out, builder.Build());
  return Status::OK();
}

json::Value ExecPolicyToJson(const ExecPolicy& policy) {
  json::Value v = json::Value::Object();
  if (policy.device_memory_cap_bytes != 0) {
    v.Set("memory_cap_bytes",
          json::Value::Number(
              static_cast<double>(policy.device_memory_cap_bytes)));
  }
  if (policy.cpu_threads != 1) {
    v.Set("cpu_threads",
          json::Value::Number(static_cast<double>(policy.cpu_threads)));
  }
  if (!policy.overlap_transfers) {
    v.Set("overlap_transfers", json::Value::Bool(false));
  }
  if (!policy.use_result_cache) {
    v.Set("use_result_cache", json::Value::Bool(false));
  }
  if (!policy.block_pruning) {
    v.Set("block_pruning", json::Value::Bool(false));
  }
  if (!policy.shard_routing) {
    v.Set("shard_routing", json::Value::Bool(false));
  }
  if (!policy.shard_cache) {
    v.Set("shard_cache", json::Value::Bool(false));
  }
  return v;
}

Status ExecPolicyFromJson(const json::Value& v, ExecPolicy* out) {
  RJ_RETURN_NOT_OK(RequireObject(v, "\"exec\""));
  static const char* kFields[] = {"memory_cap_bytes", "cpu_threads",
                                  "overlap_transfers", "use_result_cache",
                                  "block_pruning",    "shard_routing",
                                  "shard_cache"};
  RJ_RETURN_NOT_OK(
      CheckKnownFields(v, kFields, std::size(kFields), "\"exec\""));
  ExecPolicy policy;
  std::size_t cap = 0;
  RJ_RETURN_NOT_OK(ReadIndex(v, "memory_cap_bytes", &cap));
  policy.device_memory_cap_bytes = cap;
  std::size_t threads = 1;
  RJ_RETURN_NOT_OK(ReadIndex(v, "cpu_threads", &threads));
  if (threads == 0 || threads > 4096) {
    return SchemaError("field 'cpu_threads' must be in [1, 4096]");
  }
  policy.cpu_threads = static_cast<int>(threads);
  RJ_RETURN_NOT_OK(ReadBool(v, "overlap_transfers", &policy.overlap_transfers));
  RJ_RETURN_NOT_OK(ReadBool(v, "use_result_cache", &policy.use_result_cache));
  RJ_RETURN_NOT_OK(ReadBool(v, "block_pruning", &policy.block_pruning));
  RJ_RETURN_NOT_OK(ReadBool(v, "shard_routing", &policy.shard_routing));
  RJ_RETURN_NOT_OK(ReadBool(v, "shard_cache", &policy.shard_cache));
  *out = policy;
  return Status::OK();
}

std::string QueryRequestToJson(const QueryRequest& request) {
  json::Value v = json::Value::Object();
  v.Set("v", json::Value::Number(kQuerySchemaVersion));
  v.Set("query", SpecToJson(request.spec));
  json::Value exec = ExecPolicyToJson(request.policy);
  if (!exec.members().empty()) v.Set("exec", std::move(exec));
  if (request.high_priority) v.Set("priority", json::Value::Str("high"));
  return v.Serialize();
}

Result<QueryRequest> ParseQueryRequest(const std::string& body) {
  json::Value doc;
  RJ_ASSIGN_OR_RETURN(doc, json::Parse(body));
  RJ_RETURN_NOT_OK(RequireObject(doc, "request"));
  static const char* kFields[] = {"v", "query", "exec", "priority"};
  RJ_RETURN_NOT_OK(
      CheckKnownFields(doc, kFields, std::size(kFields), "request"));

  const json::Value* version = doc.Find("v");
  if (version == nullptr || !version->is_number()) {
    return SchemaError("missing schema version field 'v'");
  }
  if (version->AsNumber() != kQuerySchemaVersion) {
    return SchemaError("unsupported schema version " +
                       std::to_string(version->AsNumber()) +
                       " (this server speaks v" +
                       std::to_string(kQuerySchemaVersion) + ")");
  }

  QueryRequest request;
  const json::Value* query = doc.Find("query");
  if (query == nullptr) return SchemaError("missing field 'query'");
  RJ_RETURN_NOT_OK(SpecFromJson(*query, &request.spec));

  if (const json::Value* exec = doc.Find("exec")) {
    RJ_RETURN_NOT_OK(ExecPolicyFromJson(*exec, &request.policy));
  }
  if (const json::Value* priority = doc.Find("priority")) {
    if (!priority->is_string() || (priority->AsString() != "normal" &&
                                   priority->AsString() != "high")) {
      return SchemaError("field 'priority' must be \"normal\" or \"high\"");
    }
    request.high_priority = priority->AsString() == "high";
  }
  return request;
}

}  // namespace rj
