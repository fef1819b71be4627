/// \file query_spec_test.cc
/// \brief The redesigned public API: QuerySpecBuilder validation and the
/// v1 JSON schema's round-trip / strictness guarantees.
#include "query/query_spec.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/point_table.h"
#include "query/result_cache.h"

namespace rj {
namespace {

// --- Builder validation ----------------------------------------------------

TEST(QuerySpecBuilder, BuildsAValidSpec) {
  Result<QuerySpec> spec = QuerySpecBuilder()
                               .Dataset("taxi")
                               .Sum(2)
                               .Filter(4, FilterOp::kLess, 12.0f)
                               .Variant(JoinVariant::kBoundedRaster)
                               .Epsilon(20.0)
                               .WithResultRanges()
                               .Build();
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().dataset, "taxi");
  EXPECT_EQ(spec.value().aggregate, AggregateKind::kSum);
  EXPECT_EQ(spec.value().aggregate_column, 2u);
  EXPECT_EQ(spec.value().filters.size(), 1u);
  EXPECT_EQ(spec.value().epsilon, 20.0);
  EXPECT_TRUE(spec.value().with_result_ranges);
}

TEST(QuerySpecBuilder, RejectsNonPositiveCanvas) {
  Result<QuerySpec> zero = QuerySpecBuilder().CanvasDim(0).Build();
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(zero.status().retryable());

  Result<QuerySpec> negative = QuerySpecBuilder().CanvasDim(-64).Build();
  EXPECT_FALSE(negative.ok());
}

TEST(QuerySpecBuilder, RejectsBadEpsilon) {
  EXPECT_FALSE(QuerySpecBuilder().Epsilon(-1.0).Build().ok());
  EXPECT_FALSE(
      QuerySpecBuilder().Epsilon(std::nan("")).Build().ok());
  EXPECT_FALSE(QuerySpecBuilder()
                   .Epsilon(std::numeric_limits<double>::infinity())
                   .Build()
                   .ok());
  EXPECT_TRUE(QuerySpecBuilder().Epsilon(0.0).Build().ok());
}

TEST(QuerySpecBuilder, RequiresColumnForNonCountAggregates) {
  Result<QuerySpec> sum =
      QuerySpecBuilder().Aggregate(AggregateKind::kSum).Build();
  ASSERT_FALSE(sum.ok());
  EXPECT_EQ(sum.status().code(), StatusCode::kInvalidArgument);
  // COUNT never needs one.
  EXPECT_TRUE(QuerySpecBuilder().Count().Build().ok());
}

TEST(QuerySpecBuilder, LatchesTheFirstError) {
  // Sixth filter overflows kMaxFilterConstraints; the reported error is
  // that one even though a later setter also fails.
  QuerySpecBuilder b;
  for (std::size_t c = 0; c < 6; ++c) {
    b.Filter(c, FilterOp::kGreater, 1.0f);
  }
  b.CanvasDim(-1);
  Result<QuerySpec> spec = b.Build();
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("filter"), std::string::npos)
      << spec.status().ToString();
}

TEST(QuerySpecColumns, ValidatedAgainstDatasetWidth) {
  QuerySpec spec = QuerySpecBuilder()
                       .Sum(2)
                       .Filter(1, FilterOp::kGreater, 0.0f)
                       .Build()
                       .value();
  EXPECT_TRUE(ValidateSpecColumns(spec, 3).ok());
  // Aggregate column out of range.
  EXPECT_FALSE(ValidateSpecColumns(spec, 2).ok());
  // Filter column out of range.
  QuerySpec filtered = QuerySpecBuilder()
                           .Count()
                           .Filter(5, FilterOp::kLess, 1.0f)
                           .Build()
                           .value();
  EXPECT_FALSE(ValidateSpecColumns(filtered, 3).ok());
  EXPECT_TRUE(ValidateSpecColumns(filtered, 6).ok());
}

// --- Semantic identity ------------------------------------------------------

TEST(QuerySpecIdentity, CountColumnIsCanonicalized) {
  QuerySpec a = QuerySpecBuilder().Count().Build().value();
  QuerySpec b = QuerySpecBuilder()
                    .Aggregate(AggregateKind::kCount, 3)
                    .Build()
                    .value();
  EXPECT_EQ(a, b);
  EXPECT_EQ(HashSpec(a), HashSpec(b));
}

TEST(QuerySpecIdentity, FilterOrderIsIrrelevant) {
  QuerySpec ab = QuerySpecBuilder()
                     .Filter(0, FilterOp::kGreater, 3.0f)
                     .Filter(1, FilterOp::kLess, 5.0f)
                     .Build()
                     .value();
  QuerySpec ba = QuerySpecBuilder()
                     .Filter(1, FilterOp::kLess, 5.0f)
                     .Filter(0, FilterOp::kGreater, 3.0f)
                     .Build()
                     .value();
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(HashSpec(ab), HashSpec(ba));
}

TEST(QuerySpecIdentity, DatasetNameParticipates) {
  QuerySpec taxi = QuerySpecBuilder().Dataset("taxi").Build().value();
  QuerySpec twitter = QuerySpecBuilder().Dataset("twitter").Build().value();
  EXPECT_NE(taxi, twitter);
}

TEST(QuerySpecIdentity, ConversionIsLossless) {
  QuerySpec spec = QuerySpecBuilder()
                       .Dataset("taxi")
                       .Average(1)
                       .Filter(0, FilterOp::kGreaterEqual, 2.5f)
                       .Variant(JoinVariant::kAccurateRaster)
                       .CanvasDim(512)
                       .Epsilon(7.25)
                       .WithResultRanges()
                       .Build()
                       .value();
  ExecPolicy policy;
  policy.cpu_threads = 8;
  policy.overlap_transfers = false;
  SpatialAggQuery query = spec.ToQuery(policy);
  EXPECT_EQ(query.policy.cpu_threads, 8);
  EXPECT_FALSE(query.policy.overlap_transfers);
  EXPECT_EQ(query.spec, spec);
}

// --- v1 JSON round trips ----------------------------------------------------

/// Property test: any spec the builder can produce survives
/// spec → json → spec with identity preserved (operator== and HashSpec).
TEST(QuerySpecJson, RandomSpecsRoundTrip) {
  Rng rng(991);
  const AggregateKind kinds[] = {AggregateKind::kCount, AggregateKind::kSum,
                                 AggregateKind::kAverage, AggregateKind::kMin,
                                 AggregateKind::kMax};
  const JoinVariant variants[] = {
      JoinVariant::kBoundedRaster, JoinVariant::kAccurateRaster,
      JoinVariant::kIndexDevice, JoinVariant::kIndexCpu, JoinVariant::kAuto};
  const FilterOp ops[] = {FilterOp::kGreater, FilterOp::kGreaterEqual,
                          FilterOp::kLess, FilterOp::kLessEqual,
                          FilterOp::kEqual};

  for (int trial = 0; trial < 300; ++trial) {
    QuerySpecBuilder b;
    if (rng.UniformInt(2) == 0) {
      b.Dataset("dataset-" + std::to_string(rng.UniformInt(4)));
    }
    AggregateKind kind = kinds[rng.UniformInt(5)];
    b.Aggregate(kind, kind == AggregateKind::kCount ? PointTable::npos
                                                    : rng.UniformInt(8));
    const std::size_t num_filters = rng.UniformInt(4);
    for (std::size_t f = 0; f < num_filters; ++f) {
      b.Filter(rng.UniformInt(8), ops[rng.UniformInt(5)],
               static_cast<float>(rng.Uniform(-100.0, 100.0)));
    }
    b.Variant(variants[rng.UniformInt(5)]);
    b.Epsilon(rng.Uniform(0.0, 50.0));
    if (rng.UniformInt(2) == 0) {
      b.CanvasDim(static_cast<std::int32_t>(1 + rng.UniformInt(2048)));
    }
    b.WithResultRanges(rng.UniformInt(2) == 0);
    Result<QuerySpec> spec = b.Build();
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();

    const std::string wire = SpecToJson(spec.value()).Serialize();
    Result<json::Value> parsed = json::Parse(wire);
    ASSERT_TRUE(parsed.ok()) << wire;
    QuerySpec back;
    Status st = SpecFromJson(parsed.value(), &back);
    ASSERT_TRUE(st.ok()) << st.ToString() << "\n" << wire;
    EXPECT_EQ(back, spec.value()) << wire;
    EXPECT_EQ(HashSpec(back), HashSpec(spec.value())) << wire;
    // Serialization is canonical: a round-tripped spec re-serializes to
    // the same bytes.
    EXPECT_EQ(SpecToJson(back).Serialize(), wire);
  }
}

TEST(QuerySpecJson, RequestEnvelopeRoundTrips) {
  QueryRequest request;
  request.spec = QuerySpecBuilder()
                     .Dataset("taxi")
                     .Sum(0)
                     .Epsilon(5.0)
                     .WithResultRanges()
                     .Build()
                     .value();
  request.policy.cpu_threads = 4;
  request.policy.use_result_cache = false;
  request.high_priority = true;

  Result<QueryRequest> back = ParseQueryRequest(QueryRequestToJson(request));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().spec, request.spec);
  EXPECT_EQ(back.value().policy.cpu_threads, 4);
  EXPECT_FALSE(back.value().policy.use_result_cache);
  EXPECT_TRUE(back.value().policy.overlap_transfers);
  EXPECT_TRUE(back.value().high_priority);
}

TEST(QuerySpecJson, DefaultsAreOmittedOnTheWire) {
  QueryRequest request;
  request.spec = QuerySpecBuilder().Dataset("d").Build().value();
  const std::string wire = QueryRequestToJson(request);
  EXPECT_EQ(wire.find("exec"), std::string::npos) << wire;
  EXPECT_EQ(wire.find("priority"), std::string::npos) << wire;
  EXPECT_EQ(wire.find("column"), std::string::npos) << wire;
}

TEST(QuerySpecJson, UnknownFieldsAreRejectedWithVersionedError) {
  const std::string bodies[] = {
      R"({"v":1,"query":{"aggregate":"count"},"surprise":true})",
      R"({"v":1,"query":{"aggregate":"count","fast":true}})",
      R"({"v":1,"query":{"aggregate":"count"},"exec":{"warp_drive":9}})",
      R"({"v":1,"query":{"filters":[{"column":0,"op":"gt","value":1,"x":2}]}})",
  };
  for (const std::string& body : bodies) {
    Result<QueryRequest> r = ParseQueryRequest(body);
    ASSERT_FALSE(r.ok()) << body;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("v1 query spec"), std::string::npos)
        << r.status().ToString();
    EXPECT_NE(r.status().message().find("unknown field"), std::string::npos)
        << r.status().ToString();
  }
}

TEST(QuerySpecJson, WrongSchemaVersionIsRejected) {
  Result<QueryRequest> missing =
      ParseQueryRequest(R"({"query":{"aggregate":"count"}})");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("schema version"),
            std::string::npos);

  Result<QueryRequest> future =
      ParseQueryRequest(R"({"v":2,"query":{"aggregate":"count"}})");
  ASSERT_FALSE(future.ok());
  EXPECT_NE(future.status().message().find("this server speaks v1"),
            std::string::npos)
      << future.status().ToString();
}

TEST(QuerySpecJson, MalformedValuesAreRejected) {
  EXPECT_FALSE(ParseQueryRequest("not json").ok());
  EXPECT_FALSE(ParseQueryRequest(R"({"v":1})").ok());  // missing query
  EXPECT_FALSE(
      ParseQueryRequest(R"({"v":1,"query":{"aggregate":"median"}})").ok());
  EXPECT_FALSE(
      ParseQueryRequest(R"({"v":1,"query":{"variant":"quantum"}})").ok());
  EXPECT_FALSE(
      ParseQueryRequest(R"({"v":1,"query":{"epsilon":"ten"}})").ok());
  EXPECT_FALSE(
      ParseQueryRequest(R"({"v":1,"query":{"canvas_dim":-4}})").ok());
  EXPECT_FALSE(ParseQueryRequest(
                   R"({"v":1,"query":{"aggregate":"count"},"priority":"urgent"})")
                   .ok());
  EXPECT_FALSE(ParseQueryRequest(
                   R"({"v":1,"query":{"aggregate":"count"},"exec":{"cpu_threads":0}})")
                   .ok());
  // Builder validation applies to parsed specs too: SUM without a column.
  EXPECT_FALSE(
      ParseQueryRequest(R"({"v":1,"query":{"aggregate":"sum"}})").ok());
}

TEST(QuerySpecJson, BlockPruningPolicyRoundTrips) {
  QueryRequest request;
  request.spec = QuerySpecBuilder().Dataset("d").Build().value();
  request.policy.block_pruning = false;

  const std::string wire = QueryRequestToJson(request);
  EXPECT_NE(wire.find("\"block_pruning\":false"), std::string::npos) << wire;
  Result<QueryRequest> back = ParseQueryRequest(wire);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_FALSE(back.value().policy.block_pruning);

  // The default (true) stays off the wire, like every other exec default.
  request.policy.block_pruning = true;
  EXPECT_EQ(QueryRequestToJson(request).find("block_pruning"),
            std::string::npos);

  // Explicit true parses too, and malformed values are rejected.
  Result<QueryRequest> explicit_true = ParseQueryRequest(
      R"({"v":1,"query":{"aggregate":"count"},"exec":{"block_pruning":true}})");
  ASSERT_TRUE(explicit_true.ok());
  EXPECT_TRUE(explicit_true.value().policy.block_pruning);
  EXPECT_FALSE(
      ParseQueryRequest(
          R"({"v":1,"query":{"aggregate":"count"},"exec":{"block_pruning":1}})")
          .ok());
}

TEST(QuerySpecIdentity, BlockPruningIsExecutionOnly) {
  const QuerySpec spec = QuerySpecBuilder().Dataset("d").Build().value();
  ExecPolicy policy;
  policy.block_pruning = false;
  const SpatialAggQuery unpruned = spec.ToQuery(policy);
  EXPECT_FALSE(unpruned.policy.block_pruning);
  // An execution knob, not semantics: identity and hash ignore it, so a
  // cached result is shared across pruning settings.
  SpatialAggQuery pruned = spec.ToQuery(ExecPolicy{});
  EXPECT_TRUE(pruned.policy.block_pruning);
  const query::CacheKey key =
      query::MakeCacheKey(0, 0, unpruned, JoinVariant::kBoundedRaster);
  const query::CacheKey pruned_key =
      query::MakeCacheKey(0, 0, pruned, JoinVariant::kBoundedRaster);
  EXPECT_EQ(key, pruned_key);
  EXPECT_EQ(query::CacheKeyHash{}(key), query::CacheKeyHash{}(pruned_key));
}

}  // namespace
}  // namespace rj
