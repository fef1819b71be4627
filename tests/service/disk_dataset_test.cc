/// \file disk_dataset_test.cc
/// \brief QueryService over disk-resident datasets
/// (RegisterDatasetFromFile): results bitwise identical to the in-memory
/// registration of the same rows for either block_pruning policy, honest
/// residency reporting through ListDatasets and the wire, no fusion
/// groups over block sources, and clean registration failures.
#include "service/query_service.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/block_file.h"
#include "data/datasets.h"
#include "net/wire.h"
#include "query/executor.h"

namespace rj::service {
namespace {

struct Dataset {
  PolygonSet polys;
  PointTable points;
};

Dataset MakeDataset(std::size_t num_polys, std::size_t num_points,
                    std::uint64_t seed) {
  Dataset d;
  auto polys = TinyRegions(num_polys, BBox(0, 0, 1000, 1000), seed);
  EXPECT_TRUE(polys.ok());
  d.polys = polys.value();

  Rng rng(seed * 131 + 7);
  d.points.AddAttribute("w");
  for (std::size_t i = 0; i < num_points; ++i) {
    // Integer-valued weights: double-exact sums for any accumulation order.
    d.points.Append(rng.Uniform(0, 1000), rng.Uniform(0, 1000),
                    {static_cast<float>(rng.UniformInt(100))});
  }
  return d;
}

gpu::DeviceOptions DeviceConfig(std::size_t budget) {
  gpu::DeviceOptions options;
  options.memory_budget_bytes = budget;
  options.max_fbo_dim = 1024;
  return options;
}

/// Writes the dataset's points as a v2 block file and returns the path.
std::string WriteBlockFile(const Dataset& d, const char* name,
                           std::size_t capacity) {
  const std::string path = ::testing::TempDir() + "/" + name;
  data::BlockFileOptions options;
  options.block_capacity = capacity;
  EXPECT_TRUE(data::BlockFileWriter(options).Write(path, d.points).ok());
  return path;
}

void ExpectIdenticalResults(const QueryResult& expected,
                            const QueryResult& actual) {
  ASSERT_EQ(expected.values.size(), actual.values.size());
  for (std::size_t i = 0; i < expected.values.size(); ++i) {
    if (std::isnan(expected.values[i])) {
      EXPECT_TRUE(std::isnan(actual.values[i])) << "value slot " << i;
    } else {
      EXPECT_EQ(expected.values[i], actual.values[i]) << "value slot " << i;
    }
    EXPECT_EQ(expected.arrays.count[i], actual.arrays.count[i]) << i;
    EXPECT_EQ(expected.arrays.sum[i], actual.arrays.sum[i]) << i;
  }
  ASSERT_EQ(expected.ranges.loose.size(), actual.ranges.loose.size());
  for (std::size_t i = 0; i < expected.ranges.loose.size(); ++i) {
    EXPECT_EQ(expected.ranges.loose[i].lower, actual.ranges.loose[i].lower);
    EXPECT_EQ(expected.ranges.loose[i].upper, actual.ranges.loose[i].upper);
  }
}

TEST(DiskDatasetTest, SubmitMatchesInMemoryRegistrationForEitherPolicy) {
  Dataset data = MakeDataset(8, 15000, 51);
  const std::string path = WriteBlockFile(data, "disk_dataset.rjb", 1500);

  // The in-memory twin registers the rows in the same (on-disk) order, so
  // the comparison below is bitwise, not approximate. Materialized before
  // the service so it outlives it.
  auto opened = data::OpenPointBlockSource(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto materialized = data::MaterializeBlocks(*opened.value());
  ASSERT_TRUE(materialized.ok());
  PointTable rows = std::move(materialized).MoveValueUnsafe();
  opened.value().reset();

  gpu::Device device(DeviceConfig(64 << 20));
  QueryService service(&device);
  auto disk_id =
      service.RegisterDatasetFromFile(path, &data.polys, "taxi-disk");
  ASSERT_TRUE(disk_id.ok()) << disk_id.status().ToString();
  const std::size_t mem_id =
      service.RegisterDataset(&rows, &data.polys, "taxi-mem");

  std::vector<QuerySpec> specs;
  specs.push_back(QuerySpecBuilder()
                      .Sum(0)
                      .Variant(JoinVariant::kBoundedRaster)
                      .Epsilon(8.0)
                      .WithResultRanges()
                      .Build()
                      .value());
  specs.push_back(QuerySpecBuilder()
                      .Variant(JoinVariant::kAccurateRaster)
                      .CanvasDim(256)
                      .Filter(0, FilterOp::kGreaterEqual, 25.0f)
                      .Build()
                      .value());
  specs.push_back(QuerySpecBuilder()
                      .Average(0)
                      .Variant(JoinVariant::kIndexDevice)
                      .Build()
                      .value());
  specs.push_back(QuerySpecBuilder()
                      .Max(0)
                      .Variant(JoinVariant::kIndexCpu)
                      .Build()
                      .value());

  for (const QuerySpec& spec : specs) {
    ExecPolicy policy;
    policy.use_result_cache = false;
    ServiceResponse expected = service.Submit(mem_id, spec, policy).get();
    ASSERT_TRUE(expected.result.ok())
        << expected.result.status().ToString();
    for (const bool prune : {true, false}) {
      policy.block_pruning = prune;
      ServiceResponse actual = service.Submit(disk_id.value(), spec, policy)
                                   .get();
      ASSERT_TRUE(actual.result.ok()) << actual.result.status().ToString();
      ExpectIdenticalResults(expected.result.value(), actual.result.value());
    }
  }
  std::remove(path.c_str());
}

TEST(DiskDatasetTest, ListDatasetsAndWireReportResidency) {
  Dataset data = MakeDataset(4, 2000, 52);
  const std::string path = WriteBlockFile(data, "disk_listing.rjb", 512);

  gpu::Device device(DeviceConfig(64 << 20));
  QueryService service(&device);
  const std::size_t mem_id =
      service.RegisterDataset(&data.points, &data.polys, "mem");
  auto disk_id = service.RegisterDatasetFromFile(path, &data.polys, "disk");
  ASSERT_TRUE(disk_id.ok());
  EXPECT_EQ(service.ResolveDataset("disk").value(), disk_id.value());

  const std::vector<DatasetInfo> listing = service.ListDatasets();
  ASSERT_EQ(listing.size(), 2u);
  EXPECT_FALSE(listing[mem_id].disk_resident);
  EXPECT_EQ(listing[mem_id].num_points, 2000u);
  EXPECT_TRUE(listing[disk_id.value()].disk_resident);
  EXPECT_EQ(listing[disk_id.value()].num_points, 2000u);
  EXPECT_EQ(listing[disk_id.value()].num_attribute_columns, 1u);

  const std::string wire = net::DatasetsJson(listing);
  EXPECT_NE(wire.find("\"resident\":\"disk\""), std::string::npos) << wire;
  EXPECT_NE(wire.find("\"resident\":\"memory\""), std::string::npos) << wire;
  std::remove(path.c_str());
}

TEST(DiskDatasetTest, QueuedQueriesFuseOverDiskDatasets) {
  Dataset data = MakeDataset(6, 8000, 53);
  const std::string path = WriteBlockFile(data, "disk_fusion.rjb", 1024);

  gpu::Device device(DeviceConfig(64 << 20));
  ServiceOptions options;
  options.num_dispatchers = 1;
  options.max_fusion_group_size = 4;
  QueryService service(&device, options);
  auto disk_id = service.RegisterDatasetFromFile(path, &data.polys);
  ASSERT_TRUE(disk_id.ok());

  // A slow head query occupies the single dispatcher while four
  // fusion-compatible queries queue behind it — the shape that fuses for
  // in-memory datasets fuses over the block scan too.
  SpatialAggQuery warmup;
  warmup.variant = JoinVariant::kAccurateRaster;
  warmup.accurate_canvas_dim = 1024;
  std::future<ServiceResponse> head =
      service.Submit(disk_id.value(), warmup);

  std::vector<SpatialAggQuery> group;
  for (int i = 0; i < 4; ++i) {
    SpatialAggQuery q;
    q.variant = JoinVariant::kBoundedRaster;
    q.epsilon = 8.0;
    if (i % 2 == 1) {
      q.aggregate = AggregateKind::kSum;
      q.aggregate_column = 0;
    }
    if (i >= 2) {
      EXPECT_TRUE(q.filters.Add({0, FilterOp::kLess, float(40 + i)}).ok());
    }
    group.push_back(q);
  }
  std::vector<std::future<ServiceResponse>> futures;
  for (const SpatialAggQuery& q : group) {
    futures.push_back(service.Submit(disk_id.value(), q));
  }
  ASSERT_TRUE(head.get().result.ok());

  Executor* executor = service.dataset_executor(disk_id.value());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ServiceResponse response = futures[i].get();
    ASSERT_TRUE(response.result.ok())
        << response.result.status().ToString();
    EXPECT_GT(response.stats.fused_group_size, 1u) << "member " << i;
    auto solo = executor->ExecuteUncached(group[i]);
    ASSERT_TRUE(solo.ok());
    ExpectIdenticalResults(solo.value(), response.result.value());
  }
  std::remove(path.c_str());
}

TEST(DiskDatasetTest, RegistrationFailsCleanlyOnBadFiles) {
  Dataset data = MakeDataset(4, 100, 54);
  gpu::Device device(DeviceConfig(64 << 20));
  QueryService service(&device);

  auto missing = service.RegisterDatasetFromFile("/nonexistent/nope.rjb",
                                                 &data.polys);
  EXPECT_FALSE(missing.ok());

  const std::string garbage_path = ::testing::TempDir() + "/garbage.rjb";
  {
    std::ofstream out(garbage_path, std::ios::binary);
    out << "definitely not a block file";
  }
  auto garbage = service.RegisterDatasetFromFile(garbage_path, &data.polys);
  EXPECT_FALSE(garbage.ok());
  std::remove(garbage_path.c_str());

  // Failed registrations must not leave half-registered datasets behind.
  EXPECT_TRUE(service.ListDatasets().empty());
}

}  // namespace
}  // namespace rj::service
