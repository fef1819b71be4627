/// \file disk_zoom.cc
/// \brief Workload disk_zoom: zoomed-in bounded views (ε = 50 m, hour
/// windows) over a Hilbert-clustered v2 block file registered through
/// QueryService::RegisterDatasetFromFile, submitted in-process.
///
/// Loads the data tier: zone-map block selection and the disk→host→device
/// block pipeline, out of core (the device budget is a fraction of the
/// file). Bypasses: HTTP, the result cache (every request sets
/// use_result_cache=false) and shard scatter-gather.
///
/// Requests run the pipeline serialized (exec.overlap_transfers=false):
/// each block is read, uploaded and drawn in turn on the query's own thread,
/// so the two in-flight queries keep at most three compute threads busy
/// (two dispatchers, one device worker). The overlapped pipeline adds a
/// reader and a transfer thread per query, up to eight threads on four
/// cores; there a single competing busy thread on the host tripled the tail.
///
/// Polygons are the NYC neighborhoods whose bounding box lies inside a
/// central window. The block file is fsynced after every ingest, outside
/// set-up time and before any timed phase, so kernel writeback never lands
/// in a timed phase; reads are then page-cache reads.
#include <fcntl.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cstdio>

#include "data/block_file.h"
#include "data/datasets.h"
#include "data/taxi_generator.h"
#include "harness.h"
#include "query/query_spec.h"

namespace perfbench {
namespace {

constexpr std::size_t kPoints = 2'000'000;
/// Requests per second of --seconds: sizes the fixed request count.
constexpr double kNominalRate = 27.0;
constexpr double kEpsilon = 50.0;
constexpr std::size_t kBlockRows = 1u << 16;
constexpr std::size_t kDeviceBudget = 16u << 20;
constexpr std::size_t kDeviceWorkers = 1;
/// Central window (Lower Manhattan to Midtown and around), NYC frame.
const rj::BBox kWindow(11000.0, 9000.0, 25000.0, 27000.0);

/// 6-hour windows sliding in 2-hour steps × COUNT / SUM(passengers) /
/// AVG(fare), all at ε = 50 m.
std::vector<rj::QuerySpec> BuildSpecs() {
  std::vector<rj::QuerySpec> specs;
  for (int lo = 0; lo <= 18; lo += 2) {
    for (int agg = 0; agg < 3; ++agg) {
      rj::QuerySpecBuilder builder;
      builder.Dataset("taxi")
          .Variant(rj::JoinVariant::kBoundedRaster)
          .Epsilon(kEpsilon)
          .Filter(rj::kTaxiHour, rj::FilterOp::kGreaterEqual,
                  static_cast<float>(lo))
          .Filter(rj::kTaxiHour, rj::FilterOp::kLess,
                  static_cast<float>(lo + 6));
      if (agg == 1) builder.Sum(rj::kTaxiPassengers);
      if (agg == 2) builder.Average(rj::kTaxiFare);
      specs.push_back(builder.Build().value());
    }
  }
  return specs;
}

std::string FilesystemName(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "magic 0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

class DiskZoom final : public CyclicSpecWorkload {
 public:
  ~DiskZoom() override {
    TearDown();
    if (!path_.empty()) std::remove(path_.c_str());
  }

  rj::Status Generate(const Options& options) override {
    rj::TaxiGeneratorOptions taxi;
    taxi.seed = DeriveSeed(options.seed, 21);
    points_ = rj::GenerateTaxiPoints(Scaled(kPoints, options.scale, 40'000),
                                     taxi);
    num_points_ = points_.size();
    RJ_ASSIGN_OR_RETURN(rj::PolygonSet all, rj::NycNeighborhoods());
    for (rj::Polygon& p : all) {
      const rj::BBox& b = p.bbox();
      if (b.min_x >= kWindow.min_x && b.max_x <= kWindow.max_x &&
          b.min_y >= kWindow.min_y && b.max_y <= kWindow.max_y) {
        polys_.push_back(std::move(p));
      }
    }
    if (polys_.empty()) {
      return rj::Status::Internal("no polygon inside the central window");
    }
    rj::AssignSequentialIds(&polys_);
    policy_.use_result_cache = false;
    policy_.overlap_transfers = false;
    SetTrace(BuildSpecs(), DeriveSeed(options.seed, 23), kNominalRate,
             options);
    path_ = options.work_dir + "/disk_zoom-points.rjb";
    return rj::Status::OK();
  }

  rj::Status SetUp(SetupTimes* times) override {
    // The old service unmaps the file before the writer truncates it.
    TearDown();
    rj::data::BlockFileOptions block;
    block.block_capacity = kBlockRows;
    {
      SetupLap lap(times->spans, "data.BlockFileWriter::Write",
                   &times->load_s);
      RJ_RETURN_NOT_OK(rj::data::BlockFileWriter(block).Write(path_, points_));
    }

    rj::gpu::DeviceOptions device;
    device.num_workers = kDeviceWorkers;
    device.memory_budget_bytes = kDeviceBudget;
    device.max_fbo_dim = 4096;
    device_ = std::make_unique<rj::gpu::Device>(device);
    rj::service::ServiceOptions service;
    service.num_dispatchers = kDispatchers;
    service_ =
        std::make_unique<rj::service::QueryService>(device_.get(), service);
    {
      SetupLap lap(times->spans, "service.QueryService::RegisterDatasetFromFile",
                   &times->register_s);
      RJ_ASSIGN_OR_RETURN(dataset_, service_->RegisterDatasetFromFile(
                                        path_, &polys_, "taxi"));
    }
    {
      SetupLap lap(times->spans, "triangulate.Executor::GetTriangulation",
                   &times->prep_s);
      RJ_RETURN_NOT_OK(executor()->GetTriangulation().status());
    }
    return rj::Status::OK();
  }

  rj::Status Settle() override {
    const int fd = ::open(path_.c_str(), O_RDONLY);
    if (fd < 0) return rj::Status::IOError("cannot open " + path_);
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) return rj::Status::IOError("fsync failed on " + path_);
    return rj::Status::OK();
  }

  void DropInputs() override { points_ = rj::PointTable(); }

  /// One full cycle: every spec once.
  std::size_t warm_requests() const override { return specs_.size(); }

  std::vector<std::pair<std::string, std::string>> Facts() const override {
    const rj::data::PointBlockSource* source =
        service_->dataset_executor(dataset_)->block_source();
    return {
        {"points", std::to_string(num_points_) + " (v2 block file)"},
        {"polygons", std::to_string(polys_.size()) +
                         " (inside the central window)"},
        {"specs", std::to_string(specs_.size()) +
                      " bounded, epsilon 50 m, cyclic seeded order"},
        {"block_file", path_},
        {"block_file_fs", FilesystemName(path_)},
        {"block_file_blocks", std::to_string(source->num_blocks())},
        {"block_rows", std::to_string(kBlockRows)},
        {"fsync", "after every ingest, outside setup_s, before timing"},
        {"disk_reads", "page-cache reads on this host, not device reads"},
        {"device_budget_bytes", std::to_string(kDeviceBudget)},
        {"device_workers", std::to_string(kDeviceWorkers)},
        {"transfer_overlap",
         "off: read, upload and draw serialized per block"},
        {"result_cache", "bypassed (use_result_cache=false)"},
        {"transport", "in-process QueryService::Submit"},
    };
  }

  void TearDown() override {
    service_.reset();
    device_.reset();
  }

 private:
  rj::PointTable points_;
  std::size_t num_points_ = 0;
  rj::PolygonSet polys_;
  std::string path_;
  std::unique_ptr<rj::gpu::Device> device_;
};

}  // namespace

std::unique_ptr<Workload> MakeDiskZoom() {
  return std::make_unique<DiskZoom>();
}

}  // namespace perfbench
