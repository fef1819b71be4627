/// \file explore_http.cc
/// \brief Workload explore_http: map exploration through net::QueryServer
/// over loopback keep-alive connections.
///
/// Loads the HTTP edge, the v1 JSON codec and in-memory bounded joins on a
/// one-worker device (every end-to-end metric), plus the result cache's hit
/// path (per layer). Bypasses: the disk tier and shard scatter-gather.
///
/// The catalog is a fixed cross product of zoom levels (ε ladder), 6-hour
/// windows and aggregates. In every block of 8 requests exactly one, at a
/// seeded position, is a repeat served from the result cache: a Zipf(1.1)
/// pick over a seeded ranking that keeps each aggregate's popularity share
/// fixed. The other seven are first-time views (exec.use_result_cache=false)
/// that walk a seeded permutation of the catalog, so every round joins each
/// view equally often whatever the seed. The warm pass requests every view
/// once, so the cache holds the whole catalog before timing and the hit/miss
/// mix is fixed by the trace.
///
/// Hits are the minority on purpose. A hit is ~0.2 ms, mostly thread
/// wake-ups, and its median followed the host: over four ten-run sets on a
/// shared 4-vCPU host, a hit-dominated median spread 0.11 to 0.30 of itself
/// while the same runs' CPU per request spread at most 0.06. Net and
/// hit-path changes are therefore measured per layer only.
///
/// The timed requests run as three rounds, each a fixed count of whole
/// cycles, and the end-to-end metrics are medians over the rounds: the tail
/// is a round's 11th-slowest join, so a run gives three samples of it.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/rng.h"
#include "data/column_store.h"
#include "data/datasets.h"
#include "data/taxi_generator.h"
#include "harness.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "query/query_spec.h"

namespace perfbench {
namespace {

constexpr std::size_t kPoints = 1'000'000;
/// Requests per second of --seconds: sizes the fixed request count.
constexpr double kNominalRate = 50.0;
constexpr std::size_t kRounds = 3;
/// One cache hit per block of this many requests; the rest bypass.
constexpr std::size_t kHitEvery = 8;
constexpr double kZipfExponent = 1.1;
/// One worker: on a 4-vCPU host a second one made the joins slower (46
/// against 36 ms median) at 25% more CPU per request, and beside three
/// competing busy threads their median rose 52% against 30%.
constexpr std::size_t kDeviceWorkers = 1;
/// Connection handlers: one per client plus slack for a reconnect racing
/// the old connection's idle close (never the accept-gate 503).
constexpr std::size_t kHttpWorkers = 4;
constexpr std::size_t kCacheBytes = 64u << 20;

constexpr std::size_t kAggregates = 3;

/// ε ladder (zoom) × 6-hour windows × COUNT / SUM(passengers) / AVG(fare);
/// view index = (zoom × windows + window) × kAggregates + aggregate.
std::vector<rj::QuerySpec> BuildCatalog() {
  const double kZoomLadder[] = {400.0, 200.0, 100.0, 50.0};
  const float kWindowStarts[] = {0.0f, 6.0f, 12.0f, 18.0f};
  std::vector<rj::QuerySpec> catalog;
  for (const double epsilon : kZoomLadder) {
    for (const float lo : kWindowStarts) {
      for (std::size_t agg = 0; agg < kAggregates; ++agg) {
        rj::QuerySpecBuilder builder;
        builder.Dataset("taxi")
            .Variant(rj::JoinVariant::kBoundedRaster)
            .Epsilon(epsilon)
            .Filter(rj::kTaxiHour, rj::FilterOp::kGreaterEqual, lo)
            .Filter(rj::kTaxiHour, rj::FilterOp::kLess, lo + 6.0f);
        if (agg == 1) builder.Sum(rj::kTaxiPassengers);
        if (agg == 2) builder.Average(rj::kTaxiFare);
        catalog.push_back(builder.Build().value());
      }
    }
  }
  return catalog;
}

/// Zipf(s) over ranks [0, n) by inverse-CDF lookup.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t Sample(rj::Rng* rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng->Uniform());
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct Request {
  std::size_t view = 0;
  bool bypass = false;
};

class ExploreHttp final : public Workload {
 public:
  ~ExploreHttp() override { TearDown(); }

  rj::Status Generate(const Options& options) override {
    rj::TaxiGeneratorOptions taxi;
    taxi.seed = DeriveSeed(options.seed, 1);
    const rj::PointTable points = rj::GenerateTaxiPoints(
        Scaled(kPoints, options.scale, 20'000), taxi);
    num_points_ = points.size();
    rjc_path_ = options.work_dir + "/explore_http-points.rjc";
    RJ_RETURN_NOT_OK(rj::WriteColumnStore(rjc_path_, points));

    RJ_ASSIGN_OR_RETURN(polys_, rj::NycNeighborhoods());

    catalog_ = BuildCatalog();
    for (const rj::QuerySpec& spec : catalog_) {
      rj::QueryRequest request;
      request.spec = spec;
      bodies_.push_back(rj::QueryRequestToJson(request));
      request.policy.use_result_cache = false;
      bodies_bypass_.push_back(rj::QueryRequestToJson(request));
    }

    // A cycle bypasses every view equally often.
    per_phase_ = PhaseLength(kHitEvery * catalog_.size(),
                             kNominalRate / kRounds, options);
    BuildTrace(DeriveSeed(options.seed, 3));
    return rj::Status::OK();
  }

  rj::Status SetUp(SetupTimes* times) override {
    TearDownStack();
    {
      SetupLap lap(times->spans, "data.ReadColumnStore", &times->load_s);
      RJ_ASSIGN_OR_RETURN(rj::PointTable loaded,
                          rj::ReadColumnStore(rjc_path_));
      points_ = std::make_unique<rj::PointTable>(std::move(loaded));
    }

    rj::gpu::DeviceOptions device;
    device.num_workers = kDeviceWorkers;
    device.max_fbo_dim = 4096;
    device_ = std::make_unique<rj::gpu::Device>(device);
    rj::service::ServiceOptions service;
    service.num_dispatchers = kDispatchers;
    service.result_cache_bytes = kCacheBytes;
    service_ = std::make_unique<rj::service::QueryService>(device_.get(),
                                                           service);
    {
      SetupLap lap(times->spans, "service.QueryService::RegisterDataset",
                   &times->register_s);
      dataset_ = service_->RegisterDataset(points_.get(), &polys_, "taxi");
    }
    {
      SetupLap lap(times->spans, "triangulate.Executor::GetTriangulation",
                   &times->prep_s);
      RJ_RETURN_NOT_OK(executor()->GetTriangulation().status());
    }

    rj::net::QueryServerOptions server;
    server.http.num_workers = kHttpWorkers;
    server.http.max_connections = kHttpWorkers;
    server_ = std::make_unique<rj::net::QueryServer>(service_.get(), server);
    RJ_RETURN_NOT_OK(server_->Start());
    for (std::size_t c = 0; c < kClients; ++c) {
      clients_.push_back(std::make_unique<rj::net::HttpClient>(
          "127.0.0.1", server_->port(), /*response_timeout_seconds=*/30.0));
      clients_.back()->set_replay_safe_posts(true);  // /v1/query is read-only
    }
    return rj::Status::OK();
  }

  rj::Status ComputeReferences() override {
    std::vector<rj::SpatialAggQuery> queries;
    for (const rj::QuerySpec& spec : catalog_) {
      queries.push_back(spec.ToQuery());
    }
    RJ_ASSIGN_OR_RETURN(references_,
                        perfbench::ComputeReferences(executor(), queries));
    return rj::Status::OK();
  }

  void CorruptOneReference() override {
    FlipLowestBit(&references_[trace_[warm_requests()].view].values);
  }

  std::size_t warm_requests() const override { return catalog_.size(); }
  std::size_t requests_per_phase() const override { return per_phase_; }
  std::size_t timed_rounds() const override { return kRounds; }

  void Issue(std::size_t client, std::size_t index, SpanBuffer* spans,
             Outcome* out) override {
    const Request& r = trace_[index];
    const auto request = static_cast<std::int64_t>(index);
    ScopedSpan root(spans, "bench.request", request);
    const Clock::time_point t0 = Clock::now();
    rj::Result<rj::net::HttpClientResponse> response = rj::Status::Internal("");
    {
      ScopedSpan span(spans, "net.HttpClient::Post", request, root.id());
      response = clients_[client]->Post(
          "/v1/query", (r.bypass ? bodies_bypass_ : bodies_)[r.view]);
    }
    out->latency_s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (!response.ok()) {
      out->error = "client: " + response.status().ToString();
      return;
    }
    const rj::net::HttpClientResponse& http = response.value();
    if (http.status != 200) {
      out->error = "HTTP " + std::to_string(http.status) + ": " +
                   http.body.substr(0, 200);
      return;
    }
    out->response_bytes = http.body.size();
    rj::Result<rj::net::DecodedQueryResponse> decoded =
        rj::Status::Internal("");
    {
      ScopedSpan span(spans, "net.ParseQueryResponse", request, root.id());
      decoded = rj::net::ParseQueryResponse(http.body);
    }
    if (!decoded.ok()) {
      out->error = "decode: " + decoded.status().ToString();
      return;
    }
    const rj::net::DecodedQueryResponse& d = decoded.value();
    out->cache_hit = d.cache_hit;
    out->queue_s = d.queue_seconds;
    out->execute_s = d.execute_seconds;
    out->total_s = d.total_seconds;
    out->granted_bytes = d.granted_bytes;
    if (!d.cache_hit) {
      // The wire carries only total_seconds; the phase split of an
      // executed view comes from its reference execution.
      const rj::PhaseTimer& timing = references_[r.view].timing;
      out->processing_s = timing.Get(rj::phase::kProcessing);
      out->transfer_s = timing.Get(rj::phase::kTransfer);
      out->disk_read_s = timing.Get(rj::phase::kDiskRead);
    }
    if (!BitwiseEqual(d.values, references_[r.view].values)) {
      out->divergent = true;
      out->error = "values differ from the ExecuteUncached reference";
      return;
    }
    out->ok = true;
  }

  rj::service::QueryService* service() override { return service_.get(); }
  rj::Executor* executor() override {
    return service_->dataset_executor(dataset_);
  }

  std::string RequestBody(std::size_t index) const override {
    const Request& r = trace_[index];
    return (r.bypass ? bodies_bypass_ : bodies_)[r.view];
  }
  rj::SpatialAggQuery Query(std::size_t index) const override {
    const Request& r = trace_[index];
    rj::ExecPolicy policy;
    policy.use_result_cache = !r.bypass;
    return catalog_[r.view].ToQuery(policy);
  }
  const rj::QueryResult& Reference(std::size_t index) const override {
    return references_[trace_[index].view];
  }

  std::vector<std::pair<std::string, std::string>> Facts() const override {
    return {
        {"points", std::to_string(num_points_) + " (in memory, from .rjc)"},
        {"polygons", std::to_string(polys_.size())},
        {"catalog_views", std::to_string(catalog_.size())},
        {"cache_hits", "1 in " + std::to_string(kHitEvery) +
                           " (exactly one per block); the rest bypass"},
        {"zipf_exponent", "1.1"},
        {"devices", "1"},
        {"device_workers", std::to_string(kDeviceWorkers)},
        {"http_handlers", std::to_string(kHttpWorkers)},
        {"result_cache_bytes", std::to_string(kCacheBytes)},
        {"transport", "HTTP/1.1 keep-alive over loopback"},
    };
  }

  void TearDown() override {
    TearDownStack();
    if (!rjc_path_.empty()) std::remove(rjc_path_.c_str());
    rjc_path_.clear();
  }

 private:
  /// Server first (no new submissions), then the service, then what it
  /// points into.
  void TearDownStack() {
    clients_.clear();
    if (server_ != nullptr) server_->Shutdown();
    server_.reset();
    service_.reset();
    device_.reset();
    points_.reset();
  }

  void BuildTrace(std::uint64_t seed) {
    rj::Rng rng(seed);
    const std::size_t views = catalog_.size();
    // Popularity ranks cycle through the aggregates (rank r reads aggregate
    // r mod 3), so each aggregate's share of the hits — and with it the
    // response size the hit path encodes — is the same for every seed; the
    // seed picks which zoom level and window holds each rank.
    const std::size_t combos = views / kAggregates;
    std::vector<std::vector<std::size_t>> combo_order;
    for (std::size_t a = 0; a < kAggregates; ++a) {
      combo_order.push_back(SeededPermutation(combos, &rng));
    }
    std::vector<std::size_t> rank_to_view(views);
    for (std::size_t r = 0; r < views; ++r) {
      const std::size_t a = r % kAggregates;
      rank_to_view[r] = combo_order[a][r / kAggregates] * kAggregates + a;
    }
    std::vector<std::size_t> bypass_order = SeededPermutation(views, &rng);
    ZipfSampler zipf(views, kZipfExponent);
    // Warm pass: every view once, cacheable, in catalog order, so the two
    // clients run each zoom level's canvas size side by side and the
    // device's canvas pool reaches its steady size before timing.
    for (std::size_t v = 0; v < views; ++v) trace_.push_back({v, false});
    // The untraced rounds, then the traced phase.
    std::size_t bypasses = 0;
    for (std::size_t block = 0;
         block < (kRounds + 1) * per_phase_ / kHitEvery; ++block) {
      const std::size_t hit_at = rng.UniformInt(kHitEvery);
      for (std::size_t j = 0; j < kHitEvery; ++j) {
        if (j == hit_at) {
          trace_.push_back({rank_to_view[zipf.Sample(&rng)], false});
        } else {
          trace_.push_back({bypass_order[bypasses++ % views], true});
        }
      }
    }
  }

  std::string rjc_path_;
  std::size_t num_points_ = 0;
  rj::PolygonSet polys_;
  std::vector<rj::QuerySpec> catalog_;
  std::vector<std::string> bodies_;
  std::vector<std::string> bodies_bypass_;
  std::size_t per_phase_ = 0;
  std::vector<Request> trace_;

  std::unique_ptr<rj::PointTable> points_;
  std::unique_ptr<rj::gpu::Device> device_;
  std::unique_ptr<rj::service::QueryService> service_;
  std::unique_ptr<rj::net::QueryServer> server_;
  std::vector<std::unique_ptr<rj::net::HttpClient>> clients_;
  std::size_t dataset_ = 0;

  std::vector<rj::QueryResult> references_;
};

}  // namespace

std::unique_ptr<Workload> MakeExploreHttp() {
  return std::make_unique<ExploreHttp>();
}

}  // namespace perfbench
