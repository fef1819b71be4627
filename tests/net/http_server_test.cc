/// \file http_server_test.cc
/// \brief Loopback end-to-end tests for the HTTP front end: protocol
/// correctness (a query over the wire returns results bitwise identical to
/// Executor::ExecuteUncached, §5 ranges included), error mapping, rate
/// limiting, load shedding under TrySubmit rejection, and graceful drain.
#include "net/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "net/client.h"
#include "net/wire.h"
#include "query/executor.h"
#include "query/query_spec.h"
#include "service/query_service.h"

namespace rj::net {
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

gpu::DeviceOptions DeviceConfig(std::size_t budget, double bandwidth = 0.0) {
  gpu::DeviceOptions options;
  options.memory_budget_bytes = budget;
  options.max_fbo_dim = 1024;
  options.transfer_bandwidth_bytes_per_sec = bandwidth;
  return options;
}

/// Everything one test needs: device, service, server, and its port.
struct Stack {
  Stack(Dataset* data, service::ServiceOptions service_options = {},
        QueryServerOptions server_options = {},
        gpu::DeviceOptions device_options = DeviceConfig(16 << 20))
      : device(device_options), service(&device, service_options) {
    dataset = service.RegisterDataset(&data->points, &data->polys, "taxi");
    server = std::make_unique<QueryServer>(&service, server_options);
    Status st = server->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  gpu::Device device;
  service::QueryService service;
  std::unique_ptr<QueryServer> server;
  std::size_t dataset = 0;
};

std::string PostBody(const QuerySpec& spec, bool high_priority = false) {
  QueryRequest request;
  request.spec = spec;
  request.high_priority = high_priority;
  return QueryRequestToJson(request);
}

void ExpectBitwiseEqual(const QueryResult& expected,
                        const DecodedQueryResponse& actual) {
  ASSERT_EQ(expected.values.size(), actual.values.size());
  for (std::size_t i = 0; i < expected.values.size(); ++i) {
    if (std::isnan(expected.values[i])) {
      EXPECT_TRUE(std::isnan(actual.values[i])) << "value slot " << i;
    } else {
      EXPECT_EQ(expected.values[i], actual.values[i]) << "value slot " << i;
    }
  }
  ASSERT_EQ(expected.ranges.loose.size(), actual.ranges.loose.size());
  ASSERT_EQ(expected.ranges.expected.size(), actual.ranges.expected.size());
  for (std::size_t i = 0; i < expected.ranges.loose.size(); ++i) {
    EXPECT_EQ(expected.ranges.loose[i].lower, actual.ranges.loose[i].lower);
    EXPECT_EQ(expected.ranges.loose[i].upper, actual.ranges.loose[i].upper);
    EXPECT_EQ(expected.ranges.expected[i].lower,
              actual.ranges.expected[i].lower);
    EXPECT_EQ(expected.ranges.expected[i].upper,
              actual.ranges.expected[i].upper);
  }
}

/// Sends `raw` on a fresh connection and returns the status code of the
/// reply's status line, or -1 when none arrives.
int RawRequestStatus(int port, const std::string& raw) {
  Result<int> fd = ConnectTcp("127.0.0.1", port);
  if (!fd.ok()) return -1;
  std::string reply;
  if (WriteAll(fd.value(), raw).ok() && SetRecvTimeout(fd.value(), 5.0).ok()) {
    char chunk[1024];
    while (reply.find("\r\n") == std::string::npos) {
      const ssize_t n = ::recv(fd.value(), chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      reply.append(chunk, static_cast<std::size_t>(n));
    }
  }
  CloseFd(fd.value());
  // "HTTP/1.1 NNN Reason"
  if (reply.rfind("HTTP/1.1 ", 0) != 0 || reply.size() < 12) return -1;
  return std::stoi(reply.substr(9, 3));
}

/// The acceptance-criteria proof: a query submitted over HTTP returns
/// results bitwise identical to Executor::ExecuteUncached on the very same
/// executor, for every join variant, §5 ranges included. One keep-alive
/// client connection serves the whole mix.
TEST(HttpServerTest, QueriesOverHttpBitwiseIdenticalToExecutor) {
  Dataset data = MakeDataset(8, 20000, 41);
  Stack stack(&data);

  std::vector<QuerySpec> mix;
  mix.push_back(QuerySpecBuilder().Dataset("taxi").Count()
                    .Epsilon(5.0).Build().value());
  mix.push_back(QuerySpecBuilder().Dataset("taxi").Sum(0)
                    .Epsilon(8.0).WithResultRanges().Build().value());
  mix.push_back(QuerySpecBuilder().Dataset("taxi").Average(0)
                    .Variant(JoinVariant::kAccurateRaster)
                    .CanvasDim(256).Build().value());
  mix.push_back(QuerySpecBuilder().Dataset("taxi").Count()
                    .Variant(JoinVariant::kIndexDevice)
                    .Filter(0, FilterOp::kGreaterEqual, 25.0f)
                    .Build().value());
  mix.push_back(QuerySpecBuilder().Dataset("taxi").Max(0)
                    .Variant(JoinVariant::kIndexCpu).Build().value());

  Executor* executor = stack.service.dataset_executor(stack.dataset);
  HttpClient client("127.0.0.1", stack.server->port());
  for (const QuerySpec& spec : mix) {
    Result<QueryResult> expected = executor->ExecuteUncached(spec.ToQuery());
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    Result<HttpClientResponse> response =
        client.Post("/v1/query", PostBody(spec));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response.value().status, 200) << response.value().body;

    Result<DecodedQueryResponse> decoded =
        ParseQueryResponse(response.value().body);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectBitwiseEqual(expected.value(), decoded.value());
  }
  // The ranges query really carried §5 intervals over the wire.
  Result<HttpClientResponse> ranged =
      client.Post("/v1/query", PostBody(mix[1]));
  ASSERT_TRUE(ranged.ok());
  EXPECT_NE(ranged.value().body.find("\"ranges\""), std::string::npos);

  HttpServerStats stats = stack.server->http_stats();
  EXPECT_EQ(stats.responses_2xx, 6u);
  EXPECT_EQ(stats.responses_4xx, 0u);
  EXPECT_EQ(stats.responses_5xx, 0u);
  // Keep-alive: the whole mix rode one connection.
  EXPECT_EQ(stats.connections_accepted, 1u);
}

TEST(HttpServerTest, HealthzDatasetsAndStats) {
  Dataset data = MakeDataset(4, 500, 7);
  Stack stack(&data);
  HttpClient client("127.0.0.1", stack.server->port());

  Result<HttpClientResponse> health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().status, 200);
  EXPECT_EQ(health.value().body, "{\"status\":\"ok\"}");

  Result<HttpClientResponse> datasets = client.Get("/v1/datasets");
  ASSERT_TRUE(datasets.ok());
  EXPECT_EQ(datasets.value().status, 200);
  Result<json::Value> doc = json::Parse(datasets.value().body);
  ASSERT_TRUE(doc.ok()) << datasets.value().body;
  const json::Value* list = doc.value().Find("datasets");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].Find("name")->AsString(), "taxi");
  EXPECT_EQ((*list)[0].Find("points")->AsNumber(), 500.0);
  EXPECT_EQ((*list)[0].Find("polygons")->AsNumber(), 4.0);
  EXPECT_EQ((*list)[0].Find("attribute_columns")->AsNumber(), 1.0);

  Result<HttpClientResponse> stats = client.Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().status, 200);
  Result<json::Value> sdoc = json::Parse(stats.value().body);
  ASSERT_TRUE(sdoc.ok()) << stats.value().body;
  EXPECT_NE(sdoc.value().Find("service"), nullptr);
  EXPECT_NE(sdoc.value().Find("server"), nullptr);
  EXPECT_NE(sdoc.value().Find("service")->Find("cache"), nullptr);
}

TEST(HttpServerTest, ErrorMappingFollowsTheStatusContract) {
  Dataset data = MakeDataset(4, 500, 9);
  Stack stack(&data);
  HttpClient client("127.0.0.1", stack.server->port());

  // Unknown route → 404.
  EXPECT_EQ(client.Get("/v2/query").value().status, 404);
  // Known path, wrong method → 405.
  EXPECT_EQ(client.Get("/v1/query").value().status, 405);

  // Malformed JSON → 400 carrying the versioned schema error.
  Result<HttpClientResponse> bad =
      client.Post("/v1/query", "{\"v\":1,\"query\":{\"fast\":true}}");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad.value().status, 400);
  EXPECT_NE(bad.value().body.find("v1 query spec"), std::string::npos)
      << bad.value().body;
  EXPECT_NE(bad.value().body.find("\"retryable\":false"), std::string::npos);

  // Unknown dataset → 404 NotFound.
  QuerySpec ghost =
      QuerySpecBuilder().Dataset("ghost").Count().Build().value();
  Result<HttpClientResponse> missing =
      client.Post("/v1/query", PostBody(ghost));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);
  EXPECT_NE(missing.value().body.find("\"name\":\"NotFound\""),
            std::string::npos)
      << missing.value().body;

  // Column past the dataset's width → 400 at submit (validated before
  // admission; the future resolves with InvalidArgument).
  QuerySpec wide =
      QuerySpecBuilder().Dataset("taxi").Sum(5).Build().value();
  Result<HttpClientResponse> invalid =
      client.Post("/v1/query", PostBody(wide));
  ASSERT_TRUE(invalid.ok());
  EXPECT_EQ(invalid.value().status, 400);
  EXPECT_NE(invalid.value().body.find("does not exist"), std::string::npos)
      << invalid.value().body;
}

TEST(HttpServerTest, OversizedCanvasIs400AndTheServerKeepsServing) {
  // The v1 codec accepts any positive canvas_dim; one above the device's
  // max_fbo_dim (1024 here) must be a 400, not a crash — and the next
  // request on the same connection is served.
  Dataset data = MakeDataset(4, 2000, 13);
  Stack stack(&data);
  HttpClient client("127.0.0.1", stack.server->port());

  for (const std::int32_t dim :
       {std::int32_t{1} << 20, std::numeric_limits<std::int32_t>::max()}) {
    QuerySpec huge = QuerySpecBuilder().Dataset("taxi").Count()
                         .Variant(JoinVariant::kAccurateRaster)
                         .CanvasDim(dim).Build().value();
    Result<HttpClientResponse> rejected =
        client.Post("/v1/query", PostBody(huge));
    ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
    EXPECT_EQ(rejected.value().status, 400);
    EXPECT_NE(rejected.value().body.find("max_fbo_dim"), std::string::npos)
        << rejected.value().body;
  }

  QuerySpec fits = QuerySpecBuilder().Dataset("taxi").Count()
                       .Variant(JoinVariant::kAccurateRaster)
                       .CanvasDim(1024).Build().value();
  Result<HttpClientResponse> served = client.Post("/v1/query", PostBody(fits));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served.value().status, 200) << served.value().body;
  Result<DecodedQueryResponse> decoded =
      ParseQueryResponse(served.value().body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  Result<QueryResult> expected =
      stack.service.dataset_executor(stack.dataset)
          ->ExecuteUncached(fits.ToQuery());
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ExpectBitwiseEqual(expected.value(), decoded.value());
  EXPECT_EQ(stack.server->http_stats().connections_accepted, 1u);
}

TEST(HttpServerTest, TinyEpsilonIs400AndTheServerKeepsServing) {
  // The v1 codec accepts any finite ε > 0; one whose bounded canvas plan
  // exceeds raster::kMaxCanvasTiles must be a 400, not an abort on a huge
  // allocation — and the next request on the same connection is served.
  Dataset data = MakeDataset(4, 2000, 29);
  Stack stack(&data);
  HttpClient client("127.0.0.1", stack.server->port());

  for (const double eps : {1e-6, 5e-324}) {
    QuerySpec tiny = QuerySpecBuilder().Dataset("taxi").Count()
                         .Variant(JoinVariant::kBoundedRaster)
                         .Epsilon(eps).Build().value();
    Result<HttpClientResponse> rejected =
        client.Post("/v1/query", PostBody(tiny));
    ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
    EXPECT_EQ(rejected.value().status, 400) << eps;
    EXPECT_NE(rejected.value().body.find("tiles"), std::string::npos)
        << rejected.value().body;
  }

  QuerySpec fits = QuerySpecBuilder().Dataset("taxi").Count()
                       .Variant(JoinVariant::kBoundedRaster)
                       .Epsilon(20.0).Build().value();
  Result<HttpClientResponse> served = client.Post("/v1/query", PostBody(fits));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served.value().status, 200) << served.value().body;
  Result<DecodedQueryResponse> decoded =
      ParseQueryResponse(served.value().body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  Result<QueryResult> expected =
      stack.service.dataset_executor(stack.dataset)
          ->ExecuteUncached(fits.ToQuery());
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ExpectBitwiseEqual(expected.value(), decoded.value());
  EXPECT_EQ(stack.server->http_stats().connections_accepted, 1u);
}

TEST(HttpServerTest, ContentLengthMustBeDigitsAndAgree) {
  // Content-Length is 1*DIGIT (RFC 9110 §8.6); a server must answer an
  // invalid one with 400 (RFC 9112 §6.3).
  Dataset data = MakeDataset(4, 500, 23);
  Stack stack(&data);
  const int port = stack.server->port();
  const std::string head = "GET /healthz HTTP/1.1\r\nHost: test\r\n";
  const char* const kBadLengths[] = {
      // A sign: "-1" must not wrap to 2^64-1 and read as too large (413),
      // and "+0" must not read as 0.
      "Content-Length: -1\r\n",
      "Content-Length: +0\r\n",
      // Repeats that disagree.
      "Content-Length: 0\r\nContent-Length: 5\r\n",
  };
  for (const char* lengths : kBadLengths) {
    EXPECT_EQ(RawRequestStatus(port, head + lengths + "\r\n"), 400) << lengths;
  }
  // Repeats that agree carry one valid length.
  const std::string agreeing =
      head + "Content-Length: 0\r\nContent-Length: 0\r\n\r\n";
  EXPECT_EQ(RawRequestStatus(port, agreeing), 200);

  // The server keeps serving: a well-formed request on a new connection.
  HttpClient client("127.0.0.1", port);
  Result<HttpClientResponse> health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().status, 200);
}

TEST(HttpServerTest, PerClientRateLimiting) {
  Dataset data = MakeDataset(4, 500, 11);
  QueryServerOptions options;
  options.rate_limit_qps = 0.001;  // effectively no refill within the test
  options.rate_limit_burst = 2.0;
  Stack stack(&data, {}, options);
  HttpClient client("127.0.0.1", stack.server->port());

  const QuerySpec spec =
      QuerySpecBuilder().Dataset("taxi").Count().Epsilon(4.0).Build().value();
  const std::vector<std::pair<std::string, std::string>> alice = {
      {"X-Client-Id", "alice"}};
  const std::vector<std::pair<std::string, std::string>> bob = {
      {"X-Client-Id", "bob"}};

  EXPECT_EQ(client.Post("/v1/query", PostBody(spec), alice).value().status,
            200);
  EXPECT_EQ(client.Post("/v1/query", PostBody(spec), alice).value().status,
            200);
  Result<HttpClientResponse> limited =
      client.Post("/v1/query", PostBody(spec), alice);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited.value().status, 429);
  const std::string* retry = limited.value().FindHeader("retry-after");
  ASSERT_NE(retry, nullptr);
  EXPECT_GE(std::stol(*retry), 1);
  EXPECT_NE(limited.value().body.find("\"retryable\":true"),
            std::string::npos)
      << limited.value().body;
  // The body carries the millisecond-fidelity hint the header cannot.
  EXPECT_NE(limited.value().body.find("\"retry_after_ms\":"),
            std::string::npos)
      << limited.value().body;

  // Distinct clients own distinct buckets.
  EXPECT_EQ(client.Post("/v1/query", PostBody(spec), bob).value().status,
            200);
  EXPECT_EQ(stack.server->rate_limited(), 1u);
}

/// The load-shedding acceptance criterion: when the service queue is full,
/// POST /v1/query fails fast with 503 + Retry-After (no hang, no crash),
/// while already-accepted queries still complete.
TEST(HttpServerTest, OverloadShedsWith503) {
  Dataset data = MakeDataset(6, 30000, 13);
  service::ServiceOptions service_options;
  service_options.num_dispatchers = 1;
  service_options.max_queue_depth = 1;
  // A slow simulated transfer link (~1.5 MB of points at 2 MB/s) keeps the
  // single dispatcher busy long enough that the queue stays full while the
  // HTTP request lands.
  Stack stack(&data, service_options, {},
              DeviceConfig(16 << 20, /*bandwidth=*/2 << 20));

  SpatialAggQuery slow;
  slow.spec.variant = JoinVariant::kBoundedRaster;
  slow.spec.epsilon = 5.0;
  // #1 occupies the dispatcher, #2 fills the depth-1 queue.
  auto running = stack.service.Submit(stack.dataset, slow.spec, slow.policy);
  auto queued = stack.service.Submit(stack.dataset, slow.spec, slow.policy);

  HttpClient client("127.0.0.1", stack.server->port());
  const QuerySpec spec =
      QuerySpecBuilder().Dataset("taxi").Count().Epsilon(5.0).Build().value();
  Result<HttpClientResponse> shed = client.Post("/v1/query", PostBody(spec));
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed.value().status, 503) << shed.value().body;
  ASSERT_NE(shed.value().FindHeader("retry-after"), nullptr);
  EXPECT_NE(shed.value().body.find("\"name\":\"CapacityError\""),
            std::string::npos)
      << shed.value().body;
  EXPECT_NE(shed.value().body.find("\"retryable\":true"), std::string::npos);
  EXPECT_GE(stack.server->shed(), 1u);

  // The accepted work was unaffected by the shed.
  EXPECT_TRUE(running.get().result.ok());
  EXPECT_TRUE(queued.get().result.ok());

  // Capacity released: the same request now succeeds.
  EXPECT_EQ(client.Post("/v1/query", PostBody(spec)).value().status, 200);
}

TEST(HttpServerTest, ConnectionCapShedsAtAccept) {
  Dataset data = MakeDataset(4, 500, 17);
  QueryServerOptions options;
  options.http.num_workers = 1;
  options.http.max_connections = 1;
  Stack stack(&data, {}, options);

  // First client occupies the only connection slot (keep-alive).
  HttpClient first("127.0.0.1", stack.server->port());
  ASSERT_EQ(first.Get("/healthz").value().status, 200);

  // Second connection is shed at the accept gate with a canned 503.
  HttpClient second("127.0.0.1", stack.server->port());
  Result<HttpClientResponse> busy = second.Get("/healthz");
  ASSERT_TRUE(busy.ok()) << busy.status().ToString();
  EXPECT_EQ(busy.value().status, 503);
  EXPECT_NE(busy.value().FindHeader("retry-after"), nullptr);

  // Freeing the first slot lets a new connection in (the worker notices
  // the close within its poll interval).
  first.Close();
  int status = 0;
  for (int attempt = 0; attempt < 50 && status != 200; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Result<HttpClientResponse> retry = second.Get("/healthz");
    if (retry.ok()) status = retry.value().status;
  }
  EXPECT_EQ(status, 200);
  EXPECT_GE(stack.server->http_stats().connections_shed, 1u);
}

/// Graceful drain: Shutdown() lets the in-flight request finish (its
/// response arrives complete, with Connection: close) and refuses new
/// connections afterwards.
TEST(HttpServerTest, GracefulDrainFinishesInFlightRequests) {
  Dataset data = MakeDataset(6, 30000, 19);
  // Slow transfers again, so the in-flight query is still executing when
  // Shutdown() starts.
  Stack stack(&data, {}, {}, DeviceConfig(16 << 20, /*bandwidth=*/2 << 20));

  Executor* executor = stack.service.dataset_executor(stack.dataset);
  const QuerySpec spec =
      QuerySpecBuilder().Dataset("taxi").Sum(0).Epsilon(5.0).Build().value();
  Result<QueryResult> expected = executor->ExecuteUncached(spec.ToQuery());
  ASSERT_TRUE(expected.ok());

  std::atomic<bool> accepted{false};
  std::thread inflight([&] {
    HttpClient client("127.0.0.1", stack.server->port());
    accepted.store(true);
    Result<HttpClientResponse> response =
        client.Post("/v1/query", PostBody(spec));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status, 200);
    // Draining responses tell the client not to reuse the connection.
    const std::string* conn = response.value().FindHeader("connection");
    ASSERT_NE(conn, nullptr);
    EXPECT_EQ(*conn, "close");
    Result<DecodedQueryResponse> decoded =
        ParseQueryResponse(response.value().body);
    ASSERT_TRUE(decoded.ok());
    ExpectBitwiseEqual(expected.value(), decoded.value());
  });

  while (!accepted.load()) std::this_thread::yield();
  // Wait until the query is actually executing inside the service — a fixed
  // sleep would race the simulated transfer and let the response finish
  // (keep-alive) before the drain cut. Bounded so a broken submit path
  // fails loudly instead of hanging.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (stack.service.stats().running == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "query never reached the service";
    std::this_thread::yield();
  }
  stack.server->Shutdown();
  inflight.join();

  // The drained server refuses new work.
  HttpClient after("127.0.0.1", stack.server->port());
  EXPECT_FALSE(after.Get("/healthz").ok());
}

}  // namespace
}  // namespace rj::net
