/// \file bench_cache_throughput.cpp
/// \brief Result-cache throughput: cold vs. warm queries/sec through
/// QueryService, plus a hit-rate sweep over repeat probability.
///
/// Not a paper figure — the paper runs each query once. This bench drives
/// the ROADMAP repeated-traffic direction (interactive exploration: many
/// clients re-issuing the same spatial aggregations): with the
/// executor-level result cache on, a repeated query is a hash lookup plus
/// a copy instead of a join, and it bypasses admission entirely. Reported
/// signals:
///   * cold qps (every submission a distinct key — all misses) vs. warm
///     qps (the same keys re-submitted — all hits); warm/cold is the
///     cache's speedup on repeated traffic (≥ 5× expected even on a
///     single-hardware-thread host, typically far more),
///   * a repeat-probability sweep: realized hit rate and qps as the
///     workload shifts from all-distinct to all-repeat,
///   * bitwise identity of every cached response with an uncached
///     Executor::ExecuteUncached of the same query (hard failure, exit 1,
///     otherwise) — the cache must never change a result.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "query/executor.h"
#include "service/query_service.h"

using namespace rj;
using namespace rj::bench;

namespace {

/// Distinct query shapes: an ε sweep over the bounded join plus accurate /
/// filtered / CPU variants — the "slightly-varying parameters" pattern of
/// interactive exploration.
std::vector<SpatialAggQuery> DistinctQueries(std::size_t n) {
  std::vector<SpatialAggQuery> queries;
  for (std::size_t i = 0; i < n; ++i) {
    SpatialAggQuery q;
    switch (i % 4) {
      case 0:
        q.spec.variant = JoinVariant::kBoundedRaster;
        q.spec.epsilon = 60.0 + 10.0 * static_cast<double>(i);
        break;
      case 1:
        q.spec.variant = JoinVariant::kBoundedRaster;
        q.spec.epsilon = 80.0 + 10.0 * static_cast<double>(i);
        q.spec.aggregate = AggregateKind::kSum;
        q.spec.aggregate_column = 3;  // integer "passengers": exact sums
        break;
      case 2:
        q.spec.variant = JoinVariant::kAccurateRaster;
        q.spec.canvas_dim = 256 + 16 * static_cast<std::int32_t>(i);
        break;
      default:
        q.spec.variant = JoinVariant::kIndexCpu;
        q.spec.aggregate = AggregateKind::kMax;
        q.spec.aggregate_column = 0;
        (void)q.spec.filters.Add(
            {0, FilterOp::kGreater, 2.0f + static_cast<float>(i)});
        break;
    }
    queries.push_back(q);
  }
  return queries;
}

bool Identical(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool both_nan = std::isnan(a[i]) && std::isnan(b[i]);
    if (!both_nan && a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace

int main() {
  PrintHeader("Result-cache throughput: cold vs warm + hit-rate sweep",
              "ROADMAP repeated-traffic direction (not a paper figure)");

  auto regions = NycNeighborhoods();
  if (!regions.ok()) return 1;
  PolygonSet polys = regions.value();
  const PointTable points = GenerateTaxiPoints(Scaled(150'000));

  constexpr std::size_t kDistinct = 12;
  constexpr std::size_t kWarmRepeats = 5;
  const std::vector<SpatialAggQuery> queries = DistinctQueries(kDistinct);

  bool all_identical = true;
  BenchJson json("cache_throughput");

  // --- Cold vs warm. ------------------------------------------------------
  gpu::Device device(PaperDeviceOptions(16ull << 20));
  service::ServiceOptions sopts;
  sopts.num_dispatchers = 2;
  sopts.max_queue_depth = 256;
  sopts.result_cache_bytes = 64ull << 20;
  service::QueryService service(&device, sopts);
  const std::size_t dataset = service.RegisterDataset(&points, &polys);
  Executor* executor = service.dataset_executor(dataset);
  // Warm the preprocessing caches so cold-vs-warm isolates the *result*
  // cache, not first-query triangulation.
  (void)executor->GetTriangulation();
  (void)executor->GetCpuIndex(kDefaultGridResolution);

  // Uncached ground truth through the very same executor.
  std::vector<std::vector<double>> expected;
  for (const SpatialAggQuery& q : queries) {
    auto r = executor->ExecuteUncached(q);
    if (!r.ok()) {
      std::fprintf(stderr, "baseline failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    expected.push_back(r.value().values);
  }

  const double cold_seconds = TimeOnce([&] {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      service::ServiceResponse response =
          service.Submit(dataset, queries[i].spec, queries[i].policy).get();
      if (!response.result.ok() ||
          !Identical(expected[i], response.result.value().values)) {
        all_identical = false;
      }
    }
  });
  const double cold_qps = static_cast<double>(queries.size()) / cold_seconds;

  std::size_t warm_hits = 0;
  const double warm_seconds = TimeOnce([&] {
    for (std::size_t rep = 0; rep < kWarmRepeats; ++rep) {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        service::ServiceResponse response =
            service.Submit(dataset, queries[i].spec, queries[i].policy).get();
        if (!response.result.ok() ||
            !Identical(expected[i], response.result.value().values)) {
          all_identical = false;
        }
        if (response.stats.cache_hit) ++warm_hits;
      }
    }
  });
  const std::size_t warm_queries = kWarmRepeats * queries.size();
  const double warm_qps = static_cast<double>(warm_queries) / warm_seconds;
  const double speedup = warm_qps / cold_qps;

  std::printf("%-6s | %10s %12s %10s %10s\n", "pass", "queries", "wall(ms)",
              "qps", "hits");
  std::printf("%-6s | %10zu %12.1f %10.1f %10s\n", "cold", queries.size(),
              cold_seconds * 1e3, cold_qps, "0");
  std::printf("%-6s | %10zu %12.1f %10.1f %10zu\n", "warm", warm_queries,
              warm_seconds * 1e3, warm_qps, warm_hits);
  std::printf("warm/cold speedup: %.1fx (>= 5x expected)\n\n", speedup);

  json.Row()
      .Field("section", std::string("cold"))
      .Field("queries", queries.size())
      .Field("wall_ms", cold_seconds * 1e3)
      .Field("qps", cold_qps);
  json.Row()
      .Field("section", std::string("warm"))
      .Field("queries", warm_queries)
      .Field("wall_ms", warm_seconds * 1e3)
      .Field("qps", warm_qps)
      .Field("hits", warm_hits)
      .Field("speedup_vs_cold", speedup);

  // --- Hit-rate sweep: fresh service per repeat probability. --------------
  // A pool of distinct shapes at least as large as the submission count,
  // so at p = 0 every submission is a genuine miss and the realized hit
  // rate tracks p.
  constexpr std::size_t kSubmissions = 48;
  const std::vector<SpatialAggQuery> sweep_queries =
      DistinctQueries(kSubmissions);
  std::vector<std::vector<double>> sweep_expected;
  for (const SpatialAggQuery& q : sweep_queries) {
    auto r = executor->ExecuteUncached(q);
    if (!r.ok()) {
      std::fprintf(stderr, "sweep baseline failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    sweep_expected.push_back(r.value().values);
  }

  std::printf("hit-rate sweep (%zu submissions each):\n", kSubmissions);
  std::printf("%-10s | %10s %10s %10s\n", "p(repeat)", "qps", "hit_rate",
              "identical");
  for (const double p : {0.0, 0.25, 0.5, 0.75, 0.95}) {
    gpu::Device sweep_device(PaperDeviceOptions(16ull << 20));
    service::QueryService sweep_service(&sweep_device, sopts);
    const std::size_t ds = sweep_service.RegisterDataset(&points, &polys);
    (void)sweep_service.dataset_executor(ds)->GetTriangulation();
    (void)sweep_service.dataset_executor(ds)->GetCpuIndex(
        kDefaultGridResolution);

    Rng rng(12345 + static_cast<std::uint64_t>(p * 100));
    std::size_t next_distinct = 0;
    std::vector<std::size_t> seen;  // indexes already issued, reissuable
    bool sweep_identical = true;
    const double seconds = TimeOnce([&] {
      for (std::size_t s = 0; s < kSubmissions; ++s) {
        std::size_t pick;
        if (!seen.empty() && rng.Uniform(0.0, 1.0) < p) {
          pick = seen[rng.UniformInt(seen.size())];  // repeat
        } else {
          pick = next_distinct++;  // fresh shape (pool >= submissions)
          seen.push_back(pick);
        }
        const SpatialAggQuery& q = sweep_queries[pick];
        service::ServiceResponse response =
            sweep_service.Submit(ds, q.spec, q.policy).get();
        if (!response.result.ok() ||
            !Identical(sweep_expected[pick],
                       response.result.value().values)) {
          sweep_identical = false;
        }
      }
    });
    const auto stats = sweep_service.stats().cache;
    const double hit_rate =
        static_cast<double>(stats.hits + stats.shared_flights) /
        static_cast<double>(kSubmissions);
    const double qps = static_cast<double>(kSubmissions) / seconds;
    all_identical = all_identical && sweep_identical;
    std::printf("%-10.2f | %10.1f %10.2f %10s\n", p, qps, hit_rate,
                sweep_identical ? "yes" : "NO");
    json.Row()
        .Field("section", std::string("hit_rate_sweep"))
        .Field("p_repeat", p)
        .Field("submissions", kSubmissions)
        .Field("qps", qps)
        .Field("hit_rate", hit_rate);
  }

  std::printf(
      "\nShape check: warm qps >= 5x cold even on this host (a hit is a\n"
      "lookup + copy, no admission, no device work); qps grows with the\n"
      "repeat probability; every cached response is bitwise identical to\n"
      "uncached execution.\n");

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: cached results diverged from fresh execution\n");
    return 1;
  }
  return 0;
}
