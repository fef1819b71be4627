#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <thread>

#include "join/join_common.h"
#include "net/wire.h"
#include "query/query_spec.h"

namespace perfbench {

namespace {

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process user+system CPU seconds, all threads.
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS. False
/// where /proc/self/clear_refs is not writable.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

/// VmHWM from /proc/self/status: the peak RSS since the last reset (or
/// since exec), in MB; ru_maxrss where /proc is unreadable.
double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      unsigned long long kib = 0;
      if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) {
        std::fclose(f);
        return static_cast<double>(kib) / 1024.0;
      }
    }
    std::fclose(f);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Steal and total CPU ticks of the host's /proc/stat (zeros where it is
/// unreadable). Steal is time the hypervisor ran something else while this
/// machine's CPUs had work.
struct HostTicks {
  unsigned long long steal = 0;
  unsigned long long total = 0;
};

HostTicks ReadHostTicks() {
  HostTicks t;
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      t.steal = v[7];
      for (const unsigned long long x : v) t.total += x;
    }
    std::fclose(f);
  }
  return t;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// The highest percentile with at least ten samples beyond it: the sample
/// with exactly ten larger ones (the maximum when there are fewer than 11).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

Tail TailOf(std::vector<double> v) {
  Tail tail;
  tail.samples = v.size();
  if (v.empty()) return tail;
  std::sort(v.begin(), v.end());
  tail.beyond = std::min<std::size_t>(10, v.size() - 1);
  const std::size_t rank = v.size() - 1 - tail.beyond;
  tail.value = v[rank];
  tail.percentile = 100.0 * static_cast<double>(v.size() - tail.beyond) /
                    static_cast<double>(v.size());
  return tail;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

/// One timed phase over trace positions [first, first + count).
struct PhaseResult {
  std::vector<Outcome> outcomes;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  Snapshot before;
  Snapshot after;

  std::size_t Successes() const {
    return static_cast<std::size_t>(std::count_if(
        outcomes.begin(), outcomes.end(),
        [](const Outcome& o) { return o.ok; }));
  }
  std::size_t Divergences() const {
    return static_cast<std::size_t>(std::count_if(
        outcomes.begin(), outcomes.end(),
        [](const Outcome& o) { return o.divergent; }));
  }
  std::size_t Executed() const {
    return static_cast<std::size_t>(std::count_if(
        outcomes.begin(), outcomes.end(),
        [](const Outcome& o) { return o.ok && !o.cache_hit; }));
  }
  /// Which successful requests Collect reads.
  enum class Subset { kAll, kExecuted, kHits };
  std::vector<double> Collect(double (*field)(const Outcome&),
                              Subset subset = Subset::kAll) const {
    std::vector<double> out;
    for (const Outcome& o : outcomes) {
      if (!o.ok) continue;
      if (subset == Subset::kExecuted && o.cache_hit) continue;
      if (subset == Subset::kHits && !o.cache_hit) continue;
      out.push_back(field(o));
    }
    return out;
  }
  double Throughput() const {
    return wall_s > 0.0 ? static_cast<double>(Successes()) / wall_s : 0.0;
  }
};

/// Closed loop: each client takes the next unissued trace position, issues
/// it, waits for the reply, and repeats. Positions never issued before the
/// deadline stay `issued == false` and count as failures.
PhaseResult RunPhase(Workload* workload, std::size_t first,
                     std::size_t count, Clock::time_point deadline,
                     Tracer* tracer) {
  PhaseResult phase;
  phase.outcomes.assign(count, Outcome{});
  std::vector<SpanBuffer*> buffers(kClients, nullptr);
  if (tracer != nullptr) {
    for (std::size_t c = 0; c < kClients; ++c) {
      buffers[c] = tracer->NewBuffer("client-" + std::to_string(c));
    }
  }
  std::atomic<std::size_t> next{0};
  phase.before = workload->Read();
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= count || Clock::now() > deadline) return;
        Outcome* out = &phase.outcomes[i];
        out->issued = true;
        workload->Issue(c, first + i, buffers[c], out);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  phase.wall_s = SecondsSince(t0);
  phase.cpu_s = CpuSeconds() - cpu0;
  phase.after = workload->Read();
  for (Outcome& o : phase.outcomes) {
    if (!o.issued) o.error = "not issued before the phase deadline";
  }
  return phase;
}

/// First failure of the phases, for the log.
std::string FirstError(const std::vector<const PhaseResult*>& phases) {
  for (const PhaseResult* phase : phases) {
    for (const Outcome& o : phase->outcomes) {
      if (!o.ok) return o.error.empty() ? "unknown failure" : o.error;
    }
  }
  return "";
}

double PerQuery(std::uint64_t delta, std::size_t base) {
  return base == 0 ? 0.0
                   : static_cast<double>(delta) / static_cast<double>(base);
}

double Share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// End-to-end metrics of the untraced rounds. Latency, throughput and CPU
/// figures are medians of their per-round values; success_share counts
/// every round.
void AddEndToEnd(const std::vector<PhaseResult>& rounds, double setup_s,
                 double peak_rss_mb, const std::string& peak_rss_note,
                 std::vector<Metric>* m) {
  std::vector<double> p50, tail, qps, cpu;
  std::size_t attempted = 0, successes = 0;
  Tail round_tail;
  for (const PhaseResult& round : rounds) {
    const std::vector<double> latencies_ms = round.Collect(
        [](const Outcome& o) { return o.latency_s * 1e3; });
    round_tail = TailOf(latencies_ms);
    p50.push_back(Median(latencies_ms));
    tail.push_back(round_tail.value);
    qps.push_back(round.Throughput());
    cpu.push_back(round.outcomes.empty()
                      ? 0.0
                      : round.cpu_s * 1e3 /
                            static_cast<double>(round.outcomes.size()));
    attempted += round.outcomes.size();
    successes += round.Successes();
  }
  const std::string per_round =
      rounds.size() == 1
          ? std::string()
          : "median of " + std::to_string(rounds.size()) + " rounds; ";
  char note[160];
  std::snprintf(note, sizeof(note), "%sp%.2f of %zu successes, %zu beyond",
                per_round.c_str(), round_tail.percentile, round_tail.samples,
                round_tail.beyond);
  m->push_back({"latency_p50_ms", Median(p50), "ms",
                per_round + std::to_string(successes) + " successes"});
  m->push_back({"latency_tail_ms", Median(tail), "ms", note});
  m->push_back({"throughput_qps", Median(qps), "req/s",
                per_round + "successes / wall time"});
  m->push_back({"success_share", Share(successes, attempted), "ratio",
                "base: " + std::to_string(attempted) + " attempted"});
  m->push_back({"cpu_ms_per_query", Median(cpu), "ms",
                per_round + "getrusage user+sys / attempted"});
  m->push_back({"peak_rss_mb", peak_rss_mb, "MB", peak_rss_note});
  m->push_back({"setup_s", setup_s, "s", "median of the run's set-ups"});
}

void AddPerLayer(Workload* workload, double untraced_qps,
                 const PhaseResult& traced, const Tracer& tracer,
                 const std::vector<double>& probed_response_bytes,
                 const std::vector<SetupTimes>& setups,
                 std::vector<Metric>* m) {
  const std::size_t attempted = traced.outcomes.size();
  const std::size_t executed = traced.Executed();
  const std::string exec_base =
      "base: " + std::to_string(executed) + " executed";
  const std::string attempt_base =
      "base: " + std::to_string(attempted) + " attempted";
  using Subset = PhaseResult::Subset;
  const auto ms = [](double s) { return s * 1e3; };
  const auto us = [](double s) { return s * 1e6; };

  // net: edge self time (client round trip minus the service's queue and
  // execute time; in-process this is the submit/future hand-off alone),
  // plus probes of the v1 request decoder and response encoder.
  m->push_back({"net.http_self_ms.p50",
                ms(Median(traced.Collect([](const Outcome& o) {
                  return o.latency_s - o.queue_s - o.execute_s;
                }))),
                "ms", "latency - queue - execute"});
  m->push_back({"net.decode_us.p50",
                us(Median(tracer.Durations("net.ParseQueryRequest"))), "us",
                "probe over the phase's request bodies"});
  m->push_back({"net.encode_us.p50",
                us(Median(tracer.Durations("net.QueryResponseJson"))), "us",
                "probe over the phase's responses"});
  {
    std::vector<double> bytes = traced.Collect(
        [](const Outcome& o) { return static_cast<double>(o.response_bytes); });
    const bool over_http =
        !bytes.empty() && *std::max_element(bytes.begin(), bytes.end()) > 0;
    if (!over_http) bytes = probed_response_bytes;
    m->push_back({"net.response_bytes.mean", Mean(bytes), "bytes",
                  over_http ? "HTTP bodies" : "encoded responses (probe)"});
  }

  // service
  const std::vector<double> queue =
      traced.Collect([](const Outcome& o) { return o.queue_s; });
  const std::vector<double> execute =
      traced.Collect([](const Outcome& o) { return o.execute_s; });
  m->push_back({"service.queue_ms.p50", ms(Median(queue)), "ms", ""});
  m->push_back({"service.queue_ms.tail", ms(TailOf(queue).value), "ms", ""});
  m->push_back({"service.execute_ms.p50", ms(Median(execute)), "ms", ""});
  m->push_back(
      {"service.execute_ms.tail", ms(TailOf(execute).value), "ms", ""});
  m->push_back({"service.granted_mb.mean",
                Mean(traced.Collect(
                    [](const Outcome& o) {
                      return static_cast<double>(o.granted_bytes);
                    },
                    Subset::kExecuted)) /
                    (1024.0 * 1024.0),
                "MB", exec_base});
  m->push_back({"service.failed",
                static_cast<double>(traced.after.service_failed -
                                    traced.before.service_failed),
                "count", "ServiceStats delta"});
  m->push_back({"service.rejected",
                static_cast<double>(traced.after.service_rejected -
                                    traced.before.service_rejected),
                "count", "ServiceStats delta"});

  // query: result cache, shard placement, plan cache
  const std::size_t hits = traced.Successes() - executed;
  m->push_back({"query.cache_hit_share", Share(hits, traced.Successes()),
                "ratio", "base: successes"});
  m->push_back({"query.cache_hit_us.p50",
                us(Median(traced.Collect(
                    [](const Outcome& o) { return o.execute_s; },
                    Subset::kHits))),
                "us", "lookup-only execute_seconds of hits"});
  const rj::query::ResultCacheStats& c0 = traced.before.cache;
  const rj::query::ResultCacheStats& c1 = traced.after.cache;
  m->push_back({"query.cache_inserts_per_query",
                PerQuery(c1.inserts - c0.inserts, attempted), "count",
                attempt_base});
  m->push_back({"query.cache_evictions_per_query",
                PerQuery(c1.evictions - c0.evictions, attempted), "count",
                attempt_base});
  std::uint64_t routed = 0, skipped = 0, shard_hits = 0;
  for (const Outcome& o : traced.outcomes) {
    if (!o.ok || o.cache_hit) continue;
    routed += o.shards_routed;
    skipped += o.shards_skipped;
    shard_hits += o.shard_cache_hits;
  }
  m->push_back({"query.shard_cache_hits_per_query",
                PerQuery(shard_hits, executed), "count", exec_base});
  m->push_back({"query.shards_routed_per_query", PerQuery(routed, executed),
                "count", exec_base});
  m->push_back({"query.shards_skipped_per_query",
                PerQuery(skipped, executed), "count", exec_base});
  m->push_back({"query.placement_us.p50",
                us(Median(tracer.Durations("query.Executor::PlanPlacement"))),
                "us", "probe over executed requests"});
  m->push_back({"query.admission_plan_us.p50",
                us(Median(tracer.Durations("query.Executor::PlanAdmission"))),
                "us", "probe over executed requests"});
  const rj::query::PlanCacheStats& p0 = traced.before.plan;
  const rj::query::PlanCacheStats& p1 = traced.after.plan;
  const std::uint64_t plan_hits = (p1.admission_hits - p0.admission_hits) +
                                  (p1.upload_hits - p0.upload_hits);
  const std::uint64_t plan_total =
      plan_hits + (p1.admission_misses - p0.admission_misses) +
      (p1.upload_misses - p0.upload_misses);
  m->push_back({"query.plan_cache_hit_share", Share(plan_hits, plan_total),
                "ratio", "base: " + std::to_string(plan_total) + " lookups"});

  // join: the timing phases of executed requests (summed over shards)
  const auto exec_ms = [&](double (*field)(const Outcome&)) {
    return ms(Median(traced.Collect(field, Subset::kExecuted)));
  };
  m->push_back({"join.processing_ms.p50",
                exec_ms([](const Outcome& o) { return o.processing_s; }),
                "ms", exec_base});
  m->push_back({"join.transfer_ms.p50",
                exec_ms([](const Outcome& o) { return o.transfer_s; }), "ms",
                exec_base});
  m->push_back({"join.disk_read_ms.p50",
                exec_ms([](const Outcome& o) { return o.disk_read_s; }),
                "ms", exec_base});
  m->push_back({"join.total_ms.p50",
                exec_ms([](const Outcome& o) { return o.total_s; }), "ms",
                exec_base});

  // gpu: pool counter deltas over the traced phase
  const rj::gpu::CountersSnapshot d =
      traced.after.pool.DeltaSince(traced.before.pool);
  m->push_back({"gpu.fragments_per_query", PerQuery(d.fragments, executed),
                "count", exec_base});
  m->push_back({"gpu.vertices_per_query", PerQuery(d.vertices, executed),
                "count", exec_base});
  m->push_back({"gpu.pip_tests_per_query", PerQuery(d.pip_tests, executed),
                "count", exec_base});
  m->push_back({"gpu.atomic_adds_per_query",
                PerQuery(d.atomic_adds, executed), "count", exec_base});
  m->push_back({"gpu.bytes_transferred_per_query",
                PerQuery(d.bytes_transferred, executed), "bytes", exec_base});
  m->push_back({"gpu.batches_per_query", PerQuery(d.batches, executed),
                "count", exec_base});
  m->push_back({"gpu.render_passes_per_query",
                PerQuery(d.render_passes, executed), "count", exec_base});
  double peak_reserved = 0.0, peak_allocated = 0.0;
  for (const rj::gpu::DeviceUtilization& u :
       workload->service()->pool()->Utilization()) {
    peak_reserved += static_cast<double>(u.peak_reserved_bytes);
    peak_allocated += static_cast<double>(u.peak_allocated_bytes);
  }
  m->push_back({"gpu.peak_reserved_mb", peak_reserved / (1024.0 * 1024.0),
                "MB", "sum over pool devices"});
  m->push_back({"gpu.peak_allocated_mb", peak_allocated / (1024.0 * 1024.0),
                "MB", "sum over pool devices"});

  // data: block scans and reads (zero off the disk tier)
  const std::uint64_t blocks = d.blocks_scanned + d.blocks_pruned;
  const std::uint64_t bytes_read =
      traced.after.bytes_read - traced.before.bytes_read;
  double disk_read_s = 0.0;
  for (const Outcome& o : traced.outcomes) {
    if (o.ok) disk_read_s += o.disk_read_s;
  }
  m->push_back({"data.blocks_scanned_per_query",
                PerQuery(d.blocks_scanned, executed), "count", exec_base});
  m->push_back({"data.blocks_pruned_share", Share(d.blocks_pruned, blocks),
                "ratio", "base: " + std::to_string(blocks) + " blocks"});
  m->push_back({"data.bytes_read_per_query", PerQuery(bytes_read, executed),
                "bytes", exec_base});
  m->push_back({"data.read_mb_per_s",
                disk_read_s > 0.0 ? static_cast<double>(bytes_read) /
                                        (1024.0 * 1024.0) / disk_read_s
                                  : 0.0,
                "MB/s", "bytes_read / summed disk_read phase (page cache)"});

  // set-up parts (medians over the run's set-ups) and trace overhead
  std::vector<double> load, reg, prep;
  for (const SetupTimes& s : setups) {
    load.push_back(s.load_s);
    reg.push_back(s.register_s);
    prep.push_back(s.prep_s);
  }
  m->push_back({"setup.load_s", Median(load), "s", ""});
  m->push_back({"setup.register_s", Median(reg), "s", ""});
  m->push_back({"setup.prep_s", Median(prep), "s", ""});
  m->push_back({"trace.overhead_share",
                untraced_qps > 0.0
                    ? 1.0 - traced.Throughput() / untraced_qps
                    : 0.0,
                "ratio",
                "1 - traced/untraced throughput_qps (" +
                    Number(untraced_qps) + " req/s untraced)"});
}

/// Side probes, single-threaded after the traced phase: layer functions the
/// request path runs but a client cannot time from outside. Returns the
/// encoded size of every probed response.
std::vector<double> RunProbes(Workload* workload, std::size_t first,
                              const PhaseResult& traced, Tracer* tracer) {
  constexpr std::size_t kMaxProbes = 1024;
  SpanBuffer* spans = tracer->NewBuffer("probe");
  const std::size_t n = std::min(kMaxProbes, traced.outcomes.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string body = workload->RequestBody(first + i);
    ScopedSpan span(spans, "net.ParseQueryRequest",
                    static_cast<std::int64_t>(first + i));
    rj::Result<rj::QueryRequest> parsed = rj::ParseQueryRequest(body);
    if (!parsed.ok()) std::fprintf(stderr, "probe: decode failed\n");
  }
  std::vector<double> response_bytes;
  for (std::size_t i = 0; i < n; ++i) {
    const rj::service::ServiceResponse response{workload->Reference(first + i),
                                                {}};
    ScopedSpan span(spans, "net.QueryResponseJson",
                    static_cast<std::int64_t>(first + i));
    response_bytes.push_back(
        static_cast<double>(rj::net::QueryResponseJson(response).size()));
  }
  rj::Executor* executor = workload->executor();
  std::size_t probed = 0;
  for (std::size_t i = 0; i < traced.outcomes.size() && probed < kMaxProbes;
       ++i) {
    const Outcome& o = traced.outcomes[i];
    if (!o.ok || o.cache_hit) continue;
    ++probed;
    const rj::SpatialAggQuery query = workload->Query(first + i);
    {
      ScopedSpan span(spans, "query.Executor::PlanPlacement",
                      static_cast<std::int64_t>(first + i));
      auto placement = executor->PlanPlacement(query);
      if (!placement.ok()) std::fprintf(stderr, "probe: placement failed\n");
    }
    {
      ScopedSpan span(spans, "query.Executor::PlanAdmission",
                      static_cast<std::int64_t>(first + i));
      auto plan = executor->PlanAdmission(query);
      if (!plan.ok()) std::fprintf(stderr, "probe: admission failed\n");
    }
  }
  return response_bytes;
}

void PrintFacts(const Options& options, Workload* workload) {
  std::vector<std::pair<std::string, std::string>> facts = {
      {"workload", options.workload},
      {"seed", std::to_string(options.seed)},
      {"seconds", Number(options.seconds)},
      {"trace", options.trace ? "1" : "0"},
      {"scale", Number(options.scale)},
      {"requests_per_round", std::to_string(workload->requests_per_phase())},
      {"timed_rounds", std::to_string(workload->timed_rounds())},
      {"warm_requests", std::to_string(workload->warm_requests())},
      {"clients", std::to_string(kClients)},
      {"dispatchers", std::to_string(kDispatchers)},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"commit", options.commit},
      {"load", "closed loop, fixed trace and request count per seed"},
  };
  for (auto& kv : workload->Facts()) facts.push_back(std::move(kv));
  std::string line = "{";
  for (std::size_t i = 0; i < facts.size(); ++i) {
    line += (i == 0 ? "\"" : ",\"") + JsonEscape(facts[i].first) + "\":\"" +
            JsonEscape(facts[i].second) + "\"";
  }
  line += "}";
  std::printf("# facts %s\n", line.c_str());
}

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-36s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + Number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int Fail(const char* stage, const rj::Status& status) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", stage,
               status.ToString().c_str());
  return 1;
}

}  // namespace

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::size_t Scaled(std::size_t n, double scale, std::size_t floor) {
  const auto scaled =
      static_cast<std::size_t>(std::llround(static_cast<double>(n) * scale));
  return std::max(floor, scaled);
}

std::size_t PhaseLength(std::size_t cycle, double rate,
                        const Options& options) {
  const double cycles = rate * options.seconds * options.scale /
                        static_cast<double>(cycle);
  return cycle * std::max<std::size_t>(
                     1, static_cast<std::size_t>(std::llround(cycles)));
}

std::vector<std::size_t> SeededPermutation(std::size_t n, rj::Rng* rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng->UniformInt(i)]);
  }
  return order;
}

std::int32_t SpanBuffer::Begin(const char* name, std::int64_t request,
                               std::int32_t parent) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.start_s = Now();
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanBuffer::End(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_s = Now();
}

double SpanBuffer::Now() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

SpanBuffer* Tracer::NewBuffer(std::string thread_name) {
  buffers_.emplace_back(std::move(thread_name),
                        std::make_unique<SpanBuffer>(epoch_));
  return buffers_.back().second.get();
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& [thread, buffer] : buffers_) {
    for (const Span& s : buffer->spans()) {
      if (name == s.name) out.push_back(s.end_s - s.start_s);
    }
  }
  return out;
}

rj::Status Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return rj::Status::IOError("cannot write " + path);
  for (const auto& [thread, buffer] : buffers_) {
    const std::vector<Span>& spans = buffer->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"thread\":\"%s\",\"id\":%zu,\"parent\":%d,"
                   "\"request\":%lld,\"name\":\"%s\",\"start_us\":%.3f,"
                   "\"dur_us\":%.3f}\n",
                   thread.c_str(), i, s.parent,
                   static_cast<long long>(s.request), s.name, s.start_s * 1e6,
                   (s.end_s - s.start_s) * 1e6);
    }
  }
  std::fclose(f);
  return rj::Status::OK();
}

bool BitwiseEqual(const std::vector<double>& got,
                  const std::vector<double>& want) {
  return got.size() == want.size() &&
         (got.empty() ||
          std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) ==
              0);
}

rj::Result<std::vector<rj::QueryResult>> ComputeReferences(
    rj::Executor* executor, const std::vector<rj::SpatialAggQuery>& queries) {
  std::vector<rj::QueryResult> results(queries.size());
  std::vector<rj::Status> errors(kClients, rj::Status::OK());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = next.fetch_add(1); i < queries.size();
           i = next.fetch_add(1)) {
        rj::Result<rj::QueryResult> r = executor->ExecuteUncached(queries[i]);
        if (!r.ok()) {
          errors[c] = r.status();
          return;
        }
        results[i] = r.MoveValueUnsafe();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const rj::Status& st : errors) RJ_RETURN_NOT_OK(st);
  return results;
}

void FlipLowestBit(std::vector<double>* values) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, values->data(), sizeof(bits));
  bits ^= 1;
  std::memcpy(values->data(), &bits, sizeof(bits));
}

void RecordServiceResponse(const rj::service::ServiceResponse& response,
                           const std::vector<double>& expected,
                           Outcome* out) {
  if (!response.result.ok()) {
    out->error = response.result.status().ToString();
    return;
  }
  const rj::QueryResult& result = response.result.value();
  const rj::service::QueryStats& stats = response.stats;
  out->cache_hit = stats.cache_hit;
  out->queue_s = stats.queue_seconds;
  out->execute_s = stats.execute_seconds;
  out->total_s = result.total_seconds;
  out->processing_s = result.timing.Get(rj::phase::kProcessing);
  out->transfer_s = result.timing.Get(rj::phase::kTransfer);
  out->disk_read_s = result.timing.Get(rj::phase::kDiskRead);
  out->granted_bytes = stats.granted_bytes;
  out->shards_routed = stats.shards_routed;
  out->shards_skipped = stats.shards_skipped;
  out->shard_cache_hits = stats.shard_cache_hits;
  if (!BitwiseEqual(result.values, expected)) {
    out->divergent = true;
    out->error = "values differ from the ExecuteUncached reference";
    return;
  }
  out->ok = true;
}

Snapshot Workload::Read() {
  Snapshot s;
  rj::service::QueryService* svc = service();
  s.pool = svc->pool()->TotalCounters();
  const rj::service::ServiceStats stats = svc->stats();
  s.cache = stats.cache;
  s.service_failed = stats.failed;
  s.service_rejected = stats.rejected;
  rj::Executor* ex = executor();
  s.plan = ex->plan_cache_stats();
  if (const rj::data::PointBlockSource* source = ex->block_source()) {
    s.bytes_read = source->bytes_read();
  }
  return s;
}

void CyclicSpecWorkload::SetTrace(std::vector<rj::QuerySpec> specs,
                                  std::uint64_t seed, double rate,
                                  const Options& options) {
  specs_ = std::move(specs);
  rj::Rng rng(seed);
  order_ = SeededPermutation(specs_.size(), &rng);
  per_phase_ = PhaseLength(specs_.size(), rate, options);
}

rj::ExecPolicy CyclicSpecWorkload::reference_policy() const {
  rj::ExecPolicy policy = policy_;
  policy.use_result_cache = false;
  policy.shard_cache = false;
  return policy;
}

rj::Status CyclicSpecWorkload::ComputeReferences() {
  std::vector<rj::SpatialAggQuery> queries;
  for (const rj::QuerySpec& spec : specs_) {
    queries.push_back(spec.ToQuery(reference_policy()));
  }
  RJ_ASSIGN_OR_RETURN(references_,
                      perfbench::ComputeReferences(executor(), queries));
  return rj::Status::OK();
}

void CyclicSpecWorkload::CorruptOneReference() {
  FlipLowestBit(&references_[SpecAt(warm_requests())].values);
}

void CyclicSpecWorkload::Issue(std::size_t /*client*/, std::size_t index,
                               SpanBuffer* spans, Outcome* out) {
  constexpr double kClientTimeoutSeconds = 60.0;
  const std::size_t spec = SpecAt(index);
  const auto request = static_cast<std::int64_t>(index);
  ScopedSpan root(spans, "bench.request", request);
  const Clock::time_point t0 = Clock::now();
  std::future<rj::service::ServiceResponse> future;
  {
    ScopedSpan span(spans, "service.QueryService::Submit", request, root.id());
    future = service_->Submit(dataset_, specs_[spec], policy_);
  }
  rj::service::ServiceResponse response{rj::Status::Internal("no reply"), {}};
  {
    ScopedSpan span(spans, "service.future::get", request, root.id());
    if (future.wait_for(std::chrono::duration<double>(
            kClientTimeoutSeconds)) == std::future_status::ready) {
      response = future.get();
    } else {
      out->error = "client timeout";
    }
  }
  out->latency_s = SecondsSince(t0);
  if (out->error.empty()) {
    RecordServiceResponse(response, references_[spec].values, out);
  }
}

std::string CyclicSpecWorkload::RequestBody(std::size_t index) const {
  rj::QueryRequest request;
  request.spec = specs_[SpecAt(index)];
  request.policy = policy_;
  return rj::QueryRequestToJson(request);
}

rj::SpatialAggQuery CyclicSpecWorkload::Query(std::size_t index) const {
  return specs_[SpecAt(index)].ToQuery(policy_);
}

int RunWorkload(Workload* workload, const Options& options) {
  Tracer tracer;
  if (rj::Status st = workload->Generate(options); !st.ok()) {
    return Fail("input generation", st);
  }

  // Set-up, repeated; each one replaces the previous system under test.
  constexpr int kSetups = 5;
  std::vector<SetupTimes> setups;
  std::vector<double> setup_totals;
  for (int k = 0; k < kSetups; ++k) {
    SetupTimes times;
    if (options.trace) times.spans = tracer.NewBuffer("setup");
    if (rj::Status st = workload->SetUp(&times); !st.ok()) {
      return Fail("set-up", st);
    }
    if (rj::Status st = workload->Settle(); !st.ok()) {
      return Fail("settle", st);
    }
    setups.push_back(times);
    setup_totals.push_back(times.load_s + times.register_s + times.prep_s);
  }

  workload->DropInputs();
  if (rj::Status st = workload->ComputeReferences(); !st.ok()) {
    return Fail("references", st);
  }
  if (options.corrupt_expected) workload->CorruptOneReference();

  // peak_rss_mb covers the serving phases only: the kernel's peak mark is
  // reset once set-up and references are done and read after the timed
  // rounds.
  malloc_trim(0);
  const bool peak_reset = ResetPeakRss();
  const std::string peak_rss_note =
      peak_reset ? "VmHWM over warm pass and timed rounds"
                 : "peak since start (clear_refs not writable)";

  const std::size_t n = workload->requests_per_phase();
  const std::size_t rounds = workload->timed_rounds();
  const std::size_t warm = workload->warm_requests();
  PrintFacts(options, workload);
  // A phase's deadline only guards against a hang; the timed rounds share
  // one.
  const auto deadline = [&options] {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(std::min(
                                  70.0, 4.0 * options.seconds + 10.0)));
  };

  const PhaseResult warm_phase =
      RunPhase(workload, 0, warm, deadline(), nullptr);
  const bool warm_diverged = warm_phase.Divergences() != 0;
  if (warm_phase.Successes() != warm && !warm_diverged) {
    std::fprintf(stderr, "perfbench: warm pass failed: %s\n",
                 FirstError({&warm_phase}).c_str());
    return 1;
  }

  std::vector<PhaseResult> untraced;
  const Clock::time_point timed_deadline = deadline();
  const HostTicks ticks0 = ReadHostTicks();
  for (std::size_t r = 0; r < rounds; ++r) {
    untraced.push_back(
        RunPhase(workload, warm + r * n, n, timed_deadline, nullptr));
  }
  const HostTicks ticks1 = ReadHostTicks();
  const double peak_rss_mb = PeakRssMb();
  std::printf("# host steal over the timed rounds: %.2f%% of CPU time\n",
              100.0 * Share(ticks1.steal - ticks0.steal,
                            ticks1.total - ticks0.total));
  std::vector<double> round_qps;
  for (const PhaseResult& round : untraced) {
    round_qps.push_back(round.Throughput());
  }
  PhaseResult traced;
  std::vector<double> probed_response_bytes;
  if (options.trace) {
    const std::size_t first = warm + rounds * n;
    traced = RunPhase(workload, first, n, deadline(), &tracer);
    probed_response_bytes = RunProbes(workload, first, traced, &tracer);
  }

  std::vector<const PhaseResult*> reported;
  if (options.trace) {
    reported.push_back(&traced);
  } else {
    for (const PhaseResult& round : untraced) reported.push_back(&round);
  }
  std::size_t divergences = warm_phase.Divergences() + traced.Divergences();
  for (const PhaseResult& round : untraced) divergences += round.Divergences();
  const bool correct = divergences == 0;
  std::size_t attempted = 0;
  std::size_t successes = 0;
  for (const PhaseResult* phase : reported) {
    attempted += phase->outcomes.size();
    successes += phase->Successes();
  }
  const std::size_t failed = attempted - successes;
  if (failed != 0) {
    std::printf("# failures: %zu of %zu; first: %s\n", failed, attempted,
                FirstError(reported).c_str());
  }
  if (!correct) {
    std::printf("# DIVERGENCE: %zu responses differ from their reference\n",
                divergences);
  }

  std::vector<Metric> metrics;
  if (options.trace) {
    AddPerLayer(workload, Median(round_qps), traced, tracer,
                probed_response_bytes, setups, &metrics);
    const std::string path = options.work_dir + "/trace-" +
                             options.workload + "-seed" +
                             std::to_string(options.seed) + ".jsonl";
    if (rj::Status st = tracer.Write(path); st.ok()) {
      std::printf("# spans written to %s\n", path.c_str());
    }
  } else {
    AddEndToEnd(untraced, Median(setup_totals), peak_rss_mb, peak_rss_note,
                &metrics);
  }
  workload->TearDown();
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace perfbench
