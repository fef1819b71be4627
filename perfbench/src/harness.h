/// \file harness.h
/// \brief Shared machinery of the repository benchmark: options, spans,
/// the closed-loop runner, latency statistics, and the run skeleton every
/// workload goes through.
///
/// A run is: seeded inputs → set-up (timed, repeated, median reported) →
/// references (Executor::ExecuteUncached per distinct request) → warm pass
/// → timed rounds with tracing off. With --trace 1 the same run continues
/// with a traced phase of one round's length over the next stretch of the
/// same trace and then times side probes of layer functions the request
/// path does not expose to a client. End-to-end metrics are medians over
/// the untraced rounds, per-layer metrics come from the traced phase.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "gpu/counters.h"
#include "query/executor.h"
#include "query/result_cache.h"
#include "service/query_service.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Closed-loop client threads, identical on every workload. Kept at or
/// below the dispatcher count: QueryService consults the result cache on a
/// dispatcher thread, so a third client would queue cache hits behind
/// device work.
inline constexpr std::size_t kClients = 2;
/// Dispatcher threads of every service under test.
inline constexpr std::size_t kDispatchers = 2;

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Input-size multiplier; only the self-test shrinks it.
  double scale = 1.0;
  /// Directory for the run's scratch files (column store, block file,
  /// span dump). Created if missing; data files are removed at exit.
  std::string work_dir = ".";
  /// Source identity stamped on the result (commit or tree digest).
  std::string commit = "unknown";
  /// Flip one bit of one reference vector: the correctness gate must trip.
  bool corrupt_expected = false;
};

/// Mixes the workload seed with a per-input salt, so points, polygons and
/// the request trace draw from independent streams.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t salt);

/// `n` scaled by `scale`, never below `floor`.
std::size_t Scaled(std::size_t n, double scale, std::size_t floor);

/// A timed phase's fixed request count: whole trace cycles of `cycle`
/// requests, about `rate` requests per second of options.seconds (scaled).
std::size_t PhaseLength(std::size_t cycle, double rate,
                        const Options& options);

/// A seeded Fisher-Yates permutation of [0, n).
std::vector<std::size_t> SeededPermutation(std::size_t n, rj::Rng* rng);

// --- Spans ------------------------------------------------------------------

/// One call the benchmark made into a layer's public function. Spans of one
/// request share `request` (-1 for set-up and probes); `parent` indexes the
/// enclosing span in the same buffer (-1 at a root).
struct Span {
  const char* name = "";
  std::int64_t request = -1;
  std::int32_t parent = -1;
  double start_s = 0.0;  ///< since the tracer's epoch
  double end_s = 0.0;
};

/// Append-only span list owned by one thread (no locking).
class SpanBuffer {
 public:
  explicit SpanBuffer(Clock::time_point epoch) : epoch_(epoch) {}
  std::int32_t Begin(const char* name, std::int64_t request,
                     std::int32_t parent);
  void End(std::int32_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double Now() const;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span; a null buffer records nothing (tracing off).
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, std::int64_t request = -1,
             std::int32_t parent = -1)
      : buffer_(buffer),
        id_(buffer != nullptr ? buffer->Begin(name, request, parent) : -1) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int32_t id() const { return id_; }

 private:
  SpanBuffer* buffer_;
  std::int32_t id_;
};

/// Times one set-up call into `*seconds` and records it as a span (when
/// `spans` is non-null).
class SetupLap {
 public:
  SetupLap(SpanBuffer* spans, const char* name, double* seconds)
      : span_(spans, name), seconds_(seconds), start_(Clock::now()) {}
  ~SetupLap() {
    *seconds_ = std::chrono::duration<double>(Clock::now() - start_).count();
  }
  SetupLap(const SetupLap&) = delete;
  SetupLap& operator=(const SetupLap&) = delete;

 private:
  ScopedSpan span_;
  double* seconds_;
  Clock::time_point start_;
};

/// Owns the span buffers of a run; writes them as JSON lines at the end.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}
  /// A new buffer for one thread. Call before the thread starts; the
  /// pointer stays valid for the tracer's lifetime.
  SpanBuffer* NewBuffer(std::string thread_name);
  /// Durations in seconds of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  rj::Status Write(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<std::pair<std::string, std::unique_ptr<SpanBuffer>>> buffers_;
};

// --- Requests -----------------------------------------------------------------

/// What one request returned, as the client saw it plus the durations and
/// counters the program attaches to its response.
struct Outcome {
  bool issued = false;
  bool ok = false;         ///< success, bitwise equal to the reference
  bool divergent = false;  ///< success whose payload differs
  double latency_s = 0.0;  ///< client-observed
  bool cache_hit = false;
  double queue_s = 0.0;    ///< QueryStats::queue_seconds
  double execute_s = 0.0;  ///< QueryStats::execute_seconds
  double total_s = 0.0;    ///< QueryResult::total_seconds
  double processing_s = 0.0;  ///< QueryResult::timing, summed over shards
  double transfer_s = 0.0;
  double disk_read_s = 0.0;
  std::uint64_t granted_bytes = 0;
  std::size_t shards_routed = 0;
  std::size_t shards_skipped = 0;
  std::size_t shard_cache_hits = 0;
  std::size_t response_bytes = 0;  ///< HTTP body size (0 in-process)
  std::string error;
};

/// True when `got` and `want` hold the same doubles bit for bit.
bool BitwiseEqual(const std::vector<double>& got,
                  const std::vector<double>& want);

/// Fills `out` from an in-process service response and checks its values
/// against `expected`.
void RecordServiceResponse(const rj::service::ServiceResponse& response,
                           const std::vector<double>& expected, Outcome* out);

/// Executor::ExecuteUncached of every query on the registered dataset,
/// kClients at a time: the references every response is checked against.
rj::Result<std::vector<rj::QueryResult>> ComputeReferences(
    rj::Executor* executor, const std::vector<rj::SpatialAggQuery>& queries);

/// Flips the lowest bit of the first value (the gate's self-test).
void FlipLowestBit(std::vector<double>* values);

/// Work counters read around a timed phase.
struct Snapshot {
  rj::gpu::CountersSnapshot pool;
  rj::query::ResultCacheStats cache;
  rj::query::PlanCacheStats plan;
  std::uint64_t service_failed = 0;
  std::uint64_t service_rejected = 0;
  std::uint64_t bytes_read = 0;  ///< PointBlockSource::bytes_read
};

/// Wall time of the three set-up parts of one set-up, and where their
/// spans go (null when untraced).
struct SetupTimes {
  SpanBuffer* spans = nullptr;
  double load_s = 0.0;      ///< ReadColumnStore / Partition / Write
  double register_s = 0.0;  ///< QueryService::Register*
  double prep_s = 0.0;      ///< Executor::GetTriangulation
};

/// One workload: a seeded system under test plus a fixed request trace.
/// Trace positions [0, warm_requests()) are the warm pass; the timed rounds
/// and then the traced phase take the following stretches of
/// requests_per_phase() positions.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Seeded synthetic inputs (excluded from set-up time).
  virtual rj::Status Generate(const Options& options) = 0;
  /// One set-up of the system under test, replacing the previous one.
  virtual rj::Status SetUp(SetupTimes* times) = 0;
  /// Flushes what set-up wrote, so writeback stays out of timed phases.
  virtual rj::Status Settle() { return rj::Status::OK(); }
  /// Frees generated inputs only set-up reads, after the last set-up, so
  /// the serving phases' peak RSS is the system's own footprint.
  virtual void DropInputs() {}
  /// Executor::ExecuteUncached of every distinct request.
  virtual rj::Status ComputeReferences() = 0;
  /// Flips one bit of one reference (the gate's self-test).
  virtual void CorruptOneReference() = 0;

  virtual std::size_t warm_requests() const = 0;
  virtual std::size_t requests_per_phase() const = 0;
  /// Untraced timed rounds per run.
  virtual std::size_t timed_rounds() const { return 1; }
  /// Issues trace position `index` from client `client` and waits.
  virtual void Issue(std::size_t client, std::size_t index, SpanBuffer* spans,
                     Outcome* out) = 0;

  virtual rj::service::QueryService* service() = 0;
  virtual rj::Executor* executor() = 0;
  /// Counters of service() and executor() at this instant.
  Snapshot Read();

  /// Probe inputs for trace position `index`: the v1 request body, the
  /// query the service runs, and its reference result.
  virtual std::string RequestBody(std::size_t index) const = 0;
  virtual rj::SpatialAggQuery Query(std::size_t index) const = 0;
  virtual const rj::QueryResult& Reference(std::size_t index) const = 0;

  /// Run facts (sizes, thread counts, noise controls) as key/value lines.
  virtual std::vector<std::pair<std::string, std::string>> Facts() const = 0;
  virtual void TearDown() {}
};

/// Base of the in-process workloads: a fixed spec list requested in a
/// seeded cyclic order through QueryService::Submit. The timed phases
/// continue the cycle where the warm pass left it, and each phase is a
/// whole number of cycles, so every phase runs the same mix.
class CyclicSpecWorkload : public Workload {
 public:
  rj::Status ComputeReferences() override;
  void CorruptOneReference() override;
  std::size_t requests_per_phase() const override { return per_phase_; }
  void Issue(std::size_t client, std::size_t index, SpanBuffer* spans,
             Outcome* out) override;
  rj::service::QueryService* service() override { return service_.get(); }
  rj::Executor* executor() override {
    return service_->dataset_executor(dataset_);
  }
  std::string RequestBody(std::size_t index) const override;
  rj::SpatialAggQuery Query(std::size_t index) const override;
  const rj::QueryResult& Reference(std::size_t index) const override {
    return references_[SpecAt(index)];
  }

 protected:
  /// Sets the specs, their seeded order, and the phase length: whole
  /// cycles, about `rate` requests per second of options.seconds.
  void SetTrace(std::vector<rj::QuerySpec> specs, std::uint64_t seed,
                double rate, const Options& options);
  std::size_t SpecAt(std::size_t index) const {
    return order_[index % order_.size()];
  }

  std::vector<rj::QuerySpec> specs_;
  /// The requests' execution policy.
  rj::ExecPolicy policy_;
  /// The references' policy: policy_ with the result caches off, so
  /// computing references leaves the service's cache untouched.
  rj::ExecPolicy reference_policy() const;
  std::unique_ptr<rj::service::QueryService> service_;
  std::size_t dataset_ = 0;

 private:
  std::vector<std::size_t> order_;
  std::size_t per_phase_ = 0;
  std::vector<rj::QueryResult> references_;
};

std::unique_ptr<Workload> MakeExploreHttp();
std::unique_ptr<Workload> MakeExactSharded();
std::unique_ptr<Workload> MakeDiskZoom();

/// The run skeleton; returns the process exit code.
int RunWorkload(Workload* workload, const Options& options);

}  // namespace perfbench
