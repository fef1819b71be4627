#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <utility>

#include "data/block_file.h"
#include "join/raster_join_accurate.h"

namespace rj::service {

QueryService::QueryService(gpu::Device* device, ServiceOptions options)
    : QueryService(std::make_unique<gpu::DevicePool>(
                       std::vector<gpu::Device*>{device}),
                   nullptr, options) {}

QueryService::QueryService(gpu::DevicePool* pool, ServiceOptions options)
    : QueryService(nullptr, pool, options) {}

QueryService::QueryService(std::unique_ptr<gpu::DevicePool> owned,
                           gpu::DevicePool* pool, ServiceOptions options)
    : owned_pool_(std::move(owned)),
      pool_(pool != nullptr ? pool : owned_pool_.get()),
      options_(options) {
  if (options_.num_dispatchers == 0) {
    options_.num_dispatchers =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  options_.max_queue_depth = std::max<std::size_t>(1, options_.max_queue_depth);
  options_.max_device_share =
      std::clamp(options_.max_device_share, 0.0, 1.0);
  options_.max_fusion_group_size =
      std::max<std::size_t>(1, options_.max_fusion_group_size);
  if (options_.result_cache_bytes > 0) {
    query::ResultCacheOptions cache_options;
    cache_options.capacity_bytes = options_.result_cache_bytes;
    cache_options.num_shards =
        std::max<std::size_t>(1, options_.result_cache_shards);
    cache_ = std::make_unique<query::ResultCache>(cache_options);
  }
  slots_.resize(options_.num_dispatchers);
  idle_.reserve(options_.num_dispatchers);
  dispatchers_.reserve(options_.num_dispatchers);
  for (std::size_t i = 0; i < options_.num_dispatchers; ++i) {
    dispatchers_.emplace_back([this, i] { DispatchLoop(i); });
  }
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::Shutdown() {
  // One implementation for the destructor drain and the graceful-drain
  // path, so the two can never diverge: mark the cut under mutex_ (every
  // later Enqueue observes stop_ and fails with a retryable CapacityError),
  // wake everything, then join the dispatchers — they drain every query
  // accepted before the cut, so every accepted promise is fulfilled and no
  // query can run after this returns (the destructor tears executors down
  // only afterwards). call_once makes concurrent/repeat callers block
  // until the first drain completes instead of double-joining.
  std::call_once(shutdown_once_, [this] {
    {
      MutexLock lock(mutex_);
      stop_ = true;
      for (DispatcherSlot& slot : slots_) {
        slot.wake = true;
        slot.cv.NotifyOne();
      }
    }
    cv_space_.NotifyAll();  // release blocked submitters (their queries
                             // fail with the shutdown error, never hang)
    for (std::thread& t : dispatchers_) t.join();
  });
}

namespace {
/// Submit-time canvas check: an accurate query's canvas must fit the
/// device's FBO limit (ResolveAccurateCanvasDim). Other variants ignore
/// canvas_dim.
Status ValidateQueryCanvas(const Executor& executor,
                           const SpatialAggQuery& query) {
  if (executor.ResolveVariant(query) != JoinVariant::kAccurateRaster) {
    return Status::OK();
  }
  return ResolveAccurateCanvasDim(query.spec.canvas_dim, *executor.device())
      .status();
}
}  // namespace

std::size_t QueryService::AddDatasetLocked(std::unique_ptr<Executor> executor,
                                           std::string name) {
  // Re-registration: same backing tables ⇒ same dataset id, but the
  // caller is announcing a change — bump the version so cached results
  // for the previous contents stop matching. Tables are matched as
  // identity pointers; a file registration never matches, because each
  // open mints a fresh block source. Callers construct the executor
  // optimistically outside mutex_ (it scans the polygon set), and this
  // find-or-insert decision is a single critical section, so two racing
  // registrations of the same pair cannot mint two ids.
  for (std::size_t id = 0; id < executors_.size(); ++id) {
    Executor& e = *executors_[id];
    if (e.points() == executor->points() && e.shards() == executor->shards() &&
        e.block_source() == executor->block_source() &&
        e.polys() == executor->polys()) {
      e.BumpDatasetVersion();
      if (!name.empty()) dataset_names_[id] = std::move(name);
      return id;
    }
  }
  const std::size_t id = executors_.size();
  // The executor shares the service cache under the dataset id it is
  // registered as, which is the same identity the service's whole-query
  // keys carry — so the executor's per-shard partial entries
  // (CacheKey::shard set) and the service's whole-query entries
  // (CacheKey::kNoShard) live in one coherent key space and invalidate
  // together on version bumps. Registration happens before any query can
  // reference the id, satisfying set_result_cache's attach-before-traffic
  // contract.
  if (cache_ != nullptr) executor->set_result_cache(cache_.get(), id);
  executors_.push_back(std::move(executor));
  dataset_names_.push_back(name.empty() ? "dataset-" + std::to_string(id)
                                        : std::move(name));
  return id;
}

std::size_t QueryService::RegisterDataset(const PointTable* points,
                                          const PolygonSet* polys,
                                          std::string name) {
  auto executor = std::make_unique<Executor>(pool_->primary(), points, polys);
  MutexLock lock(mutex_);
  return AddDatasetLocked(std::move(executor), std::move(name));
}

Result<std::size_t> QueryService::RegisterDatasetFromFile(
    const std::string& path, const PolygonSet* polys, std::string name) {
  RJ_ASSIGN_OR_RETURN(std::unique_ptr<data::PointBlockSource> source,
                      data::OpenPointBlockSource(path));
  // Each open mints a fresh source (and id): re-registering a path is a
  // deliberate reload — the old id keeps serving its (still-mapped) file.
  auto executor =
      std::make_unique<Executor>(pool_->primary(), source.get(), polys);
  MutexLock lock(mutex_);
  owned_sources_.push_back(std::move(source));
  return AddDatasetLocked(std::move(executor), std::move(name));
}

std::size_t QueryService::RegisterShardedDataset(
    const data::ShardedTable* shards, const PolygonSet* polys,
    std::string name) {
  auto executor = std::make_unique<Executor>(pool_, shards, polys);
  MutexLock lock(mutex_);
  return AddDatasetLocked(std::move(executor), std::move(name));
}

Result<std::size_t> QueryService::ResolveDataset(
    const std::string& name) const {
  MutexLock lock(mutex_);
  // Latest registration wins when a name was reused (shadowing).
  for (std::size_t i = dataset_names_.size(); i-- > 0;) {
    if (dataset_names_[i] == name) return i;
  }
  return Status::NotFound("unknown dataset '" + name + "'");
}

std::vector<DatasetInfo> QueryService::ListDatasets() const {
  MutexLock lock(mutex_);
  std::vector<DatasetInfo> out;
  out.reserve(executors_.size());
  for (std::size_t id = 0; id < executors_.size(); ++id) {
    const Executor& e = *executors_[id];
    DatasetInfo info;
    info.id = id;
    info.name = dataset_names_[id];
    info.sharded = e.sharded();
    info.num_shards = e.num_shards();
    info.num_points = e.num_points();
    info.disk_resident = e.disk_resident();
    info.num_polygons = e.polys()->size();
    info.num_attribute_columns = e.num_attribute_columns();
    info.version = e.dataset_version();
    out.push_back(std::move(info));
  }
  return out;
}

void QueryService::InvalidateDataset(std::size_t dataset_id) {
  Executor* executor = dataset_executor(dataset_id);
  if (executor != nullptr) executor->BumpDatasetVersion();
}

Executor* QueryService::dataset_executor(std::size_t dataset_id) {
  MutexLock lock(mutex_);
  return dataset_id < executors_.size() ? executors_[dataset_id].get()
                                        : nullptr;
}

std::future<ServiceResponse> QueryService::Submit(std::size_t dataset_id,
                                                  const QuerySpec& spec,
                                                  const ExecPolicy& policy,
                                                  SubmitOptions options) {
  return Enqueue(dataset_id, {spec, policy}, options, /*blocking=*/true,
                 nullptr);
}

Result<std::future<ServiceResponse>> QueryService::TrySubmit(
    std::size_t dataset_id, const QuerySpec& spec, const ExecPolicy& policy,
    SubmitOptions options) {
  Status reject = Status::OK();
  std::future<ServiceResponse> future = Enqueue(
      dataset_id, {spec, policy}, options, /*blocking=*/false, &reject);
  if (!reject.ok()) return reject;
  return future;
}

std::future<ServiceResponse> QueryService::Enqueue(
    std::size_t dataset_id, const SpatialAggQuery& query,
    SubmitOptions options, bool blocking, Status* reject_status) {
  Pending pending;
  pending.dataset = dataset_id;
  pending.query = query;
  pending.priority = options.priority;
  std::future<ServiceResponse> future = pending.promise.get_future();

  // Validation failures resolve the future immediately (a structured
  // per-query error, not a service-level reject).
  Status invalid = Status::OK();
  {
    MutexLock lock(mutex_);
    if (dataset_id >= executors_.size()) {
      invalid = Status::NotFound("unknown dataset id " +
                                 std::to_string(dataset_id));
    } else if (Status columns = ValidateSpecColumns(
                   query.spec, executors_[dataset_id]->num_attribute_columns());
               !columns.ok()) {
      // Submit-time validation: bad column references are a structured
      // per-query error, resolved through the future before admission.
      invalid = std::move(columns);
    } else if (Status canvas =
                   ValidateQueryCanvas(*executors_[dataset_id], query);
               !canvas.ok()) {
      // Likewise an accurate canvas larger than the device's FBO limit.
      invalid = std::move(canvas);
    } else if (stop_) {
      invalid = Status::CapacityError("query service is shutting down");
    } else if (!blocking &&
               QueueDepthLocked() >= options_.max_queue_depth) {
      // Fast-fail lane: report queue-full to the caller, not the future.
      ++rejected_;
      if (reject_status != nullptr) {
        *reject_status = Status::CapacityError(
            "submission queue full (" +
            std::to_string(options_.max_queue_depth) + " queued)");
      }
      return future;  // TrySubmit discards it via the error path
    } else if (blocking) {
      // Backpressure: hold the submitter until a slot frees up.
      while (!stop_ && QueueDepthLocked() >= options_.max_queue_depth) {
        cv_space_.Wait(lock);
      }
      if (stop_) {
        invalid = Status::CapacityError("query service is shutting down");
      }
    }
    if (invalid.ok()) {
      pending.sequence = next_sequence_++;
      pending.queued.Restart();
      ++submitted_;
      (options.priority == Priority::kHigh ? priority_ : fifo_)
          .push_back(std::move(pending));
      WakeOneLocked();
    }
  }
  if (!invalid.ok()) {
    QueryStats stats;
    pending.promise.set_value(ServiceResponse{std::move(invalid), stats});
  }
  return future;
}

void QueryService::WakeOneLocked() {
  if (idle_.empty()) return;  // all dispatchers busy; one will pop later
  const std::size_t slot = idle_.back();
  idle_.pop_back();
  slots_[slot].wake = true;
  slots_[slot].cv.NotifyOne();
}

void QueryService::DispatchLoop(std::size_t slot) {
  for (;;) {
    std::vector<Pending> group;
    {
      MutexLock lock(mutex_);
      while (priority_.empty() && fifo_.empty()) {
        if (stop_) return;
        // Park on this dispatcher's own slot, most-recently-idle at the
        // back of the stack, so the next submission reuses a warm thread.
        idle_.push_back(slot);
        slots_[slot].wake = false;
        while (!slots_[slot].wake) slots_[slot].cv.Wait(lock);
      }
      std::deque<Pending>& lane = priority_.empty() ? fifo_ : priority_;
      Pending pending = std::move(lane.front());
      lane.pop_front();
      pending.dispatch_order = next_dispatch_order_++;
      ++running_;
      group.push_back(std::move(pending));
      if (options_.max_fusion_group_size > 1) {
        CollectFusionGroupLocked(&group);
      }
    }
    if (group.size() > 1) {
      cv_space_.NotifyAll();  // fusion drained several queue slots at once
      RunGroup(std::move(group));
    } else {
      cv_space_.NotifyOne();  // a queue slot freed up
      RunQuery(std::move(group.front()));
    }
  }
}

void QueryService::CollectFusionGroupLocked(std::vector<Pending>* group) {
  // Full capacity up front: `head` must stay valid across the push_backs.
  group->reserve(options_.max_fusion_group_size);
  const Pending& head = group->front();
  Executor* executor = executors_[head.dataset].get();
  const JoinVariant head_variant = executor->ResolveVariant(head.query);
  if (head_variant != JoinVariant::kBoundedRaster &&
      head_variant != JoinVariant::kAccurateRaster) {
    return;  // index variants have no shared point scan to fuse
  }
  // Compatibility is everything that shapes the shared scan: dataset,
  // resolved variant, and canvas. Aggregates, columns, filters, priority,
  // and §5 range requests are free per member.
  const auto compatible = [&](const Pending& p) {
    if (p.dataset != head.dataset) return false;
    if (executor->ResolveVariant(p.query) != head_variant) return false;
    return head_variant == JoinVariant::kBoundedRaster
               ? p.query.spec.epsilon == head.query.spec.epsilon
               : p.query.spec.canvas_dim == head.query.spec.canvas_dim;
  };
  for (std::deque<Pending>* lane : {&priority_, &fifo_}) {
    for (auto it = lane->begin();
         it != lane->end() &&
         group->size() < options_.max_fusion_group_size;) {
      if (compatible(*it)) {
        it->dispatch_order = next_dispatch_order_++;
        ++running_;
        group->push_back(std::move(*it));
        it = lane->erase(it);
      } else {
        ++it;
      }
    }
  }
}

void QueryService::RunQuery(Pending pending) {
  Executor* executor = dataset_executor(pending.dataset);
  // Registration precedes submission validation, so this cannot be null.

  std::vector<QueryStats> stats(1);
  stats[0].sequence = pending.sequence;
  stats[0].dispatch_order = pending.dispatch_order;
  const auto compute = [&]() -> Result<QueryResult> {
    RJ_ASSIGN_OR_RETURN(
        std::vector<QueryResult> results,
        AdmitAndExecute(executor, {pending.query}, {&pending}, &stats));
    return std::move(results[0]);
  };

  if (cache_ != nullptr && pending.query.policy.use_result_cache) {
    // Cached path. The key is the query's semantic identity (dataset id +
    // version, aggregate/filters/variant/ε/canvas/ranges — execution knobs
    // excluded); a hit — fast lookup or single-flight share of a running
    // identical query — bypasses admission entirely: no grant, no
    // capacity queueing, no device work. Only a miss's leader enters
    // AdmitAndExecute, which fills the grant/counter fields of `stats`.
    Timer fetch;
    const query::CacheKey key = query::MakeCacheKey(
        pending.dataset, executor->dataset_version(), pending.query,
        executor->ResolveVariant(pending.query));
    bool hit = false;
    Result<std::shared_ptr<const QueryResult>> shared = cache_->GetOrCompute(
        key, compute, &hit,
        // Publish guard: a version bump during the flight means the key no
        // longer describes the live dataset — hand the result to this
        // flight's waiters but do not let later lookups hit it.
        [&] { return executor->dataset_version() == key.version; });
    if (!shared.ok()) {
      Respond(&pending, shared.status(), stats[0]);
    } else if (hit) {
      RespondHit(&pending, *shared.value(), fetch);
    } else {
      Respond(&pending, *shared.value(), stats[0]);
    }
    return;
  }

  // Sequence the execution before the call: AdmitAndExecute fills `stats`
  // through the pointer, and function-argument evaluation order would
  // otherwise be free to copy `stats` first.
  Result<QueryResult> result = compute();
  Respond(&pending, std::move(result), stats[0]);
}

void QueryService::RunGroup(std::vector<Pending> group) {
  Executor* executor = dataset_executor(group[0].dataset);

  // --- Phase A: cache probe; hits leave the group before any admission
  // work. Fusion leaves cache semantics untouched — every member keeps its
  // own semantic key. Accepted trade (docs/SERVICE.md "Fusion groups"):
  // fused members use Lookup/Insert rather than the single-flight
  // GetOrCompute, so two concurrent *groups* containing the same query may
  // both execute it — correctness is unaffected, only deduplication.
  std::vector<Pending> misses;
  std::vector<query::CacheKey> keys;
  std::vector<bool> cacheable;
  misses.reserve(group.size());
  for (Pending& p : group) {
    if (cache_ != nullptr && p.query.policy.use_result_cache) {
      Timer fetch;
      const query::CacheKey key = query::MakeCacheKey(
          p.dataset, executor->dataset_version(), p.query,
          executor->ResolveVariant(p.query));
      if (std::shared_ptr<const QueryResult> shared = cache_->Lookup(key)) {
        RespondHit(&p, *shared, fetch);
        continue;
      }
      misses.push_back(std::move(p));
      keys.push_back(key);
      cacheable.push_back(true);
    } else {
      misses.push_back(std::move(p));
      keys.push_back(query::CacheKey{});
      cacheable.push_back(false);
    }
  }
  if (misses.empty()) return;
  if (misses.size() == 1) {
    // Degenerate group: the solo path, with its single-flight semantics.
    RunQuery(std::move(misses[0]));
    return;
  }

  // --- Phase B: in-group dedupe. Semantically identical members share one
  // fused slot; the slot's first member (its leader) is the one that
  // inserts into the cache. Members that bypass the cache never dedupe.
  std::vector<std::size_t> slot_of(misses.size());
  std::vector<std::size_t> slot_leader;  // member index of each slot
  for (std::size_t i = 0; i < misses.size(); ++i) {
    std::size_t slot = slot_leader.size();
    if (cacheable[i]) {
      for (std::size_t s = 0; s < slot_leader.size(); ++s) {
        if (cacheable[slot_leader[s]] && keys[slot_leader[s]] == keys[i]) {
          slot = s;
          break;
        }
      }
    }
    if (slot == slot_leader.size()) slot_leader.push_back(i);
    slot_of[i] = slot;
  }
  std::vector<SpatialAggQuery> queries;
  queries.reserve(slot_leader.size());
  for (const std::size_t leader : slot_leader) {
    queries.push_back(misses[leader].query);
  }

  // --- Phase C: one admission and one shared scan for the distinct
  // members — the same path a solo query takes.
  std::vector<Pending*> waiting;
  waiting.reserve(misses.size());
  std::vector<QueryStats> stats(misses.size());
  for (std::size_t i = 0; i < misses.size(); ++i) {
    waiting.push_back(&misses[i]);
    stats[i].sequence = misses[i].sequence;
    stats[i].dispatch_order = misses[i].dispatch_order;
  }
  Result<std::vector<QueryResult>> results =
      AdmitAndExecute(executor, std::move(queries), waiting, &stats);

  // --- Phase D: demultiplex. Per-member response and cache insert under
  // the member's own key; group-level grant/counter attribution is
  // replicated (the scan was shared — per-member splits would be fiction).
  // The version re-check mirrors the single-flight publish guard: a result
  // computed against version V is never published after a bump.
  for (std::size_t i = 0; i < misses.size(); ++i) {
    if (!results.ok()) {
      Respond(&misses[i], results.status(), stats[i]);
      continue;
    }
    QueryResult out = results.value()[slot_of[i]];
    if (cacheable[i] && i == slot_leader[slot_of[i]] &&
        executor->dataset_version() == keys[i].version) {
      cache_->Insert(keys[i], out);
    }
    Respond(&misses[i], std::move(out), stats[i]);
  }
}

void QueryService::RespondHit(Pending* pending, QueryResult out,
                              const Timer& fetch) {
  // A hit did no device work: it never reports the original miss's
  // grants, phase timings, or counter windows.
  QueryStats stats;
  stats.sequence = pending->sequence;
  stats.dispatch_order = pending->dispatch_order;
  stats.cache_hit = true;
  stats.granted_bytes_per_device.assign(pool_->size(), 0);
  stats.queue_seconds = pending->queued.ElapsedSeconds();
  stats.execute_seconds = fetch.ElapsedSeconds();
  const gpu::CountersSnapshot now = pool_->TotalCounters();
  stats.device_counters_before = now;
  stats.device_counters_after = now;
  out.cache_hit = true;
  out.timing = PhaseTimer();
  out.counters = gpu::CountersSnapshot();
  out.total_seconds = fetch.ElapsedSeconds();
  Respond(pending, std::move(out), stats);
}

Result<gpu::PoolReservation> QueryService::AcquireGrant(
    const AdmissionPlan& plan, const std::vector<std::size_t>& hosted,
    std::size_t* per_shard_grant) {
  *per_shard_grant = 0;
  gpu::PoolReservation grant;
  if (plan.min_bytes == 0) return grant;

  // The try/wait cycle runs under mutex_ so a grant release (which takes
  // mutex_ before notifying) cannot slip between a failed reservation
  // and the wait — no lost wakeups. All-or-nothing acquisition
  // (TryReservePool) plus serialization on mutex_ means two queries can
  // never hold partial multi-device grants and wait on each other. Lock
  // order is always mutex_ → device mutex, never the reverse.
  MutexLock lock(mutex_);
  for (;;) {
    // Placement check: every device must be able to host its shards'
    // minimum footprint even when the query runs alone — otherwise the
    // query can never run and is rejected, not queued. The share cap is
    // evaluated per device and the tightest device bounds the uniform
    // per-shard grant (deterministically sized batches need one cap).
    std::size_t tightest_share = std::numeric_limits<std::size_t>::max();
    Status impossible = Status::OK();
    for (std::size_t d = 0; d < hosted.size(); ++d) {
      if (hosted[d] == 0) continue;
      const std::size_t budget = pool_->device(d)->memory_budget_bytes();
      if (hosted[d] * plan.min_bytes > budget) {
        impossible = Status::CapacityError(
            "query needs " + std::to_string(hosted[d] * plan.min_bytes) +
            " bytes of device memory on device " + std::to_string(d) +
            " (" + std::to_string(hosted[d]) + " shard(s)); budget is " +
            std::to_string(budget));
        break;
      }
      const auto share = static_cast<std::size_t>(
          static_cast<double>(budget) * options_.max_device_share /
          static_cast<double>(hosted[d]));
      tightest_share = std::min(tightest_share, share);
    }
    if (!impossible.ok()) return impossible;
    // Grant policy (per shard): hold the full working set when it fits
    // under the per-device share cap (no batching); otherwise the capped
    // share, floored at the minimum the query can make progress with.
    *per_shard_grant =
        std::min(plan.full_bytes, std::max(tightest_share, plan.min_bytes));

    std::vector<std::size_t> bytes_per_device(hosted.size(), 0);
    for (std::size_t d = 0; d < hosted.size(); ++d) {
      bytes_per_device[d] = hosted[d] * *per_shard_grant;
    }
    Result<gpu::PoolReservation> reservation =
        gpu::TryReservePool(pool_, bytes_per_device);
    if (reservation.ok()) return reservation;
    // Insufficient unreserved budget right now: queue (do not fail)
    // until a running query releases its grants. Bounded wait: grant
    // releases notify cv_capacity_, but budget resizes
    // (set_memory_budget_bytes) and reservations released by non-service
    // holders of the shared devices do not — the timeout re-runs the
    // budget checks so those paths cannot wedge the dispatcher.
    cv_capacity_.WaitFor(lock, std::chrono::milliseconds(100));
  }
}

Result<std::vector<QueryResult>> QueryService::AdmitAndExecute(
    Executor* executor, std::vector<SpatialAggQuery> queries,
    const std::vector<Pending*>& waiting, std::vector<QueryStats>* stats) {
  for (QueryStats& s : *stats) s.fused_group_size = queries.size();

  // --- Admission: size and reserve per-device memory grants — ONE grant
  // for the whole group, sized by its union upload plan. ------------------
  RJ_ASSIGN_OR_RETURN(AdmissionPlan plan,
                      executor->PlanFusedAdmission(queries));

  // Placement before the grant: routing and per-shard cache reuse decide
  // which shards will actually execute (shard s on device s mod pool
  // size), so hosted[d] — what device d's grant is multiplied by — covers
  // exactly the executing work. Skipped and cached shards reserve nothing
  // (all-or-nothing reservation over the executing devices only). A
  // one-shard dataset places {1}, which reduces everything below to the
  // single-budget policy.
  RJ_ASSIGN_OR_RETURN(Executor::ShardPlacement placement,
                      executor->PlanFusedPlacement(queries));
  for (QueryStats& s : *stats) {
    s.shards_routed = placement.executed;
    s.shards_skipped = placement.skipped;
    s.shard_cache_hits = placement.cache_hits;
  }

  std::size_t per_shard_grant = 0;
  RJ_ASSIGN_OR_RETURN(
      gpu::PoolReservation grant,
      AcquireGrant(plan, placement.hosted, &per_shard_grant));
  std::vector<std::size_t> granted_per_device(pool_->size(), 0);
  for (std::size_t d = 0; d < pool_->size(); ++d) {
    granted_per_device[d] = grant.bytes_on(d);
  }

  // --- Execution, batched to the per-shard grant. -------------------------
  for (SpatialAggQuery& q : queries) {
    q.policy.device_memory_cap_bytes = per_shard_grant;
  }
  for (std::size_t i = 0; i < waiting.size(); ++i) {
    (*stats)[i].queue_seconds = waiting[i]->queued.ElapsedSeconds();
  }
  const gpu::CountersSnapshot before = pool_->TotalCounters();
  Timer exec;
  // Always the uncached path: with caching on, a solo query runs this as
  // the single-flight leader inside the service's own GetOrCompute — the
  // executor's cache layer must not re-enter it. The placement planned
  // above is reused (the grant stamp changes no routing-relevant field).
  Result<std::vector<QueryResult>> results =
      executor->ExecuteFused(queries, &placement);
  const double execute_seconds = exec.ElapsedSeconds();
  const gpu::CountersSnapshot after = pool_->TotalCounters();
  for (QueryStats& s : *stats) {
    s.granted_bytes = grant.total_bytes();
    s.granted_bytes_per_device = granted_per_device;
    s.execute_seconds = execute_seconds;
    s.device_counters_before = before;
    s.device_counters_after = after;
  }

  if (grant.active()) {
    grant.Release();
    // Empty critical section pairs with the waiters' locked try/wait cycle
    // so the notify cannot be lost.
    { MutexLock lock(mutex_); }
    cv_capacity_.NotifyAll();
  }

  return results;
}

void QueryService::Respond(Pending* pending, Result<QueryResult> result,
                           QueryStats stats) {
  // Accounting first: a client whose future just resolved must not read a
  // stats() snapshot that still lags behind its own completion.
  {
    MutexLock lock(mutex_);
    ++completed_;
    if (!result.ok()) ++failed_;
    if (running_ > 0) --running_;
  }
  pending->promise.set_value(ServiceResponse{std::move(result), stats});
  cv_drain_.NotifyAll();
}

void QueryService::Drain() {
  MutexLock lock(mutex_);
  while (!priority_.empty() || !fifo_.empty() || running_ != 0) {
    cv_drain_.Wait(lock);
  }
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  // Device snapshots take each device's own lock; gather them outside
  // mutex_ to keep the service lock-order (mutex_ → device mutex) trivially
  // acyclic. Cache stats likewise use only the cache's shard locks.
  s.devices = pool_->Utilization();
  if (cache_ != nullptr) s.cache = cache_->stats();
  MutexLock lock(mutex_);
  s.submitted = submitted_;
  s.rejected = rejected_;
  s.completed = completed_;
  s.failed = failed_;
  s.queue_depth = QueueDepthLocked();
  s.running = running_;
  return s;
}

}  // namespace rj::service
