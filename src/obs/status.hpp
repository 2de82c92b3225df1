#pragma once

/// \file status.hpp
/// Live introspection board for the tuning system: controller runs, server
/// sessions and the thread pool publish their current state here, and
/// pollers (the server's STATUS verb, the `harmony_top` example) read cheap
/// consistent snapshots while the search is still running. This is the "ask the running
/// system what it is doing" counterpart to the post-mortem exports in
/// trace.hpp / bench_report.hpp.
///
/// Design:
///
///  * publishers hold RAII handles; an update locks only that slot's mutex
///    (never the registry table), so two sessions or two pool workers never
///    serialize against each other;
///  * every update bumps a relaxed per-slot epoch and a registry-wide epoch,
///    so a poller can skip re-rendering when `epoch()` has not moved since
///    its last visit — the "did anything change" probe is one relaxed load;
///  * slots unpublish themselves when the handle dies, so STATUS only ever
///    lists live sessions/workers; `sessions_started()` keeps the lifetime
///    total.
///
/// Publishing through the gated convenience path (controller runs, pool)
/// costs one relaxed atomic load when observability is off (see
/// obs::enabled()); the tuning server publishes unconditionally because the
/// STATUS verb is part of its protocol surface, not passive instrumentation.

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"  // HdrHistogram for the latency board

namespace harmony::obs {

/// Live state of one tuning session (a server connection or a
/// SearchController::run). Publishers own the write side; snapshots copy it
/// out.
struct SessionStatus {
  std::string id;           ///< unique id, e.g. "server/3" or "run/1"
  std::string app;          ///< application / bench name when known
  std::string tenant;       ///< TENANT name the session admitted under ("" none)
  std::string strategy;     ///< SearchStrategy::name() steering the session
  std::string phase;        ///< strategy-specific phase ("reflect", "batch 7")
  std::string best_config;  ///< formatted incumbent configuration
  double best_value = std::numeric_limits<double>::infinity();  ///< inf = none
  std::uint64_t iterations = 0;  ///< completed evaluations / round trips
  std::uint64_t cache_hits = 0;  ///< evaluations served from a cache

  /// Per-session request-latency quantiles in microseconds (server handle
  /// time of FETCH/REPORT/REPORT+FETCH/RESULT). 0 until the first request.
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

/// Live state of one worker lane (a thread-pool lane or a remote fleet
/// worker). Fleet publishers additionally fill `detail` (the in-flight
/// candidate) and `last_beat_s` (heartbeat time, from steady_seconds()).
struct WorkerStatus {
  std::string pool;       ///< pool identifier, e.g. "pool/2" or "fleet/pop"
  std::uint32_t lane = 0; ///< worker index within the pool
  bool busy = false;      ///< currently executing a task
  std::uint64_t tasks = 0;  ///< tasks completed so far
  std::string detail;     ///< in-flight candidate description ("" when idle)
  double last_beat_s = -1.0;  ///< steady_seconds() of the last heartbeat; <0 none
};

/// Monotonic seconds since an arbitrary process-wide origin; timestamps the
/// worker heartbeats so STATUS snapshots can serialize an age.
[[nodiscard]] double steady_seconds();

class StatusRegistry {
  struct SessionSlot;
  struct WorkerSlot;

 public:
  StatusRegistry() = default;
  StatusRegistry(const StatusRegistry&) = delete;
  StatusRegistry& operator=(const StatusRegistry&) = delete;

  /// The process-wide board the server and the convenience publishers use.
  static StatusRegistry& global();

  /// RAII publisher for one session slot; unpublishes on destruction.
  class SessionHandle {
   public:
    SessionHandle() = default;
    SessionHandle(SessionHandle&& other) noexcept;
    SessionHandle& operator=(SessionHandle&& other) noexcept;
    SessionHandle(const SessionHandle&) = delete;
    SessionHandle& operator=(const SessionHandle&) = delete;
    ~SessionHandle();

    [[nodiscard]] bool valid() const noexcept { return slot_ != nullptr; }

    /// Mutate the published state under the slot lock and bump the epochs.
    /// `id` is fixed at publish time; changes to it are ignored.
    void update(const std::function<void(SessionStatus&)>& fn);

    void reset();  ///< unpublish early

   private:
    friend class StatusRegistry;
    SessionHandle(StatusRegistry* reg, SessionSlot* slot)
        : registry_(reg), slot_(slot) {}
    StatusRegistry* registry_ = nullptr;
    SessionSlot* slot_ = nullptr;
  };

  /// RAII publisher for one worker lane; unpublishes on destruction.
  class WorkerHandle {
   public:
    WorkerHandle() = default;
    WorkerHandle(WorkerHandle&& other) noexcept;
    WorkerHandle& operator=(WorkerHandle&& other) noexcept;
    WorkerHandle(const WorkerHandle&) = delete;
    WorkerHandle& operator=(const WorkerHandle&) = delete;
    ~WorkerHandle();

    [[nodiscard]] bool valid() const noexcept { return slot_ != nullptr; }

    /// Publish the lane's current activity.
    void set(bool busy, std::uint64_t tasks);

    /// Mutate the published state under the slot lock (fleet publishers set
    /// detail/heartbeat too). `pool` and `lane` are fixed at publish time.
    void update(const std::function<void(WorkerStatus&)>& fn);

    void reset();  ///< unpublish early

   private:
    friend class StatusRegistry;
    WorkerHandle(StatusRegistry* reg, WorkerSlot* slot)
        : registry_(reg), slot_(slot) {}
    StatusRegistry* registry_ = nullptr;
    WorkerSlot* slot_ = nullptr;
  };

  /// Process-wide request-latency board: every server request verb records
  /// its handle time here (always on — the STATUS verb's latency block is
  /// protocol surface, like the session slots), and requests slower than
  /// ServerOptions::slow_request_us bump `slow_requests`. Serialized by
  /// write_json as the top-level "latency" object.
  struct LatencyBoard {
    HdrHistogram request_s;
    std::atomic<std::uint64_t> slow_requests{0};
  };
  [[nodiscard]] LatencyBoard& latency() noexcept { return latency_; }

  /// One tenant's live rollup. Slots are created on first use and never
  /// erased (bounded by the number of distinct tenant names), so the
  /// server's hot path holds a raw pointer and touches only the atomics and
  /// the lock-free histogram — no table lock, no slot mutex, nothing shared
  /// across reactor shards but cache lines.
  struct TenantSlot {
    explicit TenantSlot(std::string tenant_name) : name(std::move(tenant_name)) {}
    const std::string name;
    std::atomic<std::int64_t> sessions{0};  ///< live admitted sessions
    std::atomic<std::uint64_t> evals{0};    ///< completed report round trips
    std::atomic<std::uint64_t> shed{0};     ///< quota rejections (retry-after)
    HdrHistogram request_s;                 ///< per-tenant request latency
  };

  /// Copy-out snapshot of one tenant slot for STATUS serialization.
  struct TenantSnapshot {
    std::string name;
    std::int64_t sessions = 0;
    std::uint64_t evals = 0;
    std::uint64_t shed = 0;
    double p50_us = 0.0;
    double p99_us = 0.0;
  };

  /// Create-or-get the slot for `name`. Takes the table mutex only when
  /// called — the server resolves it once per TENANT verb, not per request.
  [[nodiscard]] TenantSlot* tenant_slot(const std::string& name);

  /// Snapshots of every tenant seen so far, ordered by name.
  [[nodiscard]] std::vector<TenantSnapshot> tenants() const;

  /// Transport backpressure + admission board, serialized by write_json as
  /// the top-level "backpressure" object. All-atomic: reactor shards bump
  /// these from their own threads with no shared locks.
  struct BackpressureBoard {
    std::atomic<std::int64_t> pending_out_bytes{0};  ///< queued across conns
    std::atomic<std::int64_t> paused{0};        ///< conns with reads deferred
    std::atomic<std::uint64_t> paused_total{0};  ///< cumulative pause events
    std::atomic<std::uint64_t> reaped_total{0};  ///< idle sessions evicted
    std::atomic<std::uint64_t> shed_total{0};    ///< admissions refused
  };
  [[nodiscard]] BackpressureBoard& backpressure() noexcept {
    return backpressure_;
  }

  /// Claim a session slot. Ids must be unique among live sessions; a clash
  /// gets a "#<n>" suffix rather than an error so publishers never fail.
  [[nodiscard]] SessionHandle publish_session(const std::string& id);

  /// Claim a worker-lane slot for `pool`/`lane`.
  [[nodiscard]] WorkerHandle publish_worker(const std::string& pool,
                                            std::uint32_t lane);

  /// Registry-wide change counter: bumped (relaxed) by every publish, update
  /// and unpublish. Pollers compare against their last seen value.
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Sessions ever published (lifetime total, for the STATUS header).
  [[nodiscard]] std::uint64_t sessions_started() const noexcept {
    return sessions_started_.load(std::memory_order_relaxed);
  }

  /// Consistent copies of every live slot, ordered by id.
  [[nodiscard]] std::vector<SessionStatus> sessions() const;
  [[nodiscard]] std::vector<WorkerStatus> workers() const;

  [[nodiscard]] std::size_t session_count() const;
  [[nodiscard]] std::size_t worker_count() const;

  /// One JSON object:
  /// {"epoch":N,"sessions_started":N,"sessions":[{...}],"workers":[{...}],
  ///  "latency":{"p50_us":..,"p95_us":..,"p99_us":..,"count":N,
  ///             "slow_requests":N}}.
  /// Sessions with no measurement yet serialize "best_value":null.
  void write_json(std::ostream& os) const;
  [[nodiscard]] std::string to_json() const;

 private:
  struct SessionSlot {
    mutable std::mutex mutex;
    SessionStatus status;
    std::atomic<std::uint64_t> slot_epoch{0};
  };
  struct WorkerSlot {
    mutable std::mutex mutex;
    WorkerStatus status;
    std::atomic<std::uint64_t> slot_epoch{0};
  };

  void bump() noexcept { epoch_.fetch_add(1, std::memory_order_relaxed); }
  void drop_session(SessionSlot* slot);
  void drop_worker(WorkerSlot* slot);

  mutable std::mutex table_mutex_;
  std::map<std::string, std::unique_ptr<SessionSlot>> sessions_;
  std::map<std::string, std::unique_ptr<WorkerSlot>> workers_;
  std::map<std::string, std::unique_ptr<TenantSlot>> tenants_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> sessions_started_{0};
  std::uint64_t clash_suffix_ = 0;
  LatencyBoard latency_;
  BackpressureBoard backpressure_;
};

}  // namespace harmony::obs
