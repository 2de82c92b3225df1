#pragma once

/// \file trace.hpp
/// Per-evaluation search tracing. A SearchTracer records one event per
/// objective evaluation — which strategy asked, which point was tried, what
/// came back, whether the evaluation cache served it, which thread ran it
/// and when — and exports the record two ways:
///
///  * JSON-lines (one event object per line), the machine-readable
///    trajectory log behind the paper's Tables I-IV / Fig. 6 analyses;
///  * Chrome trace format (chrome://tracing or https://ui.perfetto.dev),
///    where each recording thread gets its own lane, so a controller run
///    on engine::PoolEvalBackend shows one lane per pool worker with the
///    short runs laid out on the wall clock.
///
/// Recording is thread-safe and cheap: events and spans append to two
/// bounded ShardedRings (see sharded_ring.hpp), so pool workers almost never
/// share a lock and a long-running traced server keeps at most kCapacity
/// records of each kind; overwritten records are counted in dropped().
/// Timestamps come from one steady clock anchored at construction. Thread
/// lane ids are small integers assigned in order of first appearance; each
/// thread caches its lane per tracer, so the lane table's mutex is taken only
/// on a thread's first record into a tracer (or its first after clear()).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/sharded_ring.hpp"

namespace harmony::obs {

/// Trace identity for one end-to-end request, carried across the wire as an
/// optional trailing "T=<trace>-<span>" token (see core/protocol.hpp).
/// trace_id == 0 means "not sampled": every tracing call site must be a
/// no-op in that case, so unsampled requests pay nothing.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;     ///< id of the current (innermost) span
  std::uint64_t parent_span = 0; ///< 0 at the root
  [[nodiscard]] bool sampled() const noexcept { return trace_id != 0; }
};

/// A fresh process-unique non-zero 64-bit id (for trace ids and span ids):
/// an atomic counter mixed through splitmix64, seeded once per process from
/// the wall clock so ids from different processes do not collide.
[[nodiscard]] std::uint64_t next_trace_id() noexcept;

/// One named stage of a sampled request (parse, queue wait, strategy ask,
/// remote eval, ...). Span ids tie the stages of one request together across
/// threads — and, via the wall-clock anchor written by write_jsonl, across
/// processes.
struct SpanEvent {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
  std::string name;            ///< stage name, e.g. "server.tell"
  std::string detail;          ///< free-form (verb, work id, ...)
  std::uint32_t thread_lane = 0;
  double t_start_us = 0.0;     ///< microseconds since tracer construction
  double t_end_us = 0.0;
};

/// One objective evaluation as seen by a driver.
struct TraceEvent {
  std::string strategy;    ///< SearchStrategy::name() of the proposer
  std::string point;       ///< formatted configuration (ParamSpace::format)
  double objective = 0.0;  ///< observed objective (infinity when invalid)
  bool valid = true;       ///< run succeeded / configuration feasible
  bool cache_hit = false;  ///< served from a cache or an in-batch first run
  std::uint32_t thread_lane = 0;  ///< small dense id of the recording thread
  double t_start_us = 0.0;        ///< microseconds since tracer construction
  double t_end_us = 0.0;
};

class SearchTracer {
 public:
  /// Records of each kind (evaluations, spans) the tracer keeps: 65,536 per
  /// shard, more than the perf ledger's 50,000 kept spans, which one drain
  /// thread records into one shard.
  static constexpr std::size_t kCapacity = std::size_t{1} << 19;

  SearchTracer();

  /// Microseconds since construction, from the tracer's steady clock.
  [[nodiscard]] double now_us() const;

  /// Dense lane id of the calling thread (assigned on first use, then served
  /// from a thread_local cache keyed by this tracer's id).
  [[nodiscard]] std::uint32_t lane_for_current_thread();

  /// Append one event. `thread_lane` is filled in from the calling thread;
  /// callers set every other field. Thread-safe; a full shard overwrites its
  /// oldest event.
  void record(TraceEvent e);

  /// Append one span of a sampled request. Same sharding and lane rules as
  /// record(). Callers must already have checked TraceContext::sampled() —
  /// recording a span with trace_id 0 is a programming error.
  void record_span(SpanEvent s);

  /// All kept events, merged across shards and sorted by start time (ties
  /// broken by lane). Thread-safe snapshot.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// All kept spans, merged and sorted like events(). Thread-safe snapshot.
  [[nodiscard]] std::vector<SpanEvent> spans() const;

  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }
  [[nodiscard]] std::size_t lanes() const;

  /// Events and spans overwritten since construction (clear() keeps it).
  [[nodiscard]] std::uint64_t dropped() const {
    return events_.dropped() + spans_.dropped();
  }

  /// Drop every record and every lane: the next recording threads get lanes
  /// from 0 again.
  void clear();

  /// Wall-clock (unix) microseconds corresponding to t == 0 on this tracer's
  /// steady clock. Lets a merge tool align traces from different processes.
  [[nodiscard]] double wall_anchor_us() const noexcept { return wall_anchor_us_; }

  /// One JSON object per line:
  /// {"strategy":...,"point":...,"objective":...,"valid":...,"cache_hit":...,
  ///  "thread":...,"t_start_us":...,"t_end_us":...}
  /// Span records ride along as {"kind":"span","trace":"<hex>",...} lines
  /// carrying an "anchor_us" wall-clock field (loaders keyed on the eval
  /// schema must skip lines with a "kind" key).
  void write_jsonl(std::ostream& os) const;

  /// Chrome trace JSON: one complete ("ph":"X") event per evaluation in the
  /// lane of its recording thread, plus thread_name metadata so
  /// chrome://tracing labels each pool worker. Spans appear in the same
  /// lanes under the "span" category with trace/span ids in args.
  void write_chrome_trace(std::ostream& os) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  double wall_anchor_us_ = 0.0;
  ShardedRing<TraceEvent> events_{kCapacity};
  ShardedRing<SpanEvent> spans_{kCapacity};
  mutable std::mutex lanes_mutex_;
  std::unordered_map<std::thread::id, std::uint32_t> lane_ids_;
  /// Process-unique key of the current lane table (renewed by clear(), never
  /// the tracer's address), so no thread's cached lane outlives the table.
  std::atomic<std::uint64_t> lanes_id_;
};

}  // namespace harmony::obs
