#include "fleet/dispatcher.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/protocol.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"

namespace harmony::fleet {

namespace {

EvalOutcome invalid_outcome() {
  EvalOutcome o;
  o.result.objective = std::numeric_limits<double>::infinity();
  o.result.valid = false;
  o.ran = false;
  o.cost_s = 0.0;
  return o;
}

}  // namespace

Dispatcher::Dispatcher(const ParamSpace& space, DispatcherOptions opts)
    : space_(&space), opts_(std::move(opts)) {}

Dispatcher::~Dispatcher() { shutdown(); }

bool Dispatcher::eligible(const WorkerState& w) const {
  return opts_.substrate.empty() || w.name == opts_.substrate;
}

bool Dispatcher::sample_trace() const {
  if (opts_.tracer == nullptr || opts_.trace_sample <= 0.0) return false;
  if (opts_.trace_sample >= 1.0) return true;
  // Coin flip drawn from the id generator's own splitmix stream, so sampling
  // needs no extra RNG state and stays thread-safe.
  const double u =
      static_cast<double>(obs::next_trace_id() >> 11) * 0x1.0p-53;
  return u < opts_.trace_sample;
}

void Dispatcher::span_locked(const Item& item, const char* name,
                             const std::string& detail, double dur_us) const {
  if (!item.trace.sampled() || opts_.tracer == nullptr) return;
  obs::SpanEvent sp;
  sp.trace_id = item.trace.trace_id;
  sp.span_id = obs::next_trace_id();
  sp.parent_span = item.trace.span_id;
  sp.name = name;
  sp.detail = detail;
  sp.t_end_us = opts_.tracer->now_us();
  sp.t_start_us = sp.t_end_us - dur_us;
  opts_.tracer->record_span(sp);
}

void Dispatcher::publish_worker_locked(std::uint64_t id, WorkerState& w) {
  std::string detail;
  if (!w.inflight.empty()) {
    // Show the oldest in-flight candidate (strip "WORK " and the newline).
    const auto it = items_.find(*w.inflight.begin());
    if (it != items_.end() && it->second.payload.size() > 6) {
      detail = it->second.payload.substr(5, it->second.payload.size() - 6);
    }
  }
  (void)id;
  w.lane.update([&](obs::WorkerStatus& s) {
    s.busy = !w.inflight.empty();
    s.tasks = w.completed;
    s.detail = std::move(detail);
    s.last_beat_s = obs::steady_seconds();
  });
}

void Dispatcher::pump_locked(Outbox& outbox) {
  while (!pending_.empty()) {
    // Least-loaded eligible worker with free capacity (ties: lowest id, the
    // map order). This is the work-conserving steal: capacity freed on any
    // shard immediately drains the shared queue.
    WorkerState* best = nullptr;
    std::uint64_t best_id = 0;
    for (auto& [wid, w] : workers_) {
      if (!eligible(w)) continue;
      if (static_cast<int>(w.inflight.size()) >= w.capacity) continue;
      if (best == nullptr || w.inflight.size() < best->inflight.size()) {
        best = &w;
        best_id = wid;
      }
    }
    if (best == nullptr) return;
    const std::uint64_t id = pending_.front();
    pending_.pop_front();
    const auto it = items_.find(id);
    if (it == items_.end()) continue;  // completed while queued; skip
    Item& item = it->second;
    item.holders.insert(best_id);
    item.issued = std::chrono::steady_clock::now();
    if (!item.ever_dispatched) {
      item.ever_dispatched = true;
      span_locked(item, "fleet.queue_wait", best->name,
                  std::chrono::duration<double, std::micro>(item.issued -
                                                            item.enqueued)
                      .count());
    }
    best->inflight.insert(id);
    ++stats_.dispatched;
    outbox.emplace_back(best->push, item.payload);
    publish_worker_locked(best_id, *best);
  }
}

void Dispatcher::check_stragglers_locked(Outbox& outbox) {
  if (opts_.straggler_timeout.count() <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  for (auto& [id, item] : items_) {
    if (item.holders.empty()) continue;  // queued, not in flight
    if (now - item.issued < opts_.straggler_timeout) continue;
    for (auto& [wid, w] : workers_) {
      if (!eligible(w)) continue;
      if (static_cast<int>(w.inflight.size()) >= w.capacity) continue;
      if (item.holders.count(wid) != 0) continue;
      // Duplicate onto the free worker; first RESULT wins, the loser's late
      // duplicate is dropped (deduped) when it eventually lands.
      span_locked(item, "fleet.redispatch", w.name,
                  std::chrono::duration<double, std::micro>(now - item.issued)
                      .count());
      item.holders.insert(wid);
      item.issued = now;  // re-arm the timeout instead of re-firing every tick
      w.inflight.insert(id);
      ++stats_.redispatched;
      ++stats_.dispatched;
      obs::count<"fleet.redispatched">();
      outbox.emplace_back(w.push, item.payload);
      publish_worker_locked(wid, w);
      break;
    }
  }
}

void Dispatcher::finish_item_locked(std::map<std::uint64_t, Item>::iterator it,
                                    const EvalOutcome& outcome) {
  Item& item = it->second;
  Batch* batch = item.batch;
  batch->out[item.slot] = outcome;
  if (batch->remaining > 0) --batch->remaining;
  // Leave other holders' inflight entries alone: those workers are genuinely
  // busy computing the duplicate; their capacity frees when the late RESULT
  // arrives and hits the dedup path.
  items_.erase(it);
  ++stats_.completed;
}

void Dispatcher::send_outbox(Outbox& outbox) {
  for (auto& [push, payload] : outbox) {
    if (push) (void)push(payload);
  }
  outbox.clear();
}

std::uint64_t Dispatcher::attach(const std::string& name, int capacity,
                                 PushFn push) {
  Outbox outbox;
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = ++next_worker_id_;
    WorkerState w;
    w.name = name;
    w.capacity = std::max(1, capacity);
    w.push = std::move(push);
    w.lane = obs::StatusRegistry::global().publish_worker(
        opts_.status_pool + "/" + name, static_cast<std::uint32_t>(id));
    auto [it, inserted] = workers_.emplace(id, std::move(w));
    publish_worker_locked(id, it->second);
    obs::count<"fleet.attached">();
    // An elastic mid-search join starts pulling queued work immediately.
    pump_locked(outbox);
  }
  cv_.notify_all();
  send_outbox(outbox);
  obs::log_info("fleet", "worker " + name + " attached as #" + std::to_string(id));
  return id;
}

void Dispatcher::detach(std::uint64_t worker_id) {
  Outbox outbox;
  std::size_t requeued = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto wit = workers_.find(worker_id);
    if (wit == workers_.end()) return;
    for (const std::uint64_t id : wit->second.inflight) {
      const auto it = items_.find(id);
      if (it == items_.end()) continue;  // already completed elsewhere
      it->second.holders.erase(worker_id);
      if (it->second.holders.empty()) {
        // Head of the queue: a candidate that already waited once should
        // not wait behind the whole backlog again.
        pending_.push_front(id);
        ++stats_.requeued;
        ++requeued;
      }
    }
    workers_.erase(wit);  // lane handle unpublishes the status slot
    pump_locked(outbox);
  }
  cv_.notify_all();
  send_outbox(outbox);
  obs::count<"fleet.detached">();
  if (requeued > 0) {
    obs::log_warn("fleet", "worker #" + std::to_string(worker_id) +
                               " detached, re-queued " +
                               std::to_string(requeued) + " in-flight item(s)");
  }
}

bool Dispatcher::on_result(std::uint64_t worker_id, std::uint64_t work_id,
                           bool ok, double objective, double cost_s) {
  Outbox outbox;
  bool known = true;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (work_id == 0 || work_id > next_work_id_) return false;  // never issued
    const auto wit = workers_.find(worker_id);
    if (wit != workers_.end()) {
      wit->second.inflight.erase(work_id);
      ++wit->second.completed;
    }
    const auto it = items_.find(work_id);
    if (it == items_.end()) {
      // First RESULT already won; this is a straggler's late duplicate (or a
      // result that raced a detach re-queue). Drop it — dedup by id.
      ++stats_.deduped;
      obs::count<"fleet.deduped">();
    } else {
      EvalOutcome outcome;
      outcome.result.objective = objective;
      outcome.result.valid = ok && std::isfinite(objective);
      outcome.ran = true;
      outcome.cost_s = cost_s;
      if (!outcome.result.valid) ++stats_.failed;
      const auto now = std::chrono::steady_clock::now();
      const double wait_us =
          std::chrono::duration<double, std::micro>(now - it->second.issued)
              .count();
      eval_s_.record(wait_us * 1e-6);
      obs::observe<"fleet.eval_s">(wait_us * 1e-6);
      span_locked(it->second, "fleet.eval",
                  wit != workers_.end() ? wit->second.name : std::string(),
                  wait_us);
      if (it->second.trace.sampled() && opts_.tracer != nullptr) {
        // Root span for this item's whole fleet lifetime (enqueue → RESULT);
        // the remote worker's spans parent onto it via the wire token.
        obs::SpanEvent root;
        root.trace_id = it->second.trace.trace_id;
        root.span_id = it->second.trace.span_id;
        root.name = "fleet.item";
        root.detail = "work " + std::to_string(work_id);
        root.t_end_us = opts_.tracer->now_us();
        root.t_start_us =
            root.t_end_us -
            std::chrono::duration<double, std::micro>(now - it->second.enqueued)
                .count();
        opts_.tracer->record_span(root);
      }
      finish_item_locked(it, outcome);
      obs::count<"fleet.results">();
    }
    if (wit != workers_.end()) publish_worker_locked(worker_id, wit->second);
    // Capacity freed: steal the next queued item onto this (or any) worker.
    pump_locked(outbox);
  }
  cv_.notify_all();
  send_outbox(outbox);
  return known;
}

void Dispatcher::heartbeat(std::uint64_t worker_id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto wit = workers_.find(worker_id);
  if (wit != workers_.end()) publish_worker_locked(worker_id, wit->second);
}

std::vector<EvalOutcome> Dispatcher::run_batch(const std::vector<Config>& batch) {
  Batch state;
  state.out.assign(batch.size(), invalid_outcome());
  state.remaining = batch.size();
  if (batch.empty()) return std::move(state.out);

  Outbox outbox;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return std::move(state.out);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Item item;
      item.id = ++next_work_id_;
      item.batch = &state;
      item.slot = i;
      proto::encode_work(*space_, item.id, batch[i], item.payload);
      item.enqueued = std::chrono::steady_clock::now();
      if (sample_trace()) {
        item.trace.trace_id = obs::next_trace_id();
        item.trace.span_id = obs::next_trace_id();
        // Splice the trace token in front of the newline so the worker's
        // spans join this item's trace.
        item.payload.pop_back();
        proto::append_trace(item.trace, item.payload);
        item.payload.push_back('\n');
      }
      pending_.push_back(item.id);
      items_.emplace(item.id, std::move(item));
    }
    pump_locked(outbox);
  }
  send_outbox(outbox);

  // Wait for the batch, waking on every result and on a timer tick that
  // drives straggler re-dispatch (and re-pumps after elastic joins).
  const auto tick =
      opts_.straggler_timeout.count() > 0
          ? std::max<std::chrono::milliseconds>(
                std::chrono::milliseconds(5), opts_.straggler_timeout / 4)
          : std::chrono::milliseconds(100);
  std::unique_lock<std::mutex> lock(mutex_);
  while (state.remaining > 0 && !shutdown_) {
    cv_.wait_for(lock, tick);
    if (state.remaining == 0 || shutdown_) break;
    Outbox ob;
    check_stragglers_locked(ob);
    pump_locked(ob);
    if (!ob.empty()) {
      lock.unlock();
      send_outbox(ob);
      lock.lock();
    }
  }
  if (state.remaining > 0) {
    // shutdown(): disown the unfinished items so no dangling batch pointer
    // survives this frame; their slots keep the invalid placeholder.
    for (auto it = items_.begin(); it != items_.end();) {
      if (it->second.batch == &state) {
        it = items_.erase(it);
      } else {
        ++it;
      }
    }
    state.remaining = 0;
  }
  return std::move(state.out);
}

bool Dispatcher::wait_for_workers(std::size_t n,
                                  std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, timeout, [&] {
    std::size_t count = 0;
    for (const auto& [id, w] : workers_) {
      if (eligible(w)) ++count;
    }
    return count >= n;
  });
}

void Dispatcher::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return;
    shutdown_ = true;
    // Wake every run_batch; each disowns its own unfinished items.
    pending_.clear();
  }
  cv_.notify_all();
}

std::size_t Dispatcher::worker_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return workers_.size();
}

std::size_t Dispatcher::total_capacity() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& [id, w] : workers_) {
    if (eligible(w)) total += static_cast<std::size_t>(w.capacity);
  }
  return total;
}

DispatcherStats Dispatcher::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace harmony::fleet
