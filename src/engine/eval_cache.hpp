#pragma once

/// \file eval_cache.hpp
/// Thread-safe memoizing evaluation cache for the parallel engine. Like the
/// serial harmony::EvalCache it is keyed by the index-space identity of a
/// configuration (PointKey), so any two configurations that snap to the same
/// lattice point share an entry. Two extras make it safe and cheap under
/// concurrency:
///
///  * the table is sharded (one mutex per shard) so unrelated lookups do not
///    contend on a single lock. Each shard is an open-addressing flat table
///    (FlatPointMap) instead of a node-based unordered_map: probes walk
///    contiguous memory and insertion allocates nothing in steady state;
///  * entries are shared_futures, giving in-flight deduplication: when two
///    workers ask for the same configuration at once, the second blocks on
///    the first worker's evaluation instead of running it twice. Those waits
///    are counted separately (coalesced()) from ordinary completed-entry
///    hits.
///
/// The key's 64-bit hash is computed exactly once per call — at PointKey
/// derivation — and reused for both shard selection (high bits) and the
/// table probe (low bits). The old string-keyed design hashed every key
/// twice: once in shard_for and again inside unordered_map.
///
/// The controller maps `ran == false` outcomes to History's existing `cached`
/// flag, so batch histories stay comparable with serial ones.

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <vector>

#include "core/evaluation.hpp"
#include "core/flat_map.hpp"
#include "core/param_space.hpp"
#include "core/point_key.hpp"
#include "core/types.hpp"

namespace harmony::engine {

class ConcurrentEvalCache {
 public:
  explicit ConcurrentEvalCache(const ParamSpace& space, std::size_t shards = 16);

  /// What evaluate() did for one configuration.
  struct Outcome {
    EvaluationResult result;
    bool ran = false;        ///< this call executed `compute`
    bool coalesced = false;  ///< waited on another thread's in-flight run
  };

  /// Memoized evaluation. Exactly one caller per distinct key executes
  /// `compute`; concurrent callers for the same key block until that result
  /// is ready. If `compute` throws, the exception propagates to this caller
  /// and to every coalesced waiter, and the entry is dropped so a later call
  /// retries.
  Outcome evaluate(const Config& c, const std::function<EvaluationResult()>& compute);

  /// Key-space variant: the caller already derived the PointKey (and thereby
  /// the hash) — nothing about `c` is needed.
  Outcome evaluate(const PointKey& key,
                   const std::function<EvaluationResult()>& compute);

  /// Non-blocking lookup of a completed entry (counts as hit or miss).
  [[nodiscard]] std::optional<EvaluationResult> lookup(const Config& c) const;
  [[nodiscard]] std::optional<EvaluationResult> lookup(const PointKey& key) const;

  /// Insert a result computed elsewhere (a remote fleet worker) as a ready
  /// entry; overwrites any existing entry for the key (latest wins). Does
  /// not touch the hit/miss counters.
  void insert(const Config& c, const EvaluationResult& r);
  void insert(const PointKey& key, const EvaluationResult& r);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t hits() const noexcept { return hits_.load(); }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_.load(); }
  [[nodiscard]] std::size_t coalesced() const noexcept { return coalesced_.load(); }
  void clear();

 private:
  struct Shard {
    mutable std::mutex mutex;
    FlatPointMap<std::shared_future<EvaluationResult>> table;
  };

  /// Shard index from the key's stored hash — the table probe uses the low
  /// bits, so the shard uses the high bits to stay uncorrelated.
  [[nodiscard]] Shard& shard_for(const PointKey& key) const {
    return shards_[(key.hash() >> 48) % shards_.size()];
  }

  const ParamSpace* space_;
  mutable std::vector<Shard> shards_;
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
  mutable std::atomic<std::size_t> coalesced_{0};
};

}  // namespace harmony::engine
