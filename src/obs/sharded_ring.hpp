#pragma once

/// \file sharded_ring.hpp
/// ShardedRing<T>: the bounded, lock-sharded record buffer under EventLog and
/// SearchTracer. The capacity is split evenly across a fixed number of
/// shards, each a ring behind its own mutex. A thread always records into
/// the shard of its ring_thread_slot(), so up to kShards concurrent
/// recorders never share a shard or a lock. A full shard overwrites its
/// oldest record and counts it in dropped(), so a long-running process keeps
/// at most `capacity` records of each kind however long it runs.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace harmony::obs {

/// The calling thread's shard slot, handed out round-robin in the order of
/// each thread's first record and kept for the thread's life. One counter for
/// the whole process, so every ring puts a thread in the same slot. (Hashing
/// the thread id could put three of four threads on one shard and evict its
/// records long before the ring is full.)
inline std::size_t ring_thread_slot() noexcept {
  static std::atomic<std::size_t> next_slot{0};
  thread_local const std::size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

template <typename T>
class ShardedRing {
 public:
  static constexpr std::size_t kShards = 8;

  /// `capacity` bounds the records kept across all shards; each shard holds
  /// capacity / kShards of them, and at least one.
  explicit ShardedRing(std::size_t capacity)
      : capacity_(std::max(capacity, kShards)), per_shard_(capacity_ / kShards) {}

  ShardedRing(const ShardedRing&) = delete;
  ShardedRing& operator=(const ShardedRing&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Append into the calling thread's shard, overwriting its oldest record
  /// when the shard is full. Thread-safe.
  void push(T v) {
    Shard& shard = shards_[ring_thread_slot() % kShards];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.ring.size() < per_shard_) {
      shard.ring.push_back(std::move(v));
      return;
    }
    shard.ring[shard.head] = std::move(v);
    shard.head = (shard.head + 1) % per_shard_;
    ++shard.dropped;
  }

  /// Every kept record: shard by shard, each shard oldest first. Callers
  /// order across shards themselves. Thread-safe.
  [[nodiscard]] std::vector<T> snapshot() const {
    std::vector<T> out;
    for (const auto& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      const auto head = shard.ring.begin() + static_cast<std::ptrdiff_t>(shard.head);
      out.insert(out.end(), head, shard.ring.end());
      out.insert(out.end(), shard.ring.begin(), head);
    }
    return out;
  }

  /// Records kept across all shards.
  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const auto& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      n += shard.ring.size();
    }
    return n;
  }

  /// Records overwritten since construction; clear() does not reset it.
  [[nodiscard]] std::uint64_t dropped() const {
    std::uint64_t n = 0;
    for (const auto& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      n += shard.dropped;
    }
    return n;
  }

  /// Drop every kept record; the shards keep their storage for reuse.
  void clear() {
    for (auto& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      shard.ring.clear();
      shard.head = 0;
    }
  }

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::vector<T> ring;        ///< grows to per_shard_, then wraps at head
    std::size_t head = 0;       ///< oldest record once the shard is full
    std::uint64_t dropped = 0;  ///< records overwritten in this shard
  };

  std::size_t capacity_;
  std::size_t per_shard_;
  std::array<Shard, kShards> shards_;
};

}  // namespace harmony::obs
