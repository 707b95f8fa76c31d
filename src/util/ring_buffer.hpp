#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>

#include "util/check.hpp"

namespace exawatt::util {

/// Bounded single-producer / single-consumer ring buffer — the per-shard
/// transport of the streaming ingest front-end (stream/ingest). Lock-free,
/// with a sequence number per slot (Vyukov's bounded queue): slot
/// `i & mask` holds element i once its sequence reads i + 1, and is free
/// for element i + capacity once it reads i + capacity. A slot is only
/// ever touched by the side that owns it under that protocol, so an
/// element is never copied while it is being written.
///
/// `push_overwrite` implements the drop-oldest backpressure policy: when
/// full, the producer claims the oldest element with the same `head_` CAS
/// the consumer's `pop` uses, so exactly one of them gets it. If the
/// consumer won and is still copying the slot out, the producer waits
/// for the slot's release — a copy of one element, never a queue drain.
template <typename T>
class SpscRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "SpscRing requires trivially copyable elements");

 public:
  /// Capacity is rounded up to a power of two (index masking).
  explicit SpscRing(std::size_t min_capacity) {
    EXA_CHECK(min_capacity > 0, "ring capacity must be positive");
    std::size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    slots_ = std::make_unique<Slot[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  /// Occupancy snapshot (racy by nature; exact only when quiescent).
  [[nodiscard]] std::size_t size() const {
    // Head first: tail never trails head, so the difference cannot wrap.
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(std::min<std::uint64_t>(t - h, capacity()));
  }

  /// Producer: append if space is available. Returns false when full.
  bool try_push(const T& item) {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    Slot& slot = slots_[t & mask_];
    if (slot.seq.load(std::memory_order_acquire) != t) return false;
    publish(slot, t, item);
    return true;
  }

  /// Producer: append unconditionally, discarding the oldest element when
  /// full. Returns true when an element was dropped to make room.
  bool push_overwrite(const T& item) {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    Slot& slot = slots_[t & mask_];
    bool dropped = false;
    while (slot.seq.load(std::memory_order_acquire) != t) {
      // Full: the slot still holds element t - capacity. Claim it from
      // the consumer; a failed CAS means the consumer popped it first and
      // is releasing the slot.
      std::uint64_t h = t - capacity();
      if (head_.compare_exchange_strong(h, h + 1, std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        dropped = true;
        break;
      }
      std::this_thread::yield();
    }
    publish(slot, t, item);
    return dropped;
  }

  /// Consumer: pop the oldest element. Returns false when empty.
  bool pop(T& out) {
    std::uint64_t h = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[h & mask_];
      if (slot.seq.load(std::memory_order_acquire) != h + 1) {
        // Not yet published (empty), or already overwritten past `h`.
        const std::uint64_t now = head_.load(std::memory_order_acquire);
        if (now == h) return false;
        h = now;
        continue;
      }
      // Claim first, copy second: once the CAS succeeds the producer
      // cannot reuse the slot until the release below.
      if (head_.compare_exchange_weak(h, h + 1, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        out = slot.value;
        slot.seq.store(h + capacity(), std::memory_order_release);
        return true;
      }
    }
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  void publish(Slot& slot, std::uint64_t t, const T& item) {
    slot.value = item;
    tail_.store(t + 1, std::memory_order_release);
    slot.seq.store(t + 1, std::memory_order_release);
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< consumer cursor
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< producer cursor
};

}  // namespace exawatt::util
