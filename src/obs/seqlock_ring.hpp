// Single-writer, many-reader ring of fixed-size slots guarded by a
// per-slot seqlock: the storage under obs/flight's FlightRing and
// obs/profiler's SampleRing, which differ only in how they encode an
// entry into the payload words.
//
// Slot word 0 holds the entry's sequence number (1-based; 0 = empty or
// being written), words 1..kWords-1 its payload. The writer invalidates
// word 0, issues a release fence, stores the payload relaxed, then
// publishes the sequence with a release store (head advances after).
// The release fence keeps the invalidation ahead of the payload stores
// in every reader's view, so a reader can never pair a stale sequence
// number with fresh payload words. Readers copy the payload between an
// acquire load of word 0 and an acquire fence plus recheck: a concurrent
// overwrite is detected and the slot skipped, never blocked on.
//
// The write path is atomic stores only — no allocation, no locks — so it
// is safe inside a signal handler (the profiler records from SIGPROF).
// The slot array is plain 64-bit words in memory: writing raw_slots() with
// write(2) is the flight recorder's crash-dump format.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace mfcp::obs {

template <std::size_t kWords>
class SeqlockRing {
 public:
  static_assert(kWords >= 2, "a slot holds a sequence word plus payload");
  static constexpr std::size_t kPayloadWords = kWords - 1;
  /// Bytes per slot: kWords words padded to whole cache lines.
  static constexpr std::size_t kSlotBytes = (8 * kWords + 63) / 64 * 64;
  using Payload = std::array<std::uint64_t, kPayloadWords>;

  /// `capacity` is rounded up to a power of two (at least 8, so tiny
  /// test rings still wrap sanely).
  explicit SeqlockRing(std::size_t capacity)
      : mask_(round_up_pow2(capacity) - 1),
        slots_(std::make_unique<Slot[]>(mask_ + 1)) {}

  SeqlockRing(const SeqlockRing&) = delete;
  SeqlockRing& operator=(const SeqlockRing&) = delete;

  /// Publishes `payload[0, n)` as the next entry (words past `n` keep
  /// stale bits; the encoding must not read them). One writer at a time;
  /// async-signal-safe.
  void publish(const std::uint64_t* payload, std::size_t n) noexcept {
    const std::uint64_t seq = head_.load(std::memory_order_relaxed) + 1;
    Slot& slot = slots_[(seq - 1) & mask_];
    slot.word[0].store(0, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    for (std::size_t i = 0; i < n && i < kPayloadWords; ++i) {
      slot.word[1 + i].store(payload[i], std::memory_order_relaxed);
    }
    slot.word[0].store(seq, std::memory_order_release);
    head_.store(seq, std::memory_order_release);
  }

  /// Calls `visit(seq, payload)` for every entry of the currently-valid
  /// window, oldest first. Entries the writer overwrites mid-copy are
  /// skipped, so the visits are a consistent (possibly gappy at the
  /// oldest edge) suffix of the stream.
  template <class Visit>
  void for_each(Visit&& visit) const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t cap = capacity();
    for (std::uint64_t seq = h > cap ? h - cap + 1 : 1; seq <= h; ++seq) {
      const Slot& slot = slots_[(seq - 1) & mask_];
      if (slot.word[0].load(std::memory_order_acquire) != seq) {
        continue;  // overwritten (or mid-write) since we sampled head
      }
      Payload payload;
      for (std::size_t i = 0; i < kPayloadWords; ++i) {
        payload[i] = slot.word[1 + i].load(std::memory_order_relaxed);
      }
      // The acquire fence orders the payload loads before the recheck,
      // so an overwrite that raced the copy is caught.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.word[0].load(std::memory_order_relaxed) != seq) {
        continue;
      }
      visit(seq, payload);
    }
  }

  /// Entries ever written (== the newest live sequence number).
  [[nodiscard]] std::uint64_t head() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Empties the ring. Only call while no writer can be publishing.
  void reset() noexcept {
    for (std::size_t i = 0; i <= mask_; ++i) {
      slots_[i].word[0].store(0, std::memory_order_relaxed);
    }
    head_.store(0, std::memory_order_release);
  }

  /// Raw slot memory (capacity() * kSlotBytes), for the crash path.
  [[nodiscard]] const void* raw_slots() const noexcept {
    return slots_.get();
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> word[kWords];
  };
  static_assert(sizeof(Slot) == kSlotBytes);

  static std::size_t round_up_pow2(std::size_t n) noexcept {
    std::size_t p = 8;
    while (p < n) {
      p <<= 1;
    }
    return p;
  }

  std::size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};
};

}  // namespace mfcp::obs
