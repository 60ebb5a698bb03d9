// Epoch-cleared open-addressing hash map for hot aggregation loops.
//
// Shaped for a loop that probes a pair-or-vertex → slot-index map a
// couple of times per call, clears it once per window, and never erases
// individual keys. std::unordered_map is a poor fit for that shape:
// every insert allocates a node, every probe chases a bucket chain, and
// clear() walks and frees all of them. SlotMap is the purpose-built
// replacement — flat power-of-two storage, linear probing, and an epoch
// stamp per slot so clear() is a counter bump instead of a sweep.
// Inserts amortize to O(1) with no per-entry allocation; rehash copies
// only live (current-epoch) slots. graph::GraphBuilder indexes its flat
// pair store with it (packed (min, max) vertex pair → pair number).
//
// Not a general map: u64 keys, u32 values, no erase, and the caller must
// keep the map alive across windows to profit from the retained
// capacity. Single-threaded.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace ethshard::util {

class SlotMap {
 public:
  explicit SlotMap(std::size_t initial_capacity = 64) {
    std::size_t cap = 16;
    while (cap < initial_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  /// Forgets every entry in O(1) (slots from earlier epochs read as
  /// empty). Capacity is retained.
  void clear() {
    ++epoch_;
    size_ = 0;
    if (epoch_ == 0) {  // stamp wraparound: hard-reset so stale slots
      for (Slot& s : slots_) s.epoch = 0;  // cannot alias the new epoch
      epoch_ = 1;
    }
  }

  /// Inserts key → value unless key is present; returns the slot's value
  /// reference and whether this call inserted it. The reference is valid
  /// until the next try_emplace (which may rehash) or clear.
  std::pair<std::uint32_t&, bool> try_emplace(std::uint64_t key,
                                              std::uint32_t value) {
    if ((size_ + 1) * 8 > slots_.size() * 7) grow();
    std::size_t i = index_of(key);
    while (true) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_) {
        s.key = key;
        s.epoch = epoch_;
        s.value = value;
        ++size_;
        return {s.value, true};
      }
      if (s.key == key) return {s.value, false};
      i = (i + 1) & mask_;
    }
  }

  /// The value stored for key, or nullptr when key is absent. The
  /// pointer is valid until the next try_emplace or clear.
  const std::uint32_t* find(std::uint64_t key) const {
    std::size_t i = index_of(key);
    while (true) {  // the load cap guarantees an empty slot ends the run
      const Slot& s = slots_[i];
      if (s.epoch != epoch_) return nullptr;
      if (s.key == key) return &s.value;
      i = (i + 1) & mask_;
    }
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }
  /// Bytes of slot storage held (capacity, not live entries).
  std::size_t memory_bytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t epoch = 0;  // slot is live iff epoch matches the map's
    std::uint32_t value = 0;
  };

  /// 64-bit finalizer (splitmix64's mixing function) — pair keys are two
  /// packed 32-bit ids, so low-bit-only hashing would cluster badly.
  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  std::size_t index_of(std::uint64_t key) const {
    return static_cast<std::size_t>(mix(key)) & mask_;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.epoch != epoch_) continue;
      std::size_t i = index_of(s.key);
      while (slots_[i].epoch == epoch_) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::uint32_t epoch_ = 1;  // 0 marks never-used slots
};

}  // namespace ethshard::util
