#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pinsim::sim {

/// Bounded FIFO membership set of 64-bit keys: remembers the last `Capacity`
/// keys inserted and forgets the oldest first. This is the table for a
/// history whose length traffic sets (e.g. the ids of recently completed
/// messages), which the sorted-vector FlatSet must not hold.
///
/// Keys sit in a ring in insertion order; an open-addressed, linear-probing
/// index of ring positions (load factor at most 1/2, backward-shift
/// deletion, so no tombstones) answers lookups. Insert, eviction and lookup
/// are O(1) and nothing shifts. Both arrays grow with the keys held, up to
/// 8 B per key for the ring and 4 B per key for the index.
template <std::size_t Capacity>
class RecentSet {
  static_assert(Capacity > 0 && Capacity < 0x8000,
                "ring positions are stored as 16-bit values");

 public:
  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }

  [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
    if (ring_.empty()) return false;
    for (std::size_t i = home(key);; i = next(i)) {
      if (index_[i] == kEmpty) return false;
      if (ring_[index_[i]] == key) return true;
    }
  }

  /// Remembers `key`, forgetting the oldest key once `Capacity` are held.
  void insert(std::uint64_t key) {
    if (ring_.size() < Capacity) {
      if (2 * (ring_.size() + 1) > index_.size()) {
        reindex(std::max<std::size_t>(64, 2 * index_.size()));
      }
      ring_.push_back(key);
      link(ring_.size() - 1);
      return;
    }
    unlink(oldest_);
    ring_[oldest_] = key;
    link(oldest_);
    oldest_ = (oldest_ + 1) % Capacity;
  }

  /// Forgets every key for which `pred` holds; the rest keep their order.
  /// O(size()), for rare events.
  template <typename Pred>
  void erase_if(Pred pred) {
    std::vector<std::uint64_t> keep;
    keep.reserve(ring_.size());
    for (std::size_t k = 0; k < ring_.size(); ++k) {
      const std::uint64_t key = ring_[(oldest_ + k) % ring_.size()];
      if (!pred(key)) keep.push_back(key);
    }
    ring_ = std::move(keep);
    oldest_ = 0;
    reindex(index_.size());
  }

 private:
  using Pos = std::uint16_t;
  static constexpr Pos kEmpty = 0xffff;

  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }
  [[nodiscard]] std::size_t next(std::size_t i) const noexcept {
    return (i + 1) & (index_.size() - 1);
  }

  void link(std::size_t pos) {
    std::size_t i = home(ring_[pos]);
    while (index_[i] != kEmpty) i = next(i);
    index_[i] = static_cast<Pos>(pos);
  }

  void unlink(std::size_t pos) {
    std::size_t hole = home(ring_[pos]);
    while (index_[hole] != pos) hole = next(hole);
    // Pull later entries of the probe run back into the hole, unless their
    // home slot lies cyclically in (hole, i]: moving those would put them
    // before their home, where a lookup never looks.
    for (std::size_t i = next(hole); index_[i] != kEmpty; i = next(i)) {
      const std::size_t h = home(ring_[index_[i]]);
      const bool stays = hole < i ? (hole < h && h <= i) : (hole < h || h <= i);
      if (!stays) {
        index_[hole] = index_[i];
        hole = i;
      }
    }
    index_[hole] = kEmpty;
  }

  void reindex(std::size_t slots) {
    if (slots == 0) return;  // nothing was ever inserted
    index_.assign(slots, kEmpty);
    shift_ = 64 - std::countr_zero(slots);
    for (std::size_t pos = 0; pos < ring_.size(); ++pos) link(pos);
  }

  std::vector<std::uint64_t> ring_;  // circular from oldest_ once full
  std::vector<Pos> index_;           // ring positions; power-of-two size
  std::size_t oldest_ = 0;
  int shift_ = 64;
};

}  // namespace pinsim::sim
