#include "mem/physical_memory.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace pinsim::mem {

std::string InvalidAddressError::to_hex(VirtAddr a) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llx", static_cast<unsigned long long>(a));
  return buf;
}

PhysicalMemory::PhysicalMemory(std::size_t num_frames)
    : bytes_(std::make_unique_for_overwrite<std::byte[]>(num_frames *
                                                          kPageSize)),
      refcounts_(num_frames, 0) {
  free_list_.reserve(num_frames);
  // Hand out low frame ids first (pop from the back).
  for (std::size_t i = num_frames; i-- > 0;) {
    free_list_.push_back(static_cast<FrameId>(i));
  }
}

FrameId PhysicalMemory::alloc() {
  if (free_list_.empty()) throw OutOfMemoryError{};
  const FrameId f = free_list_.back();
  free_list_.pop_back();
  assert(refcounts_[f] == 0);
  refcounts_[f] = 1;
  auto page = data(f);
  std::fill(page.begin(), page.end(), std::byte{0});
  return f;
}

void PhysicalMemory::check_live(FrameId f) const {
  assert(f < refcounts_.size() && "frame id out of range");
  assert(refcounts_[f] > 0 && "operating on a freed frame");
}

void PhysicalMemory::ref(FrameId f) {
  check_live(f);
  ++refcounts_[f];
}

void PhysicalMemory::unref(FrameId f) {
  check_live(f);
  if (--refcounts_[f] == 0) free_list_.push_back(f);
}

std::uint32_t PhysicalMemory::refcount(FrameId f) const {
  assert(f < refcounts_.size());
  return refcounts_[f];
}

std::span<std::byte> PhysicalMemory::data(FrameId f) {
  check_live(f);
  return std::span<std::byte>(bytes_.get() + f * kPageSize, kPageSize);
}

std::span<const std::byte> PhysicalMemory::data(FrameId f) const {
  check_live(f);
  return std::span<const std::byte>(bytes_.get() + f * kPageSize, kPageSize);
}

void PhysicalMemory::account_pin(std::int64_t delta) {
  if (delta < 0) {
    assert(pinned_pages_ >= static_cast<std::size_t>(-delta));
  }
  pinned_pages_ = static_cast<std::size_t>(
      static_cast<std::int64_t>(pinned_pages_) + delta);
}

}  // namespace pinsim::mem
