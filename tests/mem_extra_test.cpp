// Coverage for the smaller corners of the memory substrate and the core's
// priority ladder.
#include <gtest/gtest.h>

#include <cstring>

#include "cpu/core.hpp"
#include "mem/address_space.hpp"
#include "mem/malloc_sim.hpp"
#include "mem/physical_memory.hpp"
#include "sim/engine.hpp"

namespace pinsim {
namespace {

TEST(MemExtra, FillWritesThePattern) {
  mem::PhysicalMemory pm(64);
  mem::AddressSpace as(pm);
  const auto a = as.mmap(2 * 4096);
  as.fill(a + 100, 5000, std::byte{0x7e});
  std::vector<std::byte> out(5000);
  as.read(a + 100, out);
  for (auto b : out) ASSERT_EQ(b, std::byte{0x7e});
  // Bytes before the fill stay zero.
  std::vector<std::byte> head(100);
  as.read(a, head);
  for (auto b : head) ASSERT_EQ(b, std::byte{0});
}

TEST(MemExtra, InvalidAddressErrorCarriesTheAddress) {
  mem::PhysicalMemory pm(16);
  mem::AddressSpace as(pm);
  try {
    std::vector<std::byte> buf(4);
    as.read(0xdead000, buf);
    FAIL() << "expected InvalidAddressError";
  } catch (const mem::InvalidAddressError& e) {
    EXPECT_EQ(e.addr(), 0xdead000u);
    EXPECT_NE(std::string(e.what()).find("dead000"), std::string::npos);
  }
}

TEST(MemExtra, AddressSpaceRejectsEmptyRange) {
  mem::PhysicalMemory pm(16);
  EXPECT_THROW(mem::AddressSpace(pm, 0x2000, 0x1000), std::invalid_argument);
}

TEST(MemExtra, MmapFixedOutsideLimitsThrows) {
  mem::PhysicalMemory pm(16);
  mem::AddressSpace as(pm, 0x100000, 0x200000);
  EXPECT_THROW(as.mmap_fixed(0x1000, 4096), mem::InvalidAddressError);
  EXPECT_THROW(as.mmap_fixed(0x1ff000, 2 * 4096), mem::InvalidAddressError);
  EXPECT_NO_THROW(as.mmap_fixed(0x150000, 4096));
}

TEST(MemExtra, MmapExhaustionOfVirtualRangeThrows) {
  mem::PhysicalMemory pm(16);
  mem::AddressSpace as(pm, 0x100000, 0x104000);  // 4 pages of VA
  EXPECT_NO_THROW(as.mmap(3 * 4096));
  EXPECT_THROW(as.mmap(2 * 4096), mem::OutOfMemoryError);
}

TEST(MemExtra, SwapOfAlreadySwappedPageReturnsFalse) {
  mem::PhysicalMemory pm(16);
  mem::AddressSpace as(pm);
  const auto a = as.mmap(4096);
  as.touch(a, 4096);
  EXPECT_TRUE(as.swap_out(a));
  EXPECT_FALSE(as.swap_out(a));  // not resident anymore
}

TEST(MemExtra, MunmapDiscardsSwappedContents) {
  mem::PhysicalMemory pm(16);
  mem::AddressSpace as(pm);
  const auto a = as.mmap(4096);
  std::vector<std::byte> v(8, std::byte{0x42});
  as.write(a, v);
  ASSERT_TRUE(as.swap_out(a));
  as.munmap(a, 4096);
  const auto b = as.mmap(4096);
  ASSERT_EQ(a, b);
  std::vector<std::byte> out(8, std::byte{0xff});
  as.read(b, out);
  for (auto x : out) EXPECT_EQ(x, std::byte{0});  // fresh zero page
}

TEST(MemExtra, CowSnapshotMoveAssignReleasesOldFrames) {
  mem::PhysicalMemory pm(64);
  mem::AddressSpace as(pm);
  const auto a = as.mmap(4096);
  const auto b = as.mmap(4096);
  const std::vector<std::byte> one{std::byte{1}};
  const std::vector<std::byte> two{std::byte{2}};
  as.write(a, one);
  as.write(b, two);
  auto s1 = as.cow_snapshot(a, 4096);
  {
    auto s2 = as.cow_snapshot(b, 4096);
    s1 = std::move(s2);  // s1's old refs must drop
  }
  std::vector<std::byte> out(1);
  s1.read(b, out);
  EXPECT_EQ(out[0], std::byte{2});
  EXPECT_THROW(s1.read(a, out), mem::InvalidAddressError);
}

TEST(MemExtra, UsableSizeOfUnknownPointerThrows) {
  mem::PhysicalMemory pm(64);
  mem::AddressSpace as(pm);
  mem::MallocSim heap(as);
  EXPECT_THROW((void)heap.usable_size(0x1234), std::invalid_argument);
}

TEST(MemExtra, MallocSimRejectsZeroThresholds) {
  mem::PhysicalMemory pm(64);
  mem::AddressSpace as(pm);
  EXPECT_THROW(mem::MallocSim(as, 0), std::invalid_argument);
  EXPECT_THROW(mem::MallocSim(as, 1024, 0), std::invalid_argument);
}

TEST(CoreExtra, IdlePriorityYieldsToEverything) {
  sim::Engine eng;
  cpu::Core core(eng, "cpu0");
  std::vector<char> order;
  // Seed with a running job so the queue ordering is observable.
  core.submit(cpu::Priority::kUser, 10, [&] { order.push_back('s'); });
  core.submit(cpu::Priority::kIdle, 10, [&] { order.push_back('I'); });
  core.submit(cpu::Priority::kUser, 10, [&] { order.push_back('U'); });
  core.submit(cpu::Priority::kKernel, 10, [&] { order.push_back('K'); });
  core.submit(cpu::Priority::kBottomHalf, 10, [&] { order.push_back('B'); });
  eng.run();
  EXPECT_EQ(order, (std::vector<char>{'s', 'B', 'K', 'U', 'I'}));
}

TEST(CoreExtra, StatsTrackAllFourPriorities) {
  sim::Engine eng;
  cpu::Core core(eng, "cpu0");
  core.consume(cpu::Priority::kBottomHalf, 1);
  core.consume(cpu::Priority::kKernel, 2);
  core.consume(cpu::Priority::kUser, 3);
  core.consume(cpu::Priority::kIdle, 4);
  eng.run();
  EXPECT_EQ(core.stats().busy[0], 1u);
  EXPECT_EQ(core.stats().busy[1], 2u);
  EXPECT_EQ(core.stats().busy[2], 3u);
  EXPECT_EQ(core.stats().busy[3], 4u);
  EXPECT_EQ(core.stats().total_busy(), 10u);
}

TEST(MemExtra, PhysicalMemoryRefcountLifecycle) {
  mem::PhysicalMemory pm(4);
  const auto f = pm.alloc();
  EXPECT_EQ(pm.refcount(f), 1u);
  pm.ref(f);
  EXPECT_EQ(pm.refcount(f), 2u);
  pm.unref(f);
  EXPECT_EQ(pm.used_frames(), 1u);
  pm.unref(f);
  EXPECT_EQ(pm.used_frames(), 0u);
  // Re-allocation hands back a zeroed frame.
  const auto g = pm.alloc();
  auto page = pm.data(g);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(page[i], std::byte{0});
}

// The frame store is left uninitialized at construction, so alloc() is the
// only thing that zeroes a frame. Both the first allocation of a frame and a
// re-allocation after a full-page write must read as zero over the whole
// page.
TEST(MemExtra, EveryAllocationReadsAsAZeroPage) {
  constexpr std::size_t kFrames = 8;
  const auto expect_zero_page = [](std::span<const std::byte> page) {
    ASSERT_EQ(page.size(), mem::kPageSize);
    for (std::size_t i = 0; i < page.size(); ++i) {
      ASSERT_EQ(page[i], std::byte{0}) << "byte " << i;
    }
  };
  const auto dirty_all = [](mem::PhysicalMemory& pm) {
    std::vector<mem::FrameId> frames;
    for (std::size_t i = 0; i < kFrames; ++i) {
      frames.push_back(pm.alloc());
      auto page = pm.data(frames.back());
      std::fill(page.begin(), page.end(), std::byte{0xa5});
    }
    for (const auto f : frames) pm.unref(f);
  };

  // A store freed with dirty pages makes it likely the next one of the same
  // size reuses that heap block, so a missing zero-fill would show.
  {
    mem::PhysicalMemory dirty(kFrames);
    dirty_all(dirty);
  }
  mem::PhysicalMemory pm(kFrames);
  std::vector<mem::FrameId> first;
  for (std::size_t i = 0; i < kFrames; ++i) {
    first.push_back(pm.alloc());
    expect_zero_page(pm.data(first.back()));
  }
  for (const auto f : first) pm.unref(f);
  ASSERT_EQ(pm.used_frames(), 0u);

  dirty_all(pm);
  for (std::size_t i = 0; i < kFrames; ++i) {
    const auto f = pm.alloc();
    expect_zero_page(pm.data(f));
  }
}

TEST(MemExtra, IsMappedAcrossAdjacentVmas) {
  mem::PhysicalMemory pm(64);
  mem::AddressSpace as(pm);
  const auto a = as.mmap(4096);
  const auto b = as.mmap(4096);
  ASSERT_EQ(b, a + 4096);  // adjacent by first-fit
  EXPECT_TRUE(as.is_mapped(a, 2 * 4096));  // spans both VMAs
  EXPECT_TRUE(as.is_mapped(a + 100, 4096));
  EXPECT_FALSE(as.is_mapped(a, 3 * 4096));
  EXPECT_TRUE(as.is_mapped(a, 0));  // empty range is trivially mapped
}

}  // namespace
}  // namespace pinsim
