#include "core/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

namespace pinsim::core {
namespace {

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> v(std::strlen(s));
  std::memcpy(v.data(), s, v.size());
  return v;
}

Packet round_trip(Packet p) {
  auto wire = encode(p);
  return decode(wire);
}

TEST(Wire, EagerRoundTrip) {
  Packet p;
  p.header.src_ep = 3;
  p.header.dst_ep = 7;
  EagerBody b;
  b.match = 0xdeadbeefcafef00dULL;
  b.msg_len = 100;
  b.frag_offset = 10;
  b.seq = 42;
  b.data = bytes_of("hello eager world");
  p.body = b;

  Packet q = round_trip(p);
  EXPECT_EQ(q.type(), PacketType::kEager);
  EXPECT_EQ(q.header.src_ep, 3);
  EXPECT_EQ(q.header.dst_ep, 7);
  const auto& eb = std::get<EagerBody>(q.body);
  EXPECT_EQ(eb.match, b.match);
  EXPECT_EQ(eb.msg_len, 100u);
  EXPECT_EQ(eb.frag_offset, 10u);
  EXPECT_EQ(eb.seq, 42u);
  EXPECT_EQ(eb.data, b.data);
}

TEST(Wire, EagerEmptyPayload) {
  Packet p;
  EagerBody b;
  b.msg_len = 0;
  p.body = b;
  Packet q = round_trip(p);
  EXPECT_TRUE(std::get<EagerBody>(q.body).data.empty());
}

TEST(Wire, RndvRoundTrip) {
  Packet p;
  RndvBody b;
  b.match = 77;
  b.msg_len = 16ull * 1024 * 1024;
  b.region = 5;
  b.seq = 1234;
  p.body = b;
  Packet q = round_trip(p);
  const auto& rb = std::get<RndvBody>(q.body);
  EXPECT_EQ(rb.msg_len, b.msg_len);
  EXPECT_EQ(rb.region, 5u);
  EXPECT_EQ(rb.seq, 1234u);
}

TEST(Wire, PullRoundTrip) {
  Packet p;
  PullBody b;
  b.region = 9;
  b.handle = 3;
  b.offset = 0x123456789aULL;
  b.len = 32768;
  b.seq = 55;
  p.body = b;
  Packet q = round_trip(p);
  const auto& pb = std::get<PullBody>(q.body);
  EXPECT_EQ(pb.region, 9u);
  EXPECT_EQ(pb.handle, 3u);
  EXPECT_EQ(pb.offset, 0x123456789aULL);
  EXPECT_EQ(pb.len, 32768u);
  EXPECT_EQ(pb.seq, 55u);
}

TEST(Wire, PullReplyCarriesData) {
  Packet p;
  PullReplyBody b;
  b.handle = 11;
  b.offset = 8192;
  b.data.assign(8192, std::byte{0x5a});
  p.body = b;
  auto wire = encode(p);
  EXPECT_EQ(wire.size(), encoded_overhead(PacketType::kPullReply) + 8192);
  Packet q = decode(wire);
  const auto& rb = std::get<PullReplyBody>(q.body);
  EXPECT_EQ(rb.data.size(), 8192u);
  EXPECT_EQ(rb.data[100], std::byte{0x5a});
}

TEST(Wire, ControlPacketsRoundTrip) {
  {
    Packet p;
    p.body = EagerAckBody{99};
    EXPECT_EQ(std::get<EagerAckBody>(round_trip(p).body).seq, 99u);
  }
  {
    Packet p;
    p.body = NotifyBody{7, 8};
    auto q = round_trip(p);
    EXPECT_EQ(std::get<NotifyBody>(q.body).seq, 7u);
    EXPECT_EQ(std::get<NotifyBody>(q.body).handle, 8u);
  }
  {
    Packet p;
    p.body = NotifyAckBody{13};
    EXPECT_EQ(std::get<NotifyAckBody>(round_trip(p).body).handle, 13u);
  }
  {
    Packet p;
    p.body = AbortBody{21};
    EXPECT_EQ(std::get<AbortBody>(round_trip(p).body).seq, 21u);
  }
}

TEST(Wire, HeaderTypeMatchesBodyAlternative) {
  Packet p;
  p.body = PullBody{};
  auto wire = encode(p);
  EXPECT_EQ(static_cast<PacketType>(std::to_integer<int>(wire[0])),
            PacketType::kPull);
}

TEST(Wire, TruncatedPacketThrows) {
  Packet p;
  RndvBody b;
  p.body = b;
  auto wire = encode(p);
  wire.resize(wire.size() - 1);
  EXPECT_THROW(decode(wire), WireFormatError);
}

TEST(Wire, EmptyBufferThrows) {
  EXPECT_THROW(decode(std::span<const std::byte>{}), WireFormatError);
}

TEST(Wire, BadTypeThrows) {
  std::vector<std::byte> wire(16, std::byte{0});
  wire[0] = std::byte{0xff};
  EXPECT_THROW(decode(wire), WireFormatError);
}

TEST(Wire, TrailingBytesOnFixedSizePacketThrow) {
  Packet p;
  p.body = NotifyBody{1, 2};
  auto wire = encode(p);
  wire.push_back(std::byte{0});
  EXPECT_THROW(decode(wire), WireFormatError);
}

TEST(Wire, EagerFragmentBeyondMessageLengthThrows) {
  Packet p;
  EagerBody b;
  b.msg_len = 4;
  b.frag_offset = 0;
  b.data = bytes_of("too much data");
  p.body = b;
  auto wire = encode(p);
  EXPECT_THROW(decode(wire), WireFormatError);
}

TEST(Wire, ChecksumCatchesSingleBitFlip) {
  Packet p;
  EagerBody b;
  b.match = 0x1234;
  b.msg_len = 64;
  b.seq = 7;
  b.data.assign(64, std::byte{0xa5});
  p.body = b;
  auto wire = encode(p);
  // Flip one bit in every byte position (header, body, payload, CRC itself):
  // decode must reject each damaged frame.
  for (std::size_t i = 0; i < wire.size(); ++i) {
    auto damaged = wire;
    damaged[i] ^= std::byte{0x10};
    EXPECT_THROW(decode(damaged), WireChecksumError) << "byte " << i;
  }
  // The pristine frame still decodes.
  EXPECT_EQ(decode(wire).type(), PacketType::kEager);
}

TEST(Wire, ChecksumIsLittleEndianTrailerOverPrecedingBytes) {
  Packet p;
  p.body = EagerAckBody{4711};
  auto wire = encode(p);
  ASSERT_GT(wire.size(), kChecksumBytes);
  const auto body = std::span<const std::byte>(wire).first(
      wire.size() - kChecksumBytes);
  const std::uint32_t crc = frame_checksum(body);
  const std::size_t t = wire.size() - kChecksumBytes;
  EXPECT_EQ(wire[t + 0], std::byte(crc & 0xff));
  EXPECT_EQ(wire[t + 1], std::byte((crc >> 8) & 0xff));
  EXPECT_EQ(wire[t + 2], std::byte((crc >> 16) & 0xff));
  EXPECT_EQ(wire[t + 3], std::byte((crc >> 24) & 0xff));
}

TEST(Wire, ChecksumIsDeterministicAndContentSensitive) {
  std::vector<std::byte> a(100, std::byte{0x11});
  std::vector<std::byte> b(100, std::byte{0x11});
  EXPECT_EQ(frame_checksum(a), frame_checksum(b));
  b[50] = std::byte{0x12};
  EXPECT_NE(frame_checksum(a), frame_checksum(b));
  // CRC-32 (IEEE) of "123456789" is the classic check value.
  const char* check = "123456789";
  std::vector<std::byte> v(9);
  std::memcpy(v.data(), check, 9);
  EXPECT_EQ(frame_checksum(v), 0xcbf43926u);
}

// Bit-at-a-time CRC-32 (IEEE, reflected, init and xorout 0xffffffff): the
// reference both fast paths must reproduce exactly.
std::uint32_t crc32_bitwise(std::span<const std::byte> bytes) {
  std::uint32_t crc = 0xffffffffu;
  for (const std::byte b : bytes) {
    crc ^= static_cast<std::uint8_t>(b);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xffffffffu;
}

std::vector<std::byte> noise(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> v(n);
  std::uint64_t x = seed;
  for (auto& b : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::byte>(x >> 32);
  }
  return v;
}

// Every length 0..1100 at every offset 0..15 (so the folding path sees each
// alignment, each tail length, and both sides of its 64 B threshold), plus
// two large frames with odd lengths.
void expect_matches_reference(
    std::uint32_t (*crc)(std::span<const std::byte>) noexcept) {
  const auto buf = noise(1100 + 16, 0x5eed);
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const std::span<const std::byte> s(buf.data() + off, len);
      ASSERT_EQ(crc(s), crc32_bitwise(s)) << "offset " << off << " len " << len;
    }
  }
  for (const std::size_t len : {std::size_t{8251}, std::size_t{65581}}) {
    const auto big = noise(len, len);
    ASSERT_EQ(crc(big), crc32_bitwise(big)) << "len " << len;
  }
}

TEST(WireCrc, PortablePathMatchesBitwiseReference) {
  expect_matches_reference(detail::crc32_portable);
}

TEST(WireCrc, ClmulPathMatchesBitwiseReference) {
  if (!detail::has_clmul()) GTEST_SKIP() << "CPU lacks PCLMULQDQ/SSE4.1";
  expect_matches_reference(detail::crc32_clmul);
}

TEST(WireCrc, VpclmulPathMatchesBitwiseReference) {
  if (!detail::has_vpclmul()) {
    GTEST_SKIP() << "CPU lacks AVX-512F/VPCLMULQDQ";
  }
  expect_matches_reference(detail::crc32_vpclmul);
  // Both sides of the 256 B threshold, one 16 B fold past it, and the two
  // large frames again, at every offset.
  for (const std::size_t len : {std::size_t{255}, std::size_t{256},
                                std::size_t{272}, std::size_t{8251},
                                std::size_t{65581}}) {
    const auto buf = noise(len + 16, len ^ 0xabcd);
    for (std::size_t off = 0; off < 16; ++off) {
      const std::span<const std::byte> s(buf.data() + off, len);
      ASSERT_EQ(detail::crc32_vpclmul(s), crc32_bitwise(s))
          << "offset " << off << " len " << len;
    }
  }
}

// PullReplyFrame writes in place exactly the bytes encode() produces for the
// same PullReplyBody, at the sizes the send path uses.
TEST(Wire, InPlacePullReplyEqualsEncode) {
  PacketHeader h;
  h.src_ep = 3;
  h.dst_ep = 5;
  h.src_epoch = 2;
  h.dst_epoch = 7;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{4096}, std::size_t{8192}}) {
    const auto data = noise(n, n + 1);
    PullReplyFrame frame(h, 0xdeadbeef, 0x123456789aULL, n);
    ASSERT_EQ(frame.data().size(), n);
    std::copy(data.begin(), data.end(), frame.data().begin());
    const std::vector<std::byte> in_place = std::move(frame).finish();

    Packet p;
    p.header = h;
    p.header.type = PacketType::kPullReply;
    PullReplyBody body;
    body.handle = 0xdeadbeef;
    body.offset = 0x123456789aULL;
    body.data = data;
    p.body = std::move(body);
    EXPECT_EQ(in_place, encode(p)) << "data bytes " << n;
  }
}

TEST(Wire, UnfinishedPullReplyFrameReturnsItsBuffer) {
  { PullReplyFrame warm({}, 1, 0, 64); }  // the pool now holds a buffer
  const std::size_t retained = frame_buffers().retained();
  { PullReplyFrame dropped({}, 1, 0, 8192); }
  EXPECT_EQ(frame_buffers().retained(), retained);
}

TEST(Wire, ChecksumErrorIsDistinctFromFormatError) {
  Packet p;
  p.body = AbortBody{1};
  auto wire = encode(p);
  wire.back() ^= std::byte{0xff};
  bool caught_checksum = false;
  try {
    (void)decode(wire);
  } catch (const WireChecksumError&) {
    caught_checksum = true;
  }
  EXPECT_TRUE(caught_checksum);
}

TEST(Wire, PacketTypeNames) {
  EXPECT_STREQ(packet_type_name(PacketType::kEager), "EAGER");
  EXPECT_STREQ(packet_type_name(PacketType::kPullReply), "PULL_REPLY");
  EXPECT_STREQ(packet_type_name(static_cast<PacketType>(99)), "UNKNOWN");
}

}  // namespace
}  // namespace pinsim::core
