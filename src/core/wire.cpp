#include "core/wire.hpp"

#include <cassert>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PINSIM_CRC_CLMUL 1
#include <immintrin.h>
#endif

namespace pinsim::core {

namespace {

template <typename T>
void store_le(std::byte* p, T v) noexcept {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<std::byte>(v >> (8 * i));
  }
}

template <typename T>
T load_le(const std::byte* p) noexcept {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(p[i]) << (8 * i);
  }
  return v;
}

/// Fills a frame buffer sized once up front: fields are stored in place as
/// little-endian values, bulk data with one memcpy, the CRC trailer last.
class Writer {
 public:
  explicit Writer(std::vector<std::byte>& out, std::size_t pos = 0)
      : out_(out), pos_(pos) {}

  void u8(std::uint8_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void bytes(std::span<const std::byte> b) {
    if (!b.empty()) std::memcpy(out_.data() + pos_, b.data(), b.size());
    pos_ += b.size();
  }
  /// Stores the CRC-32 of everything before it as the trailer. At the end
  /// (not the front) so the dst_ep byte keeps its fixed offset for NIC flow
  /// steering.
  void finish() {
    assert(pos_ + kChecksumBytes == out_.size());
    u32(frame_checksum({out_.data(), pos_}));
  }

 private:
  template <typename T>
  void put(T v) {
    store_le(out_.data() + pos_, v);
    pos_ += sizeof(T);
  }

  std::vector<std::byte>& out_;
  std::size_t pos_ = 0;
};

class Reader {
 public:
  explicit Reader(std::span<const std::byte> in) : in_(in) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(in_[pos_++]);
  }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::vector<std::byte> rest() {
    std::vector<std::byte> out(in_.begin() + static_cast<std::ptrdiff_t>(pos_),
                               in_.end());
    pos_ = in_.size();
    return out;
  }
  /// Position of the next unread byte; with skip_rest(), lets decode_frame
  /// compute the (offset, length) window of the trailing data bytes without
  /// materializing them.
  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  std::size_t skip_rest() noexcept {
    const std::size_t n = in_.size() - pos_;
    pos_ = in_.size();
    return n;
  }
  void expect_end() const {
    if (pos_ != in_.size()) throw WireFormatError("trailing bytes");
  }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > in_.size()) throw WireFormatError("truncated packet");
  }
  template <typename T>
  T get() {
    need(sizeof(T));
    const T v = load_le<T>(in_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }
  std::span<const std::byte> in_;
  std::size_t pos_ = 0;
};

// type, src_ep, dst_ep, src_epoch, dst_epoch. The epoch bytes sit AFTER
// dst_ep: the dst_ep byte's fixed offset (payload[2]) is load-bearing for
// NIC flow steering and drop attribution.
constexpr std::size_t kHeaderBytes = 5;

PacketType body_type(const PacketBody& b) noexcept {
  return static_cast<PacketType>(b.index() + 1);
}

void put_header(Writer& w, PacketType t, const PacketHeader& h) {
  w.u8(static_cast<std::uint8_t>(t));
  w.u8(h.src_ep);
  w.u8(h.dst_ep);
  w.u8(h.src_epoch);
  w.u8(h.dst_epoch);
}

/// The PULL_REPLY fields between the header and the data bytes. encode() and
/// PullReplyFrame both write them here, so the two cannot drift apart.
void put_pull_reply_fields(Writer& w, std::uint32_t handle,
                           std::uint64_t offset) {
  w.u32(handle);
  w.u64(offset);
}

// Reflected IEEE 802.3 polynomial; init and xorout are 0xffffffff.
constexpr std::uint32_t kCrcPoly = 0xedb88320u;

/// Slicing-by-8 tables: t[0] is the classic byte-at-a-time table and
/// t[k][b] is t[k-1][b] advanced over one more zero byte, so one step
/// consumes eight input bytes with eight independent lookups.
struct Crc32Tables {
  constexpr Crc32Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? kCrcPoly ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
      }
    }
  }
  std::uint32_t t[8][256] = {};
};

constexpr Crc32Tables kCrc32;

/// Advances the raw CRC register `crc` (no init/xorout) over `n` bytes.
std::uint32_t crc32_table(std::uint32_t crc, const std::byte* p,
                          std::size_t n) noexcept {
  const auto& t = kCrc32.t;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le<std::uint32_t>(p) ^ crc;
    const std::uint32_t hi = load_le<std::uint32_t>(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ static_cast<std::uint8_t>(*p)) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

#if PINSIM_CRC_CLMUL

/// A folding constant pair for the reflected IEEE polynomial. The pair that
/// moves a 128-bit lane forward by D bits holds x^(D+32) mod P in its low
/// qword and x^(D-32) mod P in its high qword, each bit-reflected and
/// shifted left by one (the convention of Gopal et al., cited below). The
/// D = 2048, 384 and 256 pairs are derived the same way as that paper's
/// D = 512 and 128 pairs.
struct FoldK {
  long long hi, lo;
};
constexpr FoldK kFold2048{0x01322d1430, 0x011542778a};
constexpr FoldK kFold512{0x01c6e41596, 0x0154442bd4};
constexpr FoldK kFold384{0x0174359406, 0x003db1ecdc};
constexpr FoldK kFold256{0x015a546366, 0x00f1da05aa};
constexpr FoldK kFold128{0x00ccaa009e, 0x01751997d0};

inline __m128i k128(FoldK k) noexcept { return _mm_set_epi64x(k.hi, k.lo); }

/// Carry-less multiplies the low and high halves of a 128-bit lane by the
/// two halves of `k` and adds them: moves the lane forward by the distance
/// the constant pair encodes.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(
    __m128i x, __m128i k) noexcept {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

inline __m128i load128(const std::byte* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Folds the 16-byte blocks of `p[0, n)` (n % 16 == 0) into the lane `x`,
/// which stands for everything before `p`, then reduces 128 -> 64 -> 32
/// bits, the last step a Barrett reduction. Returns the raw CRC register.
__attribute__((target("pclmul,sse4.1"))) inline std::uint32_t crc32_reduce(
    __m128i x, const std::byte* p, std::size_t n) noexcept {
  const __m128i k3k4 = k128(kFold128);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  for (; n >= 16; p += 16, n -= 16) {
    x = _mm_xor_si128(fold(x, k3k4), load128(p));
  }
  // 128 -> 64 bits.
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
  // 64 -> 32 bits.
  x = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
                    _mm_srli_si128(x, 4));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

/// Advances the raw CRC register over `n` bytes (n >= 64, n % 16 == 0) by
/// PCLMULQDQ folding: four 128-bit lanes fold 64 B per step, then collapse
/// into one lane for crc32_reduce(). This is the bit-reflected scheme of
/// Gopal et al., "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ Instruction" (Intel, 2009); the constants are that paper's
/// x^k mod P values and floor(x^64 / P) for the IEEE polynomial.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_fold(
    std::uint32_t crc, const std::byte* p, std::size_t n) noexcept {
  const __m128i k1k2 = k128(kFold512);
  const __m128i k3k4 = k128(kFold128);

  __m128i x1 =
      _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load128(p + 16);
  __m128i x3 = load128(p + 32);
  __m128i x4 = load128(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x1 = _mm_xor_si128(fold(x1, k1k2), load128(p));
    x2 = _mm_xor_si128(fold(x2, k1k2), load128(p + 16));
    x3 = _mm_xor_si128(fold(x3, k1k2), load128(p + 32));
    x4 = _mm_xor_si128(fold(x4, k1k2), load128(p + 48));
  }
  x1 = _mm_xor_si128(fold(x1, k3k4), x2);
  x1 = _mm_xor_si128(fold(x1, k3k4), x3);
  x1 = _mm_xor_si128(fold(x1, k3k4), x4);
  return crc32_reduce(x1, p, n);
}

/// The same pair in each of the four 128-bit lanes of a 512-bit register.
__attribute__((target("avx512f"))) inline __m512i k512(FoldK k) noexcept {
  return _mm512_set_epi64(k.hi, k.lo, k.hi, k.lo, k.hi, k.lo, k.hi, k.lo);
}

/// fold() on each of the four 128-bit lanes of a 512-bit register, with the
/// sum added in by one ternary-logic XOR.
__attribute__((target("avx512f,vpclmulqdq,pclmul,sse4.1"))) inline __m512i
fold512(__m512i x, __m512i k, __m512i add) noexcept {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                   _mm512_clmulepi64_epi128(x, k, 0x11), add,
                                   0x96);
}

__attribute__((target("avx512f,vpclmulqdq,pclmul,sse4.1"))) inline __m512i
load512(const std::byte* p) noexcept {
  return _mm512_loadu_si512(p);
}

/// The VPCLMULQDQ form of crc32_fold() for n >= 256 (n % 16 == 0): four
/// 512-bit registers, sixteen 128-bit lanes in all, fold 256 B per step;
/// they collapse into one register that folds 64 B per step, whose four
/// lanes then fold onto the last one (by 48, 32 and 16 B) before the shared
/// 16-byte loop and reduction.
__attribute__((target("avx512f,vpclmulqdq,pclmul,sse4.1"))) std::uint32_t
crc32_fold512(std::uint32_t crc, const std::byte* p, std::size_t n) noexcept {
  const __m512i k256b = k512(kFold2048);
  const __m512i k64b = k512(kFold512);

  __m512i x0 = _mm512_xor_si512(
      load512(p),
      _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(crc))));
  __m512i x1 = load512(p + 64);
  __m512i x2 = load512(p + 128);
  __m512i x3 = load512(p + 192);
  for (p += 256, n -= 256; n >= 256; p += 256, n -= 256) {
    x0 = fold512(x0, k256b, load512(p));
    x1 = fold512(x1, k256b, load512(p + 64));
    x2 = fold512(x2, k256b, load512(p + 128));
    x3 = fold512(x3, k256b, load512(p + 192));
  }
  x0 = fold512(x0, k64b, x1);
  x0 = fold512(x0, k64b, x2);
  x0 = fold512(x0, k64b, x3);
  for (; n >= 64; p += 64, n -= 64) x0 = fold512(x0, k64b, load512(p));

  alignas(64) std::byte lanes[64];
  _mm512_store_si512(lanes, x0);
  __m128i x = load128(lanes + 48);
  x = _mm_xor_si128(x, fold(load128(lanes), k128(kFold384)));
  x = _mm_xor_si128(x, fold(load128(lanes + 16), k128(kFold256)));
  x = _mm_xor_si128(x, fold(load128(lanes + 32), k128(kFold128)));
  return crc32_reduce(x, p, n);
}

#endif  // PINSIM_CRC_CLMUL

}  // namespace

namespace detail {

std::uint32_t crc32_portable(std::span<const std::byte> bytes) noexcept {
  return crc32_table(0xffffffffu, bytes.data(), bytes.size()) ^ 0xffffffffu;
}

std::uint32_t crc32_clmul(std::span<const std::byte> bytes) noexcept {
  std::uint32_t crc = 0xffffffffu;
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
#if PINSIM_CRC_CLMUL
  if (n >= 64) {
    const std::size_t folded = n & ~std::size_t{15};
    crc = crc32_fold(crc, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return crc32_table(crc, p, n) ^ 0xffffffffu;
}

std::uint32_t crc32_vpclmul(std::span<const std::byte> bytes) noexcept {
#if PINSIM_CRC_CLMUL
  if (bytes.size() >= 256) {
    const std::size_t folded = bytes.size() & ~std::size_t{15};
    const std::uint32_t crc = crc32_fold512(0xffffffffu, bytes.data(), folded);
    return crc32_table(crc, bytes.data() + folded, bytes.size() - folded) ^
           0xffffffffu;
  }
#endif
  return crc32_clmul(bytes);
}

bool has_clmul() noexcept {
#if PINSIM_CRC_CLMUL
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

bool has_vpclmul() noexcept {
#if PINSIM_CRC_CLMUL
  // crc32_vpclmul() hands frames under 256 B to the PCLMULQDQ path.
  return has_clmul() && __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("vpclmulqdq");
#else
  return false;
#endif
}

}  // namespace detail

std::uint32_t frame_checksum(std::span<const std::byte> bytes) noexcept {
  // Probed once per process. All paths return bit-identical checksums, so
  // the choice never shows in any output.
  using Crc = std::uint32_t (*)(std::span<const std::byte>) noexcept;
  static const Crc crc = detail::has_vpclmul() ? detail::crc32_vpclmul
                         : detail::has_clmul() ? detail::crc32_clmul
                                               : detail::crc32_portable;
  return crc(bytes);
}

const char* packet_type_name(PacketType t) noexcept {
  switch (t) {
    case PacketType::kEager:
      return "EAGER";
    case PacketType::kEagerAck:
      return "EAGER_ACK";
    case PacketType::kRndv:
      return "RNDV";
    case PacketType::kPull:
      return "PULL";
    case PacketType::kPullReply:
      return "PULL_REPLY";
    case PacketType::kNotify:
      return "NOTIFY";
    case PacketType::kNotifyAck:
      return "NOTIFY_ACK";
    case PacketType::kAbort:
      return "ABORT";
  }
  return "UNKNOWN";
}

std::size_t encoded_overhead(PacketType t) noexcept {
  switch (t) {
    case PacketType::kEager:
      return kHeaderBytes + 8 + 4 + 4 + 4 + kChecksumBytes;
    case PacketType::kEagerAck:
      return kHeaderBytes + 4 + kChecksumBytes;
    case PacketType::kRndv:
      return kHeaderBytes + 8 + 8 + 4 + 4 + kChecksumBytes;
    case PacketType::kPull:
      return kHeaderBytes + 4 + 4 + 8 + 4 + 4 + kChecksumBytes;
    case PacketType::kPullReply:
      return kHeaderBytes + 4 + 8 + kChecksumBytes;
    case PacketType::kNotify:
      return kHeaderBytes + 4 + 4 + kChecksumBytes;
    case PacketType::kNotifyAck:
      return kHeaderBytes + 4 + kChecksumBytes;
    case PacketType::kAbort:
      return kHeaderBytes + 4 + kChecksumBytes;
  }
  return kHeaderBytes + kChecksumBytes;
}

std::vector<std::byte> encode(const Packet& p) {
  const PacketType t = body_type(p.body);
  std::size_t data_len = 0;
  if (const auto* e = std::get_if<EagerBody>(&p.body)) data_len = e->data.size();
  if (const auto* r = std::get_if<PullReplyBody>(&p.body)) {
    data_len = r->data.size();
  }
  std::vector<std::byte> out =
      frame_buffers().acquire(encoded_overhead(t) + data_len);
  Writer w(out);
  put_header(w, t, p.header);

  std::visit(
      [&w](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, EagerBody>) {
          w.u64(body.match);
          w.u32(body.msg_len);
          w.u32(body.frag_offset);
          w.u32(body.seq);
          w.bytes(body.data);
        } else if constexpr (std::is_same_v<T, EagerAckBody>) {
          w.u32(body.seq);
        } else if constexpr (std::is_same_v<T, RndvBody>) {
          w.u64(body.match);
          w.u64(body.msg_len);
          w.u32(body.region);
          w.u32(body.seq);
        } else if constexpr (std::is_same_v<T, PullBody>) {
          w.u32(body.region);
          w.u32(body.handle);
          w.u64(body.offset);
          w.u32(body.len);
          w.u32(body.seq);
        } else if constexpr (std::is_same_v<T, PullReplyBody>) {
          put_pull_reply_fields(w, body.handle, body.offset);
          w.bytes(body.data);
        } else if constexpr (std::is_same_v<T, NotifyBody>) {
          w.u32(body.seq);
          w.u32(body.handle);
        } else if constexpr (std::is_same_v<T, NotifyAckBody>) {
          w.u32(body.handle);
        } else if constexpr (std::is_same_v<T, AbortBody>) {
          w.u32(body.seq);
        }
      },
      p.body);
  w.finish();
  return out;
}

PullReplyFrame::PullReplyFrame(const PacketHeader& header,
                               std::uint32_t handle, std::uint64_t offset,
                               std::size_t data_len)
    : bytes_(frame_buffers().acquire(
          encoded_overhead(PacketType::kPullReply) + data_len)) {
  Writer w(bytes_);
  put_header(w, PacketType::kPullReply, header);
  put_pull_reply_fields(w, handle, offset);
}

PullReplyFrame::~PullReplyFrame() {
  if (bytes_.capacity() != 0) frame_buffers().release(std::move(bytes_));
}

std::span<std::byte> PullReplyFrame::data() noexcept {
  const std::size_t head =
      encoded_overhead(PacketType::kPullReply) - kChecksumBytes;
  return {bytes_.data() + head, bytes_.size() - head - kChecksumBytes};
}

std::vector<std::byte> PullReplyFrame::finish() && {
  Writer w(bytes_, bytes_.size() - kChecksumBytes);
  w.finish();
  return std::move(bytes_);
}

namespace {

/// Shared decode body. When `owner` is non-null it is the vector `bytes`
/// views, and bulk data is adopted out of it zero-copy (the vector is left
/// unspecified-but-valid afterwards); when null, bulk data is copied.
Packet decode_impl(std::span<const std::byte> bytes,
                   std::vector<std::byte>* owner) {
  if (bytes.size() < kHeaderBytes + kChecksumBytes) {
    throw WireFormatError("truncated packet");
  }
  const std::span<const std::byte> body =
      bytes.first(bytes.size() - kChecksumBytes);
  const auto stored = load_le<std::uint32_t>(bytes.data() + body.size());
  if (frame_checksum(body) != stored) throw WireChecksumError();

  // Takes the trailing data bytes: adopting the owning vector when there is
  // one (the CRC above already vouched for the window), copying otherwise.
  const auto take_rest = [&](Reader& r) -> DataChunk {
    if (owner == nullptr) return DataChunk(r.rest());
    const std::size_t off = r.pos();
    const std::size_t n = r.skip_rest();
    return DataChunk::adopt(std::move(*owner), off, n);
  };

  Reader r(body);
  Packet p;
  const auto raw_type = r.u8();
  if (raw_type < 1 || raw_type > 8) throw WireFormatError("bad packet type");
  p.header.type = static_cast<PacketType>(raw_type);
  p.header.src_ep = r.u8();
  p.header.dst_ep = r.u8();
  p.header.src_epoch = r.u8();
  p.header.dst_epoch = r.u8();

  switch (p.header.type) {
    case PacketType::kEager: {
      EagerBody b;
      b.match = r.u64();
      b.msg_len = r.u32();
      b.frag_offset = r.u32();
      b.seq = r.u32();
      // Bounds check BEFORE adopting: on throw the caller's payload vector
      // must still be intact for drop attribution.
      if (b.frag_offset + (body.size() - r.pos()) > b.msg_len) {
        throw WireFormatError("eager fragment out of bounds");
      }
      b.data = take_rest(r);
      p.body = std::move(b);
      break;
    }
    case PacketType::kEagerAck: {
      EagerAckBody b;
      b.seq = r.u32();
      r.expect_end();
      p.body = b;
      break;
    }
    case PacketType::kRndv: {
      RndvBody b;
      b.match = r.u64();
      b.msg_len = r.u64();
      b.region = r.u32();
      b.seq = r.u32();
      r.expect_end();
      p.body = b;
      break;
    }
    case PacketType::kPull: {
      PullBody b;
      b.region = r.u32();
      b.handle = r.u32();
      b.offset = r.u64();
      b.len = r.u32();
      b.seq = r.u32();
      r.expect_end();
      p.body = b;
      break;
    }
    case PacketType::kPullReply: {
      PullReplyBody b;
      b.handle = r.u32();
      b.offset = r.u64();
      b.data = take_rest(r);
      p.body = std::move(b);
      break;
    }
    case PacketType::kNotify: {
      NotifyBody b;
      b.seq = r.u32();
      b.handle = r.u32();
      r.expect_end();
      p.body = b;
      break;
    }
    case PacketType::kNotifyAck: {
      NotifyAckBody b;
      b.handle = r.u32();
      r.expect_end();
      p.body = b;
      break;
    }
    case PacketType::kAbort: {
      AbortBody b;
      b.seq = r.u32();
      r.expect_end();
      p.body = b;
      break;
    }
  }
  return p;
}

}  // namespace

mem::BufferPool& frame_buffers() {
  static mem::BufferPool pool;
  return pool;
}

Packet decode(std::span<const std::byte> bytes) {
  return decode_impl(bytes, nullptr);
}

Packet decode_frame(net::Frame& frame) {
  Packet p = decode_impl(frame.payload, &frame.payload);
  if (!frame.payload.empty()) {
    // Not adopted (no bulk data in this packet type): recycle the capacity.
    frame_buffers().release(std::move(frame.payload));
  }
  frame.payload.clear();
  return p;
}

}  // namespace pinsim::core
