// Outside-in tracing for the perfbench driver: everything here hooks the
// simulator through public entry points only (sim::DispatchObserver, the
// obs::Sink interface, core::encode/decode), so the traced run measures the
// program the repository ships, not an instrumented variant of it.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/wire.hpp"
#include "obs/event.hpp"
#include "obs/sink.hpp"
#include "sim/engine.hpp"

namespace perfbench {

using namespace pinsim;

inline std::int64_t wall_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- dispatch attribution -----------------------------------------------------

/// Layers that schedule engine callbacks, keyed by TaskTag component. The
/// rarely-dispatching components (mem, life, ioat) and untagged sites share
/// "other"; none of them runs in the benchmark's fault-free workloads.
enum Layer : std::size_t { kCpu, kNet, kCore, kPin, kSim, kOther, kLayers };
inline constexpr std::array<const char*, kLayers> kLayerNames = {
    "cpu", "net", "core", "pin", "sim", "other"};

inline Layer layer_of(const char* component) noexcept {
  if (component == nullptr) return kOther;
  const std::string_view c(component);
  if (c == "cpu") return kCpu;
  if (c == "net") return kNet;
  if (c == "core") return kCore;
  if (c == "pin") return kPin;
  if (c == "sim") return kSim;
  return kOther;
}

struct Tally {
  std::uint64_t n = 0;
  std::int64_t ns = 0;
};

/// Wall time and count of engine dispatches per layer. The engine takes one
/// observer; the benchmark's traced run installs this one and nothing else.
class DispatchTimer final : public sim::DispatchObserver {
 public:
  void on_dispatch_begin(const sim::TaskTag& tag, sim::Time,
                         sim::Time) override {
    cur_ = layer_of(tag.component);
    start_ = wall_ns();
  }
  void on_dispatch_end(const sim::TaskTag&) override {
    Tally& t = tally_[cur_];
    t.ns += wall_ns() - start_;
    ++t.n;
  }
  [[nodiscard]] const std::array<Tally, kLayers>& tally() const noexcept {
    return tally_;
  }

 private:
  std::array<Tally, kLayers> tally_{};
  Layer cur_ = kOther;
  std::int64_t start_ = 0;
};

// --- sink decorators ------------------------------------------------------------

/// Times every call into the wrapped sink; the rig attaches the decorator to
/// the bus in place of the sink itself.
class TimedSink final : public obs::Sink {
 public:
  TimedSink(const char* name, obs::Sink& inner) : name_(name), inner_(inner) {}
  void on_event(const obs::Event& e) override {
    const std::int64_t t0 = wall_ns();
    inner_.on_event(e);
    tally_.ns += wall_ns() - t0;
    ++tally_.n;
  }
  void finalize() override { inner_.finalize(); }
  [[nodiscard]] const char* name() const noexcept { return name_; }
  [[nodiscard]] const Tally& tally() const noexcept { return tally_; }

 private:
  const char* name_;
  obs::Sink& inner_;
  Tally tally_;
};

/// Records the wire frame mix while `recording`: one entry per frame handed
/// to a NIC, as (packet type, payload bytes). Payload sizes come from the
/// events that carry them — eager posts (split at the frame payload) and
/// pull-reply copy-outs; every other packet type carries no payload.
class FrameMix final : public obs::Sink {
 public:
  explicit FrameMix(std::size_t frame_payload) : frame_payload_(frame_payload) {}

  void on_event(const obs::Event& e) override {
    ++events_;
    if (!recording) return;
    using K = obs::EventKind;
    const auto eager = static_cast<std::uint8_t>(core::PacketType::kEager);
    const auto reply = static_cast<std::uint8_t>(core::PacketType::kPullReply);
    if (e.kind == K::kPktTx && e.pkt != eager && e.pkt != reply) {
      frames.emplace_back(e.pkt, 0);
    } else if (e.kind == K::kEagerPost) {
      std::uint64_t left = e.len;
      do {
        const std::uint64_t n = std::min<std::uint64_t>(left, frame_payload_);
        frames.emplace_back(eager, static_cast<std::uint32_t>(n));
        left -= n;
      } while (left > 0);
    } else if (e.kind == K::kCopyOut) {
      frames.emplace_back(reply, static_cast<std::uint32_t>(e.len));
    }
  }

  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

  bool recording = false;
  std::vector<std::pair<std::uint8_t, std::uint32_t>> frames;

 private:
  std::size_t frame_payload_;
  std::uint64_t events_ = 0;
};

/// A frame of the given type and payload size, for the codec replay.
inline core::Packet replay_packet(std::uint8_t type, std::uint32_t len) {
  core::Packet p;
  p.header.type = static_cast<core::PacketType>(type);
  p.header.src_ep = 1;
  p.header.dst_ep = 2;
  core::DataChunk data(len, std::byte{0x5a});
  switch (p.header.type) {
    case core::PacketType::kEager:
      p.body = core::EagerBody{7, len, 0, 1, std::move(data)};
      break;
    case core::PacketType::kEagerAck:
      p.body = core::EagerAckBody{1};
      break;
    case core::PacketType::kRndv:
      p.body = core::RndvBody{7, 65536, 3, 1};
      break;
    case core::PacketType::kPull:
      p.body = core::PullBody{3, 4, 0, 32768, 1};
      break;
    case core::PacketType::kPullReply:
      p.body = core::PullReplyBody{4, 0, std::move(data)};
      break;
    case core::PacketType::kNotify:
      p.body = core::NotifyBody{1, 4};
      break;
    case core::PacketType::kNotifyAck:
      p.body = core::NotifyAckBody{4};
      break;
    case core::PacketType::kAbort:
      p.body = core::AbortBody{1};
      break;
  }
  return p;
}

struct CodecReplay {
  std::uint64_t frames = 0;       // frames in the recorded mix
  std::uint64_t sampled = 0;      // frames replayed per pass
  std::uint64_t wire_bytes = 0;   // encoded bytes of one pass
  double ns_per_pass = 0.0;       // median encode+decode wall of one pass
  /// Estimated codec wall time for the whole recorded mix.
  [[nodiscard]] double est_total_ns() const noexcept {
    return sampled == 0 ? 0.0
                        : ns_per_pass * static_cast<double>(frames) /
                              static_cast<double>(sampled);
  }
};

/// Times core::encode + core::decode over the recorded frame mix, or over a
/// uniform random sample of it (fixed seed) when it holds more than 4,096
/// frames; each pass replays the sample once and the median pass is kept. A
/// random sample, because a strided one aliases with the mix's periodic
/// pattern (eager frame, ack, eager frame, ...). Returns false if a replayed
/// frame does not round-trip.
inline bool replay_codec(
    const std::vector<std::pair<std::uint8_t, std::uint32_t>>& mix,
    CodecReplay& out) {
  constexpr std::size_t kMaxSample = 4096;
  constexpr int kPasses = 9;
  out.frames = mix.size();
  if (mix.empty()) return true;
  std::mt19937_64 pick(0x5eed);
  std::uniform_int_distribution<std::size_t> any(0, mix.size() - 1);
  std::vector<core::Packet> sample;
  for (std::size_t k = 0; k < std::min(mix.size(), kMaxSample); ++k) {
    const std::size_t i = mix.size() <= kMaxSample ? k : any(pick);
    sample.push_back(replay_packet(mix[i].first, mix[i].second));
  }
  out.sampled = sample.size();
  std::vector<double> pass_ns;
  for (int pass = 0; pass < kPasses; ++pass) {
    std::uint64_t bytes = 0;
    const std::int64_t t0 = wall_ns();
    for (const core::Packet& p : sample) {
      const std::vector<std::byte> wire = core::encode(p);
      bytes += wire.size();
      const core::Packet back = core::decode(wire);
      if (back.type() != p.type()) return false;
    }
    pass_ns.push_back(static_cast<double>(wall_ns() - t0));
    out.wire_bytes = bytes;
  }
  std::sort(pass_ns.begin(), pass_ns.end());
  out.ns_per_pass = pass_ns[pass_ns.size() / 2];
  return true;
}

// --- spans ----------------------------------------------------------------------

/// In-memory span log. A span has a name, a parent (0 = root), an optional
/// message id and both wall and simulated start/end; it is written out as a
/// Chrome trace once the run ends. Self time of a span is its duration minus
/// the time covered by its children (children never overlap: the driver is
/// single-threaded and its child spans are sequential calls).
class SpanLog {
 public:
  static constexpr std::uint64_t kNoMsg = ~std::uint64_t{0};

  struct Span {
    const char* name = nullptr;
    std::uint32_t parent = 0;  // 1-based id of the parent, 0 = root
    std::uint32_t track = 0;   // Chrome-trace thread id
    std::uint64_t msg = kNoMsg;
    std::int64_t w0 = 0, w1 = 0;
    sim::Time s0 = 0, s1 = 0;
  };

  explicit SpanLog(std::int64_t origin) : origin_(origin) {}

  bool recording = false;

  /// Opens a span and returns its 1-based id (0 when not recording).
  std::uint32_t open(const char* name, std::uint32_t parent,
                     std::uint32_t track, std::uint64_t msg, std::int64_t w0,
                     sim::Time s0) {
    if (!recording) return 0;
    spans_.push_back(Span{name, parent, track, msg, w0, w0, s0, s0});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void close(std::uint32_t id, std::int64_t w1, sim::Time s1) {
    if (id == 0) return;
    spans_[id - 1].w1 = w1;
    spans_[id - 1].s1 = s1;
  }

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Σ self wall time (ns) of every span named `name`.
  [[nodiscard]] std::int64_t self_ns(std::string_view name) const {
    std::vector<std::int64_t> covered(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != 0) covered[s.parent - 1] += s.w1 - s.w0;
    }
    std::int64_t total = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (name == spans_[i].name) {
        total += spans_[i].w1 - spans_[i].w0 - covered[i];
      }
    }
    return total;
  }

  /// Writes at most `cap` spans (the earliest) as Chrome-trace complete
  /// events; sim start and duration ride in args. Returns false on I/O error.
  bool write_chrome(const std::string& path, std::size_t cap) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
    const std::size_t n = std::min(cap, spans_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%u,\"sim_ns\":%lld,\"sim_dur_ns\":%lld",
                   i == 0 ? "" : ",", s.name, s.track,
                   static_cast<double>(s.w0 - origin_) / 1e3,
                   static_cast<double>(s.w1 - s.w0) / 1e3, i + 1, s.parent,
                   static_cast<long long>(s.s0),
                   static_cast<long long>(s.s1 - s.s0));
      if (s.msg != kNoMsg) {
        std::fprintf(f, ",\"msg\":%llu",
                     static_cast<unsigned long long>(s.msg));
      }
      std::fputs("}}", f);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  std::int64_t origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
