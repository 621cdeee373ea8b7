#include "net/watchdog.hpp"

#include <utility>

namespace pinsim::net {

namespace {

/// FNV-1a over the heartbeat bytes. Not core::frame_checksum — net sits
/// below core in the layer graph — but plenty to reject fault-injector
/// corruption of control traffic.
std::uint32_t hb_checksum(std::span<const std::byte> bytes) noexcept {
  std::uint32_t h = 0x811c9dc5u;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint8_t>(b);
    h *= 0x01000193u;
  }
  return h;
}

constexpr std::size_t kHbHeader = 2;   // magic, blob length
constexpr std::size_t kHbTrailer = 4;  // checksum

}  // namespace

Watchdog::Watchdog(sim::Engine& eng, Nic& nic, Config cfg)
    : eng_(eng), nic_(nic), cfg_(cfg), rng_(cfg.seed ^ 0xbea7beafULL) {}

void Watchdog::add_peer(NodeId peer) {
  PeerState& st = peers_[peer];
  st.last_heard = eng_.now();
}

void Watchdog::start() {
  if (running_) return;
  running_ = true;
  started_at_ = eng_.now();
  for (auto& [peer, st] : peers_) {
    (void)peer;
    st.last_heard = eng_.now();
  }
  arm_beat();
  arm_check();
}

void Watchdog::stop() {
  running_ = false;
  if (beat_timer_.valid()) eng_.cancel(beat_timer_);
  if (check_timer_.valid()) eng_.cancel(check_timer_);
  beat_timer_ = {};
  check_timer_ = {};
}

bool Watchdog::peer_alive(NodeId peer) const {
  auto it = peers_.find(peer);
  return it == peers_.end() || !it->second.dead;
}

void Watchdog::arm_beat() {
  const sim::Time jitter =
      cfg_.jitter == 0
          ? 0
          : static_cast<sim::Time>(
                rng_.next_below(static_cast<std::uint64_t>(cfg_.jitter)));
  beat_timer_ = eng_.schedule_after(
      cfg_.period + jitter,
      // pinlint: allow(D7: ~Watchdog calls stop(), which cancels
      // beat_timer_ before `this` can dangle)
      [this] {
        beat_timer_ = {};
        beat();
      },
      {"net", "wd_beat"});
}

void Watchdog::arm_check() {
  check_timer_ = eng_.schedule_after(
      cfg_.period,
      // pinlint: allow(D7: ~Watchdog calls stop(), which cancels
      // check_timer_ before `this` can dangle)
      [this] {
        check_timer_ = {};
        check();
      },
      {"net", "wd_check"});
}

void Watchdog::beat() {
  if (!running_) return;
  std::vector<std::byte> blob;
  if (announce_) blob = announce_();
  if (blob.size() > 255) blob.resize(255);

  std::vector<std::byte> payload;
  payload.reserve(kHbHeader + blob.size() + kHbTrailer);
  payload.push_back(static_cast<std::byte>(kMagic));
  payload.push_back(static_cast<std::byte>(blob.size()));
  payload.insert(payload.end(), blob.begin(), blob.end());
  const std::uint32_t crc = hb_checksum(payload);
  for (int i = 0; i < 4; ++i) {
    payload.push_back(static_cast<std::byte>(crc >> (8 * i)));
  }

  for (const auto& [peer, st] : peers_) {
    (void)st;
    Frame f;
    f.dst = peer;
    f.payload = payload;
    if (nic_.send(std::move(f))) ++stats_.beats_sent;
  }
  arm_beat();
}

void Watchdog::check() {
  if (!running_) return;
  const sim::Time limit =
      cfg_.period * static_cast<sim::Time>(cfg_.miss_threshold);
  for (auto& [peer, st] : peers_) {
    const sim::Time baseline = st.heard_once ? st.last_heard : started_at_;
    if (!st.dead && eng_.now() - baseline > limit) {
      st.dead = true;
      ++stats_.deaths;
      if (relay_.active()) {
        obs::Event e;
        e.kind = obs::EventKind::kLifePeerDead;
        e.node = nic_.node_id();
        e.peer = peer;
        relay_.emit(e);
      }
      if (on_peer_status_) on_peer_status_(peer, false);
    }
  }
  arm_check();
}

void Watchdog::on_heartbeat(const Frame& frame) {
  const auto& p = frame.payload;
  if (p.size() < kHbHeader + kHbTrailer) {
    ++stats_.corrupt_dropped;
    return;
  }
  const std::size_t blob_len = static_cast<std::uint8_t>(p[1]);
  if (p.size() != kHbHeader + blob_len + kHbTrailer) {
    ++stats_.corrupt_dropped;
    return;
  }
  const std::size_t body = kHbHeader + blob_len;
  std::uint32_t stored = 0;
  for (std::size_t i = 0; i < kHbTrailer; ++i) {
    stored |= static_cast<std::uint32_t>(p[body + i]) << (8 * i);
  }
  if (hb_checksum(std::span<const std::byte>(p.data(), body)) != stored) {
    ++stats_.corrupt_dropped;
    return;
  }

  ++stats_.beats_heard;
  auto it = peers_.find(frame.src);
  if (it != peers_.end()) {
    PeerState& st = it->second;
    st.last_heard = eng_.now();
    st.heard_once = true;
    if (st.dead) {
      st.dead = false;
      ++stats_.revivals;
      if (relay_.active()) {
        obs::Event e;
        e.kind = obs::EventKind::kLifePeerAlive;
        e.node = nic_.node_id();
        e.peer = frame.src;
        relay_.emit(e);
      }
      if (on_peer_status_) on_peer_status_(frame.src, true);
    }
  }
  if (on_announcement_) {
    on_announcement_(frame.src,
                     std::span<const std::byte>(p.data() + kHbHeader,
                                                blob_len));
  }
}

}  // namespace pinsim::net
