#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "net/frame.hpp"
#include "net/nic.hpp"
#include "obs/relay.hpp"
#include "sim/engine.hpp"
#include "sim/flat_map.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace pinsim::net {

/// Node-level liveness watchdog: periodic heartbeat frames to every watched
/// peer, a missed-heartbeat threshold that declares a peer dead, and revival
/// when it is heard again. Peers are checked in ascending NodeId order on
/// one engine timer, so timeout ordering is deterministic via the timing
/// wheel; per-beat jitter comes from a seeded stream so two runs of the same
/// seed phase their heartbeats identically.
///
/// Heartbeats are link-level control traffic, not MXoE packets: the first
/// payload byte is a magic tag (`kMagic`, outside the 1..8 PacketType range)
/// so the driver can intercept them before wire decode. Each beat carries an
/// opaque announcement blob (the driver uses it for its per-slot epoch
/// table) protected by an FNV-1a checksum — a corrupted heartbeat is dropped
/// rather than poisoning epoch learning.
///
/// The watchdog is inert until start(): existing single-tenant tests see
/// zero behaviour change.
class Watchdog {
 public:
  /// Payload tag of a heartbeat frame. 0xF5 can never open a real MXoE
  /// packet (encode() writes PacketType 1..8 in byte 0).
  static constexpr std::uint8_t kMagic = 0xf5;

  struct Config {
    sim::Time period = 50 * sim::kMicrosecond;
    sim::Time jitter = 5 * sim::kMicrosecond;  // uniform [0, jitter) per beat
    std::uint32_t miss_threshold = 3;  // silent periods before declared dead
    std::uint64_t seed = 0x4dead;
  };

  struct Stats {
    std::uint64_t beats_sent = 0;
    std::uint64_t beats_heard = 0;
    std::uint64_t corrupt_dropped = 0;
    std::uint64_t deaths = 0;    // peers declared dead on a missed threshold
    std::uint64_t revivals = 0;  // dead peers heard again
  };

  /// alive=false: the peer missed the threshold; alive=true: heard again.
  using PeerStatusHandler = std::function<void(NodeId peer, bool alive)>;
  /// A valid heartbeat arrived from `peer` carrying `blob`.
  using AnnouncementHandler =
      std::function<void(NodeId peer, std::span<const std::byte> blob)>;
  /// Called at each beat to fill the outgoing announcement blob.
  using AnnouncementProvider = std::function<std::vector<std::byte>()>;

  Watchdog(sim::Engine& eng, Nic& nic, Config cfg);
  ~Watchdog() { stop(); }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void set_peer_status_handler(PeerStatusHandler h) {
    on_peer_status_ = std::move(h);
  }
  void set_announcement_handler(AnnouncementHandler h) {
    on_announcement_ = std::move(h);
  }
  void set_announcement_provider(AnnouncementProvider p) {
    announce_ = std::move(p);
  }
  void set_bus(obs::Bus* bus) noexcept { relay_.set_bus(bus); }

  /// Starts watching `peer`. A peer added while the watchdog runs gets the
  /// full threshold of grace before it can time out.
  void add_peer(NodeId peer);

  void start();
  void stop();
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// True if `frame` is watchdog control traffic (checks the magic tag
  /// only — cheap enough for every rx frame).
  [[nodiscard]] static bool is_heartbeat(const Frame& frame) noexcept {
    return !frame.payload.empty() &&
           static_cast<std::uint8_t>(frame.payload[0]) == kMagic;
  }

  /// Feed of intercepted heartbeat frames (driver rx path). Works whether
  /// or not the watchdog is started — a stopped watchdog still learns
  /// announcements, it just never declares anyone dead.
  void on_heartbeat(const Frame& frame);

  [[nodiscard]] bool peer_alive(NodeId peer) const;
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

 private:
  struct PeerState {
    sim::Time last_heard = 0;
    bool dead = false;
    bool heard_once = false;  // grace until the first beat arrives
  };

  void beat();
  void check();
  void arm_beat();
  void arm_check();

  sim::Engine& eng_;
  Nic& nic_;
  Config cfg_;
  sim::Rng rng_;
  PeerStatusHandler on_peer_status_;
  AnnouncementHandler on_announcement_;
  AnnouncementProvider announce_;
  obs::Relay relay_;
  sim::FlatMap<NodeId, PeerState> peers_;
  sim::Engine::EventId beat_timer_{};
  sim::Engine::EventId check_timer_{};
  sim::Time started_at_ = 0;
  bool running_ = false;
  Stats stats_;
};

}  // namespace pinsim::net
