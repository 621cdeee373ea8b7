#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/counters.hpp"
#include "core/pin_manager.hpp"
#include "core/region.hpp"
#include "core/wire.hpp"
#include "cpu/core.hpp"
#include "cpu/cpu_model.hpp"
#include "ioat/dma_engine.hpp"
#include "mem/address_space.hpp"
#include "mem/mmu_notifier.hpp"
#include "mem/pool.hpp"
#include "net/frame.hpp"
#include "obs/event.hpp"
#include "sim/engine.hpp"
#include "sim/flat_map.hpp"
#include "sim/recent_set.hpp"

namespace pinsim::core {

class Driver;

/// Network-wide endpoint address, like an MX (board, endpoint) pair.
struct EndpointAddr {
  net::NodeId node = net::kInvalidNode;
  std::uint8_t ep = 0;

  friend bool operator==(const EndpointAddr&, const EndpointAddr&) = default;
};

/// Completion status delivered to the user library.
struct Status {
  bool ok = true;
  bool truncated = false;
  std::size_t len = 0;  // bytes actually transferred
  bool peer_dead = false;  // failed because the remote endpoint/node died
};

using Completion = std::function<void(Status)>;

/// One Open-MX endpoint: the driver-side object holding the region table,
/// the pin manager, and the MXoE protocol state machines (paper §2.2, §3).
///
/// All packet handling runs in bottom-half context on the NIC's interrupt
/// core — the stack is interrupt-driven, which is exactly why buffers must
/// be pinned (§2.2: "many incoming packets are not processed in the context
/// of the target process"). Submission paths (`isend*`, `irecv`) are entered
/// from process context; the library charges the syscall cost before calling
/// them.
class Endpoint {
 public:
  Endpoint(Driver& driver, std::uint8_t id, mem::AddressSpace& as,
           cpu::Core& process_core);
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  // --- region ioctls (called by the user-space library) --------------------

  /// Declares a (possibly vectorial) region. Never pins by itself except in
  /// PinMode::kPermanent. Declaration of invalid segments *succeeds*; the
  /// failure surfaces at communication time (paper §3.1).
  [[nodiscard]] RegionId declare_region(std::vector<Segment> segments);

  /// Destroys a declared region, dropping any pins it still holds.
  void undeclare_region(RegionId id);

  [[nodiscard]] Region* find_region(RegionId id);

  // --- communication ioctls -------------------------------------------------

  /// Small-message send: data is gathered out of the (possibly vectorial)
  /// user buffer into frames at submission (through the page table; no
  /// pinning). A zero-length message is an empty segment list. Returns the
  /// send sequence id usable with cancel_send().
  std::uint32_t isend_eager(EndpointAddr dest, std::uint64_t match,
                            std::vector<Segment> segments, Completion done);
  std::uint32_t isend_eager(EndpointAddr dest, std::uint64_t match,
                            mem::VirtAddr buf, std::size_t len,
                            Completion done);

  /// Large-message send over the rendezvous/pull protocol. The region must
  /// be declared; pinning follows the configured PinningConfig.
  /// `blocking_hint` tells the driver whether the application will block on
  /// this request (§6: overlap may be restricted to blocking operations).
  /// Returns the send sequence id usable with cancel_send().
  std::uint32_t isend_rndv(EndpointAddr dest, std::uint64_t match,
                           RegionId region, std::size_t len, Completion done,
                           bool blocking_hint = true);

  /// Posts a receive into a (possibly vectorial) buffer. `region` is the
  /// declared region backing it for large messages (kInvalidRegion when the
  /// caller expects only eager traffic). An incoming message matches when
  /// (incoming & mask) == (match & mask). Returns a request id usable with
  /// cancel_recv().
  std::uint64_t irecv(std::uint64_t match, std::uint64_t mask,
                      std::vector<Segment> segments, RegionId region,
                      Completion done, bool blocking_hint = true);
  std::uint64_t irecv(std::uint64_t match, std::uint64_t mask,
                      mem::VirtAddr buf, std::size_t len, RegionId region,
                      Completion done, bool blocking_hint = true);

  /// Cancels a posted receive that has not matched yet (MX semantics: a
  /// matched receive is too late to cancel). On success the completion fires
  /// with ok=false and len=0, and true is returned.
  bool cancel_recv(std::uint64_t recv_id);

  /// Cancels a send whose first frame has not left yet (still pinning or
  /// queued behind the copy). Too late once anything was transmitted.
  bool cancel_send(std::uint32_t seq);

  // --- driver-internal entry points ----------------------------------------

  /// Packet dispatch; runs in BH context on the irq core.
  void handle_packet(net::NodeId src_node, Packet&& pkt);

  // --- crash/restart lifecycle ----------------------------------------------

  /// Crash teardown, called by Host::kill_process before the MMU-notifier
  /// sweep: every in-flight send, pull, posted receive and reassembly record
  /// dies right here, completions fire with ok=false, and nothing touches
  /// the wire — a dead process sends no aborts. Normal destruction stays
  /// silent; only the explicit crash path emits.
  void fail_all_inflight();

  /// Fails outstanding sends/pulls whose peer is `node` (all its endpoints
  /// when `peer_ep` is negative) with Status::peer_dead. Driven by the
  /// watchdog's missed-heartbeat verdict and by epoch-change detection.
  void fail_requests_to(net::NodeId node, int peer_ep = -1);

  /// A remote endpoint was reincarnated (or closed): fail what is still
  /// outstanding to the old incarnation and flush its duplicate-suppression
  /// and reassembly state — the new incarnation restarts its seq space, so
  /// stale "already completed" records would wrongly suppress fresh traffic.
  void on_peer_restarted(net::NodeId node, std::uint8_t peer_ep);

  /// Incarnation number stamped into every outgoing frame (src_epoch);
  /// assigned by the driver when the slot opens.
  void set_epoch(std::uint8_t e) noexcept { epoch_ = e; }
  [[nodiscard]] std::uint8_t epoch() const noexcept { return epoch_; }

  [[nodiscard]] std::uint8_t id() const noexcept { return id_; }
  [[nodiscard]] EndpointAddr addr() const noexcept;
  [[nodiscard]] Counters& counters() noexcept { return counters_; }
  [[nodiscard]] PinManager& pin_manager() noexcept { return pins_; }
  [[nodiscard]] cpu::Core& process_core() noexcept { return process_core_; }

  /// Core this endpoint's bottom halves run on: the process core under
  /// distributed interrupts, otherwise the NIC's irq core.
  [[nodiscard]] cpu::Core& bh_core() noexcept;
  [[nodiscard]] mem::AddressSpace& address_space() noexcept { return as_; }
  [[nodiscard]] Driver& driver() noexcept { return driver_; }

  /// Number of in-flight send/recv requests (drained == 0); used by tests.
  [[nodiscard]] std::size_t inflight() const noexcept;

 private:
  // ---- send side -----------------------------------------------------------

  struct SendRequest {
    std::uint32_t seq = 0;
    EndpointAddr dest;
    std::uint64_t match = 0;
    std::size_t len = 0;
    bool transmitted = false;  // any frame already left (limits cancel)
    Completion done;
    // Eager state.
    bool eager = false;
    std::vector<std::byte> eager_data;  // kernel copy, for retransmission
    // Rendezvous state.
    RegionId region = kInvalidRegion;
    bool rndv_sent = false;
    bool pull_seen = false;  // first PULL acks the RNDV
    int retries = 0;
    sim::Engine::EventId rto{};
  };

  // ---- receive side ---------------------------------------------------------

  struct RecvRequest {
    std::uint64_t match = 0;
    std::uint64_t mask = 0;
    std::vector<Segment> segments;  // vectorial user buffer
    std::size_t total_len = 0;      // sum of segment lengths
    RegionId region = kInvalidRegion;
    std::uint64_t id = 0;  // for cancellation
    bool blocking_hint = true;
    Completion done;
  };

  /// Reassembly / matching record for a message whose first packet arrived.
  /// Matching is decided at first-packet arrival to preserve MPI ordering.
  struct InboundMsg {
    bool rndv = false;
    net::NodeId peer_node = net::kInvalidNode;
    std::uint8_t peer_ep = 0;
    std::uint32_t seq = 0;
    std::uint64_t match = 0;
    std::size_t msg_len = 0;
    // Eager-specific.
    std::size_t bytes_received = 0;
    sim::FlatSet<std::uint32_t> frags_seen; // offsets, for dup suppression
    std::vector<std::byte> kernel_buffer;   // only when unexpected
    bool bound = false;                     // matched to a posted recv
    bool acked = false;                     // EAGER_ACK already sent
    RecvRequest recv;                       // valid when bound
    // Rendezvous-specific.
    std::uint32_t sender_region = kInvalidRegion;
  };

  struct PullBlock {
    std::size_t offset = 0;  // absolute message offset
    std::size_t len = 0;
    std::vector<bool> frame_seen;
    std::size_t frames_received = 0;  // arrived on the wire (copy may pend)
    std::size_t frames_done = 0;      // copied into the region
    bool requested = false;
    bool complete = false;
    bool fast_retry = false;  // local-drop recovery poll armed
    sim::Time last_request = 0;
  };

  /// Receiver-side large-message transfer (one per matched rendezvous).
  struct PullState {
    std::uint32_t handle = 0;
    net::NodeId peer_node = net::kInvalidNode;
    std::uint8_t peer_ep = 0;
    std::uint32_t sender_seq = 0;
    std::uint32_t sender_region = kInvalidRegion;
    std::size_t msg_len = 0;     // bytes actually pulled (after truncation)
    std::size_t full_len = 0;    // sender's message length
    RecvRequest recv;
    Region* region = nullptr;
    std::vector<PullBlock> blocks;
    std::size_t next_block = 0;
    std::size_t blocks_done = 0;
    std::size_t requested_incomplete = 0;
    bool started = false;  // pulls flowing (pin gate passed)
    bool done = false;     // data complete, NOTIFY (re)transmitting
    int notify_retries = 0;
    int stall_ticks = 0;   // consecutive progress-free pull-retry ticks
    std::size_t last_progress = 0;  // frames received at the last rto tick
    sim::Engine::EventId rto{};

    [[nodiscard]] EndpointAddr peer() const { return {peer_node, peer_ep}; }
    [[nodiscard]] std::size_t frames_received_total() const {
      std::size_t n = 0;
      for (const PullBlock& b : blocks) n += b.frames_received;
      return n;
    }
  };

  friend struct EndpointNotifier;

  // Submission helpers.
  void transmit_eager(std::uint32_t seq);
  void send_rndv_frame(SendRequest& req);
  void arm_send_rto(SendRequest& req);
  void fail_send(std::uint32_t seq, bool send_abort, bool peer_dead = false);
  /// Completes a send the peer acknowledged (EAGER_ACK or NOTIFY): drops the
  /// region use, emits kSendDone, completes with ok=true.
  void complete_send(std::uint32_t seq);

  /// The one receive-side teardown: counts the abort, tells the sender with
  /// an ABORT packet when `send_abort`, drops the region use, emits
  /// kRecvAbort, completes the receive with ok=false and destroys the state.
  /// A pull whose data already completed (only its NOTIFY handshake left)
  /// is just freed.
  void fail_pull(std::uint32_t handle, bool send_abort, bool peer_dead = false);

  /// Fails every send matching `send_pred`, then every pull matching
  /// `pull_pred`, in ascending-id order. The ids are collected first:
  /// failing runs user completions that may re-enter the tables.
  template <typename SendPred, typename PullPred>
  void fail_matching(SendPred send_pred, PullPred pull_pred, bool send_abort,
                     bool peer_dead);

  /// Exponential backoff: base retransmit timeout doubled per retry already
  /// burned, capped at `retransmit_backoff_max`.
  [[nodiscard]] sim::Time backoff_timeout(int retries) const;

  // Packet handlers (BH context).
  void on_eager(net::NodeId src, std::uint8_t src_ep, EagerBody&& body);
  void on_eager_ack(net::NodeId src, std::uint8_t src_ep,
                    const EagerAckBody& body);
  void on_rndv(net::NodeId src, std::uint8_t src_ep, const RndvBody& body);
  void on_pull(net::NodeId src, std::uint8_t src_ep, const PullBody& body);
  void on_pull_reply(net::NodeId src, std::uint8_t src_ep,
                     PullReplyBody&& body);
  void on_notify(net::NodeId src, std::uint8_t src_ep, const NotifyBody& body);
  void on_notify_ack(net::NodeId src, std::uint8_t src_ep,
                     const NotifyAckBody& body);
  void on_abort(net::NodeId src, std::uint8_t src_ep, const AbortBody& body);

  // Eager receive plumbing.
  /// Writes `data` at message offset `offset` into the request's (possibly
  /// vectorial) buffer through the page table, clipped to the posted size.
  void scatter_to_user(const RecvRequest& recv, std::size_t offset,
                       std::span<const std::byte> data);
  void eager_deliver_frag(InboundMsg& msg, std::uint32_t frag_offset,
                          DataChunk&& data);
  void finish_eager_inbound(InboundMsg& msg);
  void erase_inbound(InboundMsg& msg);
  /// The reassembly/matching record of (node, ep, seq), or end().
  std::list<InboundMsg>::iterator find_inbound(bool rndv, net::NodeId node,
                                               std::uint8_t ep,
                                               std::uint32_t seq);
  /// Moves the first posted receive matching `match` (MPI order) into
  /// `out`; false when none does.
  bool take_posted(std::uint64_t match, RecvRequest& out);
  /// The pull serving (node, ep)'s send `seq`; at most one exists, since
  /// on_rndv suppresses duplicates.
  PullState* pull_from(net::NodeId node, std::uint8_t ep, std::uint32_t seq);
  /// Send `seq` / pull `handle`, only when (node, ep) is its peer: replies
  /// are looked up through these, so a stale or stray frame that carries a
  /// live seq or handle cannot complete, free or write someone else's.
  SendRequest* send_to(std::uint32_t seq, net::NodeId node, std::uint8_t ep);
  PullState* pull_with(std::uint32_t handle, net::NodeId node,
                       std::uint8_t ep);
  void complete_recv(const RecvRequest& recv, Status st);

  // Pull machinery.
  void start_pull(InboundMsg&& rndv_msg, RecvRequest recv);
  void request_block(PullState& ps, std::size_t block_idx);
  void pump_pull_window(PullState& ps);
  void maybe_optimistic_rerequest(PullState& ps, std::size_t arrived_block);

  /// Counts a frame dropped on an overlap miss (§3.3) and emits the miss:
  /// kOverlapMissRecv for the receiver's PULL_REPLY, kOverlapMissSend for a
  /// frame the sender could not serve.
  void note_overlap_miss(bool receiver, RegionId region, std::size_t offset,
                         std::size_t len, std::uint32_t seq,
                         EndpointAddr peer);

  /// One §3.3 drop-on-miss recovery poll. The sender re-serves `pull` to
  /// `peer`; the receiver (no `peer`) re-pulls the block at `pull.offset`
  /// of its pull `pull.handle`.
  struct FastRetry {
    PullBody pull;
    sim::Time deadline = 0;
    EndpointAddr peer;
    [[nodiscard]] bool sender() const noexcept {
      return peer.node != net::kInvalidNode;
    }
  };
  static_assert(sizeof(FastRetry) <= 40,
                "the re-armed poll closure must stay inside "
                "UniqueFunction's inline buffer with `this` and guarded()");

  /// §3.3 drop-on-miss recovery, fast path: the side that dropped a packet
  /// because its own page was not pinned yet *knows* it did, so it watches
  /// its pin frontier and retries as soon as the range is pinned ("it is
  /// resent almost immediately most of the times", §4.3). The coarse pull
  /// retry timer stays as the backstop when pinning itself is starved.
  void arm_receiver_fast_retry(PullState& ps, std::size_t block_idx);
  void arm_sender_fast_retry(net::NodeId src, std::uint8_t src_ep,
                             const PullBody& body);
  /// Polls every `rerequest_cooldown` until the range is pinned (then
  /// retries), the poll is moot, or its deadline passes.
  void schedule_fast_retry(const FastRetry& fr);
  void fast_retry_tick(const FastRetry& fr);
  [[nodiscard]] std::uint64_t sender_retry_key(const PullBody& body) const;
  void finish_pull(PullState& ps);
  void send_notify(PullState& ps);
  void arm_pull_rto(PullState& ps);
  void destroy_pull(std::uint32_t handle);

  // Copy-charging helpers: run `after` once the copy cost has been paid
  // (CPU bottom half or I/OAT channel).
  void charge_rx_copy(std::size_t bytes, sim::UniqueFunction after);

  // Frame assembly/transmission. `priority` is BH for packet-driven sends
  // and kernel for process-context submissions.
  void send_packet(EndpointAddr dest, PacketBody body, cpu::Priority priority);
  /// Header of a `t` packet to `dest`, with the incarnation epochs.
  [[nodiscard]] PacketHeader header_to(EndpointAddr dest, PacketType t) const;
  /// Emits kPktTx and queues the encoded frame on a core for the NIC.
  void transmit(EndpointAddr dest, PacketType t,
                std::vector<std::byte> payload, cpu::Priority priority);

  /// Stamps (node, ep) onto `e` and hands it to the driver's observability
  /// relay; a no-op (one pointer compare) with no bus attached.
  void obs_emit(obs::Event e);
  /// Emits a request-lifecycle event: `seq` is the send seq or pull handle
  /// and `peer` the remote endpoint; `offset`, `len` and `region` mean what
  /// obs/event.hpp says for `kind`.
  void emit_request(obs::EventKind kind, std::uint32_t seq, EndpointAddr peer,
                    std::uint64_t offset = 0, std::uint64_t len = 0,
                    RegionId region = 0);

  [[nodiscard]] bool match_ok(const RecvRequest& r, std::uint64_t match) const {
    return (r.match & r.mask) == (match & r.mask);
  }

  /// Whether this request's pinning overlaps with communication, combining
  /// the global config with the §6 per-request blocking hint.
  [[nodiscard]] bool overlap_for(bool blocking_hint) const;

  /// Wraps a timer/core-queue callback so it turns into a no-op once this
  /// endpoint is destroyed. Closures capturing `this` can outlive the
  /// endpoint inside the engine's event queue or a core's run queue; an
  /// endpoint closed mid-transfer must not let them fire into freed memory.
  template <typename F>
  [[nodiscard]] auto guarded(F f) {
    return [weak = std::weak_ptr<void>(alive_),
            fn = std::move(f)](auto&&... args) mutable {
      if (weak.expired()) return;
      fn(std::forward<decltype(args)>(args)...);
    };
  }
  [[nodiscard]] static std::uint64_t inbound_key(net::NodeId node,
                                                 std::uint8_t ep,
                                                 std::uint32_t seq,
                                                 bool rndv);

  /// Liveness token for guarded() closures; reset first thing in ~Endpoint.
  std::shared_ptr<void> alive_ = std::make_shared<char>();

  Driver& driver_;
  std::uint8_t id_;
  std::uint8_t epoch_ = 1;  // stamped by the driver at open
  mem::AddressSpace& as_;
  cpu::Core& process_core_;
  Counters& counters_;  // the driver's slot counters, across incarnations
  PinManager pins_;
  std::unique_ptr<mem::MmuNotifier> notifier_;

  // Request tables are sorted flat maps (deterministic ascending iteration,
  // no per-entry allocation) over pooled nodes: a SendRequest/PullState must
  // keep a stable address across reentrant completions that insert into the
  // table, and the pools recycle the nodes so steady-state traffic stops
  // allocating. Pools are declared before the tables that hold their nodes.
  mem::ObjectPool<SendRequest> send_pool_;
  mem::ObjectPool<PullState> pull_pool_;

  sim::FlatMap<RegionId, std::unique_ptr<Region>> regions_;
  RegionId next_region_ = 1;

  sim::FlatMap<std::uint32_t, mem::ObjectPool<SendRequest>::Ptr> sends_;
  std::uint32_t next_send_seq_ = 1;

  std::list<RecvRequest> posted_;
  std::uint64_t next_recv_id_ = 1;
  std::list<InboundMsg> inbound_;  // unmatched or in-progress inbound msgs
  sim::FlatMap<std::uint32_t, mem::ObjectPool<PullState>::Ptr> pulls_;
  std::uint32_t next_pull_handle_ = 1;

  /// Duplicate-suppression memory: the inbound_keys of the last 8,192
  /// completed inbound messages, whatever flow they came on.
  sim::RecentSet<8192> completed_;
  sim::FlatSet<std::uint64_t> pending_pull_retries_;  // sender fast-retry polls
};

}  // namespace pinsim::core
