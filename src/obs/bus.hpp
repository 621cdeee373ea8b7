#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "obs/event.hpp"
#include "obs/sink.hpp"
#include "sim/engine.hpp"

namespace pinsim::obs {

/// The typed event bus: emitters hand it POD events, the bus stamps the
/// simulated time and fans out to every attached sink synchronously. With no
/// sinks attached `active()` is false and emitters skip event construction,
/// so an uninstrumented run pays one pointer compare per site.
///
/// Teardown-order guard: every emitter reaches the bus through an
/// obs::Relay, which calls register_emitter() while it points here. The
/// destructor aborts with a diagnostic if any emitter is still registered —
/// the old silent contract ("the bus must outlive every component that
/// emits into it, or be detached first") now fails loudly instead of as a
/// dangling pointer.
class Bus {
 public:
  explicit Bus(sim::Engine& eng) : eng_(eng) {}

  Bus(const Bus&) = delete;
  Bus& operator=(const Bus&) = delete;

  ~Bus() {
    if (emitters_ != 0) {
      std::fprintf(
          stderr,
          "obs: Bus destroyed with %zu emitter(s) still attached.\n"
          "     Components must set_bus(nullptr) (or be destroyed) before\n"
          "     their bus — see bench::ObsRig::detach().\n",
          emitters_);
      std::abort();
    }
  }

  /// Emitter registration, used by the teardown-order guard above.
  void register_emitter() noexcept { ++emitters_; }
  void unregister_emitter() noexcept {
    if (emitters_ > 0) --emitters_;
  }
  [[nodiscard]] std::size_t emitters() const noexcept { return emitters_; }

  void attach(Sink* s) {
    if (s != nullptr && std::find(sinks_.begin(), sinks_.end(), s) ==
                            sinks_.end()) {
      sinks_.push_back(s);
    }
  }
  void detach(Sink* s) {
    sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), s), sinks_.end());
  }

  [[nodiscard]] bool active() const noexcept { return !sinks_.empty(); }

  void emit(Event e) {
    e.time = eng_.now();
    for (Sink* s : sinks_) s->on_event(e);
  }

  /// Run end: flush every sink (idempotent per attach — callers run it once).
  void finalize() {
    for (Sink* s : sinks_) s->finalize();
  }

 private:
  sim::Engine& eng_;
  std::vector<Sink*> sinks_;
  std::size_t emitters_ = 0;
};

}  // namespace pinsim::obs
