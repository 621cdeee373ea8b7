#pragma once

// Test-side sink that keeps every typed event in emission order, plus the
// ordering queries the protocol tests assert with.
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/wire.hpp"
#include "obs/event.hpp"
#include "obs/sink.hpp"

namespace pinsim::testutil {

class EventLog final : public obs::Sink {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  void on_event(const obs::Event& e) override { events_.push_back(e); }

  /// Index of the first event of `kind`, or npos.
  [[nodiscard]] std::size_t find_first(obs::EventKind kind) const {
    for (std::size_t i = 0; i < events_.size(); ++i) {
      if (events_[i].kind == kind) return i;
    }
    return npos;
  }

  /// Index of the first wire event of `kind` carrying packet type `pkt`.
  [[nodiscard]] std::size_t find_first(obs::EventKind kind,
                                       core::PacketType pkt) const {
    for (std::size_t i = 0; i < events_.size(); ++i) {
      if (events_[i].kind == kind &&
          events_[i].pkt == static_cast<std::uint8_t>(pkt)) {
        return i;
      }
    }
    return npos;
  }

  [[nodiscard]] const std::vector<obs::Event>& events() const noexcept {
    return events_;
  }
  void clear() { events_.clear(); }

 private:
  std::vector<obs::Event> events_;
};

}  // namespace pinsim::testutil
