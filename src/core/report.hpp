#pragma once

#include <string>

#include "core/host.hpp"

namespace pinsim::core {

/// Human-readable diagnostic block for one process: protocol counters,
/// pinning activity, region-cache behaviour and the core's time breakdown.
/// Examples and ad-hoc experiments print this instead of hand-rolling
/// printf choreography.
[[nodiscard]] std::string format_report(Host::Process& process, Host& host);

/// Machine-readable twin of `format_report`: one JSON object with the same
/// counters, suitable for embedding in a run report next to the obs-layer
/// latency histograms. The string is a complete object (no trailing comma).
[[nodiscard]] std::string format_json_report(Host::Process& process,
                                             Host& host);

}  // namespace pinsim::core
