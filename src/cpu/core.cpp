#include "cpu/core.hpp"

#include <utility>

namespace pinsim::cpu {

Core::Core(sim::Engine& eng, std::string name)
    : eng_(eng), name_(std::move(name)) {}

Core::~Core() {
  if (running_) eng_.cancel(running_event_);
}

void Core::submit(Priority p, sim::Time duration, sim::UniqueFunction done) {
  queues_[static_cast<std::size_t>(p)].push_back(
      Job{duration, std::move(done)});
  if (!running_) dispatch();
}

std::size_t Core::queued() const noexcept {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

double Core::utilization() const noexcept {
  const sim::Time now = eng_.now();
  if (now == 0) return 0.0;
  return static_cast<double>(stats_.total_busy()) / static_cast<double>(now);
}

namespace {

constexpr const char* kPriorityLabel[] = {"bottom_half", "kernel", "user",
                                          "idle"};

}  // namespace

void Core::dispatch() {
  for (std::size_t p = 0; p < queues_.size(); ++p) {
    auto& q = queues_[p];
    if (q.empty()) continue;
    const sim::Time duration = q.front().duration;
    running_done_ = std::move(q.front().done);
    q.pop_front();
    running_ = true;
    ++stats_.jobs[p];
    stats_.busy[p] += duration;
    running_event_ = eng_.schedule_after(
        duration,
        // pinlint: allow(D7: ~Core cancels this event, so it never fires
        // into a destroyed core)
        [this] { finish_job(); }, {"cpu", kPriorityLabel[p]});
    return;
  }
}

void Core::finish_job() {
  running_ = false;
  // Moved out first: the completion may submit to this idle core, which
  // dispatches at once and refills running_done_ while `done` still runs.
  sim::UniqueFunction done = std::move(running_done_);
  done();
  // If the completion started the core itself, running_ is already true
  // again and there is nothing more to dispatch.
  if (!running_) dispatch();
}

}  // namespace pinsim::cpu
