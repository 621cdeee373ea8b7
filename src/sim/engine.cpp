#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>

namespace pinsim::sim {

namespace {

constexpr std::size_t kArity = 4;

constexpr std::size_t parent_of(std::size_t pos) noexcept {
  return (pos - 1) / kArity;
}

}  // namespace

std::uint32_t Engine::alloc_node() {
  if (free_head_ != kNil) {
    const std::uint32_t slot = free_head_;
    free_head_ = slab_[slot].pos;
    --free_count_;
    return slot;
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void Engine::free_node(std::uint32_t slot) {
  Node& n = slab_[slot];
  n.seq = 0;  // invalidate outstanding EventIds for this slot
  n.pos = free_head_;
  free_head_ = slot;
  ++free_count_;
}

void Engine::place(std::size_t pos, const Entry& e) {
  heap_[pos] = e;
  slab_[e.slot].pos = static_cast<std::uint32_t>(pos);
}

void Engine::sift_up(std::size_t pos, Entry e) {
  while (pos > 0) {
    const std::size_t parent = parent_of(pos);
    if (!earlier(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void Engine::sift_down(std::size_t pos, Entry e) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, e);
}

void Engine::remove_at(std::size_t pos) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the last entry itself
  if (pos > 0 && earlier(last, heap_[parent_of(pos)])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

Engine::EventId Engine::schedule_at(Time when, Callback cb, TaskTag tag) {
  assert(cb && "scheduling an empty callback");
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t slot = alloc_node();
  Node& n = slab_[slot];
  n.seq = seq;
  n.cb = std::move(cb);
  n.created = now_;
  n.tag = tag;
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Entry{std::max(when, now_), seq, slot});
  return EventId{seq, slot + 1};
}

bool Engine::cancel(EventId id) {
  if (!id.valid() || id.slot == 0 || id.slot > slab_.size()) return false;
  const std::uint32_t slot = id.slot - 1;
  Node& n = slab_[slot];
  if (n.seq != id.seq) return false;  // fired, cancelled, or slot reused
  remove_at(n.pos);
  n.cb = Callback{};
  free_node(slot);
  return true;
}

void Engine::fire_next() {
  const Entry top = heap_.front();
  remove_at(0);
  assert(top.when >= now_ && "event queue ran behind the clock");
  now_ = top.when;
  Node& n = slab_[top.slot];
  Callback cb = std::move(n.cb);
  const TaskTag tag = n.tag;
  const Time created = n.created;
  free_node(top.slot);
  ++processed_;
  if (observer_ != nullptr) {
    observer_->on_dispatch_begin(tag, created, now_);
    cb();
    observer_->on_dispatch_end(tag);
  } else {
    cb();
  }
}

bool Engine::step() {
  if (heap_.empty()) return false;
  fire_next();
  return true;
}

std::size_t Engine::run() {
  std::size_t n = 0;
  stopped_ = false;
  while (!stopped_ && step()) ++n;
  return n;
}

std::size_t Engine::run_until(Time deadline) {
  std::size_t n = 0;
  stopped_ = false;
  while (!stopped_ && !heap_.empty() && heap_.front().when <= deadline) {
    fire_next();
    ++n;
  }
  if (!stopped_ && now_ < deadline) now_ = deadline;
  return n;
}

bool Engine::self_check(std::string* why) const {
  const auto fail = [why](const char* what) {
    if (why != nullptr) *why = what;
    return false;
  };
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const Entry& e = heap_[i];
    if (e.slot >= slab_.size()) return fail("heap entry out of slab range");
    const Node& node = slab_[e.slot];
    if (node.seq == 0 || !node.cb) return fail("dead node in the heap");
    if (node.seq != e.seq) return fail("heap entry seq disagrees with node");
    if (node.pos != i) return fail("node's stored heap position is stale");
    if (e.when < now_) return fail("heap entry behind now()");
    if (i > 0 && earlier(e, heap_[parent_of(i)])) {
      return fail("heap order violated");
    }
  }
  std::size_t free_walk = 0;
  for (std::uint32_t slot = free_head_; slot != kNil; slot = slab_[slot].pos) {
    if (slot >= slab_.size()) return fail("free list out of slab range");
    if (slab_[slot].seq != 0) return fail("live node on free list");
    ++free_walk;
    if (free_walk > slab_.size()) return fail("free list cycle");
  }
  if (free_walk != free_count_) return fail("free-list accounting drifted");
  // Every heap entry owns a distinct node (its stored position points back
  // at it), so the two counts cover the slab exactly when nothing leaked.
  if (heap_.size() + free_count_ != slab_.size()) {
    return fail("slab nodes leaked");
  }
  return true;
}

void Engine::rethrow_task_failures() const {
  if (!failures_.empty()) std::rethrow_exception(failures_.front());
}

}  // namespace pinsim::sim
