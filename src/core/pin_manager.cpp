#include "core/pin_manager.hpp"

#include <algorithm>
#include <cassert>

#include "mem/types.hpp"

namespace pinsim::core {

PinManager::PinManager(sim::Engine& eng, cpu::Core& core,
                       const cpu::CpuModel& cpu, const PinningConfig& cfg,
                       Counters& counters, const obs::Relay* relay)
    : eng_(eng),
      core_(core),
      cpu_(cpu),
      cfg_(cfg),
      counters_(counters),
      relay_(relay) {}

PinManager::~PinManager() {
  if (arb_registered_) arbiter_->unregister_tenant(arb_id_);
}

void PinManager::maybe_join_arbitration(mem::PhysicalMemory& pm) {
  if (arb_registered_ || pm.arbiter() == nullptr) return;
  arbiter_ = pm.arbiter();
  arb_id_ = arbiter_->register_tenant(this, cfg_.tenant_weight);
  arb_registered_ = true;
}

bool PinManager::arbitrate_headroom() {
  if (!arb_registered_) return false;
  ++counters_.tenant_arb_requests;
  if (!arbiter_->request_headroom(this)) return false;
  ++counters_.tenant_arb_grants;
  return true;
}

std::size_t PinManager::arb_pinned_pages() const {
  std::size_t total = 0;
  for (const auto& [rid, t] : tracked_) {
    (void)rid;
    if (t->region != nullptr) total += t->region->pinned_pages();
  }
  return total;
}

bool PinManager::arb_shed_idle() {
  if (!shed_one_victim()) return false;
  ++counters_.tenant_sheds_suffered;
  return true;
}

void PinManager::arb_note_floor_protected() {
  ++counters_.tenant_floor_protected;
}

void PinManager::emit(obs::EventKind kind, Region& r, const char* what,
                      std::size_t cut) {
  if (relay_ == nullptr || !relay_->active()) return;
  obs::Event e;
  e.kind = kind;
  e.node = node_;
  e.ep = ep_;
  e.region = r.id();
  e.seq = static_cast<std::uint32_t>(cut);
  e.offset = r.pinned_pages();
  e.len = r.page_count();
  e.label = what;
  relay_->emit(e);
}

template <typename F>
auto PinManager::while_current(Region& r, std::uint64_t gen, F fn) {
  return [this, alive = std::weak_ptr<char>(alive_), rid = r.id(), rp = &r,
          gen, fn = std::move(fn)] {
    if (alive.expired()) return;  // the manager died while the job waited
    Tracked* t = find_alive(rid, rp);
    if (t == nullptr || !t->job.active || t->job.generation != gen) {
      return;  // invalidated or undeclared while the job waited
    }
    fn(*t);
  };
}

void PinManager::resume_after(Region& r, sim::Time backoff, sim::TaskTag tag) {
  eng_.schedule_after(
      backoff,
      while_current(r, track(r).job.generation,
                    [this](Tracked& t) { schedule_chunk(*t.region); }),
      tag);
}

PinManager::Tracked& PinManager::track(Region& r) {
  auto it = tracked_.find(r.id());
  if (it == tracked_.end()) {
    it = tracked_.emplace(r.id(), tracked_pool_.acquire()).first;
  }
  Tracked& t = *it->second;
  t.region = &r;
  return t;
}

PinManager::Tracked* PinManager::find_alive(RegionId rid,
                                            const Region* expected) {
  auto it = tracked_.find(rid);
  if (it == tracked_.end() || it->second->region != expected) return nullptr;
  return it->second.get();
}

void PinManager::register_region(Region& r) {
  Tracked& t = track(r);
  t.registered = true;
  t.last_use = eng_.now();
}

void PinManager::unregister_region(Region& r) {
  // Cancel any in-flight pinning and release pins before forgetting it.
  unpin(r);
  tracked_.erase(r.id());
}

void PinManager::touch(Region& r) {
  if (Tracked* t = find_alive(r.id(), &r)) t->last_use = eng_.now();
}

void PinManager::ensure_pinned(Region& r, Completion done) {
  ensure_pinned(r, cfg_.overlapped, std::move(done));
}

void PinManager::ensure_pinned(Region& r, bool overlapped, Completion done) {
  touch(r);
  if (cfg_.mode == PinMode::kNone) {
    done(true);  // QsNet-style: nothing to pin, ever
    return;
  }
  if (r.fully_pinned()) {
    done(true);
    return;
  }
  // kFailed is retryable, not terminal (§3.1: the region "stays declared,
  // repinned at next communication"): a past pin failure — memory pressure,
  // a then-invalid segment since remapped — must not poison the declaration.
  if (r.state() == Region::PinState::kFailed) {
    Tracked* t = find_alive(r.id(), &r);
    if (t == nullptr || !t->job.active) {
      r.set_state(Region::PinState::kUnpinned);
      ++counters_.pin_fail_resets;
      emit(obs::EventKind::kPinReset, r, "failed region retried");
    }
  }
  start_or_join(r, /*wait_full=*/!overlapped, std::move(done));
}

void PinManager::start_or_join(Region& r, bool wait_full, Completion done) {
  Tracked& t = track(r);
  PinJob& job = t.job;

  if (!wait_full) {
    // Overlapped: the communication proceeds once the synchronous pre-pin
    // threshold is reached (0 pages by default — proceed immediately).
    const std::size_t threshold =
        std::min(cfg_.sync_prepin_pages, r.page_count());
    if (r.pinned_pages() >= threshold && (job.active || threshold == 0)) {
      // Background pinning already past the threshold, or none needed.
      done(true);
    } else {
      job.early_threshold = threshold;
      job.early_waiters.push_back(std::move(done));
      done = nullptr;
    }
  } else {
    job.full_waiters.push_back(std::move(done));
    done = nullptr;
  }

  if (!job.active) {
    job.active = true;
    job.charged_base = false;
    job.retries = 0;
    job.inval_restarts = 0;
    ++counters_.pin_ops;
    if (t.was_pinned) ++counters_.repins;
    r.set_state(Region::PinState::kPinning);
    emit(obs::EventKind::kPinStart, r, "pinning");
    schedule_chunk(r);
  }
}

void PinManager::schedule_chunk(Region& r) {
  PinJob& job = track(r).job;
  assert(job.active);
  if (r.fully_pinned()) {
    finish(r, true);
    return;
  }
  auto& pm = r.address_space().physical();
  maybe_join_arbitration(pm);
  std::size_t chunk = std::min(cfg_.pin_chunk_pages, r.unpinned_pages());
  shed_pins_if_needed(pm, chunk);

  // Graceful degradation under a pinned-page quota: when the full chunk
  // cannot fit even after shedding idle regions, pin what fits — a smaller
  // frontier advance beats a failed one. With zero headroom nothing can pin
  // at all; first ask the host arbiter (if any) to shed an over-floor
  // tenant for us, then back off and retry so a transient squeeze (another
  // endpoint releasing pages, the quota being raised) heals, and a
  // permanent one ends in a clean ok=false abort once the budget runs out.
  std::size_t headroom = pm.pin_headroom();
  if (headroom == 0 && arbitrate_headroom()) headroom = pm.pin_headroom();
  if (headroom == 0) {
    ++counters_.pins_denied;
    pm.count_quota_denial();
    retry_or_fail(r);
    return;
  }
  if (chunk > headroom) {
    chunk = headroom;
    ++counters_.pin_chunk_shrinks;
    emit(obs::EventKind::kPinShrink, r, "chunk shrunk to quota headroom");
  }

  sim::Time cost = static_cast<sim::Time>(chunk) *
                   (cpu_.pin_cost(1) - cpu_.pin_cost(0));
  if (!job.charged_base) {
    cost += cpu_.pin_cost(0);
    job.charged_base = true;
  }

  core_.submit(cpu::Priority::kKernel, cost,
               while_current(r, job.generation, [this, chunk](Tracked& t) {
    Region& r = *t.region;
    // The work time has been paid; take the page references now.
    std::vector<mem::FrameId> frames;
    frames.reserve(chunk);
    bool hard_failed = false;   // the page can never pin (invalid segment)
    bool denied = false;        // transient: retry with backoff
    auto& as = r.address_space();
    const std::size_t base_slot = r.pinned_pages();
    for (std::size_t i = 0; i < chunk; ++i) {
      try {
        frames.push_back(as.pin_page(r.page_va_at(base_slot + i)));
      } catch (const mem::InvalidAddressError&) {
        hard_failed = true;  // the paper's invalid-segment-at-pin-time case
        break;
      } catch (const mem::PinDeniedError& e) {
        ++counters_.pins_denied;
        if (e.reason() == mem::PinDeniedError::Reason::kQuota &&
            (shed_one_victim() || arbitrate_headroom())) {
          --i;  // freed quota headroom; retry this page now
          continue;
        }
        denied = true;
        break;
      } catch (const mem::OutOfMemoryError&) {
        // Physical frames exhausted: direct reclaim. Shed an idle region's
        // pins (making its pages reclaimable) and swap out unpinned pages
        // until the allocation can proceed; with nothing reclaimable this
        // attempt is over — like get_user_pages returning -ENOMEM — and the
        // chunk is retried after a backoff.
        (void)shed_one_victim();
        std::size_t freed = 0;
        for (mem::VirtAddr va : as.resident_unpinned_pages()) {
          if (freed >= chunk - i + 8) break;
          if (as.swap_out(va)) ++freed;
        }
        if (freed == 0) {
          denied = true;
          break;
        }
        --i;  // retry this page
      }
    }
    r.commit_pins(frames);
    counters_.pages_pinned += frames.size();
    if (!frames.empty()) emit(obs::EventKind::kPinPages, r, "pages pinned");
    if (hard_failed) {
      ++counters_.pin_failures;
      finish(r, false);
      return;
    }
    // Any forward progress resets the budget: only a *stalled* frontier
    // counts against it, so sustained-but-survivable pressure cannot
    // starve a big region that pins a few pages per round.
    if (!frames.empty()) t.job.retries = 0;
    release_early_waiters(r, true);
    if (denied && frames.empty()) {
      retry_or_fail(r);
      return;
    }
    schedule_chunk(r);
  }));
}

sim::Time PinManager::retry_backoff(int retries) const {
  sim::Time t = cfg_.pin_retry_backoff;
  for (int i = 1; i < retries && t < cfg_.pin_retry_backoff_max; ++i) {
    t *= 2;
  }
  return std::min(t, cfg_.pin_retry_backoff_max);
}

void PinManager::retry_or_fail(Region& r) {
  PinJob& job = track(r).job;
  if (job.retries >= cfg_.pin_retry_budget) {
    give_up(r, "retry budget exhausted");
    return;
  }
  ++job.retries;
  ++counters_.pin_retries;
  emit(obs::EventKind::kPinRetry, r, "transient pin denial, backing off");
  resume_after(r, retry_backoff(job.retries), {"pin", "retry_backoff"});
}

void PinManager::give_up(Region& r, const char* why) {
  ++counters_.pin_retry_exhausted;
  ++counters_.pin_failures;
  emit(obs::EventKind::kPinFail, r, why);
  finish(r, false);
}

void PinManager::release_early_waiters(Region& r, bool ok) {
  PinJob& job = track(r).job;
  if (job.early_waiters.empty()) return;
  if (ok && r.pinned_pages() < job.early_threshold && !r.fully_pinned()) {
    return;
  }
  std::vector<Completion> waiters;
  waiters.swap(job.early_waiters);
  for (auto& w : waiters) w(ok);
}

void PinManager::finish(Region& r, bool ok) {
  Tracked& t = track(r);
  PinJob& job = t.job;
  job.active = false;
  ++job.generation;
  t.was_pinned = t.was_pinned || ok;
  if (ok) {
    emit(obs::EventKind::kPinDone, r, "fully pinned");
  } else {
    emit(obs::EventKind::kPinFail, r, "failed");
    r.set_state(Region::PinState::kFailed);
    // Give back whatever partial pins we hold; a failed region holds none.
    do_unpin(r, counters_.unpin_ops);
    r.set_state(Region::PinState::kFailed);
  }

  release_early_waiters(r, ok);
  std::vector<Completion> waiters;
  waiters.swap(job.full_waiters);
  for (auto& w : waiters) w(ok);
  // Requests that proceeded on an earlier early-release and are now mid-
  // communication need an abort path when pinning later fails.
  if (!ok && failure_handler_) failure_handler_(r);
}

void PinManager::unpin(Region& r) {
  if (Tracked* t = find_alive(r.id(), &r); t != nullptr && t->job.active) {
    ++t->job.generation;
    t->job.active = false;
  }
  do_unpin(r, counters_.unpin_ops);
}

void PinManager::do_unpin(Region& r, std::uint64_t& op_counter) {
  const bool had_pins = r.pinned_pages() > 0;
  do_unpin_from(r, 0, op_counter);
  r.set_state(Region::PinState::kUnpinned);
  if (had_pins) emit(obs::EventKind::kPinUnpin, r, "unpinned");
}

void PinManager::do_unpin_from(Region& r, std::size_t first_slot,
                               std::uint64_t& op_counter) {
  auto pins = r.take_pins_from(first_slot);
  if (pins.empty()) return;
  auto& as = r.address_space();
  for (auto& [va, frame] : pins) as.unpin_page(va, frame);
  ++op_counter;
  counters_.pages_unpinned += pins.size();
  // In per-communication mode the unpin is part of the undeclare ioctl and
  // blocks the caller (it precedes whatever the application does next). In
  // the decoupled modes the driver releases pages in deferred context —
  // new syscalls overtake it, so it stays off the critical path. This is
  // half of what Figures 6-7 measure: the paper's model hides the unpin as
  // well as the pin. Charged in small quanta: the real page-release loop is
  // preemptible and must not block bottom halves for hundreds of µs.
  const auto prio = cfg_.mode == PinMode::kPerCommunication
                        ? cpu::Priority::kKernel
                        : cpu::Priority::kIdle;
  const sim::Time per_page = cpu_.unpin_cost(1) - cpu_.unpin_cost(0);
  std::size_t remaining = pins.size();
  core_.consume(prio, cpu_.unpin_cost(0));
  while (remaining > 0) {
    const std::size_t chunk = std::min(cfg_.pin_chunk_pages, remaining);
    core_.consume(prio, static_cast<sim::Time>(chunk) * per_page);
    remaining -= chunk;
  }
}

void PinManager::invalidate_range(mem::VirtAddr start, mem::VirtAddr end) {
  // Collect overlapping regions first, then process: a job that fails its
  // restart budget runs the failure handler, which may unregister regions
  // (erasing from tracked_) mid-walk. Processing in ascending-id order is
  // part of the deterministic contract.
  std::vector<std::pair<RegionId, Region*>> hits;
  for (const auto& [rid, t] : tracked_) {
    if (t->registered && t->region->overlaps(start, end)) {
      hits.emplace_back(rid, t->region);
    }
  }
  for (const auto& [rid, rp] : hits) {
    Tracked* t = find_alive(rid, rp);
    if (t == nullptr) continue;  // unregistered by an earlier iteration
    Region& r = *t->region;
    ++counters_.notifier_invalidations;

    // Range-granular response, like a real MMU-notifier driver: only pins
    // at or above the first invalidated page have stale translations.
    // Pages pin strictly in address order, so truncating the frontier at
    // that slot keeps every pin below it valid and DMA-visible. An
    // invalidation wholly ahead of the frontier — the swap daemon
    // reclaiming a page the pin job has not reached yet, the most common
    // storm event — costs no pins at all.
    const std::size_t cut = r.first_slot_overlapping(start, end);
    if (cut >= r.pinned_pages()) {
      emit(obs::EventKind::kPinInvalidate, r, "mmu notifier", cut);
      continue;
    }

    const bool mid_pin = t->job.active;
    if (mid_pin) ++t->job.generation;  // discard the chunk in flight
    do_unpin_from(r, cut, counters_.unpin_ops);
    // Emitted post-truncation so sinks see the frontier the VM now relies
    // on; the invariant checker asserts it sits at or below the cut slot.
    emit(obs::EventKind::kPinInvalidate, r, "mmu notifier", cut);
    if (!mid_pin) continue;

    // An invalidation landing on an in-flight pin job restarts the job
    // (after a backoff) instead of failing its waiters: the overlapped
    // protocol already drops-and-retransmits frames that raced the unpin,
    // so a notifier storm must only *delay* the transfer, never abort it.
    // The restart budget bounds pathological storms — a job invalidated
    // over and over with no completion in between eventually fails cleanly
    // (the endpoint aborts) rather than live-locking the pin/unpin loop.
    PinJob& job = t->job;
    if (job.inval_restarts >= cfg_.pin_retry_budget) {
      give_up(r, "invalidation restart budget exhausted");
      continue;
    }
    ++job.inval_restarts;
    ++counters_.pin_inval_restarts;
    r.set_state(Region::PinState::kPinning);
    emit(obs::EventKind::kPinRestart, r, "invalidated mid-pin, restarting");
    resume_after(r, retry_backoff(job.inval_restarts),
                 {"pin", "restart_backoff"});
  }
}

bool PinManager::shed_one_victim() {
  // Ascending-id walk of the ordered map: a last_use tie deterministically
  // picks the lowest region id (strict < keeps the first candidate).
  Region* victim = nullptr;
  sim::Time oldest = 0;
  for (const auto& [rid, t] : tracked_) {
    (void)rid;
    if (!t->registered) continue;
    Region* region = t->region;
    if (region->use_count() != 0 || region->pinned_pages() == 0) continue;
    if (t->job.active) continue;
    if (victim == nullptr || t->last_use < oldest) {
      victim = region;
      oldest = t->last_use;
    }
  }
  if (victim == nullptr) return false;  // nothing evictable
  ++counters_.pressure_unpins;
  emit(obs::EventKind::kPinShed, *victim, "memory pressure");
  do_unpin(*victim, counters_.unpin_ops);
  return true;
}

void PinManager::shed_pins_if_needed(mem::PhysicalMemory& pm,
                                     std::size_t incoming_pages) {
  // Two ceilings bound the host's pinned pages: the driver's own policy
  // (cfg_.max_pinned_pages) and the PhysicalMemory quota (the
  // RLIMIT_MEMLOCK analogue). Shed LRU idle regions until the incoming
  // chunk fits under both — or nothing evictable remains, in which case the
  // caller shrinks the chunk to the headroom or backs off.
  const std::size_t limit = std::min(cfg_.max_pinned_pages, pm.pin_quota());
  while (pm.pinned_pages() + incoming_pages > limit) {
    if (!shed_one_victim()) return;
  }
}

}  // namespace pinsim::core
