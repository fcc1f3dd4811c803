#include "sim/engine.hpp"

#include <chrono>
#include <utility>

#include "sim/profiler.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace chicsim::sim {

EventId Engine::schedule_at(util::SimTime t, EventFn fn) {
  return schedule_at(t, nullptr, std::move(fn));
}

EventId Engine::schedule_in(util::SimTime delay, EventFn fn) {
  return schedule_in(delay, nullptr, std::move(fn));
}

EventId Engine::schedule_at(util::SimTime t, const char* tag, EventFn fn) {
  CHICSIM_ASSERT_MSG(t >= now_, "event scheduled in the past");
  CHICSIM_ASSERT_MSG(static_cast<bool>(fn), "event with empty callback");
  return queue_.push(t, std::move(fn), tag);
}

EventId Engine::schedule_reserved(util::SimTime t, EventSeq seq, const char* tag, EventFn fn) {
  CHICSIM_ASSERT_MSG(t >= now_, "event scheduled in the past");
  CHICSIM_ASSERT_MSG(static_cast<bool>(fn), "event with empty callback");
  return queue_.push_reserved(t, seq, std::move(fn), tag);
}

EventId Engine::schedule_in(util::SimTime delay, const char* tag, EventFn fn) {
  CHICSIM_ASSERT_MSG(delay >= 0.0, "negative event delay");
  return schedule_at(now_ + delay, tag, std::move(fn));
}

bool Engine::cancel(EventId id) { return queue_.cancel(id); }

bool Engine::step() {
  if (queue_.empty()) return false;
  Event e = queue_.pop();
  CHICSIM_ASSERT_MSG(e.time >= now_, "event calendar went backwards");
  now_ = e.time;
  ++executed_;
  if (profiler_ == nullptr) {
    e.fn();
  } else {
    // detlint: allow(wall-clock): handler timing for the attached profiler only; sim time stays e.time
    auto t0 = std::chrono::steady_clock::now();
    e.fn();
    auto t1 = std::chrono::steady_clock::now();
    profiler_->record(e.tag, std::chrono::duration<double>(t1 - t0).count());
  }
  return true;
}

void Engine::run() {
  stop_requested_ = false;
  if (profiler_ != nullptr) profiler_->run_started();
  while (!stop_requested_ && step()) {
  }
  if (profiler_ != nullptr) profiler_->run_finished();
}

void Engine::run_until(util::SimTime t_end) {
  CHICSIM_ASSERT_MSG(t_end >= now_, "run_until horizon in the past");
  stop_requested_ = false;
  if (profiler_ != nullptr) profiler_->run_started();
  while (!stop_requested_ && !queue_.empty() && queue_.next_time() <= t_end) {
    (void)step();
  }
  if (!stop_requested_ && now_ < t_end) now_ = t_end;
  if (profiler_ != nullptr) profiler_->run_finished();
}

PeriodicTimer::PeriodicTimer(Engine& engine, util::SimTime start, util::SimTime period,
                             EventFn fn, const char* tag)
    : engine_(engine), period_(period), fn_(std::move(fn)), tag_(tag) {
  CHICSIM_ASSERT_MSG(period_ > 0.0, "periodic timer needs positive period");
  arm(start);
}

PeriodicTimer::~PeriodicTimer() { stop(); }

void PeriodicTimer::stop() {
  if (!running_) return;
  running_ = false;
  if (pending_ != kNoEvent) {
    (void)engine_.cancel(pending_);
    pending_ = kNoEvent;
  }
}

void PeriodicTimer::arm(util::SimTime t) {
  pending_ = engine_.schedule_at(t, tag_, [this] {
    pending_ = kNoEvent;
    if (!running_) return;
    fn_();
    if (!running_) return;
    util::SimTime next = engine_.now() + period_;
    // A period below the clock's resolution at `now` would re-fire at the
    // same instant forever.
    if (!(next > engine_.now())) {
      throw util::SimError(std::string("periodic timer '") + (tag_ ? tag_ : "untagged") +
                           "': period " + util::format_exact(period_) +
                           " s does not advance virtual time at t = " +
                           util::format_exact(engine_.now()) + " s");
    }
    arm(next);
  });
}

}  // namespace chicsim::sim
