// Event representation for the discrete-event engine.
#pragma once

#include <cstdint>
#include <functional>

#include "util/units.hpp"

namespace chicsim::sim {

/// Opaque handle identifying a scheduled event; valid until the event fires
/// or is cancelled. Handle 0 is never issued (usable as "none").
using EventId = std::uint64_t;

inline constexpr EventId kNoEvent = 0;

/// Event bodies are arbitrary callbacks. They run at their scheduled virtual
/// time and may schedule or cancel further events.
using EventFn = std::function<void()>;

/// Internal record of one scheduled event.
struct Event {
  util::SimTime time = 0.0;
  /// Handle issued by the EventQueue; ids grow with schedule order, so
  /// events at equal times fire in the order they were scheduled, making
  /// runs fully deterministic.
  EventId id = kNoEvent;
  EventFn fn;
  /// Static event-type label for the wall-clock profiler (must point at a
  /// string literal or other storage outliving the engine); nullptr means
  /// "untagged". Never influences scheduling order or simulation results.
  const char* tag = nullptr;
};

}  // namespace chicsim::sim
