// Discrete-event simulation core.
//
// Single-threaded event loop over integer-microsecond simulated time.
// Events are ordered by (time, insertion sequence) so same-time events fire
// in schedule order, making every run bit-reproducible. Cancellation is
// lazy: a cancelled event stays in the heap but is skipped when popped,
// which keeps schedule/cancel O(log n) without heap surgery.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "common/check.h"
#include "common/units.h"

namespace dyrs::sim {

using EventFn = std::function<void()>;

namespace detail {
struct EventState {
  SimTime time = 0;
  std::uint64_t seq = 0;
  EventFn fn;
  bool cancelled = false;
};
}  // namespace detail

/// Handle to a scheduled event; allows cancellation. Copyable; all copies
/// refer to the same event.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. Safe to call repeatedly and
  /// after the event has fired.
  void cancel() {
    if (auto s = state_.lock()) s->cancelled = true;
  }

  /// True while the event is still scheduled to fire.
  bool pending() const {
    auto s = state_.lock();
    return s && !s->cancelled;
  }

 private:
  friend class Simulator;
  explicit EventHandle(std::weak_ptr<detail::EventState> s) : state_(std::move(s)) {}
  std::weak_ptr<detail::EventState> state_;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute simulated time `t` (must be >= now()).
  EventHandle schedule_at(SimTime t, EventFn fn);

  /// Schedules `fn` after `delay` microseconds.
  EventHandle schedule_after(SimDuration delay, EventFn fn) {
    DYRS_CHECK(delay >= 0);
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` to run every `interval`, first firing after `interval`.
  /// Cancelling the returned handle stops the recurrence.
  EventHandle every(SimDuration interval, EventFn fn);

  /// Runs until the event queue is empty. Returns the number of events run.
  std::size_t run();

  /// Runs all events with time <= t, then advances now() to exactly t.
  std::size_t run_until(SimTime t);

  /// Executes the single next event, if any. Returns false when idle.
  bool step();

  /// True when no runnable (non-cancelled) events remain.
  bool idle();

  /// Time of the next runnable event, or nullopt when idle. An optional
  /// rather than a sentinel: SimTime 0 is a valid event time and negative
  /// times never enter the queue, so no in-band value can mean "none".
  std::optional<SimTime> next_event_time();

  std::size_t events_executed() const { return executed_; }

 private:
  struct Cmp {
    bool operator()(const std::shared_ptr<detail::EventState>& a,
                    const std::shared_ptr<detail::EventState>& b) const {
      if (a->time != b->time) return a->time > b->time;
      return a->seq > b->seq;
    }
  };

  void drop_cancelled_head();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
  std::priority_queue<std::shared_ptr<detail::EventState>,
                      std::vector<std::shared_ptr<detail::EventState>>, Cmp>
      queue_;
};

}  // namespace dyrs::sim
