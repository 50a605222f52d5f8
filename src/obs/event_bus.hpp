#pragma once

/// \file event_bus.hpp
/// \brief Fan-out of observability events to registered sinks.
///
/// The bus is zero-overhead when disabled: producers hold a nullable
/// `EventBus*` and guard every emission site with a single
/// `bus != nullptr && bus->enabled()` test (cached as one bool per run in
/// the simulator), so a run without sinks never constructs an Event.
/// The `sim` section of bench/bench_sched.cpp measures the <2%
/// disabled-path contract and records it in BENCH_sched.json.

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "obs/events.hpp"

namespace cloudwf::obs {

/// Dispatches events to sinks in registration order.  Not thread-safe:
/// one bus belongs to one run (simulations are single-threaded; parallel
/// sweeps use one bus per request or none).
class EventBus {
 public:
  /// Registers a non-owning sink; it must outlive every emit()/flush().
  void add_sink(EventSink* sink);

  /// True when at least one sink is attached.  Producers must check this
  /// (or hold a null bus) before building an Event.
  [[nodiscard]] bool enabled() const { return !sinks_.empty(); }

  void emit(const Event& event) {
    ++emitted_;
    for (EventSink* sink : sinks_) sink->on_event(event);
  }

  /// Total events emitted through this bus.
  [[nodiscard]] std::size_t emitted() const { return emitted_; }

  /// Flushes every sink (end of run).
  void flush();

 private:
  std::vector<EventSink*> sinks_;
  std::size_t emitted_ = 0;
};

/// Test/bench helper: retains every event verbatim.  Event name/detail are
/// borrowed views only valid during on_event (see events.hpp), so the sink
/// copies them into a deque of owned strings (stable addresses) and points
/// the retained events there.
class RecordingSink final : public EventSink {
 public:
  void on_event(const Event& event) override {
    Event copy = event;
    if (!event.name.empty()) copy.name = strings_.emplace_back(event.name);
    if (!event.detail.empty()) copy.detail = strings_.emplace_back(event.detail);
    events_.push_back(copy);
  }
  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  void clear() {
    events_.clear();
    strings_.clear();
  }

 private:
  std::vector<Event> events_;
  std::deque<std::string> strings_;  // backing storage for the views
};

/// Bench helper: counts events without retaining them (isolates the
/// emission cost from sink work).
class CountingSink final : public EventSink {
 public:
  void on_event(const Event&) override { ++count_; }
  [[nodiscard]] std::size_t count() const { return count_; }

 private:
  std::size_t count_ = 0;
};

}  // namespace cloudwf::obs
