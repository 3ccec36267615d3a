#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace mutsvc::sim {

/// Discrete-event simulation kernel.
///
/// Owns the virtual clock and the event heap. Events scheduled for the same
/// time fire in insertion order (stable FIFO tie-break), which makes runs
/// fully deterministic.
///
/// Hot-path layout: the heap itself holds 24-byte POD nodes (time, seq,
/// payload), so sift operations are plain memmoves with no callable
/// moves. A payload with bit 0 set is a bare coroutine-resume handle — the
/// dominant `wait()` path — executed without ever touching the callable
/// slab; otherwise the payload is a slab slot (an `EventFn` recycled through
/// a freelist). Slot recycling is driven purely by the (deterministic)
/// event order, so it never perturbs results.
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (clamped to now()).
  void schedule_at(SimTime at, EventFn fn);

  /// Schedules `fn` to run `after` from now.
  void schedule_after(Duration after, EventFn fn) {
    schedule_at(now() + after, std::move(fn));
  }

  /// Schedules a bare coroutine resume — the `wait()` hot path. Skips the
  /// callable slab entirely: the handle rides in the heap node itself.
  void schedule_resume_at(SimTime at, std::coroutine_handle<> h);
  void schedule_resume_after(Duration after, std::coroutine_handle<> h) {
    schedule_resume_at(now() + after, h);
  }

  /// Launches a top-level coroutine. The task starts immediately (runs
  /// until its first suspension point) and its frame self-destroys on
  /// completion. An exception escaping a detached task terminates the
  /// simulation with a diagnostic — detached failures must not be silent.
  void spawn(Task<void> task);

  /// Awaitable that suspends the current task for `d` of simulated time.
  [[nodiscard]] auto wait(Duration d) {
    struct Awaiter {
      Simulator& sim;
      Duration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { sim.schedule_resume_after(d, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

  /// Awaitable that reschedules the current task at the back of the
  /// current-time event queue (a cooperative yield).
  [[nodiscard]] auto yield() { return wait(Duration::zero()); }

  /// Runs until the event queue empties or the clock passes `until`.
  /// Returns the number of events executed.
  std::size_t run_until(SimTime until = SimTime::max());

  /// Runs for `d` of simulated time from the current clock.
  std::size_t run_for(Duration d) { return run_until(now() + d); }

  [[nodiscard]] bool idle() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }
  [[nodiscard]] std::size_t executed_events() const { return executed_; }

  /// Root seed; subsystems derive their own streams from it with
  /// `Rng::named_seed(seed(), "<name>")`.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  struct HeapNode {
    SimTime at;
    std::uint64_t seq;       // global insertion order: the FIFO tie-break
    std::uintptr_t payload;  // bit 0: coroutine handle; else slab slot << 1
  };
  struct NodeOrder {
    bool operator()(const HeapNode& a, const HeapNode& b) const {
      if (a.at != b.at) return a.at > b.at;  // min-heap on time
      return a.seq > b.seq;
    }
  };

  void push_event(SimTime at, std::uintptr_t payload);
  [[nodiscard]] std::uintptr_t make_slot(EventFn fn);
  void dispatch(const HeapNode& node);

  SimTime now_;
  std::size_t executed_ = 0;
  std::vector<HeapNode> heap_;
  std::vector<EventFn> slots_;             // slab of pending callables
  std::vector<std::uint32_t> free_slots_;  // recycled slab slots
  std::uint64_t next_seq_ = 0;
  std::uint64_t seed_;
};

}  // namespace mutsvc::sim
