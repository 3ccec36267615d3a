#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>

namespace mutsvc::sim {

namespace {

/// Eager, self-destroying root coroutine used by Simulator::spawn.
struct DetachedTask {
  struct promise_type {
    DetachedTask get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept {
      try {
        std::rethrow_exception(std::current_exception());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "mutsvc: exception escaped detached task: %s\n", e.what());
      } catch (...) {
        std::fprintf(stderr, "mutsvc: unknown exception escaped detached task\n");
      }
      std::terminate();
    }
  };
};

DetachedTask run_detached(Task<void> task) { co_await std::move(task); }

constexpr std::uintptr_t kResumeBit = 1;

}  // namespace

Simulator::Simulator(std::uint64_t seed) : seed_(seed) {}

void Simulator::push_event(SimTime at, std::uintptr_t payload) {
  heap_.push_back(HeapNode{at, next_seq_++, payload});
  std::push_heap(heap_.begin(), heap_.end(), NodeOrder{});
}

std::uintptr_t Simulator::make_slot(EventFn fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  }
  return static_cast<std::uintptr_t>(slot) << 1;
}

void Simulator::schedule_at(SimTime at, EventFn fn) {
  if (at < now_) at = now_;
  push_event(at, make_slot(std::move(fn)));
}

void Simulator::schedule_resume_at(SimTime at, std::coroutine_handle<> h) {
  if (at < now_) at = now_;
  push_event(at, reinterpret_cast<std::uintptr_t>(h.address()) | kResumeBit);
}

void Simulator::spawn(Task<void> task) {
  if (!task.valid()) return;
  run_detached(std::move(task));
}

void Simulator::dispatch(const HeapNode& node) {
  if (node.payload & kResumeBit) {
    std::coroutine_handle<>::from_address(
        reinterpret_cast<void*>(node.payload & ~kResumeBit))
        .resume();
    return;
  }
  // Move the callable out and recycle its slot before invoking: the
  // handler may schedule new events into the slab.
  const auto slot = static_cast<std::uint32_t>(node.payload >> 1);
  EventFn fn = std::move(slots_[slot]);
  free_slots_.push_back(slot);
  fn();
}

std::size_t Simulator::run_until(SimTime until) {
  const std::size_t before = executed_;
  while (!heap_.empty() && heap_.front().at <= until) {
    std::pop_heap(heap_.begin(), heap_.end(), NodeOrder{});
    const HeapNode node = heap_.back();
    heap_.pop_back();
    now_ = node.at;
    dispatch(node);
    ++executed_;
  }
  if (until != SimTime::max() && now_ < until) now_ = until;
  return executed_ - before;
}

}  // namespace mutsvc::sim
