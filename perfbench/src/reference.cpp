#include "reference.hpp"

#include <array>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "spans.hpp"

namespace perfbench {
namespace {

constexpr int kEvents = 1 << 18;
constexpr std::size_t kPending = 4096;  // events in the heap at any time
constexpr std::uint64_t kTableKeys = 1 << 16;
constexpr std::size_t kLiveObjects = 1 << 14;
constexpr int kDispatches = 3'000'000;
constexpr std::size_t kScratchWords = 4096;

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Event {
  std::uint64_t at;
  std::uint32_t id;
  bool operator>(const Event& o) const { return at != o.at ? at > o.at : id > o.id; }
};

using Payload = std::array<std::uint64_t, 6>;

/// Event scheduling, hash-table updates and allocation churn.
std::uint64_t run_events() {
  std::uint64_t rng = 0x2003;
  std::uint64_t sum = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  for (std::uint32_t i = 0; i < kPending; ++i) heap.push({splitmix(rng) % 1000, i});
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::vector<std::unique_ptr<Payload>> live(kLiveObjects);
  for (int e = 0; e < kEvents; ++e) {
    const Event ev = heap.top();
    heap.pop();
    const std::uint64_t r = splitmix(rng);
    std::uint64_t& slot = table[r % kTableKeys];
    slot += ev.at ^ r;
    auto obj = std::make_unique<Payload>();
    (*obj)[r % obj->size()] = slot;
    std::unique_ptr<Payload>& old = live[(r >> 20) % kLiveObjects];
    if (old) sum += (*old)[ev.id % old->size()];
    old = std::move(obj);
    heap.push({ev.at + 1 + (r >> 40) % 1000, ev.id});
  }
  return sum + table.size();
}

/// One of many distinct small functions; together they span a couple of
/// hundred KiB of code, so dispatching among them at random loads the
/// instruction cache and branch predictors as a large program does.
template <int I>
std::uint64_t step(std::uint64_t x, std::uint64_t* scratch) {
  constexpr std::uint64_t k = 0x9e3779b97f4a7c15ULL * (I + 1);
  x ^= x >> (I % 29 + 3);
  x *= k | 1;
  if ((x >> (I % 7 + 50)) & 1) {
    scratch[(x >> 13) % kScratchWords] += x ^ k;
    x += scratch[(x >> 25) % kScratchWords];
  } else {
    x = (x << (I % 5 + 1)) ^ (x >> (I % 11 + 2)) ^ k;
  }
  if ((x & 0x30) == (I & 0x30)) x ^= scratch[(x >> 40) % kScratchWords] * (I | 3);
  return x;
}

using Step = std::uint64_t (*)(std::uint64_t, std::uint64_t*);

template <std::size_t... Is>
constexpr std::array<Step, sizeof...(Is)> step_table(std::index_sequence<Is...>) {
  return {&step<static_cast<int>(Is)>...};
}

constexpr auto kSteps = step_table(std::make_index_sequence<1024>{});

/// Random dispatch over kSteps.
std::uint64_t run_dispatch() {
  std::vector<std::uint64_t> scratch(kScratchWords, 0);
  std::uint64_t x = 12345;
  for (int i = 0; i < kDispatches; ++i) x = kSteps[(x >> 20) % kSteps.size()](x, scratch.data());
  return x;
}

}  // namespace

HostReference::HostReference() : checksum_(run_kernel()) {}

std::uint64_t HostReference::run_kernel() { return run_events() ^ run_dispatch(); }

double HostReference::time_once() {
  const auto t0 = Clock::now();
  const std::uint64_t sum = run_kernel();
  const double s = seconds_since(t0);
  if (sum != checksum_) throw std::runtime_error("host reference kernel changed its output");
  return s;
}

}  // namespace perfbench
