#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/future.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"

namespace mutsvc::sim {
namespace {

TEST(SimulatorTest, StartsAtOrigin) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::origin());
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(ms(30), [&] { order.push_back(3); });
  sim.schedule_after(ms(10), [&] { order.push_back(1); });
  sim.schedule_after(ms(20), [&] { order.push_back(2); });
  sim.run_until();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::origin() + ms(30));
}

TEST(SimulatorTest, SameTimeEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(ms(5), [&order, i] { order.push_back(i); });
  }
  sim.run_until();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(ms(10), [&] { ++fired; });
  sim.schedule_after(ms(50), [&] { ++fired; });
  sim.run_until(SimTime::origin() + ms(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime::origin() + ms(20));
  sim.run_until();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventInPastClampsToNow) {
  Simulator sim;
  sim.schedule_after(ms(10), [&] {
    // From inside an event at t=10, scheduling "at t=0" must fire at t=10.
    sim.schedule_at(SimTime::origin(), [] {});
  });
  sim.run_until();
  EXPECT_EQ(sim.now(), SimTime::origin() + ms(10));
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(SimulatorTest, HandlerCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule_after(ms(1), chain);
  };
  sim.schedule_after(ms(1), chain);
  sim.run_until();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), SimTime::origin() + ms(5));
}

// --- coroutines ------------------------------------------------------------

[[nodiscard]] Task<void> wait_twice(Simulator& sim, std::vector<double>& log) {
  co_await sim.wait(ms(10));
  log.push_back(sim.now().as_millis());
  co_await sim.wait(ms(15));
  log.push_back(sim.now().as_millis());
}

TEST(CoroutineTest, SpawnedTaskAdvancesThroughWaits) {
  Simulator sim;
  std::vector<double> log;
  sim.spawn(wait_twice(sim, log));
  sim.run_until();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_DOUBLE_EQ(log[0], 10.0);
  EXPECT_DOUBLE_EQ(log[1], 25.0);
}

[[nodiscard]] Task<int> returns_value(Simulator& sim) {
  co_await sim.wait(ms(1));
  co_return 42;
}

[[nodiscard]] Task<void> awaits_child(Simulator& sim, int& out) {
  out = co_await returns_value(sim);
}

TEST(CoroutineTest, ChildTaskReturnValue) {
  Simulator sim;
  int out = 0;
  sim.spawn(awaits_child(sim, out));
  sim.run_until();
  EXPECT_EQ(out, 42);
}

[[nodiscard]] Task<int> deep(Simulator& sim, int depth) {
  if (depth == 0) co_return 1;
  co_await sim.wait(us(1));
  int sub = co_await deep(sim, depth - 1);
  co_return sub + 1;
}

TEST(CoroutineTest, DeeplyNestedTasks) {
  Simulator sim;
  int out = 0;
  sim.spawn([](Simulator& s, int& o) -> Task<void> { o = co_await deep(s, 100); }(sim, out));
  sim.run_until();
  EXPECT_EQ(out, 101);
  EXPECT_EQ(sim.now(), SimTime::origin() + us(100));
}

[[nodiscard]] Task<void> throws_after_wait(Simulator& sim) {
  co_await sim.wait(ms(1));
  throw std::runtime_error("boom");
}

[[nodiscard]] Task<void> catches_child(Simulator& sim, std::string& msg) {
  try {
    co_await throws_after_wait(sim);
  } catch (const std::runtime_error& e) {
    msg = e.what();
  }
}

TEST(CoroutineTest, ExceptionsPropagateToAwaiter) {
  Simulator sim;
  std::string msg;
  sim.spawn(catches_child(sim, msg));
  sim.run_until();
  EXPECT_EQ(msg, "boom");
}

TEST(CoroutineTest, ManyConcurrentTasksInterleaveDeterministically) {
  Simulator sim;
  std::vector<int> completions;
  for (int i = 0; i < 50; ++i) {
    sim.spawn([](Simulator& s, std::vector<int>& out, int id) -> Task<void> {
      // Task id waits id+1 ms, so completion order equals id order.
      co_await s.wait(ms(id + 1));
      out.push_back(id);
    }(sim, completions, i));
  }
  sim.run_until();
  ASSERT_EQ(completions.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(completions[static_cast<std::size_t>(i)], i);
}

// --- futures ---------------------------------------------------------------

TEST(FutureTest, AwaitAlreadyResolved) {
  Simulator sim;
  Promise<int> p{sim};
  p.set_value(7);
  int out = 0;
  sim.spawn([](Promise<int> p, int& o) -> Task<void> { o = co_await p.future(); }(p, out));
  sim.run_until();
  EXPECT_EQ(out, 7);
}

TEST(FutureTest, MultipleWaitersAllWake) {
  Simulator sim;
  Promise<int> p{sim};
  std::vector<int> got;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Promise<int> p, std::vector<int>& g) -> Task<void> {
      g.push_back(co_await p.future());
    }(p, got));
  }
  sim.schedule_after(ms(5), [&] { p.set_value(9); });
  sim.run_until();
  EXPECT_EQ(got, (std::vector<int>{9, 9, 9}));
  EXPECT_EQ(sim.now(), SimTime::origin() + ms(5));
}

TEST(FutureTest, DoubleFulfilThrows) {
  Simulator sim;
  Promise<int> p{sim};
  p.set_value(1);
  EXPECT_THROW(p.set_value(2), std::logic_error);
}

TEST(FutureTest, ExceptionDelivery) {
  Simulator sim;
  Promise<int> p{sim};
  std::string msg;
  sim.spawn([](Promise<int> p, std::string& m) -> Task<void> {
    try {
      (void)co_await p.future();
    } catch (const std::runtime_error& e) {
      m = e.what();
    }
  }(p, msg));
  sim.schedule_after(ms(1), [&] {
    p.set_exception(std::make_exception_ptr(std::runtime_error("bad")));
  });
  sim.run_until();
  EXPECT_EQ(msg, "bad");
}

TEST(SignalTest, FireWakesWaitersOnceIdempotently) {
  Simulator sim;
  Signal sig{sim};
  int woke = 0;
  for (int i = 0; i < 2; ++i) {
    sim.spawn([](Signal& s, int& w) -> Task<void> {
      co_await s.wait();
      ++w;
    }(sig, woke));
  }
  sim.schedule_after(ms(2), [&] {
    sig.fire();
    sig.fire();  // second fire is a no-op
  });
  sim.run_until();
  EXPECT_EQ(woke, 2);
  EXPECT_TRUE(sig.fired());
}

// --- resources ---------------------------------------------------------------

TEST(FifoResourceTest, SingleServerSerializes) {
  Simulator sim;
  FifoResource cpu{sim, 1};
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Simulator& s, FifoResource& r, std::vector<double>& d) -> Task<void> {
      co_await r.consume(ms(10));
      d.push_back(s.now().as_millis());
    }(sim, cpu, done));
  }
  sim.run_until();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_DOUBLE_EQ(done[0], 10.0);
  EXPECT_DOUBLE_EQ(done[1], 20.0);
  EXPECT_DOUBLE_EQ(done[2], 30.0);
}

TEST(FifoResourceTest, TwoServersRunInParallel) {
  Simulator sim;
  FifoResource cpu{sim, 2};
  std::vector<double> done;
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Simulator& s, FifoResource& r, std::vector<double>& d) -> Task<void> {
      co_await r.consume(ms(10));
      d.push_back(s.now().as_millis());
    }(sim, cpu, done));
  }
  sim.run_until();
  ASSERT_EQ(done.size(), 4u);
  EXPECT_DOUBLE_EQ(done[0], 10.0);
  EXPECT_DOUBLE_EQ(done[1], 10.0);
  EXPECT_DOUBLE_EQ(done[2], 20.0);
  EXPECT_DOUBLE_EQ(done[3], 20.0);
}

TEST(FifoResourceTest, ReleaseWithoutAcquireThrows) {
  Simulator sim;
  FifoResource cpu{sim, 1};
  EXPECT_THROW(cpu.release(), std::logic_error);
}

TEST(FifoResourceTest, ZeroServersRejected) {
  Simulator sim;
  EXPECT_THROW(FifoResource(sim, 0), std::invalid_argument);
}

TEST(FifoResourceTest, UtilizationTracksBusyFraction) {
  Simulator sim;
  FifoResource cpu{sim, 2};
  sim.spawn([](FifoResource& r) -> Task<void> { co_await r.consume(ms(50)); }(cpu));
  sim.run_for(ms(100));
  // One of two servers busy for 50 of 100 ms -> 25% mean utilization.
  EXPECT_NEAR(cpu.utilization(), 0.25, 0.01);
}

TEST(FifoResourceTest, UtilizationResetsWindow) {
  Simulator sim;
  FifoResource cpu{sim, 1};
  sim.spawn([](FifoResource& r) -> Task<void> { co_await r.consume(ms(50)); }(cpu));
  sim.run_for(ms(50));
  cpu.reset_utilization();
  sim.run_for(ms(50));
  EXPECT_NEAR(cpu.utilization(), 0.0, 1e-9);
}

TEST(SimMutexTest, MutualExclusionFifo) {
  Simulator sim;
  SimMutex m{sim};
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Simulator& s, SimMutex& m, std::vector<int>& o, int id) -> Task<void> {
      co_await m.acquire();
      o.push_back(id);
      co_await s.wait(ms(5));
      m.release();
    }(sim, m, order, i));
  }
  sim.run_until();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(m.locked());
  EXPECT_EQ(sim.now(), SimTime::origin() + ms(15));
}


// --- domain-tagged event order (DESIGN §15) ----------------------------------

TEST(TaggedOrderTest, SameTimeEventsOrderByOwnerThenSequence) {
  // The order key is (time, owner, seq): at equal times every event created
  // by domain 0 runs before any created by domain 1, whatever the order of
  // creation.
  Simulator sim;
  sim.enable_domains(2);
  std::vector<int> order;
  {
    Simulator::DomainScope scope(sim, 1);
    sim.schedule_after(ms(5), [&] { order.push_back(10); });
    sim.schedule_after(ms(5), [&] { order.push_back(11); });
  }
  {
    Simulator::DomainScope scope(sim, 0);
    sim.schedule_after(ms(5), [&] { order.push_back(0); });
  }
  sim.run_until();
  EXPECT_EQ(order, (std::vector<int>{0, 10, 11}));
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 1099511628211ULL;
  }
  return h;
}

// One task per domain: local timer chatter plus a periodic hop to the next
// domain and back through wait_in — the cross-domain edge the Network takes.
// Every iteration appends to a shared log, so the interleaving of the
// domains (not just the totals) is pinned.
[[nodiscard]] Task<void> domain_chatter(Simulator& sim, std::uint32_t id, std::uint32_t domains,
                                        Rng rng, std::vector<std::uint64_t>& log,
                                        SimTime end) {
  const auto dest = static_cast<Simulator::DomainId>((id + 1) % domains);
  const auto home = static_cast<Simulator::DomainId>(id);
  std::uint64_t draws = 0;
  while (sim.now() < end) {
    for (int i = 0; i < 3; ++i) {
      co_await sim.wait(us(700 + 13 * id + i));
      const std::uint64_t draw = rng.uniform_int(0, 1 << 20);
      draws += draw;
      log.push_back((static_cast<std::uint64_t>(id) << 56) ^
                    (static_cast<std::uint64_t>(sim.now().count_micros()) << 8) ^ (draw & 0xff));
    }
    co_await sim.wait_in(dest, ms(60));
    co_await sim.wait_in(home, ms(50));
  }
  log.push_back(draws);
}

TEST(TaggedOrderTest, DomainChatterTrajectoryIsPinned) {
  constexpr std::uint32_t kDomains = 4;
  Simulator sim(90125);
  sim.enable_domains(kDomains);
  const SimTime end = SimTime::origin() + sec(6);
  std::vector<std::uint64_t> log;
  for (std::uint32_t d = 0; d < kDomains; ++d) {
    Simulator::DomainScope scope(sim, static_cast<Simulator::DomainId>(d));
    sim.spawn(domain_chatter(sim, d, kDomains,
                             Rng{Rng::named_seed(sim.seed(), "chatter-" + std::to_string(d))},
                             log, end));
  }
  sim.run_until(end);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint64_t v : log) h = fnv1a(h, v);
  h = fnv1a(h, log.size());
  // Pinned values: a change to the (time, owner, seq) key, or to how
  // wait_in keys a cross-domain resume, moves the digest.
  EXPECT_EQ(sim.executed_events(), 1072u);
  EXPECT_EQ(h, 17924762491294115999ULL);
}

}  // namespace
}  // namespace mutsvc::sim
