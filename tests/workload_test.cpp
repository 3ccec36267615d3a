// The §3.3 load as the harness drives it: closed-loop client fleets sized by
// split_clients, and the open-loop page pump of the flash-crowd studies,
// both on workload::SessionFsmEngine.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>

#include "sim/simulator.hpp"
#include "workload/session.hpp"
#include "workload/session_fsm.hpp"

namespace mutsvc::workload {
namespace {

using sim::Duration;
using sim::ms;
using sim::sec;
using sim::Simulator;
using sim::Task;

/// Fixed-latency executor that records request arrival times and pages.
class FakeExecutor final : public RequestExecutor {
 public:
  FakeExecutor(Simulator& sim, Duration latency) : sim_(sim), latency_(latency) {}

  [[nodiscard]] Task<RequestOutcome> execute(net::NodeId, const PageRequest& req) override {
    ++requests_;
    pages_[req.page]++;
    patterns_[req.pattern]++;
    co_await sim_.wait(latency_);
    co_return RequestOutcome::kOk;
  }

  std::uint64_t requests_ = 0;
  std::map<std::string, int> pages_;
  std::map<std::string, int> patterns_;

 private:
  Simulator& sim_;
  Duration latency_;
};

/// Three-page fixed session.
class FixedModel final : public FsmScriptModel {
 public:
  explicit FixedModel(const char* pattern) : pattern_(pattern) {}
  std::optional<PageRequest> next(std::uint32_t step, FsmScratch&, sim::Rng&) const override {
    if (step >= 3) return std::nullopt;
    PageRequest req;
    req.page = "P" + std::to_string(step);
    req.pattern = pattern_;
    req.component = "Web";
    req.method = "page";
    return req;
  }
  const char* pattern() const override { return pattern_; }

 private:
  const char* pattern_;
};

class EmptyModel final : public FsmScriptModel {
 public:
  std::optional<PageRequest> next(std::uint32_t, FsmScratch&, sim::Rng&) const override {
    return std::nullopt;
  }
  const char* pattern() const override { return "Empty"; }
};

SessionFsmEngine::Config config(Duration think_time, Duration between_sessions = sec(2)) {
  SessionFsmEngine::Config cfg;
  cfg.think_time = think_time;
  cfg.between_sessions = between_sessions;
  return cfg;
}

struct LoadWorld {
  Simulator sim{5};
  stats::ResponseTimeCollector collector;

  /// One client group as the harness builds it: a browser and a writer
  /// kind, populations sized by split_clients.
  static void start_fleet(SessionFsmEngine& engine, double rate, double browser_fraction,
                          Duration think_time, sim::SimTime end) {
    const std::uint8_t b = engine.add_kind(std::make_shared<FixedModel>("Browser"),
                                           net::NodeId{0}, stats::ClientGroup::kLocal);
    const std::uint8_t w = engine.add_kind(std::make_shared<FixedModel>("Writer"),
                                           net::NodeId{0}, stats::ClientGroup::kLocal);
    const ClientSplit split = split_clients(rate, browser_fraction, think_time);
    engine.start_population(b, static_cast<std::size_t>(split.browsers), end, 1);
    engine.start_population(w, static_cast<std::size_t>(split.writers), end, 2);
  }
};

sim::SimTime at(double seconds) { return sim::SimTime::origin() + sec(seconds); }

TEST(ClosedLoopTest, BrowserWriterMixRespected) {
  LoadWorld w;
  FakeExecutor exec{w.sim, ms(10)};
  SessionFsmEngine engine{w.sim, exec, w.collector, config(sec(5))};
  LoadWorld::start_fleet(engine, 20.0, 0.8, sec(5), at(200));
  w.sim.run_until();
  const double total = exec.patterns_["Browser"] + exec.patterns_["Writer"];
  EXPECT_NEAR(exec.patterns_["Browser"] / total, 0.8, 0.05);
}

TEST(ClosedLoopTest, SoftDelayKeepsRateUnderSlowResponses) {
  // §3.3: "effectively DELAY becomes the time interval between sending
  // requests, which allowed us to simulate steady client load independent
  // of response times". A 2s response with a 5s DELAY must not reduce the
  // offered rate.
  LoadWorld w;
  FakeExecutor slow{w.sim, sec(2)};
  SessionFsmEngine engine{w.sim, slow, w.collector, config(sec(5), Duration::zero())};
  LoadWorld::start_fleet(engine, 10.0, 1.0, sec(5), at(300));
  w.sim.run_until();
  EXPECT_NEAR(static_cast<double>(slow.requests_) / 300.0, 10.0, 1.2);
}

TEST(ClosedLoopTest, ResponsesRecordedWithPatternAndGroup) {
  LoadWorld w;
  FakeExecutor exec{w.sim, ms(30)};
  const SessionFsmEngine::Config cfg;
  SessionFsmEngine engine{w.sim, exec, w.collector, cfg};
  LoadWorld::start_fleet(engine, 5.0, 1.0, cfg.think_time, at(60));
  w.sim.run_until();
  EXPECT_GT(w.collector.total_samples(), 0u);
  EXPECT_NEAR(w.collector.page_mean_ms("Browser", "P0", stats::ClientGroup::kLocal), 30.0, 0.5);
  EXPECT_NEAR(w.collector.pattern_mean_ms("Browser", stats::ClientGroup::kLocal), 30.0, 0.5);
}

TEST(ClosedLoopTest, ClientsStopAtEndTime) {
  LoadWorld w;
  FakeExecutor exec{w.sim, ms(1)};
  const SessionFsmEngine::Config cfg;
  SessionFsmEngine engine{w.sim, exec, w.collector, cfg};
  LoadWorld::start_fleet(engine, 10.0, 0.8, cfg.think_time, at(30));
  w.sim.run_until();
  // All clients eventually stop: simulation drains with no runaway events.
  EXPECT_TRUE(w.sim.idle());
  EXPECT_LT(w.sim.now().as_seconds(), 60.0);
}

/// Property sweep: the offered rate tracks the spec across a range of
/// rates and think times (parameterized, §3.3 soft-delay invariant).
class LoadRateSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(LoadRateSweep, AchievedRateTracksSpec) {
  const auto [rate, think_s] = GetParam();
  LoadWorld w;
  FakeExecutor exec{w.sim, ms(25)};
  SessionFsmEngine engine{w.sim, exec, w.collector,
                          config(Duration::seconds(think_s), Duration::zero())};
  LoadWorld::start_fleet(engine, rate, 0.8, Duration::seconds(think_s), at(400));
  w.sim.run_until();
  const double achieved = static_cast<double>(exec.requests_) / 400.0;
  EXPECT_NEAR(achieved, rate, rate * 0.15 + 0.5);
}

INSTANTIATE_TEST_SUITE_P(Rates, LoadRateSweep,
                         ::testing::Values(std::make_tuple(2.0, 4.0),
                                           std::make_tuple(5.0, 7.0),
                                           std::make_tuple(10.0, 7.0),
                                           std::make_tuple(20.0, 5.0),
                                           std::make_tuple(30.0, 10.0)));

// --- Regression: client-split rounding ---------------------------------------
// The fleet used to round browsers and writers independently, which could
// drop or invent a client (round(r*f*T) + round(r*(1-f)*T) != round(r*T))
// and left low-rate groups with zero clients.

TEST(ClientSplitTest, TotalIsConservedAcrossRatesAndMixes) {
  const double rates[] = {0.05, 0.3, 1.5, 2.9, 6.0, 10.0, 30.0, 80.0};
  const double fractions[] = {0.0, 0.2, 0.5, 0.8, 0.95, 1.0};
  const double thinks[] = {4.0, 5.0, 7.0, 10.0};
  for (double rate : rates) {
    for (double f : fractions) {
      for (double think_s : thinks) {
        const auto split = split_clients(rate, f, Duration::seconds(think_s));
        const long rounded = std::lround(rate * think_s);
        const int expected_total = static_cast<int>(rounded < 1 ? 1 : rounded);
        EXPECT_EQ(split.total(), expected_total)
            << "rate=" << rate << " f=" << f << " think=" << think_s;
        EXPECT_GE(split.browsers, 0);
        EXPECT_GE(split.writers, 0);
        // The browser share lands within one client of its exact value.
        EXPECT_LE(std::abs(split.browsers - rate * f * think_s), 1.0)
            << "rate=" << rate << " f=" << f << " think=" << think_s;
      }
    }
  }
}

TEST(ClientSplitTest, HalfRoundingDoesNotInventAClient) {
  // rate*think = 10.5 and both shares at *.25: independent rounding gave
  // 5 + 5 = 10 against a total of 11.
  const auto split = split_clients(1.5, 0.5, sec(7));
  EXPECT_EQ(split.total(), 11);
  EXPECT_EQ(split.browsers, 5);
  EXPECT_EQ(split.writers, 6);
}

TEST(ClientSplitTest, TrickleRateGroupStillIssuesRequests) {
  // rate*think = 0.35 rounded both kinds to zero clients: a configured
  // group silently produced no load at all.
  LoadWorld w;
  FakeExecutor exec{w.sim, ms(10)};
  SessionFsmEngine engine{w.sim, exec, w.collector, config(sec(7))};
  LoadWorld::start_fleet(engine, 0.05, 0.5, sec(7), at(100));
  w.sim.run_until();
  EXPECT_GT(exec.requests_, 0u) << "a group with rate > 0 must field at least one client";
  EXPECT_EQ(engine.requests_issued(), exec.requests_);
}

// --- Open-loop page pump (the flash-crowd generator) --------------------------
// Regression: the pump used to create (and count) a fresh session on *every*
// arrival when a kind's scripts are empty, inflating sessions_started
// without ever issuing a request.

TEST(OpenLoopTest, EmptyScriptsAreNeverCountedAsSessions) {
  LoadWorld w;
  FakeExecutor exec{w.sim, ms(10)};
  SessionFsmEngine engine{w.sim, exec, w.collector};
  const std::uint8_t b =
      engine.add_kind(std::make_shared<EmptyModel>(), net::NodeId{0}, stats::ClientGroup::kLocal);
  const std::uint8_t wr =
      engine.add_kind(std::make_shared<EmptyModel>(), net::NodeId{0}, stats::ClientGroup::kLocal);
  engine.start_open_loop(b, wr, 20.0, 0.5, at(60), 3);
  w.sim.run_until();
  EXPECT_EQ(engine.sessions_started(), 0u)
      << "an empty script proves nothing started; ~1200 arrivals must not count";
  EXPECT_EQ(engine.requests_issued(), 0u);
  EXPECT_TRUE(w.sim.idle());
}

TEST(OpenLoopTest, OneSterileKindLeavesTheOtherRunning) {
  LoadWorld w;
  FakeExecutor exec{w.sim, ms(10)};
  SessionFsmEngine engine{w.sim, exec, w.collector};
  const std::uint8_t b =  // browsers are sterile, writers stay productive
      engine.add_kind(std::make_shared<EmptyModel>(), net::NodeId{0}, stats::ClientGroup::kLocal);
  const std::uint8_t wr = engine.add_kind(std::make_shared<FixedModel>("Writer"), net::NodeId{0},
                                          stats::ClientGroup::kLocal);
  engine.start_open_loop(b, wr, 10.0, 0.5, at(120), 4);
  w.sim.run_until();
  EXPECT_GT(engine.sessions_started(), 0u);
  EXPECT_EQ(exec.patterns_["Browser"], 0);
  EXPECT_GT(exec.patterns_["Writer"], 0);
  // Every counted session produced at least one request.
  EXPECT_LE(engine.sessions_started(), engine.requests_issued());
}

TEST(OpenLoopTest, OfferedPageRateTracksTheSpecUnderSlowResponses) {
  // The open loop's reason to exist: responses 50x slower than the mean
  // arrival gap must not throttle the offered rate, as they would a
  // closed loop.
  LoadWorld w;
  FakeExecutor slow{w.sim, sec(5)};
  SessionFsmEngine engine{w.sim, slow, w.collector};
  const std::uint8_t b = engine.add_kind(std::make_shared<FixedModel>("Browser"), net::NodeId{0},
                                         stats::ClientGroup::kLocal);
  const std::uint8_t wr = engine.add_kind(std::make_shared<FixedModel>("Writer"), net::NodeId{0},
                                          stats::ClientGroup::kLocal);
  engine.start_open_loop(b, wr, 10.0, 0.8, at(300), 5);
  w.sim.run_until(at(300));
  EXPECT_NEAR(static_cast<double>(engine.requests_issued()) / 300.0, 10.0, 1.0);
  // About 5 s worth of arrivals are still awaiting their responses.
  EXPECT_NEAR(static_cast<double>(engine.requests_in_flight()), 50.0, 25.0);
  // Each arrival picks its kind by the spec mix.
  EXPECT_NEAR(slow.patterns_["Writer"] / static_cast<double>(slow.requests_), 0.2, 0.05);
  w.sim.run_until();
  EXPECT_EQ(engine.requests_in_flight(), 0u);
  EXPECT_EQ(engine.requests_completed(), slow.requests_);
}

// --- Regression: the end-of-run window rule -----------------------------------
// Requests count at issue time; nothing issues at or after end_at; a
// completion landing after end_at records whenever the simulation runs it.
// The counter used to be bumped at completion, so a truncated run
// undercounted by exactly the in-flight tail.

TEST(EndOfRunTest, IssueTimeCountingExposesTheInFlightTail) {
  LoadWorld w;
  FakeExecutor slow{w.sim, sec(60)};  // responses land far past end_at
  SessionFsmEngine engine{w.sim, slow, w.collector, config(sec(5), Duration::zero())};
  const sim::SimTime end = at(30);
  // rate*think = 10 clients; each issues exactly one request before end.
  LoadWorld::start_fleet(engine, 2.0, 1.0, sec(5), end);

  w.sim.run_until(end);
  EXPECT_EQ(engine.requests_issued(), 10u) << "issue-time counting sees the in-flight requests";
  EXPECT_EQ(engine.requests_completed(), 0u);
  EXPECT_EQ(engine.requests_in_flight(), 10u);
  EXPECT_EQ(w.collector.total_samples() + w.collector.discarded_samples(), 0u);

  // Draining past end_at records every completion without issuing anything
  // new: issued == completed once the tail lands.
  w.sim.run_until();
  EXPECT_EQ(engine.requests_issued(), 10u);
  EXPECT_EQ(engine.requests_completed(), 10u);
  EXPECT_EQ(engine.requests_in_flight(), 0u);
  EXPECT_EQ(w.collector.total_samples() + w.collector.discarded_samples(), 10u);
  EXPECT_EQ(engine.live_sessions(), 0u);
}

}  // namespace
}  // namespace mutsvc::workload
