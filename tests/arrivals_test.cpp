// Arrival-process layer for the million-session FSM load engine: piecewise
// rate envelopes (flash crowd, diurnal), nonhomogeneous Poisson sampling,
// and Zipf item popularity (the generator is tested in sim_random_test).
// Statistical checks run under fixed seeds with generous tolerances, so
// they are exact regression pins, not flaky moment estimates.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "workload/arrivals.hpp"

namespace mutsvc::workload {
namespace {

using sim::Duration;
using sim::sec;

// --- RateEnvelope ------------------------------------------------------------

TEST(RateEnvelopeTest, ConstantRateEverywhere) {
  const RateEnvelope env = RateEnvelope::constant(12.5);
  EXPECT_DOUBLE_EQ(env.rate_at(Duration::zero()), 12.5);
  EXPECT_DOUBLE_EQ(env.rate_at(sec(1e6)), 12.5);
  EXPECT_DOUBLE_EQ(env.max_rate(), 12.5);
  EXPECT_DOUBLE_EQ(env.expected_count(sec(10), sec(30)), 12.5 * 20.0);
  EXPECT_FALSE(env.next_boundary_after(Duration::zero()).has_value());
  EXPECT_FALSE(env.periodic());
}

TEST(RateEnvelopeTest, StepSequenceIntegratesPiecewise) {
  const RateEnvelope env = RateEnvelope::steps(
      {{Duration::zero(), 2.0}, {sec(60), 10.0}, {sec(120), 4.0}});
  EXPECT_DOUBLE_EQ(env.rate_at(sec(30)), 2.0);
  EXPECT_DOUBLE_EQ(env.rate_at(sec(60)), 10.0);   // boundaries belong to the new rate
  EXPECT_DOUBLE_EQ(env.rate_at(sec(119.9)), 10.0);
  EXPECT_DOUBLE_EQ(env.rate_at(sec(1e5)), 4.0);   // aperiodic: last rate holds forever
  EXPECT_DOUBLE_EQ(env.max_rate(), 10.0);
  EXPECT_DOUBLE_EQ(env.expected_count(Duration::zero(), sec(180)),
                   2.0 * 60 + 10.0 * 60 + 4.0 * 60);
  EXPECT_DOUBLE_EQ(env.expected_count(sec(30), sec(90)), 2.0 * 30 + 10.0 * 30);
  ASSERT_TRUE(env.next_boundary_after(Duration::zero()).has_value());
  EXPECT_EQ(*env.next_boundary_after(Duration::zero()), sec(60));
  EXPECT_EQ(*env.next_boundary_after(sec(60)), sec(120));
  EXPECT_FALSE(env.next_boundary_after(sec(120)).has_value());
}

TEST(RateEnvelopeTest, RejectsMalformedSteps) {
  EXPECT_THROW(RateEnvelope::steps({{sec(5), 1.0}}), std::invalid_argument);  // not at 0
  EXPECT_THROW(RateEnvelope::steps({{Duration::zero(), 1.0}, {Duration::zero(), 2.0}}),
               std::invalid_argument);  // not strictly increasing
  EXPECT_THROW(RateEnvelope::steps({{Duration::zero(), -1.0}}), std::invalid_argument);
}

TEST(RateEnvelopeTest, FlashCrowdSpikesAndRecovers) {
  // The bench_flash_crowd shape: base -> base*mult during the spike -> base.
  const RateEnvelope env = RateEnvelope::flash_crowd(5.0, 10.0, sec(60), sec(30));
  EXPECT_DOUBLE_EQ(env.rate_at(sec(59.9)), 5.0);
  EXPECT_DOUBLE_EQ(env.rate_at(sec(60)), 50.0);
  EXPECT_DOUBLE_EQ(env.rate_at(sec(89.9)), 50.0);
  EXPECT_DOUBLE_EQ(env.rate_at(sec(90)), 5.0);
  EXPECT_DOUBLE_EQ(env.expected_count(Duration::zero(), sec(120)),
                   5.0 * 90 + 50.0 * 30);
}

TEST(RateEnvelopeTest, DiurnalCurveFoldsPeriodically) {
  const Duration period = sec(240);
  const RateEnvelope env = RateEnvelope::diurnal(2.0, 10.0, period, 24);
  EXPECT_TRUE(env.periodic());
  // Trough at offset 0, peak half a period later.
  EXPECT_LT(env.rate_at(Duration::zero()), env.rate_at(sec(120)));
  EXPECT_NEAR(env.rate_at(Duration::zero()), 2.0, 0.5);
  EXPECT_NEAR(env.rate_at(sec(120)), 10.0, 0.5);
  EXPECT_LE(env.max_rate(), 10.0 + 1e-9);
  // Folding: any offset looks exactly like offset + k*period.
  for (double t : {0.0, 37.0, 119.5, 233.0}) {
    EXPECT_DOUBLE_EQ(env.rate_at(sec(t)), env.rate_at(sec(t) + period)) << t;
    EXPECT_DOUBLE_EQ(env.rate_at(sec(t)), env.rate_at(sec(t) + period * 3.0)) << t;
  }
  // A full cycle integrates to the sinusoid's mean; multiple cycles scale.
  const double one_cycle = env.expected_count(Duration::zero(), period);
  EXPECT_NEAR(one_cycle, 6.0 * 240.0, 6.0 * 240.0 * 0.02);
  EXPECT_NEAR(env.expected_count(Duration::zero(), period * 2.5), one_cycle * 2.5,
              one_cycle * 0.02);
  // Windows agree whichever cycle they fall in.
  EXPECT_NEAR(env.expected_count(sec(30), sec(90)),
              env.expected_count(sec(30) + period, sec(90) + period), 1e-9);
}

TEST(RateEnvelopeTest, ScaledMultipliesEveryRate) {
  const RateEnvelope env = RateEnvelope::flash_crowd(4.0, 5.0, sec(10), sec(5));
  const RateEnvelope half = env.scaled(0.5);
  for (double t : {0.0, 9.9, 10.0, 14.9, 15.0, 100.0}) {
    EXPECT_DOUBLE_EQ(half.rate_at(sec(t)), env.rate_at(sec(t)) * 0.5) << t;
  }
  EXPECT_DOUBLE_EQ(half.expected_count(Duration::zero(), sec(50)),
                   env.expected_count(Duration::zero(), sec(50)) * 0.5);
}

// --- PoissonProcess ----------------------------------------------------------

std::vector<Duration> arrivals_until(const PoissonProcess& p, sim::Rng& rng, Duration horizon) {
  std::vector<Duration> out;
  Duration t = Duration::zero();
  while (true) {
    const auto next = p.next_after(t, rng);
    if (!next || *next >= horizon) break;
    t = *next;
    out.push_back(t);
  }
  return out;
}

TEST(PoissonProcessTest, ConstantRateMatchesExpectedCount) {
  const PoissonProcess p{RateEnvelope::constant(50.0)};
  sim::Rng rng{sim::Rng::stream_seed(10, 0)};
  const auto ts = arrivals_until(p, rng, sec(200));
  // 10k expected; 3 sigma ~ 300.
  EXPECT_NEAR(static_cast<double>(ts.size()), 10000.0, 300.0);
  for (std::size_t i = 1; i < ts.size(); ++i) ASSERT_GT(ts[i], ts[i - 1]);
}

TEST(PoissonProcessTest, CountsTrackAStepEnvelope) {
  // A 10x step up and back down: each segment's count matches its own rate.
  const PoissonProcess p{RateEnvelope::steps(
      {{Duration::zero(), 2.0}, {sec(100), 20.0}, {sec(200), 2.0}})};
  sim::Rng rng{sim::Rng::stream_seed(11, 0)};
  const auto ts = arrivals_until(p, rng, sec(300));
  std::array<int, 3> seg{};
  for (Duration t : ts) seg[static_cast<std::size_t>(t.count_micros() / sec(100).count_micros())]++;
  EXPECT_NEAR(seg[0], 200.0, 60.0);
  EXPECT_NEAR(seg[1], 2000.0, 180.0);
  EXPECT_NEAR(seg[2], 200.0, 60.0);
}

TEST(PoissonProcessTest, ZeroRateSegmentsProduceNoArrivals) {
  const PoissonProcess p{RateEnvelope::steps({{Duration::zero(), 0.0}, {sec(50), 10.0}})};
  sim::Rng rng{sim::Rng::stream_seed(12, 0)};
  const auto ts = arrivals_until(p, rng, sec(100));
  ASSERT_FALSE(ts.empty());
  EXPECT_GE(ts.front(), sec(50));
  EXPECT_NEAR(static_cast<double>(ts.size()), 500.0, 90.0);
}

TEST(PoissonProcessTest, EndsWhenTheRateDropsToZeroForever) {
  const PoissonProcess p{RateEnvelope::steps({{Duration::zero(), 10.0}, {sec(50), 0.0}})};
  sim::Rng rng{sim::Rng::stream_seed(13, 0)};
  Duration t = Duration::zero();
  int count = 0;
  while (const auto next = p.next_after(t, rng)) {
    t = *next;
    ++count;
    ASSERT_LT(t, sec(50));
  }
  EXPECT_NEAR(count, 500.0, 90.0);  // then nullopt: the process ended
}

TEST(PoissonProcessTest, DeterministicUnderAFixedSeed) {
  const PoissonProcess p{RateEnvelope::flash_crowd(5.0, 8.0, sec(30), sec(10))};
  sim::Rng a{sim::Rng::stream_seed(14, 0)};
  sim::Rng b{sim::Rng::stream_seed(14, 0)};
  EXPECT_EQ(arrivals_until(p, a, sec(100)), arrivals_until(p, b, sec(100)));
}

// --- ZipfSampler -------------------------------------------------------------

TEST(ZipfSamplerTest, FrequenciesConvergeToTheClosedForm) {
  const ZipfSampler zipf{100, 1.0};
  sim::Rng rng{sim::Rng::stream_seed(20, 0)};
  std::vector<int> hits(zipf.size(), 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) hits[zipf.sample(rng)]++;
  double total_freq = 0.0;
  for (std::size_t k = 0; k < zipf.size(); ++k) total_freq += zipf.expected_freq(k);
  EXPECT_NEAR(total_freq, 1.0, 1e-9);
  // The head carries the skew: check the top ranks tightly, the rest loosely.
  for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{9}}) {
    const double freq = static_cast<double>(hits[k]) / n;
    EXPECT_NEAR(freq, zipf.expected_freq(k), zipf.expected_freq(k) * 0.1 + 0.001) << "rank " << k;
  }
  EXPECT_GT(hits[0], hits[50]);
}

TEST(ZipfSamplerTest, ZeroExponentIsUniform) {
  const ZipfSampler zipf{8, 0.0};
  for (std::size_t k = 0; k < zipf.size(); ++k) {
    EXPECT_NEAR(zipf.expected_freq(k), 1.0 / 8.0, 1e-12);
  }
  sim::Rng rng{sim::Rng::stream_seed(21, 0)};
  std::vector<int> hits(zipf.size(), 0);
  for (int i = 0; i < 16000; ++i) hits[zipf.sample(rng)]++;
  for (int h : hits) EXPECT_NEAR(h, 2000, 200);
}

TEST(ZipfSamplerTest, HigherExponentConcentratesTheHead) {
  const ZipfSampler mild{360, 0.8};
  const ZipfSampler sharp{360, 2.0};
  EXPECT_LT(mild.expected_freq(0), sharp.expected_freq(0));
  sim::Rng rng{sim::Rng::stream_seed(22, 0)};
  int head = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) head += sharp.sample(rng) == 0 ? 1 : 0;
  // s=2 over 360 items puts ~61% of draws on rank 0.
  EXPECT_GT(static_cast<double>(head) / n, 0.5);
}

}  // namespace
}  // namespace mutsvc::workload
