#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace mutsvc::workload {

/// One constant-rate segment of a rate envelope, starting at `offset` from
/// the envelope origin.
struct RateStep {
  sim::Duration offset;
  double rate_per_sec = 0.0;
};

/// Piecewise-constant arrival-rate envelope: the intensity function of a
/// nonhomogeneous Poisson arrival process. An aperiodic envelope holds its
/// last rate forever; a periodic one (diurnal curves) repeats its cycle.
class RateEnvelope {
 public:
  /// Empty envelope: rate zero everywhere (no arrivals).
  RateEnvelope() = default;

  [[nodiscard]] static RateEnvelope constant(double rate_per_sec);
  /// Aperiodic step sequence. Steps must start at offset zero, be strictly
  /// increasing, and carry non-negative rates; the last rate holds forever.
  [[nodiscard]] static RateEnvelope steps(std::vector<RateStep> steps);
  /// Flash-crowd shape (bench_flash_crowd): `base` rate, spiking to
  /// `base * spike_multiplier` during [spike_at, spike_at + spike_len).
  [[nodiscard]] static RateEnvelope flash_crowd(double base, double spike_multiplier,
                                                sim::Duration spike_at,
                                                sim::Duration spike_len);
  /// Periodic diurnal curve: a sinusoid between `trough` and `peak` over
  /// `period`, sampled into `buckets` constant steps (trough at offset 0).
  [[nodiscard]] static RateEnvelope diurnal(double trough, double peak, sim::Duration period,
                                            int buckets = 24);

  [[nodiscard]] bool empty() const { return steps_.empty(); }
  [[nodiscard]] bool periodic() const { return period_ > sim::Duration::zero(); }
  [[nodiscard]] sim::Duration period() const { return period_; }
  [[nodiscard]] const std::vector<RateStep>& step_list() const { return steps_; }

  /// Instantaneous rate at `offset` from the envelope origin.
  [[nodiscard]] double rate_at(sim::Duration offset) const;
  [[nodiscard]] double max_rate() const;

  /// Expected arrivals in [a, b): the integral of the rate over the window.
  [[nodiscard]] double expected_count(sim::Duration a, sim::Duration b) const;

  /// Same shape with every rate multiplied by `k` (splitting one envelope
  /// across client groups and session kinds).
  [[nodiscard]] RateEnvelope scaled(double k) const;

  /// Same periodic shape phase-shifted by `phase` (antiphase diurnal
  /// curves: clients in the other hemisphere peak half a period later).
  /// Periodic envelopes only — an aperiodic shift would need to invent a
  /// rate before the first step.
  [[nodiscard]] RateEnvelope shifted(sim::Duration phase) const;

  /// Next boundary strictly after `offset` where the rate changes (step
  /// edges and period wraps); nullopt when the rate is constant from
  /// `offset` on.
  [[nodiscard]] std::optional<sim::Duration> next_boundary_after(sim::Duration offset) const;

 private:
  RateEnvelope(std::vector<RateStep> steps, sim::Duration period);

  /// Integral of the rate over [0, t) for t within one cycle (aperiodic:
  /// any t).
  [[nodiscard]] double cycle_integral_to(sim::Duration t) const;

  std::vector<RateStep> steps_;
  sim::Duration period_ = sim::Duration::zero();  // zero = aperiodic
  double full_cycle_integral_ = 0.0;              // cached for periodic envelopes
};

/// Samples a nonhomogeneous Poisson process driven by a RateEnvelope.
/// Piecewise-exponential redraw: draw an exponential gap at the current
/// segment's rate; if it crosses a rate boundary, restart from the boundary
/// (memorylessness makes the restart exact, no thinning required).
class PoissonProcess {
 public:
  explicit PoissonProcess(RateEnvelope envelope) : env_(std::move(envelope)) {}

  [[nodiscard]] const RateEnvelope& envelope() const { return env_; }

  /// Offset of the next arrival strictly after `offset`; nullopt when the
  /// rate is zero forever after (the process has ended).
  [[nodiscard]] std::optional<sim::Duration> next_after(sim::Duration offset,
                                                        sim::Rng& rng) const;

 private:
  RateEnvelope env_;
};

/// Zipf(s) sampler over ranks [0, n): P(rank k) proportional to 1/(k+1)^s.
/// Built once per model (a cumulative table), shared by every session.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }
  [[nodiscard]] double exponent() const { return s_; }

  /// Rank in [0, n), inverse-CDF over one uniform01() draw.
  [[nodiscard]] std::size_t sample(sim::Rng& rng) const;

  /// Closed-form P(rank k) — what sampled frequencies must converge to.
  [[nodiscard]] double expected_freq(std::size_t rank) const;

 private:
  std::vector<double> cdf_;  // cumulative, normalized to end at 1.0
  double s_ = 0.0;
};

}  // namespace mutsvc::workload
