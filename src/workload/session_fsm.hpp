#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "net/types.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "stats/collector.hpp"
#include "workload/arrivals.hpp"
#include "workload/session.hpp"

namespace mutsvc::workload {

/// Per-session scratch words carried inside the 40-byte session record. A
/// script model interprets them however it likes (the Pet Store browser
/// keeps the current category and product; the buyer its account and item).
struct FsmScratch {
  std::uint64_t w0 = 0;
  std::uint64_t w1 = 0;

  /// Two ids in [0, 2^32) sharing one word (`lo` in the low half), for
  /// scripts that carry three or four values.
  [[nodiscard]] static constexpr std::uint64_t pack(std::int64_t lo, std::int64_t hi) {
    return static_cast<std::uint64_t>(lo) | (static_cast<std::uint64_t>(hi) << 32);
  }
  [[nodiscard]] static constexpr std::int64_t lo(std::uint64_t word) {
    return static_cast<std::int64_t>(word & 0xffffffffU);
  }
  [[nodiscard]] static constexpr std::int64_t hi(std::uint64_t word) {
    return static_cast<std::int64_t>(word >> 32);
  }
};

/// A session script as an explicit FSM (DESIGN §16): one immutable, shared
/// model instance replays any number of concurrent sessions, each described
/// entirely by (step, scratch, rng state) in its session record.
///
/// `next` must be a pure function of its arguments — no hidden per-session
/// state — so the engine can suspend a session as 40 bytes and resume it
/// from any creation order with identical results.
class FsmScriptModel {
 public:
  virtual ~FsmScriptModel() = default;
  /// Page for 0-based `step`, or nullopt to end the session.
  [[nodiscard]] virtual std::optional<PageRequest> next(std::uint32_t step, FsmScratch& scratch,
                                                        sim::Rng& rng) const = 0;
  [[nodiscard]] virtual const char* pattern() const = 0;
};

/// Plays one whole session of `model` from a fresh record seeded with
/// `seed`: the page sequence the engine would issue, without any timing.
/// For script property checks.
[[nodiscard]] std::vector<PageRequest> replay_session(const FsmScriptModel& model,
                                                      std::uint64_t seed);

/// The load driver (§3.3, DESIGN §16).
///
/// Every session is a 40-byte POD record in a flat arena: {rng word, two
/// scratch words, next-fire time, script cursor, kind, mode}. Idle sessions
/// cost no kernel events at all — they sit in a calendar of due-time
/// buckets (kCalendarQuantum wide, 4 bytes per session); each bucket is
/// armed with a single tick event that fans its sessions out to precise
/// kernel timers, so the event heap only ever holds ~one bucket's worth of
/// the fleet. A transient coroutine exists only while a request is in
/// flight.
///
/// Timing contract: §3.3 soft delay (next request fires think_time after
/// the previous one was *issued*, independent of response time),
/// between_sessions pause between recurring sessions, uniform stagger
/// across one think interval at start.
///
/// End-of-run rule, for every load source: requests are counted when they
/// are *issued*; no request is issued at or after end_at, and a response
/// landing after end_at is recorded whenever the simulation runs it. At
/// any instant `requests_issued() == requests_completed() +
/// requests_in_flight()`.
///
/// Determinism: all engine state is touched only from the engine's own
/// events, and bucket drains sort by (due time, session id).
/// Per-session rng streams are pure functions of (seed, stream index).
class SessionFsmEngine {
 public:
  enum class Mode : std::uint8_t {
    kRecurring,  // closed-loop population: re-runs after between_sessions
    kOneShot,    // arrival-driven: one script, then the session leaves
  };

  struct Config {
    /// §3.3 soft inter-request DELAY (interval between *sending* requests).
    sim::Duration think_time = sim::sec(7);
    /// Pause between consecutive sessions of one recurring client.
    sim::Duration between_sessions = sim::sec(2);
    /// Salt mixed into each session's sticky routing key
    /// (mix(id ^ salt), no RNG draw — the record stays 40 bytes and the
    /// request trajectory is untouched).
    std::uint64_t session_salt = 0;
  };

  /// Calendar bucket width: the event heap holds about
  /// quantum/think_time of the idle fleet.
  static constexpr sim::Duration kCalendarQuantum = sim::ms(100);

  SessionFsmEngine(sim::Simulator& sim, RequestExecutor& executor,
                   stats::ResponseTimeCollector& collector, Config cfg);
  SessionFsmEngine(sim::Simulator& sim, RequestExecutor& executor,
                   stats::ResponseTimeCollector& collector);

  SessionFsmEngine(const SessionFsmEngine&) = delete;
  SessionFsmEngine& operator=(const SessionFsmEngine&) = delete;

  /// Registers a session kind. All kinds must be added before any load is
  /// started.
  std::uint8_t add_kind(std::shared_ptr<const FsmScriptModel> model, net::NodeId client_node,
                        stats::ClientGroup group);

  /// Closed-loop population: `count` recurring sessions of `kind`, start
  /// staggered uniformly across one think interval. Runs until `end_at`.
  void start_population(std::uint8_t kind, std::size_t count, sim::SimTime end_at,
                        std::uint64_t seed);

  /// Arrival-driven load: sessions of `kind` arrive per the envelope
  /// (nonhomogeneous Poisson), each runs one script and leaves.
  void start_arrivals(std::uint8_t kind, RateEnvelope envelope, sim::SimTime end_at,
                      std::uint64_t seed);

  /// Open-loop page arrivals (the flash-crowd generator): Poisson arrivals
  /// at `pages_per_second`; each arrival picks `browser` with probability
  /// `browser_fraction` (else `writer`) and issues the next page of that
  /// kind's one rotating session — WITHOUT waiting for the previous
  /// response. A script that ends rotates into a fresh session with a fresh
  /// sticky key. A closed loop self-throttles when the service saturates,
  /// hiding the overload; an open loop keeps offering load, which is what a
  /// flash crowd does. A kind whose fresh session is empty from step 0 is
  /// sterile: its later arrivals are skipped and never counted as sessions.
  void start_open_loop(std::uint8_t browser, std::uint8_t writer, double pages_per_second,
                       double browser_fraction, sim::SimTime end_at, std::uint64_t seed);

  // --- accounting ---------------------------------------------------------
  // issued == completed + in_flight at any instant; a session is counted in
  // sessions_started once its first request is issued (a script that is
  // empty from step 0 is never counted).
  [[nodiscard]] std::uint64_t requests_issued() const { return requests_; }
  [[nodiscard]] std::uint64_t requests_completed() const { return completed_; }
  [[nodiscard]] std::uint64_t requests_in_flight() const {
    return requests_issued() - requests_completed();
  }
  [[nodiscard]] std::uint64_t sessions_started() const { return sessions_; }

  /// Sessions currently resident in the arena (recurring sessions stay
  /// resident for the whole run; one-shot sessions leave at script end).
  [[nodiscard]] std::size_t live_sessions() const { return live_; }
  [[nodiscard]] std::size_t peak_live_sessions() const { return peak_live_; }

  /// Bytes of session state actually held: arena records plus calendar
  /// entries and free-list slots. The metric behind kernel.sessions'
  /// memory-per-session.
  [[nodiscard]] std::size_t arena_bytes() const;

  [[nodiscard]] static constexpr std::size_t record_bytes() { return sizeof(SessionRecord); }

 private:
  struct SessionRecord {
    std::uint64_t rng_state = 0;
    std::uint64_t w0 = 0;
    std::uint64_t w1 = 0;
    sim::SimTime next_fire;
    std::uint32_t step = 0;
    std::uint8_t kind = 0;
    std::uint8_t mode = 0;
    std::uint16_t reserved = 0;
  };
  static_assert(sizeof(SessionRecord) == 40, "session records must stay tens of bytes");

  struct Kind {
    std::shared_ptr<const FsmScriptModel> model;
    net::NodeId client_node;
    stats::ClientGroup group;
  };

  void set_end(sim::SimTime end_at);
  [[nodiscard]] std::uint32_t alloc_session(std::uint8_t kind, std::uint64_t rng_seed,
                                            Mode mode);
  void release_session(std::uint32_t id);
  /// Files the session under its due-time bucket (or schedules a precise
  /// event directly when the bucket has already started).
  void enqueue(std::uint32_t id, sim::SimTime due);
  void drain_bucket(std::int64_t bucket);
  /// Advances the session's FSM one step: draws the next page and launches
  /// the in-flight coroutine, or handles script end.
  void fire(std::uint32_t id);
  void finish_script(std::uint32_t id);
  /// Issues `req` for session `id` and files its next fire on completion;
  /// kFireAndForget pages (the open-loop pump's) only record.
  [[nodiscard]] sim::Task<void> issue(std::uint32_t id, std::uint8_t kind, PageRequest req,
                                      sim::SimTime issued_at);
  [[nodiscard]] sim::Task<void> arrival_pump(std::uint8_t kind, RateEnvelope envelope,
                                             std::uint64_t seed);
  [[nodiscard]] sim::Task<void> open_loop_pump(std::array<std::uint8_t, 2> kinds,
                                               double pages_per_second, double browser_fraction,
                                               std::uint64_t seed);

  static constexpr std::uint32_t kFireAndForget = ~std::uint32_t{0};

  sim::Simulator& sim_;
  RequestExecutor& executor_;
  stats::ResponseTimeCollector& collector_;
  Config cfg_;
  std::vector<Kind> kinds_;

  std::vector<SessionRecord> arena_;
  std::vector<std::uint32_t> free_ids_;
  /// bucket index (due_micros / quantum_micros) -> session ids due inside
  /// it. Each key is armed with exactly one tick event at the bucket start.
  std::map<std::int64_t, std::vector<std::uint32_t>> calendar_;

  sim::SimTime end_at_ = sim::SimTime::max();
  bool started_ = false;
  std::uint64_t requests_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t sessions_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
};

}  // namespace mutsvc::workload
