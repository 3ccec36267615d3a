#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string_view>

#include "sim/time.hpp"

namespace mutsvc::sim {

/// The simulation's one random generator: a deterministic, named stream
/// whose whole state is one 64-bit splitmix64 counter.
///
/// Every source of randomness draws from its own stream, seeded by a pure
/// function of the root seed and a name or index (`named_seed`,
/// `stream_seed`); this keeps runs reproducible and makes components
/// statistically independent of each other's draw order. One word of state
/// lets a million FSM sessions (DESIGN §16) carry a million words, and
/// every distribution below is written out here rather than taken from the
/// standard library, whose distribution algorithms are
/// implementation-defined — so draws are bit-identical on every platform.
class Rng {
 public:
  explicit constexpr Rng(std::uint64_t state) : state_(state) {}

  /// splitmix64 finalizer: a bijective avalanche mix on 64 bits. Also the
  /// stateless hash behind shard routing and canary selection.
  [[nodiscard]] static constexpr std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// Seed for the `stream`-th independent stream under `seed` — a pure
  /// function of its arguments, so per-session streams don't depend on the
  /// order sessions are created in.
  [[nodiscard]] static constexpr std::uint64_t stream_seed(std::uint64_t seed,
                                                           std::uint64_t stream) {
    return mix(seed ^ mix(stream));
  }

  /// Seed for the stream named `name` under `seed` (FNV-1a over the name).
  /// Depends on nothing but its arguments, never on draws made elsewhere.
  [[nodiscard]] static constexpr std::uint64_t named_seed(std::uint64_t seed,
                                                          std::string_view name) {
    std::uint64_t h = 0xcbf29ce484222325ULL ^ (seed * 0x9e3779b97f4a7c15ULL);
    for (char c : name) {
      h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
      h *= 0x100000001b3ULL;  // FNV-1a prime
    }
    return mix(h);
  }

  [[nodiscard]] constexpr std::uint64_t next_u64() {
    const std::uint64_t x = state_;
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix(x);
  }

  /// Uniform in [0, 1).
  [[nodiscard]] double uniform01() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  [[nodiscard]] double uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

  /// Uniform integer in [lo, hi] inclusive. The modulo bias is below 2^-32
  /// for every range this simulation uses — irrelevant next to model error,
  /// and the fixed algorithm keeps draws bit-reproducible everywhere.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) throw std::invalid_argument("uniform_int: lo > hi");
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    return lo + static_cast<std::int64_t>(next_u64() % span);
  }

  [[nodiscard]] bool bernoulli(double p) { return uniform01() < p; }

  /// Exponential with the given mean (inverse-CDF; uniform01() < 1 keeps
  /// the log argument positive).
  [[nodiscard]] double exponential(double mean) {
    if (mean <= 0.0) throw std::invalid_argument("exponential: mean must be > 0");
    return -mean * std::log(1.0 - uniform01());
  }

  [[nodiscard]] Duration exponential(Duration mean) {
    return Duration::seconds(exponential(mean.as_seconds()));
  }

  /// Index in [0, weights.size()) with probability proportional to its
  /// weight, from one uniform01() draw. Weights need not be normalized.
  [[nodiscard]] std::size_t weighted_index(std::span<const double> weights) {
    if (weights.empty()) throw std::invalid_argument("weighted_index: empty weights");
    double total = 0.0;
    for (double w : weights) {
      if (w < 0.0) throw std::invalid_argument("weighted_index: negative weight");
      total += w;
    }
    if (total <= 0.0) throw std::invalid_argument("weighted_index: zero total weight");
    const double r = uniform01() * total;
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      acc += weights[i];
      if (r < acc) return i;
    }
    return weights.size() - 1;
  }

  /// The whole generator state: `Rng{state()}` resumes the exact sequence.
  [[nodiscard]] constexpr std::uint64_t state() const { return state_; }

 private:
  std::uint64_t state_;
};

}  // namespace mutsvc::sim
