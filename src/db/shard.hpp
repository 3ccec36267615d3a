#pragma once

#include <cstdint>
#include <stdexcept>

#include "sim/random.hpp"

namespace mutsvc::db {

/// Deterministic hash partitioning of primary-key space across N database
/// shards (the scale-out data tier; RAFDA's "where data lives is a
/// deployment-time decision" applied to the RDBMS itself).
///
/// The mapping is a pure function of (key, shard_count): the same key maps
/// to the same shard in every run, every process, every platform — the
/// property the shard battery's determinism suite pins down. The hash is the
/// splitmix64 finalizer `sim::Rng::mix`, so consecutive keys spread
/// uniformly instead of striping (pk % N would put every Nth row on one
/// shard and make the "hot tail" of freshly inserted rows collide).
class ShardRouter {
 public:
  explicit ShardRouter(std::size_t shard_count) : shards_(shard_count) {
    if (shard_count == 0) throw std::invalid_argument("ShardRouter: shard_count must be > 0");
  }

  [[nodiscard]] std::size_t shard_count() const { return shards_; }
  [[nodiscard]] bool single() const { return shards_ == 1; }

  [[nodiscard]] std::size_t shard_of(std::int64_t pk) const {
    if (shards_ == 1) return 0;
    return static_cast<std::size_t>(sim::Rng::mix(static_cast<std::uint64_t>(pk)) %
                                    static_cast<std::uint64_t>(shards_));
  }

 private:
  std::size_t shards_;
};

}  // namespace mutsvc::db
