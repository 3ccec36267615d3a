// Golden equivalence for the sharded data tier: with `shards = 1` (the
// default ShardConfig) every figure-7/8 ladder rung must stay bit-identical
// to the pre-sharding data tier — same executed-event count, same response
// summaries, to the last bit. The sharded path is the *only* path, so this
// suite is what guards the refactor: the constants below were captured from
// the unsharded baseline and must never drift.
//
// Runs under plain ctest and MUTSVC_SIMCHECK=1 (the CI matrix runs the whole
// suite in both modes); the fingerprints are sim-time-only and deterministic.
//
// Regenerating (only legitimate after an intentional simulation change):
//   MUTSVC_GOLDEN_PRINT=1 ./build/tests/shard_golden_test
// prints fresh rows to paste over kGolden.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "apps/petstore/petstore.hpp"
#include "apps/rubis/rubis.hpp"
#include "core/calibration.hpp"
#include "core/experiment.hpp"

namespace mutsvc::core {
namespace {

using stats::ClientGroup;

struct GoldenCase {
  const char* app;
  ConfigLevel level;
  std::uint64_t events;   // Simulator::executed_events() — exact
  std::uint64_t samples;  // post-warm-up page samples — exact
  std::uint64_t digest;   // FNV-1a over the pattern-mean bit patterns
};

apps::AppDriver make_driver(const char* app) {
  if (std::strcmp(app, "petstore") == 0) {
    static apps::petstore::PetStoreApp petstore;
    return petstore.driver();
  }
  static apps::rubis::RubisApp rubis;
  return rubis.driver();
}

HarnessCalibration calibration_for(const char* app) {
  return std::strcmp(app, "petstore") == 0 ? petstore_calibration() : rubis_calibration();
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t digest_double(std::uint64_t h, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return fnv1a(h, bits);
}

struct Fingerprint {
  std::uint64_t events = 0;
  std::uint64_t samples = 0;
  std::uint64_t digest = 0;
};

Fingerprint run_case(const char* app, ConfigLevel level) {
  apps::AppDriver driver = make_driver(app);
  ExperimentSpec spec;
  spec.level = level;
  spec.duration = sim::sec(180);
  spec.warmup = sim::sec(30);
  Experiment exp{driver, spec, calibration_for(app)};
  exp.run();

  Fingerprint fp;
  fp.events = exp.simulator().executed_events();
  fp.samples = exp.results().total_samples();
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::string& pattern : {driver.browser_pattern, driver.writer_pattern}) {
    for (ClientGroup g : {ClientGroup::kLocal, ClientGroup::kRemote}) {
      h = digest_double(h, exp.results().pattern_mean_ms(pattern, g));
    }
  }
  h = fnv1a(h, exp.results().failures());
  h = fnv1a(h, exp.results().discarded_samples());
  fp.digest = h;
  return fp;
}

const char* level_name(ConfigLevel level) {
  switch (level) {
    case ConfigLevel::kCentralized: return "ConfigLevel::kCentralized";
    case ConfigLevel::kRemoteFacade: return "ConfigLevel::kRemoteFacade";
    case ConfigLevel::kStatefulComponentCaching: return "ConfigLevel::kStatefulComponentCaching";
    case ConfigLevel::kQueryCaching: return "ConfigLevel::kQueryCaching";
    case ConfigLevel::kAsyncUpdates: return "ConfigLevel::kAsyncUpdates";
  }
  return "?";
}

// Captured from the domain-tagged baseline (DESIGN §15): every experiment
// orders events by (time, owner-domain, per-domain sequence), with per-node
// RMI jitter streams and per-node warm-up resets. 180 s / 30 s warm-up,
// default spec, both figure apps, all five rungs. Each row therefore pins
// the event order itself: a change to the domain partition, the async-push
// island merge or the order key moves the event counts and digests here.
const GoldenCase kGolden[] = {
    {"petstore", ConfigLevel::kCentralized, 184503ULL, 4431ULL, 14345765407345139304ULL},
    {"petstore", ConfigLevel::kRemoteFacade, 145393ULL, 4432ULL, 15033724962952285849ULL},
    {"petstore", ConfigLevel::kStatefulComponentCaching, 142389ULL, 4428ULL,
     6297918495393530090ULL},
    {"petstore", ConfigLevel::kQueryCaching, 125023ULL, 4425ULL, 10562578862203141645ULL},
    {"petstore", ConfigLevel::kAsyncUpdates, 124704ULL, 4428ULL, 10206610957341539091ULL},
    {"rubis", ConfigLevel::kCentralized, 116314ULL, 4456ULL, 7606743695388975701ULL},
    {"rubis", ConfigLevel::kRemoteFacade, 120896ULL, 4459ULL, 9818542370210285705ULL},
    {"rubis", ConfigLevel::kStatefulComponentCaching, 123670ULL, 4455ULL, 319374606990573374ULL},
    {"rubis", ConfigLevel::kQueryCaching, 116889ULL, 4458ULL, 17835991927406106880ULL},
    {"rubis", ConfigLevel::kAsyncUpdates, 115801ULL, 4461ULL, 4718862757013261715ULL},
};

class ShardGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(ShardGoldenTest, ShardsOneMatchesUnshardedBaseline) {
  const GoldenCase& g = GetParam();
  const Fingerprint fp = run_case(g.app, g.level);
  if (std::getenv("MUTSVC_GOLDEN_PRINT") != nullptr) {
    std::printf("    {\"%s\", %s, %lluULL, %lluULL, %lluULL},\n", g.app, level_name(g.level),
                static_cast<unsigned long long>(fp.events),
                static_cast<unsigned long long>(fp.samples),
                static_cast<unsigned long long>(fp.digest));
    return;
  }
  EXPECT_EQ(fp.events, g.events) << g.app << " " << level_name(g.level)
                                 << ": executed-event trajectory diverged from the unsharded "
                                    "baseline";
  EXPECT_EQ(fp.samples, g.samples) << g.app << " " << level_name(g.level);
  EXPECT_EQ(fp.digest, g.digest) << g.app << " " << level_name(g.level)
                                 << ": response summaries diverged from the unsharded baseline";
}

std::string case_name(const GoldenCase& g) {
  std::string level = level_name(g.level);
  return std::string(g.app) + "_" + level.substr(level.find("::k") + 3);
}

// Without this gtest prints the case as its raw bytes, pointers included,
// which move with every build; ctest's discovered test names carry that
// text, so they would change from build to build.
void PrintTo(const GoldenCase& g, std::ostream* os) { *os << case_name(g); }

std::string golden_name(const ::testing::TestParamInfo<GoldenCase>& info) {
  return case_name(info.param);
}

INSTANTIATE_TEST_SUITE_P(Ladder, ShardGoldenTest, ::testing::ValuesIn(kGolden), golden_name);

}  // namespace
}  // namespace mutsvc::core
