// tools/benchstat end to end: the binary is run on the fixture files in
// tests/benchstat/ and judged by its exit status, the only thing the CI
// perf gates look at. base.json is the baseline in every case; each other
// fixture differs from it in exactly one way.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <string>

namespace {

/// Exit status of `benchstat base.json <candidate>`, output discarded.
int benchstat_exit(const std::string& candidate) {
  const std::string dir = BENCHSTAT_FIXTURES;
  const std::string cmd = std::string(BENCHSTAT_BIN) + " " + dir + "/base.json " + dir + "/" +
                          candidate + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(BenchstatTest, IdenticalFilesPass) { EXPECT_EQ(benchstat_exit("base.json"), 0); }

TEST(BenchstatTest, BaselineMetricMissingFromCandidateFails) {
  // A bench that stopped part-way or renamed a metric must not pass.
  EXPECT_EQ(benchstat_exit("missing_metric.json"), 1);
}

TEST(BenchstatTest, CandidateOnlyMetricIsAllowed) {
  EXPECT_EQ(benchstat_exit("extra_metric.json"), 0);
}

TEST(BenchstatTest, DeterministicMetricDriftFails) {
  EXPECT_EQ(benchstat_exit("drift.json"), 1);
}

TEST(BenchstatTest, ThroughputDropPastTheLimitFails) {
  // wall_events_per_sec falls 37.5%, past the default 25% limit.
  EXPECT_EQ(benchstat_exit("slow.json"), 1);
}

}  // namespace
