// The sweep front door (cli/sweep.h): the one parser and validator of the
// sweep flags, and --threads as the partition width for both executors.
// The width test forks real shard workers.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aggregate_bits.h"
#include "cli/args.h"
#include "cli/sweep.h"
#include "common/check.h"
#include "sim/checkpoint.h"
#include "sim/scenario.h"

namespace rit::cli {
namespace {

namespace fs = std::filesystem;

Args make_args(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return Args(static_cast<int>(argv.size()), argv.data());
}

/// The CheckFailure message parse_sweep_flags throws for `argv` ("" when
/// it accepts them).
std::string rejection(std::vector<const char*> argv) {
  Args args = make_args(std::move(argv));
  try {
    parse_sweep_flags(args);
  } catch (const CheckFailure& e) {
    return e.what();
  }
  return "";
}

TEST(SweepFlags, DefaultsWithoutFlags) {
  Args args = make_args({});
  const SweepFlags f = parse_sweep_flags(args);
  EXPECT_EQ(f.threads, 0u);
  EXPECT_FALSE(f.supervised);
  EXPECT_EQ(f.max_trial_failures, 0u);
  EXPECT_EQ(f.trial_timeout_ms, 0.0);
  EXPECT_TRUE(f.checkpoint_path.empty());
  EXPECT_EQ(f.checkpoint_every, 0u);
  EXPECT_FALSE(f.resume);
  EXPECT_EQ(f.shard_mem_mb, 0u);
  EXPECT_EQ(f.shard_cpu_s, 0u);
  EXPECT_EQ(f.shard_retries, 2u);
  EXPECT_EQ(f.heartbeat_timeout_ms, 0u);
}

TEST(SweepFlags, ReadsEveryFlag) {
  Args args = make_args({"--threads=3", "--supervised",
                         "--max-trial-failures=4", "--trial-timeout-ms=2.5",
                         "--checkpoint=sweep.ckpt", "--checkpoint-every=5",
                         "--resume", "--shard-mem-mb=512", "--shard-cpu-s=9",
                         "--shard-retries=1", "--heartbeat-timeout-ms=700"});
  const SweepFlags f = parse_sweep_flags(args);
  EXPECT_NO_THROW(args.finish());
  EXPECT_EQ(f.threads, 3u);
  EXPECT_TRUE(f.supervised);
  EXPECT_EQ(f.max_trial_failures, 4u);
  EXPECT_EQ(f.trial_timeout_ms, 2.5);
  EXPECT_EQ(f.checkpoint_path, "sweep.ckpt");
  EXPECT_EQ(f.checkpoint_every, 5u);
  EXPECT_TRUE(f.resume);
  EXPECT_EQ(f.shard_mem_mb, 512u);
  EXPECT_EQ(f.shard_cpu_s, 9u);
  EXPECT_EQ(f.shard_retries, 1u);
  EXPECT_EQ(f.heartbeat_timeout_ms, 700u);
}

TEST(SweepFlags, ResumeWithoutCheckpointIsRejected) {
  EXPECT_NE(rejection({"--resume"}).find("--resume requires --checkpoint"),
            std::string::npos);
  EXPECT_EQ(rejection({"--resume", "--checkpoint=sweep.ckpt"}), "");
}

TEST(SweepFlags, CheckpointEveryWithoutCheckpointIsRejected) {
  EXPECT_NE(rejection({"--checkpoint-every=2"})
                .find("--checkpoint-every requires --checkpoint"),
            std::string::npos);
  EXPECT_EQ(rejection({"--checkpoint-every=2", "--checkpoint=sweep.ckpt"}),
            "");
}

TEST(SweepFlags, NegativeTrialTimeoutIsRejected) {
  EXPECT_NE(rejection({"--trial-timeout-ms=-1"})
                .find("--trial-timeout-ms must be >= 0"),
            std::string::npos);
  EXPECT_EQ(rejection({"--trial-timeout-ms=0"}), "");
}

TEST(SweepFlags, ShardFlagsRequireSupervised) {
  for (const char* flag :
       {"--shard-mem-mb=64", "--shard-cpu-s=5", "--shard-retries=0",
        "--heartbeat-timeout-ms=100", "--shard-mem-mb=0"}) {
    SCOPED_TRACE(flag);
    EXPECT_NE(rejection({flag}).find("require --supervised"),
              std::string::npos);
    EXPECT_EQ(rejection({flag, "--supervised"}), "");
  }
}

TEST(SweepFlags, ShardsIsAnUnknownFlag) {
  // --threads is the one width knob; the old shard-count flag is gone.
  Args args = make_args({"--supervised", "--shards=2"});
  parse_sweep_flags(args);
  try {
    args.finish();
    FAIL() << "--shards was accepted";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("unknown flag --shards"),
              std::string::npos)
        << e.what();
  }
}

sim::Scenario small_scenario() {
  sim::Scenario s;
  s.num_users = 120;
  s.num_types = 3;
  s.tasks_per_type = 10;
  s.k_max = 4;
  s.initial_joiners = 4;
  s.seed = 11;
  return s;
}

TEST(SweepFlags, ThreadsIsTheSupervisedWidth) {
  // Three trials: left at its default the width would be the hardware
  // concurrency clamped to 3, so only --threads can make it 2.
  const std::uint64_t trials = 3;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "ritcs_sweep" / "supervised_width";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string ckpt = "--checkpoint=" + (dir / "sweep.ckpt").string();
  const SweepBinding binding{42, small_scenario().seed};

  Args supervised_args =
      make_args({"--supervised", "--threads=2", ckpt.c_str()});
  const SweepFlags supervised = parse_sweep_flags(supervised_args);
  std::unique_ptr<sim::CheckpointSession> written;
  const sim::GuardedResult first = run_sweep_point(
      supervised, small_scenario(), trials, binding, written, 0);
  ASSERT_NE(written, nullptr);
  EXPECT_EQ(written->params().threads, 2u);

  // The in-process executor at the same width resumes the supervised
  // checkpoint and serves the completed point from it, bit for bit.
  Args resume_args = make_args({"--threads=2", "--resume", ckpt.c_str()});
  const SweepFlags resume = parse_sweep_flags(resume_args);
  std::unique_ptr<sim::CheckpointSession> resumed;
  const sim::GuardedResult again =
      run_sweep_point(resume, small_scenario(), trials, binding, resumed, 0);
  ASSERT_NE(resumed, nullptr);
  EXPECT_EQ(resumed->params().threads, 2u);
  sim::testbits::expect_results_identical(again, first);
}

}  // namespace
}  // namespace rit::cli
