// Sweep checkpoint identity: the bench sweep hash binds a checkpoint to the
// mechanism RNG stream version, so a checkpoint written under an older
// stream is refused on resume instead of being mixed into new results.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "aggregate_bits.h"
#include "bench_support.h"
#include "common/check.h"
#include "sim/checkpoint.h"
#include "sim/metrics.h"
#include "sim/scenario.h"

namespace rit::bench {
namespace {

namespace fs = std::filesystem;

BenchOptions pinned_options() {
  BenchOptions o;
  o.name = "bench_fig6a_utility_vs_users";
  o.trials = 4;
  o.scale = 20.0;
  o.points = 2;
  o.seed = 42;
  o.threads = 1;
  return o;
}

sim::AggregateMetrics stored_point() {
  sim::AggregateMetrics a;
  sim::TrialMetrics t;
  t.success = true;
  t.avg_utility_rit = 1.0 / 3.0;
  t.tasks_allocated = 7;
  a.add(t);
  return a;
}

// Writes a checkpoint holding one completed point under `config_hash`,
// with every other binding exactly as run_point() would set it.
std::string write_checkpoint(const std::string& name,
                             const BenchOptions& opts,
                             std::uint64_t config_hash) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "ritcs_bench_support" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  sim::CheckpointSession::Params p;
  p.path = (dir / "sweep.ckpt").string();
  p.config_hash = config_hash;
  p.seed = opts.seed;
  p.threads = 1;
  p.trials = opts.trials;
  p.every = opts.checkpoint_every;
  p.resume = false;
  sim::CheckpointSession session(p);
  session.complete_point(0, sim::GuardedResult{stored_point(), {}});
  return p.path;
}

// sweep_config_hash(pinned_options()) as earlier builds computed it, i.e.
// what they wrote into their checkpoints for this configuration: before
// the stream version was folded in (stream 1), and under stream 2 (before
// CRA read run books), recomputed from that build's own code.
constexpr std::uint64_t kStreamOneHash = 3426350771139262998ull;
constexpr std::uint64_t kStreamTwoHash = 15887475420402593560ull;

TEST(SweepConfigHash, DiffersFromThePreVersioningHash) {
  EXPECT_NE(sweep_config_hash(pinned_options()), kStreamOneHash);
}

TEST(SweepConfigHash, DiffersFromTheStreamTwoHash) {
  EXPECT_NE(sweep_config_hash(pinned_options()), kStreamTwoHash);
}

TEST(SweepConfigHash, OldStreamCheckpointIsRefusedOnResume) {
  for (const std::uint64_t old_hash : {kStreamOneHash, kStreamTwoHash}) {
    for (const bool supervised : {false, true}) {
      SCOPED_TRACE(supervised ? "supervised" : "in-process");
      SCOPED_TRACE(old_hash == kStreamOneHash ? "stream 1" : "stream 2");
      BenchOptions opts = pinned_options();
      opts.supervised = supervised;
      opts.shards = 1;
      opts.checkpoint_path = write_checkpoint(
          supervised ? "old_supervised" : "old_inproc", opts, old_hash);
      opts.resume = true;
      try {
        run_point(opts, sim::Scenario{});
        FAIL() << "a checkpoint of an old stream was resumed";
      } catch (const CheckFailure& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("config hash"), std::string::npos) << what;
        EXPECT_NE(what.find("refusing to resume"), std::string::npos)
            << what;
      }
    }
  }
}

TEST(SweepConfigHash, CurrentStreamCheckpointResumes) {
  BenchOptions opts = pinned_options();
  opts.checkpoint_path =
      write_checkpoint("current", opts, sweep_config_hash(opts));
  opts.resume = true;
  // The point is already complete: it is served from the checkpoint, not
  // re-run, so the stored aggregate comes back bit for bit.
  const sim::AggregateMetrics got = run_point(opts, sim::Scenario{});
  sim::testbits::expect_aggregate_identical(got, stored_point());
}

}  // namespace
}  // namespace rit::bench
