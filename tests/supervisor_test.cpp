// The process-isolated sweep supervisor: undisturbed parity with the
// in-process engine, the signal death matrix (SIGKILL/SIGSEGV/SIGABRT ×
// shard counts) with bit-identical recovery, OOM-rlimit and hang-watchdog
// containment, quarantine-budget exhaustion, and the shard payload wire
// format. Everything here forks real processes and kills them for real.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "aggregate_bits.h"
#include "common/check.h"
#include "platform/shard_worker.h"
#include "platform/supervisor.h"
#include "sanitizers.h"
#include "sim/chaos.h"
#include "sim/checkpoint.h"
#include "sim/fault.h"
#include "sim/guarded.h"
#include "sim/metrics.h"
#include "sim/runner.h"
#include "sim/scenario.h"

// ASan changes two things the death matrix depends on: it installs its own
// SIGSEGV handler (a raise(SIGSEGV) becomes a plain exit, still a worker
// death but with different forensic text), and RLIMIT_AS is incompatible
// with the shadow-memory mapping. The affected assertions gate on
// RITCS_ASAN.

namespace rit::platform {
namespace {

namespace fs = std::filesystem;
using sim::AggregateMetrics;
using sim::FaultKind;
using sim::GuardedResult;
using sim::GuardPolicy;
using sim::TrialFault;
using sim::TrialMetrics;
using sim::testbits::expect_aggregate_identical;
using sim::testbits::expect_results_identical;
using sim::testbits::expect_stats_identical;

fs::path scratch(const std::string& name) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "ritcs_supervisor" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Same pure-function body the guarded kill/resume matrix uses: every field
// (runtimes included) is a function of the trial index, which is what lets
// these tests demand bit-identity across process boundaries and retries.
TrialMetrics synthetic_trial(std::uint64_t t) {
  const double x = static_cast<double>(t);
  TrialMetrics m;
  m.success = (t % 3) != 0;
  m.avg_utility_auction = 0.25 * x - 1.0;
  m.avg_utility_rit = 1.0 / (x + 3.0);
  m.total_payment_auction = 10.0 + x;
  m.total_payment_rit = 20.0 + 2.0 * x;
  m.runtime_auction_ms = 0.125 * x;
  m.runtime_rit_ms = 0.5 + x / 7.0;
  m.solicitation_premium = 0.75 * x;
  m.tasks_allocated = t % 7;
  m.probability_degraded = (t % 5) == 0;
  return m;
}

sim::TrialBody synthetic_body() {
  return [](std::uint64_t t, core::RitWorkspace&, std::string*) {
    return synthetic_trial(t);
  };
}

std::uint64_t seed_of(std::uint64_t t) { return t * 1000 + 7; }

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

/// A fresh parent session in `dir` checkpointing every trial, bound to
/// `width` shards and `trials`: it gives each shard durable state.
sim::CheckpointSession::Params every_trial(const fs::path& dir, unsigned width,
                                           std::uint64_t trials) {
  sim::CheckpointSession::Params p;
  p.path = (dir / "sweep.ckpt").string();
  p.threads = width;
  p.trials = trials;
  p.every = 1;
  return p;
}

/// Ledger entries the supervisor appended for recovered worker deaths.
std::vector<TrialFault> worker_deaths(const GuardedResult& r) {
  std::vector<TrialFault> out;
  for (const TrialFault& f : r.faults.entries) {
    if (f.kind == FaultKind::kWorkerDeath) out.push_back(f);
  }
  return out;
}

TEST(ShardWorker, TrialCountPartitionsExactly) {
  for (const std::uint64_t trials : {1u, 2u, 7u, 12u, 13u, 100u}) {
    for (const unsigned shards : {1u, 2u, 3u, 8u}) {
      if (shards > trials) continue;
      std::uint64_t sum = 0;
      for (unsigned s = 0; s < shards; ++s) {
        sum += shard_trial_count(trials, s, shards);
      }
      EXPECT_EQ(sum, trials) << trials << " trials over " << shards;
    }
  }
  EXPECT_EQ(shard_trial_count(10, 0, 3), 4u);  // 0, 3, 6, 9
  EXPECT_EQ(shard_trial_count(10, 1, 3), 3u);  // 1, 4, 7
  EXPECT_EQ(shard_trial_count(10, 2, 3), 3u);  // 2, 5, 8
}

TEST(ShardWorker, ResultPayloadRoundTripsBitExactly) {
  GuardedResult r;
  for (std::uint64_t t = 0; t < 9; ++t) r.metrics.add(synthetic_trial(t));
  r.metrics.note_failed();
  r.faults.record(4, seed_of(4), FaultKind::kException, "run_trial",
                  "synthetic: something threw");
  const ShardPayload back = parse_shard_payload(serialize_shard_result(r));
  ASSERT_TRUE(back.ok) << back.error;
  expect_results_identical(back.result, r);
}

TEST(ShardWorker, ErrorPayloadRoundTripsFlattened) {
  const ShardPayload back = parse_shard_payload(
      serialize_shard_error("budget exhausted\nsecond line"));
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error, "budget exhausted second line");
}

TEST(ShardWorker, MalformedPayloadIsRejected) {
  const ShardPayload back = parse_shard_payload("not a payload\n");
  EXPECT_FALSE(back.ok);
  EXPECT_NE(back.error.find("malformed"), std::string::npos);
}

TEST(Supervisor, UndisturbedMatchesInProcessBitExactly) {
  const std::uint64_t trials = 13;
  for (const unsigned shards : {1u, 2u, 8u}) {
    const GuardedResult reference = sim::run_trials_guarded(
        trials, shards, GuardPolicy{}, synthetic_body(), seed_of);
    SupervisorOptions opts;
    opts.shards = shards;
    const GuardedResult supervised = run_trials_supervised(
        trials, opts, GuardPolicy{}, synthetic_body(), seed_of);
    expect_results_identical(supervised, reference);
  }
}

TEST(Supervisor, SignalDeathMatrixRecoversBitIdentical) {
  const std::uint64_t trials = 12;
  const std::uint64_t kill_at = 7;
  for (const int sig : {SIGKILL, SIGSEGV, SIGABRT}) {
    for (const unsigned shards : {1u, 2u, 8u}) {
      const fs::path dir = scratch("sig" + std::to_string(sig) + "_k" +
                                   std::to_string(shards));
      const GuardedResult reference = sim::run_trials_guarded(
          trials, shards, GuardPolicy{}, synthetic_body(), seed_of);

      SupervisorOptions opts;
      opts.shards = shards;
      opts.backoff_ms = 10;
      sim::CheckpointSession session(every_trial(dir, shards, trials));
      GuardPolicy policy;
      policy.chaos.signal_on_trial = kill_at;
      policy.chaos.signal_number = sig;
      const GuardedResult supervised = run_trials_supervised(
          trials, opts, policy, synthetic_body(), seed_of, &session);

      expect_aggregate_identical(supervised.metrics, reference.metrics);
      const std::vector<TrialFault> deaths = worker_deaths(supervised);
      ASSERT_EQ(deaths.size(), 1u)
          << "signal " << sig << " shards " << shards;
      EXPECT_EQ(supervised.faults.size(),
                reference.faults.size() + deaths.size());
      EXPECT_EQ(deaths[0].trial, kill_at);
      EXPECT_EQ(deaths[0].seed, seed_of(kill_at));
#if !RITCS_ASAN
      const char* name = sig == SIGKILL   ? "SIGKILL"
                         : sig == SIGSEGV ? "SIGSEGV"
                                          : "SIGABRT";
      EXPECT_NE(deaths[0].reason.find(name), std::string::npos)
          << deaths[0].reason;
#endif
    }
  }
}

TEST(Supervisor, DeathAtFirstAndLastTrialRecovers) {
  const std::uint64_t trials = 12;
  for (const std::uint64_t kill_at : {std::uint64_t{0}, trials - 1}) {
    const fs::path dir = scratch("edge" + std::to_string(kill_at));
    const GuardedResult reference = sim::run_trials_guarded(
        trials, 2, GuardPolicy{}, synthetic_body(), seed_of);
    SupervisorOptions opts;
    opts.shards = 2;
    opts.backoff_ms = 10;
    sim::CheckpointSession session(every_trial(dir, 2, trials));
    GuardPolicy policy;
    policy.chaos.signal_on_trial = kill_at;
    policy.chaos.signal_number = SIGKILL;
    const GuardedResult supervised = run_trials_supervised(
        trials, opts, policy, synthetic_body(), seed_of, &session);
    expect_aggregate_identical(supervised.metrics, reference.metrics);
    EXPECT_EQ(worker_deaths(supervised).size(), 1u);
  }
}

TEST(Supervisor, RetryWorksWithoutDurableState) {
  // No parent session: the relaunched shard replays its residue class from
  // trial 0 — still deterministic, so the recovered run stays bit-identical.
  const std::uint64_t trials = 10;
  const GuardedResult reference = sim::run_trials_guarded(
      trials, 2, GuardPolicy{}, synthetic_body(), seed_of);
  SupervisorOptions opts;
  opts.shards = 2;
  opts.backoff_ms = 10;
  GuardPolicy policy;
  policy.chaos.signal_on_trial = 5;
  policy.chaos.signal_number = SIGKILL;
  const GuardedResult supervised =
      run_trials_supervised(trials, opts, policy, synthetic_body(), seed_of);
  expect_aggregate_identical(supervised.metrics, reference.metrics);
  EXPECT_EQ(worker_deaths(supervised).size(), 1u);
}

TEST(Supervisor, OomUnderRlimitIsAttributedAndRecovered) {
#if RITCS_ASAN
  GTEST_SKIP() << "RLIMIT_AS is incompatible with ASan shadow memory";
#else
  const std::uint64_t trials = 6;
  const fs::path dir = scratch("oom");
  const GuardedResult reference = sim::run_trials_guarded(
      trials, 2, GuardPolicy{}, synthetic_body(), seed_of);
  SupervisorOptions opts;
  opts.shards = 2;
  opts.backoff_ms = 10;
  opts.shard_mem_mb = 512;
  sim::CheckpointSession session(every_trial(dir, 2, trials));
  GuardPolicy policy;
  policy.chaos.oom_on_trial = 3;
  const GuardedResult supervised = run_trials_supervised(
      trials, opts, policy, synthetic_body(), seed_of, &session);
  expect_aggregate_identical(supervised.metrics, reference.metrics);
  const std::vector<TrialFault> deaths = worker_deaths(supervised);
  ASSERT_EQ(deaths.size(), 1u);
  EXPECT_EQ(deaths[0].trial, 3u);
  EXPECT_NE(deaths[0].reason.find("OOM"), std::string::npos)
      << deaths[0].reason;
  EXPECT_NE(deaths[0].reason.find("address-space"), std::string::npos)
      << deaths[0].reason;
#endif
}

TEST(Supervisor, HangWatchdogKillsAndRecovers) {
  const std::uint64_t trials = 8;
  const fs::path dir = scratch("hang");
  const GuardedResult reference = sim::run_trials_guarded(
      trials, 2, GuardPolicy{}, synthetic_body(), seed_of);
  SupervisorOptions opts;
  opts.shards = 2;
  opts.backoff_ms = 10;
  opts.heartbeat_timeout_ms = 500;
  sim::CheckpointSession session(every_trial(dir, 2, trials));
  GuardPolicy policy;
  policy.chaos.hang_on_trial = 3;
  const GuardedResult supervised = run_trials_supervised(
      trials, opts, policy, synthetic_body(), seed_of, &session);
  expect_aggregate_identical(supervised.metrics, reference.metrics);
  const std::vector<TrialFault> deaths = worker_deaths(supervised);
  ASSERT_GE(deaths.size(), 1u);
  bool saw_hang = false;
  for (const TrialFault& d : deaths) {
    if (d.reason.find("hung") != std::string::npos) saw_hang = true;
  }
  EXPECT_TRUE(saw_hang);
}

TEST(Supervisor, QuarantineExhaustionAbortsAndFlushesForensics) {
  const std::uint64_t trials = 6;
  const fs::path dir = scratch("quarantine");
  const std::string ckpt = (dir / "sweep.ckpt").string();

  sim::CheckpointSession::Params p;
  p.path = ckpt;
  p.config_hash = 1234;
  p.threads = 2;  // == resolved shard count
  p.trials = trials;
  p.every = 1;
  sim::CheckpointSession session(p);

  SupervisorOptions opts;
  opts.shards = 2;
  opts.backoff_ms = 10;
  opts.shard_retries = 1;
  GuardPolicy policy;
  policy.chaos.signal_on_trial = 1;  // shard 1's first trial
  policy.chaos.signal_number = SIGKILL;
  policy.chaos.process_chaos_every_attempt = true;  // never recovers

  try {
    run_trials_supervised(trials, opts, policy, synthetic_body(), seed_of,
                          &session);
    FAIL() << "quarantine exhaustion must abort with CheckFailure";
  } catch (const rit::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("quarantined"), std::string::npos)
        << e.what();
  }

  std::ifstream in(session.aborted_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << session.aborted_path();
  std::ostringstream content;
  content << in.rdbuf();
  const sim::AbortedRecord rec =
      sim::parse_aborted(content.str(), session.aborted_path());
  EXPECT_EQ(rec.point, 0u);
  EXPECT_NE(rec.reason.find("quarantined"), std::string::npos) << rec.reason;
  // Launch + one retry, both killed on the same trial: two death records.
  std::uint64_t death_count = 0;
  for (const TrialFault& f : rec.partial.faults.entries) {
    if (f.kind == FaultKind::kWorkerDeath) {
      ++death_count;
      EXPECT_EQ(f.trial, 1u);
    }
  }
  EXPECT_EQ(death_count, 2u);
}

TEST(Supervisor, InProcessCheckpointResumesSupervised) {
  // A sweep checkpointed by the in-process engine at --threads=K resumes
  // under the supervisor at the same width K: the binding is the partition
  // width, which both engines share.
  const std::uint64_t trials = 10;
  const fs::path dir = scratch("interchange");
  const std::string ckpt = (dir / "sweep.ckpt").string();
  const GuardedResult reference = sim::run_trials_guarded(
      trials, 2, GuardPolicy{}, synthetic_body(), seed_of);

  {
    sim::CheckpointSession::Params p;
    p.path = ckpt;
    p.config_hash = 77;
    p.threads = 2;
    p.trials = trials;
    p.every = 2;
    sim::CheckpointSession session(p);
    GuardPolicy chaos_kill;
    chaos_kill.chaos.kill_after_checkpoints = 2;
    EXPECT_THROW(sim::run_trials_guarded(trials, 2, chaos_kill,
                                         synthetic_body(), seed_of, &session),
                 sim::chaos::ChaosKill);
  }

  sim::CheckpointSession::Params p;
  p.path = ckpt;
  p.config_hash = 77;
  p.threads = 2;
  p.trials = trials;
  p.every = 2;
  p.resume = true;
  sim::CheckpointSession session(p);
  SupervisorOptions opts;
  opts.shards = 2;
  const GuardedResult supervised = run_trials_supervised(
      trials, opts, GuardPolicy{}, synthetic_body(), seed_of, &session);
  expect_results_identical(supervised, reference);

  // And the completed point round-trips through the parent session.
  sim::GuardedResult again;
  ASSERT_TRUE(session.completed_point(0, &again));
  expect_results_identical(again, supervised);
}

TEST(Supervisor, ResumeRemovesOrphanedShardTempFiles) {
  // A shard SIGKILLed inside its checkpoint write leaves the atomic
  // write's `<ckpt>.shard<k>.tmp.<pid>` behind; the resumed sweep must not
  // leave it there once the point completes.
  const std::uint64_t trials = 10;
  const fs::path dir = scratch("orphans");
  const GuardedResult reference = sim::run_trials_guarded(
      trials, 2, GuardPolicy{}, synthetic_body(), seed_of);
  sim::CheckpointSession::Params p = every_trial(dir, 2, trials);
  {
    sim::CheckpointSession session(p);
    GuardPolicy chaos_kill;
    chaos_kill.chaos.kill_after_checkpoints = 3;
    EXPECT_THROW(sim::run_trials_guarded(trials, 2, chaos_kill,
                                         synthetic_body(), seed_of, &session),
                 sim::chaos::ChaosKill);
  }
  const auto plant = [](const std::string& path) {
    std::ofstream(path) << "torn checkpoint";
    return path;
  };
  const std::string orphan0 = plant(p.path + ".shard0.tmp.4242");
  const std::string orphan1 = plant(p.path + ".shard1.tmp.17");
  // Not a temp file of a shard slot: left alone.
  const std::string bystander = plant(p.path + ".shard1.tmp.17.keep");

  p.resume = true;
  sim::CheckpointSession session(p);
  SupervisorOptions opts;
  opts.shards = 2;
  const GuardedResult resumed = run_trials_supervised(
      trials, opts, GuardPolicy{}, synthetic_body(), seed_of, &session);
  expect_results_identical(resumed, reference);
  EXPECT_FALSE(fs::exists(orphan0));
  EXPECT_FALSE(fs::exists(orphan1));
  EXPECT_TRUE(fs::exists(bystander));
}

TEST(Supervisor, ScenarioDrivenParityOnDeterministicFields) {
  // Real scenario trials time themselves (runtime_* is wall clock), so the
  // cross-engine comparison pins every *deterministic* field bit-exactly
  // and leaves only the measured runtimes out.
  const sim::Scenario s = small_scenario();
  const std::uint64_t trials = 6;
  const GuardedResult reference =
      sim::run_many_guarded(s, trials, 2, GuardPolicy{});
  SupervisorOptions opts;
  opts.shards = 2;
  const GuardedResult supervised =
      run_many_supervised(s, trials, opts, GuardPolicy{});

  const AggregateMetrics& a = supervised.metrics;
  const AggregateMetrics& b = reference.metrics;
  expect_stats_identical(a.avg_utility_auction, b.avg_utility_auction,
                         "avg_utility_auction");
  expect_stats_identical(a.avg_utility_rit, b.avg_utility_rit,
                         "avg_utility_rit");
  expect_stats_identical(a.total_payment_auction, b.total_payment_auction,
                         "total_payment_auction");
  expect_stats_identical(a.total_payment_rit, b.total_payment_rit,
                         "total_payment_rit");
  expect_stats_identical(a.solicitation_premium, b.solicitation_premium,
                         "solicitation_premium");
  expect_stats_identical(a.tasks_allocated, b.tasks_allocated,
                         "tasks_allocated");
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.degraded_trials, b.degraded_trials);
  EXPECT_EQ(a.failed_trials, b.failed_trials);
  EXPECT_EQ(a.quarantined_trials, b.quarantined_trials);
  EXPECT_TRUE(supervised.faults.empty());
}

}  // namespace
}  // namespace rit::platform
