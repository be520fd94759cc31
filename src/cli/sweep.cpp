#include "cli/sweep.h"

#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "platform/supervisor.h"

namespace rit::cli {

SweepFlags parse_sweep_flags(Args& args) {
  SweepFlags f;
  f.threads = static_cast<unsigned>(args.get_u64("threads", 0));
  f.supervised = args.get_bool("supervised", false);
  f.max_trial_failures = args.get_u64("max-trial-failures", 0);
  f.trial_timeout_ms = args.get_double("trial-timeout-ms", 0.0);
  f.checkpoint_path = args.get_string("checkpoint", "");
  f.checkpoint_every = args.get_u64("checkpoint-every", 0);
  f.resume = args.get_bool("resume", false);
  f.shard_mem_mb = args.get_u64("shard-mem-mb", 0);
  f.shard_cpu_s = args.get_u64("shard-cpu-s", 0);
  f.shard_retries = static_cast<unsigned>(args.get_u64("shard-retries", 2));
  f.heartbeat_timeout_ms = args.get_u64("heartbeat-timeout-ms", 0);
  RIT_CHECK_MSG(!f.checkpoint_path.empty() || !f.resume,
                "--resume requires --checkpoint=PATH");
  RIT_CHECK_MSG(!f.checkpoint_path.empty() || f.checkpoint_every == 0,
                "--checkpoint-every requires --checkpoint=PATH");
  RIT_CHECK_MSG(f.trial_timeout_ms >= 0.0, "--trial-timeout-ms must be >= 0");
  RIT_CHECK_MSG(f.supervised ||
                    !(args.has("shard-mem-mb") || args.has("shard-cpu-s") ||
                      args.has("shard-retries") ||
                      args.has("heartbeat-timeout-ms")),
                "--shard-mem-mb/--shard-cpu-s/--shard-retries/"
                "--heartbeat-timeout-ms require --supervised");
  return f;
}

sim::GuardedResult run_sweep_point(
    const SweepFlags& flags, const sim::Scenario& scenario,
    std::uint64_t trials, const SweepBinding& binding,
    std::unique_ptr<sim::CheckpointSession>& session, std::uint64_t point,
    const sim::ProgressFn& progress) {
  // Both executors partition by the same width, so one binding serves
  // both: a checkpoint written in process resumes supervised and back.
  const unsigned width = rit::resolve_threads(flags.threads, trials);
  if (!flags.checkpoint_path.empty() && !session) {
    sim::CheckpointSession::Params p;
    p.path = flags.checkpoint_path;
    p.config_hash = binding.config_hash;
    p.seed = binding.seed;
    p.threads = width;
    p.trials = trials;
    p.every = flags.checkpoint_every;
    p.resume = flags.resume;
    session = std::make_unique<sim::CheckpointSession>(std::move(p));
  }
  sim::GuardPolicy policy;
  policy.max_trial_failures = flags.max_trial_failures;
  policy.trial_timeout_ms = flags.trial_timeout_ms;
  if (!flags.supervised) {
    return sim::run_many_guarded(scenario, trials, width, policy,
                                 session.get(), point, progress);
  }
  platform::SupervisorOptions sup;
  sup.shards = width;
  sup.shard_mem_mb = flags.shard_mem_mb;
  sup.shard_cpu_s = flags.shard_cpu_s;
  sup.shard_retries = flags.shard_retries;
  sup.heartbeat_timeout_ms = flags.heartbeat_timeout_ms;
  return platform::run_many_supervised(scenario, trials, sup, policy,
                                       session.get(), point, progress);
}

}  // namespace rit::cli
