// The sweep front door: the flags every trial sweep accepts (the figure
// benches and `ritcs --mode=run`), parsed and validated in one place, and
// the one dispatch from a grid point to an executor. See
// docs/robustness.md for what each flag guarantees.
//
//   --threads=K               partition width (default 0 = hardware
//                             concurrency, clamped to the trial count): K
//                             worker threads, or K forked shards under
//                             --supervised. Either way trial t runs in
//                             residue class t mod K and classes merge in
//                             index order, so the bits (and the checkpoint
//                             binding) depend on K, not on the executor
//   --supervised              run each residue class in its own forked
//                             worker process, monitored for signal deaths,
//                             OOM kills and hangs
//   --max-trial-failures=N    contained faults tolerated per grid point
//                             (default 0 = the first fault aborts)
//   --trial-timeout-ms=T      post-hoc per-trial watchdog (0 = off)
//   --checkpoint=PATH         durable sweep checkpoint, written atomically
//   --checkpoint-every=K      also checkpoint every K trials within a point
//                             (0 = only at point boundaries)
//   --resume                  resume from --checkpoint (refuses on any
//                             config/seed/width mismatch)
//   --shard-mem-mb=M          per-shard RLIMIT_AS budget in MB (0 = off)
//   --shard-cpu-s=S           per-shard RLIMIT_CPU budget in seconds (0 = off)
//   --shard-retries=R         worker deaths tolerated per shard (default 2)
//   --heartbeat-timeout-ms=T  SIGKILL a shard whose heartbeat stalls for T
//                             ms (0 = watchdog off)
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cli/args.h"
#include "sim/checkpoint.h"
#include "sim/guarded.h"
#include "sim/scenario.h"

namespace rit::cli {

/// The parsed sweep flags; defaults are the flags' defaults.
struct SweepFlags {
  unsigned threads{0};
  bool supervised{false};
  std::uint64_t max_trial_failures{0};
  double trial_timeout_ms{0.0};
  std::string checkpoint_path;  // empty = no checkpoint
  std::uint64_t checkpoint_every{0};
  bool resume{false};
  std::uint64_t shard_mem_mb{0};
  std::uint64_t shard_cpu_s{0};
  unsigned shard_retries{2};
  std::uint64_t heartbeat_timeout_ms{0};
};

/// Reads the sweep flags from `args` and validates them, throwing
/// CheckFailure on a flag that needs another one (--resume and
/// --checkpoint-every need --checkpoint; the shard and heartbeat flags need
/// --supervised) or a negative --trial-timeout-ms. Unknown flags are left
/// for the caller's args.finish().
SweepFlags parse_sweep_flags(Args& args);

/// What a sweep's checkpoint binds to besides the partition width and the
/// trial count: the caller's hash of everything that shapes the results,
/// and the base seed.
struct SweepBinding {
  std::uint64_t config_hash{0};
  std::uint64_t seed{0};
};

/// Runs grid point `point` (`trials` trials of `scenario`) on the executor
/// the flags select: sim::run_many_guarded, or platform::run_many_supervised
/// under --supervised. With --checkpoint, `session` is opened on the first
/// call (bound to `binding`, `trials` and the resolved width) and reused
/// after; without it `session` stays null. The flags change containment and
/// durability, never the result.
sim::GuardedResult run_sweep_point(
    const SweepFlags& flags, const sim::Scenario& scenario,
    std::uint64_t trials, const SweepBinding& binding,
    std::unique_ptr<sim::CheckpointSession>& session, std::uint64_t point,
    const sim::ProgressFn& progress = {});

}  // namespace rit::cli
