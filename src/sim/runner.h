// Trial runner: generates one instance from a Scenario and runs the RIT
// mechanism on it once, reporting both the auction phase (phase 1 of that
// run) and the full mechanism.
#pragma once

#include <functional>

#include "core/rit.h"
#include "sim/metrics.h"
#include "sim/scenario.h"
#include "sim/workload.h"

namespace rit::sim {

/// The fully-materialized instance for one trial (exposed so the Fig. 9
/// bench and the property tests can mutate it before running mechanisms).
struct TrialInstance {
  Population population;
  core::Job job;
  tree::IncentiveTree tree;
  std::uint64_t mechanism_seed{0};
};

/// Draws the instance for (scenario, trial): graph, tree, population, job.
/// Component streams are independent, so e.g. enlarging the population does
/// not change the job draw.
TrialInstance make_instance(const Scenario& scenario, std::uint64_t trial);

/// The mechanism-component seed make_instance would assign this trial
/// (TrialInstance::mechanism_seed without materializing the instance) —
/// what a fault ledger records so one trial can be re-run in isolation.
std::uint64_t mechanism_seed_of(const Scenario& scenario, std::uint64_t trial);

/// Runs the mechanism once on one instance, with the per-round buffers in
/// `ws` (keep one per worker; the sweep engine does). The auction-phase
/// series of Figs. 6-8 are phase 1 of that same run: its allocation,
/// auction payments and phase-1 time. So the two series differ only by
/// the payment phase.
TrialMetrics run_trial(const Scenario& scenario, const TrialInstance& inst,
                       core::RitWorkspace& ws);

/// Convenience: make_instance + run_trial with a fresh workspace.
TrialMetrics run_trial(const Scenario& scenario, std::uint64_t trial);

/// Runs `trials` trials through the guarded sweep engine with a default
/// GuardPolicy: run_many_guarded(...).metrics, so the first fault aborts
/// with a CheckFailure. Every trial derives its own streams from
/// (scenario.seed, trial), and per-worker aggregates merge in worker-index
/// order, so the result is deterministic and independent of scheduling.
/// threads == 0 picks hardware_concurrency(). `progress`, when set, fires
/// throttled and monotone from the workers.
AggregateMetrics run_many_parallel(
    const Scenario& scenario, std::uint64_t trials, unsigned threads = 0,
    const std::function<void(std::uint64_t, std::uint64_t)>& progress = {});

}  // namespace rit::sim
