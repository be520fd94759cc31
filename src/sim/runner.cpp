#include "sim/runner.h"

#include "core/payment.h"
#include "core/rit.h"
#include "obs/obs.h"
#include "sim/guarded.h"
#include "stats/timer.h"

namespace rit::sim {

namespace {
// Component tags for Scenario::trial_seed.
constexpr std::uint64_t kGraphComponent = 0;
constexpr std::uint64_t kPopulationComponent = 1;
constexpr std::uint64_t kJobComponent = 2;
constexpr std::uint64_t kMechanismComponent = 3;
}  // namespace

TrialInstance make_instance(const Scenario& scenario, std::uint64_t trial) {
  RIT_TRACE_SPAN("sim.make_instance");
  rng::Rng graph_rng(scenario.trial_seed(trial, kGraphComponent));
  rng::Rng pop_rng(scenario.trial_seed(trial, kPopulationComponent));
  rng::Rng job_rng(scenario.trial_seed(trial, kJobComponent));

  graph::Graph g = generate_graph(scenario, graph_rng);
  TreeResult tr = generate_tree(scenario, g);
  return TrialInstance{
      generate_population(scenario, pop_rng),
      generate_job(scenario, job_rng),
      std::move(tr.tree),
      scenario.trial_seed(trial, kMechanismComponent),
  };
}

std::uint64_t mechanism_seed_of(const Scenario& scenario,
                                std::uint64_t trial) {
  return scenario.trial_seed(trial, kMechanismComponent);
}

TrialMetrics run_trial(const Scenario& scenario, const TrialInstance& inst,
                       core::RitWorkspace& ws) {
  RIT_TRACE_SPAN("sim.trial");
  RIT_COUNTER_INC("sim.trials_run");
  TrialMetrics m;
  const auto& costs = inst.population.costs;
  const auto n = static_cast<double>(inst.population.size());

  rng::Rng rng(inst.mechanism_seed);
  core::RitResult r;
  stats::Timer timer;
  core::run_rit_into(inst.job, inst.population.truthful_asks, inst.tree,
                     scenario.mechanism, rng, ws, r);
  m.runtime_rit_ms = timer.elapsed_ms();
  m.runtime_auction_ms = r.auction_phase_ms;
  m.success = r.success;
  m.probability_degraded = r.probability_degraded;

  // The payment phase writes only `payment`: `allocation` and
  // `auction_payment` still hold phase 1's outputs, zeroed by phase 1
  // itself when the run fails closed.
  double auction_utility = 0.0;
  double rit_utility = 0.0;
  std::uint64_t allocated = 0;
  for (std::uint32_t j = 0; j < inst.population.size(); ++j) {
    auction_utility += r.auction_utility_of(j, costs[j]);
    rit_utility += r.utility_of(j, costs[j]);
    allocated += r.allocation[j];
  }
  m.avg_utility_auction = n > 0 ? auction_utility / n : 0.0;
  m.avg_utility_rit = n > 0 ? rit_utility / n : 0.0;
  m.total_payment_auction = r.total_auction_payment();
  m.total_payment_rit = r.total_payment();
  m.tasks_allocated = allocated;
  m.solicitation_premium =
      core::solicitation_premium(r.payment, r.auction_payment);
  RIT_COUNTER_ADD("sim.tasks_allocated", m.tasks_allocated);
  if (m.probability_degraded) RIT_COUNTER_INC("sim.trials_degraded");
  return m;
}

TrialMetrics run_trial(const Scenario& scenario, std::uint64_t trial) {
  core::RitWorkspace ws;
  return run_trial(scenario, make_instance(scenario, trial), ws);
}

AggregateMetrics run_many_parallel(
    const Scenario& scenario, std::uint64_t trials, unsigned threads,
    const std::function<void(std::uint64_t, std::uint64_t)>& progress) {
  return run_many_guarded(scenario, trials, threads, GuardPolicy{}, nullptr,
                          0, progress)
      .metrics;
}

}  // namespace rit::sim
