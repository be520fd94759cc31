// The benchmark's workloads. Each turns the benchmark seed into inputs
// through sim::Scenario::seed, so the program only ever sees generated
// inputs, and each op draws fresh inputs from its op index.
#include <algorithm>
#include <optional>
#include <stdexcept>

#include "core/rit.h"
#include "graph/graph.h"
#include "obs/trace.h"
#include "perfbench.h"
#include "platform/supervisor.h"
#include "rng/rng.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "sim/workload.h"
#include "stats/timer.h"
#include "testkit/invariants.h"

namespace perfbench {

using rit::obs::ScopedSpan;
namespace core = rit::core;
namespace sim = rit::sim;

namespace {

// Scenario::trial_seed component tags private to the benchmark (the
// program's own tags are 0..3).
constexpr std::uint64_t kMarketGraphTag = 100;
constexpr std::uint64_t kMarketPopulationTag = 101;
constexpr std::uint64_t kClearMechanismTag = 102;
constexpr std::uint64_t kSweepPassTag = 103;
constexpr std::uint64_t kEdgeCountTag = 104;

// The paper's Sec. 7-A setup: 10 task types, k_j ~ U{1..20}, c_j ~
// U(0,10], H = 0.8, run to completion, one thread inside a trial.
sim::Scenario paper_scenario(std::uint64_t seed) {
  sim::Scenario s;
  s.num_types = 10;
  s.k_max = 20;
  s.cost_max = 10.0;
  s.mechanism.h = 0.8;
  s.initial_joiners = 10;
  s.intra_threads = 1;
  s.mechanism.intra_threads = 1;
  s.seed = seed;
  return s;
}

std::uint64_t edges_of(const sim::Scenario& s) {
  rit::rng::Rng rng(s.trial_seed(0, kEdgeCountTag));
  return sim::generate_graph(s, rng).num_edges();
}

// trial_1m: one full trial at 10^6 users, serial — the north-star rung.
class Trial1M final : public Workload {
 public:
  explicit Trial1M(std::uint64_t seed) : scenario_(paper_scenario(seed)) {
    scenario_.num_users = 1'000'000;
    scenario_.tasks_per_type = scenario_.num_users / 200;
    scenario_.graph = sim::GraphKind::kBarabasiAlbert;
  }

  OpResult timed_op(std::uint64_t index) override {
    OpResult r;
    r.attempted = 1;
    {
      ScopedSpan span(kSpanMakeInstance);
      inst_ = sim::make_instance(scenario_, index);
    }
    rit::stats::Timer timer;
    {
      ScopedSpan span(kSpanRunRit);
      rit::rng::Rng rng(inst_->mechanism_seed);
      core::run_rit_into(inst_->job, inst_->population.truthful_asks,
                         inst_->tree, scenario_.mechanism, rng, ws_, out_);
    }
    r.mechanism_ms = timer.elapsed_ms();
    return r;
  }

  void check_op(OpResult& r) override {
    const auto& pop = inst_->population;
    ResultChecker checker(inst_->job, pop.truthful_asks, pop.costs,
                          inst_->tree, scenario_.mechanism);
    r.failure = checker.check(inst_->mechanism_seed, out_);
    if (!r.failure.empty()) r.failed = 1;
    if (traced_) counts.observe(pop.truthful_asks, out_, inst_->tree);
    inst_.reset();
  }

  void set_traced(bool on) override {
    traced_ = on;
    scenario_.mechanism.record_round_trace = on;
    if (on && counts.graph_edges == 0) counts.graph_edges = edges_of(scenario_);
  }

 private:
  sim::Scenario scenario_;
  core::RitWorkspace ws_;
  core::RitResult out_;
  std::optional<sim::TrialInstance> inst_;
  bool traced_ = false;
};

// clear_tight: re-clearing one recruited population, k_j = 1, demand at
// 60% of each type's supply, on a deep Watts-Strogatz tree.
class ClearTight final : public Workload {
 public:
  explicit ClearTight(std::uint64_t seed) : scenario_(paper_scenario(seed)) {
    scenario_.num_users = 200'000;
    scenario_.k_max = 1;
    scenario_.graph = sim::GraphKind::kWattsStrogatz;
    rit::rng::Rng graph_rng(scenario_.trial_seed(0, kMarketGraphTag));
    rit::rng::Rng pop_rng(scenario_.trial_seed(0, kMarketPopulationTag));
    const rit::graph::Graph g = sim::generate_graph(scenario_, graph_rng);
    counts.graph_edges = g.num_edges();
    sim::TreeResult tr = sim::generate_tree(scenario_, g);
    tree_.emplace(std::move(tr.tree));
    pop_ = sim::generate_population(scenario_, pop_rng);
    std::vector<std::uint32_t> demand(scenario_.num_types, 0);
    for (const core::Ask& a : pop_.truthful_asks) demand[a.type.value] += 1;
    for (std::uint32_t& d : demand) d = d * 3 / 5;
    job_.emplace(std::move(demand));
    checker_.emplace(*job_, pop_.truthful_asks, pop_.costs, *tree_,
                     scenario_.mechanism);
  }

  OpResult timed_op(std::uint64_t index) override {
    OpResult r;
    r.attempted = 1;
    seed_ = scenario_.trial_seed(index, kClearMechanismTag);
    ScopedSpan span(kSpanRunRit);
    rit::rng::Rng rng(seed_);
    core::run_rit_into(*job_, pop_.truthful_asks, *tree_,
                       scenario_.mechanism, rng, ws_, out_);
    return r;
  }

  void check_op(OpResult& r) override {
    r.mechanism_ms = r.latency_ms;
    r.failure = checker_->check(seed_, out_);
    if (!r.failure.empty()) r.failed = 1;
    if (traced_) counts.observe(pop_.truthful_asks, out_, *tree_);
  }

  void set_traced(bool on) override {
    traced_ = on;
    scenario_.mechanism.record_round_trace = on;
  }

 private:
  sim::Scenario scenario_;
  sim::Population pop_;
  std::optional<core::Job> job_;
  std::optional<rit::tree::IncentiveTree> tree_;
  std::optional<ResultChecker> checker_;
  core::RitWorkspace ws_;
  core::RitResult out_;
  std::uint64_t seed_ = 0;
  bool traced_ = false;
};

// sweep_paper / sweep_supervised: the Fig. 6(a)/8(a) user sweep at paper
// scale. One op is one grid point: 16 trials over 2 workers (threads or
// forked shards). Op i runs point i % 5 of pass i / 5; each pass draws its
// own scenario seed, and one latency sample is one pass.
class Sweep final : public Workload {
 public:
  static constexpr unsigned kPoints = 5;
  static constexpr std::uint64_t kTrials = 16;
  static constexpr unsigned kWorkers = 2;

  Sweep(std::uint64_t seed, bool supervised)
      : base_(paper_scenario(seed)), supervised_(supervised) {
    base_.tasks_per_type = 5000;
    base_.graph = sim::GraphKind::kBarabasiAlbert;
  }

  OpResult timed_op(std::uint64_t index) override {
    OpResult r;
    point_ = point(index);
    pass_ = index / kPoints;
    if (supervised_) {
      rit::platform::SupervisorOptions opts;
      opts.shards = kWorkers;
      agg_ = rit::platform::run_many_supervised(point_, kTrials, opts,
                                                sim::GuardPolicy{})
                 .metrics;
    } else {
      ScopedSpan span(kSpanSweepPoint);
      agg_ = sim::run_many_parallel(point_, kTrials, kWorkers);
    }
    r.attempted = kTrials;
    r.mechanism_ms = agg_.runtime_rit_ms.mean();
    return r;
  }

  void check_op(OpResult& r) override {
    const std::uint64_t total =
        std::uint64_t{point_.num_types} * point_.tasks_per_type;
    std::uint64_t bad = agg_.failed_trials + agg_.quarantined_trials +
                        (agg_.trials - agg_.successes);
    if (agg_.attempted() != kTrials) {
      bad = kTrials;
      r.failure = "grid point ran " + std::to_string(agg_.attempted()) +
                  " of " + std::to_string(kTrials) + " trials";
    } else if (bad > 0) {
      r.failure = std::to_string(bad) + " trials failed or did not succeed";
    } else if (agg_.tasks_allocated.min() != static_cast<double>(total) ||
               agg_.tasks_allocated.max() != static_cast<double>(total)) {
      bad = 1;
      r.failure = "a trial left tasks unallocated";
    }
    // Replay one trial of the point in-process and check it pathwise.
    r.replays = 1;
    sim::Scenario sc = point_;
    sc.mechanism.record_round_trace = traced_;
    std::optional<sim::TrialInstance> inst;
    {
      ScopedSpan replay_span(kSpanReplay);
      {
        ScopedSpan s(kSpanMakeInstance);
        inst = sim::make_instance(sc, pass_ % kTrials);
      }
      ScopedSpan s(kSpanRunRit);
      rit::rng::Rng rng(inst->mechanism_seed);
      core::run_rit_into(inst->job, inst->population.truthful_asks,
                         inst->tree, sc.mechanism, rng, ws_, out_);
    }
    const auto& pop = inst->population;
    ResultChecker checker(inst->job, pop.truthful_asks, pop.costs,
                          inst->tree, sc.mechanism);
    const std::string replay = checker.check(inst->mechanism_seed, out_);
    if (!replay.empty()) {
      bad += 1;
      if (r.failure.empty()) r.failure = "replay: " + replay;
    }
    if (traced_) counts.observe(pop.truthful_asks, out_, inst->tree);
    r.failed = std::min(bad, r.attempted);
  }

  void set_traced(bool on) override {
    traced_ = on;
    if (on && counts.graph_edges == 0) {
      counts.graph_edges = edges_of(point(kPoints / 2));
    }
  }

  unsigned ops_per_cycle() const override { return kPoints; }
  std::uint64_t trials_per_op() const override { return kTrials; }
  unsigned workers() const override { return kWorkers; }
  bool layers_from_replays() const override { return supervised_; }
  unsigned shards() const override { return supervised_ ? kWorkers : 0; }

 private:
  sim::Scenario point(std::uint64_t index) const {
    sim::Scenario s = base_;
    s.num_users = 40'000 + 10'000 * static_cast<std::uint32_t>(index % kPoints);
    s.seed = base_.trial_seed(index / kPoints, kSweepPassTag);
    return s;
  }

  sim::Scenario base_;
  bool supervised_;
  sim::Scenario point_;
  std::uint64_t pass_ = 0;
  sim::AggregateMetrics agg_;
  core::RitWorkspace ws_;
  core::RitResult out_;
  bool traced_ = false;
};

}  // namespace

void WorkCounts::observe(std::span<const core::Ask> asks,
                         const core::RitResult& result,
                         const rit::tree::IncentiveTree& tree) {
  std::vector<double> type_units;
  for (const core::Ask& a : asks) {
    if (a.type.value >= type_units.size()) type_units.resize(a.type.value + 1);
    type_units[a.type.value] += a.quantity;
    units += a.quantity;
  }
  users += static_cast<double>(asks.size());
  for (const core::TypeAuctionInfo& info : result.type_info) {
    double entering =
        info.type.value < type_units.size() ? type_units[info.type.value] : 0;
    for (const core::RoundTrace& round : info.rounds) {
      units_entering += entering;
      consensus += static_cast<double>(round.consensus_count);
      entering -= round.winners;
    }
  }
  max_tree_depth = std::max(max_tree_depth, tree.max_depth());
}

ResultChecker::ResultChecker(const core::Job& job,
                             std::span<const core::Ask> asks,
                             std::span<const double> costs,
                             const rit::tree::IncentiveTree& tree,
                             const core::RitConfig& config)
    : total_tasks_(job.total_tasks()) {
  case_.demand = job.demand_vector();
  case_.asks.assign(asks.begin(), asks.end());
  case_.costs.assign(costs.begin(), costs.end());
  const auto& parents = tree.parents();
  case_.parents.assign(parents.begin() + 1, parents.end());
  case_.config = config;
}

std::string ResultChecker::check(std::uint64_t mechanism_seed,
                                 const core::RitResult& result) {
  ScopedSpan span(kSpanCheck);
  case_.mech_seed = mechanism_seed;
  if (!result.success) return "mechanism run did not succeed";
  std::uint64_t allocated = 0;
  for (std::uint32_t x : result.allocation) allocated += x;
  if (allocated != total_tasks_) {
    return "allocated " + std::to_string(allocated) + " of " +
           std::to_string(total_tasks_) + " tasks";
  }
  const rit::testkit::InvariantReport report =
      rit::testkit::check_invariants(case_, result);
  if (report.ok()) return {};
  return report.violations.front().name + ": " +
         report.violations.front().detail;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"trial_1m", "clear_tight",
                                              "sweep_paper",
                                              "sweep_supervised"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "trial_1m") return std::make_unique<Trial1M>(seed);
  if (name == "clear_tight") return std::make_unique<ClearTight>(seed);
  if (name == "sweep_paper") return std::make_unique<Sweep>(seed, false);
  if (name == "sweep_supervised") return std::make_unique<Sweep>(seed, true);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
