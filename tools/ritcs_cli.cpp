// ritcs — the command-line front end to the whole library.
//
// Modes:
//   ritcs --mode=config
//       Print a scenario config template (all keys, default values).
//   ritcs --mode=run [--config=FILE] [--trials=N] [--threads=T]
//                    [--max-trial-failures=N] [--trial-timeout-ms=T]
//                    [--checkpoint=PATH] [--checkpoint-every=K] [--resume]
//                    [--supervised] [--shards=K] [--shard-mem-mb=M]
//                    [--shard-cpu-s=S] [--shard-retries=R]
//                    [--heartbeat-timeout-ms=T] [overrides...]
//       Run a scenario and print aggregate metrics across trials, fanned
//       out over T worker threads (0 = hardware concurrency, 1 = exact
//       serial path). With --population=FILE (CSV: type,quantity,cost)
//       runs one trial over your own user data instead of a synthetic
//       population. The robustness flags (docs/robustness.md) quarantine
//       faulted trials within a failure budget, watchdog slow trials, and
//       checkpoint progress for bit-identical --resume. --supervised runs
//       each residue class of trials in its own forked worker process
//       under rlimit budgets: a worker that segfaults, OOMs, or hangs is
//       recorded in the fault ledger and retried with backoff, resuming
//       from its own checkpoint cut (docs/robustness.md).
//   ritcs --mode=explain [--config=FILE] [--user=J] [overrides...]
//       Run one trial and print the payment explanation for user J (or the
//       user with the largest solicitation reward when J is omitted).
//   ritcs --mode=attack [--config=FILE] [--victim=J] [--identities=D]
//                       [--ask=V] [--trials=N] [overrides...]
//       Compare a user's expected utility honest-vs-sybil.
//   ritcs --mode=dot [--config=FILE] [--out=FILE] [overrides...]
//       Export the trial's incentive tree as Graphviz DOT, coloured by
//       task type.
//   ritcs --mode=save [--config=FILE] [--out=FILE] [overrides...]
//       Run one trial and write the full experiment record (inputs +
//       outputs, bit-exact) for later auditing.
//   ritcs --mode=audit --in=FILE
//       Load a saved record, re-derive every payment from the recorded
//       inputs, and report any discrepancy.
//
// Overrides mirror the config keys: --users, --types, --tasks, --kmax,
// --h, --graph, --seed, --policy=theoretical|completion.
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "attack/strategy_search.h"
#include "attack/sybil_apply.h"
#include "attack/sybil_plan.h"
#include "cli/args.h"
#include "cli/table.h"
#include "common/check.h"
#include "common/format_util.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "core/audit.h"
#include "core/result_io.h"
#include "core/rit.h"
#include "platform/supervisor.h"
#include "sim/config_io.h"
#include "sim/guarded.h"
#include "sim/population_io.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "stats/online_stats.h"
#include "tree/dot_export.h"

namespace {

using namespace rit;

sim::Scenario scenario_from_args(cli::Args& args) {
  sim::Scenario s;
  const std::string config = args.get_string("config", "");
  if (!config.empty()) s = sim::read_scenario_file(config);
  s.num_users = static_cast<std::uint32_t>(args.get_u64("users", s.num_users));
  s.num_types = static_cast<std::uint32_t>(args.get_u64("types", s.num_types));
  s.tasks_per_type =
      static_cast<std::uint32_t>(args.get_u64("tasks", s.tasks_per_type));
  s.k_max = static_cast<std::uint32_t>(args.get_u64("kmax", s.k_max));
  s.mechanism.h = args.get_double("h", s.mechanism.h);
  s.graph = sim::parse_graph_kind(
      args.get_string("graph", sim::to_string(s.graph)));
  s.seed = args.get_u64("seed", s.seed);
  const std::string policy = args.get_string(
      "policy", s.mechanism.round_budget_policy ==
                        core::RoundBudgetPolicy::kTheoretical
                    ? "theoretical"
                    : "completion");
  RIT_CHECK_MSG(policy == "theoretical" || policy == "completion",
                "--policy wants theoretical|completion");
  s.mechanism.round_budget_policy =
      policy == "theoretical" ? core::RoundBudgetPolicy::kTheoretical
                              : core::RoundBudgetPolicy::kRunToCompletion;
  return s;
}

int mode_config() {
  sim::write_scenario(sim::Scenario{}, std::cout);
  return 0;
}

// Runs one trial over a user-supplied population CSV (sim/population_io.h):
// the graph is sized to the population, the Sec. 7-A spanning forest builds
// the tree, and RIT clears the market.
int run_with_population(const sim::Scenario& base, const std::string& path) {
  const sim::Population pop = sim::read_population_file(path);
  sim::Scenario s = base;
  s.num_users = pop.size();
  std::uint32_t num_types = 1;
  for (const core::Ask& a : pop.truthful_asks) {
    num_types = std::max(num_types, a.type.value + 1);
  }
  s.num_types = std::max(s.num_types, num_types);
  rng::Rng graph_rng(s.trial_seed(0, 0));
  const graph::Graph g = sim::generate_graph(s, graph_rng);
  const sim::TreeResult tr = sim::generate_tree(s, g);
  rng::Rng job_rng(s.trial_seed(0, 2));
  const core::Job job = sim::generate_job(s, job_rng);
  rng::Rng rng(s.trial_seed(0, 3));
  const core::RitResult r =
      core::run_rit(job, pop.truthful_asks, tr.tree, s.mechanism, rng);
  std::cout << pop.size() << " users from " << path << ", "
            << job.total_tasks() << " tasks: "
            << (r.success ? "cleared" : "ALLOCATION FAILED") << "\n";
  if (!r.success) return 1;
  double utility = 0.0;
  for (std::uint32_t j = 0; j < pop.size(); ++j) {
    utility += r.utility_of(j, pop.costs[j]);
  }
  std::cout << "total payment " << format_double(r.total_payment(), 2)
            << " (premium "
            << format_double(r.total_payment() - r.total_auction_payment(), 2)
            << "), avg utility "
            << format_double(utility / pop.size(), 4) << "\n";
  return 0;
}

int mode_run(cli::Args& args) {
  const sim::Scenario s = scenario_from_args(args);
  const std::uint64_t trials = args.get_u64("trials", 5);
  // 0 = hardware concurrency; 1 = the exact serial path (bit-for-bit).
  const auto threads = static_cast<unsigned>(args.get_u64("threads", 0));
  const std::string population = args.get_string("population", "");
  sim::GuardPolicy policy;
  policy.max_trial_failures = args.get_u64("max-trial-failures", 0);
  policy.trial_timeout_ms = args.get_double("trial-timeout-ms", 0.0);
  const std::string checkpoint = args.get_string("checkpoint", "");
  const std::uint64_t checkpoint_every = args.get_u64("checkpoint-every", 0);
  const bool resume = args.get_bool("resume", false);
  const bool supervised = args.get_bool("supervised", false);
  const auto shards = static_cast<unsigned>(args.get_u64("shards", 0));
  const std::uint64_t shard_mem_mb = args.get_u64("shard-mem-mb", 0);
  const std::uint64_t shard_cpu_s = args.get_u64("shard-cpu-s", 0);
  const auto shard_retries =
      static_cast<unsigned>(args.get_u64("shard-retries", 2));
  const std::uint64_t heartbeat_timeout_ms =
      args.get_u64("heartbeat-timeout-ms", 0);
  args.finish();
  RIT_CHECK_MSG(checkpoint.empty() ? !resume : true,
                "--resume requires --checkpoint=PATH");
  RIT_CHECK_MSG(checkpoint.empty() ? checkpoint_every == 0 : true,
                "--checkpoint-every requires --checkpoint=PATH");
  RIT_CHECK_MSG(policy.trial_timeout_ms >= 0.0,
                "--trial-timeout-ms must be >= 0");
  RIT_CHECK_MSG(supervised ||
                    (shards == 0 && shard_mem_mb == 0 && shard_cpu_s == 0 &&
                     heartbeat_timeout_ms == 0),
                "--shards/--shard-mem-mb/--shard-cpu-s/"
                "--heartbeat-timeout-ms require --supervised");
  if (!population.empty()) return run_with_population(s, population);

  const auto progress = [](std::uint64_t done, std::uint64_t total) {
    std::cerr << "\rtrial " << done << "/" << total << std::flush;
    if (done == total) std::cerr << "\n";
  };
  sim::GuardedResult result;
  if (!supervised && checkpoint.empty() && policy.max_trial_failures == 0 &&
      policy.trial_timeout_ms == 0.0) {
    // No robustness flags: the historical path, byte-identical output.
    result.metrics = sim::run_many_parallel(s, trials, threads, progress);
  } else {
    // A supervised run partitions by shard instead of thread; the binding
    // is the same (partition width), so in-process and supervised
    // checkpoints are interchangeable at matching counts.
    const unsigned resolved =
        supervised ? platform::resolve_shards(shards, trials)
                   : rit::resolve_threads(threads, trials);
    std::uint64_t config_hash = 0;
    std::unique_ptr<sim::CheckpointSession> session;
    if (!checkpoint.empty()) {
      // Bind the checkpoint to the full scenario (serialized config), the
      // trial count and the mechanism RNG stream; resuming under any other
      // setup must refuse.
      std::ostringstream cfg;
      sim::write_scenario(s, cfg);
      cfg << "trials " << trials << "\n";
      cfg << "stream " << core::kMechanismStreamVersion << "\n";
      config_hash = fnv1a64(cfg.str());
      sim::CheckpointSession::Params p;
      p.path = checkpoint;
      p.config_hash = config_hash;
      p.seed = s.seed;
      p.threads = resolved;
      p.trials = trials;
      p.every = checkpoint_every;
      p.resume = resume;
      session = std::make_unique<sim::CheckpointSession>(std::move(p));
    }
    if (supervised) {
      platform::SupervisorOptions sup;
      sup.shards = shards;
      sup.shard_mem_mb = shard_mem_mb;
      sup.shard_cpu_s = shard_cpu_s;
      sup.shard_retries = shard_retries;
      sup.heartbeat_timeout_ms = heartbeat_timeout_ms;
      sup.checkpoint_path = checkpoint;
      sup.checkpoint_every = checkpoint_every;
      sup.resume = resume;
      sup.config_hash = config_hash;
      sup.seed = s.seed;
      result = platform::run_many_supervised(s, trials, sup, policy,
                                             session.get(), /*point=*/0,
                                             progress);
    } else {
      result = sim::run_many_guarded(s, trials, resolved, policy,
                                     session.get(), /*point=*/0, progress);
    }
  }
  const sim::AggregateMetrics& agg = result.metrics;
  cli::Table t({"metric", "mean", "ci95", "min", "max"});
  const auto row = [&](const std::string& name, const stats::OnlineStats& st) {
    t.add_row({name, format_double(st.mean(), 4),
               format_double(st.ci95_half_width(), 4),
               format_double(st.min(), 4), format_double(st.max(), 4)});
  };
  row("avg_utility (auction phase)", agg.avg_utility_auction);
  row("avg_utility (RIT)", agg.avg_utility_rit);
  row("total_payment (auction phase)", agg.total_payment_auction);
  row("total_payment (RIT)", agg.total_payment_rit);
  row("solicitation_premium", agg.solicitation_premium);
  row("tasks_allocated", agg.tasks_allocated);
  row("runtime_ms (auction phase)", agg.runtime_auction_ms);
  row("runtime_ms (RIT)", agg.runtime_rit_ms);
  t.print(std::cout);
  std::cout << "success rate: " << format_double(agg.success_rate(), 3)
            << ", degraded-guarantee rate: "
            << format_double(agg.degraded_rate(), 3) << " over " << agg.trials
            << " trial(s)\n";
  // Fault report only when something actually faulted: default runs keep
  // their historical byte-identical output.
  if (agg.failed_trials > 0 || agg.quarantined_trials > 0) {
    std::cout << "faults: " << agg.failed_trials << " failed, "
              << agg.quarantined_trials << " quarantined ("
              << agg.attempted() << " attempted)\n"
              << result.faults.markdown();
  }
  return 0;
}

int mode_explain(cli::Args& args) {
  const sim::Scenario s = scenario_from_args(args);
  const std::uint64_t user_flag = args.get_u64("user", ~std::uint64_t{0});
  args.finish();

  const sim::TrialInstance inst = sim::make_instance(s, 0);
  rng::Rng rng(inst.mechanism_seed);
  const core::RitResult r =
      core::run_rit(inst.job, inst.population.truthful_asks, inst.tree,
                    s.mechanism, rng);
  if (!r.success) {
    std::cout << "allocation failed; all payments are zero\n";
    return 1;
  }
  std::uint32_t user = 0;
  if (user_flag != ~std::uint64_t{0}) {
    RIT_CHECK_MSG(user_flag < inst.population.size(), "--user out of range");
    user = static_cast<std::uint32_t>(user_flag);
  } else {
    for (std::uint32_t j = 1; j < inst.population.size(); ++j) {
      if (r.payment[j] - r.auction_payment[j] >
          r.payment[user] - r.auction_payment[user]) {
        user = j;
      }
    }
  }
  std::vector<TaskType> types(inst.population.size());
  for (std::uint32_t j = 0; j < inst.population.size(); ++j) {
    types[j] = inst.population.truthful_asks[j].type;
  }
  const core::PaymentExplanation e =
      core::explain_payment(inst.tree, types, r.auction_payment,
                            s.mechanism.discount_base, user);
  std::cout << e.render();
  const core::AuditReport audit = core::audit_payments(
      inst.tree, inst.population.truthful_asks, r, s.mechanism.discount_base);
  std::cout << "\nfull-run audit: " << (audit.ok ? "OK" : "VIOLATIONS")
            << " (total payment " << format_double(audit.total_payment, 2)
            << ", premium " << format_double(audit.solicitation_premium, 2)
            << ")\n";
  for (const std::string& v : audit.violations) std::cout << "  " << v << "\n";
  return audit.ok ? 0 : 2;
}

int mode_attack(cli::Args& args) {
  sim::Scenario s = scenario_from_args(args);
  const std::uint64_t trials = args.get_u64("trials", 50);
  const auto identities =
      static_cast<std::uint32_t>(args.get_u64("identities", 4));
  const double ask = args.get_double("ask", 0.0);  // 0 = truthful
  const std::uint64_t victim_flag = args.get_u64("victim", 0);
  args.finish();

  stats::OnlineStats honest;
  stats::OnlineStats attacked_stats;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    sim::TrialInstance inst = sim::make_instance(s, trial);
    RIT_CHECK_MSG(victim_flag < inst.population.size(), "--victim out of range");
    const auto victim = static_cast<std::uint32_t>(victim_flag);
    auto& vask = inst.population.truthful_asks[victim];
    if (vask.quantity < identities) vask.quantity = identities;
    const double cost = inst.population.costs[victim];
    const double attack_ask = ask > 0.0 ? ask : cost;

    {
      rng::Rng rng(inst.mechanism_seed);
      const auto r = core::run_rit(inst.job, inst.population.truthful_asks,
                                   inst.tree, s.mechanism, rng);
      honest.add(r.utility_of(victim, cost));
    }
    {
      rng::Rng plan_rng(inst.mechanism_seed ^ 0xa77ac);
      const auto plan =
          attack::random_plan(inst.tree, inst.population.truthful_asks, victim,
                              identities, attack_ask, plan_rng);
      const auto attacked = attack::apply_sybil(
          inst.tree, inst.population.truthful_asks, plan);
      rng::Rng rng(inst.mechanism_seed);
      const auto r = core::run_rit(inst.job, attacked.asks, attacked.tree,
                                   s.mechanism, rng);
      attacked_stats.add(attacked.attacker_utility(r, cost));
    }
  }
  std::cout << "victim P" << victim_flag + 1 << ", " << identities
            << " identities, ask "
            << (ask > 0.0 ? format_double(ask, 2) : std::string("truthful"))
            << ", " << trials << " trials\n";
  std::cout << "E[utility | honest] = " << format_double(honest.mean(), 4)
            << " +- " << format_double(honest.ci95_half_width(), 4) << "\n";
  std::cout << "E[utility | sybil]  = "
            << format_double(attacked_stats.mean(), 4) << " +- "
            << format_double(attacked_stats.ci95_half_width(), 4) << "\n";
  return 0;
}

int mode_dot(cli::Args& args) {
  const sim::Scenario s = scenario_from_args(args);
  const std::string out_path = args.get_string("out", "tree.dot");
  args.finish();
  const sim::TrialInstance inst = sim::make_instance(s, 0);
  tree::DotOptions opts;
  opts.name = "ritcs_scenario_tree";
  opts.color_group = [&](std::uint32_t node) {
    return static_cast<int>(
        inst.population.truthful_asks[tree::participant_of_node(node)]
            .type.value);
  };
  std::ofstream out(out_path);
  RIT_CHECK_MSG(out.good(), "cannot open " << out_path << " for writing");
  tree::write_dot(inst.tree, out, opts);
  std::cout << "wrote " << out_path << " (" << inst.tree.num_nodes()
            << " nodes; render with: dot -Tpdf " << out_path << ")\n";
  return 0;
}

int mode_trace(cli::Args& args) {
  sim::Scenario s = scenario_from_args(args);
  args.finish();
  s.mechanism.record_round_trace = true;
  const sim::TrialInstance inst = sim::make_instance(s, 0);
  rng::Rng rng(inst.mechanism_seed);
  const core::RitResult r =
      core::run_rit(inst.job, inst.population.truthful_asks, inst.tree,
                    s.mechanism, rng);
  for (const core::TypeAuctionInfo& info : r.type_info) {
    std::cout << "type " << info.type.value << ": demanded " << info.demanded
              << ", allocated " << info.allocated << ", budget "
              << info.budget.max_rounds << " round(s), bound "
              << format_double(info.budget.per_round_bound, 4) << "\n";
    cli::Table t({"round", "q_before", "raw_count", "consensus", "winners",
                  "price", "budget_price?"});
    for (const core::RoundTrace& round : info.rounds) {
      t.add_row({std::to_string(round.round), std::to_string(round.q_before),
                 std::to_string(round.raw_count),
                 std::to_string(round.consensus_count),
                 std::to_string(round.winners),
                 format_double(round.clearing_price, 3),
                 round.used_budget_price ? "yes" : "no"});
    }
    t.print(std::cout);
    std::cout << "\n";
  }
  std::cout << (r.success ? "allocation complete" : "ALLOCATION FAILED")
            << "; achieved truthfulness bound "
            << format_double(r.achieved_probability, 4) << "\n";
  return 0;
}

int mode_redteam(cli::Args& args) {
  sim::Scenario s = scenario_from_args(args);
  const std::uint64_t victim_flag = args.get_u64("victim", 7);
  const double cost = args.get_double("cost", 2.0);
  const std::uint64_t trials = args.get_u64("trials", 40);
  args.finish();

  sim::TrialInstance inst = sim::make_instance(s, 0);
  RIT_CHECK_MSG(victim_flag < inst.population.size(), "--victim out of range");
  const auto victim = static_cast<std::uint32_t>(victim_flag);
  inst.population.truthful_asks[victim].quantity = std::max<std::uint32_t>(
      inst.population.truthful_asks[victim].quantity, 6);
  inst.population.truthful_asks[victim].value = cost;

  attack::SearchSpace space;
  space.trials = trials;
  const attack::SearchResult result = attack::search_best_attack(
      inst.job, inst.population.truthful_asks, inst.tree, victim, cost,
      s.mechanism, space);

  std::cout << "red team vs P" << victim + 1 << " (cost "
            << format_double(cost, 2) << ", " << result.entries.size()
            << " strategies x " << trials << " trials)\n";
  std::cout << "honest expectation: " << format_double(result.honest_mean, 4)
            << " +- " << format_double(result.honest_ci95, 4) << "\n\n";
  cli::Table t({"rank", "identities", "topology", "ask", "E[utility]",
                "ci95"});
  const auto topo_name = [](attack::Topology topo) {
    switch (topo) {
      case attack::Topology::kChain:
        return "chain";
      case attack::Topology::kStar:
        return "star";
      case attack::Topology::kRandom:
        return "random";
    }
    return "?";
  };
  for (std::size_t i = 0; i < result.entries.size() && i < 8; ++i) {
    const attack::SearchEntry& e = result.entries[i];
    t.add_row({std::to_string(i + 1),
               std::to_string(e.candidate.identities),
               e.candidate.identities == 1 ? "-" : topo_name(e.candidate.topology),
               format_double(e.candidate.ask_value, 2),
               format_double(e.mean_utility, 4), format_double(e.ci95, 4)});
  }
  t.print(std::cout);
  const double gain = result.best_gain();
  std::cout << "\nbest gain over honesty: " << format_double(gain, 4)
            << " (slack " << format_double(result.gain_slack(), 4) << ") — "
            << (gain <= result.gain_slack() ? "no profitable attack found"
                                            : "EXPLOITABLE")
            << "\n";
  return 0;
}

int mode_report(cli::Args& args) {
  const sim::Scenario s = scenario_from_args(args);
  const std::string out_path = args.get_string("out", "");
  args.finish();
  const sim::TrialInstance inst = sim::make_instance(s, 0);
  rng::Rng rng(inst.mechanism_seed);
  const core::RitResult r =
      core::run_rit(inst.job, inst.population.truthful_asks, inst.tree,
                    s.mechanism, rng);
  const std::string report = sim::markdown_report(s, inst, r);
  if (out_path.empty()) {
    std::cout << report;
  } else {
    std::ofstream out(out_path);
    RIT_CHECK_MSG(out.good(), "cannot open " << out_path << " for writing");
    out << report;
    std::cout << "wrote " << out_path << "\n";
  }
  return r.success ? 0 : 1;
}

int mode_save(cli::Args& args) {
  const sim::Scenario s = scenario_from_args(args);
  const std::string out_path = args.get_string("out", "run.rec");
  args.finish();
  const sim::TrialInstance inst = sim::make_instance(s, 0);
  rng::Rng rng(inst.mechanism_seed);
  core::ExperimentRecord rec;
  rec.job = inst.job;
  rec.asks = inst.population.truthful_asks;
  rec.tree_parents = inst.tree.parents();
  rec.discount_base = s.mechanism.discount_base;
  rec.result = core::run_rit(inst.job, inst.population.truthful_asks,
                             inst.tree, s.mechanism, rng);
  core::write_record_file(rec, out_path);
  std::cout << "wrote " << out_path << " ("
            << rec.asks.size() << " users, success="
            << (rec.result.success ? "yes" : "no") << ")\n";
  return 0;
}

int mode_audit(cli::Args& args) {
  const std::string in_path = args.get_string("in", "");
  args.finish();
  RIT_CHECK_MSG(!in_path.empty(), "--mode=audit needs --in=FILE");
  const core::ExperimentRecord rec = core::read_record_file(in_path);
  const core::AuditReport report = core::audit_payments(
      rec.tree(), rec.asks, rec.result, rec.discount_base);
  std::cout << "record: " << rec.asks.size() << " users, "
            << rec.job.total_tasks() << " tasks, success="
            << (rec.result.success ? "yes" : "no") << "\n";
  std::cout << "total payment " << format_double(report.total_payment, 4)
            << " (auction " << format_double(report.total_auction_payment, 4)
            << ", premium " << format_double(report.solicitation_premium, 4)
            << ")\n";
  if (report.ok) {
    std::cout << "audit: OK — every payment re-derives from the recorded "
                 "inputs\n";
    return 0;
  }
  std::cout << "audit: " << report.violations.size() << " VIOLATION(S)\n";
  for (const std::string& v : report.violations) std::cout << "  " << v << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    cli::Args args(argc, argv);
    const std::string mode = args.get_string("mode", "run");
    if (mode == "config") {
      args.finish();
      return mode_config();
    }
    if (mode == "run") return mode_run(args);
    if (mode == "explain") return mode_explain(args);
    if (mode == "attack") return mode_attack(args);
    if (mode == "dot") return mode_dot(args);
    if (mode == "save") return mode_save(args);
    if (mode == "audit") return mode_audit(args);
    if (mode == "trace") return mode_trace(args);
    if (mode == "report") return mode_report(args);
    if (mode == "redteam") return mode_redteam(args);
    std::cerr << "unknown --mode=" << mode
              << " (want config|run|explain|attack|dot|save|audit|trace|"
                 "report|redteam)\n";
    return 2;
  } catch (const rit::CheckFailure& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
