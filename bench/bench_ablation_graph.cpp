// Ablation: social-graph family (the Twitter-graph substitution).
//
// The incentive tree's depth profile controls how much the payment phase
// pays out (contributions decay with absolute depth). Barabási–Albert is
// the Twitter stand-in; Erdős–Rényi and Watts–Strogatz have thinner tails;
// star is the degenerate shallow extreme; path the deep extreme.
#include <vector>

#include "bench_support.h"
#include "common/parallel.h"
#include "graph/metrics.h"
#include "sim/parallel.h"
#include "sim/runner.h"
#include "sim/workload.h"
#include "stats/online_stats.h"

int main(int argc, char** argv) {
  using namespace rit;
  using namespace rit::bench;
  const BenchOptions opts = parse_options(argc, argv, "ablation_graph", 3,
                                          SweepRoute::kThreadsOnly);

  std::vector<std::vector<double>> rows;
  std::vector<std::string> labels;
  int kind_index = 0;
  for (const sim::GraphKind kind :
       {sim::GraphKind::kBarabasiAlbert, sim::GraphKind::kErdosRenyi,
        sim::GraphKind::kWattsStrogatz, sim::GraphKind::kStar,
        sim::GraphKind::kPath}) {
    sim::Scenario s;
    s.num_users = scaled(20000, opts.scale, 200);
    s.num_types = 10;
    s.tasks_per_type = scaled(1500, opts.scale, 10);
    apply_options(opts, s);
    s.graph = kind;

    struct Worker {
      stats::OnlineStats depth;
      stats::OnlineStats tail;  // out-degree max/mean: the hub-iness proxy
    };
    std::vector<Worker> workers(
        rit::resolve_threads(opts.sweep_flags.threads, opts.trials));
    sim::parallel_trials(
        opts.trials, workers, [&](Worker& wk, std::uint64_t t) {
          const sim::TrialInstance inst = sim::make_instance(s, t);
          wk.depth.add(static_cast<double>(inst.tree.max_depth()));
          rng::Rng graph_rng(s.trial_seed(t, 0));
          const graph::Graph g = sim::generate_graph(s, graph_rng);
          wk.tail.add(graph::out_degree_stats(g).max_over_mean);
        });
    stats::OnlineStats depth;
    stats::OnlineStats tail;
    for (const Worker& wk : workers) {
      depth.merge(wk.depth);
      tail.merge(wk.tail);
    }
    const sim::AggregateMetrics agg =
        run_point(opts, s);
    rows.push_back({static_cast<double>(kind_index), tail.mean(),
                    depth.mean(), agg.avg_utility_rit.mean(),
                    agg.solicitation_premium.mean(),
                    agg.total_payment_rit.mean()});
    labels.push_back(sim::to_string(kind));
    ++kind_index;
  }
  emit("Ablation — social-graph family (0=ba 1=er 2=ws 3=star 4=path)", opts,
       {"graph", "degree_tail", "tree_depth", "avg_utility", "premium",
        "total_payment"},
       rows);
  finish(opts);
  return 0;
}
