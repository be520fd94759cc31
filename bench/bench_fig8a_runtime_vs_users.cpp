// Fig. 8(a): running time vs number of users.
// Expected shape: approximately linear in n for both series (Theorem 3:
// O(N |J|)); the payment determination phase adds only O(N + |S| log W) on
// top, for W winners whose ancestor union is S.
#include "figure_sweeps.h"

int main(int argc, char** argv) {
  using namespace rit::bench;
  const BenchOptions opts =
      parse_options(argc, argv, "fig8a_runtime_vs_users", 3);
  std::vector<std::vector<double>> rows;
  for (const SweepPoint& p : run_user_sweep(opts)) {
    rows.push_back({static_cast<double>(p.x),
                    p.metrics.runtime_auction_ms.mean(),
                    p.metrics.runtime_rit_ms.mean(),
                    p.metrics.runtime_rit_ms.min(),
                    p.metrics.runtime_rit_ms.max(),
                    p.metrics.runtime_rit_ms.ci95_half_width()});
  }
  const std::vector<std::string> header{"users(paper)", "auction_phase_ms",
                                        "RIT_ms", "RIT_min_ms", "RIT_max_ms",
                                        "RIT_ci95"};
  emit("Fig. 8(a) — running time (ms) vs number of users", opts, header,
       rows);
  emit_svg("Fig. 8(a): running time vs users", opts, header, rows, {1, 2});
  finish(opts);
  return 0;
}
