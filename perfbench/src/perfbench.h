// Shared declarations of the ritcs benchmark runner.
//
// The runner (main.cpp) owns the measurement protocol: repeated set-up,
// a closed loop of timed ops, untimed output checks after every op, and
// the optional traced half. Each workload (workloads.cpp) owns what one
// op is. spans.cpp turns the collected trace into per-layer numbers.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/rit.h"
#include "core/types.h"
#include "obs/trace.h"
#include "testkit/fuzz_case.h"
#include "tree/incentive_tree.h"

namespace perfbench {

// The benchmark's own span names. Spans named `bench.<layer>.<call>` wrap
// one public call into <layer> on the thread that does the work, so their
// self time is charged to that layer; the others are harness spans.
inline constexpr const char* kSpanOp = "bench.op";
inline constexpr const char* kSpanCheck = "bench.check";
inline constexpr const char* kSpanReplay = "bench.replay";
inline constexpr const char* kSpanSweepPoint = "bench.sweep_point";
inline constexpr const char* kSpanMakeInstance = "bench.sim.make_instance";
inline constexpr const char* kSpanRunRit = "bench.core.run_rit_into";

// Work counts behind the phase times, gathered from the mechanism results
// the benchmark itself holds (with RitConfig::record_round_trace on).
struct WorkCounts {
  double users = 0;
  double units = 0;           // sum of k_j over users
  double consensus = 0;       // sum of consensus counts over rounds
  double units_entering = 0;  // sum of unit asks entering each round
  std::uint32_t max_tree_depth = 0;
  std::uint64_t graph_edges = 0;

  void observe(std::span<const rit::core::Ask> asks,
               const rit::core::RitResult& result,
               const rit::tree::IncentiveTree& tree);
};

// One timed op and the verdict of its untimed check.
struct OpResult {
  double latency_ms = 0;       // timed wall time of the op
  double mechanism_ms = 0;     // run_rit share of it (per mechanism run)
  std::uint64_t attempted = 0; // trials or clears the op ran
  std::uint64_t failed = 0;    // of those, failed a check or threw
  std::uint64_t replays = 0;   // in-process trial replays made by the check
  std::string failure;         // first failure, for the report
};

// A workload's constructor builds its market or grid from the seed; the
// runner times construction as part of set-up.
class Workload {
 public:
  virtual ~Workload() = default;
  // Runs op `index` (fresh inputs per index) and times it.
  virtual OpResult timed_op(std::uint64_t index) = 0;
  // Checks the outputs of the op just timed; adds failures to `r`.
  virtual void check_op(OpResult& r) = 0;
  // Turns per-round traces on for the traced half and feeds `counts`.
  virtual void set_traced(bool on) = 0;
  // Ops in one latency sample (the grid size for the sweeps).
  virtual unsigned ops_per_cycle() const { return 1; }
  // Trials or clears one op runs (what an op that throws counts as failed).
  virtual std::uint64_t trials_per_op() const { return 1; }
  // Threads that run the op's work concurrently.
  virtual unsigned workers() const { return 1; }
  // True when the op's own work runs in other processes, so that its
  // layer numbers come from the check's in-process replays instead.
  virtual bool layers_from_replays() const { return false; }
  // Shard processes per op (0 when the op forks nothing).
  virtual unsigned shards() const { return 0; }

  WorkCounts counts;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);
const std::vector<std::string>& workload_names();

// Checks mechanism results on one market: testkit::check_invariants (the
// paper's pathwise invariants), plus success and a fully allocated job.
class ResultChecker {
 public:
  ResultChecker(const rit::core::Job& job,
                std::span<const rit::core::Ask> asks,
                std::span<const double> costs,
                const rit::tree::IncentiveTree& tree,
                const rit::core::RitConfig& config);
  // Empty when every check holds, else the first failure.
  std::string check(std::uint64_t mechanism_seed,
                    const rit::core::RitResult& result);

 private:
  rit::testkit::FuzzCase case_;
  std::uint64_t total_tasks_;
};

// ---- span analysis (spans.cpp) ----

struct SpanNode {
  const char* name;
  std::uint64_t begin_ns;
  std::uint64_t end_ns;
  std::uint32_t tid;
  std::int64_t parent;  // index into the span vector, -1 for a root
  std::int64_t op;      // index of the enclosing bench.op/bench.replay, or -1
  std::uint64_t self_ns;
};

// Links every recorded span to its parent: the innermost enclosing span on
// its own thread, or, for a worker thread's root, the innermost span of the
// main thread that encloses it in time.
std::vector<SpanNode> link_spans(const std::vector<rit::obs::TraceEvent>& ev);

// Writes the spans as JSON lines (name, tid, start, end, parent, op, self).
bool write_spans(const std::string& path, const std::vector<SpanNode>& spans);

// Layer of a span name: graph, tree, sim, core, bench (harness), or other.
std::string layer_of(const char* name);

}  // namespace perfbench
