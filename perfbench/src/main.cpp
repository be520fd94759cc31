// ritcs_perfbench: the repository benchmark runner.
//
//   ritcs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-dir <dir>]
//
// Protocol, identical for every workload:
//   1. set-up, three times: build the workload's market or grid from the
//      seed and run one checked warm-up op (always op 0). setup_s is the
//      median of the three; the first is timed from process start.
//   2. a closed loop of timed ops (the next op starts when the previous
//      one and its check are done) for --seconds of wall time, in whole
//      cycles of ops. One latency sample is one cycle: a single op, or a
//      sweep's pass over its 5 grid points. Every op's outputs are
//      checked, untimed.
//   3. with --trace 1, the loop runs untraced for the first half and
//      traced for the second; the traced half yields the per-layer numbers
//      and writes its spans to <trace-dir>/spans-<workload>-seed<n>.jsonl.
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics (end-to-end ones with --trace 0, per-layer ones with 1).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "perfbench.h"
#include "stats/timer.h"

namespace {

using perfbench::OpResult;
using perfbench::SpanNode;
using perfbench::Workload;

const auto g_process_start = std::chrono::steady_clock::now();
constexpr int kSetupReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_dir = ".";
};

bool parse_u64(const char* s, std::uint64_t& out) {
  if (*s == '\0') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || *s == '-') return false;
  out = v;
  return true;
}

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    std::uint64_t n = 0;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      if (!parse_u64(val, a.seed)) return false;
      have_seed = true;
    } else if (key == "--seconds") {
      if (!parse_u64(val, n) || n == 0) return false;
      a.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) return false;
      a.trace = val[0] == '1';
    } else if (key == "--trace-dir") {
      a.trace_dir = val;
    } else {
      return false;
    }
  }
  const auto& names = perfbench::workload_names();
  return have_workload && have_seed && have_seconds &&
         std::find(names.begin(), names.end(), a.workload) != names.end();
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2;
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Program counters the benchmark reads around each op, plus the CPU time
// of reaped child processes (the supervised sweep's shards).
struct Counters {
  double rounds = 0, winners = 0, launched = 0, retried = 0, child_cpu_s = 0;

  static Counters now() {
    auto& reg = rit::obs::Registry::global();
    rusage ru{};
    getrusage(RUSAGE_CHILDREN, &ru);
    Counters c;
    c.rounds = static_cast<double>(reg.counter("cra.rounds").value());
    c.winners = static_cast<double>(reg.counter("cra.winners").value());
    c.launched =
        static_cast<double>(reg.counter("platform.shards_launched").value());
    c.retried =
        static_cast<double>(reg.counter("platform.shards_retried").value());
    c.child_cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                    1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                               ru.ru_stime.tv_usec);
    return c;
  }
  void add_delta(const Counters& a, const Counters& b) {
    rounds += b.rounds - a.rounds;
    winners += b.winners - a.winners;
    launched += b.launched - a.launched;
    retried += b.retried - a.retried;
    child_cpu_s += b.child_cpu_s - a.child_cpu_s;
  }
};

// Everything one phase of the loop measured.
struct Phase {
  std::vector<double> latency_ms;    // per cycle
  std::vector<double> mechanism_ms;  // per cycle, mean over its ops
  double latency_sum_ms = 0;
  double check_ms = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t replays = 0;
  Counters during_ops;     // over the timed parts
  Counters during_checks;  // over the checks (and their replays)
  std::string failure;

  void absorb(const Phase& o) {
    attempted += o.attempted;
    failed += o.failed;
    if (failure.empty()) failure = o.failure;
  }
};

OpResult run_op(Workload& w, std::uint64_t index, Phase& ph) {
  const Counters c0 = Counters::now();
  OpResult r;
  bool threw = false;
  rit::stats::Timer timer;
  try {
    rit::obs::ScopedSpan span(perfbench::kSpanOp);
    r = w.timed_op(index);
  } catch (const std::exception& e) {
    threw = true;
    r.attempted = w.trials_per_op();
    r.failed = r.attempted;
    r.failure = std::string("op threw: ") + e.what();
  }
  r.latency_ms = timer.elapsed_ms();
  const Counters c1 = Counters::now();
  rit::stats::Timer check_timer;
  if (!threw) {
    try {
      w.check_op(r);
    } catch (const std::exception& e) {
      r.failed = r.attempted;
      r.failure = std::string("check threw: ") + e.what();
    }
  }
  ph.check_ms += check_timer.elapsed_ms();
  ph.during_ops.add_delta(c0, c1);
  ph.during_checks.add_delta(c1, Counters::now());
  ph.latency_sum_ms += r.latency_ms;
  ph.attempted += r.attempted;
  ph.failed += r.failed;
  ph.replays += r.replays;
  if (ph.failure.empty() && !r.failure.empty()) ph.failure = r.failure;
  return r;
}

// Runs whole cycles of ops until `seconds` of wall time have passed.
void run_phase(Workload& w, double seconds, std::uint64_t& next_index,
               Phase& ph) {
  const auto t0 = std::chrono::steady_clock::now();
  const unsigned cycle = w.ops_per_cycle();
  do {
    double latency_ms = 0, mechanism_ms = 0;
    for (unsigned k = 0; k < cycle; ++k) {
      const OpResult r = run_op(w, next_index++, ph);
      latency_ms += r.latency_ms;
      mechanism_ms += r.mechanism_ms;
    }
    ph.latency_ms.push_back(latency_ms);
    ph.mechanism_ms.push_back(mechanism_ms / cycle);
  } while (seconds_since(t0) < seconds);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Per-layer numbers from the traced phase. Times are per op (trial or
// clear); for a workload whose ops run in other processes they come from
// the check's in-process replays instead, one replayed trial per op.
std::vector<Metric> layer_metrics(const Workload& w, const Phase& plain,
                                  const Phase& traced,
                                  const std::vector<SpanNode>& spans,
                                  double check_ms_per_op) {
  const bool replays = w.layers_from_replays();
  const char* root = replays ? perfbench::kSpanReplay : perfbench::kSpanOp;
  const double units = static_cast<double>(replays ? traced.replays
                                                   : traced.attempted);
  const Counters& region = replays ? traced.during_checks : traced.during_ops;
  const double threads = replays ? 1.0 : static_cast<double>(w.workers());

  std::map<std::string, double> self_ms, total_ms, layer_self_ms;
  double root_wall_ms = 0, program_self_ms = 0, worker_busy_ms = 0,
         op_wall_ms = 0;
  for (const SpanNode& s : spans) {
    const double dur = 1e-6 * static_cast<double>(s.end_ns - s.begin_ns);
    const bool is_op = std::strcmp(s.name, perfbench::kSpanOp) == 0;
    if (is_op) op_wall_ms += dur;
    // Worker-thread roots under a timed op: the sweep engine's busy time.
    if (s.op >= 0 && std::strcmp(spans[s.op].name, perfbench::kSpanOp) == 0 &&
        s.parent >= 0 && spans[s.parent].tid != s.tid) {
      worker_busy_ms += dur;
    }
    if (s.op < 0 || std::strcmp(spans[s.op].name, root) != 0) continue;
    const double self = 1e-6 * static_cast<double>(s.self_ns);
    if (std::strcmp(s.name, root) == 0) root_wall_ms += dur;
    self_ms[s.name] += self;
    total_ms[s.name] += dur;
    layer_self_ms[perfbench::layer_of(s.name)] += self;
    if (std::strncmp(s.name, "bench.", 6) != 0) program_self_ms += self;
  }
  auto per_op = [&](double ms) { return ratio(ms, units); };
  const perfbench::WorkCounts& c = w.counts;
  const double shards = static_cast<double>(w.shards());
  return {
      {"core.cra_phase2_ms", per_op(self_ms["cra.phase2"]), "ms"},
      {"core.cra_phase1_ms", per_op(self_ms["cra.phase1"]), "ms"},
      {"core.extract_ms", per_op(self_ms["rit.extract"]), "ms"},
      {"core.payment_ms", per_op(self_ms["payment.extract"]), "ms"},
      {"core.auction_ms", per_op(total_ms["rit.auction_phase"]), "ms"},
      {"core.self_ms", per_op(layer_self_ms["core"]), "ms"},
      {"core.rounds_per_op", ratio(region.rounds, units), "count"},
      {"core.winners_per_round", ratio(region.winners, region.rounds), "count"},
      {"core.book_used_frac", ratio(c.consensus, c.units_entering), "frac"},
      {"core.units_per_user", ratio(c.units, c.users), "count"},
      {"graph.generate_ms", per_op(self_ms["graph.generate"]), "ms"},
      {"graph.edges", static_cast<double>(c.graph_edges), "count"},
      {"tree.build_ms", per_op(self_ms["tree.build"]), "ms"},
      {"tree.max_depth", static_cast<double>(c.max_tree_depth), "count"},
      {"sim.population_ms",
       per_op(self_ms["population.generate"] + self_ms["job.generate"]), "ms"},
      {"sim.self_ms", per_op(layer_self_ms["sim"]), "ms"},
      {"sim.worker_busy_frac",
       ratio(worker_busy_ms, static_cast<double>(w.workers()) * op_wall_ms),
       "frac"},
      {"platform.child_cpu_frac",
       ratio(traced.during_ops.child_cpu_s,
             shards * traced.latency_sum_ms / 1000.0),
       "frac"},
      {"platform.shards_launched", traced.during_ops.launched, "count"},
      {"platform.shards_retried", traced.during_ops.retried, "count"},
      {"check.invariants_ms", check_ms_per_op, "ms"},
      {"obs.trace_overhead_frac",
       ratio(median(traced.latency_ms), median(plain.latency_ms)) - 1.0,
       "frac"},
      {"obs.span_coverage", ratio(program_self_ms, threads * root_wall_ms),
       "frac"},
  };
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: ritcs_perfbench --workload <trial_1m|clear_tight|"
                 "sweep_paper|sweep_supervised> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-dir <dir>]\n");
    return 2;
  }

  // 1. Set-up, repeated; the last one's workload is the one measured. Every
  // set-up does the same work: its warm-up is op 0, and timed ops start
  // at op 1.
  Phase totals;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w.reset();
    const auto t0 = rep == 0 ? g_process_start : std::chrono::steady_clock::now();
    w = perfbench::make_workload(a.workload, a.seed);
    Phase warm;
    run_op(*w, 0, warm);
    totals.absorb(warm);
    setup_s.push_back(seconds_since(t0));
  }
  std::uint64_t next_index = 1;

  // 2./3. The loop: untraced, then (with --trace 1) traced.
  Phase plain, traced;
  run_phase(*w, a.trace ? a.seconds / 2 : a.seconds, next_index, plain);
  totals.absorb(plain);
  std::vector<SpanNode> spans;
  if (a.trace) {
    w->set_traced(true);
    rit::obs::start_tracing();
    run_phase(*w, a.seconds / 2, next_index, traced);
    rit::obs::stop_tracing();
    totals.absorb(traced);
    spans = perfbench::link_spans(rit::obs::collect_trace());
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const double ops_per_s =
      ratio(static_cast<double>(plain.attempted), plain.latency_sum_ms / 1000.0);

  std::vector<Metric> metrics;
  if (a.trace) {
    const double check_ms_per_op =
        ratio(plain.check_ms + traced.check_ms,
              static_cast<double>(plain.attempted + traced.attempted));
    metrics = layer_metrics(*w, plain, traced, spans, check_ms_per_op);
    const std::string path = a.trace_dir + "/spans-" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".jsonl";
    if (!perfbench::write_spans(path, spans)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
      return 1;
    }
    std::printf("# spans: %zu recorded, %llu dropped, written to %s\n",
                spans.size(),
                static_cast<unsigned long long>(rit::obs::dropped_spans()),
                path.c_str());
  } else {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"latency_ms_p50", median(plain.latency_ms), "ms"},
        {"mechanism_ms_p50", median(plain.mechanism_ms), "ms"},
        {"ops_per_s", ops_per_s, "1/s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  }

  // Human-readable report, then the result line.
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d host: nproc=%ld "
              "compiler=\"%s\" build=%s RIT_OBS_ENABLED=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
              __VERSION__, PERFBENCH_BUILD_TYPE, RIT_OBS_ENABLED);
  std::printf("# setup_s runs: %.4f %.4f %.4f\n", setup_s[0], setup_s[1],
              setup_s[2]);
  // The p90 is printed, not a result metric: only clear_tight takes enough
  // samples for ten of them to lie above it.
  const std::size_t n_samples = plain.latency_ms.size();
  std::printf("# latency samples: %zu untraced (%llu trials/clears), %zu "
              "traced; latency_ms_p90 %.4f with %zu samples above it\n",
              n_samples, static_cast<unsigned long long>(plain.attempted),
              traced.latency_ms.size(), percentile(plain.latency_ms, 90),
              n_samples - static_cast<std::size_t>(
                          std::ceil(0.9 * static_cast<double>(n_samples))));
  std::printf("# ops attempted=%llu failed=%llu ops_failed_frac=%s%s%s\n",
              static_cast<unsigned long long>(totals.attempted),
              static_cast<unsigned long long>(totals.failed),
              json_number(ratio(static_cast<double>(totals.failed),
                                static_cast<double>(totals.attempted)))
                  .c_str(),
              totals.failure.empty() ? "" : " first failure: ",
              totals.failure.c_str());
  rusage child_ru{};
  getrusage(RUSAGE_CHILDREN, &child_ru);
  std::printf("# peak RSS: %.1f MB in this process, %.1f MB in the largest "
              "child process\n",
              peak_rss_mb, static_cast<double>(child_ru.ru_maxrss) / 1024.0);
  std::printf("# first samples, latency/mechanism ms:");
  for (std::size_t i = 0; i < n_samples && i < 20; ++i) {
    std::printf(" %.1f/%.1f", plain.latency_ms[i], plain.mechanism_ms[i]);
  }
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("# %-26s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string line = "{\"correct\": ";
  line += totals.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(totals.attempted);
  line += ", \"failed\": " + std::to_string(totals.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
