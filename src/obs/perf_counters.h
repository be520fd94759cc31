// Hardware performance counters for per-phase and whole-run profiling.
//
// A fixed six-counter set (cycles, instructions, cache references/misses,
// branch misses, task-clock) is sampled via perf_event_open(2) and
// attributed to the same `subsystem.phase` spans the tracer records: when
// profiling is active, every ScopedSpan reads the calling thread's
// counters at entry and exit and accumulates the deltas into a per-phase
// table (see the detail hooks in obs/trace.h). An optional allocation
// hook (obs/alloc_hook.cpp, linked into the bench binaries) adds
// operator-new call/byte counts to the same table.
//
// Graceful degradation is the contract, not an afterthought: containers
// and hardened kernels routinely refuse perf_event_open (EPERM /
// kernel.perf_event_paranoid), and non-Linux platforms lack the syscall
// entirely. Every entry point works in that case — the phase table still
// carries span counts and allocation stats, and each unavailable counter
// is reported absent (perf_availability()) rather than zero-but-present,
// so the history ledger (obs/history.h) never records fake hardware data.
//
// Threading: counter file descriptors are per-thread (opened lazily on a
// thread's first profiled span) and the per-phase tables are thread-local,
// merged by name under a mutex only in collect_perf_phase_stats() — the
// same collect-after-join discipline as the span tracer.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rit::obs {

/// Indices into the fixed counter set. kPerfTaskClockNs is a software
/// event (nanoseconds on-CPU), usually available even when the hardware
/// PMU is not exposed; the first five are hardware events.
enum PerfCounterId : std::size_t {
  kPerfCycles = 0,
  kPerfInstructions,
  kPerfCacheRefs,
  kPerfCacheMisses,
  kPerfBranchMisses,
  kPerfTaskClockNs,
  kPerfNumCounters,
};

/// Stable snake_case name for counter `id` ("cycles", "instructions",
/// "cache_refs", "cache_misses", "branch_misses", "task_clock_ns") —
/// these are the keys the history ledger and bench_diff use.
const char* perf_counter_name(std::size_t id);

/// What this process can actually measure. `counter[i]` is true when the
/// run-level perf fd for counter i opened AND the kernel scheduled it for
/// a nonzero time (PMU-less VMs open hardware events that never count);
/// `alloc_hook` is true when obs/alloc_hook.cpp is linked into the binary.
struct PerfAvailability {
  std::array<bool, kPerfNumCounters> counter{};
  bool alloc_hook{false};
  bool any_hw() const {
    for (std::size_t i = 0; i < kPerfTaskClockNs; ++i) {
      if (counter[i]) return true;
    }
    return false;
  }
  bool any() const {
    if (alloc_hook) return true;
    for (bool b : counter) {
      if (b) return true;
    }
    return false;
  }
};

/// Availability as probed by the last start_perf_counters() call (all
/// false before the first start).
PerfAvailability perf_availability();

/// One-off probe: can this process open a task-clock perf event at all?
/// Cheap (open + close); does not require start_perf_counters().
bool perf_events_supported();

/// Begins counter profiling: opens the run-level (inherited) counter set,
/// clears the per-phase tables, and arms the ScopedSpan hooks. Safe to
/// call when perf_event_open is unavailable — availability just reads all
/// false and spans skip the sampling. Call before worker threads are
/// spawned so the run-level set inherits into them.
void start_perf_counters();

/// Disarms the span hooks and freezes the run-level totals. The phase
/// table and totals stay readable until the next start.
void stop_perf_counters();

/// True between start_perf_counters() and stop_perf_counters().
bool perf_counters_active();

/// Aggregate counter view of one span name (inclusive, like
/// PhaseStat::total_ms: nested spans contribute to their parents too).
struct PerfPhaseStat {
  std::string name;
  std::uint64_t count{0};
  /// Summed deltas per PerfCounterId; meaningful only where
  /// perf_availability().counter[i] is true.
  std::array<std::uint64_t, kPerfNumCounters> totals{};
  std::uint64_t alloc_count{0};
  std::uint64_t alloc_bytes{0};
};

/// Per-phase counter totals merged across all threads (live and exited),
/// sorted by name. Call after workers have joined.
std::vector<PerfPhaseStat> collect_perf_phase_stats();

/// Whole-run counter totals from the inherited run-level set (covers
/// every thread spawned after start_perf_counters), plus process-wide
/// allocation totals from the hook. A counter the kernel multiplexed is
/// scaled by its enabled/running time ratio.
struct PerfRunTotals {
  std::array<std::uint64_t, kPerfNumCounters> totals{};
  std::uint64_t alloc_count{0};
  std::uint64_t alloc_bytes{0};
};
PerfRunTotals perf_run_totals();

namespace detail {
/// Allocation-hook plumbing (called from obs/alloc_hook.cpp). note_alloc
/// must stay trivially cheap when profiling is idle: one relaxed load.
void note_alloc(std::size_t bytes) noexcept;
void mark_alloc_hook_linked() noexcept;
}  // namespace detail

}  // namespace rit::obs
