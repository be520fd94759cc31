#include "obs/perf_counters.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <mutex>

#include "obs/trace.h"

#ifdef __linux__
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace rit::obs {

namespace detail {
std::atomic<bool> g_perf_active{false};
}  // namespace detail

namespace {

const char* const kCounterNames[kPerfNumCounters] = {
    "cycles",        "instructions",  "cache_refs",
    "cache_misses",  "branch_misses", "task_clock_ns",
};

std::atomic<bool> g_alloc_hook_linked{false};
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

// Thread-local allocation counters feed the per-span deltas without any
// cross-thread traffic; the global atomics above feed the run totals.
// Plain trivially-initialized thread_locals: note_alloc can run during
// thread startup, before any dynamic TLS constructor would have run.
thread_local std::uint64_t t_alloc_count = 0;
thread_local std::uint64_t t_alloc_bytes = 0;

#ifdef __linux__

struct CounterConfig {
  std::uint32_t type;
  std::uint64_t config;
};

const CounterConfig kConfigs[kPerfNumCounters] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
    {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK},
};

// User-space-only events maximize availability under perf_event_paranoid
// (level 2, the common container default where it is permitted at all,
// still allows self-monitoring without kernel samples).
int open_counter(std::size_t id, bool inherit) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = kConfigs[id].type;
  attr.config = kConfigs[id].config;
  attr.disabled = 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.inherit = inherit ? 1 : 0;
  // Per-thread span counters are pinned: read around short spans, an
  // unpinned event loses every multiplexing slot to the run-level set and
  // would never run. A pinned event that cannot fit the PMU goes into an
  // error state whose reads fail, so it reports absent, never zero.
  attr.pinned = inherit ? 0 : 1;
  // Enabled/running times expose counters that opened but were never
  // scheduled (PMU-less VMs) and let multiplexed counts be scaled up.
  attr.read_format =
      PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  const long fd = syscall(SYS_perf_event_open, &attr, /*pid=*/0, /*cpu=*/-1,
                          /*group_fd=*/-1, /*flags=*/0UL);
  return static_cast<int>(fd);
}

/// One read of a counter fd: the count scaled by enabled/running time (a
/// multiplexed counter only ran for part of the window), and whether the
/// kernel ever scheduled it at all. A counter with zero running time has
/// measured nothing — it is absent, not zero.
struct CounterRead {
  std::uint64_t value{0};
  bool ran{false};
};

CounterRead read_counter(int fd) {
  std::uint64_t buf[3] = {0, 0, 0};  // value, time_enabled, time_running
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n == static_cast<ssize_t>(sizeof(buf))) break;
    if (n < 0 && errno == EINTR) continue;
    return {};  // short read / error: treat as no data, never fail the run
  }
  const std::uint64_t value = buf[0];
  const std::uint64_t enabled = buf[1];
  const std::uint64_t running = buf[2];
  if (running == 0) return {};
  if (running >= enabled) return {value, true};
  const double scaled = static_cast<double>(value) *
                        (static_cast<double>(enabled) /
                         static_cast<double>(running));
  return {static_cast<std::uint64_t>(scaled), true};
}

#endif  // __linux__

struct PhaseAccum {
  std::uint64_t count{0};
  std::array<std::uint64_t, kPerfNumCounters> totals{};
  std::uint64_t alloc_count{0};
  std::uint64_t alloc_bytes{0};

  void merge(const PhaseAccum& other) {
    count += other.count;
    for (std::size_t i = 0; i < kPerfNumCounters; ++i) {
      totals[i] += other.totals[i];
    }
    alloc_count += other.alloc_count;
    alloc_bytes += other.alloc_bytes;
  }
};

// Field-coverage guard for merge(): count + six counters + two alloc
// fields. A new field added without extending merge() would silently drop
// from the retired-phase fold — this fires and points here instead.
static_assert(sizeof(PhaseAccum) ==
                  (3 + kPerfNumCounters) * sizeof(std::uint64_t),
              "PhaseAccum changed shape: update merge() so no field is "
              "dropped from per-thread phase folds");

struct ThreadPerf;

// Registry of live per-thread profiling state plus totals folded in from
// exited threads — the same live/retired split the span tracer uses.
std::mutex g_perf_mutex;
std::vector<ThreadPerf*>& live_perf() {
  static std::vector<ThreadPerf*> v;
  return v;
}
std::map<std::string, PhaseAccum>& retired_phases() {
  static std::map<std::string, PhaseAccum> m;
  return m;
}

// One reading of the run-level set: totals plus, per counter, whether the
// kernel ever scheduled it (an fd that opened but never ran is absent).
struct RunRead {
  PerfRunTotals totals;
  std::array<bool, kPerfNumCounters> ran{};
};

// Run-level (inherited) counter set, owned by whichever thread called
// start_perf_counters(). Guarded by g_perf_mutex.
struct RunSet {
  std::array<int, kPerfNumCounters> fd;
  RunRead frozen;
  bool frozen_valid{false};
  std::uint64_t alloc_count_at_start{0};
  std::uint64_t alloc_bytes_at_start{0};
  RunSet() { fd.fill(-1); }
};
RunSet& run_set() {
  static RunSet* s = new RunSet();  // leaked: outlives all users
  return *s;
}

struct ThreadPerf {
  std::array<int, kPerfNumCounters> fd;
  bool opened{false};
  // Keyed by the span's static name pointer on the hot path; folded into
  // the by-name retired map when the thread exits or collect runs.
  std::map<const char*, PhaseAccum> phases;

  ThreadPerf() {
    fd.fill(-1);
    std::lock_guard<std::mutex> lock(g_perf_mutex);
    live_perf().push_back(this);
  }

  ~ThreadPerf() {
    std::lock_guard<std::mutex> lock(g_perf_mutex);
    auto& live = live_perf();
    live.erase(std::remove(live.begin(), live.end(), this), live.end());
    for (const auto& [name, accum] : phases) {
      retired_phases()[name].merge(accum);
    }
    close_fds();
  }

  void open_fds() {
    if (opened) return;
    opened = true;
#ifdef __linux__
    for (std::size_t i = 0; i < kPerfNumCounters; ++i) {
      fd[i] = open_counter(i, /*inherit=*/false);
    }
#endif
  }

  void close_fds() {
#ifdef __linux__
    for (int& f : fd) {
      if (f >= 0) close(f);
      f = -1;
    }
#endif
    opened = false;
  }
};

ThreadPerf& thread_perf() {
  thread_local ThreadPerf tp;
  return tp;
}

void read_all(ThreadPerf& tp, std::uint64_t out[kPerfNumCounters]) {
  for (std::size_t i = 0; i < kPerfNumCounters; ++i) {
#ifdef __linux__
    out[i] = tp.fd[i] >= 0 ? read_counter(tp.fd[i]).value : 0;
#else
    (void)tp;
    out[i] = 0;
#endif
  }
}

}  // namespace

const char* perf_counter_name(std::size_t id) {
  return id < kPerfNumCounters ? kCounterNames[id] : "unknown";
}

namespace {

RunRead read_run_locked() {
  RunSet& rs = run_set();
  if (rs.frozen_valid) return rs.frozen;
  RunRead r;
  for (std::size_t i = 0; i < kPerfNumCounters; ++i) {
#ifdef __linux__
    if (rs.fd[i] < 0) continue;
    const CounterRead c = read_counter(rs.fd[i]);
    r.totals.totals[i] = c.value;
    r.ran[i] = c.ran;
#endif
  }
  r.totals.alloc_count = g_alloc_count.load(std::memory_order_relaxed) -
                         rs.alloc_count_at_start;
  r.totals.alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed) -
                         rs.alloc_bytes_at_start;
  return r;
}

}  // namespace

PerfAvailability perf_availability() {
  PerfAvailability a;
  a.alloc_hook = g_alloc_hook_linked.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(g_perf_mutex);
  a.counter = read_run_locked().ran;
  return a;
}

bool perf_events_supported() {
#ifdef __linux__
  const int fd = open_counter(kPerfTaskClockNs, /*inherit=*/false);
  if (fd < 0) return false;
  close(fd);
  return true;
#else
  return false;
#endif
}

void start_perf_counters() {
  std::lock_guard<std::mutex> lock(g_perf_mutex);
  RunSet& rs = run_set();
  for (std::size_t i = 0; i < kPerfNumCounters; ++i) {
#ifdef __linux__
    // A fresh fd per run: its enabled/running times then cover exactly
    // this run, which the availability and multiplex scaling rely on.
    if (rs.fd[i] >= 0) close(rs.fd[i]);
    rs.fd[i] = open_counter(i, /*inherit=*/true);
#endif
  }
  rs.frozen_valid = false;
  rs.alloc_count_at_start = g_alloc_count.load(std::memory_order_relaxed);
  rs.alloc_bytes_at_start = g_alloc_bytes.load(std::memory_order_relaxed);
  for (ThreadPerf* tp : live_perf()) tp->phases.clear();
  retired_phases().clear();
  detail::g_perf_active.store(true, std::memory_order_relaxed);
}

void stop_perf_counters() {
  detail::g_perf_active.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(g_perf_mutex);
  RunSet& rs = run_set();
  rs.frozen = read_run_locked();
  rs.frozen_valid = true;
}

bool perf_counters_active() {
  return detail::g_perf_active.load(std::memory_order_relaxed);
}

std::vector<PerfPhaseStat> collect_perf_phase_stats() {
  std::map<std::string, PhaseAccum> merged;
  std::array<bool, kPerfNumCounters> ran{};
  {
    std::lock_guard<std::mutex> lock(g_perf_mutex);
    ran = read_run_locked().ran;
    merged = retired_phases();
    for (const ThreadPerf* tp : live_perf()) {
      for (const auto& [name, accum] : tp->phases) {
        merged[name].merge(accum);
      }
    }
  }
  std::vector<PerfPhaseStat> out;
  out.reserve(merged.size());
  for (const auto& [name, accum] : merged) {
    PerfPhaseStat s;
    s.name = name;
    s.count = accum.count;
    // An absent counter reports nothing, not a zero that looks measured.
    for (std::size_t i = 0; i < kPerfNumCounters; ++i) {
      s.totals[i] = ran[i] ? accum.totals[i] : 0;
    }
    s.alloc_count = accum.alloc_count;
    s.alloc_bytes = accum.alloc_bytes;
    out.push_back(std::move(s));
  }
  return out;
}

PerfRunTotals perf_run_totals() {
  std::lock_guard<std::mutex> lock(g_perf_mutex);
  return read_run_locked().totals;
}

namespace detail {

PerfSpanToken perf_span_begin() {
  ThreadPerf& tp = thread_perf();
  tp.open_fds();
  PerfSpanToken t{};
  read_all(tp, t.v);
  t.v[6] = t_alloc_count;
  t.v[7] = t_alloc_bytes;
  return t;
}

void perf_span_end(const char* name, const PerfSpanToken& token) {
  ThreadPerf& tp = thread_perf();
  std::uint64_t now[kPerfNumCounters];
  read_all(tp, now);
  PhaseAccum& accum = tp.phases[name];
  ++accum.count;
  for (std::size_t i = 0; i < kPerfNumCounters; ++i) {
    // Counters are monotone per fd; the guard protects against a counter
    // that opened mid-span (reads 0 at begin, huge at end would be wrong
    // only if begin read failed — in that case both reads are 0).
    if (now[i] > token.v[i]) accum.totals[i] += now[i] - token.v[i];
  }
  if (t_alloc_count > token.v[6]) accum.alloc_count += t_alloc_count - token.v[6];
  if (t_alloc_bytes > token.v[7]) accum.alloc_bytes += t_alloc_bytes - token.v[7];
}

void note_alloc(std::size_t bytes) noexcept {
  if (!g_perf_active.load(std::memory_order_relaxed)) return;
  t_alloc_count += 1;
  t_alloc_bytes += bytes;
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void mark_alloc_hook_linked() noexcept {
  g_alloc_hook_linked.store(true, std::memory_order_relaxed);
}

}  // namespace detail

}  // namespace rit::obs
