// Span linking for the traced run: parents, op ids and self times over the
// events obs::collect_trace() returns.
#include <algorithm>
#include <cstdio>
#include <cstring>

#include "perfbench.h"

namespace perfbench {

namespace {

bool starts_with(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

bool is_op_root(const char* name) {
  return std::strcmp(name, kSpanOp) == 0 || std::strcmp(name, kSpanReplay) == 0;
}

}  // namespace

std::vector<SpanNode> link_spans(const std::vector<rit::obs::TraceEvent>& ev) {
  std::vector<SpanNode> spans;
  spans.reserve(ev.size());
  for (const auto& e : ev) {
    spans.push_back(SpanNode{e.name, e.begin_ns, e.end_ns, e.tid, -1, -1, 0});
  }
  // The main thread is the one that records bench.op.
  std::uint32_t main_tid = 0;
  for (const SpanNode& s : spans) {
    if (std::strcmp(s.name, kSpanOp) == 0) {
      main_tid = s.tid;
      break;
    }
  }
  // collect_trace() sorts by (tid, begin, end desc), so a stack per thread
  // finds each span's innermost enclosing span on that thread.
  std::vector<std::int64_t> stack;
  std::vector<std::int64_t> main_spans;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i == 0 || spans[i].tid != spans[i - 1].tid) stack.clear();
    while (!stack.empty() && spans[stack.back()].end_ns < spans[i].end_ns) {
      stack.pop_back();
    }
    if (!stack.empty()) spans[i].parent = stack.back();
    stack.push_back(static_cast<std::int64_t>(i));
    if (spans[i].tid == main_tid) main_spans.push_back(static_cast<std::int64_t>(i));
  }
  // A worker thread's root was caused by the main-thread span enclosing it.
  for (SpanNode& s : spans) {
    if (s.parent >= 0 || s.tid == main_tid) continue;
    for (std::int64_t d : main_spans) {
      const SpanNode& c = spans[d];
      if (c.begin_ns <= s.begin_ns && s.end_ns <= c.end_ns) s.parent = d;
    }
  }
  // Self time subtracts children on the same thread only: a main-thread span
  // waiting on workers keeps its wait as self time.
  for (SpanNode& s : spans) s.self_ns = s.end_ns - s.begin_ns;
  for (const SpanNode& s : spans) {
    if (s.parent < 0) continue;
    SpanNode& p = spans[s.parent];
    if (p.tid == s.tid) p.self_ns -= std::min(p.self_ns, s.end_ns - s.begin_ns);
  }
  // A worker root may point at any main-thread span, so resolve op ids by
  // walking up.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::int64_t cur = static_cast<std::int64_t>(i);
    while (cur >= 0 && !is_op_root(spans[cur].name)) cur = spans[cur].parent;
    spans[i].op = cur;
  }
  return spans;
}

bool write_spans(const std::string& path, const std::vector<SpanNode>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanNode& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"tid\":%u,\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"parent\":%lld,\"op\":%lld,"
                 "\"self_ns\":%llu}\n",
                 s.name, s.tid, static_cast<unsigned long long>(s.begin_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.op),
                 static_cast<unsigned long long>(s.self_ns));
  }
  return std::fclose(f) == 0;
}

std::string layer_of(const char* name) {
  if (starts_with(name, "bench.")) {
    const char* rest = name + std::strlen("bench.");
    const char* dot = std::strchr(rest, '.');
    return dot == nullptr ? "bench" : std::string(rest, dot);
  }
  if (starts_with(name, "graph.")) return "graph";
  if (starts_with(name, "tree.")) return "tree";
  if (starts_with(name, "sim.") || starts_with(name, "population.") ||
      starts_with(name, "job.")) {
    return "sim";
  }
  if (starts_with(name, "rit.") || starts_with(name, "cra.") ||
      starts_with(name, "payment.")) {
    return "core";
  }
  return "other";
}

}  // namespace perfbench
