#include "perfbench/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unordered_map>

#include "perfbench/harness.h"  // NowSeconds

namespace spade {
namespace perfbench {
namespace {

constexpr uint32_t kNoThread = ~0u;

/// This thread's open spans, innermost last.
thread_local std::vector<Span> open_spans;
thread_local uint32_t thread_index = kNoThread;

}  // namespace

uint64_t Tracer::Begin(const char* name, uint64_t request) {
  Span span;
  span.name = name;
  {
    std::lock_guard<std::mutex> lock(mu_);
    span.id = next_id_++;
    if (thread_index == kNoThread) thread_index = next_thread_++;
  }
  span.thread = thread_index;
  if (!open_spans.empty()) {
    span.parent = open_spans.back().id;
    span.request = request != 0 ? request : open_spans.back().request;
  } else {
    span.request = request;
  }
  span.start = NowSeconds();
  open_spans.push_back(span);
  return span.id;
}

void Tracer::End(uint64_t id) {
  const double end = NowSeconds();
  if (open_spans.empty() || open_spans.back().id != id) {
    // ScopedSpan nesting makes this impossible; End runs in a destructor.
    std::fprintf(stderr, "perfbench: span %llu closed out of order\n",
                 static_cast<unsigned long long>(id));
    std::abort();
  }
  Span span = open_spans.back();
  open_spans.pop_back();
  span.end = end;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(1000.0 * (s.end - s.start));
  }
  return out;
}

std::vector<double> Tracer::PerRequestMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, double> sums;
  for (const Span& s : spans_) {
    if (name == s.name) sums[s.request] += 1000.0 * (s.end - s.start);
  }
  std::vector<double> out;
  for (const auto& [request, ms] : sums) out.push_back(ms);
  return out;
}

std::vector<double> Tracer::ChildMs(const std::string& parent,
                                    const std::string& child) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, double> sums;
  for (const Span& s : spans_) {
    if (parent == s.name) sums[s.id] = 0;
  }
  for (const Span& s : spans_) {
    auto it = sums.find(s.parent);
    if (it != sums.end() && child == s.name) {
      it->second += 1000.0 * (s.end - s.start);
    }
  }
  std::vector<double> out;
  for (const auto& [id, ms] : sums) out.push_back(ms);
  return out;
}

std::vector<double> Tracer::SelfMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> kids;
  for (const Span& s : spans_) {
    if (s.parent != 0) kids[s.parent].emplace_back(s.start, s.end);
  }
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    // Union of the children's intervals, clipped to the span.
    auto it = kids.find(s.id);
    double covered = 0;
    if (it != kids.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double lo = s.start;
      for (const auto& [a, b] : intervals) {
        const double from = std::max(a, lo);
        const double to = std::min(b, s.end);
        if (to > from) {
          covered += to - from;
          lo = to;
        }
      }
    }
    out.push_back(1000.0 * (s.end - s.start - covered));
  }
  return out;
}

bool Tracer::Dump(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  double origin = spans_.empty() ? 0 : spans_.front().start;
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  for (const Span& s : spans_) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                  "\"name\": \"%s\", \"start_ms\": %.6f, \"end_ms\": %.6f, "
                  "\"thread\": %u}\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request), s.name,
                  1000.0 * (s.start - origin), 1000.0 * (s.end - origin),
                  s.thread);
    out << line;
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
}  // namespace spade
