#ifndef SPADE_PERFBENCH_TRACE_H_
#define SPADE_PERFBENCH_TRACE_H_

/// \file trace.h
/// \brief The benchmark's in-memory span recorder.
///
/// Spans are recorded only in the benchmark's own files, around calls into
/// a module's public functions; nothing inside the program is instrumented.
/// A span carries its name, start, end, parent span and request id. A span
/// opened while another is open on the same thread becomes its child and
/// inherits its request id. Spans stay in memory until Dump().
///
/// A layer's self time is its span's duration minus the part of that
/// interval its child spans cover.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace spade {
namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t request = 0;
  const char* name = "";  ///< static string
  double start = 0;       ///< seconds, steady clock
  double end = 0;
  uint32_t thread = 0;
};

class Tracer {
 public:
  /// Open a span on this thread. `request` 0 inherits the parent's id.
  uint64_t Begin(const char* name, uint64_t request);
  /// Close the innermost open span of this thread (which must be `id`).
  void End(uint64_t id);

  /// Durations in ms of every span called `name`, in completion order.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Per request id, the summed duration in ms of its spans called `name`
  /// (requests without such a span are left out), in request-id order.
  std::vector<double> PerRequestMs(const std::string& name) const;
  /// Per span called `parent`, the summed duration in ms of its direct
  /// children called `child`.
  std::vector<double> ChildMs(const std::string& parent,
                              const std::string& child) const;
  /// Self times in ms of every span called `name`.
  std::vector<double> SelfMs(const std::string& name) const;

  /// Write every span as one JSON object per line.
  bool Dump(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
  uint64_t next_id_ = 1;     ///< guarded by mu_
  uint32_t next_thread_ = 0; ///< guarded by mu_
};

/// RAII span; a null tracer records nothing (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request = 0)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint64_t id_;
};

}  // namespace perfbench
}  // namespace spade

#endif  // SPADE_PERFBENCH_TRACE_H_
