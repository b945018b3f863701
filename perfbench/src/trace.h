#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are opened around the
// benchmark's own calls into each library module (no instrumentation
// lives inside the library), kept in memory, and written out as JSON
// lines when the run ends. Only the driving thread records spans.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;         // index of the enclosing span, -1 at top level
  std::uint64_t op = 0;    // operation the span belongs to
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Starts a new operation id; spans opened until the next call share it.
  std::uint64_t NextOp() { return ++op_; }

  // Opens a span nested in the innermost open one; -1 when disabled.
  int Begin(const std::string& name);
  void End(int id);

  // Self time (duration minus the time covered by direct children) of
  // every closed span with this name, in ms, in recording order.
  std::vector<double> SelfMs(const std::string& name) const;
  // Sum of the durations of every closed span with this name, in ms.
  double TotalMs(const std::string& name) const;

  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::uint64_t op_ = 0;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
