#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans.
  std::string trace_dir = ".bench_build/traces";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: the last stdout line is built from it.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Marks the run incorrect and says why on stderr.
  void Fail(const std::string& why);

  /// Adds `overhead.<name>` = traced - untraced for each metric.
  void AddOverhead(const std::vector<Metric>& untraced,
                   const std::vector<Metric>& traced);
};

// ---- Time ----

using SteadyTime = std::chrono::steady_clock::time_point;

inline SteadyTime Now() { return std::chrono::steady_clock::now(); }

inline int64_t Nanos(SteadyTime t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

inline int64_t NowNanos() { return Nanos(Now()); }

inline double SecondsBetween(SteadyTime a, SteadyTime b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- Statistics ----

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Bit-exact equality of two doubles (NaN payloads included).
bool SameBits(double a, double b);

/// Length of the union of [start, end) intervals, each clipped to
/// [lo, hi).
int64_t CoveredNanos(std::vector<std::pair<int64_t, int64_t>> intervals,
                     int64_t lo, int64_t hi);

// ---- Tracing ----

/// One timed interval recorded around a call into a layer.
struct Span {
  std::string name;
  int64_t op = -1;      ///< Request or op id; spans of one op share it.
  int64_t parent = -1;  ///< Index of the causing span, -1 for a root.
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double Millis() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// In-memory span recorder. Disabled tracers record nothing and cost one
/// branch per call, so workloads call it unconditionally. Thread-safe:
/// explainer batches record from pool threads.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span now; returns its index (-1 when disabled).
  int64_t Begin(const std::string& name, int64_t op, int64_t parent = -1);
  void End(int64_t span);
  /// Records an already measured interval; returns its index.
  int64_t Record(const std::string& name, int64_t op, int64_t parent,
                 int64_t start_ns, int64_t end_ns);

  std::vector<Span> Spans() const;

  /// Duration minus the part of it covered by the span's children.
  static std::vector<double> SelfMillis(const std::vector<Span>& spans);

  /// Durations (ms) of every span called `name`.
  static std::vector<double> Durations(const std::vector<Span>& spans,
                                       const std::string& name);

  /// Writes the spans (with self time) as JSON lines plus a per-root-kind
  /// self-time summary to stderr. Returns false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t op,
             int64_t parent = -1)
      : tracer_(tracer), index_(tracer->Begin(name, op, parent)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int64_t index_;
};

// ---- Workloads ----

Outcome RunServeOpenLoop(const Args& args, Tracer* tracer);
Outcome RunExplainFig6(const Args& args, Tracer* tracer);
Outcome RunTrainFold(const Args& args, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
