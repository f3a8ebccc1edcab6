// Measurement helpers of the benchmark: the host clock, order statistics,
// the simulated-result digest, and the span log of the traced run.
//
// Every host-time number comes from the process CPU clock, never from the
// wall clock: on a shared machine the wall clock also counts the time the
// process sat preempted.
#pragma once

#include <string>
#include <vector>

#include "common/units.hpp"

namespace perfbench {

using flare::f64;
using flare::u32;
using flare::u64;

/// Process CPU seconds (user + system) consumed so far.
f64 cpu_seconds();

/// Peak resident set size of this process in MiB.
f64 peak_rss_mb();

/// The q-quantile (0 <= q <= 1) of `v` by linear interpolation between
/// closest ranks (numpy's default).  `v` need not be sorted; 0 when empty.
f64 percentile(std::vector<f64> v, f64 q);

/// percentile(v, 0.5).
f64 median(std::vector<f64> v);

/// Rows are repeated measurements of the same parts, one column per part
/// (timed passes x instances), all of one length: the sum over columns of
/// the column minimum.  0 when empty.
f64 sum_of_minima(const std::vector<std::vector<f64>>& rows);

/// Folds `v` into the running digest `h` (order-sensitive).
void digest_mix(u64& h, u64 v);

/// Spans recorded by the traced run: name, start, end and the span that
/// was open when this one began (-1 for a root).  Times are process CPU
/// seconds.  A disabled log records nothing and costs one branch per call.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    f64 start = 0.0;
    f64 end = 0.0;
    std::string args;  ///< JSON object body without braces ("" = none)
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Opens a span nested in the innermost open one.
  void open(std::string name);
  /// Closes the innermost open span; `args` is attached to it.
  void close(std::string args = {});

  const std::vector<Span>& spans() const { return spans_; }
  /// Per span: its duration minus the time covered by its direct children.
  std::vector<f64> self_seconds() const;
  /// Sum of the durations of the spans called `name` whose index is at
  /// least `from`.
  f64 total_seconds(const std::string& name, std::size_t from = 0) const;
  /// Chrome trace-event JSON ("X" events, microsecond timestamps).
  std::string to_json() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name) : log_(log) {
    log_.open(std::move(name));
  }
  ~ScopedSpan() { log_.close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
};

/// Simulated durations of the balanced "iteration"-category spans in a
/// Chrome trace written by flare::obs::Tracer, in microseconds, in the
/// order they close.  An iteration span nested in another on the same row
/// (a host fallback finishing an in-network iteration) is part of that
/// iteration, not a sample of its own.  Sets `balanced` to false when an
/// end event has no open span on its row or a span is still open at the
/// end.
std::vector<f64> iteration_spans_us(const std::string& trace_json,
                                    bool* balanced);

}  // namespace perfbench
