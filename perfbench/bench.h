// Shared plumbing of the SkyDiver benchmark program: arguments, metric
// records, clocks, order statistics, output digests and the span recorder
// the traced runs time each layer with.
//
// Spans live only in the benchmark: each one brackets a call into a
// library layer (skyline, minhash, diversify, ...) made from the
// benchmark's own code, so the library itself carries no tracing.

#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/types.h"

namespace skybench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Toy sizes: the whole run takes seconds (the benchmark's self-test).
  bool smoke = false;
  /// Working directory for page files (inside the checkout).
  std::string workdir = ".";
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the result line's four keys.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Per-layer metrics of the layers this workload does not run; they are
  /// reported as 0. Any other per-layer metric missing is an error.
  std::vector<std::string> idle;

  void Set(const std::string& name, double value, const std::string& unit);
  /// A failed check: the run still reports, but `correct` turns false.
  void Fail(const std::string& why);
};

// ---- clocks -------------------------------------------------------------

/// Monotonic wall clock, seconds.
double WallSeconds();
/// CPU time of the whole process (every thread), seconds.
double ProcessCpuSeconds();
/// Peak resident set of the process so far, MiB.
double PeakRssMb();

// ---- order statistics ---------------------------------------------------

double Median(std::vector<double> values);
/// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);

// ---- output digests -----------------------------------------------------

/// FNV-1a over a skyline and the rows selected from it.
uint64_t Digest(std::span<const skydiver::RowId> skyline,
                std::span<const skydiver::RowId> selected);

// ---- spans --------------------------------------------------------------

/// In-memory span recorder for one thread. A span has a name, a start and
/// an end (seconds on WallSeconds' clock), the span open when it began (its
/// parent) and the operation it belongs to. Nothing is written until
/// WriteJsonLines, after the measurement ends.
class Trace {
 public:
  struct Span {
    const char* name = "";  // a string literal
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    uint64_t op = 0;
    double seconds() const { return end - start; }
  };

  /// RAII span: opened on construction, closed on destruction.
  class Scope {
   public:
    Scope(Trace& trace, const char* name, uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Trace& trace_;
    int id_;
  };

  const std::deque<Span>& spans() const { return spans_; }
  const Span& span(int id) const { return spans_[static_cast<size_t>(id)]; }

  /// Duration of `id` minus the time its direct children cover.
  double SelfSeconds(int id) const;
  /// Sum of the durations of the direct children of `id`.
  double ChildSeconds(int id) const;
  /// Summed self time of every span named `name` inside the subtree of
  /// root span `root` (the root included).
  double SelfSecondsIn(int root, std::string_view name) const;

  /// One JSON object per span.
  bool WriteJsonLines(const std::string& path) const;

 private:
  int Open(const char* name, uint64_t op);
  void Close(int id);
  /// One past the last span in the subtree of `id`.
  size_t SubtreeEnd(int id) const;

  std::deque<Span> spans_;  // a deque: opening a span never moves the others
  std::vector<int> open_;
};

/// Runs `fn` inside a span named `name` when `trace` is non-null; returns
/// the span's duration (0 untraced).
template <typename Fn>
double Timed(Trace* trace, const char* name, uint64_t op, Fn&& fn) {
  if (trace == nullptr) {
    fn();
    return 0.0;
  }
  int id = 0;
  {
    Trace::Scope span(*trace, name, op);
    id = span.id();
    fn();
  }
  return trace->span(id).seconds();
}

/// Span coverage of the traced operations (root spans named "op" lasting at
/// least `min_seconds`): the share of their wall time their child spans
/// cover, summed over all of them. Throws unless that share is at least 90%
/// and at most 1% of those operations are individually under 90% (a
/// preemption can land between two spans on a shared host).
double CheckSpanCoverage(const Trace& trace, double min_seconds);

// ---- errors -------------------------------------------------------------

/// The value of `result`; a library error aborts the run (no result line).
template <typename T>
T Must(skydiver::Result<T> result, const char* what) {
  if (!result.ok()) {
    throw std::runtime_error(std::string(what) + ": " + result.status().ToString());
  }
  return std::move(result).value();
}

inline void Must(const skydiver::Status& status, const char* what) {
  if (!status.ok()) throw std::runtime_error(std::string(what) + ": " + status.ToString());
}

// ---- workloads ----------------------------------------------------------

Outcome RunOneshot(const Args& args, bool disk);
Outcome RunServeMixed(const Args& args);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;
/// Writes each set-up's seconds to standard error.
void LogSetups(const std::vector<double>& seconds);
/// The paper's charge per demand page fault (EDBT'13 Section 5.1).
inline constexpr double kChargePerFaultMs = 8.0;

}  // namespace skybench
