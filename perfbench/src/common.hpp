// Shared pieces of the perfbench program: timing, order statistics, the
// result record every workload fills in, and the in-memory span log that
// traced runs write out as Chrome trace-event JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

struct Args {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;      ///< stop after set-up (cold set-up samples)
  std::string trace_out;        ///< Chrome trace path (traced runs)
};

// --- order statistics --------------------------------------------------------

double median(std::vector<double> v);
/// Sample coefficient of variation (stddev / mean).
double cv(const std::vector<double>& v);

/// The highest of p50/p75/p90/p95/p99/p99.9 that still has at least ten
/// samples above it (nearest rank), or nothing when n is too small.
struct Tail {
  double pct = 0;
  double value = 0;
  std::size_t beyond = 0;
};
std::optional<Tail> tail_percentile(std::vector<double> v);

/// Prints "<what>: median X ms, pNN Y ms (k beyond), n samples".
void print_timing(const std::string& what, const std::vector<double>& secs);

// --- result record -----------------------------------------------------------

/// What one process reports back to run.py. An operation is one training
/// step, inference batch or layer call; it fails if it throws.
struct Result {
  long attempted = 0;
  long failed = 0;
  bool correct = true;
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Bit pattern of the first training step's loss (the cross-process
  /// reproducibility check compares these).
  std::optional<std::uint32_t> first_loss_bits;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail_check(const std::string& why);

  /// Runs `op` as one counted operation; exceptions are counted, reported
  /// on stderr and swallowed. Returns whether it completed.
  template <class F>
  bool op(const char* what, F&& f) {
    ++attempted;
    try {
      f();
      return true;
    } catch (const std::exception& e) {
      note_failure(what, e.what());
    } catch (...) {
      note_failure(what, "unknown exception");
    }
    return false;
  }

  void print_json() const;

 private:
  void note_failure(const char* what, const char* msg);
};

std::uint32_t float_bits(float f);

/// Process peak resident set size in MiB (getrusage).
double peak_rss_mb();

// --- kernel / plan cache counters -------------------------------------------

struct CacheCounts {
  std::uint64_t kernel_misses = 0;
  std::uint64_t plan_misses = 0;
};
CacheCounts cache_counts();

// --- trace -------------------------------------------------------------------

/// One span per call into a library function: name, start, end, the span
/// that caused it and the step it belongs to. Spans stay in memory until
/// write_chrome().
struct Span {
  std::string name;
  Clock::time_point t0, t1;
  long parent = -1;
  long step = -1;
  double seconds() const { return seconds_between(t0, t1); }
};

class TraceLog {
 public:
  /// Opens a span starting now and returns its id.
  long open(std::string name, long parent = -1, long step = -1);
  void close(long id) {
    spans_.at(static_cast<std::size_t>(id)).t1 = Clock::now();
  }
  const Span& span(long id) const {
    return spans_.at(static_cast<std::size_t>(id));
  }
  /// Chrome trace-event JSON ("X" events, microseconds since the first span).
  void write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Adds to *sink the kernel-registry misses that happen during its
/// lifetime (a JIT while the clock runs; the traced run requires 0).
/// A null sink makes it a no-op.
class TimedRegionGuard {
 public:
  explicit TimedRegionGuard(std::uint64_t* sink);
  ~TimedRegionGuard();
  TimedRegionGuard(const TimedRegionGuard&) = delete;
  TimedRegionGuard& operator=(const TimedRegionGuard&) = delete;

 private:
  std::uint64_t* sink_;
  std::uint64_t start_ = 0;
};

/// Per-layer context shared by the traced sections of one process.
struct TraceContext {
  TraceLog log;
  std::uint64_t timed_misses = 0;
  /// Kernel/plan misses during the selected workload's set-up.
  std::optional<CacheCounts> setup_misses;
  /// Probed peak; set only when the probe's CV is within kPeakCvBound.
  std::optional<double> peak_gflops_core;
};

/// Records the cache misses since `before` as the set-up misses, unless an
/// earlier (the named) workload already did.
void note_setup_misses(TraceContext* tc, const CacheCounts& before);

// --- peak probe --------------------------------------------------------------

struct PeakResult {
  double gflops = 0;  ///< median over runs, one core
  double cv = 0;
  int runs = 0;
  int accumulators = 0;
  const char* isa = "";
};
/// Register-only FMA chain JIT'd through jit::Assembler, pinned to one core.
PeakResult measure_peak(int runs, double run_seconds);

/// The largest peak CV for which pct_peak is derived at all.
constexpr double kPeakCvBound = 0.05;

// --- workloads ---------------------------------------------------------------

constexpr int kThreads = 4;

void run_rn50(const Args& a, Result& r, TraceContext* tc);
void run_conv_sweep(const Args& a, Result& r, TraceContext* tc);
void run_dp3(const Args& a, Result& r, TraceContext* tc);

}  // namespace perfbench
