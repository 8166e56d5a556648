// perfbench: one process runs one workload and prints its result as a JSON
// line (run.py aggregates set-up samples and applies the output contract).
//
//   perfbench --workload W --seed N --seconds S [--trace 0|1]
//             [--setup-only] [--trace-out PATH]
//
// Untraced runs report the workload's end-to-end metrics. A traced run
// probes the single-core FMA peak, then runs the named workload first and
// the other two briefly after it, so every layer's metrics come out of one
// process; spans go to PATH as Chrome trace-event JSON.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  void (*run)(const Args&, Result&, TraceContext*);
};
constexpr Workload kWorkloads[] = {
    {"rn50_224", run_rn50},
    {"conv_sweep", run_conv_sweep},
    {"dp3_rn50_int16", run_dp3},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "rn50_224|conv_sweep|dp3_rn50_int16 --seed N --seconds S "
               "[--trace 0|1] [--setup-only] [--trace-out PATH]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    try {
      if (k == "--workload") a.workload = val();
      else if (k == "--seed") a.seed = static_cast<unsigned>(std::stoul(val()));
      else if (k == "--seconds") a.seconds = std::stod(val());
      else if (k == "--trace") a.trace = std::stoi(val()) != 0;
      else if (k == "--trace-out") a.trace_out = val();
      else if (k == "--setup-only") a.setup_only = true;
      else usage(("unknown argument " + k).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (!(a.seconds >= 0)) usage("--seconds must be >= 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const Workload* sel = nullptr;
  for (const auto& w : kWorkloads)
    if (a.workload == w.name) sel = &w;
  if (sel == nullptr) usage(("unknown workload '" + a.workload + "'").c_str());

  Result r;
  if (!a.trace) {
    sel->run(a, r, nullptr);
    r.print_json();
    return 0;
  }

  TraceContext tc;
  const PeakResult pk = measure_peak(/*runs=*/5, /*run_seconds=*/1.0);
  std::printf("peak probe: %.2f GFLOPS/core (%s, %d accumulators, CV %.4f "
              "over %d runs)\n",
              pk.gflops, pk.isa, pk.accumulators, pk.cv, pk.runs);
  r.metric("platform.peak_gflops_core", pk.gflops, "GFLOPS");
  r.metric("platform.peak_cv", pk.cv, "ratio");
  if (pk.cv <= kPeakCvBound) tc.peak_gflops_core = pk.gflops;

  // The named workload first (its set-up is the cold one the cache
  // counters describe), then the others with the minimum sample counts.
  std::vector<const Workload*> order{sel};
  for (const auto& w : kWorkloads)
    if (&w != sel) order.push_back(&w);
  for (const Workload* w : order) {
    Args wa = a;
    wa.workload = w->name;
    if (w != sel) wa.seconds = 0;
    w->run(wa, r, &tc);
  }

  if (tc.setup_misses) {
    r.metric("kernels.jit_kernels",
             static_cast<double>(tc.setup_misses->kernel_misses), "count");
    r.metric("core.plan_misses",
             static_cast<double>(tc.setup_misses->plan_misses), "count");
  }
  r.metric("kernels.timed_misses", static_cast<double>(tc.timed_misses),
           "count");
  if (tc.timed_misses != 0)
    r.fail_check("a kernel was JIT-compiled inside a timed region");
  if (!a.trace_out.empty()) tc.log.write_chrome(a.trace_out);
  r.print_json();
  return 0;
}
