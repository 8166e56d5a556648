// Single-core FP32 FMA peak: a JIT'd loop of independent register-only
// vfmadd231ps chains (no loads, so no cache or bandwidth term), using every
// vector register but the two multiplicands as an accumulator. The thread
// is pinned to the core it is running on for the probe; the result is the
// median of several ~run_seconds runs and their CV, so a noisy neighbour
// shows as spread instead of silently moving the denominator.
#include <sched.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common.hpp"
#include "jit/assembler.hpp"
#include "jit/code_buffer.hpp"
#include "platform/cpu.hpp"

namespace perfbench {

namespace {

using Loop = void (*)(std::int64_t trips);

struct ProbeKernel {
  xconv::jit::CodeBuffer buf;
  Loop fn = nullptr;
  double flops_per_trip = 0;
  int accumulators = 0;
};

void build(ProbeKernel& k, xconv::platform::Isa isa) {
  using namespace xconv::jit;
  const bool zmm = isa >= xconv::platform::Isa::avx512;
  const VecWidth w = zmm ? VecWidth::zmm512 : VecWidth::ymm256;
  const int regs = zmm ? 32 : 16;
  const int lanes = zmm ? 16 : 8;
  k.accumulators = regs - 2;
  const Vec a{regs - 2}, b{regs - 1};

  Assembler as(k.buf);
  // Zeroed operands: FMA throughput is value-independent apart from
  // denormals, which zeros avoid.
  for (int v = 0; v < regs; ++v) as.vxorps(w, Vec{v}, Vec{v}, Vec{v});
  as.mov_rr(Gpr::rax, Gpr::rdi);
  const std::size_t top = as.here();
  for (int v = 0; v < k.accumulators; ++v) as.vfmadd231ps(w, Vec{v}, a, b);
  as.sub_ri(Gpr::rax, 1);
  as.jcc_back(Cond::ne, top);
  k.buf.emit8(0xC5);  // vzeroupper: leave no dirty upper state to SSE code
  k.buf.emit8(0xF8);
  k.buf.emit8(0x77);
  as.ret();
  k.buf.finalize();
  k.fn = k.buf.entry<Loop>();
  k.flops_per_trip = 2.0 * lanes * k.accumulators;
}

/// Pins the calling thread to the CPU it is on; restores the old mask.
class PinToCurrentCpu {
 public:
  PinToCurrentCpu() {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0)
      throw std::runtime_error("sched_getaffinity failed");
    const int cpu = sched_getcpu();
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu < 0 ? 0 : cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0)
      throw std::runtime_error("sched_setaffinity failed");
  }
  ~PinToCurrentCpu() { sched_setaffinity(0, sizeof saved_, &saved_); }
  PinToCurrentCpu(const PinToCurrentCpu&) = delete;
  PinToCurrentCpu& operator=(const PinToCurrentCpu&) = delete;

 private:
  cpu_set_t saved_{};
};

double timed_run(const ProbeKernel& k, std::int64_t trips) {
  const auto t0 = Clock::now();
  k.fn(trips);
  return seconds_since(t0);
}

}  // namespace

PeakResult measure_peak(int runs, double run_seconds) {
  const auto isa = xconv::platform::effective_isa();
  if (isa < xconv::platform::Isa::avx2)
    throw std::runtime_error("peak probe needs AVX2 or AVX-512");
  ProbeKernel k;
  build(k, isa);
  PinToCurrentCpu pin;

  // Calibrate the trip count to ~run_seconds from a short warm run.
  std::int64_t trips = 1 << 16;
  double t = timed_run(k, trips);
  while (t < 0.05) {
    trips *= 4;
    t = timed_run(k, trips);
  }
  trips = static_cast<std::int64_t>(trips * run_seconds / t);

  std::vector<double> gflops;
  for (int i = 0; i < runs; ++i)
    gflops.push_back(k.flops_per_trip * trips / timed_run(k, trips) * 1e-9);

  PeakResult r;
  r.gflops = median(gflops);
  r.cv = cv(gflops);
  r.runs = runs;
  r.accumulators = k.accumulators;
  r.isa = xconv::platform::isa_name(isa);
  return r;
}

}  // namespace perfbench
