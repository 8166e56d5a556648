#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "core/plan.hpp"
#include "kernels/kernel_registry.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double cv(const std::vector<double>& v) {
  if (v.size() < 2) return 0;
  const double mean = std::accumulate(v.begin(), v.end(), 0.0) / v.size();
  double ss = 0;
  for (double x : v) ss += (x - mean) * (x - mean);
  return std::sqrt(ss / static_cast<double>(v.size() - 1)) / mean;
}

std::optional<Tail> tail_percentile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::optional<Tail> best;
  for (double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank == 0 || rank > n) continue;
    const std::size_t beyond = n - rank;
    if (beyond >= 10) best = Tail{p, v[rank - 1], beyond};
  }
  return best;
}

void print_timing(const std::string& what, const std::vector<double>& secs) {
  if (secs.empty()) return;
  std::printf("%s: median %.3f ms", what.c_str(), 1e3 * median(secs));
  if (const auto t = tail_percentile(secs))
    std::printf(", p%g %.3f ms (%zu beyond)", t->pct, 1e3 * t->value,
                t->beyond);
  else
    std::printf(", no percentile has 10 samples beyond it");
  std::printf(", n=%zu\n", secs.size());
}

void Result::fail_check(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

void Result::note_failure(const char* what, const char* msg) {
  ++failed;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what, msg);
}

void Result::print_json() const {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, ",
              correct && failed == 0 ? "true" : "false", attempted, failed);
  if (first_loss_bits)
    std::printf("\"first_loss_bits\": %u, ", *first_loss_bits);
  std::printf("\"metrics\": {");
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), vu.first, vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::uint32_t float_bits(float f) {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CacheCounts cache_counts() {
  return {xconv::kernels::KernelRegistry::instance().stats().misses,
          xconv::core::PlanCache::instance().stats().misses};
}

void note_setup_misses(TraceContext* tc, const CacheCounts& before) {
  if (tc == nullptr || tc->setup_misses) return;
  const CacheCounts now = cache_counts();
  tc->setup_misses = CacheCounts{now.kernel_misses - before.kernel_misses,
                                 now.plan_misses - before.plan_misses};
}

long TraceLog::open(std::string name, long parent, long step) {
  const auto now = Clock::now();
  spans_.push_back(Span{std::move(name), now, now, parent, step});
  return static_cast<long>(spans_.size()) - 1;
}

void TraceLog::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  const Clock::time_point base =
      spans_.empty() ? Clock::now() : spans_.front().t0;
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - base).count();
  };
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f",
                  us(s.t0), us(s.t1) - us(s.t0));
    os << "{\"name\": \"" << s.name << "\", " << buf << ", \"args\": {\"id\": "
       << i << ", \"parent\": " << s.parent << ", \"step\": " << s.step
       << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

TimedRegionGuard::TimedRegionGuard(std::uint64_t* sink) : sink_(sink) {
  if (sink_) start_ = cache_counts().kernel_misses;
}

TimedRegionGuard::~TimedRegionGuard() {
  if (sink_) *sink_ += cache_counts().kernel_misses - start_;
}

}  // namespace perfbench
