// Centralized XCONV_* environment access and validation.
//
// Every environment read in the tree goes through these helpers —
// `tools/lint/xconv_lint.py` (rule env-getenv) rejects raw std::getenv calls
// anywhere else — so env handling cannot silently diverge per call site.
// Two families:
//
//   * strict helpers (positive_long, nonneg_double, fraction)
//     throw std::invalid_argument naming the variable and the offending text;
//     used for the XCONV_MN_* training knobs where a typo must fail loudly.
//   * lenient `_or` helpers fall back to a default on missing/invalid values;
//     used for bench/diagnostic knobs whose historical contract (pinned by
//     tests) is "ignore garbage".
//
// getenv itself is not thread-safe against concurrent setenv; all xconv env
// reads happen at configuration time (option structs, main()), before worker
// threads exist. Keep it that way — do not read env from hot paths.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace xconv::platform::env {

/// The one sanctioned getenv wrapper: nullptr when unset.
inline const char* get(const char* name) { return std::getenv(name); }

/// True when the variable is set (value ignored).
inline bool is_set(const char* name) { return get(name) != nullptr; }

/// Strictly positive integer ("4", not "0", "-1", "4x" or "").
inline long positive_long(const char* name, const char* v) {
  char* end = nullptr;
  errno = 0;
  const long x = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || x <= 0)
    throw std::invalid_argument(std::string(name) +
                                " must be a positive integer, got '" +
                                std::string(v) + "'");
  return x;
}

/// Non-negative floating-point value (0 allowed — it usually means "off").
inline double nonneg_double(const char* name, const char* v) {
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE || !(x >= 0.0))
    throw std::invalid_argument(std::string(name) +
                                " must be a non-negative number, got '" +
                                std::string(v) + "'");
  return x;
}

/// Fraction in (0, 1].
inline double fraction(const char* name, const char* v) {
  char* end = nullptr;
  errno = 0;
  const double f = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE || !(f > 0.0) || f > 1.0)
    throw std::invalid_argument(std::string(name) +
                                " must be a fraction in (0, 1], got '" +
                                std::string(v) + "'");
  return f;
}

/// Lenient positive integer: unset, malformed or non-positive values yield
/// `fallback` (the bench-knob contract: garbage never aborts a bench run).
inline int positive_int_or(const char* name, int fallback) {
  const char* v = get(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const long x = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || x <= 0) return fallback;
  return static_cast<int>(x);
}

/// Boolean knob: "0"/"off"/"false" mean false, any other set value means
/// true, unset means `fallback`.
inline bool flag_or(const char* name, bool fallback) {
  const char* v = get(name);
  if (v == nullptr) return fallback;
  const std::string s(v);
  return !(s == "0" || s == "off" || s == "false");
}

}  // namespace xconv::platform::env
