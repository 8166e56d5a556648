#!/usr/bin/env python3
"""Self-tests for xconv_lint: each rule fires on a known-bad fixture tree and
stays quiet on the matching known-good one. Run with

    python3 tools/lint/test_xconv_lint.py
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import xconv_lint as lint  # noqa: E402


def make_repo(tmp: Path, files: dict) -> Path:
    """Materialize {relative path: content} under tmp."""
    for relpath, content in files.items():
        p = tmp / relpath
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(content, encoding="utf-8")
    return tmp


# A minimal clean skeleton the per-rule tests perturb.
CLEAN = {
    "src/platform/envparse.hpp":
        "#pragma once\n#include <cstdlib>\n"
        "inline const char* get(const char* n) { return std::getenv(n); }\n",
    "src/mlsl/allreduce.cpp":
        "#include <thread>\nstd::thread t([] {});\n",
    "src/mlsl/allreduce.hpp":
        "#pragma once\n#include <vector>\n#include <thread>\n"
        "struct C { std::vector<std::thread> pool_; };\n",
    "src/core/ok.cpp": "void f() {\n#pragma omp parallel\n  {}\n}\n",
    "tests/CMakeLists.txt":
        "file(GLOB XCONV_TEST_SOURCES CONFIGURE_DEPENDS test_*.cpp)\n"
        "add_test(NAME t COMMAND t)\n",
    "tests/test_alpha.cpp": "int main() { return 0; }\n",
    ".github/workflows/ci.yml": "run: ctest --output-on-failure\n",
}


class RuleTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.repo = make_repo(Path(self._tmp.name), CLEAN)

    def tearDown(self):
        self._tmp.cleanup()

    def rules_fired(self, violations):
        return {v.rule for v in violations}

    def test_clean_skeleton_passes(self):
        self.assertEqual(lint.run(self.repo), [])

    # --- env-getenv ---------------------------------------------------------

    def test_raw_getenv_flagged(self):
        make_repo(self.repo, {"src/core/bad_env.cpp":
                              '#include <cstdlib>\n'
                              'int x = std::getenv("XCONV_X") ? 1 : 0;\n'})
        v = lint.check_env_getenv(self.repo)
        self.assertEqual(len(v), 1)
        self.assertEqual(v[0].path, "src/core/bad_env.cpp")
        self.assertEqual(v[0].line, 2)

    def test_getenv_in_wrapper_allowed(self):
        self.assertEqual(lint.check_env_getenv(self.repo), [])

    def test_getenv_in_comment_ignored(self):
        make_repo(self.repo, {"src/core/doc.cpp":
                              "// calls getenv( under the hood\n"
                              "/* getenv( here too */\nint y = 0;\n"})
        self.assertEqual(lint.check_env_getenv(self.repo), [])

    # --- thread-outside-allreduce -------------------------------------------

    def test_thread_construction_flagged(self):
        make_repo(self.repo, {"src/core/bad_thread.cpp":
                              "#include <thread>\n"
                              "void f() { std::thread w([] {}); w.join(); }\n"})
        v = lint.check_thread_outside_allreduce(self.repo)
        self.assertEqual([x.path for x in v], ["src/core/bad_thread.cpp"])

    def test_hardware_concurrency_allowed(self):
        make_repo(self.repo, {"src/platform/probe.cpp":
                              "#include <thread>\n"
                              "unsigned n = std::thread::hardware_concurrency();\n"})
        self.assertEqual(lint.check_thread_outside_allreduce(self.repo), [])

    def test_thread_in_tests_allowed(self):
        make_repo(self.repo, {"tests/test_stress.cpp":
                              "#include <thread>\n"
                              "std::thread t([] {});\n"})
        self.assertEqual(lint.check_thread_outside_allreduce(self.repo), [])

    # --- omp-in-header ------------------------------------------------------

    def test_pragma_in_header_flagged(self):
        make_repo(self.repo, {"src/core/bad_omp.hpp":
                              "#pragma once\ninline void f() {\n"
                              "#pragma omp simd\n  for (;;) {}\n}\n"})
        v = lint.check_omp_in_header(self.repo)
        self.assertEqual([x.path for x in v], ["src/core/bad_omp.hpp"])
        self.assertEqual(v[0].line, 3)

    def test_pragma_in_cpp_allowed(self):
        self.assertEqual(lint.check_omp_in_header(self.repo), [])

    # --- test-registration --------------------------------------------------

    def test_glob_registration_passes(self):
        self.assertEqual(lint.check_test_registration(self.repo), [])

    def test_unregistered_test_flagged(self):
        make_repo(self.repo, {
            "tests/CMakeLists.txt":
                "add_executable(test_alpha test_alpha.cpp)\n"
                "add_test(NAME test_alpha COMMAND test_alpha)\n",
            "tests/test_beta.cpp": "int main() { return 0; }\n",
        })
        v = lint.check_test_registration(self.repo)
        self.assertEqual([x.path for x in v], ["tests/test_beta.cpp"])

    def test_missing_add_test_flagged(self):
        make_repo(self.repo, {
            "tests/CMakeLists.txt":
                "file(GLOB XCONV_TEST_SOURCES test_*.cpp)\n"
                "add_executable(test_alpha test_alpha.cpp)\n"})
        self.assertIn("test-registration",
                      self.rules_fired(lint.check_test_registration(self.repo)))

    def test_ci_without_ctest_flagged(self):
        make_repo(self.repo, {".github/workflows/ci.yml":
                              "run: cmake --build build\n"})
        v = lint.check_test_registration(self.repo)
        self.assertEqual([x.path for x in v], [".github/workflows/ci.yml"])

    # --- jit-bitwise-test ---------------------------------------------------

    def test_generator_without_scalar_test_flagged(self):
        make_repo(self.repo, {"src/jit/foo_kernel_gen.cpp": "void g() {}\n"})
        v = lint.check_jit_bitwise_test(self.repo)
        self.assertEqual([x.path for x in v], ["src/jit/foo_kernel_gen.cpp"])
        self.assertIn("jit/foo_kernel_gen.hpp", v[0].message)

    def test_generator_with_scalar_test_passes(self):
        make_repo(self.repo, {
            "src/jit/foo_kernel_gen.cpp": "void g() {}\n",
            "tests/test_foo.cpp":
                '#include "jit/foo_kernel_gen.hpp"\n'
                "// cross-check against the scalar reference\n"
                "int main() { return 0; }\n"})
        self.assertEqual(lint.check_jit_bitwise_test(self.repo), [])

    def test_test_without_scalar_mention_flagged(self):
        make_repo(self.repo, {
            "src/jit/foo_kernel_gen.cpp": "void g() {}\n",
            "tests/test_foo.cpp":
                '#include "jit/foo_kernel_gen.hpp"\n'
                "int main() { return 0; }\n"})
        v = lint.check_jit_bitwise_test(self.repo)
        self.assertEqual(len(v), 1)

    def test_non_generator_jit_sources_ignored(self):
        make_repo(self.repo, {"src/jit/assembler.cpp": "void a() {}\n"})
        self.assertEqual(lint.check_jit_bitwise_test(self.repo), [])

    # --- decoder-coverage ---------------------------------------------------

    ASM_HPP = ("#pragma once\n"
               "namespace xconv::jit {\n"
               "class Assembler {\n"
               " public:\n"
               "  void ret();\n"
               "  void push(int r);\n"
               "  std::size_t here() const { return 0; }\n"
               " private:\n"
               "  void rex(bool w, int reg, int index, int base);\n"
               "};\n"
               "}\n")
    DECODER_CPP = ("// BEGIN-DECODER-COVERAGE\n"
                   "const char* const kCoveredAssemblerOps[] = {\n"
                   '    "ret",\n'
                   '    "push",\n'
                   "};\n"
                   "// END-DECODER-COVERAGE\n")

    def decoder_repo(self, asm=None, dec=None):
        make_repo(self.repo, {
            "src/jit/assembler.hpp": asm if asm is not None else self.ASM_HPP,
            "src/jit/verify/decoder.cpp":
                dec if dec is not None else self.DECODER_CPP})

    def test_covered_assembler_passes(self):
        self.decoder_repo()
        self.assertEqual(lint.check_decoder_coverage(self.repo), [])

    def test_uncovered_method_flagged(self):
        self.decoder_repo(asm=self.ASM_HPP.replace(
            "  void push(int r);\n",
            "  void push(int r);\n  void pop(int r);\n"))
        v = lint.check_decoder_coverage(self.repo)
        self.assertEqual([x.path for x in v], ["src/jit/assembler.hpp"])
        self.assertIn("Assembler::pop", v[0].message)
        self.assertEqual(v[0].line, 7)  # the `void pop` line

    def test_stale_coverage_entry_flagged(self):
        self.decoder_repo(dec=self.DECODER_CPP.replace(
            '    "push",\n', '    "push",\n    "vzeroupper",\n'))
        v = lint.check_decoder_coverage(self.repo)
        self.assertEqual([x.path for x in v],
                         ["src/jit/verify/decoder.cpp"])
        self.assertIn('"vzeroupper"', v[0].message)

    def test_missing_markers_flagged(self):
        self.decoder_repo(dec="const char* const k[] = {\"ret\"};\n")
        v = lint.check_decoder_coverage(self.repo)
        self.assertEqual(len(v), 1)
        self.assertIn("markers missing", v[0].message)

    def test_missing_decoder_file_flagged(self):
        make_repo(self.repo, {"src/jit/assembler.hpp": self.ASM_HPP})
        v = lint.check_decoder_coverage(self.repo)
        self.assertEqual(len(v), 1)
        self.assertIn("coverage table is missing", v[0].message)

    def test_private_helpers_and_here_not_required(self):
        # rex() is private and here() is non-void: neither needs coverage,
        # so the baseline fixture (which covers only ret/push) stays clean.
        self.decoder_repo()
        self.assertEqual(lint.check_decoder_coverage(self.repo), [])

    def test_no_assembler_layer_passes(self):
        self.assertEqual(lint.check_decoder_coverage(self.repo), [])

    # --- simd-intrinsics ----------------------------------------------------

    def test_intrinsics_outside_vnni_tu_flagged(self):
        make_repo(self.repo, {"src/kernels/avx512_kernels.cpp":
                              "#include <immintrin.h>\n"
                              "// _mm512_setzero_ps() in a comment is fine\n"
                              "void f(float* o) {\n"
                              "  __m512 acc = _mm512_setzero_ps();\n"
                              "  _mm512_storeu_ps(o, acc);\n"
                              "}\n"})
        v = lint.check_simd_intrinsics(self.repo)
        self.assertEqual([(x.path, x.line) for x in v],
                         [("src/kernels/avx512_kernels.cpp", 4),
                          ("src/kernels/avx512_kernels.cpp", 5)])
        self.assertEqual(self.rules_fired(v), {"simd-intrinsics"})

    def test_intrinsics_in_vnni_tu_and_tests_allowed(self):
        make_repo(self.repo, {
            "src/quant/qconv_vnni.cpp":
                "#include <immintrin.h>\n"
                "__m512i f(__m512i a, __m512i b) {\n"
                "  return _mm512_dpwssd_epi32(a, a, b);\n}\n",
            "tests/test_simd.cpp":
                "#include <immintrin.h>\n__m256 z = _mm256_setzero_ps();\n",
            "src/platform/cpu.cpp":
                "#include <immintrin.h>\n"
                "unsigned long long x = _xgetbv(0);\n"
                "unsigned short __mmask16_like = 0;\n"})
        self.assertEqual(lint.check_simd_intrinsics(self.repo), [])

    # --- bench-schema -------------------------------------------------------

    BENCH = ('#include <cstdio>\nvoid w(std::FILE* f) {\n'
             '  std::fprintf(f, "  \\"schema_version\\": 2,\\n");\n'
             '  std::fprintf(f, "  \\"alpha\\": %d,\\n", 1);\n'
             '  std::fprintf(f, "  \\"beta\\": %d\\n", 2);\n}\n')

    def lock_current(self):
        lint.update_bench_lock(self.repo)

    def test_locked_emitter_passes(self):
        make_repo(self.repo, {"bench/bench_x.cpp": self.BENCH})
        self.lock_current()
        self.assertEqual(lint.check_bench_schema(self.repo), [])

    def test_missing_lockfile_flagged(self):
        make_repo(self.repo, {"bench/bench_x.cpp": self.BENCH})
        v = lint.check_bench_schema(self.repo)
        self.assertEqual([x.rule for x in v], ["bench-schema"])
        self.assertIn("lockfile missing", v[0].message)

    def test_field_change_without_bump_flagged(self):
        make_repo(self.repo, {"bench/bench_x.cpp": self.BENCH})
        self.lock_current()
        make_repo(self.repo, {"bench/bench_x.cpp":
                              self.BENCH.replace('beta', 'gamma')})
        v = lint.check_bench_schema(self.repo)
        self.assertEqual(len(v), 1)
        self.assertIn("bump it", v[0].message)
        self.assertIn("gamma", v[0].message)

    def test_field_change_with_bump_and_relock_passes(self):
        make_repo(self.repo, {"bench/bench_x.cpp": self.BENCH})
        self.lock_current()
        bumped = self.BENCH.replace("beta", "gamma").replace(
            '\\"schema_version\\": 2', '\\"schema_version\\": 3')
        make_repo(self.repo, {"bench/bench_x.cpp": bumped})
        # Bump without re-lock: still flagged, but as a version mismatch.
        v = lint.check_bench_schema(self.repo)
        self.assertEqual(len(v), 1)
        self.assertIn("does not match lockfile", v[0].message)
        self.lock_current()
        self.assertEqual(lint.check_bench_schema(self.repo), [])

    def test_removed_emitter_flagged(self):
        make_repo(self.repo, {"bench/bench_x.cpp": self.BENCH})
        self.lock_current()
        (self.repo / "bench/bench_x.cpp").unlink()
        v = lint.check_bench_schema(self.repo)
        self.assertEqual(len(v), 1)
        self.assertIn("no longer exists", v[0].message)

    def test_lockfile_format_is_stable_json(self):
        make_repo(self.repo, {"bench/bench_x.cpp": self.BENCH})
        self.lock_current()
        lock = json.loads((self.repo / lint.BENCH_LOCK).read_text())
        self.assertEqual(lock["bench/bench_x.cpp"]["schema_version"], 2)
        self.assertEqual(lock["bench/bench_x.cpp"]["fields"],
                         ["alpha", "beta", "schema_version"])

    # --- plan-schema --------------------------------------------------------

    PLAN_HPP = ("#pragma once\n"
                "inline constexpr int kPlanSchemaVersion = 1;\n")
    PLAN_CPP = ('#include <sstream>\nvoid w(std::ostream& os) {\n'
                '  os << "  \\"plan_schema_version\\": " << 1 << ",\\n";\n'
                '  os << "  \\"rbp\\": " << 1 << ",\\n";\n'
                '  os << "  \\"rbq\\": " << 1 << "\\n";\n}\n')

    def plan_repo(self):
        make_repo(self.repo, {"src/core/plan.hpp": self.PLAN_HPP,
                              "src/core/plan.cpp": self.PLAN_CPP})

    def test_locked_plan_schema_passes(self):
        self.plan_repo()
        lint.update_plan_lock(self.repo)
        self.assertEqual(lint.check_plan_schema(self.repo), [])

    def test_missing_plan_lockfile_flagged(self):
        self.plan_repo()
        v = lint.check_plan_schema(self.repo)
        self.assertEqual([x.rule for x in v], ["plan-schema"])
        self.assertIn("lockfile missing", v[0].message)

    def test_no_plan_emitter_and_no_lockfile_passes(self):
        # Pre-ConvPlan trees (or a removed plan layer with the lock cleaned
        # up) are clean.
        self.assertEqual(lint.check_plan_schema(self.repo), [])

    def test_plan_field_change_without_bump_flagged(self):
        self.plan_repo()
        lint.update_plan_lock(self.repo)
        make_repo(self.repo, {"src/core/plan.cpp":
                              self.PLAN_CPP.replace("rbq", "upd_bq")})
        v = lint.check_plan_schema(self.repo)
        self.assertEqual(len(v), 1)
        self.assertIn("bump the version", v[0].message)
        self.assertIn("upd_bq", v[0].message)

    def test_plan_version_bump_then_relock_passes(self):
        self.plan_repo()
        lint.update_plan_lock(self.repo)
        make_repo(self.repo, {
            "src/core/plan.cpp": self.PLAN_CPP.replace("rbq", "upd_bq"),
            "src/core/plan.hpp":
                self.PLAN_HPP.replace("kPlanSchemaVersion = 1",
                                      "kPlanSchemaVersion = 2")})
        # Bump without re-lock: flagged as a version mismatch.
        v = lint.check_plan_schema(self.repo)
        self.assertEqual(len(v), 1)
        self.assertIn("does not match lockfile", v[0].message)
        lint.update_plan_lock(self.repo)
        self.assertEqual(lint.check_plan_schema(self.repo), [])

    def test_plan_lockfile_contents(self):
        self.plan_repo()
        lint.update_plan_lock(self.repo)
        lock = json.loads((self.repo / lint.PLAN_LOCK).read_text())
        self.assertEqual(lock["plan_schema_version"], 1)
        self.assertEqual(lock["fields"],
                         ["plan_schema_version", "rbp", "rbq"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
