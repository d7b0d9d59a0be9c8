"""Mutation gate for the bit claims of the compiled kernels and the library.

Run from anywhere, with gcc, numpy and pytest installed::

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named mutants only

Each mutant is one source edit of a file under ``src/belldistil/``, whose
``old`` text must occur exactly once, and names the test files that must
kill it: the bit and twin tests (``TESTS``) unless it names others.  The
script copies the tracked files of the working tree into a temporary
directory and checks that the unmutated copy passes every test file that
the mutants name.  Then, for each mutant, it applies the edit there,
rebuilds the extension when the edit is in C, and runs the mutant's tests;
the mutant is killed when a test fails, the interpreter crashes or the run
times out.  It exits 1 when a mutant that is not in ``ACCEPTED`` survives,
or when an edit does not apply or does not build.  When the unmutated copy
fails, it names the files under ``src/`` and ``tests/`` that git does not
track, which the copy leaves out.

Mutants of the AVX-512 Philox and averaging loop (``avx512=True``) run only
where the built kernel reports ``PHILOX == "avx512"``; elsewhere that code
never runs, and they are listed as not run.  Accepted survivors run too, so
a test that comes to kill one shows.  pytest does not collect this file: it
is a CI step beside the sanitizer build, not a tier-1 test.

Some edits are equivalent, so no test can kill them, and they are not
mutants here.  In the CSV writer: the tie margin 2**-12 made 0 (p and every
half-integer lie on p's ulp grid, so a p that is not a half-integer is a
whole ulp from one, and the exact product, within half an ulp of p, rounds
the same way); ``d >= 1e11`` made ``d >= 1e10`` (every table entry is at or
above its power of ten, so p >= 1e11); and ``>=`` made ``>`` in the exponent
search (exact powers of ten then take the slow path).  In the exact
induction: the line of slack at the end of the scratch left out (no load
reads past a table's end, and a masked load reads no masked lane), and the
16-entry step bound ``<=`` made ``<`` (the masked tail then takes the last
16 entries).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TESTS = ("tests/test_iterative_scheme.py", "tests/test_float_core.py")
KERNEL = "src/belldistil/_trajectory_c.c"
SCHEME = "src/belldistil/iterative_scheme.py"
CLI = "src/belldistil/cli.py"
ORACLE = "src/belldistil/oracle.py"
ENSEMBLE = "src/belldistil/finite_ensemble.py"
CORE = "src/belldistil/bell_core.py"
#: A mutant that makes a loop endless fails its run after this many seconds.
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    avx512: bool = False
    #: the test files that must kill it
    tests: tuple[str, ...] = TESTS


MUTANTS = [
    # the AVX-512 Philox of count_whole_blocks
    Mutant("vector high word without the carry of mid2", KERNEL,
           "_mm512_add_epi64(_mm512_add_epi64(hh, _mm512_srli_epi64(mid1, 32)),\n"
           "                            _mm512_srli_epi64(mid2, 32))",
           "_mm512_add_epi64(hh, _mm512_srli_epi64(mid1, 32))", avx512=True),
    Mutant("vector low word blended with mask 0x5555", KERNEL,
           "_mm512_mask_blend_epi32(0xAAAA,", "_mm512_mask_blend_epi32(0x5555,",
           avx512=True),
    Mutant("vector lane counters one low", KERNEL,
           "_mm512_set_epi64(8, 7, 6, 5, 4, 3, 2, 1)",
           "_mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0)", avx512=True),
    Mutant("second vector keeps the first round key", KERNEL,
           "philox_round8(v, q0, q1);",
           "philox_round8(v, _mm512_set1_epi64((long long)k0), q1);", avx512=True),
    Mutant("vector compare cmple in place of cmplt", KERNEL,
           "_mm512_cmplt_epu64_mask", "_mm512_cmple_epu64_mask", avx512=True),
    Mutant("eight-block step run on seven blocks", KERNEL,
           "for (; b + 8 <= end; b += 8)", "for (; b + 7 <= end; b += 8)",
           avx512=True),
    Mutant("scalar pair given the vectors' counters", KERNEL,
           "x[0] = b + 17;\n        y[0] = b + 18;",
           "x[0] = b + 1;\n        y[0] = b + 9;", avx512=True),
    # the AVX-512 averaging loop of average_avx512
    Mutant("averaging tail mask one lane short", KERNEL,
           "_bzhi_u32(0xFF, (unsigned)(end - i))",
           "_bzhi_u32(0xFF, (unsigned)(end - i - 1))", avx512=True),
    Mutant("second 8-lane half reads w + i + m", KERNEL,
           "_mm512_loadu_pd(w + i + 8 + m)", "_mm512_loadu_pd(w + i + m)",
           avx512=True),
    Mutant("first 8-lane half fused into an FMA", KERNEL,
           "lo = _mm512_add_pd(\n"
           "                          _mm512_mul_pd(qv, _mm512_load_pd(w + i)),\n"
           "                          _mm512_mul_pd(pv, _mm512_loadu_pd(w + i + m))),",
           "lo = _mm512_fmadd_pd(\n"
           "                          qv, _mm512_load_pd(w + i),\n"
           "                          _mm512_mul_pd(pv, _mm512_loadu_pd(w + i + m))),",
           avx512=True),
    # the scalar Philox, which every host runs for heads, tails and the
    # cached block
    Mutant("scalar block counter one low", KERNEL,
           "x[0] = b + 1;", "x[0] = b;"),
    Mutant("scalar round key bumped by the other Weyl increment", KERNEL,
           "k1 += PHILOX_W1;", "k1 += PHILOX_W0;"),
    Mutant("scalar round without its key word", KERNEL,
           "c[0] = (uint64_t)(p1 >> 64) ^ c[1] ^ k0;",
           "c[0] = (uint64_t)(p1 >> 64) ^ c[1];"),
    # the integer compare, the block cache and the tallies
    Mutant("<= in the whole-block compare", KERNEL,
           "return ((x[0] >> 11) < t)", "return ((x[0] >> 11) <= t)"),
    Mutant("<= in the cached compare", KERNEL,
           "j += (s->last[lo] >> 11) < t;", "j += (s->last[lo] >> 11) <= t;"),
    Mutant("threshold truncated in place of ceil", KERNEL,
           "return (uint64_t)ceil(p * 0x1.0p53);", "return (uint64_t)(p * 0x1.0p53);"),
    Mutant("NaN sent to the cast", KERNEL,
           "if (!(p > 0.0))", "if (p <= 0.0)"),
    Mutant("cache index off by one", KERNEL,
           "s->block = b;", "s->block = b + 1;"),
    Mutant("head block skipped", KERNEL,
           "j += count_cached(s, b, start % 4,", "j += 0 * count_cached(s, b, start % 4,"),
    Mutant("depth 0 tallied as failure", KERNEL,
           "cs[k >= 0 ? k : depth_count]++;", "cs[k > 0 ? k : depth_count]++;"),
    Mutant("a backup that no deeper pair replaces", KERNEL,
           "if (backup_enabled)\n                backup = depth;",
           "if (backup_enabled && backup < 0)\n                backup = depth;"),
    Mutant("failure tallied one slot early", KERNEL,
           "cs[k >= 0 ? k : depth_count]++;", "cs[k >= 0 ? k : depth_count - 1]++;"),
    Mutant("p >= 1 threshold one below 2**53", KERNEL,
           "return (uint64_t)1 << 53;", "return ((uint64_t)1 << 53) - 1;"),
    # the exact induction: its averaging loop, column layout, odd rows and
    # stop rule, and the MXCSR it sets
    Mutant("averaging loop one element short", KERNEL,
           "end = (rows - step) * m;", "end = (rows - step) * m - 1;"),
    Mutant("depth-1 slots laid out backup first", KERNEL,
           "    if (has_even || (has_odd && !pl->backup_enabled))\n"
           "        pl->slot[m++] = 0;\n"
           "    if (has_odd && pl->backup_enabled)\n"
           "        pl->slot[m++] = 1;\n",
           "    if (has_odd && pl->backup_enabled)\n"
           "        pl->slot[m++] = 1;\n"
           "    if (has_even || (has_odd && !pl->backup_enabled))\n"
           "        pl->slot[m++] = 0;\n"),
    Mutant("depth-0 odd column left out for 3", KERNEL,
           "has_odd |= c % 2 == 1 && c >= 3;", "has_odd |= c % 2 == 1 && c >= 5;"),
    Mutant("backup column skipped at a count of 3", KERNEL,
           "if (pl->backup_enabled && (pl->n >> d) >= 3)",
           "if (pl->backup_enabled && (pl->n >> d) > 3)"),
    Mutant("odd row reads the no-backup column", KERNEL,
           "row[i] = w[m - 1];", "row[i] = w[0];"),
    Mutant("stop rule not written", KERNEL,
           "            if (pl->stop_at_two && (d == 0 || pl->slot[0] == 0))\n"
           "                b[2 * mv] = loss[d];\n", ""),
    Mutant("stop rule applied to a backup column", KERNEL,
           "if (pl->stop_at_two && (d == 0 || pl->slot[0] == 0))",
           "if (pl->stop_at_two)"),
    Mutant("FTZ/DAZ left set after the call", KERNEL,
           "        _mm_setcsr(csr);\n", ""),
    # the buffer and range checks of exact_expectations and run(), each
    # killed by a rejection test whose sentinels show a stray write
    Mutant("count of 0 let into the induction", KERNEL,
           "if (c < 1) {", "if (c < 0) {", tests=("tests/test_float_core.py",)),
    Mutant("fid and psucc shapes not compared", KERNEL,
           "if (psucc.shape[0] != fid.shape[0] || psucc.shape[1] != states)",
           "if (0)", tests=("tests/test_float_core.py",)),
    Mutant("depth tables one depth short let through", KERNEL,
           "else if (fid.shape[0] <= pl.depth_cap)",
           "else if (fid.shape[0] < pl.depth_cap)", tests=("tests/test_float_core.py",)),
    Mutant("out larger than its shape let through", KERNEL,
           "else if (out.shape[0] != states || out.shape[1] != ncounts)",
           "else if (out.shape[0] < states || out.shape[1] < ncounts)",
           tests=("tests/test_float_core.py",)),
    Mutant("exact out allowed to overlap its inputs", KERNEL,
           "    else if (overlap(&out, &fid) || overlap(&out, &psucc)\n"
           "             || overlap(&out, &counts))\n"
           "        PyErr_SetString(PyExc_ValueError,\n"
           "                        \"out must not overlap fid, psucc or counts\");\n",
           "", tests=("tests/test_float_core.py",)),
    Mutant("n0 of -1 let into the kernel", KERNEL,
           "if (n0 < 0) {", "if (n0 < -1) {", tests=("tests/test_iterative_scheme.py",)),
    Mutant("first_trial of -1 let into the kernel", KERNEL,
           "if (first_trial < 0) {", "if (first_trial < -1) {",
           tests=("tests/test_iterative_scheme.py",)),
    Mutant("Philox counts longer than the depths let through", KERNEL,
           "else if (u_obj == NULL && tally.shape[0] != depth_count + 1)",
           "else if (u_obj == NULL && tally.shape[0] < depth_count + 1)",
           tests=("tests/test_iterative_scheme.py",)),
    Mutant("64-bit stream check without the trial count", KERNEL,
           "(uint64_t)first_trial + (uint64_t)trials > UINT64_MAX / (uint64_t)n0",
           "(uint64_t)first_trial > UINT64_MAX / (uint64_t)n0",
           tests=("tests/test_iterative_scheme.py",)),
    # the CSV writer and the logarithm of the CLI tables
    Mutant("table cell written in fixed point at a near tie", KERNEL,
           "if (fabs(scaled - floor(scaled) - 0.5) > 0x1p-12\n"
           "            && d >= 100000000000LL",
           "if (d >= 100000000000LL", tests=("tests/test_cli.py",)),
    Mutant("13-digit mantissa written in fixed point", KERNEL,
           "d < 1000000000000LL", "d <= 1000000000000LL", tests=("tests/test_cli.py",)),
    Mutant("mantissa truncated in place of rounded", KERNEL,
           "d = (int64_t)floor(scaled + 0.5);", "d = (int64_t)floor(scaled);",
           tests=("tests/test_cli.py",)),
    Mutant("trailing zeros of a cell kept", KERNEL,
           "for (end = lead + 12; digits[end - 1] == '0'; end--)\n                ;",
           "end = lead + 12;", tests=("tests/test_cli.py",)),
    Mutant("NaN cell written as text", KERNEL,
           "if (!isnan(*cell) && (p = format_cell(p, *cell)) == NULL)",
           "if ((p = format_cell(p, *cell)) == NULL)", tests=("tests/test_cli.py",)),
    Mutant("log of zero let through", KERNEL,
           "if (!(xs[i] > 0.0) && !isnan(xs[i]))", "if (xs[i] < 0.0)",
           tests=("tests/test_cli.py", "tests/test_finite_ensemble.py")),
    Mutant("log out allowed to overlap x", KERNEL,
           "    else if (overlap(&out, &x))\n"
           "        PyErr_SetString(PyExc_ValueError, \"out must not overlap x\");\n",
           "", tests=("tests/test_cli.py", "tests/test_finite_ensemble.py")),
    # the sweep's all-success reference and count checks, and the Monte
    # Carlo's exact mean
    Mutant("reference depth of the effective count", SCHEME,
           "depths.append(depth_cap(n))", "depths.append(depth_cap(m))"),
    Mutant("cap checked on every count before n >= 1", SCHEME,
           "    ns, counts, depths = [], [], []\n",
           "    ns, counts, depths = [], [], []\n"
           "    if any(operator.index(n) > EXACT_N_CAP for n in n_range):\n"
           "        raise ResourceCapError(\n"
           "            f\"exact expectation capped at n = {EXACT_N_CAP}; \"\n"
           "            \"use expected_fidelity_mc for larger samples\"\n"
           "        )\n"),
    Mutant("drop rule on odd counts", SCHEME,
           "if policy.drop_one_when_even and n % 2 == 0:",
           "if policy.drop_one_when_even and n % 2 == 1:"),
    Mutant("tally sum without the common denominator", SCHEME,
           "c * m * (den // d)", "c * m * den"),
    # the grid points, the oracle's sub-stacks, disc test and 2-D products,
    # and the nmin column
    Mutant("grid without the round() fallback near ties", CLI,
           "    for i in np.flatnonzero(~safe).tolist():\n"
           "        grid[i] = round(float(x[i]), _GRID_DECIMALS)\n", "",
           tests=("tests/test_cli.py",)),
    Mutant("last partial sub-stack not stepped", ORACLE,
           "for lo in range(0, k, _STEP_STACK):",
           "for lo in range(0, k - k % _STEP_STACK, _STEP_STACK):",
           tests=("tests/test_oracle.py",)),
    Mutant("Gershgorin disc bound at -10 * PSD_ATOL", ORACLE,
           "- radius >= -PSD_ATOL).all():", "- radius >= -10 * PSD_ATOL).all():",
           tests=("tests/test_oracle.py",)),
    Mutant("Gershgorin fast path deleted", ORACLE,
           "    if (ms.diagonal(axis1=1, axis2=2).real - radius >= -PSD_ATOL).all():\n"
           "        return\n", "",
           tests=("tests/test_oracle.py",)),
    Mutant("sandwich without its first transpose", ORACLE,
           "(ms.transpose(0, 2, 1).reshape(4 * k, 4) @ left.T)",
           "(ms.reshape(4 * k, 4) @ left.T)",
           tests=("tests/test_oracle.py",)),
    Mutant("nmin keep-mask inverted", ENSEMBLE,
           "keep = ~((a <= 0.5) | (f_s <= a))", "keep = (a <= 0.5) | (f_s <= a)",
           tests=("tests/test_finite_ensemble.py",)),
    # the one count check
    Mutant("count check lets the least value through", CORE,
           "if value < least:", "if value <= least:",
           tests=("tests/test_bell_core.py", "tests/test_iterative_scheme.py")),
]

#: Survivors that no test can see, with the reason.
ACCEPTED = {
    "p >= 1 threshold one below 2**53":
        "it differs only on a stream word whose top 53 bits are all ones "
        "(probability 2**-53 per word): no drawn double is 1 - 2**-53",
}


def run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=TIMEOUT_S)


def build(tree: Path) -> str | None:
    """Rebuilds the extension in place; returns the build's tail on failure."""
    proc = run([sys.executable, "setup.py", "build_ext", "--inplace", "--force"], tree)
    return None if proc.returncode == 0 else "\n".join(proc.stdout.splitlines()[-15:])


def run_tests(tree: Path, tests: tuple[str, ...]) -> tuple[bool, str]:
    """Whether the tests pass, and the first failure or the summary line."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        proc = run(cmd, tree)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    lines = proc.stdout.splitlines()
    if proc.returncode < 0:
        return False, f"crashed with signal {-proc.returncode}"
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {proc.returncode}:\n" + "\n".join(lines[-15:]))
    failed = [line for line in lines if line.startswith("FAILED ")]
    return proc.returncode == 0, (failed or lines[-1:] or [""])[0]


def git_files(*args: str) -> list[str]:
    """The paths that ``git ls-files ARGS`` lists, relative to the root."""
    out = subprocess.run(["git", "ls-files", "-z", *args], cwd=ROOT, check=True,
                         stdout=subprocess.PIPE).stdout.decode()
    return [name for name in out.split("\0") if name]


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in git_files():
            if not (ROOT / name).is_file():  # a deleted file
                continue
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            (tree / name).write_bytes((ROOT / name).read_bytes())
        error = build(tree)
        if error:
            print(f"the unmutated copy does not build:\n{error}")
            return 1
        # every file that some mutant runs, each once
        every_test = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
        try:
            passed, summary = run_tests(tree, every_test)
        except RuntimeError as exc:  # pytest could not collect the tests
            passed, summary = False, str(exc)
        if not passed:
            print(f"the unmutated copy fails its tests: {summary}")
            untracked = git_files("--others", "--exclude-standard", "--", "src", "tests")
            if untracked:
                print("the copy holds only tracked files; git does not track "
                      + ", ".join(untracked))
            return 1
        philox = run([sys.executable, "-c",
                      "from belldistil import _kernels; print(_kernels.PHILOX)"],
                     tree).stdout.strip()
        print(f"unmutated copy passes ({summary}); PHILOX = {philox}")
        for m in mutants:
            if m.avx512 and philox != "avx512":
                print(f"NOT RUN    {m.name}: the AVX-512 paths do not run here")
                continue
            path = tree / m.path
            source = path.read_text()
            if source.count(m.old) != 1:
                print(f"ERROR      {m.name}: the edit occurs {source.count(m.old)} times")
                bad += 1
                continue
            start = time.perf_counter()
            try:
                path.write_text(source.replace(m.old, m.new))
                error = build(tree) if m.path == KERNEL else None
                passed, summary = (False, "") if error else run_tests(tree, m.tests)
            finally:
                path.write_text(source)
            seconds = time.perf_counter() - start
            if error:
                print(f"ERROR      {m.name}: the mutant does not build:\n{error}")
                bad += 1
            elif not passed:
                print(f"killed     {m.name} ({seconds:.1f} s): {summary}")
            elif m.name in ACCEPTED:
                print(f"accepted   {m.name} ({seconds:.1f} s): {ACCEPTED[m.name]}")
            else:
                print(f"SURVIVED   {m.name} ({seconds:.1f} s)")
                bad += 1
            if m.path == KERNEL:
                error = build(tree)
                if error:
                    print(f"the restored copy does not build:\n{error}")
                    return 1
    print(f"{len(mutants)} mutants, {bad} survived or failed to apply or build")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
