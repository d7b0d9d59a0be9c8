import hashlib
import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belldistil import (
    NotDistillableError,
    ResourceCapError,
    UnsuccessfulConvention,
    expected_fidelity_exact,
    iterative_scheme,
    n_min,
    oracle,
    round_up_even,
    werner,
)
from belldistil.cli import _GRID_POINT_CAP, _POLICIES, _a_grid, _fmt, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStep:
    def test_werner_report(self, capsys):
        code, out, _ = run(
            capsys, "step", "0.75", "0.0833333333333333", "0.0833333333333333",
            "0.0833333333333334",
        )
        assert code == 0
        assert "p_success             0.722222222222" in out
        assert "distillable           yes" in out

    def test_pure_state(self, capsys):
        code, out, _ = run(capsys, "step", "1", "0", "0", "0")
        assert code == 0
        assert "p_success             1\n" in out
        assert "(unreachable)" in out

    def test_not_distillable_is_flagged_but_runs(self, capsys):
        code, out, _ = run(capsys, "step", "0.2", "0.3", "0.3", "0.2")
        assert code == 0
        assert "distillable           no" in out

    def test_renormalization_warning(self, capsys):
        code, _, err = run(capsys, "step", "0.75", "0.0833333333", "0.0833333333",
                           "0.0833333333")
        assert code == 0
        assert "renormalizing" in err

    def test_rejects_bad_sum(self, capsys):
        code, _, err = run(capsys, "step", "0.5", "0.5", "0.5", "0.5")
        assert code == 2
        assert "error" in err

    def test_rejects_negative(self, capsys):
        code, _, _ = run(capsys, "step", "1.2", "-0.2", "0", "0")
        assert code == 2

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["step", "not-a-number", "0", "0", "0"])
        assert exc.value.code == 2


class TestNmin:
    def test_csv_shape_and_format(self, capsys):
        code, out, _ = run(capsys, "nmin", "--start", "0.55", "--stop", "0.6",
                           "--step", "0.01")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "A,nmin_locc,nmin_locc_even,nmin_conditional,nmin_conditional_even"
        assert len(lines) == 7
        assert out.endswith("\n")
        assert all(len(line.split(",")) == 5 for line in lines)
        assert "4.06590763837" in lines[1]

    def test_precondition_failures_become_empty_cells(self, capsys):
        code, out, _ = run(capsys, "nmin", "--start", "0.45", "--stop", "0.55",
                           "--step", "0.05")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert rows[0] == ["0.45", "", "", "", ""]
        assert rows[1] == ["0.5", "", "", "", ""]
        assert all(cell for cell in rows[2])

    def test_file_output(self, capsys, tmp_path):
        path = tmp_path / "nmin.csv"
        code, out, _ = run(capsys, "nmin", "--start", "0.7", "--stop", "0.8",
                           "--step", "0.05", "--out", str(path))
        assert code == 0
        assert out == ""
        text = path.read_text()
        assert text.startswith("A,")
        assert text.endswith("\n")


class TestIterate:
    def test_exact(self, capsys):
        code, out, _ = run(capsys, "iterate", "--n", "5", "--a0", "0.75")
        assert code == 0
        assert "expected fidelity     0.820216049383" in out
        assert "all-success reference 0.902360515021" in out

    def test_single_pair(self, capsys):
        code, out, _ = run(capsys, "iterate", "--n", "1", "--a0", "0.75")
        assert code == 0
        assert "expected fidelity     0.75" in out

    def test_mc_reproducible_and_near_exact(self, capsys):
        args = ("iterate", "--n", "5", "--a0", "0.75", "--method", "mc",
                "--trials", "100000", "--seed", "31")
        code, out1, _ = run(capsys, *args)
        assert code == 0
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        mean = float(out1.splitlines()[0].split()[-1])
        sigma = float(out1.splitlines()[1].split()[-1])
        assert abs(mean - 1063 / 1296) <= 3 * sigma

    def test_resource_cap_exit_code(self, capsys):
        code, _, err = run(capsys, "iterate", "--n", "5000", "--a0", "0.75")
        assert code == 3
        assert "expected_fidelity_mc" in err


class TestFigureSweeps:
    def test_fig3_columns(self, capsys):
        code, out, _ = run(capsys, "fig3", "--start", "0.7", "--stop", "0.75",
                           "--step", "0.05")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "A0,ratio_N4,ratio_N5,ratio_N6"
        first = lines[1].split(",")
        assert first[0] == "0.7"
        assert all(float(x) > 1 for x in first[1:])

    def test_fig3_cells_are_exact_ratios(self, capsys):
        # every cell is the single-count expectation over A0, whatever the
        # other counts read from the same table
        for policy in sorted(_POLICIES):
            for n_list in ("1,2", "3,8", "6,4,6", "128"):
                code, out, _ = run(capsys, "fig3", "--policy", policy, "--n-list",
                                   n_list, "--start", "0.55", "--stop", "0.95",
                                   "--step", "0.2")
                assert code == 0
                lines = out.splitlines()
                counts = [int(n) for n in n_list.split(",")]
                assert lines[0] == "A0," + ",".join(f"ratio_N{n}" for n in counts)
                rows = [line.split(",") for line in lines[1:]]
                assert [row[0] for row in rows] == ["0.55", "0.75", "0.95"]
                for a0, *cells in rows:
                    a0 = float(a0)
                    assert cells == [
                        _fmt(expected_fidelity_exact(n, werner(a0), _POLICIES[policy])
                             / a0)
                        for n in counts
                    ], (policy, n_list, a0)
        # N=4 improves well above the break-even point
        _, out, _ = run(capsys, "fig3", "--n-list", "1,4", "--start", "0.95",
                        "--stop", "0.96", "--step", "0.1")
        assert out.splitlines()[1].split(",")[1:] == ["1", "1.01371929825"]

    def test_fig4_structure(self, capsys):
        code, out, _ = run(capsys, "fig4", "--n-stop", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,nobackup,backup,fully_successful"
        table = {int(r.split(",")[0]): [float(x) for x in r.split(",")[1:]]
                 for r in lines[1:]}
        assert set(table) == {3, 4, 5, 6}
        for n, (nobackup, backup, full) in table.items():
            assert backup >= nobackup - 1e-12
            assert full >= backup - 1e-12
        assert table[5][1] > table[4][1]
        assert table[5][1] > table[6][1]


def test_grid_point_cap_boundary():
    assert len(_a_grid(0.0, 99_999.0, 1.0)) == 100_000
    with pytest.raises(ResourceCapError):
        _a_grid(0.0, 100_000.0, 1.0)


@settings(max_examples=50, deadline=None)
@given(
    bounds=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2, unique=True),
    data=st.data(),
)
def test_grid_stays_within_stop(bounds, data):
    start, stop = sorted(bounds)
    # steps from the finest within the point cap to beyond the whole range
    step = data.draw(st.floats(
        max(1e-12, (stop - start) / (_GRID_POINT_CAP - 1)),
        max(1e-12, 1.5 * (stop - start)),
    ))
    grid = _a_grid(start, stop, step)
    assert grid[0] == round(start, 12)
    assert all(a < b for a, b in zip(grid, grid[1:]))
    # the last position start + i*step, before rounding to 12 decimals, is
    # within half the resolution of stop, and the next one is beyond it
    last = start + (len(grid) - 1) * step
    assert last <= stop + 5e-13 < start + len(grid) * step


@pytest.mark.parametrize("a", [0.505, 0.6, 0.123456789])
def test_grid_step_at_the_resolution_keeps_points_distinct(a):
    # the finest step accepted still gives one distinct point per step
    grid = _a_grid(a, a + 1e-10, 1e-12)
    assert len(grid) == len(set(grid)) == 101


class TestVerifyOracle:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "verify-oracle", "--samples", "100", "--seed", "4")
        assert code == 0
        assert "verdict               pass" in out

    def test_seeded_determinism(self, capsys):
        _, out1, _ = run(capsys, "verify-oracle", "--samples", "50", "--seed", "8")
        _, out2, _ = run(capsys, "verify-oracle", "--samples", "50", "--seed", "8")
        assert out1 == out2

    def test_negative_control_exits_one(self, capsys, monkeypatch):
        from belldistil.oracle import compare_with_closed_form
        from belldistil.bell_core import StepOutcome, distill_step

        def corrupted_comparison(samples, seed):
            def bad_step(s):
                out = distill_step(s)
                return StepOutcome(min(1.0, out.p_success + 1e-3),
                                   out.success_state, out.failure_state,
                                   out.failure_reachable)
            return compare_with_closed_form(samples, seed, step_fn=bad_step)

        monkeypatch.setattr(oracle, "compare_with_closed_form", corrupted_comparison)
        code, out, _ = run(capsys, "verify-oracle", "--samples", "20")
        assert code == 1
        assert "FAIL" in out


_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
_CAP_ERROR = (
    "error: exact expectation capped at n = 4096; "
    "use expected_fidelity_mc for larger samples\n"
)
_GRID_CAP_ERROR = (
    "error: grid capped at 100000 points; use a larger step or a narrower range\n"
)
_ORACLE_CAP_ERROR = (
    "error: oracle capped at 1000000 samples; use fewer samples or several seeds\n"
)

#: (argv, SHA-256 of stdout or of the ``--out`` file, exact stderr, exit code).
#: ``{out}`` in argv stands for a fresh file path; stdout must then be empty.
#: ``{missing}`` in argv and stderr stands for a path in a missing directory.
PINNED = {
    "step_valid": (
        ["step", "0.75", "0.0833333333333333", "0.0833333333333333",
         "0.0833333333333334"],
        "bc225ae54fd69dab9c3006324dad528b7b85394b9f60fc636c41ee6fe36c8ecd", "", 0),
    "step_renormalized": (
        ["step", "0.75", "0.0833333333", "0.0833333333", "0.0833333333"],
        "894299163d6f512f91686ca79d1f32de6726899a9821a7ee7921a88bf340f3f3",
        "warning: renormalizing input (sum deviates by 1e-10)\n", 0),
    "step_bad_sum": (
        ["step", "0.5", "0.5", "0.5", "0.5"], _EMPTY,
        "error: coefficients sum to 2.0; deviations above 1e-9 are rejected\n", 2),
    "step_negative": (
        ["step", "1.2", "-0.2", "0", "0"], _EMPTY,
        "error: negative coefficient in [1.2, -0.2, 0.0, 0.0]\n", 2),
    "nmin_stdout": (
        ["nmin", "--start", "0.45", "--stop", "0.6", "--step", "0.05"],
        "cae5f00ef6deb887dddccf1e42949c50d27a596ac45f741c2d5d512f9894c7b4", "", 0),
    "nmin_out_file": (
        ["nmin", "--start", "0.7", "--stop", "0.8", "--step", "0.05", "--out", "{out}"],
        "f92a43802ffbf7a1fc88734aab70246bbe98a8450b1211845f99f3d5c9959c02", "", 0),
    "iterate_backup": (
        ["iterate", "--n", "5", "--a0", "0.75"],
        "dc2c7079e93d2f441a0a988645003bcd58caa2c25796bb299a6499f96eb343e4", "", 0),
    "iterate_nobackup": (
        ["iterate", "--n", "6", "--a0", "0.8", "--policy", "nobackup"],
        "5db17c1d8c634ffad1173d1dbe3e60c67f1f13eb5a2c69bca421b99d304587bd", "", 0),
    "iterate_drop_even": (
        ["iterate", "--n", "6", "--a0", "0.8", "--policy", "drop-even"],
        "e13a817dd39d6f4d863d970d203e67985986e5abaf8fcb95fdbff96f7f357c73", "", 0),
    "iterate_fu_conditional_exact": (
        ["iterate", "--n", "4", "--a0", "0.7", "--policy", "nobackup",
         "--fu", "conditional"],
        "19d5c8a7fd1e57d9004bc18f15f0fbf65eecab4b0bdf35ccf49854196cae8830", "", 0),
    "iterate_fu_conditional_mc": (
        ["iterate", "--n", "6", "--a0", "0.7", "--policy", "nobackup",
         "--fu", "conditional", "--method", "mc", "--trials", "2000", "--seed", "3"],
        "4aae319a049f19618221edc891af4b320f630d3a7049e5f58d05e63a3e01314f", "", 0),
    "iterate_cap": (["iterate", "--n", "5000", "--a0", "0.75"], _EMPTY, _CAP_ERROR, 3),
    "iterate_mc_trial_cap": (
        ["iterate", "--n", "5", "--a0", "0.75", "--method", "mc", "--trials",
         "10000000000000"], _EMPTY,
        "error: Monte Carlo capped at 10000000 trials; "
        "use fewer trials or average independent seeds\n", 3),
    "fig3_drop_even": (
        ["fig3", "--policy", "drop-even", "--n-list", "3,8", "--start", "0.6",
         "--stop", "0.8", "--step", "0.1"],
        "2ea016ccf0f1f1268f297657a4616e05cb490d564d5fa7bc5b2871d78795c3b2", "", 0),
    "fig4_a0": (
        ["fig4", "--a0", "0.6", "--n-stop", "8"],
        "c738180fb413098c19be5ac3121b2da325addd172534e1f9bcb79ceb0bbb7142", "", 0),
    "verify_oracle": (
        ["verify-oracle", "--samples", "30", "--seed", "5"],
        "2caa610303f96b64821597b3f304b637abfa80971ad3bed4d31d60f8a07f7e3f", "", 0),
    # the rotation's cut at 1000 samples falls inside the stack of 992-1007
    "verify_oracle_rotation_cut": (
        ["verify-oracle", "--samples", "1009", "--seed", "3"],
        "7a07d8bf6954833a78317e6cc0dc0dd7b7884df18d89c0700e378ec04d77fb8b", "", 0),
    "verify_oracle_sample_cap": (
        ["verify-oracle", "--samples", "1000001"], _EMPTY, _ORACLE_CAP_ERROR, 3),
    "verify_oracle_no_samples": (
        ["verify-oracle", "--samples", "0"], _EMPTY,
        "error: sample count must be >= 1, got 0\n", 2),
    "fig3_cap": (
        ["fig3", "--n-list", "4097", "--start", "0.7", "--stop", "0.75", "--step", "0.05"],
        _EMPTY, _CAP_ERROR, 3),
    "fig4_cap": (["fig4", "--n-start", "4097", "--n-stop", "4097"], _EMPTY, _CAP_ERROR, 3),
    "fig3_zero_step": (
        ["fig3", "--step", "0"], _EMPTY,
        "error: grid requires step > 0 and start < stop\n", 2),
    "nmin_out_missing_dir": (
        ["nmin", "--start", "0.7", "--stop", "0.8", "--step", "0.05", "--out",
         "{missing}"], _EMPTY,
        "error: [Errno 2] No such file or directory: '{missing}'\n", 2),
    "fig4_out_missing_dir": (
        ["fig4", "--n-stop", "4", "--out", "{missing}"], _EMPTY,
        "error: [Errno 2] No such file or directory: '{missing}'\n", 2),
    "step_nan": (
        ["step", "nan", "0", "0", "0"], _EMPTY,
        "error: coefficients sum to nan; deviations above 1e-9 are rejected\n", 2),
    "nmin_step_nan": (
        ["nmin", "--step", "nan"], _EMPTY,
        "error: grid requires finite start, stop and step\n", 2),
    "fig3_step_inf": (
        ["fig3", "--step", "inf"], _EMPTY,
        "error: grid requires finite start, stop and step\n", 2),
    "nmin_step_subnormal": (
        ["nmin", "--step", "5e-324"], _EMPTY, _GRID_CAP_ERROR, 3),
    "fig3_step_tiny": (["fig3", "--step", "1e-7"], _EMPTY, _GRID_CAP_ERROR, 3),
    "nmin_step_below_resolution": (
        ["nmin", "--start", "0.6", "--stop", "0.60000000001", "--step", "1e-13"],
        _EMPTY,
        "error: grid step must be at least 1e-12, the resolution of the grid points\n",
        2),
    "iterate_mc_seed_negative": (
        ["iterate", "--n", "5", "--a0", "0.75", "--method", "mc", "--trials", "10",
         "--seed", "-1"], _EMPTY,
        "error: key must be positive and less than 2**128.\n", 2),
    "iterate_mc_seed_above_2_64": (
        ["iterate", "--n", "13", "--a0", "0.7", "--method", "mc", "--trials", "3000",
         "--seed", "18446744073709551621"],
        "5103d96690428d300d3ada2e2404b82d08972f674d862e78df6bd6a7d0925f2f", "", 0),
    "fig4_zero_pairs": (
        ["fig4", "--n-start", "0", "--n-stop", "3"], _EMPTY,
        "error: pair count must be >= 1, got 0\n", 2),
    "fig4_empty_range": (
        ["fig4", "--n-start", "10", "--n-stop", "5"], _EMPTY,
        "error: empty pair range: --n-start 10 > --n-stop 5\n", 2),
    # a step that does not divide the range stops short of --stop
    "nmin_step_not_dividing": (
        ["nmin", "--start", "0.5", "--stop", "0.6", "--step", "0.035"],
        "6d25e2e5102b161f70147c075504953b910a8919b9d88ff2336bd3582ee5e0fd", "", 0),
    # duplicate and unsorted counts, all read from one table per A0
    "fig3_unsorted_duplicates": (
        ["fig3", "--policy", "nobackup", "--n-list", "6,4,6,128", "--start", "0.55",
         "--stop", "0.95", "--step", "0.1"],
        "60af76ceda13591bd901bc7df953c87e91a833c3c7eeaf4054c32e5aa9b7cf72", "", 0),
    # werner(0) is a valid state; only the ratio is undefined there
    "fig3_a0_zero": (
        ["fig3", "--n-list", "4,5", "--start", "0", "--stop", "0.1", "--step", "0.05"],
        "bbaf56d614b81de14197403b114d349b1f3fcc7df3e7f2152e2adefb4afad403", "", 0),
    "iterate_mc_n_past_signed_index": (
        ["iterate", "--method", "mc", "--a0", "0.7", "--trials", "5", "--n",
         "9223372036854775808"], _EMPTY,
        "error: stream index trials * n = 5 * 9223372036854775808 "
        "does not fit in 64 bits\n", 2),
    "iterate_mc_stream_index_past_64_bits": (
        ["iterate", "--method", "mc", "--a0", "0.7", "--trials", "5", "--n",
         "4611686018427387904"], _EMPTY,
        "error: stream index trials * n = 5 * 4611686018427387904 "
        "does not fit in 64 bits\n", 2),
    "fig3_stop_at_one": (
        ["fig3", "--start", "0.5", "--stop", "1.0", "--step", "0.3"],
        "124ce3f1e79da3dbde8da644f4e6ada54e07b8b5b46044df1029aca4dfa7d687", "", 0),
    # errors come in the order of a loop over A0: the first A0, then the
    # counts, then the later A0s
    "fig3_bad_first_a0_before_cap": (
        ["fig3", "--n-list", "4,5000", "--start", "1.1", "--stop", "1.3", "--step", "0.1"],
        _EMPTY, "error: Werner parameter 1.1 outside [0, 1]\n", 2),
    "fig3_cap_before_bad_later_a0": (
        ["fig3", "--n-list", "4,5000", "--start", "0.9", "--stop", "1.2", "--step", "0.1"],
        _EMPTY, _CAP_ERROR, 3),
    "fig3_zero_count_before_bad_later_a0": (
        ["fig3", "--n-list", "0,4", "--start", "0.9", "--stop", "1.2", "--step", "0.1"],
        _EMPTY, "error: pair count must be >= 1, got 0\n", 2),
    # a trajectory reads up to n uniforms: the work, not only the trials, is capped
    "iterate_mc_work_cap": (
        ["iterate", "--method", "mc", "--a0", "0.7", "--trials", "1", "--n",
         "4611686018427387903"], _EMPTY,
        "error: Monte Carlo capped at trials * n = 8000000000; "
        "use fewer trials or fewer pairs\n", 3),
}


#: In-process calls in a row, argparse errors included, for the parser that
#: ``main`` builds once per process.
SEQUENCE = [
    ["fig3", "--n-list", "4,6", "--start", "0.6", "--stop", "0.7", "--step", "0.05"],
    ["step", "not-a-number", "0", "0", "0"],
    ["nmin", "--start", "0.6", "--stop", "0.7", "--step", "0.05"],
    ["iterate", "--a0", "0.75"],
    ["fig3", "--policy", "bogus"],
    ["iterate", "--n", "5", "--a0", "0.75", "--policy", "nobackup"],
    ["fig4", "--n-stop", "5", "--a0", "2"],
    [],
    ["fig3", "--n-list", "4,6", "--start", "0.6", "--stop", "0.7", "--step", "0.05"],
]


def test_consecutive_calls_match_separate_processes(capsys, monkeypatch):
    # the same usage line width in both processes
    monkeypatch.setenv("COLUMNS", "100")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    for argv in SEQUENCE:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "belldistil.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert (captured.out, captured.err, code) == (
            proc.stdout, proc.stderr, proc.returncode), argv


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_output_and_exit_code(name, capsys, tmp_path):
    argv, digest, stderr, code = PINNED[name]
    path = tmp_path / "out.csv"
    missing = str(tmp_path / "missing" / "out.csv")
    stderr = stderr.replace("{missing}", missing)
    to_file = "{out}" in argv
    argv = [{"{out}": str(path), "{missing}": missing}.get(arg, arg) for arg in argv]
    got_code, out, err = run(capsys, *argv)
    if to_file:
        assert out == ""
        out = path.read_text(encoding="ascii")
    assert (hashlib.sha256(out.encode("ascii")).hexdigest(), err, got_code) == (
        digest, stderr, code)


def test_exact_work_cap_exits_before_any_table(capsys, monkeypatch):
    # 49,001 states at 4096 pairs: about ten times the cap
    monkeypatch.setattr(iterative_scheme, "_exact_table", None)
    start = time.perf_counter()
    code, out, err = run(capsys, "fig3", "--n-list", "4096", "--step", "1e-5")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (3, "", (
        "error: exact expectation capped at states * n**2 = 80000000000; "
        "use fewer states or fewer pairs\n"))


@pytest.mark.parametrize("samples", ["1000001", "100000000", str(10**30)])
def test_oracle_sample_cap_exits_before_any_draw(samples, capsys, monkeypatch):
    monkeypatch.setattr(oracle.np.random, "default_rng", None)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify-oracle", "--samples", samples)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (3, "", _ORACLE_CAP_ERROR)


def test_nmin_rows_match_n_min_and_round_up_even(capsys):
    grid = _a_grid(0.45, 1.0, 0.0005)
    code, out, _ = run(capsys, "nmin", "--start", "0.45", "--stop", "1", "--step", "0.0005")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert code == 0 and [row[0] for row in rows] == [_fmt(a) for a in grid]
    convs = [UnsuccessfulConvention.LOCC_FLOOR, UnsuccessfulConvention.CONDITIONAL]
    empty = 0
    for a, row in zip(grid, rows):
        for conv, cells in zip(convs, (row[1:3], row[3:])):
            try:
                value = n_min(werner(a), conv)
            except NotDistillableError:
                empty += 1
                assert cells == ["", ""]
            else:
                assert cells == [_fmt(value), str(round_up_even(value))]
    assert 0 < empty < len(rows)


def test_pinned_rows_and_benchmark_ops_stay_under_the_work_cap(capsys, monkeypatch,
                                                                tmp_path):
    # the tables of one call cover states * n**2 of each sweep it makes
    work = []
    table = iterative_scheme._exact_table

    def counting_table(fid, psucc, n, policy):
        work.append(fid[0].size * n**2)
        return table(fid, psucc, n, policy)

    monkeypatch.setattr(iterative_scheme, "_exact_table", counting_table)
    paths = {"{out}": str(tmp_path / "out.csv"),
             "{missing}": str(tmp_path / "missing" / "out.csv")}
    calls = {name: lambda argv=argv: run(capsys, *[paths.get(a, a) for a in argv])
             for name, (argv, _, _, _) in PINNED.items()}
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    goldens = workloads.load_goldens()
    for make in (workloads.paper_figures, workloads.exact_large_n):
        calls.update({f"{make.__name__}.{op.name}": op.call
                      for op in make(workloads.DEFAULT_SEED, goldens)})
    largest = 0
    for name, call in calls.items():
        work.clear()
        call()
        assert sum(work) <= iterative_scheme._EXACT_WORK_CAP, name
        largest = max(largest, sum(work))
    assert largest == 4096**2
