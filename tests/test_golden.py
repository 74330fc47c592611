"""Byte-for-byte golden outputs of the CLI and the two scripts.

Each case runs one invocation and compares its exit code and stdout with
``tests/golden/<name>.out``.  Bad-input cases also compare stderr, the
error message, with ``tests/golden/<name>.err``.  CLI cases run in
process; the scripts run as subprocesses with ``PYTHONPATH=src``.

After an intended output change, re-record every expected file with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from demazure.cli import CACHE_ENV_VAR, run as cli_run
from test_acceptance import GOLDEN_CORPUS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# (name, argv, exit code, compare stderr)
CLI_CASES = [
    (f"corpus{k:02d}_{argv[0]}", argv, 0, False) for k, argv in enumerate(GOLDEN_CORPUS)
] + [
    ("branch_B3_212_S13", ["branch", "--type", "B3", "--weight", "2,1,2", "--subset", "1,3"], 0, False),
    ("branch_C3_121_S2", ["branch", "--type", "C3", "--weight", "1,2,1", "--subset", "2"], 0, False),
    ("branch_A4_1010_S123", ["branch", "--type", "A4", "--weight", "1,0,1,0", "--subset", "1,2,3"], 0, False),
    ("branch_G2_21_S1", ["branch", "--type", "G2", "--weight", "2,1", "--subset", "1"], 0, False),
    ("branch_D4_1011_S134", ["branch", "--type", "D4", "--weight", "1,0,1,1", "--subset", "1,3,4"], 0, False),
    ("branch_F4_1001_S23", ["branch", "--type", "F4", "--weight", "1,0,0,1", "--subset", "2,3"], 0, False),
    ("branch_B2_21_empty", ["branch", "--type", "B2", "--weight", "2,1", "--subset", ""], 0, False),
    ("branch_A3_111_full", ["branch", "--type", "A3", "--weight", "1,1,1", "--subset", "1,2,3"], 0, False),
    ("bad_branch_not_dominant", ["branch", "--type", "A2", "--weight=-1,1", "--subset", "1"], 2, True),
    ("bad_branch_index", ["branch", "--type", "A2", "--weight", "1,1", "--subset", "3"], 2, True),
    ("bad_branch_rank", ["branch", "--type", "A2", "--weight", "1,1,1", "--subset", "1"], 2, True),
    ("bad_branch_family", ["branch", "--type", "H3", "--weight", "1,1,1", "--subset", "1"], 2, True),
    ("bad_rank_too_many_digits", ["dual", "--type", "A" + "9" * 5000, "--weight", "1"], 2, True),
    ("bad_unirad_not_s_dominant", ["unirad", "--type", "A2", "--weight=-1,1", "--subset", "1"], 2, True),
] + [
    (f"hecke_{name}", ["hecke", "--type", name[:2], "--left", left, "--right", right], 0, False)
    for name, left, right in (
        # two words of 45 and 40 letters whose product has length 21, neither e nor w0
        ("F4_long",
         "4,4,2,2,2,2,2,4,1,2,4,3,4,2,2,1,3,2,2,2,4,4,4,3,3,4,2,3,2,2,3,3,2,3,4,3,2,3,3,3,4,2,3,3,3",
         "1,1,1,3,2,3,3,3,1,1,2,2,3,2,3,2,2,3,2,1,1,3,3,2,3,1,2,3,1,1,2,1,1,1,3,2,3,1,4,1"),
        ("E6_nonreduced_left", "1,1,3,4,3,2,4,5,6,6,5", "6,5,4,3,1,2"),
        ("D4_empty_left", "", "1,2,3,4,2,1,3"),
        ("G2", "2,1", "1,2,1"),
    )
] + [
    ("bad_hecke_letter", ["hecke", "--type", "A3", "--left", "0,1", "--right", "1"], 2, True),
    ("bad_growth_not_reduced", ["growth", "--type", "A2", "--word", "1,1", "--weight", "1,1"], 2, True),
    # s_1 w0 of F4 at omega_4: not the longest element of any parabolic
    # subgroup, so the general interval route answers it
    ("growth_F4_s1w0_0001",
     ["growth", "--type", "F4", "--word", "2,1,3,2,1,3,2,3,4,3,2,1,3,2,3,4,3,2,1,3,2,3,4", "--weight", "0,0,0,1"],
     0, False),
    # the two-token --grid form and grid size the benchmark sends
    ("sl3t_grid_2_1", ["sl3t", "--grid", "2", "1"], 0, False),
    ("bad_sl3t_grid_one_number", ["sl3t", "--grid", "1"], 2, True),
    ("bad_sl3t_grid_and_single", ["sl3t", "--k1", "1", "--k2", "1", "--l=0,0,0", "--grid", "1", "1"], 2, True),
    ("bad_sl3t_grid_too_many_digits", ["sl3t", "--grid", "9" * 5000, "1"], 2, True),
    # argv that only argparse reads: an abbreviated flag, a repeated flag
    # (the last one counts) and a missing one, whose usage text varies
    # between Python versions
    ("dual_A2_abbreviated_flag", ["dual", "--type", "A2", "--wei", "1,0"], 0, False),
    ("dual_A2_repeated_flag", ["dual", "--type", "A2", "--weight", "0,1", "--weight", "1,0"], 0, False),
    ("bad_dim_missing_weight", ["dim", "--type", "A2", "--word", "1"], 2, False),
    # a single-value flag given "--", which argparse reads as [] before
    # Python 3.13 and as "--" from then on
    ("bad_char_word_double_dash", ["char", "--type", "A2", "--word=--", "--weight", "1,0"], 2, False),
    ("bad_growth_format_double_dash",
     ["growth", "--type", "A2", "--word", "1", "--weight", "1,0", "--format=--"], 2, False),
]
SCRIPT_CASES = [
    (f"growth_table_{t}", ["scripts/growth_table.py", "--type", t], 0, False) for t in ("A2", "B2", "G2", "B3")
] + [
    ("growth_table_A3_101_w0", ["scripts/growth_table.py", "--type", "A3", "--weight", "1,0,1", "--window", "0"], 0, False),
    ("sl3t_audit_k3_l2", ["scripts/sl3t_audit.py", "--kmax", "3", "--lmax", "2", "--table"], 0, False),
    # the summary line of the 16,807-biweight run the README quotes
    ("sl3t_audit_k6_l3", ["scripts/sl3t_audit.py", "--kmax", "6", "--lmax", "3"], 0, False),
    ("bad_growth_table_E7", ["scripts/growth_table.py", "--type", "E7"], 2, True),
    # each bad input is refused before the header line
    ("bad_growth_table_weight_malformed", ["scripts/growth_table.py", "--weight", "1,x"], 2, True),
    ("bad_growth_table_weight_length", ["scripts/growth_table.py", "--type", "A3", "--weight", "1,1"], 2, True),
    ("bad_growth_table_not_dominant", ["scripts/growth_table.py", "--type", "B2", "--weight", "2,-1"], 2, True),
    ("bad_growth_table_window", ["scripts/growth_table.py", "--window", "-1"], 2, True),
    ("bad_sl3t_audit_kmax", ["scripts/sl3t_audit.py", "--kmax", "-1"], 2, True),
    ("bad_sl3t_audit_lmax", ["scripts/sl3t_audit.py", "--lmax", "-1", "--table"], 2, True),
]


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_run(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def _run_script(argv):
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV_VAR}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def _cases():
    return [(case, _run_cli) for case in CLI_CASES] + [(case, _run_script) for case in SCRIPT_CASES]


@pytest.mark.parametrize(
    "case, runner", _cases(), ids=[case[0] for case, _runner in _cases()]
)
def test_golden_output(case, runner, monkeypatch):
    name, argv, expected_code, check_stderr = case
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, out, err = runner(argv)
    assert code == expected_code, (name, err)
    assert out == (GOLDEN / f"{name}.out").read_bytes(), name
    if check_stderr:
        assert err == (GOLDEN / f"{name}.err").read_bytes(), name


if __name__ == "__main__":
    os.environ.pop(CACHE_ENV_VAR, None)
    GOLDEN.mkdir(exist_ok=True)
    for (name, argv, expected_code, check_stderr), runner in _cases():
        code, out, err = runner(argv)
        if code != expected_code:
            raise SystemExit(f"{name}: exit {code}, expected {expected_code}")
        (GOLDEN / f"{name}.out").write_bytes(out)
        if check_stderr:
            (GOLDEN / f"{name}.err").write_bytes(err)
    print(f"recorded {len(_cases())} cases in {GOLDEN}")
