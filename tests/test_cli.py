import argparse
import ast
import io
import contextlib
import hashlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import demazure.branching
import demazure.characters
import demazure.growth
import demazure.cli as cli
import demazure.sl3t
from demazure import root_system, weyl_dim
from demazure.cli import CACHE_ENV_VAR, run
from demazure.sl3t import audit_rows


def cap(argv):
    """Run the CLI in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


ADJOINT_JSON = (
    '{"root_system":"A2","terms":['
    '{"weight":[-2,1],"coeff":"1"},{"weight":[-1,-1],"coeff":"1"},'
    '{"weight":[-1,2],"coeff":"1"},{"weight":[0,0],"coeff":"2"},'
    '{"weight":[1,-2],"coeff":"1"},{"weight":[1,1],"coeff":"1"},'
    '{"weight":[2,-1],"coeff":"1"}]}'
)


def test_dim_adjoint():
    code, out, err = cap(["dim", "--type", "A2", "--word", "1,2,1", "--weight", "1,1"])
    assert (code, out, err) == (0, "8\n", "")


def test_dim_partial_word():
    assert cap(["dim", "--type", "A2", "--word", "1,2", "--weight", "1,1"])[:2] == (0, "5\n")


def test_char_empty_word():
    code, out, _ = cap(["char", "--type", "A1", "--word", "", "--weight", "3"])
    assert code == 0
    assert out == '{"root_system":"A1","terms":[{"weight":[3],"coeff":"1"}]}\n'


def test_char_adjoint():
    code, out, _ = cap(["char", "--type", "A2", "--word", "1,2,1", "--weight", "1,1"])
    assert code == 0
    assert out == ADJOINT_JSON + "\n"


def test_weight_mult():
    code, out, _ = cap(["weight-mult", "--type", "A2", "--weight", "1,1", "--mu", "0,0"])
    assert (code, out) == (0, "2\n")


def test_dual():
    code, out, _ = cap(["dual", "--type", "A2", "--weight", "2,1"])
    assert (code, out) == (0, "[1,2]\n")


def test_hecke_fold():
    code, out, _ = cap(["hecke", "--type", "A2", "--left", "1,2,1,2", "--right", ""])
    assert code == 0
    assert json.loads(out) == {"word": [1, 2, 1], "length": 3}
    code, out, _ = cap(["hecke", "--type", "A2", "--left", "1", "--right", "1"])
    assert json.loads(out) == {"word": [1], "length": 1}


def test_hecke_refuses_a_letter_out_of_range():
    code, out, err = cap(["hecke", "--type", "A3", "--left", "1", "--right", "2,4"])
    assert (code, out, err) == (2, "", "error: simple index 4 out of range 1..3\n")


def test_branch_output():
    code, out, _ = cap(["branch", "--type", "A2", "--weight", "1,1", "--subset", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["weyl_dim"] == "8"
    assert doc["bound"] == "5"
    assert doc["length"] == "4"
    assert doc["length_holds"] is True
    assert doc["dimension_conserved"] is True
    assert len(doc["constituents"]) == 4
    assert all(c["holds"] for c in doc["constituents"])
    assert sorted(int(c["levi_dim"]) for c in doc["constituents"]) == [1, 2, 2, 3]


def test_branch_computes_the_weyl_dimension_once(monkeypatch):
    # _branch checks that the constituents fill dim V(lam), and the CLI
    # prints that same total instead of a second product
    calls = []

    def counted(rs, lam):
        calls.append(tuple(lam))
        return weyl_dim(rs, lam)

    for module in (demazure.characters, demazure.branching, cli):
        monkeypatch.setattr(module, "weyl_dim", counted, raising=False)
    code, out, _ = cap(["branch", "--type", "B3", "--weight", "2,1,2", "--subset", "1,3"])
    assert code == 0
    assert json.loads(out)["weyl_dim"] == str(weyl_dim(root_system("B3"), (2, 1, 2)))
    assert calls == [(2, 1, 2)]


def test_unirad_output():
    code, out, _ = cap(["unirad", "--type", "A3", "--weight", "1,1,0", "--subset", "1,2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["demazure_side"] == doc["levi_side"] == "8"
    assert doc["equal"] is True


def test_growth_json():
    code, out, _ = cap(["growth", "--type", "A2", "--word", "1,2", "--weight", "1,1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["values"][:5] == ["1", "5", "12", "22", "35"]
    assert doc["degree"] == 2
    assert doc["length_w"] == 2
    assert doc["match"] is True
    assert doc["bound_holds"] is True


def test_growth_tsv():
    code, out, _ = cap(
        ["growth", "--type", "A2", "--word", "1,2", "--weight", "1,1", "--format", "tsv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n\tdim\tdiff1\tdiff2\tdiff3"
    assert lines[1].startswith("0\t1\t")
    first = [row.split("\t")[1] for row in lines[1:]]
    assert first == ["1", "5", "12", "22", "35", "51", "70"]
    # third differences vanish (later rows leave the column blank)
    third = [row.split("\t")[4] for row in lines[1:]]
    filled = [x for x in third if x]
    assert filled and set(filled) == {"0"}


def test_growth_exit_one_when_degree_exceeds_length(monkeypatch):
    import demazure.cli as cli

    monkeypatch.setattr(cli, "growth_degree", lambda seq: 99)
    code, _, _ = cap(["growth", "--type", "A2", "--word", "1,2", "--weight", "1,1"])
    assert code == 1


@pytest.mark.parametrize("module, name, fake, argv, message", [
    (demazure.branching, "_straightened", lambda *args: iter([((1, 1), -1)]),
     ["branch", "--type", "A2", "--weight", "1,1", "--subset", "1"],
     "alternating sum gave multiplicity -1 at (1, 1)"),
    (demazure.branching, "_straightened", lambda *args: iter([]),
     ["branch", "--type", "A2", "--weight", "1,1", "--subset", "1"],
     "branching lost dimensions; the alternating sum is broken"),
    (demazure.growth, "_specialisation", lambda *args: (1 << 20, [2, 9, 9, 9, 9, 9, 9]),
     ["growth", "--type", "A2", "--word", "1,2", "--weight", "1,1"],
     "dilation sequence must start at 1"),
    (demazure.growth, "_specialisation", lambda *args: (1 << 20, [1, 3, 2, 4, 5, 6, 7]),
     ["growth", "--type", "A2", "--word", "1,2", "--weight", "1,1"],
     "dilation sequence must be nondecreasing"),
], ids=["negative", "lost", "start", "decreasing"])
def test_broken_internal_checks_exit_two(monkeypatch, module, name, fake, argv, message):
    monkeypatch.setattr(module, name, fake)
    assert cap(argv) == (2, "", f"error: {message}\n")


def test_sl3t_single():
    code, out, _ = cap(["sl3t", "--k1", "1", "--k2", "1", "--l", "0,0,0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["member"] is True
    assert doc["closed_mult"] == doc["weight_mult"] == doc["theorem2_mult"] == "2"
    assert doc["agree"] is True
    assert doc["n"] == "1"


def test_sl3t_single_query_prints_the_grid_row():
    for k1, k2, l1, l2, l3, member, n, closed, weights, steps, agree in audit_rows(2, 1):
        code, out, _ = cap(["sl3t", "--k1", str(k1), "--k2", str(k2), f"--l={l1},{l2},{l3}"])
        assert code == (0 if agree else 1)
        assert json.loads(out) == {
            "k1": k1, "k2": k2, "l": [l1, l2, l3], "member": member, "n": n,
            "closed_mult": str(closed), "weight_mult": str(weights), "theorem2_mult": str(steps),
            "agree": agree,
        }


def test_sl3t_single_query_computes_6n_once_for_a_non_member(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return six_n(*args)

    six_n = demazure.sl3t._six_n
    monkeypatch.setattr(demazure.sl3t, "_six_n", counted)
    code, out, _ = cap(["sl3t", "--k1", "1", "--k2", "0", "--l", "0,0,0"])
    assert (code, json.loads(out)["member"]) == (0, False)
    assert calls == [(1, 0, (0, 0, 0))]


def test_sl3t_grid_forms():
    code1, out1, _ = cap(["sl3t", "--grid", "1,1"])
    code2, out2, _ = cap(["sl3t", "--grid", "1", "1"])
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0].split("\t")[:3] == ["k1", "k2", "l1"]
    assert len(lines) == 1 + 4 * 27


@pytest.mark.parametrize(
    "grid",
    [["--grid", "1"], ["--grid", "0", "-1"], ["--grid=-1,0"], ["--grid", "1", "1", "1"],
     ["--grid", "1,1,1"], ["--grid", "1", "x"], ["--grid", "1,"]],
    ids=" ".join,
)
def test_sl3t_grid_takes_two_non_negative_integers(grid):
    code, out, err = cap(["sl3t", *grid])
    assert (code, out) == (2, "")
    assert err.startswith("error: --grid takes two non-negative integers")


def test_sl3t_grid_counts_digits_before_int():
    # refused before int(), which on Python 3.10 converts any length
    for grid, digits in ((["1," + "9" * 5000], "5,000"), (["9" * 21, "1"], "21")):
        code, out, err = cap(["sl3t", "--grid", *grid])
        assert (code, out) == (2, "")
        assert err == f"error: --grid takes numbers of at most 20 digits, got one of {digits}\n"
    # leading zeros do not count
    assert cap(["sl3t", "--grid", "0" * 30 + "1", "0"]) == cap(["sl3t", "--grid", "1,0"])


@pytest.mark.parametrize(
    "single",
    [["--k1", "1"], ["--k2", "1"], ["--l=0,0,0"], ["--k1", "1", "--k2", "1", "--l=0,0,0"]],
    ids=" ".join,
)
def test_sl3t_refuses_grid_with_single_query_flags(single):
    code, out, err = cap(["sl3t", *single, "--grid", "1", "1"])
    assert (code, out) == (2, "")
    assert err == "error: give either --grid or all of --k1, --k2, --l, not both\n"


def test_sl3t_needs_arguments():
    code, _, err = cap(["sl3t"])
    assert code == 2
    assert "need either --grid" in err


# run() converts every flag before the handler runs, so a malformed
# integer list is reported before a check on any other flag, and of two
# malformed lists the first in flag order is reported.
@pytest.mark.parametrize("argv", [
    ["hecke", "--type", "A2", "--left", "5", "--right", "x"],  # was: simple index 5 out of range
    ["unirad", "--type", "A2", "--weight", "x", "--subset", "5"],  # was: the index error
    ["growth", "--type", "A2", "--word", "1,1", "--weight", "x"],  # was: not reduced
    ["sl3t", "--grid", "1", "1", "--l", "x"],  # was: give either --grid ...
    ["sl3t", "--k1", "1", "--l", "x"],  # was: need either --grid ...
    ["unirad", "--type", "A2", "--weight", "x", "--subset", "y"],  # was: got 'y'
], ids=" ".join)
def test_a_malformed_integer_list_is_reported_first(argv):
    assert cap(argv) == (2, "", "error: expected comma-separated integers, got 'x'\n")


def test_flags_are_declared_once_in_the_table():
    # every option of every subparser is an entry of cli._FLAGS, with that
    # entry's settings, in table order ...
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert list(subparsers.choices) == list(cli._SUBCOMMANDS)
    for name, parser in subparsers.choices.items():
        entries = [entry for entry in cli._FLAGS if name in entry[2].split()]
        actions = [a for a in parser._actions if a.dest != "help"]
        assert [a.option_strings for a in actions] == [[f"--{e[0]}"] for e in entries], name
        for action, (flag, _, _, settings) in zip(actions, entries):
            assert action.dest == settings.get("dest", flag)
            assert all(getattr(action, key) == value for key, value in settings.items())
        # ... and its handler takes exactly those flags' values
        handler = cli._SUBCOMMANDS[name][0]
        dests = [a.dest for a in actions]
        assert list(inspect.signature(handler).parameters) == dests, name
    assert "rs" in inspect.signature(cli._cmd_char).parameters
    # no handler converts a flag, reads the environment or sees a Namespace
    tree = ast.parse(inspect.getsource(cli))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_"):
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            assert not names & {"root_system", "_csv_ints", "os", "argparse"}, node.name


def test_usage_errors_exit_two(tmp_path, monkeypatch):
    assert cap(["définitivement-pas-une-commande"])[0] == 2
    assert cap(["dim", "--type", "A2", "--word", "1"])[0] == 2  # missing --weight
    code, _, err = cap(["dim", "--type", "Z9", "--word", "1", "--weight", "1,1"])
    assert code == 2
    assert "unknown family" in err
    code, _, err = cap(["dim", "--type", "A2", "--word", "1,2", "--weight=-1,1"])
    assert code == 2
    assert "not dominant" in err
    code, _, err = cap(["char", "--type", "A2", "--word", "1,1", "--weight", "1,1"])
    assert code == 2
    assert "not reduced" in err
    code, _, err = cap(["dim", "--type", "A2", "--word", "x", "--weight", "1,1"])
    assert code == 2
    assert "comma-separated integers" in err
    # refused before the root system is built
    code, _, err = cap(["dual", "--type", "A200", "--weight", "1"])
    assert code == 2
    assert err == "error: rank 200 invalid for type A; allowed 1..100\n"
    # a cache directory that is a regular file, or lies under one
    blocker = tmp_path / "F"
    blocker.write_text("")
    for sub in ("char", "dim"):
        for cache in (blocker, blocker / "sub"):
            code, out, err = cap([sub, "--type", "A2", "--word", "1", "--weight", "1,0",
                                  "--cache", str(cache)])
            assert (code, out) == (2, ""), (sub, cache)
            assert err.startswith("error: ") and "Traceback" not in err
    monkeypatch.setenv(CACHE_ENV_VAR, str(blocker))
    code, out, err = cap(["dim", "--type", "A2", "--word", "1", "--weight", "1,0"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


# a valid argv of each subcommand, without --grid, one value per flag
_VALID_FLAGS = {
    "char": {"type": "A2", "word": "1", "weight": "1,0", "cache": "c"},
    "dim": {"type": "A2", "word": "1", "weight": "1,0", "cache": "c"},
    "weight-mult": {"type": "A2", "weight": "1,0", "mu": "1,0"},
    "dual": {"type": "A2", "weight": "1,0"},
    "hecke": {"type": "A2", "left": "1", "right": "2"},
    "branch": {"type": "A2", "weight": "1,0", "subset": "1"},
    "unirad": {"type": "A2", "weight": "1,0", "subset": "1"},
    "growth": {"type": "A2", "word": "1", "weight": "1,0", "n": "3", "format": "tsv"},
    "sl3t": {"k1": "1", "k2": "1", "l": "0,0,0"},
}


def test_a_single_value_flag_given_double_dash_exits_two(tmp_path, monkeypatch):
    # argparse reads --name=-- as [] before Python 3.13 and as "--" from
    # then on; either is a usage error, caught before any conversion, so
    # nothing is printed, nothing raises and no cache directory is made
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    monkeypatch.chdir(tmp_path)
    singles = [(f, sub) for f, _, names, s in cli._FLAGS if "nargs" not in s for sub in names.split()]
    assert {sub for _, sub in singles} == set(_VALID_FLAGS)
    for sub, flags in _VALID_FLAGS.items():
        assert cap([sub, *(f"--{f}={v}" for f, v in flags.items() if f != "cache")])[0] == 0, sub
    for flag, sub in singles:
        argv = [sub, *(f"--{f}={v}" for f, v in _VALID_FLAGS[sub].items() if f != flag), f"--{flag}=--"]
        code, out, err = cap(argv)
        assert (code, out) == (2, ""), argv
        assert "Traceback" not in err, argv
        assert list(tmp_path.iterdir()) == [], argv


def test_unusable_cache_directory_fails_before_any_work(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("character computed before the cache directory was made")

    monkeypatch.setattr(cli, "demazure_character", refuse)
    blocker = tmp_path / "F"
    blocker.write_text("")
    argv = ["dim", "--type", "B3", "--word", "1,2,1,3,2,1,3,2,3", "--weight", "12,12,12"]

    def check(argv):
        code, out, err = cap(argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot create cache directory {blocker}: ")
        assert err.count("\n") == 1

    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    check(argv + ["--cache", str(blocker)])
    monkeypatch.setenv(CACHE_ENV_VAR, str(blocker))
    check(argv)


def test_cache_cold_then_warm(tmp_path):
    argv = ["char", "--type", "A2", "--word", "1,2,1", "--weight", "1,1",
            "--cache", str(tmp_path)]
    code1, out1, err1 = cap(argv)
    assert code1 == 0 and err1 == ""
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    code2, out2, err2 = cap(argv)
    assert code2 == 0
    assert out2 == out1
    assert "cache hit" in err2


def test_cache_tamper_recovers(tmp_path):
    argv = ["dim", "--type", "A2", "--word", "1,2,1", "--weight", "1,1",
            "--cache", str(tmp_path)]
    _, out1, _ = cap(argv)
    entry = next(tmp_path.glob("*.json"))
    doc = json.loads(entry.read_text())
    doc["character"] = doc["character"].replace('"coeff":"2"', '"coeff":"7"')
    entry.write_text(json.dumps(doc))
    code, out2, err = cap(argv)
    assert code == 0
    assert out2 == out1 == "8\n"
    assert "corrupt; recomputing" in err
    # the overwritten entry is healthy again
    code, out3, err3 = cap(argv)
    assert out3 == out1
    assert "cache hit" in err3


def test_cache_unparseable_file_recovers(tmp_path):
    argv = ["dim", "--type", "A2", "--word", "1,2", "--weight", "2,2",
            "--cache", str(tmp_path)]
    _, out1, _ = cap(argv)
    entry = next(tmp_path.glob("*.json"))
    entry.write_text("{ not json")
    code, out2, err = cap(argv)
    assert (code, out2) == (0, out1)
    assert "corrupt; recomputing" in err


# Characters under a valid key and checksum that no run writes: each was
# read as a character, {(0.5, 1): 1}, {(1, 0): 1} and {(1, 0): 0}.
_BAD_TERMS = {
    "half weight": [{"weight": [0.5, 1], "coeff": "1"}],
    "float coeff": [{"weight": [1, 0], "coeff": 1.9}],
    "repeated weight": [{"weight": [1, 0], "coeff": "1"}, {"weight": [True, 0], "coeff": "0"}],
}


@pytest.mark.parametrize("sub", ["char", "dim"])
@pytest.mark.parametrize(
    "entry", ["[]", "null", "1", '"x"', "character 3", "nested too deep", *_BAD_TERMS]
)
def test_cache_entry_of_the_wrong_shape_recovers(tmp_path, sub, entry):
    argv = [sub, "--type", "A2", "--word", "2,1", "--weight", "1,2", "--cache", str(tmp_path)]
    _, out1, _ = cap(argv)
    path = next(tmp_path.glob("*.json"))
    if entry == "character 3":
        entry = json.dumps({**json.loads(path.read_text()), "character": 3})
    elif entry == "nested too deep":
        entry = "[" * 100_000 + "]" * 100_000
    elif entry in _BAD_TERMS:
        text = json.dumps({"root_system": "A2", "terms": _BAD_TERMS[entry]})
        sha = hashlib.sha256(text.encode()).hexdigest()
        entry = json.dumps({**json.loads(path.read_text()), "character": text, "sha256": sha})
    path.write_text(entry)
    code, out2, err = cap(argv)
    assert (code, out2) == (0, out1)
    assert err == f"cache entry {path.name} is corrupt; recomputing\n"
    code, out3, err = cap(argv)
    assert (code, out3, err) == (0, out1, f"cache hit: {path.name}\n")


def test_cache_never_reads_an_unversioned_entry(tmp_path):
    # A well-formed entry under the file name of the old key, which had no
    # format version, holding a wrong character: it must not be read.
    rs = root_system("A2")
    old_key = "A2;word=1,2,1;weight=1,1"
    wrong = demazure.characters.character_to_json(rs, {(1, 1): 5})
    payload = {"key": old_key, "sha256": hashlib.sha256(wrong.encode()).hexdigest(),
               "character": wrong}
    name = hashlib.sha256(old_key.encode()).hexdigest() + ".json"
    for sub, expected in (("char", ADJOINT_JSON + "\n"), ("dim", "8\n")):
        cache = tmp_path / sub
        cache.mkdir()
        (cache / name).write_text(json.dumps(payload))
        code, out, err = cap([sub, "--type", "A2", "--word", "1,2,1", "--weight", "1,1",
                              "--cache", str(cache)])
        assert (code, out, err) == (0, expected, ""), sub
        # the fresh entry sits beside the old one, which is left as it was
        assert len(list(cache.glob("*.json"))) == 2, sub
        assert json.loads((cache / name).read_text()) == payload, sub


def test_cache_write_is_atomic_rename(tmp_path, monkeypatch):
    real_replace = cli.os.replace
    renames = []

    def spy(src, dst):
        # the entry must not exist until the rename puts the whole file there
        assert not list(tmp_path.glob("*.json"))
        doc = json.loads(Path(src).read_text())
        assert set(doc) == {"key", "sha256", "character"}
        renames.append((src, dst))
        real_replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", spy)
    argv = ["char", "--type", "B2", "--word", "1,2", "--weight", "1,1",
            "--cache", str(tmp_path)]
    code, out, _ = cap(argv)
    assert code == 0 and out
    assert len(renames) == 1
    src, dst = map(Path, renames[0])
    assert src.parent == dst.parent == tmp_path
    assert list(tmp_path.iterdir()) == [dst]
    assert re.fullmatch(r"[0-9a-f]{64}\.json", dst.name)


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    argv = ["char", "--type", "B2", "--word", "2,1", "--weight", "1,0"]
    _, out1, err1 = cap(argv)
    assert list(tmp_path.glob("*.json"))
    _, out2, err2 = cap(argv)
    assert out2 == out1
    assert "cache hit" in err2


# Each racer imports the package, then waits (a minute at most) for the
# go file, so the processes compute and write their entries at one moment.
_RACER = """
import sys, time
from pathlib import Path
from demazure.cli import run
deadline = time.monotonic() + 60
while not Path(sys.argv[1]).exists() and time.monotonic() < deadline:
    time.sleep(0.001)
sys.exit(run(sys.argv[2:]))
"""


def test_cache_concurrent_writers_leave_one_whole_entry(tmp_path):
    cache = tmp_path / "cache"
    go = tmp_path / "go"
    argv = ["char", "--type", "G2", "--word", "1,2,1,2,1,2", "--weight", "1,0",
            "--cache", str(cache)]
    golden = (Path(__file__).resolve().parent / "golden" / "corpus02_char.out").read_text()
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV_VAR}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    racers = [
        subprocess.Popen(
            [sys.executable, "-c", _RACER, str(go), *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for _ in range(4)
    ]
    try:
        go.touch()
        results = [(p.communicate(timeout=120), p.returncode) for p in racers]
    finally:
        for p in racers:
            p.kill()  # does nothing to a racer that has exited
            p.wait()
    for (out, err), code in results:
        assert (code, out) == (0, golden), err
        assert "corrupt" not in err  # a reader sees a whole entry or none
    # one entry, no stray temporary file, and its checksum holds
    entries = list(cache.iterdir())
    assert [p.suffix for p in entries] == [".json"]
    doc = json.loads(entries[0].read_text())
    assert hashlib.sha256(doc["character"].encode()).hexdigest() == doc["sha256"]
    assert doc["character"] + "\n" == golden
    code, out, err = cap(argv)
    assert (code, out) == (0, golden)
    assert err == f"cache hit: {entries[0].name}\n"


def test_no_floating_point_in_output():
    corpus = [
        ["char", "--type", "G2", "--word", "1,2,1,2,1,2", "--weight", "1,0"],
        ["dim", "--type", "B3", "--word", "1,2,3,2,1", "--weight", "2,2,2"],
        ["branch", "--type", "B3", "--weight", "1,1,1", "--subset", "1,3"],
        ["growth", "--type", "B2", "--word", "2,1,2", "--weight", "1,1"],
        ["sl3t", "--grid", "2,2"],
        ["dim", "--type=A2", "--word=1,2,1", "--weight=1,1"],
        ["weight-mult", "--type=B2", "--weight=1,1", "--mu=-1,-1"],
        ["sl3t", "--k1=1", "--k2=1", "--l=0,0,0"],
    ]
    for argv in corpus:
        code, out, _ = cap(argv)
        assert code == 0 and out, argv
        assert not re.search(r"\d\.\d", out), argv


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "demazure.cli",
         "dim", "--type", "A2", "--word", "1,2,1", "--weight", "1,1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "8\n"


# A fresh interpreter, without site packages that might load anything
# first, imports the CLI and runs a plain call, a cached call and a call
# that argparse reads, noting after each whether argparse is loaded.
_LAZY_ARGPARSE = """
import json, sys
from demazure.cli import run
states = ["argparse" in sys.modules]
for argv in (
    ["dual", "--type=A2", "--weight=1,1"],
    ["dim", "--type=A2", "--word=1", "--weight=1,0", "--cache=" + sys.argv[1]],
    ["dual", "--type", "A2", "--weight", "1,1", "--weight", "1,0"],
):
    states.append([run(argv), "argparse" in sys.modules])
print(json.dumps(states))
"""


def test_only_the_fallback_parser_imports_argparse(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV_VAR}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _LAZY_ARGPARSE, str(tmp_path / "cache")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [False, [0, False], [0, False], [0, True]]


# --- the parser across many in-process calls ------------------------------
#
# One process may serve many ``run`` calls.  Help texts, usage errors and
# parse results must not depend on what ran before, so each case below
# runs after a mixed sequence of earlier calls and is compared with a
# fresh ``python -m demazure.cli`` on the same interpreter.

_SUBCOMMAND_NAMES = (
    "char", "dim", "weight-mult", "dual", "hecke", "branch", "unirad", "growth", "sl3t",
)
_GROWTH = ["growth", "--type", "A2", "--word", "1,2", "--weight", "1,1"]
_EARLIER_CALLS = [
    ["dim", "--type", "A2", "--word", "1,2,1", "--weight", "1,1"],
    ["sl3t", "--grid", "1", "1"],
    ["dim", "--type", "A2", "--word", "1"],
    [*_GROWTH, "--n", "6", "--format", "tsv"],
    ["hecke", "--help"],
    ["branch", "--type", "A2", "--weight", "1,1", "--subset", "1"],
    ["sl3t", "--k1", "1", "--k2", "0", "--l", "1,0,0"],
    ["nonesuch"],
    ["--help"],
    ["dual", "--type", "A3", "--weight", "1,2,3"],
]
_PARSER_CASES = [["--help"]] + [[name, "--help"] for name in _SUBCOMMAND_NAMES] + [
    [],
    ["frobnicate"],
    ["dim", "--type", "A2", "--word", "1"],
    [*_GROWTH, "--format", "xml"],
    [*_GROWTH, "--n", "x"],
]


def _fresh(argv):
    """Run the CLI in a new interpreter; return (exit code, stdout, stderr)."""
    env = {k: v for k, v in os.environ.items() if k not in (CACHE_ENV_VAR, "FORCE_COLOR")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    env["COLUMNS"] = "80"
    proc = subprocess.run(
        [sys.executable, "-m", "demazure.cli", *argv],
        capture_output=True, text=True, env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _after_earlier_calls(argv):
    for earlier in _EARLIER_CALLS:
        cap(earlier)
    return cap(argv)


@pytest.mark.parametrize("argv", _PARSER_CASES, ids=lambda a: " ".join(a) or "<none>")
def test_help_and_usage_errors_match_a_fresh_process(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    got = _after_earlier_calls(argv)
    assert got == _fresh(argv)
    assert got[0] == (0 if "--help" in argv else 2)


def test_no_state_leaks_between_runs(monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, out, _ = cap(["growth", "--type", "A2", "--word", "", "--weight", "1,1", "--n", "2"])
    assert code == 0 and len(json.loads(out)["values"]) == 3
    argv = ["growth", "--type", "A2", "--word", "", "--weight", "1,1"]
    code, out, err = cap(argv)
    assert len(json.loads(out)["values"]) == 5  # the default n_max, length(w) + 4
    assert (code, out, err) == _fresh(argv)

    code, out, _ = cap(["sl3t", "--grid", "1", "1"])
    assert code == 0 and out.startswith("k1\t")
    argv = ["sl3t", "--k1", "1", "--k2", "1", "--l", "0,0,0"]
    code, out, err = cap(argv)
    assert code == 0
    assert json.loads(out)["closed_mult"] == "2"
    assert (code, out, err) == _fresh(argv)


# --- the plain-argv parse against argparse ---------------------------------
#
# run() reads a plain argv straight from cli._FLAGS and hands every other
# argv to argparse.  For each argv below the plain parse either declines
# (None) or returns what argparse returns.  Argparse details differ
# between Python versions, so this runs on every version CI tests.

def _argparse_values(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def _check_plain_parse(argv):
    plain = cli._parse_plain(argv)
    if plain is not None:
        assert vars(plain) == _argparse_values(argv), argv
    return plain


def _cli_mix_argvs():
    # the argv of the benchmark's cli_mix workload, round 0 of seeds 1-20
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [list(q[1]) for seed in range(1, 21) for q in workloads.make_batch("cli_mix", seed, 0)]


# plain argv with an empty value, "=" inside a value, a value starting
# with "-" after "=", and integers that int() reads with a space or "_"
_PLAIN = [
    ["growth", "--type", "A2", "--word", "", "--weight", "1,1", "--n", " 5"],
    ["growth", "--type=A2", "--word=", "--weight=1,1", "--n=1_0", "--format", "tsv"],
    ["dim", "--type", "A2", "--word", "1", "--weight", "1,0", "--cache", "a=b"],
    ["dim", "--cache==", "--weight=1,0", "--word=1", "--type=A2"],
    ["sl3t", "--k1", "1", "--k2", "0", "--l=-1,0,1"],
]
# argv left to argparse, whatever it makes of them; the first two are
# goldens that exit 0
_NOT_PLAIN = [
    ["dual", "--type", "A2", "--wei", "1,0"],
    ["dual", "--type", "A2", "--weight", "0,1", "--weight", "1,0"],
    ["dual", "--type", "A2", "--weight", "-1,1"],
    ["dual", "--type", "A2", "--weight", "-1"],
    ["dual", "--type", "A2", "--weight"],
    ["dual", "--type", "A2", "--weight", "1,0", "--"],
    ["dual", "--type", "A2", "--weight=--"],  # Python 3.11's argparse reads []
    ["dual", "--type", "A2", "--weight", "1,0", "-h"],
    ["dual", "--type", "A2", "--weight", "1,0", "extra"],
    ["dual", "--type", "A2", "--mu", "1,0"],
    [*_GROWTH, "--n", "x"],
    [*_GROWTH, "--n="],
    [*_GROWTH, "--format", "xml"],
    ["sl3t", "--grid", "1", "1"],
]


def test_plain_parse_matches_argparse_on_every_listed_argv():
    from test_golden import CLI_CASES

    for argv in _PLAIN:
        assert _check_plain_parse(argv) is not None, argv
    for argv in _NOT_PLAIN:
        assert _check_plain_parse(argv) is None, argv
    for argv in [case[1] for case in CLI_CASES] + _PARSER_CASES + _EARLIER_CALLS:
        _check_plain_parse(argv)
    # Every other golden that succeeds without --grid takes the plain
    # route, so a later edit cannot send all argv back to argparse
    # unnoticed ...
    for _name, argv, code, _ in CLI_CASES:
        if code == 0 and "--grid" not in argv and argv not in _NOT_PLAIN:
            assert _check_plain_parse(argv) is not None, argv
    # ... and so does every benchmark argv but sl3t --grid.
    argvs = _cli_mix_argvs()
    assert len(argvs) == 8000
    for argv in argvs:
        assert (_check_plain_parse(argv) is None) == ("--grid" in argv), argv


_ALL_FLAGS = sorted({f"--{flag}" for flag, *_ in cli._FLAGS})
_GOOD = st.sampled_from(
    ["", "1", "5", "1,0", "0,0,0", "A2", " 5", "1_0", "json", "tsv", "a=b", "="]
)
_VALUES = st.one_of(
    _GOOD, _GOOD, _GOOD, _GOOD,
    st.sampled_from(["x", "-1", "-1,1", "-", "--", "-h", "--weight", "xml"]),
    st.text(max_size=4),
)


@st.composite
def _argvs(draw):
    # each of a subcommand's flags zero, one or two times, in any order,
    # and now and then a flag of another subcommand, an abbreviation or help
    sub = draw(st.sampled_from([*cli._SUBCOMMANDS, "frobnicate", "--help"]))
    own = [f"--{flag}" for flag, _, names, _ in cli._FLAGS if sub in names.split()]
    names = [f for f in own for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 1, 1, 2])))]
    names += draw(st.lists(st.one_of(
        st.sampled_from(_ALL_FLAGS),
        st.sampled_from(_ALL_FLAGS).flatmap(lambda f: st.integers(2, len(f)).map(lambda k: f[:k])),
        st.sampled_from(["-h", "--help", "--", "-"]),
    ), max_size=draw(st.sampled_from([0, 0, 0, 2]))))
    argv = [sub]
    for name in draw(st.permutations(names)):
        value = draw(_VALUES)
        form = draw(st.sampled_from(["apart"] * 4 + ["joined"] * 4 + ["bare"]))
        argv += {"apart": [name, value], "joined": [f"{name}={value}"], "bare": [name]}[form]
    return argv


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_plain_parse_matches_argparse_on_drawn_argv(argv):
    # abbreviations, repeated and missing flags, empty values, "=" inside
    # a value, "-1,1" as a value token, and --n given "x", " 5" or "1_0"
    _check_plain_parse(argv)
