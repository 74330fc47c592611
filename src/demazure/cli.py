"""Command-line interface.

Exit codes: 0 on success, 1 when a verification the command performs
comes out false (a bound fails, an identity breaks, the audit routes
disagree), 2 on usage or validation errors and on a cache directory
that cannot be created or written.

Output discipline: coordinates, indices, and word letters are plain
JSON integers; potentially large quantities (dimensions, coefficients,
multiplicities) are decimal strings.  stdout is deterministic for a
given invocation; cache messages go to stderr.

``run(argv)`` runs one invocation in process and returns its exit code.
One argument parser serves every ``run`` in a process: it is built on
the first call and reused, since building it costs far more than
parsing with it.

The character cache (``--cache DIR``, default from the environment
variable DEMAZURE_CACHE_DIR) stores canonical character JSON keyed by
(format version, type, word, weight) with a content checksum; corrupt or
mismatched entries are recomputed and overwritten with a warning.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import uuid
from pathlib import Path
from typing import Sequence

from demazure.branching import LeviDatum, unirad_mult_identity
from demazure.branching import _branch, _coset_bound
from demazure.characters import (
    character_from_json,
    character_to_json,
    demazure_character,
    dual_weight,
    weight_multiplicity,
)
from demazure.growth import dimension_sequence, finite_differences, growth_degree
from demazure.roots import root_system
from demazure.sl3t import AUDIT_COLUMNS, Biweight, audit_rows, mult_via_weights
from demazure.sl3t import _audit_row
from demazure.weyl import demazure_fold, identity, reduced_word
from demazure.weyl import _check_reduced

CACHE_ENV_VAR = "DEMAZURE_CACHE_DIR"
# Part of every cache key, and so of every entry's file name: raising it
# when the entry format changes leaves older entries unread.
_CACHE_FORMAT = 1

__all__ = ["run", "main", "CACHE_ENV_VAR"]


def _csv_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _cache_dir(ns: argparse.Namespace) -> Path | None:
    raw = ns.cache or os.environ.get(CACHE_ENV_VAR)
    return Path(raw) if raw else None


def _cached_character(rs, word, lam, cache_dir: Path | None):
    if cache_dir is None:
        return demazure_character(rs, word, lam)
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create cache directory {cache_dir}: {exc.strerror}") from None
    key = (
        f"format={_CACHE_FORMAT};{rs.name};word={','.join(map(str, word))};"
        f"weight={','.join(map(str, lam))}"
    )
    path = cache_dir / (hashlib.sha256(key.encode()).hexdigest() + ".json")
    if path.exists():
        try:
            obj = json.loads(path.read_text())
            text = obj["character"]
            if obj["key"] != key or hashlib.sha256(text.encode()).hexdigest() != obj["sha256"]:
                raise ValueError("key or checksum mismatch")
            _, char = character_from_json(text)
            print(f"cache hit: {path.name}", file=sys.stderr)
            return char
        except (AttributeError, KeyError, OSError, RecursionError, TypeError, ValueError):
            print(f"cache entry {path.name} is corrupt; recomputing", file=sys.stderr)
    char = demazure_character(rs, word, lam)
    text = character_to_json(rs, char)
    payload = {
        "key": key,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "character": text,
    }
    # Write a uniquely named sibling and rename it over the entry, so a
    # concurrent reader sees either no entry or a whole one.
    tmp = path.with_name(f".{path.stem}.{uuid.uuid4().hex}.tmp")
    try:
        tmp.write_text(json.dumps(payload, separators=(",", ":")))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return char


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _cmd_char(ns: argparse.Namespace) -> int:
    rs = root_system(ns.type)
    char = _cached_character(rs, _csv_ints(ns.word), _csv_ints(ns.weight), _cache_dir(ns))
    print(character_to_json(rs, char))
    return 0


def _cmd_dim(ns: argparse.Namespace) -> int:
    rs = root_system(ns.type)
    char = _cached_character(rs, _csv_ints(ns.word), _csv_ints(ns.weight), _cache_dir(ns))
    print(sum(char.values()))
    return 0


def _cmd_weight_mult(ns: argparse.Namespace) -> int:
    rs = root_system(ns.type)
    print(weight_multiplicity(rs, _csv_ints(ns.weight), _csv_ints(ns.mu)))
    return 0


def _cmd_dual(ns: argparse.Namespace) -> int:
    rs = root_system(ns.type)
    print(_dumps(list(dual_weight(rs, _csv_ints(ns.weight)))))
    return 0


def _cmd_hecke(ns: argparse.Namespace) -> int:
    rs = root_system(ns.type)
    x = demazure_fold(identity(rs), _csv_ints(ns.left))
    x = demazure_fold(x, _csv_ints(ns.right))
    print(_dumps({"word": list(reduced_word(x)), "length": x.length}))
    return 0


def _cmd_branch(ns: argparse.Namespace) -> int:
    rs = root_system(ns.type)
    lam = _csv_ints(ns.weight)
    subset = _csv_ints(ns.subset)
    levi = LeviDatum(rs, frozenset(subset))
    result, dims, full_dim = _branch(lam, levi)
    bound = _coset_bound(result.lam, levi)
    constituents = [
        {"weight": list(mu), "mult": str(mult), "levi_dim": str(dim), "holds": mult <= bound}
        for (mu, mult), dim in zip(result.constituents, dims)
    ]
    length_holds = result.length <= bound
    out = {
        "root_system": rs.name,
        "weight": list(result.lam),
        "subset": sorted(levi.subset),
        "weyl_dim": str(full_dim),
        "bound": str(bound),
        "constituents": constituents,
        "length": str(result.length),
        "length_holds": length_holds,
        "dimension_conserved": True,  # _branch raises unless it holds
    }
    print(_dumps(out))
    return 0 if length_holds else 1


def _cmd_unirad(ns: argparse.Namespace) -> int:
    rs = root_system(ns.type)
    levi = LeviDatum(rs, frozenset(_csv_ints(ns.subset)))
    demazure_side, levi_side, equal = unirad_mult_identity(_csv_ints(ns.weight), levi)
    out = {
        "root_system": rs.name,
        "weight": list(_csv_ints(ns.weight)),
        "subset": sorted(levi.subset),
        "demazure_side": str(demazure_side),
        "levi_side": str(levi_side),
        "equal": equal,
    }
    print(_dumps(out))
    return 0 if equal else 1


def _cmd_growth(ns: argparse.Namespace) -> int:
    rs = root_system(ns.type)
    w = _check_reduced(rs, _csv_ints(ns.word))
    seq = dimension_sequence(w, _csv_ints(ns.weight), ns.n)
    degree = growth_degree(seq)
    if ns.format == "tsv":
        tables = [list(seq.values)]
        for _ in range(w.length + 1):
            tables.append(finite_differences(tables[-1]))
        header = ["n", "dim"] + [f"diff{k}" for k in range(1, w.length + 2)]
        print("\t".join(header))
        for n in range(len(seq.values)):
            row = [str(n), str(seq.values[n])]
            for k in range(1, w.length + 2):
                row.append(str(tables[k][n]) if n < len(tables[k]) else "")
            print("\t".join(row))
    else:
        out = {
            "root_system": rs.name,
            "word": list(reduced_word(w)),
            "weight": list(_csv_ints(ns.weight)),
            "values": [str(v) for v in seq.values],
            "degree": degree,
            "length_w": w.length,
            "match": degree == w.length,
            "bound_holds": degree <= w.length,
        }
        print(_dumps(out))
    return 0 if degree <= w.length else 1


def _cmd_sl3t(ns: argparse.Namespace) -> int:
    if ns.grid:
        if (ns.k1, ns.k2, ns.l) != (None, None, None):
            raise ValueError("give either --grid or all of --k1, --k2, --l, not both")
        grid = ",".join(ns.grid).split(",")
        if len(grid) != 2 or not all(x.strip().isdecimal() for x in grid):
            raise ValueError(f"--grid takes two non-negative integers, got {' '.join(ns.grid)!r}")
        # A side of 21 digits or more gives over 10**40 rows, which no run
        # finishes.  It is refused before int(), which raises its own error
        # past 4,300 digits from Python 3.11 on and converts any length on 3.10.
        if (digits := max(len(x.strip().lstrip("0")) for x in grid)) > 20:
            raise ValueError(f"--grid takes numbers of at most 20 digits, got one of {digits:,}")
        kmax, lmax = map(int, grid)
        print("\t".join(AUDIT_COLUMNS))
        ok = True
        for row in audit_rows(kmax, lmax):
            ok = ok and row[-1]
            print("\t".join(map(str, row)))
        return 0 if ok else 1
    if ns.k1 is None or ns.k2 is None or ns.l is None:
        raise ValueError("need either --grid or all of --k1, --k2, --l")
    bw = Biweight(ns.k1, ns.k2, _csv_ints(ns.l))
    *_, member, n, a, b, c, agree = _audit_row(bw.k1, bw.k2, bw.l, mult_via_weights(bw))
    out = {
        "k1": bw.k1,
        "k2": bw.k2,
        "l": list(bw.l),
        "member": member,
        "n": n,
        "closed_mult": str(a),
        "weight_mult": str(b),
        "theorem2_mult": str(c),
        "agree": agree,
    }
    print(_dumps(out))
    return 0 if agree else 1


# Subcommand, handler, help, and its string flags: every one is required
# except --cache.  growth and sl3t add their own typed flags below.
_SUBCOMMANDS = (
    ("char", _cmd_char, "Demazure character as canonical JSON", ("type", "word", "weight", "cache")),
    ("dim", _cmd_dim, "Demazure module dimension", ("type", "word", "weight", "cache")),
    ("weight-mult", _cmd_weight_mult, "weight multiplicity in an irreducible module",
     ("type", "weight", "mu")),
    ("dual", _cmd_dual, "highest weight of the dual module", ("type", "weight")),
    ("hecke", _cmd_hecke, "0-Hecke product of two words", ("type", "left", "right")),
    ("branch", _cmd_branch, "branch to a Levi subgroup, with bounds", ("type", "weight", "subset")),
    ("unirad", _cmd_unirad, "parabolic Demazure dimension vs Levi dimension",
     ("type", "weight", "subset")),
    ("growth", _cmd_growth, "dilation dimensions and growth degree", ("type", "word", "weight")),
    ("sl3t", _cmd_sl3t, "triple multiplicity audit for the SL3 torus quotient", ()),
)
_FLAG_HELP = {("char", "word"): "comma-separated 1-based letters; empty for the identity"}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser shared by every ``run``; callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="demazure",
        description="Exact Demazure characters and multiplicity bounds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parsers = {}
    for name, func, help_text, flags in _SUBCOMMANDS:
        p = parsers[name] = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for flag in flags:
            if flag == "cache":
                p.add_argument("--cache", default=None)
            else:
                p.add_argument(f"--{flag}", required=True, help=_FLAG_HELP.get((name, flag)))

    p = parsers["growth"]
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--format", choices=("json", "tsv"), default="json")

    p = parsers["sl3t"]
    p.add_argument("--k1", type=int, default=None)
    p.add_argument("--k2", type=int, default=None)
    p.add_argument("--l", default=None)
    p.add_argument(
        "--grid",
        nargs="+",
        default=None,
        help="kmax lmax (or kmax,lmax): stream the TSV audit grid",
    )

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
