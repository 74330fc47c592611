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
A plain argv (a subcommand, then each of its flags once, with a value
argparse would accept) is read straight from ``_FLAGS``, since argparse
costs more than a small query.  Every other argv, help, usage errors and
``sl3t --grid`` go to one argparse parser, built on the first such call
and reused; both routes give the handler the same values.  A flag given
``--`` as its value (``--word=--``) is a usage error on either route.
``argparse`` is imported only to build that parser, so a plain call
never loads it.

``_FLAGS`` is the one place that declares a flag: its name, what
``run`` makes of the parsed string (the root system, a tuple of
integers, or the value as argparse leaves it), the subcommands that take
it, and its argparse settings.  ``run`` converts every value once, in
table order, before the handler runs, so a malformed integer list is
reported before any check but the one on ``--type``, which comes first.
Each ``_cmd_*`` handler takes the converted values as keyword arguments
named after its flags (``rs`` for ``--type``).

The character cache (``--cache DIR``, default from the environment
variable DEMAZURE_CACHE_DIR) stores canonical character JSON keyed by
(format version, type, word, weight) with a content checksum; corrupt or
mismatched entries are recomputed and overwritten with a warning.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace
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


def _cached_character(rs, word, lam, cache: str | None):
    cache = cache or os.environ.get(CACHE_ENV_VAR)  # the --cache flag, else the variable
    if not cache:
        return demazure_character(rs, word, lam)
    cache_dir = Path(cache)
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
    tmp = path.with_name(f".{path.stem}.{os.urandom(16).hex()}.tmp")
    try:
        tmp.write_text(json.dumps(payload, separators=(",", ":")))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return char


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _cmd_char(rs, word, weight, cache) -> int:
    print(character_to_json(rs, _cached_character(rs, word, weight, cache)))
    return 0


def _cmd_dim(rs, word, weight, cache) -> int:
    print(sum(_cached_character(rs, word, weight, cache).values()))
    return 0


def _cmd_weight_mult(rs, weight, mu) -> int:
    print(weight_multiplicity(rs, weight, mu))
    return 0


def _cmd_dual(rs, weight) -> int:
    print(_dumps(list(dual_weight(rs, weight))))
    return 0


def _cmd_hecke(rs, left, right) -> int:
    x = demazure_fold(demazure_fold(identity(rs), left), right)
    print(_dumps({"word": list(reduced_word(x)), "length": x.length}))
    return 0


def _cmd_branch(rs, weight, subset) -> int:
    levi = LeviDatum(rs, frozenset(subset))
    result, dims, full_dim = _branch(weight, levi)
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


def _cmd_unirad(rs, weight, subset) -> int:
    levi = LeviDatum(rs, frozenset(subset))
    demazure_side, levi_side, equal = unirad_mult_identity(weight, levi)
    out = {
        "root_system": rs.name,
        "weight": list(weight),
        "subset": sorted(levi.subset),
        "demazure_side": str(demazure_side),
        "levi_side": str(levi_side),
        "equal": equal,
    }
    print(_dumps(out))
    return 0 if equal else 1


def _cmd_growth(rs, word, weight, n, format) -> int:
    w = _check_reduced(rs, word)
    seq = dimension_sequence(w, weight, n)
    degree = growth_degree(seq)
    if format == "tsv":
        tables = [list(seq.values)]
        for _ in range(w.length + 1):
            tables.append(finite_differences(tables[-1]))
        header = ["n", "dim"] + [f"diff{k}" for k in range(1, w.length + 2)]
        print("\t".join(header))
        for i, value in enumerate(seq.values):
            row = [str(i), str(value)]
            for k in range(1, w.length + 2):
                row.append(str(tables[k][i]) if i < len(tables[k]) else "")
            print("\t".join(row))
    else:
        out = {
            "root_system": rs.name,
            "word": list(reduced_word(w)),
            "weight": list(weight),
            "values": [str(v) for v in seq.values],
            "degree": degree,
            "length_w": w.length,
            "match": degree == w.length,
            "bound_holds": degree <= w.length,
        }
        print(_dumps(out))
    return 0 if degree <= w.length else 1


def _cmd_sl3t(k1, k2, l, grid) -> int:
    if grid:
        if (k1, k2, l) != (None, None, None):
            raise ValueError("give either --grid or all of --k1, --k2, --l, not both")
        parts = ",".join(grid).split(",")
        if len(parts) != 2 or not all(x.strip().isdecimal() for x in parts):
            raise ValueError(f"--grid takes two non-negative integers, got {' '.join(grid)!r}")
        # A side of 21 digits or more gives over 10**40 rows, which no run
        # finishes.  It is refused before int(), which raises its own error
        # past 4,300 digits from Python 3.11 on and converts any length on 3.10.
        if (digits := max(len(x.strip().lstrip("0")) for x in parts)) > 20:
            raise ValueError(f"--grid takes numbers of at most 20 digits, got one of {digits:,}")
        kmax, lmax = map(int, parts)
        print("\t".join(AUDIT_COLUMNS))
        ok = True
        for row in audit_rows(kmax, lmax):
            ok = ok and row[-1]
            print("\t".join(map(str, row)))
        return 0 if ok else 1
    if k1 is None or k2 is None or l is None:
        raise ValueError("need either --grid or all of --k1, --k2, --l")
    bw = Biweight(k1, k2, l)
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


_SUBCOMMANDS = {
    "char": (_cmd_char, "Demazure character as canonical JSON"),
    "dim": (_cmd_dim, "Demazure module dimension"),
    "weight-mult": (_cmd_weight_mult, "weight multiplicity in an irreducible module"),
    "dual": (_cmd_dual, "highest weight of the dual module"),
    "hecke": (_cmd_hecke, "0-Hecke product of two words"),
    "branch": (_cmd_branch, "branch to a Levi subgroup, with bounds"),
    "unirad": (_cmd_unirad, "parabolic Demazure dimension vs Levi dimension"),
    "growth": (_cmd_growth, "dilation dimensions and growth degree"),
    "sl3t": (_cmd_sl3t, "triple multiplicity audit for the SL3 torus quotient"),
}
_REQUIRED = {"required": True}
# Every flag: its name, what run() makes of the parsed string before the
# handler sees it (None: the value as argparse leaves it), the subcommands
# that take it, and its argparse settings.  A subcommand lists its flags
# in --help, and run() converts them, in this order.  --word has two
# entries because only char's carries a help text.
_FLAGS = (
    ("type", root_system, "char dim weight-mult dual hecke branch unirad growth",
     {**_REQUIRED, "dest": "rs", "metavar": "TYPE"}),
    ("word", _csv_ints, "char",
     {**_REQUIRED, "help": "comma-separated 1-based letters; empty for the identity"}),
    ("word", _csv_ints, "dim growth", _REQUIRED),
    ("weight", _csv_ints, "char dim weight-mult dual branch unirad growth", _REQUIRED),
    ("mu", _csv_ints, "weight-mult", _REQUIRED),
    ("left", _csv_ints, "hecke", _REQUIRED),
    ("right", _csv_ints, "hecke", _REQUIRED),
    ("subset", _csv_ints, "branch unirad", _REQUIRED),
    ("cache", None, "char dim", {}),
    ("n", None, "growth", {"type": int}),
    ("format", None, "growth", {"choices": ("json", "tsv"), "default": "json"}),
    ("k1", None, "sl3t", {"type": int}),
    ("k2", None, "sl3t", {"type": int}),
    ("l", _csv_ints, "sl3t", {}),
    ("grid", None, "sl3t",
     {"nargs": "+", "help": "kmax lmax (or kmax,lmax): stream the TSV audit grid"}),
)


@functools.cache
def build_parser():
    """The argparse parser shared by every ``run``; callers must not modify it."""
    import argparse  # here, so that a plain argv never loads it

    parser = argparse.ArgumentParser(
        prog="demazure",
        description="Exact Demazure characters and multiplicity bounds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parsers = {name: sub.add_parser(name, help=text) for name, (_, text) in _SUBCOMMANDS.items()}
    for flag, _, names, settings in _FLAGS:
        for name in names.split():
            parsers[name].add_argument(f"--{flag}", **settings)
    return parser


def _parse_plain(argv: Sequence[str] | None) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns, read from ``_FLAGS``.

    The argv read is a subcommand, then each of its flags at most once,
    as an exact ``--name=value`` or as ``--name`` and a value that does
    not start with ``-``.  Anything else gives None and is left to
    argparse, with its messages and exit codes: help, an abbreviated,
    repeated, missing or unknown flag, a value argparse would refuse or
    alter (``--weight=--`` reads as an empty list on Python 3.11), and
    any ``--grid``.
    """
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    entries = {f"--{f}": s for f, _, names, s in _FLAGS if argv[0] in names.split()}
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        value = value if eq else next(tokens, "-")
        settings = entries.get(name)
        if (settings is None or name in given or "nargs" in settings or value == "--"
                or value.startswith("-") and not eq
                or value not in settings.get("choices", (value,))):
            return None
        try:
            given[name] = settings.get("type", str)(value)
        except ValueError:
            return None
    if any(s.get("required") and name not in given for name, s in entries.items()):
        return None
    return SimpleNamespace(subcommand=argv[0], **{
        s.get("dest", name[2:]): given.get(name, s.get("default")) for name, s in entries.items()
    })


def run(argv: Sequence[str] | None = None) -> int:
    try:
        if (ns := _parse_plain(argv)) is None:
            ns = build_parser().parse_args(argv)
            # argparse reads --name=-- as [] before Python 3.13, applying no
            # type or choices to it, and as "--" from 3.13 on
            if [] in vars(ns).values() or "--" in vars(ns).values():
                build_parser().exit(2, "demazure: error: a flag was given '--' for its value\n")
    except SystemExit as exc:
        return int(exc.code or 0)
    kwargs = {}
    try:
        for flag, convert, names, settings in _FLAGS:
            if ns.subcommand in names.split():
                dest = settings.get("dest", flag)
                value = getattr(ns, dest)
                kwargs[dest] = value if convert is None or value is None else convert(value)
        return _SUBCOMMANDS[ns.subcommand][0](**kwargs)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
