"""Command-line interface.

Exit codes: 0 on success, 1 when a verification the command performs
comes out false (a bound fails, an identity breaks, the audit routes
disagree), 2 on usage or validation errors and on a cache directory
that cannot be created or written.

Output discipline: coordinates, indices, and word letters are plain
JSON integers; potentially large quantities (dimensions, coefficients,
multiplicities) are decimal strings.  stdout is deterministic for a
given invocation; cache messages go to stderr.

``_FLAGS`` is the one place that declares a flag: its name, what
``run`` makes of the parsed string (the root system, a tuple of
integers, or the value as argparse leaves it), the subcommands that take
it, and its argparse settings.  At import, ``_OPTIONS`` turns it into
one table per subcommand: each of its ``--name`` options, in table
order, with its dest, conversion and argparse settings.  That table is
all that the parser, the plain parse and ``run`` read.

``run(argv)`` runs one invocation in process and returns its exit code.
A plain argv (a subcommand, then each of its flags once, with the
values argparse would accept) is read straight from the subcommand's
table, since argparse costs more than a small query.  Only help, usage
errors and the argv the plain parse refuses go to one argparse parser,
built on the first such call and reused.  Both routes give ``run`` the
same dict, the subcommand and each dest's value, as ``vars`` of
argparse's namespace.
A flag given ``--`` as its value (``--word=--``) is a usage error on
either route.  ``argparse`` is imported only to build that parser, so a
plain call never loads it.

``run`` converts every value once, in table order, before the handler
runs, so a malformed integer list is reported before any check but the
one on ``--type``, which comes first.  Each ``_cmd_*`` handler takes the
converted values as keyword arguments named after their dests (``rs``
for ``--type``).

The character cache (``--cache DIR``, default from the environment
variable DEMAZURE_CACHE_DIR) keeps one plain text file per character.
``_entry_name`` names it by its key, (format version, type, word,
weight): 16 hex digits, the CRC-32 and the Adler-32 of the key, with the
suffix ``.txt``.  Format 3 writes three parts: the key on the first
line, the CRC-32 of the character's canonical JSON on the second, and
then that JSON, as ``character_to_json`` writes it, which
``character_from_json`` reads back.  An entry whose key or checksum does
not match, or whose text that reader refuses, is corrupt: it is
recomputed and overwritten with a warning.  The checksum detects
accidental corruption (a torn write, a changed digit); it authenticates
nothing, since anyone who can write the directory can write a matching
one.  Two keys that share a name cost a recompute, never a wrong
character, since the key line must match.  Entries of another format
have other names and are never read.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import zlib
from collections.abc import Sequence

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
_CACHE_FORMAT = 3

__all__ = ["run", "main", "CACHE_ENV_VAR"]


def _csv_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _entry_name(key: str) -> str:
    """The file name of the cache entry under ``key``."""
    data = key.encode()
    return f"{zlib.crc32(data):08x}{zlib.adler32(data):08x}.txt"


def _checksum(text: str) -> str:
    return f"{zlib.crc32(text.encode()):08x}"


def _cached_character(rs, word, lam, cache: str | None):
    """The character and, when cached, the canonical JSON read or written."""
    cache = cache or os.environ.get(CACHE_ENV_VAR)  # the --cache flag, else the variable
    if not cache:
        return demazure_character(rs, word, lam), None
    try:
        os.makedirs(cache, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create cache directory {cache}: {exc.strerror}") from None
    key = (
        f"format={_CACHE_FORMAT};{rs.name};word={','.join(map(str, word))};"
        f"weight={','.join(map(str, lam))}"
    )
    name = _entry_name(key)
    path = os.path.join(cache, name)
    if os.path.exists(path):
        try:
            with open(path) as f:
                stored_key, checksum, text = f.read().split("\n", 2)
            if stored_key == key and _checksum(text) == checksum:
                _, char = character_from_json(text)
                print(f"cache hit: {name}", file=sys.stderr)
                return char, text
        except (OSError, ValueError):
            pass
        print(f"cache entry {name} is corrupt; recomputing", file=sys.stderr)
    char = demazure_character(rs, word, lam)
    text = character_to_json(rs, char)
    # Write a uniquely named sibling and rename it over the entry, so a
    # concurrent reader sees either no entry or a whole one.
    tmp = os.path.join(cache, f".{name}.{os.urandom(16).hex()}.tmp")
    try:
        with open(tmp, "w") as f:
            f.write(f"{key}\n{_checksum(text)}\n{text}")
        os.replace(tmp, path)
    finally:
        if os.path.lexists(tmp):
            os.unlink(tmp)
    return char, text


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _cmd_char(rs, word, weight, cache) -> int:
    char, text = _cached_character(rs, word, weight, cache)
    print(text or character_to_json(rs, char))
    return 0


def _cmd_dim(rs, word, weight, cache) -> int:
    print(sum(_cached_character(rs, word, weight, cache)[0].values()))
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
    levi = LeviDatum(rs, subset)
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
    levi = LeviDatum(rs, subset)
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
        tables = [seq.values]  # the dimensions are difference table 0
        for _ in range(w.length + 1):
            tables.append(finite_differences(tables[-1]))
        print("\t".join(["n", "dim", *(f"diff{k}" for k in range(1, len(tables)))]))
        for i in range(len(seq.values)):
            print("\t".join([str(i), *(str(t[i]) if i < len(t) else "" for t in tables)]))
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
# in --help, and run() converts them, in this order.
_FLAGS = (
    ("type", root_system, "char dim weight-mult dual hecke branch unirad growth",
     {**_REQUIRED, "dest": "rs", "metavar": "TYPE"}),
    ("word", _csv_ints, "char dim growth",
     {**_REQUIRED, "help": "comma-separated 1-based letters; empty for the identity"}),
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
# _FLAGS per subcommand, the one view of it that build_parser, _parse_plain
# and run read: "--name" -> (dest, conversion, argparse settings), in
# table order.
_OPTIONS = {
    sub: {f"--{flag}": (settings.get("dest", flag), convert, settings)
          for flag, convert, names, settings in _FLAGS if sub in names.split()}
    for sub in _SUBCOMMANDS
}


@functools.cache
def build_parser():
    """The argparse parser shared by every ``run``; callers must not modify it."""
    import argparse  # here, so that a plain argv never loads it

    parser = argparse.ArgumentParser(
        prog="demazure",
        description="Exact Demazure characters and multiplicity bounds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, text) in _SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=text)
        for option, (_, _, settings) in _OPTIONS[name].items():
            subparser.add_argument(option, **settings)
    return parser


def _parse_plain(argv: Sequence[str] | None) -> dict | None:
    """``vars(build_parser().parse_args(argv))``, read from ``_OPTIONS``.

    The argv read is a subcommand, then each of its flags at most once,
    as an exact ``--name=value`` or as ``--name`` and a value that does
    not start with ``-``.  A flag with ``nargs`` (``--grid``) reads as a
    list: ``--name=value`` is its one value, and ``--name value`` takes
    each following token too, up to the first that starts with ``-``,
    as argparse's ``"+"`` does for these argv.  Anything else gives None
    and is left to argparse, with its messages and exit codes: help, an
    abbreviated, repeated, missing or unknown flag, and a value argparse
    would refuse or read otherwise (``--weight=--`` reads as an empty
    list on Python 3.11, and argparse gives ``--grid 1 -1`` both values,
    where the plain parse stops at ``-1`` and refuses it as a flag).
    The dict maps "subcommand" and each flag's dest to its value, a flag
    not given to its default.
    """
    if not argv or argv[0] not in _OPTIONS:
        return None
    options = _OPTIONS[argv[0]]
    values = {"subcommand": argv[0]}
    tokens = list(argv[:0:-1])  # the rest, last first, so pop() takes the next
    while tokens:
        name, eq, value = tokens.pop().partition("=")
        value = value if eq else (tokens.pop() if tokens else "-")
        if name not in options:
            return None
        dest, _, settings = options[name]
        if (dest in values or value == "--"
                or value.startswith("-") and not eq
                or value not in settings.get("choices", (value,))):
            return None
        if "nargs" in settings:
            value = [value]
            while not eq and tokens and not tokens[-1].startswith("-"):
                value.append(tokens.pop())
        try:
            values[dest] = settings["type"](value) if "type" in settings else value
        except ValueError:
            return None
    if any(s.get("required") and dest not in values for dest, _, s in options.values()):
        return None
    return {dest: s.get("default") for dest, _, s in options.values()} | values


def run(argv: Sequence[str] | None = None) -> int:
    try:
        if (values := _parse_plain(argv)) is None:
            values = vars(build_parser().parse_args(argv))
            # argparse reads --name=-- as [] before Python 3.13, applying no
            # type or choices to it, and as "--" from 3.13 on
            if [] in values.values() or "--" in values.values():
                build_parser().exit(2, "demazure: error: a flag was given '--' for its value\n")
    except SystemExit as exc:
        return int(exc.code or 0)
    sub = values.pop("subcommand")
    try:
        for dest, convert, _ in _OPTIONS[sub].values():
            if convert is not None and values[dest] is not None:
                values[dest] = convert(values[dest])
        return _SUBCOMMANDS[sub][0](**values)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
