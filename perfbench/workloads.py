"""Seeded query batches for the four workloads, and the queries themselves.

A batch is generated from ``(workload, seed, round)`` with the standard
library's ``random`` and a small table of Cartan matrices, never by
calling the library, so generation warms no memo and the inputs do not
depend on the code being measured.  Each query returns ``True`` when
its independent check passes; an exception counts as a failed query.

Every batch of a workload has the same composition (how many queries
of each kind and type); the seed picks the weights, words and subsets.
That keeps the work per batch steady across seeds.
"""

from __future__ import annotations

import contextlib
import io
import random

import demazure as dz

# Cartan matrices in the library's convention (column j is alpha_j in
# fundamental coordinates), for the types whose weights the generator
# has to move by simple roots.
CARTAN = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "B2": ((2, -1), (-2, 2)),
    "G2": ((2, -3), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
}

POSITIVE_ROOTS = {"A2": 3, "B2": 4, "G2": 6, "A3": 6, "B3": 9, "D4": 12, "B4": 16, "F4": 24}
GROUP_ORDER = {"A2": 6, "B2": 8, "G2": 12, "A3": 24}

# Root systems each workload builds during set-up.
TYPES = {
    "characters": ("A1", "A2", "B2", "G2", "A3"),
    "hecke": ("B3", "D4", "B4", "F4"),
    "levi": ("A3", "B3", "C3", "A4"),
    "cli_mix": ("A2", "B2", "G2", "A3"),
}


def _rank(name: str) -> int:
    return int(name[1:])


def _dominant_weights(rank: int, top: int, max_sum: int) -> list[tuple[int, ...]]:
    out = [()]
    for _ in range(rank):
        out = [w + (x,) for w in out for x in range(top + 1)]
    return [w for w in out if 0 < sum(w) <= max_sum]


def _alpha(name: str, j: int) -> tuple[int, ...]:
    return tuple(row[j] for row in CARTAN[name])


def _random_reduced_word(rng: random.Random, name: str, length: int) -> tuple[int, ...]:
    # u = w^{-1} rho; s_i is an ascent of w exactly when u_i > 0, and
    # right multiplication by s_i sends u to s_i(u).
    rank = _rank(name)
    u = [1] * rank
    word = []
    for _ in range(length):
        ascents = [i for i in range(rank) if u[i] > 0]
        if not ascents:
            break
        i = rng.choice(ascents)
        m = u[i]
        u = [x - m * a for x, a in zip(u, _alpha(name, i))]
        word.append(i + 1)
    return tuple(word)


def _dominant_below(rng: random.Random, name: str, lam: tuple[int, ...]) -> tuple[int, ...]:
    """A dominant weight lam - sum c_j alpha_j with every c_j >= 0."""
    rank = _rank(name)
    top = sum(lam)
    while True:
        mu = list(lam)
        for j in range(rank):
            c = rng.randint(0, top)
            mu = [x - c * a for x, a in zip(mu, _alpha(name, j))]
        if all(x >= 0 for x in mu):
            return tuple(mu)


# ---------------------------------------------------------------- characters

# Highest weights of the growth tables, per type.  The menus keep every
# table of a type within about a factor ten of the others in cost, and
# every six rounds use each menu whole (A2 and B2 every three, G2 every
# two, A3 every six), so runs of six or twelve rounds use the same tables
# whatever the seed.
TABLE_MENU = {
    "A2": _dominant_weights(2, 3, 6),
    "B2": _dominant_weights(2, 3, 6),
    "G2": [(1, 0), (0, 1), (2, 0), (1, 1)],
    "A3": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 0, 2), (1, 0, 1)],
}
TABLES_PER_BATCH = {"A2": 5, "B2": 5, "G2": 2, "A3": 1}
MULT_TOP = {"A2": 30, "B2": 16, "G2": 8}
MULTS_PER_TYPE = 9
# Rank-one multiplicities: Freudenthal's recursion depth is about k/2,
# so it passes below k = 2000 and raises RecursionError above.
RANK_ONE_PASS = (1100, 1160)
RANK_ONE_FAIL = (2200, 2600)


def _stratified(rng: random.Random, top: int, count: int) -> list[int]:
    # One draw from each of `count` equal slices of 0..top, in random order.
    edges = [round(k * (top + 1) / count) for k in range(count + 1)]
    draws = [rng.randrange(lo, hi) for lo, hi in zip(edges, edges[1:])]
    rng.shuffle(draws)
    return draws


def _characters_batch(run_rng: random.Random, rng: random.Random, round_no: int) -> list[tuple]:
    # Each type's table weights cycle through a seeded order of its menu,
    # so every run covers the menus evenly whatever the seed.
    tables = []
    for name, count in TABLES_PER_BATCH.items():
        menu = run_rng.sample(TABLE_MENU[name], len(TABLE_MENU[name]))
        for k in range(count):
            lam = menu[(round_no * count + k) % len(menu)]
            tables.append([("row", name, lam, j) for j in range(GROUP_ORDER[name])])
    rng.shuffle(tables)
    rows = [q for table in tables for q in table]
    others = []
    for name, top in MULT_TOP.items():
        coords = [_stratified(rng, top, MULTS_PER_TYPE) for _ in range(_rank(name))]
        for lam in zip(*coords):
            others.append(("mult", name, lam, _dominant_below(rng, name, lam)))
    for lo, hi in (RANK_ONE_PASS, RANK_ONE_FAIL):
        k = rng.randint(lo, hi)
        others.append(("mult", "A1", (k,), (k % 2,)))
    rng.shuffle(others)
    total = len(rows) + len(others)
    slots = set(rng.sample(range(total), len(others)))
    it_rows, it_others = iter(rows), iter(others)
    return [next(it_others) if k in slots else next(it_rows) for k in range(total)]


def _row(rs, lam, j) -> bool:
    w = dz.weyl_group(rs)[j]
    seq = dz.dimension_sequence(w, lam, w.length + 3)
    degree = dz.growth_degree(seq)
    ok = degree <= w.length
    if all(x > 0 for x in lam):
        ok = ok and degree == w.length
    if w.length == len(rs.positive_roots):
        ok = ok and all(
            v == dz.weyl_dim(rs, tuple(n * x for x in lam)) for n, v in enumerate(seq.values)
        )
    return ok


def _mult(rs, lam, mu) -> bool:
    return dz.weight_multiplicity(rs, lam, mu) == dz.freudenthal_multiplicity(rs, lam, mu)


# --------------------------------------------------------------------- hecke

HECKE_TRIPLES_PER_TYPE = 50


def _hecke_batch(run_rng: random.Random, rng: random.Random, round_no: int) -> list[tuple]:
    batch = []
    for name in TYPES["hecke"]:
        rank, top = _rank(name), 2 * POSITIVE_ROOTS[name]
        for _ in range(HECKE_TRIPLES_PER_TYPE):
            words = tuple(
                tuple(rng.randint(1, rank) for _ in range(rng.randint(0, top)))
                for _ in range(3)
            )
            batch.append(("hecke", name, words))
    rng.shuffle(batch)
    return batch


def _hecke(rs, words) -> bool:
    e = dz.identity(rs)
    x, y, z = (dz.demazure_fold(e, word) for word in words)
    left = dz.demazure_product(dz.demazure_product(x, y), z)
    right = dz.demazure_product(x, dz.demazure_product(y, z))
    word = dz.reduced_word(left)
    back = dz.from_word(rs, word)
    return left == right and back == left and back.length == len(word)


# ---------------------------------------------------------------------- levi

LEVI_PER_TYPE = 60
LEVI_MENU = {
    "A3": _dominant_weights(3, 2, 3),
    "B3": _dominant_weights(3, 2, 3),
    "C3": _dominant_weights(3, 2, 3),
    "A4": _dominant_weights(4, 1, 3),
}


def _levi_batch(run_rng: random.Random, rng: random.Random, round_no: int) -> list[tuple]:
    # Weights cycle through a seeded order of each menu, so every round
    # holds nearly the same weights; the seed varies order and subsets.
    batch = []
    for name in TYPES["levi"]:
        rank = _rank(name)
        menu = run_rng.sample(LEVI_MENU[name], len(LEVI_MENU[name]))
        for k in range(LEVI_PER_TYPE):
            lam = menu[(round_no * LEVI_PER_TYPE + k) % len(menu)]
            subset = tuple(sorted(rng.sample(range(1, rank + 1), rng.randint(1, rank - 1))))
            batch.append(("levi", name, lam, subset))
    rng.shuffle(batch)
    return batch


def _levi(rs, lam, subset) -> bool:
    length, bound, holds = dz.levi_length_bound(lam, dz.LeviDatum(rs, frozenset(subset)))
    return holds and 1 <= length <= bound


# ------------------------------------------------------------------- cli_mix

CLI_REQUESTS = 400
CLI_REPEAT_SHARE = 0.3
CLI_SUBCOMMANDS = (
    "char", "dim", "weight-mult", "dual", "hecke", "branch", "unirad", "growth", "sl3t",
)
# Stands for the round's cache directory, which the worker fills in, so
# that a batch does not depend on the file system.
CACHE = "{cache}"


def _csv(xs) -> str:
    return ",".join(map(str, xs))


def _small_weight(rng: random.Random, name: str) -> tuple[int, ...]:
    top = 1 if name == "A3" else 2
    while True:
        lam = tuple(rng.randint(0, top) for _ in range(_rank(name)))
        if any(lam):
            return lam


def _argv(sub: str, **flags) -> list[str]:
    # --name=value, so that values starting with "-" are not taken for flags
    return [sub, *(f"--{k}={v}" for k, v in flags.items())]


def _cli_request(rng: random.Random, sub: str) -> list[str]:
    name = rng.choice(TYPES["cli_mix"])
    rank = _rank(name)
    if sub in ("char", "dim"):
        word = _random_reduced_word(rng, name, rng.randint(0, POSITIVE_ROOTS[name]))
        lam = _small_weight(rng, name)
        return _argv(sub, type=name, word=_csv(word), weight=_csv(lam), cache=CACHE)
    if sub == "weight-mult":
        lam = _small_weight(rng, name)
        mu = tuple(rng.randint(-2, 2) for _ in range(rank))
        return _argv(sub, type=name, weight=_csv(lam), mu=_csv(mu))
    if sub == "dual":
        return _argv(sub, type=name, weight=_csv(_small_weight(rng, name)))
    if sub == "hecke":
        left, right = (
            [rng.randint(1, rank) for _ in range(rng.randint(0, 2 * POSITIVE_ROOTS[name]))]
            for _ in range(2)
        )
        return _argv(sub, type=name, left=_csv(left), right=_csv(right))
    if sub in ("branch", "unirad"):
        subset = sorted(rng.sample(range(1, rank + 1), rng.randint(1, rank - 1)))
        lam = _small_weight(rng, name)
        if sub == "unirad":
            lam = tuple(x if i + 1 in subset else rng.randint(-2, 2) for i, x in enumerate(lam))
        return _argv(sub, type=name, weight=_csv(lam), subset=_csv(subset))
    if sub == "growth":
        name = rng.choice(("A2", "B2"))
        word = _random_reduced_word(rng, name, rng.randint(0, 3))
        lam = tuple(rng.randint(0, 1) for _ in range(2))
        fmt = rng.choice(("json", "tsv"))
        return _argv(sub, type=name, word=_csv(word), weight=_csv(lam), format=fmt)
    if rng.random() < 0.25:
        return [sub, "--grid", str(rng.randint(1, 2)), "1"]
    l = tuple(rng.randint(-3, 3) for _ in range(3))
    return _argv(sub, k1=rng.randint(0, 6), k2=rng.randint(0, 6), l=_csv(l))


def _cli_batch(run_rng: random.Random, rng: random.Random, round_no: int) -> list[tuple]:
    repeats = set(rng.sample(range(1, CLI_REQUESTS), round(CLI_REPEAT_SHARE * CLI_REQUESTS)))
    batch: list[tuple] = []
    originals: list[int] = []
    for k in range(CLI_REQUESTS):
        if k in repeats:
            first = rng.choice(originals)
            batch.append(("cli", batch[first][1], first))
        else:
            sub = CLI_SUBCOMMANDS[k % len(CLI_SUBCOMMANDS)]
            batch.append(("cli", tuple(_cli_request(rng, sub)), None))
            originals.append(k)
    return batch


class CliRunner:
    """Runs CLI requests in process, remembering stdout for repeat checks."""

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = cache_dir
        self.stdout: dict[int, str] = {}
        self.stderr: list[str] = []

    def __call__(self, qid: int, argv: tuple, first: int | None) -> bool:
        args = [a.replace(CACHE, self.cache_dir) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dz.cli.run(args)
        self.stderr.append(err.getvalue())
        text = out.getvalue()
        self.stdout[qid] = text
        if first is not None and self.stdout.get(first) != text:
            return False
        return code == 0 and bool(text)


# -------------------------------------------------------------------- common

_GENERATORS = {
    "characters": _characters_batch,
    "hecke": _hecke_batch,
    "levi": _levi_batch,
    "cli_mix": _cli_batch,
}

def make_batch(workload: str, seed: int, round_no: int) -> list[tuple]:
    run_rng = random.Random(f"{workload}:{seed}")
    rng = random.Random(f"{workload}:{seed}:{round_no}")
    return _GENERATORS[workload](run_rng, rng, round_no)


def run_query(query: tuple, systems: dict, cli_runner: CliRunner | None, qid: int) -> bool:
    kind = query[0]
    if kind == "row":
        return _row(systems[query[1]], query[2], query[3])
    if kind == "mult":
        return _mult(systems[query[1]], query[2], query[3])
    if kind == "hecke":
        return _hecke(systems[query[1]], query[2])
    if kind == "levi":
        return _levi(systems[query[1]], query[2], query[3])
    return cli_runner(qid, query[1], query[2])
