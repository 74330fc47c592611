#!/usr/bin/env python3
"""Tabulate dilation dimensions for every Weyl group element of a type.

For each w the module dimension along n*lam is polynomial in n of degree
length(w) when lam is regular; this prints the sequences and detected
degrees so the equality can be eyeballed for any type and weight.

    python3 scripts/growth_table.py --type B2
    python3 scripts/growth_table.py --type A3 --weight 1,0,1 --window 3
"""

import argparse

from demazure import (
    dimension_sequence,
    growth_degree,
    reduced_word,
    rho,
    root_system,
    weyl_group,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--type", default="A2")
    ap.add_argument("--weight", default=None, help="comma-separated; defaults to rho")
    ap.add_argument("--window", type=int, default=2,
                    help="extra entries beyond the minimal length(w)+2")
    args = ap.parse_args()

    try:
        rs = root_system(args.type)
        group = weyl_group(rs)
    except ValueError as exc:
        ap.error(str(exc))  # exits 2
    lam = rho(rs) if args.weight is None else tuple(int(x) for x in args.weight.split(","))
    print(f"# {rs.name}, weight {lam}, |W| = {len(group)}")
    print("word\tlength\tdegree\tmatch\tvalues")
    mismatches = 0
    for w in group:
        seq = dimension_sequence(w, lam, w.length + 2 + args.window)
        degree = growth_degree(seq)
        if degree > w.length:
            mismatches += 1
        word = ",".join(map(str, reduced_word(w))) or "-"
        values = ",".join(map(str, seq.values))
        print(f"{word}\t{w.length}\t{degree}\t{degree == w.length}\t{values}")
    if mismatches:
        print(f"# {mismatches} elements exceeded their length bound")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
