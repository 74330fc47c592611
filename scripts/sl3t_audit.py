#!/usr/bin/env python3
"""Audit the three multiplicity routes for the SL3 torus quotient.

Sweeps all biweights with k1, k2 <= KMAX and |l_i| <= LMAX, recomputes
the multiplicity by the closed formula, by weight multiplicities in the
dual module, and by the stepwise subtraction count, and reports any
disagreement (exit status 1 if one is found).

    python3 scripts/sl3t_audit.py --kmax 6 --lmax 3
    python3 scripts/sl3t_audit.py --kmax 2 --lmax 1 --table
"""

import argparse

from demazure.sl3t import AUDIT_COLUMNS, audit_rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kmax", type=int, default=6)
    ap.add_argument("--lmax", type=int, default=3)
    ap.add_argument("--table", action="store_true", help="stream the full TSV table")
    args = ap.parse_args()
    for flag, value in (("--kmax", args.kmax), ("--lmax", args.lmax)):
        if value < 0:
            ap.error(f"{flag} takes a non-negative integer, got {value}")  # exits 2

    if args.table:
        print("\t".join(AUDIT_COLUMNS))
    cases = members = disagreements = 0
    for row in audit_rows(args.kmax, args.lmax):
        cases += 1
        members += row[AUDIT_COLUMNS.index("member")]
        if not row[-1]:
            disagreements += 1
        if args.table or not row[-1]:
            print("\t".join(str(x) for x in row))
    print(f"# {cases} biweights, {members} members, {disagreements} disagreements")
    return 1 if disagreements else 0


if __name__ == "__main__":
    raise SystemExit(main())
