#!/usr/bin/env python3
"""Theorem-suite sweep over the builtin lattice corpus.

For each distributive builtin lattice, prints the predicate profile and the
clause-by-clause suite verdicts; non-distributive members are listed with
the reason they are skipped.

    python scripts/corpus_suite.py
"""

from wallman import io
from wallman.errors import NotDistributive
from wallman.lattice import is_boolean, is_distributive, is_normal, is_separative
from wallman.spaces import theorem_suite


def flags(L) -> str:
    marks = [
        ("D", is_distributive(L)[0]),
        ("N", is_normal(L)[0]),
        ("S", is_separative(L)[0]),
        ("B", is_boolean(L)),
    ]
    return "".join(m if ok else "-" for m, ok in marks)


def main() -> None:
    print(f"{'lattice':<14} {'n':>4} {'DNSB':>5}  suite")
    for L in io.builtin_corpus():
        try:
            rep = theorem_suite(L)
        except NotDistributive:
            print(f"{L.name:<14} {L.n:>4} {flags(L):>5}  (non-distributive)")
            continue
        asserted = "ok" if rep.all_asserted_hold() else "FAIL"
        converse = "" if rep.ult_hausdorff_implies_normal else \
            "  [Hausdorff without normality]"
        print(f"{L.name:<14} {L.n:>4} {flags(L):>5}  "
              f"asserted={asserted} ult=Pf={rep.ult_equals_pf}{converse}")


if __name__ == "__main__":
    main()
