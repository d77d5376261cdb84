#!/usr/bin/env python3
"""Survey of stabilized chain ranks over random staged cover families.

Samples seeded families, computes the stabilized rank of the certificate
poset for each member, and prints the distribution of rank against its
upper bound.

    python scripts/rank_survey.py --families 50 --max-members 5
"""

import argparse
from collections import Counter
from dataclasses import dataclass

from wallman import gen
from wallman.covers import phi_from_witness, rank_upper_bound, stabilized_rank
from wallman.errors import OracleDisagreement


@dataclass(frozen=True)
class SurveyConfig:
    families: int = 50
    max_members: int = 5
    seed: int = 0


def run(cfg: SurveyConfig) -> None:
    ranks = Counter()
    slack = Counter()  # bound - rank
    samples = 0
    for i in range(cfg.families):
        F = gen.random_staged_family(1 + i % cfg.max_members, cfg.seed + i)
        phi = phi_from_witness(F)
        for uid in sorted(F.by_id()):
            length, _ = stabilized_rank(F, phi, uid)
            bound = rank_upper_bound(F, phi, uid)
            if length > bound:
                raise OracleDisagreement(
                    f"family {i}, member {uid}: rank {length} "
                    f"exceeds its bound {bound}"
                )
            ranks[length] += 1
            slack[bound - length] += 1
            samples += 1
    print(f"{samples} (family, member) samples from {cfg.families} families")
    print("rank distribution:")
    for r in sorted(ranks):
        print(f"  rank {r:>2}: {ranks[r]:>4}  {'#' * ranks[r]}")
    print("slack (bound - rank) distribution:")
    for s in sorted(slack):
        print(f"  slack {s:>2}: {slack[s]:>4}")


def main() -> None:
    ap = argparse.ArgumentParser(
        description="Survey of stabilized chain ranks over random staged cover families."
    )
    ap.add_argument("--families", type=int, default=50)
    ap.add_argument("--max-members", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    run(SurveyConfig(args.families, args.max_members, args.seed))


if __name__ == "__main__":
    main()
