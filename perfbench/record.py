"""Record the outputs the benchmark expects, in expected.json.

    python3 perfbench/record.py

For every workload and every seed of SEEDS this runs one untraced pass and
stores the digest of the whole pass; for the first seed it also stores
each job's digest, so that a mismatch on that seed names the job.
Recording refuses to write anything if an exit code or an oracle check
fails.  Re-record only for a change that is meant to alter wallman's
outputs or the benchmark's inputs.
"""

from __future__ import annotations

import json
import os
import sys

import run
from workloads import BUILDERS

SEEDS = range(0, 20)


def main() -> int:
    run.fix_hash_seed(os.path.abspath(__file__))
    if not run.have_sources():
        return 1
    out = {"seed": SEEDS[0], "jobs": {}, "passes": {}}
    for name in run.WORKLOADS:
        out["passes"][name] = {}
        for seed in SEEDS:
            with run.scratch_dir():
                w = run.import_wallman()
                jobs = BUILDERS[name](w, seed)
                checker = run.Checker(jobs, None)
                digests = checker.judge(run.run_pass(jobs))
            if checker.problems:
                print("\n".join(checker.problems), file=sys.stderr)
                return 1
            out["passes"][name][str(seed)] = run.pass_digest(digests)
            if seed == SEEDS[0]:
                out["jobs"][name] = {j.id: d for j, d in zip(jobs, digests)}
            print(f"{name} seed {seed}: {len(jobs)} jobs, pass {out['passes'][name][str(seed)]}")
    with open(os.path.join(run.HERE, "expected.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
