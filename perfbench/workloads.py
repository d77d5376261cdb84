"""The three workloads: inputs made from a seed, the jobs run on them, and
the oracle checks their outputs must pass.

Every workload is built by a function ``build_<name>(w, seed)`` that takes
the imported wallman modules as the namespace ``w`` and returns a list of
`Job`.  Jobs look library functions up on ``w`` when they run, so the span
wrappers of `tracing` see every call.  Files are written to the current
directory, which the runner points at a scratch directory of its own.

Input sizes are fixed per input slot up to a narrow window, so that a pass
costs about the same on every seed; the seed picks the structures inside
each window.  Each slot draws the same number of candidates on every seed,
so that making the inputs costs about the same on every seed too.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Callable, Optional

# wallman.lattice.DIST_SCAN_CAP: keyed lattices above it skip the
# distributivity scan, table lattices above it raise TooLarge.
DIST_CAP = 160
# Each slot draws DRAWS seeded candidates and keeps the one nearest its
# size, drawing on only if none is within SLACK of it.
DRAWS = 128
SLACK = 0.03
MAX_ATTEMPTS = 20_000


@dataclass
class Job:
    id: str
    run: Callable[[], tuple]  # () -> (exit code, raw output); timed
    canon: Callable[[object], object]  # raw output -> plain data; untimed
    tags: dict = field(default_factory=dict)
    expect_exit: object = 0  # an exit code, or "raised <exception type>"
    check: Optional[Callable[[object], Optional[str]]] = None  # -> problem


def size_class(tags: dict) -> str:
    """Label of the size class a job belongs to, for per-class shares."""
    if "members" in tags:
        return f"members={tags['members']}"
    bound = 8
    while bound < tags["L"]:
        bound *= 2
    cap = " above-cap" if tags["above_cap"] else ""
    return f"{tags['mode']} |L|<={bound}{cap}"


def _lattice_tags(n: int, mode: str) -> dict:
    return {"L": n, "mode": mode, "above_cap": n > DIST_CAP}


def _nearest(make: Callable, size: Callable, target: int, what: str):
    """Of DRAWS seeded candidates, the first of those nearest to target in
    size, drawing on until one is within SLACK of it; `make` may return
    None for a candidate it rejects early."""
    best, best_gap = None, None
    for drawn in range(1, MAX_ATTEMPTS + 1):
        cand = make()
        if cand is not None:
            gap = abs(size(cand) - target)
            if best_gap is None or gap < best_gap:
                best, best_gap = cand, gap
        if drawn >= DRAWS and best_gap is not None and best_gap <= SLACK * target:
            return best
    raise RuntimeError(f"no {what} within {SLACK:.0%} of {target}")


def _downset_near(w, rng: random.Random, slot: tuple):
    """A seeded down-set lattice for a slot (|L|, poset points, atoms,
    edge probability low, high).

    The atom count fixes the size of the Boolean algebra `alexandrov`
    builds (2**atoms), whose cost jumps where it crosses DIST_CAP.  The
    atoms are the minimal points of the poset, so a poset with the wrong
    count is dropped before its lattice is built.  The edge probabilities
    are where such lattices are common.
    """
    target, points, n_atoms, p_lo, p_hi = slot

    def make():
        up = w.gen.random_poset(points, rng.randrange(1 << 30), rng.uniform(p_lo, p_hi))
        above_some = 0
        for i, row in enumerate(up):
            above_some |= row & ~(1 << i)
        if points - above_some.bit_count() != n_atoms:
            return None
        return w.gen.downset_lattice(up)

    return _nearest(make, lambda L: L.n, target, f"down-set lattice for slot {slot}")


# ---------------------------------------------------------------------------
# cli_tables: whole commands through wallman.cli.main


CLI_COMMANDS = {
    "check": ["check"],
    "filters.prime": ["filters", "--class", "prime", "--oracle"],
    "filters.ultra": ["filters", "--class", "ultra", "--oracle"],
    "space": ["space", "--kind", "prime", "--axioms"],
    "suite": ["suite"],
    "stone": ["stone"],
}
# m3 and n5 are not distributive: the fast oracle and the suite refuse them.
EXPECT_EXIT = {
    (c, f): 2 for c in ("filters.prime", "filters.ultra", "suite") for f in ("m3", "n5")
}
# A known defect, recorded as the outcome expected today: `stone m3` ends
# in an AssertionError that cli.main does not map to exit 2 (alexandrov
# asserts the hom law on a non-distributive lattice).  A fix changes this
# outcome, and the job fails until the expectation is updated with it.
EXPECT_EXIT[("stone", "m3")] = "raised AssertionError"
# Slots of the seeded down-set lattices (see _downset_near), spaced evenly
# so that jobs next to each other in cost differ little and the percentiles
# do not jump between seeds.
CLI_DOWNSETS = (
    (16, 7, 2, 0.42, 0.47),
    (24, 7, 3, 0.27, 0.32),
    (32, 7, 3, 0.27, 0.32),
    (40, 7, 4, 0.17, 0.22),
    (48, 7, 4, 0.17, 0.22),
    (56, 7, 5, 0.12, 0.17),
    (64, 7, 5, 0.17, 0.22),
    (72, 7, 5, 0.07, 0.12),
    (80, 7, 5, 0.12, 0.17),
    (88, 8, 5, 0.12, 0.17),
)
# The short chains cost about what the median job costs, and a chain's cost
# hardly depends on the seed, so they keep job_ms.p50 from jumping between
# the seeded down-set jobs around it.
CLI_CHAIN_SIZES = (18, 20, 22, 24, 26, 28, 40, 50, 60, 70)


def _run_cli(w, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = w.cli.main(argv)
    return code, (out.getvalue(), err.getvalue())


def canon_cli(raw) -> dict:
    """The report without its timings; the error text for a failed run."""
    out, err = raw
    if not out.strip():
        return {"stderr": err.strip()}
    report = json.loads(out)
    report.pop("timings_ms", None)
    return report


def _cli_job(w, job_id, argv, tags, expect_exit=0, check=None) -> Job:
    return Job(
        job_id, lambda: _run_cli(w, argv), canon_cli, tags, expect_exit, check
    )


def _check_cli(cmd: str, seeded: bool):
    def check(rep) -> Optional[str]:
        if "stderr" in rep:
            return None
        if cmd.startswith("filters") and rep["oracle"]["agree"] is not True:
            return "brute and fast enumeration disagree"
        if cmd == "suite" and rep["all_asserted_hold"] is not True:
            return "an asserted suite clause fails"
        if cmd == "stone" and not (
            rep["algebra_boolean"] and rep["onto"] and rep["continuous"]
        ):
            return "stone: algebra not Boolean, map not onto or not continuous"
        if cmd == "space" and rep["separation"]["t0"] is not True:
            return "prime space not T0"
        if cmd == "check" and seeded and rep["verdicts"]["distributive"] is not True:
            return "down-set lattice or chain reported not distributive"
        return None

    return check


def _chain_file(rng: random.Random, label: str, k: int) -> dict:
    """A k-chain given by its covers, elements and pairs in seeded order."""
    names = [f"c{i}" for i in range(k)]
    covers = [[names[i], names[i + 1]] for i in range(k - 1)]
    rng.shuffle(covers)
    listed = names[:]
    rng.shuffle(listed)
    return {"name": label, "elements": listed, "covers": covers}


def build_cli_tables(w, seed: int) -> list:
    rng = random.Random(seed)
    inputs = []  # (label, path or fixture name, |L|, seeded)
    for name in w.io.FIXTURE_NAMES:
        inputs.append((name, name, w.io.builtin_lattice(name).n, False))
    for i, slot in enumerate(CLI_DOWNSETS):
        L = _downset_near(w, rng, slot)
        path = f"seeded_downset{i}.json"
        with open(path, "w") as fh:
            json.dump(w.io.dump_lattice(L), fh)
        inputs.append((path[:-5], path, L.n, True))
    for i, k in enumerate(CLI_CHAIN_SIZES):
        path = f"seeded_chain{i}.json"
        with open(path, "w") as fh:
            json.dump(_chain_file(rng, path[:-5], k), fh)
        inputs.append((path[:-5], path, k, True))
    jobs = []
    for label, ref, n, seeded in inputs:
        for cmd, words in CLI_COMMANDS.items():
            jobs.append(
                _cli_job(
                    w,
                    f"{cmd}:{label}",
                    [words[0], ref, *words[1:]],
                    _lattice_tags(n, "table"),
                    EXPECT_EXIT.get((cmd, label), 0),
                    _check_cli(cmd, seeded),
                )
            )
    return jobs


# ---------------------------------------------------------------------------
# keyed_library: direct library calls on keyed lattices


# slots of the seeded down-set lattices; a third lie above DIST_CAP
KEYED_DOWNSETS = (
    (16, 7, 2, 0.42, 0.47),
    (20, 7, 2, 0.42, 0.47),
    (24, 7, 3, 0.27, 0.32),
    (28, 7, 3, 0.32, 0.37),
    (32, 7, 3, 0.27, 0.32),
    (40, 7, 4, 0.17, 0.22),
    (48, 7, 4, 0.17, 0.22),
    (56, 7, 5, 0.12, 0.17),
    (64, 7, 5, 0.17, 0.22),
    (72, 7, 5, 0.07, 0.12),
    (80, 7, 5, 0.12, 0.17),
    (170, 9, 5, 0.12, 0.17),
    (180, 9, 6, 0.07, 0.12),
    (220, 9, 6, 0.07, 0.12),
    (240, 9, 6, 0.07, 0.12),
    (260, 10, 6, 0.07, 0.12),
)
BOOLEAN_ATOMS = (3, 4, 5, 6)
# Chains of down-sets, keys in seeded order.  Like the short chains of
# cli_tables they cost about what the median job costs whatever the seed,
# so that job_ms.p50 does not jump between the seeded jobs around it.
KEYED_CHAIN_SIZES = (20, 22, 24, 26, 28, 30)
HOM_ATOMS = ((3, 4), (4, 5), (5, 6))
HOMS_PER_PAIR = 3


def _plain(obj):
    """A result as JSON-ready data."""
    if is_dataclass(obj):
        return {k: _plain(v) for k, v in asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _lib_job(job_id, fn, canon, tags, check) -> Job:
    return Job(job_id, lambda: (0, fn()), canon, tags, 0, check)


def _lattice_jobs(w, label: str, keys: tuple, boolean: bool) -> list:
    def fresh():
        return w.lattice.FiniteLattice.from_keys(keys)

    def canon_suite(rep):
        return dict(_plain(rep), all_asserted_hold=rep.all_asserted_hold())

    def canon_alexandrov(res):
        return {
            "algebra": res.algebra.n,
            "hom": list(res.hom.map),
            "onto": list(res.onto.point_map),
            "kernel": list(res.kernel),
            "boolean": w.lattice.is_boolean(res.algebra),
            "surjective": res.onto.is_surjective(),
            "continuous": res.onto.is_continuous(),
        }

    def check_report(rep):
        if not rep["is_distributive"]:
            return "set lattice reported not distributive"
        if boolean and not rep["is_boolean"]:
            return "Boolean algebra reported not Boolean"
        return None

    def check_alexandrov(rep):
        if not (rep["boolean"] and rep["continuous"]):
            return "alexandrov algebra not Boolean or map not continuous"
        if len(rep["kernel"]) == 1 and not rep["surjective"]:
            return "trivial kernel without a surjection"
        return None

    tags = _lattice_tags(len(keys), "keyed")
    return [
        _lib_job(
            f"lattice_report:{label}",
            lambda: w.lattice.lattice_report(fresh()),
            _plain,
            tags,
            check_report,
        ),
        _lib_job(
            f"theorem_suite:{label}",
            lambda: w.spaces.theorem_suite(fresh()),
            canon_suite,
            tags,
            lambda rep: None if rep["all_asserted_hold"] else "suite clause fails",
        ),
        _lib_job(
            f"alexandrov:{label}",
            lambda: w.homs.alexandrov(fresh()),
            canon_alexandrov,
            tags,
            check_alexandrov,
        ),
    ]


def _hom_jobs(w, label: str, k_keys, l_keys, h_map, g) -> list:
    """Jobs on h: K -> L; g = (M keys, map of L -> M) for the functor laws."""

    def hom():
        K = w.lattice.FiniteLattice.from_keys(k_keys)
        L = w.lattice.FiniteLattice.from_keys(l_keys)
        return w.homs.LatticeHom(K, L, h_map)

    def functor():
        h = hom()
        M = w.lattice.FiniteLattice.from_keys(g[0])
        return w.homs.functor_laws(w.homs.LatticeHom(h.target, M, g[1]), h)

    def canon_induced(sm):
        return {"points": list(sm.point_map), "continuous": sm.is_continuous()}

    def canon_equivalence(rep):
        return dict(_plain(rep), all_equivalent=rep.all_equivalent())

    def implies(a, b, what):
        return lambda rep: None if (not rep[a] or rep[b]) else what

    tags = _lattice_tags(len(l_keys), "keyed")
    jobs = [
        _lib_job(
            f"induced_map:{label}",
            lambda: w.homs.induced_map(hom()),
            canon_induced,
            tags,
            lambda rep: None if rep["continuous"] else "induced map not continuous",
        ),
        _lib_job(
            f"separativity_equivalence:{label}",
            lambda: w.homs.separativity_equivalence(hom()),
            canon_equivalence,
            tags,
            lambda rep: None if rep["all_equivalent"] else "equivalence fails",
        ),
        _lib_job(
            f"surjectivity_from_kernel:{label}",
            lambda: w.homs.surjectivity_from_kernel(hom()),
            _plain,
            tags,
            implies("kernel_trivial", "surjective", "trivial kernel, not onto"),
        ),
        _lib_job(
            f"embedding_from_separation:{label}",
            lambda: w.homs.embedding_from_separation(hom()),
            _plain,
            tags,
            implies("separating_image", "injective", "separating, not injective"),
        ),
    ]
    if g is not None:
        jobs.append(
            _lib_job(
                f"functor_laws:{label}",
                functor,
                _plain,
                _lattice_tags(len(g[0]), "keyed"),
                lambda ok: None if ok is True else "functor laws fail",
            )
        )
    return jobs


def build_keyed_library(w, seed: int) -> list:
    rng = random.Random(seed)
    jobs = []
    for i, slot in enumerate(KEYED_DOWNSETS):
        L = _downset_near(w, rng, slot)
        jobs += _lattice_jobs(w, f"downset{i}", L.keys, False)
    algebras = {k: w.gen.boolean_algebra(k) for k in range(3, 7)}
    for k in BOOLEAN_ATOMS:
        jobs += _lattice_jobs(w, f"B{k}", algebras[k].keys, True)
    for r in range(HOMS_PER_PAIR):
        homs = {
            ab: w.gen.random_boolean_hom(
                algebras[ab[0]], algebras[ab[1]], rng.randrange(1 << 30)
            ).map
            for ab in HOM_ATOMS
        }
        for a, b in HOM_ATOMS:
            nxt = (b, b + 1)
            g = (algebras[b + 1].keys, homs[nxt]) if nxt in homs else None
            jobs += _hom_jobs(
                w, f"B{a}-B{b}.{r}", algebras[a].keys, algebras[b].keys, homs[a, b], g
            )
    for k in KEYED_CHAIN_SIZES:
        keys = [(1 << i) - 1 for i in range(k)]
        rng.shuffle(keys)
        jobs += _lattice_jobs(w, f"chain{k}", tuple(keys), False)
    return jobs


# ---------------------------------------------------------------------------
# cert_rank: `wallman cert` commands on staged cover families


# (members, centered sets): families near ~100 centered sets already make
# one rank search take a tenth of a second, and 512 sets take seconds.
CERT_FAMILIES = (
    (4, 10),
    (4, 14),
    (5, 16),
    (5, 24),
    (6, 26),
    (6, 36),
    (7, 40),
    (7, 48),
    (7, 56),
    (8, 64),
    (8, 80),
)
BRUTE_MEMBERS = 4  # rank is cross-checked by brute force up to this size


def _family_near(w, rng: random.Random, members: int, centered: int):
    """A seeded staged family of `members` members near `centered` sets."""
    return _nearest(
        lambda: w.gen.random_staged_family(members, rng.randrange(1 << 30)),
        lambda F: len(w.covers.centered_subsets(F))
        if len(F.by_id()) == members
        else 0,
        centered,
        f"{members}-member family",
    )


def _check_rank(w, path: str, member: str, members: int):
    def check(rep) -> Optional[str]:
        if rep["rank"] > rep["bound"]:
            return f"rank {rep['rank']} above the bound {rep['bound']}"
        if members <= BRUTE_MEMBERS:
            F = w.io.load_family_file(path)
            phi = w.covers.phi_from_witness(F)
            cap = max(phi[member]) + members + 1
            brute = w.covers.max_increasing_chain_brute(F, phi, member, cap)
            if brute != rep["rank"]:
                return f"brute-force rank {brute} != {rep['rank']}"
        return None

    return check


def _check_cert(sub: str, ids: list):
    def check(rep) -> Optional[str]:
        if sub == "t0" and rep["t0_separating"] is not True:
            return "generated family not T0-separating"
        if sub == "phi" and sorted(rep["phi"]) != ids:
            return "phi misses members"
        if sub == "ord" and sum(rep["ord_by_group"].values()) != rep["ord"]:
            return "ord differs from the sum of its groups"
        if sub == "refine" and not (rep["t0_preserved"] and rep["ord_transfer_ok"]):
            return "refinement lost T0 or the ord transfer"
        return None

    return check


def build_cert_rank(w, seed: int) -> list:
    rng = random.Random(seed)
    jobs = []
    for i, (members, centered) in enumerate(CERT_FAMILIES):
        F = _family_near(w, rng, members, centered)
        path = f"family{i}.json"
        with open(path, "w") as fh:
            json.dump(w.io.dump_family(F), fh)
        ids = sorted(F.by_id())
        tags = {
            "members": len(ids),
            "centered_sets": len(w.covers.centered_subsets(F)),
        }
        argvs = [
            ("t0", ["t0"]),
            ("phi", ["phi"]),
            ("rank", ["rank"]),
            ("refine.wiec", ["refine", "--mode", "wiec"]),
            ("refine.rosenthal", ["refine", "--mode", "rosenthal"]),
        ]
        for sub, words in argvs:
            jobs.append(
                _cli_job(
                    w,
                    f"cert.{sub}:family{i}",
                    ["cert", path, *words],
                    tags,
                    check=_check_cert(sub.split(".")[0], ids),
                )
            )
        for x in F.ground:
            jobs.append(
                _cli_job(
                    w,
                    f"cert.ord.{x}:family{i}",
                    ["cert", path, "ord", "--point", x],
                    tags,
                    check=_check_cert("ord", ids),
                )
            )
        for u in ids:
            jobs.append(
                _cli_job(
                    w,
                    f"cert.rank.{u}:family{i}",
                    ["cert", path, "rank", "--member", u],
                    tags,
                    check=_check_rank(w, path, u, len(ids)),
                )
            )
    return jobs


BUILDERS = {
    "cli_tables": build_cli_tables,
    "keyed_library": build_keyed_library,
    "cert_rank": build_cert_rank,
}
