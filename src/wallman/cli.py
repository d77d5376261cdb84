"""Command-line workbench: wallman <command> [args].

Each cmd_* handler returns (report, exit code); main alone times it and
emits the report, as JSON on stdout (one object per run) or as a --pretty
human view.  Timing fields are always under "timings_ms" so golden
comparisons can drop them.  Exit codes: 0 pass, 1 check failure, 2 input
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import covers, filters, gen, homs, io, lattice, spaces
from .errors import WallmanError


def emit(report: dict, pretty: bool) -> None:
    if pretty:
        _pretty(report)
    else:
        text = json.dumps(report, indent=1, sort_keys=True, default=str)
        sys.stdout.write(text + "\n")


def _pretty(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _pretty(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                _pretty(v, indent + 1)
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{obj}")


# ---------------------------------------------------------------------------
# commands


# the verdicts of `wallman check`, each read off LatticeReport.is_<name>
CHECK_VERDICTS = ("lattice", "distributive", "normal", "separative", "boolean")


def cmd_check(args) -> tuple:
    required = [r.strip() for r in args.require.split(",") if r.strip()]
    unknown = [r for r in required if r not in CHECK_VERDICTS]
    if unknown:
        raise ValueError(
            f"--require: unknown predicate {unknown[0]!r}"
            f" (choose from {', '.join(CHECK_VERDICTS)})"
        )
    L = io.resolve_lattice(args.path)
    rep = lattice.lattice_report(L)
    verdicts = {k: getattr(rep, f"is_{k}") for k in CHECK_VERDICTS}
    witnesses = {
        k: [L.names[i] for i in w] for k, w in rep.witnesses.items()
    }
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(io.dot_hasse(L) + "\n")
    report = {
        "command": "check",
        "input": L.name or args.path,
        "verdicts": verdicts,
        "witnesses": witnesses,
    }
    return report, 0 if all(verdicts[r] for r in required) else 1


def cmd_filters(args) -> tuple:
    L = io.resolve_lattice(args.path)
    out = filters.enumerate_filters(L, args.cls, args.strategy)
    report = {
        "command": "filters",
        "input": L.name or args.path,
        "class": args.cls,
        "strategy": args.strategy,
        "count": len(out),
        "filters": [io.dump_filter(f) for f in out],
    }
    code = 0
    if args.oracle:
        other = "fast" if args.strategy == "brute" else "brute"
        check = filters.enumerate_filters(L, args.cls, other)
        agree = {f.members for f in out} == {f.members for f in check}
        report["oracle"] = {"strategy": other, "agree": agree}
        if not agree:
            code = 1
    return report, code


def cmd_space(args) -> tuple:
    L = io.resolve_lattice(args.path)
    S = spaces.build_space(L, args.kind)
    report = {
        "command": "space",
        "input": L.name or args.path,
        "space": io.dump_space(S),
    }
    if args.axioms:
        sep = spaces.separation_axioms(S)
        report["separation"] = {
            "t0": sep.t0,
            "t1": sep.t1,
            "hausdorff": sep.hausdorff,
            "witnesses": {
                k: [S.point_label(i) for i in v]
                for k, v in sep.witnesses.items()
            },
        }
    return report, 0


def cmd_suite(args) -> tuple:
    L = io.resolve_lattice(args.path)
    rep = spaces.theorem_suite(L)
    clauses = {k: getattr(rep, k) for k in rep.__dataclass_fields__}
    report = {
        "command": "suite",
        "input": L.name or args.path,
        "clauses": clauses,
        "all_asserted_hold": rep.all_asserted_hold(),
    }
    return report, 0 if rep.all_asserted_hold() else 1


def cmd_hom(args) -> tuple:
    """Every entry of homs reads the verdict h.law cached for the report,
    so h is verified once whatever the flags; --laws verifies one more."""
    h = io.load_hom_file(args.path)
    ok, wit = h.law
    report = {"command": "hom", "input": args.path, "valid_hom": ok}
    if wit is not None:
        report["witness"] = list(wit)
    if ok and args.induced:
        sm = homs.induced_map(h)
        # a point map out of ult(L) is continuous by construction (induced_map)
        report["induced"] = {
            "points": {
                sm.source.point_label(i): sm.target.point_label(fi)
                for i, fi in enumerate(sm.point_map)
            },
            "continuous": True,
        }
    if ok and args.separative:
        flag, switness = homs.is_separative_hom(h)
        report["separative"] = flag
        if switness is not None:
            report["separative_witness"] = list(switness)
    if ok and args.equivalence:
        mrep = homs.separativity_equivalence(h, args.unchecked)
        report["equivalence"] = {
            "separative": mrep.separative,
            "preimages_ultra": mrep.preimages_ultra,
            "preimage_law": mrep.preimage_law,
            "all_equivalent": mrep.all_equivalent(),
        }
    if ok and args.laws:
        # True by construction once the checks pass (homs.functor_laws)
        report["functor_laws"] = homs.functor_laws(io.load_hom_file(args.laws), h)
    return report, 0 if ok else 1


def cmd_stone(args) -> tuple:
    """Boolean, onto and continuous hold by construction (homs.alexandrov)."""
    L = io.resolve_lattice(args.path)
    res = homs.alexandrov(L)
    report = {
        "command": "stone",
        "input": L.name or args.path,
        "algebra_size": res.algebra.n,
        "algebra_boolean": True,
        "kernel": [L.names[a] for a in res.kernel],
        "onto": True,
        "continuous": True,
    }
    return report, 0


def cmd_cert(args) -> tuple:
    F = io.load_family_file(args.path)
    report = {"command": f"cert {args.sub}", "input": args.path}
    code = 0
    if args.sub == "t0":
        flag, wit = covers.is_T0_separating(F)
        report["t0_separating"] = flag
        if wit is not None:
            report["witness"] = [F.ground[x] for x in wit]
            code = 1
    elif args.sub == "ord":
        if args.point is None:
            raise ValueError("cert ord needs --point")
        if args.point not in F.ground:
            raise ValueError(f"--point {args.point!r} is not a ground point")
        x = F.point_id(args.point)
        report["point"] = args.point
        report["ord"] = covers.ord_count(x, F.members)
        report["ord_by_group"] = {
            str(g): covers.ord_count(x, ms)
            for g, ms in sorted(F.groups().items())
        }
    elif args.sub == "rank":
        if args.phi and args.member is None:
            raise ValueError("cert rank --phi needs --member")
        if args.member is not None:
            phi = (
                io.load_phi_file(args.phi)
                if args.phi
                else covers.phi_from_witness(F)
            )
            length, chain = covers.stabilized_rank(F, phi, args.member)
            report["member"] = args.member
            report["rank"] = length
            report["bound"] = covers.rank_upper_bound(F, phi, args.member)
            report["chain"] = [
                {"s": sorted(s), "k": k} for s, k in chain
            ]
        else:
            groups = F.groups()
            report["groups"] = {}
            for g, ms in sorted(groups.items()):
                r = covers.centered_poset_rank(ms, F.ground_mask)
                report["groups"][str(g)] = {
                    "max_centered_size": r.max_centered_size,
                    "max_ord": r.max_ord,
                }
    elif args.sub == "phi":
        phi = covers.phi_from_witness(F)
        report["phi"] = {u: sorted(v) for u, v in sorted(phi.items())}
    elif args.sub == "refine":
        fn = (
            covers.wiec_refinement
            if args.mode == "wiec"
            else covers.rosenthal_refinement
        )
        res = fn(F)
        report["mode"] = args.mode
        report["t0_preserved"] = res.t0_preserved
        report["ord_transfer_ok"] = res.ord_transfer_ok
        report["group_rank_bounds_ok"] = res.group_rank_bounds_ok
        report["size"] = len(res.family.members)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(io.dump_family(res.family), fh, indent=1)
                fh.write("\n")
    return report, code


def cmd_gen(args) -> tuple:
    if args.kind == "staged-family":
        F = gen.random_staged_family(args.size, args.seed)
        payload = io.dump_family(F)
        summary = {"members": len(F.members)}
    else:
        L = (
            gen.boolean_algebra(args.size)
            if args.kind == "boolean"
            else gen.random_downset_lattice(args.size, args.seed)
        )
        payload = io.dump_lattice(L)
        summary = {"elements": L.n}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    report = {
        "command": "gen",
        "kind": args.kind,
        "size": args.size,
        "seed": args.seed,
        "summary": summary,
    }
    if not args.out:
        report["payload"] = payload
    return report, 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The wallman parser, built on first use and shared by every later
    main() call in the process: callers must not mutate it."""
    ap = argparse.ArgumentParser(
        prog="wallman", description="Command-line workbench: wallman <command> [args]."
    )
    ap.add_argument("--pretty", action="store_true", help="human-readable output")
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--pretty",
        action="store_true",
        default=argparse.SUPPRESS,
        help="human-readable output",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[parent], help="structural predicates of a lattice")
    p.add_argument("path")
    p.add_argument("--require", default="", help="comma list of predicates that must hold")
    p.add_argument("--dot", default=None, help="write a Hasse diagram in dot format")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("filters", parents=[parent], help="enumerate filters of a class")
    p.add_argument("path")
    p.add_argument("--class", dest="cls", default="all", choices=["all", "prime", "ultra"])
    p.add_argument("--strategy", default="brute", choices=["brute", "fast", "exhaustive"])
    p.add_argument("--oracle", action="store_true", help="cross-check brute vs fast")
    p.set_defaults(fn=cmd_filters)

    p = sub.add_parser("space", parents=[parent], help="build a prime/ultrafilter space")
    p.add_argument("path")
    p.add_argument("--kind", default="ultra", choices=["prime", "ultra"])
    p.add_argument("--axioms", action="store_true")
    p.set_defaults(fn=cmd_space)

    p = sub.add_parser("suite", parents=[parent], help="run the theorem clause suite")
    p.add_argument("path")
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("hom", parents=[parent], help="checks on a lattice homomorphism")
    p.add_argument("path")
    p.add_argument("--induced", action="store_true")
    p.add_argument("--separative", action="store_true")
    p.add_argument("--equivalence", action="store_true")
    p.add_argument("--unchecked", action="store_true")
    p.add_argument("--laws", default=None, metavar="SECOND_HOM")
    p.set_defaults(fn=cmd_hom)

    p = sub.add_parser("stone", parents=[parent], help="0-dimensionalization of a lattice")
    p.add_argument("path")
    p.set_defaults(fn=cmd_stone)

    p = sub.add_parser("cert", parents=[parent], help="covering-certificate checks")
    p.add_argument("path")
    p.add_argument("sub", choices=["t0", "ord", "rank", "phi", "refine"])
    p.add_argument("--point", default=None)
    p.add_argument("--member", default=None)
    p.add_argument("--phi", default=None)
    p.add_argument("--mode", default="wiec", choices=["wiec", "rosenthal"])
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(fn=cmd_cert)

    p = sub.add_parser("gen", parents=[parent], help="generate a seeded fixture")
    p.add_argument("--kind", required=True, choices=["downset", "boolean", "staged-family"])
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(fn=cmd_gen)

    return ap


def main(argv=None) -> int:
    """Parse argv, run its command and emit the report it returns, with
    timings_ms.total spanning the whole command; return its exit code."""
    args = build_parser().parse_args(argv)
    try:
        start = time.perf_counter()
        report, code = args.fn(args)
        total = round((time.perf_counter() - start) * 1000.0, 3)
        report["timings_ms"] = {"total": total}
        emit(report, args.pretty)
        return code
    except (WallmanError, OSError, ValueError, KeyError) as exc:
        # str() of a KeyError is the repr of its key; print the message bare
        msg = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
