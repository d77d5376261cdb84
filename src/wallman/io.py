"""File formats: lattice, homomorphism, cover-family and report dumps.

Everything is JSON.  A lattice file holds {"name", "elements", and exactly
one of "covers"/"leq" as [lo, hi] name pairs}.  A hom file holds
{"source", "target", "map": [[x, h(x)], ...]} where source/target are
builtin fixture names or paths resolved next to the hom file.  A family
file holds {"ground": [...], "members": [{"id", "set", "group",
"stages"?}]}; a phi file maps member ids to lists of naturals.
"""

from __future__ import annotations

import json
import os
from importlib import resources
from typing import Optional

from .bits import iter_bits, mask_of
from .covers import CoverFamily, Member
from .filters import FilterSet
from .homs import LatticeHom
from .lattice import FiniteLattice, load_lattice
from .spaces import WallmanSpace

FIXTURE_NAMES = (
    "chain2",
    "chain3",
    "m3",
    "n5",
    "powerset1",
    "powerset2",
    "powerset3",
    "powerset4",
    "fivepoint",
    "divisor12",
    "one_plus_b2",
)


def load_lattice_file(path: str) -> FiniteLattice:
    with open(path) as fh:
        spec = json.load(fh)
    L = load_lattice(spec)
    if L.name is None:
        L.name = os.path.splitext(os.path.basename(path))[0]
    return L


def builtin_lattice(name: str) -> FiniteLattice:
    """One of the shipped corpus lattices, by name."""
    if name not in FIXTURE_NAMES:
        raise KeyError(f"no builtin lattice named {name!r}")
    text = (
        resources.files("wallman").joinpath(f"fixtures/{name}.json").read_text()
    )
    return load_lattice(json.loads(text))


def builtin_corpus() -> list:
    return [builtin_lattice(n) for n in FIXTURE_NAMES]


def dump_lattice(L: FiniteLattice) -> dict:
    L.materialize_rows()
    pairs = []
    for i in range(L.n):
        for j in iter_bits(L.up_mask(i)):
            if j != i:
                pairs.append([L.names[i], L.names[j]])
    return {
        "name": L.name,
        "elements": list(L.names),
        "leq": pairs,
    }


def resolve_lattice(ref: str, base_dir: Optional[str] = None) -> FiniteLattice:
    if ref in FIXTURE_NAMES:
        return builtin_lattice(ref)
    path = ref
    if base_dir is not None and not os.path.isabs(path):
        cand = os.path.join(base_dir, path)
        if os.path.exists(cand):
            path = cand
    return load_lattice_file(path)


def load_hom_file(path: str) -> LatticeHom:
    with open(path) as fh:
        spec = json.load(fh)
    base = os.path.dirname(os.path.abspath(path))
    src = resolve_lattice(spec["source"], base)
    tgt = resolve_lattice(spec["target"], base)
    mapping = {x: y for x, y in spec["map"]}
    missing = [nm for nm in src.names if nm not in mapping]
    if missing:
        raise ValueError(f"hom map misses elements: {missing}")
    return LatticeHom(
        src, tgt, tuple(tgt.id_of(mapping[nm]) for nm in src.names)
    )


def dump_filter(F: FilterSet) -> dict:
    return {"kind": F.kind, "elements": sorted(F.element_names())}


def dump_space(S: WallmanSpace) -> dict:
    return {
        "kind": S.kind,
        "points": [sorted(p.element_names()) for p in S.points],
        "closed_base": {
            S.lattice.names[a]: sorted(iter_bits(S.a_plus[a]))
            for a in range(S.lattice.n)
        },
    }


def load_family_file(path: str) -> CoverFamily:
    with open(path) as fh:
        spec = json.load(fh)
    return family_from_dict(spec)


def family_from_dict(spec: dict) -> CoverFamily:
    """Read a family description, naming the field and member of any fault."""
    if not (
        isinstance(spec, dict)
        and isinstance(spec.get("ground"), list)
        and isinstance(spec.get("members"), list)
    ):
        raise ValueError(
            'a family file holds {"ground": [...], "members": [...]}'
        )
    ground = [str(x) for x in spec["ground"]]
    if len(set(ground)) != len(ground):
        raise ValueError("ground point names must be unique")
    pid = {g: i for i, g in enumerate(ground)}

    def points(mid: str, field: str, labels) -> int:
        if not isinstance(labels, list):
            raise ValueError(f"member {mid!r}: {field} is not a list")
        for p in labels:
            if str(p) not in pid:
                raise ValueError(
                    f"member {mid!r}: {field} names {p!r}, not a ground point"
                )
        return mask_of(pid[str(p)] for p in labels)

    members = []
    for k, m in enumerate(spec["members"]):
        if not (isinstance(m, dict) and "id" in m and "set" in m):
            raise ValueError(f"member #{k} is not an object with an id and a set")
        mid = str(m["id"])
        pts = points(mid, "set", m["set"])
        stages = None
        if "stages" in m:
            if not isinstance(m["stages"], list):
                raise ValueError(f"member {mid!r}: stages is not a list")
            stages = tuple(
                points(mid, f"stages[{i}]", st)
                for i, st in enumerate(m["stages"])
            )
        group = m.get("group", 0)
        if isinstance(group, bool) or not isinstance(group, int):
            raise ValueError(f"member {mid!r}: group {group!r} is not an integer")
        members.append(Member(mid, pts, group, stages))
    return CoverFamily(tuple(ground), tuple(members))


def dump_family(F: CoverFamily) -> dict:
    out = {"ground": list(F.ground), "members": []}
    for m in F.members:
        entry = {
            "id": m.id,
            "set": [F.ground[i] for i in iter_bits(m.points)],
            "group": m.group,
        }
        if m.stages is not None:
            entry["stages"] = [
                [F.ground[i] for i in iter_bits(w)] for w in m.stages
            ]
        out["members"].append(entry)
    return out


def load_phi_file(path: str) -> dict:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("a phi file maps member ids to lists of naturals")
    for u, v in raw.items():
        if not isinstance(v, list):
            raise ValueError(f"phi value for {u!r} is not a list")
        for x in v:
            if isinstance(x, bool) or not isinstance(x, int) or x < 0:
                raise ValueError(
                    f"phi value for {u!r} holds {x!r}, not a natural"
                )
    return {str(u): frozenset(v) for u, v in raw.items()}


def dot_hasse(L: FiniteLattice) -> str:
    """Plain Hasse-diagram emitter in dot format (covers as edges)."""
    L.materialize_rows()
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i in range(L.n):
        lines.append(f'  n{i} [label="{L.names[i]}"];')
    for i in range(L.n):
        strict = L.up_mask(i) & ~(1 << i)
        for j in iter_bits(strict):
            between = strict & L.down_mask(j) & ~(1 << j)
            if between == 0:
                lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines)
