"""Seeded random corpora: down-set lattices, Boolean algebras with homs,
staged T0-separating families.

All randomness flows through ``random.Random(seed)`` — the Mersenne
Twister (MT19937) as shipped with CPython — so corpora reproduce exactly
from the seed.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .bits import (
    bit,
    popcount,
    reflexive_transitive_closure,
    transpose,
    union_closure,
)
from .caps import MAX_BOOLEAN_ATOMS, MAX_FAMILY_MEMBERS, MAX_POSET_POINTS
from .covers import CoverFamily, Member, is_T0_separating
from .errors import DegenerateLattice, SizeCap
from .homs import LatticeHom
from .lattice import FiniteLattice, atoms, powerset_lattice

# groups a staged family's members are drawn into; the separating members
# random_staged_family adds go into one more group of their own
STAGED_GROUPS = 3


def random_poset(n_points: int, seed: int, edge_prob: float = 0.3):
    """Partial order on 0..n-1 as up-rows (reflexive, transitive)."""
    if not 0 <= n_points <= MAX_POSET_POINTS:
        raise SizeCap(f"poset points must be in 0..{MAX_POSET_POINTS}, got {n_points}")
    rng = random.Random(seed)
    rows = [0] * n_points
    for i in range(n_points):
        for j in range(i + 1, n_points):
            if rng.random() < edge_prob:
                rows[i] |= bit(j)
    return reflexive_transitive_closure(rows)


def downset_lattice(
    poset_up_rows, name: Optional[str] = None
) -> FiniteLattice:
    """Lattice of down-sets of a poset, in keyed mode (so distributive).

    poset_up_rows[x] = {y : x <= y}, reflexive and transitive (as
    random_poset returns it); the down-sets are the unions of down rows.
    """
    keys = sorted(
        union_closure(transpose(poset_up_rows)), key=lambda k: (popcount(k), k)
    )
    return FiniteLattice.from_keys(keys, name=name, verify=False)


def random_downset_lattice(
    n_points: int, seed: int, edge_prob: float = 0.3
) -> FiniteLattice:
    # size 0 degrades to the 1-point poset; a negative size reaches the
    # cap check of random_poset
    n_points = n_points or 1
    rows = random_poset(n_points, seed, edge_prob)
    return downset_lattice(rows, name=f"downset{n_points}s{seed}")


def boolean_algebra(k_atoms: int, name: Optional[str] = None) -> FiniteLattice:
    if not 0 <= k_atoms <= MAX_BOOLEAN_ATOMS:
        raise SizeCap(f"atom count must be in 0..{MAX_BOOLEAN_ATOMS}, got {k_atoms}")
    return powerset_lattice(k_atoms, name=name or f"B{k_atoms}")


def random_boolean_hom(
    src: FiniteLattice, tgt: FiniteLattice, seed: int
) -> LatticeHom:
    """Random homomorphism between Boolean set algebras.

    Built from a random function from target atoms to source atoms, which
    always yields a bounded lattice homomorphism.  A source with 0 = 1
    (B0) has no atom, and a hom sends its one element to both bounds, so
    it maps to B0 alone: any other target raises DegenerateLattice.
    """
    rng = random.Random(seed)
    src_atoms = atoms(src)
    tgt_atoms = atoms(tgt)
    if tgt_atoms and not src_atoms:
        raise DegenerateLattice(
            f"no homomorphism from {src.name} to {tgt.name}: the source has 0 = 1"
        )
    assign = {b: rng.choice(src_atoms) for b in tgt_atoms}
    images = []
    for a in range(src.n):
        img = tgt.bottom
        for b in tgt_atoms:
            if src.leq(assign[b], a):
                img = tgt.join(img, b)
        images.append(img)
    return LatticeHom(src, tgt, tuple(images))


def random_staged_family(n_members: int, seed: int) -> CoverFamily:
    """Staged family over a small ground set, forced T0-separating."""
    if not 1 <= n_members <= MAX_FAMILY_MEMBERS:
        raise SizeCap(f"member count must be in 1..{MAX_FAMILY_MEMBERS}, got {n_members}")
    rng = random.Random(seed)
    g = max(3, n_members // 2 + 2)
    full = bit(g) - 1
    members: List[Member] = []
    for i in range(n_members):
        pts = 0
        while not pts:
            pts = rng.getrandbits(g) & full
        stages = _random_stages(rng, pts)
        members.append(Member(f"u{i}", pts, rng.randrange(STAGED_GROUPS), stages))
    fam = CoverFamily(tuple(str(x) for x in range(g)), tuple(members))
    ok, wit = is_T0_separating(fam)
    extra = list(members)
    while not ok:
        x, _ = wit
        extra.append(
            Member(f"sep{x}", bit(x), STAGED_GROUPS, (bit(x),))
        )
        fam = CoverFamily(fam.ground, tuple(extra))
        ok, wit = is_T0_separating(fam)
    return fam


def _random_stages(rng: random.Random, pts: int) -> Tuple[int, ...]:
    n_stages = rng.randint(1, 3)
    stages = [pts]
    cur = pts
    for _ in range(n_stages - 1):
        drop = cur & rng.getrandbits(cur.bit_length() + 1)
        cur &= ~drop
        stages.append(cur)
    stages.reverse()
    while len(stages) > 1 and stages[0] == 0:
        stages.pop(0)
    return tuple(stages)
