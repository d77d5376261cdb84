"""Filter enumeration and classification, with brute oracle and fast path.

Filters are bitsets of element ids.  In a finite lattice every filter is
principal, so the brute enumeration walks principal filters and tests the
requested class predicate definitionally; a genuinely exhaustive scan over
upward-closed subsets backs it up for small lattices.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Union

from .bits import bit, iter_bits, mask_of, subset, union_closure
from .errors import (
    DegenerateLattice,
    ElementInFilter,
    NonUniqueExtension,
    NotAFilter,
    NotCentered,
    NotDistributive,
    NotPrime,
    PreconditionFailed,
    TooLarge,
)
from .lattice import (
    FiniteLattice,
    atoms,
    is_distributive,
    join_irreducibles,
)

DEFAULT_EXHAUSTIVE_CAP = 18


@dataclass(frozen=True)
class FilterSet:
    """A subset of a lattice tagged with the class it was requested as."""

    lattice: FiniteLattice
    members: int
    kind: str = "unclassified"

    def element_ids(self) -> tuple:
        return tuple(iter_bits(self.members))

    def element_names(self) -> tuple:
        return tuple(self.lattice.names[i] for i in iter_bits(self.members))

    def min_element(self) -> int:
        """The generator: the meet of all members (filters are principal)."""
        L = self.lattice
        m = L.top
        for a in iter_bits(self.members):
            m = L.meet(m, a)
        return m

    def __contains__(self, a: int) -> bool:
        return bool(self.members >> a & 1)


def _members_of(S: Union[FilterSet, int, Iterable[int]]) -> int:
    if isinstance(S, FilterSet):
        return S.members
    if isinstance(S, int):
        return S
    return mask_of(S)


def exhaustive_cap() -> int:
    raw = os.environ.get("WALLMAN_MAX_BRUTE", str(DEFAULT_EXHAUSTIVE_CAP))
    if not raw.isdecimal():
        raise ValueError(
            f"WALLMAN_MAX_BRUTE must be a natural number, not {raw!r}"
        )
    return int(raw)


# ---------------------------------------------------------------------------
# definitional checks


def is_filter(L: FiniteLattice, S) -> tuple:
    """Definitional filter check; returns (flag, witness)."""
    members = _members_of(S)
    if members >> L.bottom & 1:
        return (False, ("contains-bottom", L.bottom))
    if not members >> L.top & 1:
        return (False, ("missing-top", L.top))
    ids = list(iter_bits(members))
    for a in ids:
        up = L.up_mask(a)
        if not subset(up, members):
            b = next(iter_bits(up & ~members))
            return (False, ("not-upward-closed", a, b))
    for i, a in enumerate(ids):
        for b in ids[i:]:
            m = L.meet(a, b)
            if not members >> m & 1:
                return (False, ("not-meet-closed", a, b))
    return (True, None)


def is_ideal(L: FiniteLattice, S) -> tuple:
    """Filter check in the opposite lattice, evaluated dually in place."""
    members = _members_of(S)
    if members >> L.top & 1:
        return (False, ("contains-top", L.top))
    if not members >> L.bottom & 1:
        return (False, ("missing-bottom", L.bottom))
    ids = list(iter_bits(members))
    for a in ids:
        down = L.down_mask(a)
        if not subset(down, members):
            b = next(iter_bits(down & ~members))
            return (False, ("not-downward-closed", a, b))
    for i, a in enumerate(ids):
        for b in ids[i:]:
            j = L.join(a, b)
            if not members >> j & 1:
                return (False, ("not-join-closed", a, b))
    return (True, None)


def is_centered(L: FiniteLattice, M) -> bool:
    """Every finite meet of members is nonzero.

    For a finite family this reduces to the meet of all of M: every finite
    meet lies above it, and it is one of them.
    """
    ids = list(iter_bits(_members_of(M)))
    total = L.top
    for a in ids:
        total = L.meet(total, a)
    return total != L.bottom or not ids


def generated_filter(L: FiniteLattice, M) -> FilterSet:
    """[M) = upward closure of the meet of M; errors if M is not centered."""
    if L.bottom == L.top:
        raise DegenerateLattice("filters need 0 != 1")
    ids = list(iter_bits(_members_of(M)))
    if not is_centered(L, ids):
        raise NotCentered("generating set has zero meet")
    m = L.top
    for a in ids:
        m = L.meet(m, a)
    return FilterSet(L, L.up_mask(m), kind="filter")


def principal_filter(L: FiniteLattice, a: int, kind: str = "filter") -> FilterSet:
    return FilterSet(L, L.up_mask(a), kind=kind)


def _prime_scan(L: FiniteLattice, members: int) -> tuple:
    outside = list(iter_bits(L.full_mask & ~members))
    for i, a in enumerate(outside):
        for b in outside[i:]:
            if members >> L.join(a, b) & 1:
                return (False, (a, b))
    return (True, None)


def is_prime(L: FiniteLattice, F) -> tuple:
    """a∨b in F implies a in F or b in F; returns (flag, witness pair)."""
    members = _members_of(F)
    ok, wit = is_filter(L, members)
    if not ok:
        raise NotAFilter(f"not a filter: {wit}")
    return _prime_scan(L, members)


def is_ultra(L: FiniteLattice, F) -> bool:
    """Maximality by definition: no filter strictly contains F."""
    members = _members_of(F)
    ok, wit = is_filter(L, members)
    if not ok:
        raise NotAFilter(f"not a filter: {wit}")
    return _is_maximal(L, members)


def _is_maximal(L: FiniteLattice, members: int) -> bool:
    """No proper principal filter strictly contains members; the filters
    of a finite lattice are all principal."""
    for b in range(L.n):
        if b == L.bottom:
            continue
        up = L.up_mask(b)
        if subset(members, up) and up != members:
            return False
    return True


# ---------------------------------------------------------------------------
# enumeration


def enumerate_filters(
    L: FiniteLattice, kind: str = "all", strategy: str = "brute"
) -> list:
    """List filters of a class, sorted by their minimum element id.

    brute walks principal filters and applies the definitional class
    predicate; fast uses atoms (ultra) / join-irreducibles (prime) and
    requires verified distributivity; exhaustive scans all upward-closed
    subsets (|L| capped, see WALLMAN_MAX_BRUTE).
    """
    if kind not in ("all", "prime", "ultra"):
        raise ValueError(f"unknown filter class {kind!r}")
    if L.bottom == L.top:
        raise DegenerateLattice("filters need 0 != 1")

    if strategy == "fast":
        dist, wit = is_distributive(L)
        if not dist:
            raise NotDistributive("fast path needs distributivity", witness=wit)
        if kind == "ultra":
            gens = atoms(L)
        elif kind == "prime":
            gens = join_irreducibles(L)
        else:
            gens = [a for a in range(L.n) if a != L.bottom]
        tag = "filter" if kind == "all" else kind
        return [
            FilterSet(L, L.up_mask(a), kind=tag) for a in sorted(gens)
        ]

    if strategy == "brute":
        out = []
        for a in range(L.n):
            if a == L.bottom:
                continue
            members = L.up_mask(a)
            if kind == "prime":
                if not _prime_scan(L, members)[0]:
                    continue
                tag = "prime"
            elif kind == "ultra":
                if not _is_maximal(L, members):
                    continue
                tag = "ultra"
            else:
                tag = "filter"
            out.append(FilterSet(L, members, kind=tag))
        return out

    if strategy == "exhaustive":
        cap = exhaustive_cap()
        if L.n > cap:
            raise TooLarge(
                f"exhaustive scan capped at {cap} elements (|L|={L.n})"
            )
        out = []
        upsets = union_closure(L.up_mask(a) for a in range(L.n))
        for members in sorted(upsets):
            if not is_filter(L, members)[0]:
                continue
            if kind == "prime" and not _prime_scan(L, members)[0]:
                continue
            if kind == "ultra" and not is_ultra(L, members):
                continue
            tag = "filter" if kind == "all" else kind
            out.append(FilterSet(L, members, kind=tag))
        out.sort(key=lambda f: f.min_element())
        return out

    raise ValueError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# extension and separation


def ultrafilter_extensions(L: FiniteLattice, F) -> list:
    members = _members_of(F)
    return [
        u
        for u in enumerate_filters(L, "ultra", "brute")
        if subset(members, u.members)
    ]


def unique_ultrafilter_extension(L: FiniteLattice, F) -> FilterSet:
    """The unique ultrafilter above a prime filter, via the direct formula
    p_F = {a : a∧b > 0 for all b in F}, cross-checked by enumeration.

    Raises NonUniqueExtension when the enumeration finds != 1 extensions,
    which signals that the normality hypothesis fails.
    """
    prime, wit = is_prime(L, F)
    if not prime:
        raise NotPrime(f"filter is not prime, witness {wit}")
    exts = ultrafilter_extensions(L, F)
    if len(exts) != 1:
        raise NonUniqueExtension(
            f"{len(exts)} ultrafilter extensions found", extensions=exts
        )
    members = _members_of(F)
    bot = L.bottom
    fids = list(iter_bits(members))
    formula = 0
    for a in range(L.n):
        if all(L.meet(a, b) != bot for b in fids):
            formula |= bit(a)
    if formula != exts[0].members:
        raise PreconditionFailed(
            "extension formula disagrees with the unique extension "
            "(normality hypothesis violated)",
            failed=("normal",),
        )
    return FilterSet(L, formula, kind="ultra")


def separate_by_prime(L: FiniteLattice, F, a: int) -> FilterSet:
    """A prime filter extending F and avoiding a (Stone–Birkhoff separation).

    Extends F to a filter maximal among those disjoint from the principal
    ideal of a; ties broken by smallest generator id.  The generator g is
    minimal among the m > 0 with m <= min F and m ≰ a, so it is
    join-irreducible: if g = x∨y with x, y < g, minimality puts x and y
    at 0 or below a, and then g = x or g = y, or g <= a.  In a
    distributive lattice join-irreducibles are join-prime, so ↑g is prime.
    """
    dist, wit = is_distributive(L)
    if not dist:
        raise NotDistributive("separation needs distributivity", witness=wit)
    members = _members_of(F)
    ok, fwit = is_filter(L, members)
    if not ok:
        raise NotAFilter(f"not a filter: {fwit}")
    if members >> a & 1:
        raise ElementInFilter(f"{L.names[a]} already belongs to the filter")
    m0 = FilterSet(L, members).min_element()
    cands = [
        m
        for m in range(L.n)
        if m != L.bottom and L.leq(m, m0) and not L.leq(m, a)
    ]
    minimal = [
        m
        for m in cands
        if not any(c != m and L.leq(c, m) for c in cands)
    ]
    gen = min(minimal)
    return FilterSet(L, L.up_mask(gen), kind="prime")
