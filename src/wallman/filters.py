"""Filter enumeration and classification, with brute oracle and fast path.

Filters are bitsets of element ids.  In a finite lattice every filter is
principal, so the brute enumeration walks the principal filters ↑c.  The
ultra and all classes test each one by definition.  The prime class is the
prime law transposed into one pass over the pairs of the lattice (see
_non_prime_generators): about n²/2 joins for all the ↑c together, where
testing each ↑c alone costs O(n³).  A genuinely exhaustive scan over
upward-closed subsets backs both up for small lattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .bits import iter_bits, mask_of, subset, union_closure
from .caps import EXHAUSTIVE_CAP
from .errors import (
    DegenerateLattice,
    ElementInFilter,
    NonUniqueExtension,
    NotAFilter,
    NotCentered,
    NotDistributive,
    NotPrime,
    TooLarge,
)
from .lattice import (
    FiniteLattice,
    _generator_ups,
    atoms,
    is_distributive,
    join_primes,
)


@dataclass(frozen=True)
class FilterSet:
    """A subset of a lattice tagged with the class it was requested as."""

    lattice: FiniteLattice
    members: int
    kind: str = "unclassified"

    def element_names(self) -> tuple:
        names = self.lattice.names
        return tuple(names[i] for i in iter_bits(self.members))

    def min_element(self) -> int:
        """The generator: the meet of all members (filters are principal)."""
        return _meet_all(self.lattice, self.members)

    def __contains__(self, a: int) -> bool:
        return bool(self.members >> a & 1)


def _meet_all(L: FiniteLattice, members: int) -> int:
    """The meet of a bitset of elements; 1 for the empty set."""
    m = L.top
    for a in iter_bits(members):
        m = L.meet(m, a)
    return m


def _members_of(S: Union[FilterSet, int, Iterable[int]]) -> int:
    if isinstance(S, FilterSet):
        return S.members
    if isinstance(S, int):
        return S
    return mask_of(S)


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
    members = _members_of(M)
    return not members or _meet_all(L, members) != L.bottom


def generated_filter(L: FiniteLattice, M) -> FilterSet:
    """[M) = upward closure of the meet of M; errors if M is not centered,
    which is read off the same meet (is_centered)."""
    if L.bottom == L.top:
        raise DegenerateLattice("filters need 0 != 1")
    m = _meet_all(L, _members_of(M))
    if m == L.bottom:
        raise NotCentered("generating set has zero meet")
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


def _non_prime_generators(L: FiniteLattice) -> int:
    """Bitset of the c whose principal filter ↑c is not prime.

    The prime law for ↑c, read through a ∈ ↑c ⟺ c ∈ ↓a: a pair (a, b)
    breaks it iff c ∈ ↓(a∨b) ∖ (↓a ∪ ↓b).  One pass over the pairs
    collects those c for every ↑c at once.  A comparable pair, or a = b,
    has a∨b ∈ {a, b} and breaks nothing, so only the incomparable pairs
    a < b (in id order) are joined: n²/2 joins at most.  The pass is the
    definition and nothing more, with no join-prime lemma, atoms or
    distributivity, so it stays an oracle for the fast path.
    """
    down = [L.down_mask(a) for a in range(L.n)]
    full = L.full_mask
    failing = 0
    for a in range(L.n):
        da = down[a]
        # the b > a (in id order) incomparable to a
        rest = full & ~(da | L.up_mask(a)) & ~((2 << a) - 1)
        for b in iter_bits(rest):
            failing |= down[L.join(a, b)] & ~(da | down[b])
    return failing


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

    - brute walks the principal filters ↑c, c ≠ 0, and decides the class
      by definition on any lattice: ultra by maximality (_is_maximal),
      prime by the one pass over pairs of _non_prime_generators, which
      names every ↑c that some pair a, b outside it joins into it.
    - fast lists ↑a for a ≠ 0 for `all` on any lattice, as brute does
      (every filter of a finite lattice is principal).  For prime and
      ultra it requires verified distributivity and reads the generators
      off the atoms (ultra) or the memoized join-primes (prime), with
      their up-rows from lattice._generator_ups, as build_space does; a
      keyed lattice needs no order rows for either class.
    - exhaustive scans all upward-closed subsets with the definitional
      filter, prime and maximality checks, for |L| <= EXHAUSTIVE_CAP.
    """
    if kind not in ("all", "prime", "ultra"):
        raise ValueError(f"unknown filter class {kind!r}")
    if L.bottom == L.top:
        raise DegenerateLattice("filters need 0 != 1")

    if strategy == "fast":
        if kind == "all":
            ups = [L.up_mask(a) for a in range(L.n) if a != L.bottom]
            return [FilterSet(L, u, kind="filter") for u in ups]
        dist, wit = is_distributive(L)
        if not dist:
            raise NotDistributive("fast path needs distributivity", witness=wit)
        gens = atoms(L) if kind == "ultra" else join_primes(L)
        return [FilterSet(L, u, kind=kind) for u in _generator_ups(L, gens)]

    if strategy == "brute":
        failing = _non_prime_generators(L) if kind == "prime" else 0
        tag = "filter" if kind == "all" else kind
        out = []
        for a in range(L.n):
            if a == L.bottom or failing >> a & 1:
                continue
            members = L.up_mask(a)
            if kind == "ultra" and not _is_maximal(L, members):
                continue
            out.append(FilterSet(L, members, kind=tag))
        return out

    if strategy == "exhaustive":
        if L.n > EXHAUSTIVE_CAP:
            raise TooLarge(
                f"exhaustive scan capped at {EXHAUSTIVE_CAP} elements (|L|={L.n})"
            )
        out = []
        upsets = union_closure(L.up_mask(a) for a in range(L.n))
        for members in sorted(upsets):
            if not is_filter(L, members)[0]:
                continue
            if kind == "prime" and not _prime_scan(L, members)[0]:
                continue
            if kind == "ultra" and not _is_maximal(L, members):
                continue
            tag = "filter" if kind == "all" else kind
            out.append(FilterSet(L, members, kind=tag))
        out.sort(key=lambda f: f.min_element())
        return out

    raise ValueError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# extension and separation


def ultrafilter_extensions(L: FiniteLattice, F) -> list:
    """The ultrafilters holding F: the ↑t for the atoms t (the argument is
    in spaces.build_space), in generator-id order as the brute
    enumeration lists them, with the ↑t from lattice._generator_ups."""
    if L.bottom == L.top:
        raise DegenerateLattice("filters need 0 != 1")
    members = _members_of(F)
    ups = _generator_ups(L, atoms(L))
    return [FilterSet(L, u, kind="ultra") for u in ups if subset(members, u)]


def unique_ultrafilter_extension(L: FiniteLattice, F) -> FilterSet:
    """The unique ultrafilter above a prime filter F; NonUniqueExtension
    when there are 0 or several, which signals that normality fails.

    It equals p_F = {a : a∧b > 0 for all b in F}, so that formula is not
    re-checked.  F = ↑g, g > 0, lies in ↑t for the atoms t <= g; say t is
    the only one.  a∧b >= a∧g for b in F, so a is in p_F iff a∧g > 0, iff
    some atom lies below a∧g, iff t <= a: p_F = ↑t.
    """
    prime, wit = is_prime(L, F)
    if not prime:
        raise NotPrime(f"filter is not prime, witness {wit}")
    exts = ultrafilter_extensions(L, F)
    if len(exts) != 1:
        raise NonUniqueExtension(
            f"{len(exts)} ultrafilter extensions found", extensions=exts
        )
    return exts[0]


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
