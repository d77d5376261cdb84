"""Finite Wallman spaces: prime-filter and ultrafilter spaces of a lattice.

Points are filters; the topology is generated by the open sets a⁻ (filters
not containing a).  A finite space is fixed by its specialization preorder
(Alexandrov 1937; Barmak, Algebraic Topology of Finite Topological Spaces,
LNM 2032, ch. 1), so a space stores the closure cl{i} of each point and
every topological verdict is read off these closures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .bits import bit, iter_bits, transpose, union_closure
from .errors import (
    DegenerateLattice,
    NotDistributive,
    NotGenerating,
    PreconditionFailed,
)
from .filters import FilterSet, generated_filter, is_ultra
from .lattice import (
    FiniteLattice,
    _generator_ups,
    atoms,
    is_boolean,
    is_distributive,
    is_generating,
    is_normal,
    is_separative,
    join_primes,
)


@dataclass(frozen=True)
class WallmanSpace:
    """Point set of filters with the closed base {a⁺ : a in L}.

    Point i is the principal filter ↑gᵢ, and cl{i} = gᵢ⁺: i is in gᵢ⁺, and
    i in a⁺ means gᵢ <= a, so gᵢ⁺ ⊆ a⁺.  The closed sets are the finite
    unions of basic sets (a⁺ ∩ b⁺ = (a∧b)⁺, ∅ = 0⁺, all points = 1⁺), so
    they are the unions of point closures.
    """

    lattice: FiniteLattice
    kind: str  # "prime" or "ultra"
    points: tuple  # FilterSet, ordered by filter-minimum id
    a_plus: tuple  # per lattice element: bitset of point indices
    closures: tuple  # per point i: bitset cl{i}

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def full(self) -> int:
        return bit(len(self.points)) - 1

    def a_minus(self, a: int) -> int:
        return self.full & ~self.a_plus[a]

    def closed_family(self) -> frozenset:
        """All closed sets: the unions of point closures."""
        return frozenset(union_closure(self.closures))

    def point_label(self, i: int) -> str:
        gen = self.points[i].min_element()
        return f"^{self.lattice.names[gen]}"


@dataclass(frozen=True)
class SeparationReport:
    t0: bool
    t1: bool
    hausdorff: bool
    witnesses: dict = field(default_factory=dict)


def build_space(L: FiniteLattice, kind: str = "ultra") -> WallmanSpace:
    """The prime-filter (kind="prime") or ultrafilter space of L.

    Every filter of a finite lattice is principal, ↑g with g > 0.  ↑g is
    prime iff g is join-prime: a, b outside ↑g with a∨b in ↑g is word for
    word a failure of join-primality of g.  ↑g is maximal among proper
    filters iff g is an atom, since ↑g ⊊ ↑b iff b < g.  Neither fact needs
    distributivity.  Points are ordered by generator id, as
    enumerate_filters(L, kind, "brute") lists them; a⁺ = {i : gᵢ <= a}.

    a ↦ a⁺ preserves the bounds and meets by construction: no gᵢ > 0 lies
    below 0, every gᵢ lies below 1, and gᵢ <= a∧b iff gᵢ <= a and gᵢ <= b
    is the definition of meet.  It preserves joins iff every gᵢ is
    join-prime, since gᵢ <= a∨b iff gᵢ <= a or gᵢ <= b says exactly that;
    so on the prime space it is a lattice homomorphism into the powerset
    of points, and on the ultrafilter space iff every atom is join-prime.

    Both kinds of generator are join-irreducible, so their up-rows come
    from lattice._generator_ups: on a keyed lattice the point ↑m_x has
    the members holds_x, with no order rows.

    Each space is built once per lattice and kind and kept in the
    lattice's memo: a lattice is immutable and a space is frozen, so the
    entries that need ult(L) or pf(L) of one lattice share one object.
    """
    if kind not in ("prime", "ultra"):
        raise ValueError(f"unknown space kind {kind!r}")
    if L.bottom == L.top:
        raise DegenerateLattice("filters need 0 != 1")

    def compute():
        gens = join_primes(L) if kind == "prime" else atoms(L)
        ups = _generator_ups(L, gens)
        points = tuple(FilterSet(L, u, kind=kind) for u in ups)
        a_plus = tuple(transpose(ups, L.n))
        closures = tuple(a_plus[g] for g in gens)
        return WallmanSpace(L, kind, points, a_plus, closures)

    return L._memo(("space", kind), compute)


def separation_axioms(S: WallmanSpace) -> SeparationReport:
    """T0/T1/T2 from the point closures.

    i in a⁺ iff cl{i} ⊆ a⁺, so two points lie in the same basic sets iff
    their closures are equal: T0 fails at the first such pair.  The
    intersection of the basic sets holding i is cl{i}, so T1 fails at the
    first i with cl{i} ≠ {i}, witnessed by its lowest other point.  Every
    open set holding i contains Uᵢ = {j : i in cl{j}}, which is open (its
    complement is a union of closures), so i and j have disjoint
    neighbourhoods iff Uᵢ ∩ Uⱼ = ∅; T2 fails at the first pair that meets.
    """
    cl = S.closures
    pairs = list(combinations(range(S.size), 2))  # lexicographic
    t0 = next(((i, j) for i, j in pairs if cl[i] == cl[j]), None)
    t1 = None
    for i, c in enumerate(cl):
        if c != bit(i):
            t1 = (i, next(iter_bits(c ^ bit(i))))
            break
    nbhd = transpose(cl)
    t2 = next(((i, j) for i, j in pairs if nbhd[i] & nbhd[j]), None)
    found = (("t0", t0), ("t1", t1), ("hausdorff", t2))
    witnesses = {k: w for k, w in found if w is not None}
    return SeparationReport(t0 is None, t1 is None, t2 is None, witnesses)


# ---------------------------------------------------------------------------
# theorem suite


@dataclass(frozen=True)
class SuiteReport:
    """Finite-scale clauses of the prime/ultrafilter space theorem.

    Each biconditional is split into separately reported implications;
    ult_hausdorff_implies_normal is observed, not asserted (FIVEPOINT is
    the documented counterexample at finite scale without separativity).
    """

    pf_t0: bool
    pf_t1_implies_boolean: bool
    boolean_implies_pf_hausdorff: bool
    closed_sets_are_basic: bool
    ult_t1: bool
    normal_implies_ult_hausdorff: bool
    ult_hausdorff_implies_normal: bool
    ult_equals_pf: bool
    boolean: bool
    ult_equals_pf_iff_boolean: bool

    def all_asserted_hold(self) -> bool:
        return (
            self.pf_t0
            and self.pf_t1_implies_boolean
            and self.boolean_implies_pf_hausdorff
            and self.closed_sets_are_basic
            and self.ult_t1
            and self.normal_implies_ult_hausdorff
            and self.ult_equals_pf_iff_boolean
        )


def theorem_suite(L: FiniteLattice) -> SuiteReport:
    """The clauses of SuiteReport on the spaces of a distributive L,
    decided by construction: no space is built and no separation axiom
    measured.  The points of pf(L) are the ↑g for the join-primes g and
    those of ult(L) the ↑t for the atoms t (see build_space), with
    cl{i} = {i' : gᵢ' <= gᵢ} (see WallmanSpace).  In a distributive L the
    join-primes are the join-irreducibles J (is_distributive), and every
    atom is one of them.

    - pf_t0: distinct generators are not both below each other, so
      distinct points have distinct closures (see separation_axioms).
    - pf_t1_implies_boolean and boolean_implies_pf_hausdorff: pf(L) is
      T1 iff every closure is a singleton, iff J is an antichain, which is
      is_boolean's criterion.  A Boolean pf(L) is discrete, so Hausdorff.
      Both implications hold.
    - closed_sets_are_basic: the closed sets of pf(L) are the unions of
      point closures, the empty union being 0⁺.  Every gᵢ is join-prime,
      so gⱼ <= a∨gᵢ iff gⱼ <= a or gⱼ <= gᵢ, that is a⁺ ∪ gᵢ⁺ = (a∨gᵢ)⁺,
      and by induction every union of closures is basic; the full set is
      1⁺.
    - ult_t1 and normal_implies_ult_hausdorff: atoms are pairwise
      incomparable, so ult(L) is discrete, T1 and Hausdorff; hence
      ult_hausdorff_implies_normal is is_normal itself.
    - ult_equals_pf: ↑x = ↑y iff x = y, so the two point sets are equal
      iff atoms(L) == join_primes(L), and as the atoms lie in J, iff every
      join-irreducible is an atom: ult_equals_pf_iff_boolean compares
      that with is_boolean.

    A lattice with 0 = 1 has no filters, so it raises DegenerateLattice,
    as build_space does, once it has been found distributive.
    """
    dist, wit = is_distributive(L)
    if not dist:
        raise NotDistributive("suite needs a distributive lattice", witness=wit)
    if L.bottom == L.top:
        raise DegenerateLattice("filters need 0 != 1")
    boolean = is_boolean(L)
    normal, _ = is_normal(L)
    ult_eq_pf = atoms(L) == join_primes(L)
    return SuiteReport(
        pf_t0=True,
        pf_t1_implies_boolean=True,
        boolean_implies_pf_hausdorff=True,
        closed_sets_are_basic=True,
        ult_t1=True,
        normal_implies_ult_hausdorff=True,
        ult_hausdorff_implies_normal=normal,
        ult_equals_pf=ult_eq_pf,
        boolean=boolean,
        ult_equals_pf_iff_boolean=ult_eq_pf == boolean,
    )


def finite_separative_is_boolean(L: FiniteLattice) -> bool:
    """separative and distributive implies Boolean (finite lattices)."""
    sep, _ = is_separative(L)
    dist, _ = is_distributive(L)
    if sep and dist:
        return is_boolean(L)
    return True


# ---------------------------------------------------------------------------
# generating sets


def ultrafilter_generated_by(L: FiniteLattice, G: Iterable[int], p) -> bool:
    """Does p ∩ G generate the ultrafilter p?  G must generate L."""
    G = list(G)
    if not is_generating(L, G):
        raise NotGenerating("the given set does not generate the lattice")
    members = p.members if isinstance(p, FilterSet) else p
    if not is_ultra(L, members):
        raise PreconditionFailed("p must be an ultrafilter", failed=("ultra",))
    trace = [g for g in G if members >> g & 1]
    return generated_filter(L, trace).members == members


def alexander_check(L: FiniteLattice, G: Iterable[int]) -> bool:
    """Subbase compactness at finite scale: every centered subset of G
    extends to an ultrafilter iff every centered subset of L does.

    Both sides hold in every finite lattice with 0 ≠ 1, so once G
    generates L the answer is True.  A centered C has a meet m > 0; L is
    finite, so some atom t ≤ m exists, and C ⊆ ↑t, an ultrafilter (the
    points of ult(L) are the ↑t, see build_space).
    """
    if not is_generating(L, G):
        raise NotGenerating("the given set does not generate the lattice")
    if L.top == L.bottom:
        raise DegenerateLattice("filters need 0 != 1")
    return True
