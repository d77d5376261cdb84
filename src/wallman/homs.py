"""Lattice homomorphisms, induced continuous maps, functor laws and the
0-dimensionalization construction."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .bits import bit, iter_bits, mask_of, subset
from .errors import (
    DegenerateLattice,
    NonUniqueExtension,
    NotAHom,
    NotComposable,
    NotNormal,
    OracleDisagreement,
    PreconditionFailed,
)
from .filters import FilterSet
from .lattice import (
    FiniteLattice,
    _disjoint_masks,
    _generator_ups,
    _order_rows,
    _pullbacks,
    atoms,
    is_normal,
    is_separative,
    join_irreducibles,
    join_primes,
    powerset_lattice,
)
from .spaces import WallmanSpace, build_space


@dataclass(frozen=True)
class LatticeHom:
    """Element map between two lattices; h(0)=0, h(1)=1, preserves ∧,∨."""

    source: FiniteLattice
    target: FiniteLattice
    map: tuple  # element id of source -> element id of target

    def __call__(self, a: int) -> int:
        return self.map[a]

    @cached_property
    def law(self) -> tuple:
        """verify_hom(self), run once per hom object: a hom is frozen and
        its lattices are immutable, so the verdict cannot change."""
        return verify_hom(self)

    @cached_property
    def pullbacks(self) -> dict:
        """{g: h⁻¹(↑g)} for each join-irreducible g of the target, as
        bitsets of source elements, computed once per hom object for the
        same reason as law.  These are the columns P_g of verify_hom's
        dual check, and for the atoms g the preimages of the points of
        ult(target) (see _ult_map).  lattice._pullbacks reads them, off
        the points of a keyed target and off the down-rows of a table
        one, with one transpose of n_K rows.  A map entry that is no
        element id of the target raises NotAHom with verify_hom's
        ("range", a) witness, where indexing would wrap or fail.
        """
        wit = _range_witness(self)
        if wit is not None:
            raise NotAHom(f"not a homomorphism, witness {wit}", witness=wit)
        return _pullbacks(self.target, self.map)

    def preimage_filter(self, p) -> int:
        """Bitset h⁻¹(p) in the source, for p a filter bitset / FilterSet."""
        members = p.members if isinstance(p, FilterSet) else p
        out = 0
        for a, ha in enumerate(self.map):
            if members >> ha & 1:
                out |= bit(a)
        return out

    def kernel(self) -> tuple:
        """Elements mapped to 0."""
        z = self.target.bottom
        return tuple(a for a, ha in enumerate(self.map) if ha == z)


def identity_hom(L: FiniteLattice) -> LatticeHom:
    return LatticeHom(L, L, tuple(range(L.n)))


def compose(g: LatticeHom, h: LatticeHom) -> LatticeHom:
    """g after h; needs h.target == g.source."""
    if h.target is not g.source and h.target != g.source:
        raise NotComposable("target of h is not the source of g")
    return LatticeHom(h.source, g.target, tuple(g.map[x] for x in h.map))


def verify_hom(h: LatticeHom) -> tuple:
    """Is h a lattice homomorphism?  Returns (flag, witness): the size
    check, ("range", a) for the first a whose image is no element id of
    the target, the bottom and top checks, then the first failing pair of
    the definitional scan, ("meet", a, b) or ("join", a, b) with a < b.

    On a distributive target the law is decided through the dual
    (Birkhoff duality; Davey & Priestley, Introduction to Lattices and
    Order, 2nd ed., ch. 5).  Let L be distributive, K any finite lattice
    and f: K → L with f(0) = 0 and f(1) = 1.  Then f is a homomorphism iff
    for every join-prime j of L, P_j = f⁻¹(↑j) is a prime filter of K,
    that is ↑g for a join-prime g of K (the build_space argument).
    (⇒) ↑j is a prime filter, and the preimage of a prime filter under a
    homomorphism is one.  (⇐) f(0) = 0 < j keeps 0 out of P_j and
    f(1) = 1 puts 1 in it.  j <= f(a∧b) iff a∧b ∈ P_j iff a, b ∈ P_j
    (P_j is a filter) iff j <= f(a)∧f(b); and j <= f(a∨b) iff a ∈ P_j or
    b ∈ P_j (P_j is prime) iff j <= f(a)∨f(b) (j is join-prime).  In a
    distributive L the join-primes are the join-irreducibles and every
    element is the join of those below it, so two elements with the same
    join-primes below them are equal: f(a∧b) = f(a)∧f(b) and
    f(a∨b) = f(a)∨f(b).

    The P_j are h.pullbacks, one transpose of n_K rows, and the prime
    filters of K its generator up-rows (lattice._generator_ups), so the
    check costs O(n_K·|J(L)|) instead of the n_K²/2 pairs of the scan,
    with no meet or join and, on keyed lattices, no order rows.  The
    target is distributive iff its join-primes are its join-irreducibles,
    the route of is_distributive, read here without the witness search
    is_distributive runs on a non-distributive lattice; on a keyed
    target the two are one tuple, with no rows.  On a non-distributive
    target, and whenever the dual check fails, the pair scan runs, so the
    flag and the first witness are the scan's.
    """
    K, L, f = h.source, h.target, h.map
    if len(f) != K.n:
        return (False, ("size", len(f)))
    wit = _range_witness(h)
    if wit is not None:
        return (False, wit)
    if f[K.bottom] != L.bottom:
        return (False, ("bottom", K.bottom))
    if f[K.top] != L.top:
        return (False, ("top", K.top))
    if _dual_law_holds(h):
        return (True, None)
    for a in range(K.n):
        for b in range(a + 1, K.n):
            if f[K.meet(a, b)] != L.meet(f[a], f[b]):
                return (False, ("meet", a, b))
            if f[K.join(a, b)] != L.join(f[a], f[b]):
                return (False, ("join", a, b))
    return (True, None)


def _range_witness(h: LatticeHom) -> Optional[tuple]:
    """("range", a) for the first source element a whose image is no
    element id of the target, else None."""
    n = h.target.n
    return next((("range", a) for a, fa in enumerate(h.map) if not 0 <= fa < n), None)


def _dual_law_holds(h: LatticeHom) -> bool:
    """The dual check of verify_hom, for an h into the element ids of its
    target that keeps the bounds: True only if h is a homomorphism."""
    K, L = h.source, h.target
    if join_primes(L) != join_irreducibles(L):
        return False
    primes = set(_generator_ups(K, join_primes(K)))
    return all(col in primes for col in h.pullbacks.values())


@dataclass(frozen=True)
class SpaceMap:
    """Point map between Wallman spaces, with a continuity certificate."""

    source: WallmanSpace
    target: WallmanSpace
    point_map: tuple

    def is_continuous(self) -> bool:
        """f(cl{i}) ⊆ cl{f(i)} for every source point i.

        A map of finite spaces is continuous iff it is monotone for the
        specialization preorders.  If f is continuous, f⁻¹(cl{f(i)}) is
        closed and holds i, so it holds cl{i}.  If f is monotone and C is
        closed, f⁻¹(C) holds cl{i} with each of its points i, so it is a
        union of closures, hence closed.
        """
        f = self.point_map
        target = self.target.closures
        return all(
            target[f[i]] >> f[j] & 1
            for i, c in enumerate(self.source.closures)
            for j in iter_bits(c)
        )

    def is_surjective(self) -> bool:
        return set(self.point_map) == set(range(self.target.size))

    def is_injective(self) -> bool:
        return len(set(self.point_map)) == len(self.point_map)


def _require_hom(h: LatticeHom) -> None:
    ok, wit = h.law
    if not ok:
        raise NotAHom(f"not a homomorphism, witness {wit}", witness=wit)


def _require_normal(*sides) -> None:
    """Each (label, lattice) pair is normal, else NotNormal naming it."""
    for lab, side in sides:
        norm, wit = is_normal(side)
        if not norm:
            raise NotNormal(f"{lab} lattice not normal, witness {wit}")


def induced_map(h: LatticeHom) -> SpaceMap:
    """ult(h): ult(L) -> ult(K) for h: K -> L, sending p to the unique
    ultrafilter above the filter h⁻¹(p).  For prime p, h⁻¹(p) is prime,
    and a prime filter of a normal lattice has one ultrafilter above it,
    so both lattices are checked normal first.  The points of ult(L) are
    prime when the atoms of L are join-prime; otherwise a preimage may
    lie in several ultrafilters, and _ult_map raises
    NonUniqueExtension.  The point map is _ult_map's, and ult(L) and
    ult(K) are kept in their lattices' memos by build_space.

    The map is continuous by construction.  Distinct atoms are
    incomparable, so every closure cl{i} = {i' : tᵢ' <= tᵢ} is {i}.  A
    map of finite spaces is continuous iff it is monotone for the
    specialization preorders (see SpaceMap.is_continuous), and every
    point map out of a space whose closures are singletons is monotone.
    """
    _require_hom(h)
    _require_normal(("source", h.source), ("target", h.target))
    ult_l = build_space(h.target, "ultra")
    return SpaceMap(ult_l, build_space(h.source, "ultra"), _ult_map(h))


def _ult_map(h: LatticeHom) -> tuple:
    """The point map of ult(h) for a verified h: K -> L, or the error
    that says it is undefined.  Point i of ult(L) is ↑tᵢ for the i-th
    atom tᵢ of L (see build_space), so its preimage h⁻¹(↑tᵢ) is read off
    h.pullbacks, with no pass over K per point.  Its image is the index
    of the one atom s of K with h⁻¹(↑tᵢ) ⊆ ↑s: the ↑s are all the
    ultrafilters.  Neither lattice need be normal; a preimage with no or
    several ultrafilters above it raises NonUniqueExtension, naming the
    point ^tᵢ and the two lattices (source and target when unnamed), and
    a lattice with 0 = 1 has no filter, so an L with 0 = 1 (and with it
    any such K) raises DegenerateLattice.  The ↑s come from
    lattice._generator_ups, so no space is built.
    """
    K, L = h.source, h.target
    if L.bottom == L.top:
        raise DegenerateLattice("filters need 0 != 1")
    ups = _generator_ups(K, atoms(K))
    pull = h.pullbacks
    pm = []
    for t in atoms(L):
        exts = [i for i, u in enumerate(ups) if subset(pull[t], u)]
        if len(exts) != 1:
            raise NonUniqueExtension(
                f"{len(exts)} ultrafilter extensions found above the"
                f" preimage of ^{L.names[t]} under the hom"
                f" {K.name or 'source'} -> {L.name or 'target'}",
                extensions=[FilterSet(K, ups[i], kind="ultra") for i in exts],
            )
        pm.append(exts[0])
    return tuple(pm)


def is_separative_hom(h: LatticeHom) -> tuple:
    """h(a)∧b = 0 forces some c with a∧c = 0 and b <= h(c); returns
    (flag, first failing (a, b) of the definitional scan).

    For each a the b that fail are those disjoint from h(a) and below no
    h(c) with c disjoint from a: disj_L[h(a)] minus the union of ↓h(c)
    over c in disj_K[a].  The first failing a with its lowest such b is
    the first pair of the definitional (a, b) scan, and the union may
    stop once it covers disj_L[h(a)]; it takes the c from the highest id
    down, which on a powerset, where ids are keys, meets the largest c,
    the complement of a, first.  The disjointness masks of both lattices
    come from _disjoint_masks, with no meet, and the ↓h(c) from
    lattice._order_rows, which on a keyed target reads them off its
    points with no comparison: |h(K)|·|G| big-int ORs, where the scan
    made up to n_K²·n_L lookups.  So neither lattice is held to SIZE_CAP
    when it is keyed.
    """
    _require_hom(h)
    K, L, f = h.source, h.target, h.map
    disj_k, disj_l = _disjoint_masks(K), _disjoint_masks(L)
    ys = list(set(f))
    below = dict(zip(ys, _order_rows(L, ys, False)))
    for a in range(K.n):
        bad = disj_l[f[a]]
        rest = disj_k[a]
        while bad and rest:
            c = rest.bit_length() - 1
            bad &= ~below[f[c]]
            rest ^= 1 << c
        if bad:
            return (False, (a, (bad & -bad).bit_length() - 1))
    return (True, None)


@dataclass(frozen=True)
class SeparativityReport:
    separative: bool
    preimages_ultra: bool
    preimage_law: bool

    def all_equivalent(self) -> bool:
        return self.separative == self.preimages_ultra == self.preimage_law


def separativity_equivalence(h: LatticeHom, unchecked: bool = False) -> SeparativityReport:
    """Three-way characterization of separative homomorphisms.

    Hypotheses: both lattices normal and separative (finite scale forces
    Boolean).  With unchecked=True the three conditions are evaluated
    without asserting their equivalence.  The call to is_separative_hom
    re-reads h.law, so h is still verified once.

    The preimage h⁻¹(↑t) of each point ↑t of ult(L), t an atom, is read
    off h.pullbacks (see _ult_map), and it is an ultrafilter iff it is
    a point ↑s of ult(K), s an atom, read off lattice._generator_ups
    with no space built.

    The preimage law, {p : ult(h)(p) ∈ a⁺} = h(a)⁺ for every a of K,
    holds iff every preimage is an ultrafilter, so preimage_law is
    preimages_ultra, with no normality needed and no map built.  ult(h)
    sends ↑tᵢ to an ultrafilter Uᵢ ⊇ h⁻¹(↑tᵢ), and the law says, read at
    the point ↑tᵢ, that a ∈ Uᵢ iff h(a) ∈ ↑tᵢ iff a ∈ h⁻¹(↑tᵢ): each
    preimage is the point it maps to.  Conversely, if h⁻¹(↑tᵢ) is a
    point ↑s, then ↑s is the only ultrafilter above it, as ultrafilters
    are maximal, so ult(h) is defined and sends ↑tᵢ to h⁻¹(↑tᵢ) itself.
    As in ult(h), a target with 0 = 1 raises DegenerateLattice.
    """
    _require_hom(h)
    failed = []
    for side, lab in ((h.source, "source"), (h.target, "target")):
        if not is_normal(side)[0]:
            failed.append(f"{lab}-normal")
        if not is_separative(side)[0]:
            failed.append(f"{lab}-separative")
    if failed and not unchecked:
        raise PreconditionFailed(
            f"hypotheses fail: {', '.join(failed)}", failed=failed
        )
    K, L = h.source, h.target
    sep = is_separative_hom(h)[0]
    if L.bottom == L.top:
        raise DegenerateLattice("filters need 0 != 1")
    points_k = set(_generator_ups(K, atoms(K)))
    ultra = all(h.pullbacks[t] in points_k for t in atoms(L))
    report = SeparativityReport(sep, ultra, ultra)
    if not failed and not report.all_equivalent():
        raise OracleDisagreement("equivalence fails under hypotheses")
    return report


def functor_laws(g: LatticeHom, h: LatticeHom) -> bool:
    """ult(g∘h) = ult(h)∘ult(g) pointwise, and ult(id) = id, for
    h: K -> L and g: L -> M, once g and h are verified and K, L and M
    checked normal.

    Both laws hold by construction wherever the maps are defined, so no
    map is built and compared.  Only g and h are verified: g∘h and id_K
    are homs by construction, as h and then g preserve 0, 1, ∧ and ∨,
    and so does the identity.  For an atom r of M write ↑t = ult(g)(↑r)
    and ↑s = ult(h)(↑t), so g⁻¹(↑r) ⊆ ↑t and h⁻¹(↑t) ⊆ ↑s.  Then
    (g∘h)⁻¹(↑r) = h⁻¹(g⁻¹(↑r)) ⊆ h⁻¹(↑t) ⊆ ↑s, and ult(g∘h) sends ↑r to
    the one ultrafilter above (g∘h)⁻¹(↑r), which is ↑s.  The identity
    law: id⁻¹(↑t) = ↑t lies in ↑s iff s <= t, iff s = t for atoms, so
    ult(id) is defined and is the identity.

    ult(f) is defined when each f⁻¹(↑t) has one ultrafilter above it.
    Normality of the source gives that when the atom t is join-prime, as
    f⁻¹ of a prime filter is prime, but the atoms of a normal lattice
    need not be: the embedding 2² -> M3 onto {0, a, b, 1} leaves
    h⁻¹(↑c) = {1} inside both ultrafilters of 2².  So _ult_map checks that
    ult(g∘h), ult(g) and ult(h) are defined, in that order, raising
    NonUniqueExtension or DegenerateLattice for the first that is not,
    and builds no space.
    """
    gh = compose(g, h)
    for f in (g, h):
        _require_hom(f)
    K, L, M = h.source, h.target, g.target
    _require_normal(("source", K), ("middle", L), ("target", M))
    for f in (gh, g, h):
        _ult_map(f)
    return True


@dataclass(frozen=True)
class KernelReport:
    kernel_trivial: bool
    surjective: Optional[bool]  # None when the antecedent fails
    converse_observation: bool  # surjective and yet kernel nontrivial?


def surjectivity_from_kernel(h: LatticeHom) -> KernelReport:
    """h⁻¹(0) = {0} implies ult(h) surjective; converse only observed.
    ult(h) is read as its point map (_ult_map), onto iff it hits each of
    the points ↑s of ult(K), one per atom s, with no space built."""
    _require_hom(h)
    kernel = h.kernel()
    trivial = kernel == (h.source.bottom,)
    surj = len(set(_ult_map(h))) == len(atoms(h.source))
    if trivial:
        if not surj:
            raise OracleDisagreement("trivial kernel must give a surjection")
        return KernelReport(True, True, False)
    return KernelReport(False, surj, surj)


def image_separates(h: LatticeHom) -> bool:
    """Does the image of h separate disjoint pairs of the target lattice?

    By definition: every a, b with a∧b = 0 have some c in h(K) with
    a <= c and c∧b = 0.  With disj[y] the set of elements disjoint from
    y (_disjoint_masks), the b that the c >= a in h(K) serve make up
    the union of disj[c] over them, so the image separates iff for every
    a, disj[a] lies inside that union, which may stop once it does: at
    most n_L·|h(K)| mask ORs and no meet, where the definitional scan
    made up to n_L²·|h(K)| lookups.  The c >= a are ↑a ∩ h(K), read off
    lattice._order_rows: on a keyed target ↑a is ⋂{holds_x : x ∈
    key_a∖bottom} with no comparison, so a keyed target answers above
    SIZE_CAP.
    """
    L = h.target
    disj = _disjoint_masks(L)
    img = mask_of(h.map)
    for a, up in enumerate(_order_rows(L, range(L.n), True)):
        need = disj[a]
        for c in iter_bits(up & img):
            need &= ~disj[c]
            if not need:
                break
        if need:
            return False
    return True


@dataclass(frozen=True)
class EmbeddingReport:
    separating_image: bool
    injective: Optional[bool]


def embedding_from_separation(h: LatticeHom) -> EmbeddingReport:
    """Image separating the target implies ult(h) injective.  ult(h) is
    read as its point map (_ult_map), one entry per point ↑t of ult(L),
    t an atom, and one-to-one iff its entries differ; no space is
    built."""
    _require_hom(h)
    sep = image_separates(h)
    inj = len(set(_ult_map(h))) == len(atoms(h.target))
    if sep:
        if not inj:
            raise OracleDisagreement("separating image must give an injection")
        return EmbeddingReport(True, True)
    return EmbeddingReport(False, inj)


# ---------------------------------------------------------------------------
# 0-dimensionalization


@dataclass(frozen=True)
class AlexandrovResult:
    algebra: FiniteLattice  # Boolean algebra over the ultrafilter points
    hom: LatticeHom  # j: L -> algebra, a -> a⁺
    onto: SpaceMap  # ult(algebra) -> ult(L), surjective
    kernel: tuple  # elements a with a⁺ empty (only 0 at finite scale)


def alexandrov(L: FiniteLattice) -> AlexandrovResult:
    """Boolean algebra generated by {a⁺} inside the powerset of ult(L),
    with the induced surjection of its ultrafilter space onto ult(L).

    The points of ult(L) are the filters ↑t for the atoms t, pairwise
    incomparable, so every closure cl{i} = {i' : tᵢ' <= tᵢ} is {i}: the
    space is T1.  Points i and j lie in the same sets a⁺ iff
    cl{i} = cl{j} (i in a⁺ iff cl{i} ⊆ a⁺), so the atoms of the algebra,
    the classes of points that no a⁺ splits, are the k singletons, and
    the algebra is the powerset of the k points: the keys range(2^k),
    key {i} being 2^i.  It is Boolean by construction, each element's id
    is its key, and j: a ↦ a⁺ is the map a_plus itself.

    j preserves 0, 1 and meets, and it preserves joins iff every atom is
    join-prime (the build_space argument), so that precondition is
    checked instead of the hom law itself.

    Point i of ult(B) is the ultrafilter ↑{i} on the i-th atom of B, and
    its preimage {a : i ∈ a⁺} = {a : tᵢ <= a} = ↑tᵢ is point i of ult(L).
    So the onto map is the identity on range(k), a bijection between
    discrete spaces, continuous and surjective with no ultrafilter
    extension to chase and nothing left to check.  B is keyed, so
    build_space reads ult(B) off its k points with no order rows.
    """
    space = build_space(L, "ultra")
    k = space.size
    B = powerset_lattice(k, name=f"bool({L.name})" if L.name else "bool")
    j = LatticeHom(L, B, space.a_plus)
    if not set(atoms(L)) <= set(join_primes(L)):
        # perfbench/expected.json pins this exception type and text as the
        # outcome of `stone m3`; an explicit raise keeps it under python -O.
        wit = verify_hom(j)[1]
        raise AssertionError(f"a -> a⁺ failed the homomorphism check: {wit}")
    onto = SpaceMap(build_space(B, "ultra"), space, tuple(range(k)))
    return AlexandrovResult(B, j, onto, j.kernel())
