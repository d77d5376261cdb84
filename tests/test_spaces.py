import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_lattice import closure_system_lattices, oracle_lattices

from wallman import gen
from wallman.bits import bit, subset
from wallman.errors import (
    DegenerateLattice,
    NotDistributive,
    NotGenerating,
    PreconditionFailed,
    TooLarge,
)
from wallman.filters import enumerate_filters, is_prime, principal_filter
from wallman.lattice import (
    atoms,
    chain_lattice,
    is_boolean,
    is_distributive,
    is_normal,
    is_generating,
    join_irreducibles,
    opposite,
    powerset_lattice,
)
from wallman.spaces import (
    SeparationReport,
    SuiteReport,
    alexander_check,
    build_space,
    finite_separative_is_boolean,
    separation_axioms,
    ultrafilter_generated_by,
    theorem_suite,
)

small_lattices = st.builds(
    gen.random_downset_lattice,
    st.integers(1, 6),
    st.integers(0, 10**6),
)


def test_build_space_powerset3(powerset3):
    S = build_space(powerset3, "ultra")
    assert S.size == 3
    # discrete: every subset of points closed
    assert len(S.closed_family()) == 8


def test_build_space_chain3_prime(chain3):
    S = build_space(chain3, "prime")
    assert S.size == 2
    labels = {S.point_label(i) for i in range(S.size)}
    assert labels == {"^m", "^1"}
    closed = S.closed_family()
    m_plus = S.a_plus[chain3.id_of("m")]
    assert closed == frozenset({0, S.full, m_plus})
    # the point ^1 is not closed
    i1 = next(i for i in range(S.size) if S.point_label(i) == "^1")
    assert (1 << i1) not in closed


def test_build_space_fivepoint(fivepoint):
    S = build_space(fivepoint, "ultra")
    assert S.size == 2
    assert len(S.closed_family()) == 4  # discrete on 2 points


def test_a_minus_complements(chain3):
    S = build_space(chain3, "prime")
    for a in range(chain3.n):
        assert S.a_minus(a) == S.full & ~S.a_plus[a]


def test_separation_examples(chain3, powerset3):
    pf = separation_axioms(build_space(chain3, "prime"))
    assert pf.t0 and not pf.t1
    i, j = pf.witnesses["t1"]
    assert i != j
    ult = separation_axioms(build_space(powerset3, "ultra"))
    assert ult.t1 and ult.hausdorff


def test_suite_powerset3(powerset3):
    rep = theorem_suite(powerset3)
    assert rep.all_asserted_hold()
    assert rep.ult_equals_pf and rep.boolean


def test_suite_chain3(chain3):
    rep = theorem_suite(chain3)
    assert rep.all_asserted_hold()
    assert not rep.ult_equals_pf and not rep.boolean


def test_suite_fivepoint_regression(fivepoint):
    # documented shadow: ult(FIVEPOINT) is Hausdorff but the lattice is
    # not normal, so the converse direction is observed as false
    rep = theorem_suite(fivepoint)
    assert rep.all_asserted_hold()
    assert not rep.ult_hausdorff_implies_normal


def test_suite_needs_distributive(n5):
    with pytest.raises(NotDistributive):
        theorem_suite(n5)


@given(small_lattices)
@settings(max_examples=40, deadline=None)
def test_suite_on_random_lattices(L):
    rep = theorem_suite(L)
    assert rep.all_asserted_hold()


def ref_theorem_suite(L):
    """The suite as measured on the spaces: pf(L) and ult(L) built, their
    separation axioms read off the closures."""
    dist, wit = is_distributive(L)
    if not dist:
        raise NotDistributive("suite needs a distributive lattice", witness=wit)
    pf = build_space(L, "prime")
    ult = build_space(L, "ultra")
    pf_sep = separation_axioms(pf)
    ult_sep = separation_axioms(ult)
    boolean = is_boolean(L)
    normal, _ = is_normal(L)
    ult_eq_pf = {p.members for p in ult.points} == {
        p.members for p in pf.points
    }
    return SuiteReport(
        pf_t0=pf_sep.t0,
        pf_t1_implies_boolean=(not pf_sep.t1) or boolean,
        boolean_implies_pf_hausdorff=(not boolean) or pf_sep.hausdorff,
        closed_sets_are_basic=True,
        ult_t1=ult_sep.t1,
        normal_implies_ult_hausdorff=(not normal) or ult_sep.hausdorff,
        ult_hausdorff_implies_normal=(not ult_sep.hausdorff) or normal,
        ult_equals_pf=ult_eq_pf,
        boolean=boolean,
        ult_equals_pf_iff_boolean=ult_eq_pf == boolean,
    )


def check_suite(L):
    """theorem_suite against the measured suite: the same report, or the
    same exception type, text and witness.  Returns the report or the
    exception type."""
    try:
        ref = ref_theorem_suite(L)
    except (NotDistributive, DegenerateLattice) as exc:
        with pytest.raises(type(exc)) as got:
            theorem_suite(L)
        assert str(got.value) == str(exc)
        assert getattr(got.value, "witness", None) == getattr(exc, "witness", None)
        return type(exc)
    assert theorem_suite(L) == ref, L
    return ref


def test_suite_matches_the_measured_suite(corpus):
    """Over the fixtures, their opposites, attach_bottom of both, the
    1-element lattice and seeded keyed down-set lattices: every clause the
    construction gives is the one measured on the spaces."""
    lattices = oracle_lattices(corpus) + [chain_lattice(1)]
    lattices += [gen.random_downset_lattice(3 + seed % 6, seed) for seed in range(40)]
    seen = [check_suite(L) for L in lattices]
    reports = [r for r in seen if isinstance(r, SuiteReport)]
    assert {NotDistributive, DegenerateLattice} <= set(seen)
    assert {r.boolean for r in reports} == {True, False}
    assert {r.ult_hausdorff_implies_normal for r in reports} == {True, False}
    assert any(L.keys is not None for L in lattices)


@given(closure_system_lattices())
@settings(max_examples=150, deadline=None)
def test_suite_matches_the_measured_suite_on_closure_systems(L):
    check_suite(L)


@given(small_lattices)
@settings(max_examples=40, deadline=None)
def test_closed_sets_of_pf_are_basic(L):
    S = build_space(L, "prime")
    assert S.closed_family() == frozenset(S.a_plus) | {S.full}


def ref_closed_sets_are_basic(S):
    """The closed sets are the unions of point closures and 0⁺ = ∅, so
    they are all basic iff the full set is basic and the basic sets are
    closed under ∪ with each closure."""
    plus = set(S.a_plus)
    return S.full in plus and all(x | c in plus for x in plus for c in S.closures)


def check_closed_sets_are_basic(L):
    """The scan holds on the prime space of every lattice with 0 ≠ 1 (its
    points are join-prime, distributive or not), and theorem_suite
    reports what the scan finds."""
    if L.n == 1:
        return
    assert ref_closed_sets_are_basic(build_space(L, "prime"))
    if is_distributive(L)[0]:
        assert theorem_suite(L).closed_sets_are_basic


def test_closed_sets_are_basic_on_fixtures_and_downsets(corpus):
    for L in oracle_lattices(corpus):
        check_closed_sets_are_basic(L)


@given(st.one_of(small_lattices, closure_system_lattices()))
@settings(max_examples=150, deadline=None)
def test_closed_sets_are_basic_on_random_lattices(L):
    check_closed_sets_are_basic(L)


def test_separative_corollary_corpus(corpus):
    for L in corpus.values():
        assert finite_separative_is_boolean(L)


@given(small_lattices)
@settings(max_examples=50, deadline=None)
def test_separative_corollary_random(L):
    assert finite_separative_is_boolean(L)


def test_ultrafilter_generated_by(powerset3, fivepoint):
    P = powerset3
    all_g = list(range(P.n))
    singles = list(atoms(P))
    coatoms = [a for a in range(P.n) if P.up_mask(a).bit_count() == 2]
    for p in enumerate_filters(P, "ultra", "brute"):
        assert ultrafilter_generated_by(P, all_g, p)
        assert ultrafilter_generated_by(P, singles + coatoms, p)
    a = fivepoint.id_of("a")
    b = fivepoint.id_of("b")
    p = enumerate_filters(fivepoint, "ultra", "brute")
    p_a = next(q for q in p if q.min_element() == a)
    assert ultrafilter_generated_by(fivepoint, [a, b], p_a)


def test_ultrafilter_generated_by_needs_ultra(powerset3):
    P = powerset3
    coatom = next(a for a in range(P.n) if P.up_mask(a).bit_count() == 2)
    p = principal_filter(P, coatom)
    with pytest.raises(PreconditionFailed) as exc:
        ultrafilter_generated_by(P, range(P.n), p)
    assert exc.value.failed == ("ultra",)


def test_not_generating(powerset3):
    p = enumerate_filters(powerset3, "ultra", "brute")[0]
    with pytest.raises(NotGenerating):
        ultrafilter_generated_by(powerset3, [powerset3.bottom], p)


def test_alexander_check(corpus, fivepoint):
    P2 = corpus["powerset2"]
    assert alexander_check(P2, range(P2.n))
    assert alexander_check(P2, atoms(P2))
    g = [fivepoint.id_of(x) for x in ("a", "b", "c")]
    assert alexander_check(fivepoint, g)
    P5 = powerset_lattice(5)  # 32 elements, above the DFS's cap of 16
    assert alexander_check(P5, atoms(P5))


@given(small_lattices)
@settings(max_examples=25, deadline=None)
def test_alexander_on_random_lattices(L):
    assert is_distributive(L)[0]
    assert alexander_check(L, range(L.n))
    if L.n <= 16:
        assert ref_alexander_check(L, range(L.n))


def ref_alexander_check(L, G, cap: int = 16) -> bool:
    """The definitional DFS over centered subsets of G and of L, as
    alexander_check made it before the atom argument replaced it."""
    G = sorted(set(G))
    if not is_generating(L, G):
        raise NotGenerating("the given set does not generate the lattice")
    if len(G) > cap or L.n > cap:
        raise TooLarge("centered-subset scan beyond the cap")
    ultras = [u.members for u in build_space(L, "ultra").points]

    def every_centered_extends(universe) -> bool:
        # DFS over centered subsets, pruning on the running meet
        def rec(i: int, meet_so_far: int, chosen: int) -> bool:
            if chosen and not any(subset(chosen, u) for u in ultras):
                return False
            for j in range(i, len(universe)):
                g = universe[j]
                m = L.meet(meet_so_far, g)
                if m == L.bottom:
                    continue
                if not rec(j + 1, m, chosen | bit(g)):
                    return False
            return True

        return rec(0, L.top, 0)

    side_g = every_centered_extends(G)
    side_l = every_centered_extends(
        [a for a in range(L.n) if a != L.bottom]
    )
    return side_g == side_l


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NotGenerating, DegenerateLattice) as exc:
        return type(exc)


def test_alexander_matches_dfs_reference(corpus):
    """The atom argument against the DFS on the one-element lattice and on
    every oracle lattice of at most 16 elements and its opposite, for the
    whole lattice, its atoms, its join-irreducibles and seeded random
    subsets as G."""
    rng = random.Random(5)
    seen = set()
    small = [L for L in oracle_lattices(corpus) if L.n <= 16]
    for L in [gen.boolean_algebra(0)] + small + [opposite(L) for L in small]:
        sets = [range(L.n), atoms(L), join_irreducibles(L)]
        sets += [rng.sample(range(L.n), rng.randint(0, L.n)) for _ in range(3)]
        for G in sets:
            got = _outcome(alexander_check, L, G)
            assert got == _outcome(ref_alexander_check, L, G), (L, G)
            seen.add(got)
    assert seen == {True, NotGenerating, DegenerateLattice}


# -- closure routes against definitional references --------------------------


def ref_closed_family(S):
    """Every closed set: the basic sets a⁺ and the full set, closed under
    pairwise ∩ and ∪ until nothing new appears."""
    fam = set(S.a_plus) | {S.full}
    while True:
        new = {z for x in fam for y in fam for z in (x & y, x | y)} - fam
        if not new:
            return frozenset(fam)
        fam |= new


def ref_separation(S):
    """T0 by the basic sets, T1 by the intersection of the basic sets
    around each point, T2 by a pair of disjoint opens for each pair."""
    n = S.size
    witnesses = {}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in pairs:
        if all((m >> i & 1) == (m >> j & 1) for m in S.a_plus):
            witnesses["t0"] = (i, j)
            break
    for i in range(n):
        common = S.full
        for m in S.a_plus:
            if m >> i & 1:
                common &= m
        if common != 1 << i:
            others = [k for k in range(n) if k != i and common >> k & 1]
            witnesses["t1"] = (i, others[0])
            break
    opens = [S.full & ~c for c in ref_closed_family(S)]
    for i, j in pairs:
        if not any(
            u >> i & 1 and v >> j & 1 and u & v == 0 for u in opens for v in opens
        ):
            witnesses["hausdorff"] = (i, j)
            break
    t0, t1, t2 = (k not in witnesses for k in ("t0", "t1", "hausdorff"))
    return SeparationReport(t0, t1, t2, witnesses)


def check_space_routes(L):
    """build_space and separation_axioms against the references, both kinds."""
    if L.n == 1:
        with pytest.raises(DegenerateLattice):
            build_space(L, "prime")
        return
    for kind in ("prime", "ultra"):
        S = build_space(L, kind)
        brute = enumerate_filters(L, kind, "brute")
        assert [(p.members, p.kind) for p in S.points] == [
            (p.members, p.kind) for p in brute
        ]
        assert list(S.a_plus) == [
            sum(1 << i for i, p in enumerate(brute) if p.members >> a & 1)
            for a in range(L.n)
        ]
        assert S.closed_family() == ref_closed_family(S)
        rep, ref = separation_axioms(S), ref_separation(S)
        assert rep == ref
        assert list(rep.witnesses) == list(ref.witnesses)


def test_space_routes_on_fixtures(corpus):
    for L in corpus.values():
        check_space_routes(L)
        check_space_routes(opposite(L))


@given(closure_system_lattices())
@settings(max_examples=150, deadline=None)
def test_space_routes_on_closure_systems(L):
    check_space_routes(L)


def ref_hom_law(S):
    """a ↦ a⁺ keeps 0, 1 and every meet, by the definition pair by pair;
    returns whether it keeps every join too."""
    L = S.lattice
    assert S.a_plus[L.bottom] == 0
    assert S.a_plus[L.top] == S.full
    joins = True
    for a in range(L.n):
        for b in range(a, L.n):
            assert S.a_plus[L.meet(a, b)] == S.a_plus[a] & S.a_plus[b]
            if S.a_plus[L.join(a, b)] != S.a_plus[a] | S.a_plus[b]:
                joins = False
    return joins


def check_hom_law(L):
    """build_space's a⁺ against the definitional law, both kinds: the join
    half holds exactly where every point is prime, so always on the prime
    space."""
    if L.n == 1:
        return
    for kind in ("prime", "ultra"):
        S = build_space(L, kind)
        all_prime = all(is_prime(L, p)[0] for p in S.points)
        assert all_prime or kind == "ultra"
        assert ref_hom_law(S) == all_prime


def test_hom_law_on_fixtures_and_downsets(corpus):
    for L in oracle_lattices(corpus):
        check_hom_law(L)


@given(closure_system_lattices())
@settings(max_examples=150, deadline=None)
def test_hom_law_on_closure_systems(L):
    check_hom_law(L)
