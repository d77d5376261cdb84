import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_lattice import closure_system_lattices

from wallman import gen
from wallman.errors import (
    DegenerateLattice,
    NotDistributive,
    NotGenerating,
    PreconditionFailed,
)
from wallman.filters import enumerate_filters, is_prime, principal_filter
from wallman.lattice import atoms, attach_bottom, is_distributive, opposite
from wallman.spaces import (
    SeparationReport,
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


@given(small_lattices)
@settings(max_examples=40, deadline=None)
def test_closed_sets_of_pf_are_basic(L):
    S = build_space(L, "prime")
    assert S.closed_family() == frozenset(S.a_plus) | {S.full}


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


@given(small_lattices)
@settings(max_examples=25, deadline=None)
def test_alexander_on_random_lattices(L):
    if L.n > 16:
        return
    assert is_distributive(L)[0]
    assert alexander_check(L, range(L.n))


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


def oracle_lattices(corpus):
    """The fixtures, their opposites, attach_bottom of both, and seeded
    down-set lattices of up to 64 elements."""
    out = []
    for L in corpus.values():
        for M in (L, opposite(L)):
            out += [M, attach_bottom(M)]
    out += [gen.random_downset_lattice(1 + seed % 6, seed) for seed in range(40)]
    return out


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
