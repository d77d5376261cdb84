import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_lattice import closure_system_lattices
from test_spaces import oracle_lattices, ref_closed_family

from wallman import gen, homs
from wallman.errors import NotComposable, OracleDisagreement, PreconditionFailed
from wallman.filters import is_prime
from wallman.homs import (
    LatticeHom,
    SpaceMap,
    alexandrov,
    compose,
    embedding_from_separation,
    functor_laws,
    identity_hom,
    image_separates,
    induced_map,
    is_separative_hom,
    separativity_equivalence,
    surjectivity_from_kernel,
    verify_hom,
)
from wallman.lattice import is_boolean, opposite
from wallman.spaces import build_space


def hom_by_names(src, tgt, pairs):
    mapping = dict(pairs)
    return LatticeHom(
        src, tgt, tuple(tgt.id_of(mapping[nm]) for nm in src.names)
    )


@pytest.fixture(scope="module")
def quotient(corpus):
    """chain3 -> chain2 collapsing m to 0 (quotient by the filter ↑1)."""
    return hom_by_names(
        corpus["chain3"], corpus["chain2"], [("0", "0"), ("m", "0"), ("1", "1")]
    )


@pytest.fixture(scope="module")
def embedding(corpus):
    """powerset2 -> powerset3 sending {1} to {1,2}."""
    return hom_by_names(
        corpus["powerset2"],
        corpus["powerset3"],
        [("{}", "{}"), ("{0}", "{0}"), ("{1}", "{1,2}"), ("{0,1}", "{0,1,2}")],
    )


# -- verification and composition ------------------------------------------


def test_verify_hom(corpus, quotient):
    for L in corpus.values():
        assert verify_hom(identity_hom(L))[0]
    assert verify_hom(quotient)[0]
    bad = hom_by_names(
        corpus["powerset2"],
        corpus["chain3"],
        [("{}", "0"), ("{0}", "m"), ("{1}", "m"), ("{0,1}", "1")],
    )
    flag, wit = verify_hom(bad)
    assert not flag and wit[0] == "meet"


def test_compose(corpus, quotient):
    idc = identity_hom(corpus["chain3"])
    assert compose(quotient, idc).map == quotient.map
    with pytest.raises(NotComposable):
        compose(quotient, quotient)


# -- induced maps -----------------------------------------------------------


def test_induced_identity(powerset3):
    sm = induced_map(identity_hom(powerset3))
    assert sm.point_map == tuple(range(sm.source.size))
    assert sm.is_continuous()


def test_induced_quotient(corpus, quotient):
    sm = induced_map(quotient)
    # the one point of ult(chain2) lands on ^m in ult(chain3)
    assert sm.source.size == 1
    assert sm.target.point_label(sm.point_map[0]) == "^m"


def test_induced_embedding_surjects(embedding):
    sm = induced_map(embedding)
    assert sm.source.size == 3 and sm.target.size == 2
    assert sm.is_surjective()


# -- separativity -----------------------------------------------------------


def test_separative_hom_examples(corpus, quotient):
    assert is_separative_hom(identity_hom(corpus["powerset2"]))[0]
    flag, wit = is_separative_hom(quotient)
    assert not flag
    a, b = wit
    assert corpus["chain3"].names[a] == "m" and corpus["chain2"].names[b] == "1"


def test_separative_hom_random_boolean():
    for seed in range(10):
        h = gen.random_boolean_hom(
            gen.boolean_algebra(3), gen.boolean_algebra(2), seed
        )
        assert verify_hom(h)[0]
        assert is_separative_hom(h)[0]


def test_separativity_equivalence_identity(corpus):
    rep = separativity_equivalence(identity_hom(corpus["powerset2"]))
    assert rep.separative and rep.preimages_ultra and rep.preimage_law


def test_separativity_equivalence_quotient(quotient):
    with pytest.raises(PreconditionFailed) as exc:
        separativity_equivalence(quotient)
    assert any("separative" in f for f in exc.value.failed)
    rep = separativity_equivalence(quotient, unchecked=True)
    assert not rep.separative
    assert not rep.preimages_ultra  # h⁻¹(ultra) = ↑1, not maximal


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_separativity_equivalence_on_boolean_homs(j, k, seed):
    h = gen.random_boolean_hom(
        gen.boolean_algebra(j), gen.boolean_algebra(k), seed
    )
    rep = separativity_equivalence(h)
    assert rep.all_equivalent() and rep.separative


# -- functor laws and mono/epi ----------------------------------------------


def test_functor_laws_identity(powerset3):
    i = identity_hom(powerset3)
    assert functor_laws(i, i)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_functor_laws_random(j, k, l, seed):
    h = gen.random_boolean_hom(
        gen.boolean_algebra(j), gen.boolean_algebra(k), seed
    )
    g = gen.random_boolean_hom(
        gen.boolean_algebra(k), gen.boolean_algebra(l), seed + 1
    )
    assert functor_laws(g, h)


def test_surjectivity_from_kernel(corpus, quotient, embedding):
    rep = surjectivity_from_kernel(identity_hom(corpus["powerset2"]))
    assert rep.kernel_trivial and rep.surjective
    rep = surjectivity_from_kernel(quotient)
    assert not rep.kernel_trivial
    rep = surjectivity_from_kernel(embedding)
    assert rep.kernel_trivial and rep.surjective


def test_embedding_from_separation(corpus, embedding):
    rep = embedding_from_separation(identity_hom(corpus["powerset2"]))
    assert rep.separating_image and rep.injective
    assert image_separates(identity_hom(corpus["powerset3"]))
    # the {1}->{1,2} embedding cannot separate {1} from {2}
    rep = embedding_from_separation(embedding)
    assert not rep.separating_image


def test_embedding_with_separating_image(corpus):
    # full-image endomorphism: separating, hence injective on points
    P = corpus["powerset3"]
    rep = embedding_from_separation(identity_hom(P))
    assert rep.separating_image and rep.injective


# -- 0-dimensionalization ---------------------------------------------------


def test_alexandrov_boolean(powerset3):
    res = alexandrov(powerset3)
    assert res.algebra.n == powerset3.n
    assert res.onto.is_surjective() and res.onto.is_injective()


def test_alexandrov_chain3(chain3):
    res = alexandrov(chain3)
    assert res.algebra.n == 2
    assert res.onto.target.size == 1
    assert res.onto.is_surjective()


def test_alexandrov_fivepoint(fivepoint):
    res = alexandrov(fivepoint)
    assert res.algebra.n == 4
    assert res.onto.is_surjective() and res.onto.is_injective()
    assert res.kernel == (fivepoint.bottom,)


def test_alexandrov_corpus(corpus):
    from wallman.lattice import is_distributive

    for L in corpus.values():
        if not is_distributive(L)[0] or L.n == 1:
            continue
        res = alexandrov(L)
        assert is_boolean(res.algebra)
        assert res.onto.is_surjective()
        assert verify_hom(res.hom)[0]


# -- closure routes against definitional references --------------------------


def ref_continuous(sm):
    """The preimage of every basic closed set of the target is closed."""
    closed = ref_closed_family(sm.source)
    return all(
        sum(1 << i for i, fi in enumerate(sm.point_map) if m >> fi & 1) in closed
        for m in sm.target.a_plus
    )


def check_continuity(spaces, rng):
    """is_continuous against the reference on the identity, the constant
    maps and random point maps between every pair of spaces; returns the
    set of verdicts seen."""
    seen = set()
    for S in spaces:
        for T in spaces:
            if not T.size:
                continue
            maps = [
                tuple(rng.randrange(T.size) for _ in range(S.size)) for _ in range(6)
            ]
            maps += [(t,) * S.size for t in range(T.size)]
            if S is T:
                maps.append(tuple(range(S.size)))
            for pm in maps:
                sm = SpaceMap(S, T, pm)
                verdict = sm.is_continuous()
                assert verdict == ref_continuous(sm), (S.lattice, T.lattice, pm)
                seen.add(verdict)
    return seen


def test_continuity_on_fixtures(corpus):
    lattices = [M for L in corpus.values() for M in (L, opposite(L)) if M.n > 1]
    spaces = [build_space(L, kind) for L in lattices for kind in ("prime", "ultra")]
    assert check_continuity(spaces, random.Random(0)) == {True, False}


@given(st.lists(closure_system_lattices(), min_size=1, max_size=3), st.randoms())
@settings(max_examples=60, deadline=None)
def test_continuity_on_closure_systems(lattices, rng):
    spaces = [
        build_space(L, kind) for L in lattices if L.n > 1 for kind in ("prime", "ultra")
    ]
    check_continuity(spaces, rng)


def ref_algebra_keys(S):
    """{a⁺}, 0 and the full set, closed under complement, ∩ and ∪."""
    masks = set(S.a_plus) | {0, S.full}
    while True:
        new = {S.full & ~x for x in masks}
        new |= {z for x in masks for y in masks for z in (x & y, x | y)}
        if new <= masks:
            return sorted(masks)
        masks |= new


def check_alexandrov(L):
    """alexandrov's algebra against the reference, and j: a ↦ a⁺ against
    the definitional hom check; where some ultrafilter is not prime, j is
    no homomorphism and alexandrov raises, naming the first failing pair."""
    if L.n == 1:
        return
    S = build_space(L, "ultra")
    if all(is_prime(L, p)[0] for p in S.points):
        res = alexandrov(L)
        assert list(res.algebra.keys) == ref_algebra_keys(S)
        assert is_boolean(res.algebra)
        assert verify_hom(res.hom) == (True, None)
    else:
        with pytest.raises(AssertionError, match=r"check: \('join', \d+, \d+\)$"):
            alexandrov(L)


def test_alexandrov_keys_on_fixtures(corpus):
    for L in oracle_lattices(corpus):
        check_alexandrov(L)


@given(closure_system_lattices())
@settings(max_examples=100, deadline=None)
def test_alexandrov_keys_on_closure_systems(L):
    check_alexandrov(L)


# -- internal consistency checks ---------------------------------------------


def _never(*args):
    return False


@pytest.mark.parametrize("patches, call, message", [
    (
        [(homs, "is_prime", lambda K, pre: (False, "w"))],
        lambda P: homs.induced_map(identity_hom(P)),
        "preimage of an ultrafilter not prime: w",
    ),
    (
        [(SpaceMap, "is_continuous", _never)],
        lambda P: homs.induced_map(identity_hom(P)),
        "induced map failed the continuity check",
    ),
    (
        [(homs, "is_separative_hom", lambda h: (False, None))],
        lambda P: separativity_equivalence(identity_hom(P)),
        "equivalence fails under hypotheses",
    ),
    (
        [(SpaceMap, "is_surjective", _never)],
        lambda P: surjectivity_from_kernel(identity_hom(P)),
        "trivial kernel must give a surjection",
    ),
    (
        [(SpaceMap, "is_injective", _never)],
        lambda P: embedding_from_separation(identity_hom(P)),
        "separating image must give an injection",
    ),
    (
        [
            (LatticeHom, "preimage_filter", lambda h, p: 0),
            (homs, "ultrafilter_extensions", lambda L, pre: []),
        ],
        alexandrov,
        "ambiguous extension in the point chase",
    ),
    (
        [(SpaceMap, "is_continuous", _never)],
        alexandrov,
        "onto map failed the continuity check",
    ),
    (
        [(SpaceMap, "is_surjective", _never)],
        alexandrov,
        "trivial kernel must give a surjection",
    ),
])
def test_oracle_disagreement_sites(monkeypatch, corpus, patches, call, message):
    for owner, name, fake in patches:
        monkeypatch.setattr(owner, name, fake)
    with pytest.raises(OracleDisagreement, match=f"^{message}$"):
        call(corpus["powerset2"])
