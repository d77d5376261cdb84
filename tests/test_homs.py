import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_lattice import closure_system_lattices
from test_spaces import oracle_lattices, ref_closed_family

from wallman import cli, gen, homs, io, lattice, spaces
from wallman.bits import bit, mask_of, subset
from wallman.errors import (
    DegenerateLattice,
    NonUniqueExtension,
    NotAHom,
    NotComposable,
    NotNormal,
    OracleDisagreement,
    PreconditionFailed,
    WallmanError,
)
from wallman.filters import enumerate_filters, is_prime
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
from wallman.lattice import (
    SIZE_CAP,
    FiniteLattice,
    atoms,
    chain_lattice,
    is_boolean,
    is_distributive,
    join_primes,
    opposite,
    powerset_lattice,
)
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


def test_map_entry_outside_the_target_is_a_verdict(corpus):
    """An image that is no element id of the target, too large or
    negative, fails as ("range", a) for the first such a, before the
    bounds are read, on keyed and on table targets alike."""
    for P in (powerset_lattice(2), corpus["powerset2"]):
        for f, a in (
            ((0, 5, 2, 3), 1),
            ((0, -1, 2, 3), 1),
            ((0, 1, 4, -2), 2),
            ((9, 1, 2, 3), 0),
        ):
            h = LatticeHom(P, P, f)
            assert verify_hom(h) == (False, ("range", a)), (P, f)
            assert h.law == (False, ("range", a))


def test_pullbacks_refuse_an_entry_outside_the_target(corpus):
    """h.pullbacks, read before or without the law, raises NotAHom with
    the law's ("range", a) witness instead of indexing the target with
    the entry: a negative one used to wrap around, a large one to fail
    with IndexError."""
    for P in (powerset_lattice(2), corpus["powerset2"]):
        for f, a in (((0, -1, 2, 3), 1), ((0, 1, 2, 9), 3)):
            with pytest.raises(NotAHom) as exc:
                LatticeHom(P, P, f).pullbacks
            assert exc.value.witness == ("range", a), (P, f)
            assert LatticeHom(P, P, f).law == (False, ("range", a))


def ref_verify_hom(h):
    """The definitional check: the size, the bounds, then every pair."""
    K, L, f = h.source, h.target, h.map
    if len(f) != K.n:
        return (False, ("size", len(f)))
    if f[K.bottom] != L.bottom:
        return (False, ("bottom", K.bottom))
    if f[K.top] != L.top:
        return (False, ("top", K.top))
    for a in range(K.n):
        for b in range(a + 1, K.n):
            if f[K.meet(a, b)] != L.meet(f[a], f[b]):
                return (False, ("meet", a, b))
            if f[K.join(a, b)] != L.join(f[a], f[b]):
                return (False, ("join", a, b))
    return (True, None)


def mutated(h, rng):
    """h with one entry, not a bound, sent elsewhere (h itself when the
    source has no other element or the target no other image)."""
    inner = [a for a in range(h.source.n) if a not in (h.source.bottom, h.source.top)]
    if not inner or h.target.n < 2:
        return h
    a = rng.choice(inner)
    y = rng.choice([y for y in range(h.target.n) if y != h.map[a]])
    return LatticeHom(h.source, h.target, h.map[:a] + (y,) + h.map[a + 1 :])


def renamed_into(h, T):
    """h with its keyed target replaced by the table lattice T whose
    element names are the target's key names."""
    names = h.target.names
    return LatticeHom(h.source, T, tuple(T.id_of(names[y]) for y in h.map))


def monotone_chain_maps(j, k, rng, count):
    """Bounds-keeping monotone maps chain j -> chain k, homs between
    chains, each with a mutated twin."""
    out = []
    for _ in range(count):
        inner = sorted(rng.randrange(k) for _ in range(j - 2))
        h = LatticeHom(chain_lattice(j), chain_lattice(k), (0, *inner, k - 1))
        out += [h, mutated(h, rng)]
    return out


def check_dual_law(h):
    """verify_hom against the definitional scan, flag and witness.  On a
    distributive target the dual check alone must give the scan's flag
    for every map that keeps the bounds; on any other target it must
    decline, so that the scan decides."""
    ref = ref_verify_hom(h)
    assert verify_hom(h) == ref, h
    if ref[1] is None or ref[1][0] in ("meet", "join"):
        dist = is_distributive(h.target)[0]
        assert homs._dual_law_holds(h) == (dist and ref[0]), h
    return ref[0]


def test_dual_law_matches_the_scan(corpus):
    """Over 600 maps: random Boolean homs between 2^1 and 2^6, every
    other one changed at one entry; table sources (the fixtures, M3 and
    N5 among them) into keyed powersets; distributive table targets (the
    powerset fixtures, chains and opposites); and non-distributive table
    targets, where the scan decides."""
    rng = random.Random(7)
    algebras = {k: gen.boolean_algebra(k) for k in range(1, 7)}
    maps = []
    for j in range(1, 7):
        for k in range(1, 7):
            for seed in range(5):
                h = gen.random_boolean_hom(algebras[j], algebras[k], seed)
                maps.append(mutated(h, rng) if seed % 2 else h)
    tables = [M for L in corpus.values() for M in (L, opposite(L))]
    for L in tables:
        if L.n > 1:
            for h in prime_filter_homs(L, rng):
                maps += [h, mutated(h, rng)]
    for k in range(1, 5):
        T = corpus[f"powerset{k}"]
        for j in range(1, 4):
            h = gen.random_boolean_hom(algebras[j], algebras[k], j + k)
            maps += [renamed_into(h, T), renamed_into(mutated(h, rng), T)]
    for j, k in ((3, 3), (4, 2), (5, 7), (6, 6)):
        maps += monotone_chain_maps(j, k, rng, 5)
    for L in tables:
        maps += [identity_hom(L), mutated(identity_hom(L), rng)]
    for name in ("m3", "n5"):
        T = corpus[name]
        for K in (chain_lattice(2), chain_lattice(3), corpus["powerset2"], T):
            for _ in range(4):
                inner = tuple(rng.randrange(T.n) for _ in range(K.n))
                f = tuple(
                    T.bottom if a == K.bottom else T.top if a == K.top else y
                    for a, y in enumerate(inner)
                )
                maps.append(LatticeHom(K, T, f))
    # keyed lattices whose bottom key is not empty: every key gets an
    # extra point 0, so the points of bottom must stay out of the columns
    lifted = {
        k: FiniteLattice.from_keys([key << 1 | 1 for key in B.keys])
        for k, B in algebras.items()
    }
    for j, k in ((2, 3), (3, 2), (4, 4), (1, 5)):
        for seed in range(4):
            h = gen.random_boolean_hom(algebras[j], algebras[k], seed)
            for K, L in ((lifted[j], algebras[k]), (algebras[j], lifted[k])):
                g = LatticeHom(K, L, h.map)
                maps += [g, mutated(g, rng)]
    assert len(maps) >= 600
    flags = [check_dual_law(h) for h in maps]
    assert set(flags) == {True, False}
    non_dist = [h for h in maps if not is_distributive(h.target)[0]]
    assert {ref_verify_hom(h)[0] for h in non_dist} == {True, False}


def test_keyed_hom_verified_without_lookups(monkeypatch):
    """A hom onto a keyed target is verified with no meet or join; the
    scan runs once the dual check fails, as on a map with one wrong
    entry."""
    h = gen.random_boolean_hom(gen.boolean_algebra(5), gen.boolean_algebra(4), 3)
    calls = []
    for name in ("meet", "join"):
        orig = getattr(FiniteLattice, name)
        monkeypatch.setattr(
            FiniteLattice,
            name,
            lambda self, a, b, orig=orig: calls.append(1) or orig(self, a, b),
        )
    assert verify_hom(h) == (True, None)
    assert not calls
    bad = mutated(h, random.Random(0))
    assert verify_hom(bad)[0] is False
    assert calls


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


def brute_extensions(K, pre):
    """The ultrafilters of K holding pre, from the definitional scan."""
    brute = enumerate_filters(K, "ultra", "brute")
    return [u.members for u in brute if subset(pre, u.members)]


def check_induced_map(h):
    """_ult_map, the point map of induced_map without its normality
    check, against the definitions.  The preimage of a prime point is
    prime (the ultrafilters of a non-distributive lattice need not be,
    and then neither need their preimages be), each point goes to the
    single brute-force ultrafilter extension of its preimage, and the
    map is continuous between the spaces build_space gives; where some
    preimage has none or several extensions, _ult_map raises
    NonUniqueExtension.  Returns whether the map was defined."""
    K, L = h.source, h.target
    ult_l = build_space(L, "ultra")
    exts = []
    for p in ult_l.points:
        pre = h.preimage_filter(p)
        if is_prime(L, p)[0]:
            assert is_prime(K, pre)[0]
        exts.append(brute_extensions(K, pre))
    if any(len(e) != 1 for e in exts):
        with pytest.raises(NonUniqueExtension):
            homs._ult_map(h)
        return False
    sm = SpaceMap(ult_l, build_space(K, "ultra"), homs._ult_map(h))
    assert [sm.target.points[i].members for i in sm.point_map] == [
        e[0] for e in exts
    ]
    assert sm.is_continuous()
    return True


def random_boolean_homs():
    return [
        gen.random_boolean_hom(
            gen.boolean_algebra(j), gen.boolean_algebra(k), seed
        )
        for j in range(1, 4)
        for k in range(1, 4)
        for seed in range(3)
    ]


def test_induced_map_matches_brute_extensions(corpus, quotient, embedding):
    rng = random.Random(0)
    lattices = [L for L in corpus.values() if L.n > 1]
    homs_ = [quotient, embedding] + [identity_hom(L) for L in lattices]
    homs_ += [h for L in lattices for h in prime_filter_homs(L, rng)]
    homs_ += random_boolean_homs()
    # a one-element target has no points to map
    defined = {check_induced_map(h) for h in homs_ if h.target.n > 1}
    assert defined == {True, False}


@given(closure_system_lattices(), st.randoms())
@settings(max_examples=60, deadline=None)
def test_induced_map_matches_brute_extensions_on_closure_systems(L, rng):
    for h in prime_filter_homs(L, rng):
        if h.target.n > 1:
            check_induced_map(h)


def test_induced_map_on_m3(m3):
    """The ultrafilters ↑t of M3 are not prime, yet each is the one point
    above itself, so ult(id) is the identity and the preimage law holds."""
    assert not any(is_prime(m3, p)[0] for p in build_space(m3, "ultra").points)
    sm = induced_map(identity_hom(m3))
    assert sm.point_map == (0, 1, 2)
    rep = separativity_equivalence(identity_hom(m3))
    assert rep.separative and rep.preimages_ultra and rep.preimage_law


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


def ref_is_separative_hom(h):
    """First (a, b) with h(a)∧b = 0 and no c, a∧c = 0, with b <= h(c)."""
    K, L = h.source, h.target
    for a in range(K.n):
        for b in range(L.n):
            if L.meet(h(a), b) != L.bottom:
                continue
            if not any(
                K.meet(a, c) == K.bottom and L.leq(b, h(c)) for c in range(K.n)
            ):
                return (False, (a, b))
    return (True, None)


def prime_filter_homs(L, rng):
    """Homs L -> 2^k, a ↦ {i : jᵢ <= a}, for lists of join-primes jᵢ: each
    ↑jᵢ is a prime filter, so each coordinate is a hom onto 2.  The lists
    are every single join-prime, every pair in both orders, all of them,
    and a few random ones."""
    primes = list(join_primes(L))
    lists = [[j] for j in primes]
    lists += [[i, j] for i in primes for j in primes if i != j]
    lists.append(primes)
    for _ in range(3):
        lists.append(rng.sample(primes, rng.randint(0, len(primes))))
    for gens in lists:
        B = powerset_lattice(len(gens))  # element id = key
        image = [
            mask_of(i for i, j in enumerate(gens) if L.leq(j, a)) for a in range(L.n)
        ]
        yield LatticeHom(L, B, tuple(image))


def check_separative_hom(h):
    verdict = is_separative_hom(h)
    assert verdict == ref_is_separative_hom(h)
    return verdict[0]


def test_separative_hom_matches_reference(corpus, quotient, embedding):
    rng = random.Random(0)
    homs_ = [quotient, embedding] + [
        h for L in oracle_lattices(corpus) for h in prime_filter_homs(L, rng)
    ]
    homs_ += random_boolean_homs()
    assert {check_separative_hom(h) for h in homs_} == {True, False}


def test_separative_hom_target_above_size_cap(corpus):
    """The hom test reads the target at the images only, so a keyed target
    above SIZE_CAP needs no order rows: chain3 -> 2 -> 2^13."""
    P = powerset_lattice(13)
    assert P.n > SIZE_CAP
    top = P.names[P.top]
    h = hom_by_names(corpus["chain3"], P, [("0", "{}"), ("m", "{}"), ("1", top)])
    assert check_separative_hom(h) is False
    assert is_separative_hom(h) == (False, (1, 1))


def test_separative_hom_above_size_cap_makes_no_lookup(monkeypatch):
    """The identity of 2^13, law included, is decided with no meet, join
    or leq call: the law through the dual check, the ↓y off the points."""
    calls = []
    for name in ("meet", "join", "leq"):
        orig = getattr(FiniteLattice, name)
        monkeypatch.setattr(
            FiniteLattice,
            name,
            lambda self, a, b, orig=orig: calls.append(1) or orig(self, a, b),
        )
    P = powerset_lattice(13)
    assert is_separative_hom(identity_hom(P)) == (True, None)
    assert calls == []


@given(closure_system_lattices(), st.randoms())
@settings(max_examples=100, deadline=None)
def test_separative_hom_matches_reference_on_closure_systems(L, rng):
    for h in prime_filter_homs(L, rng):
        check_separative_hom(h)


def ref_induced(h):
    """_induced as it stood before it took its point map from _ult_map,
    verbatim but for the error text, which names the point and the two
    lattices as _ult_map's does: the extensions are read off the points
    of ult(K)."""
    ult_l = build_space(h.target, "ultra")
    ult_k = build_space(h.source, "ultra")
    pull = h.pullbacks
    pm = []
    for t in atoms(h.target):
        pre = pull[t]
        exts = [
            i for i, u in enumerate(ult_k.points) if subset(pre, u.members)
        ]
        if len(exts) != 1:
            raise NonUniqueExtension(
                f"{len(exts)} ultrafilter extensions found above the"
                f" preimage of {ult_l.point_label(len(pm))} under the hom"
                f" {h.source.name or 'source'} -> {h.target.name or 'target'}",
                extensions=[ult_k.points[i] for i in exts],
            )
        pm.append(exts[0])
    return SpaceMap(ult_l, ult_k, tuple(pm))


def ref_preimage_law(h):
    """The preimage law measured on the induced map, as
    separativity_equivalence measured it before it read the law off
    preimages_ultra, verbatim: {p : ult(h)(p) ∈ a⁺} = h(a)⁺ for every
    a, false where ult(h) is undefined."""
    K = h.source
    ult_k = build_space(K, "ultra")
    try:
        sm = ref_induced(h)
    except NonUniqueExtension:
        law = False
    else:
        law = True
        for a in range(K.n):
            target_mask = ult_k.a_plus[a]
            pre = 0
            for i, fi in enumerate(sm.point_map):
                if target_mask >> fi & 1:
                    pre |= bit(i)
            if pre != sm.source.a_plus[h(a)]:
                law = False
                break
    return law


def test_separativity_report_matches_the_definitions(corpus, quotient, embedding):
    """The three fields, read off the cached columns, against the
    definitional scan, the brute-force ultrafilters and preimages, and
    the preimage law measured on the induced map (ref_preimage_law), with
    the hypotheses unchecked: identity homs of the fixtures (ult(L) then
    has fewer points than L has join-irreducibles), prime-filter homs,
    Boolean homs and the embedding of 2² into M3, whose ult is
    undefined."""
    rng = random.Random(3)
    lattices = [L for L in oracle_lattices(corpus) if L.n > 1]
    homs_ = [quotient, embedding] + random_boolean_homs()
    homs_ += [identity_hom(L) for L in lattices]
    homs_ += [h for L in lattices[:20] for h in prime_filter_homs(L, rng)]
    homs_.append(m3_embedding(corpus["m3"]))
    seen = set()
    for h in homs_:
        if h.target.n == 1:
            continue
        rep = separativity_equivalence(h, unchecked=True)
        ult_k = {u.members for u in enumerate_filters(h.source, "ultra", "brute")}
        preimages_ultra = all(
            h.preimage_filter(p) in ult_k
            for p in enumerate_filters(h.target, "ultra", "brute")
        )
        assert rep.separative == ref_is_separative_hom(h)[0], h
        assert rep.preimages_ultra == preimages_ultra, h
        assert rep.preimage_law == ref_preimage_law(h) == preimages_ultra, h
        seen.add(preimages_ultra)
    assert seen == {True, False}


def m3_embedding(m3):
    """2² onto {0, a, b, 1} in M3: a hom between normal lattices whose
    ult is undefined, as h⁻¹(↑c) = {1} lies in both ultrafilters of 2²."""
    return hom_by_names(
        powerset_lattice(2),
        m3,
        [("{}", "0"), ("{0}", "a"), ("{1}", "b"), ("{0,1}", "1")],
    )


def test_a_target_with_0_equal_1_has_no_space(corpus):
    """A hom onto the one-element lattice is valid, but ult of that
    lattice is undefined, so the entries that read it raise
    DegenerateLattice, with the hypotheses checked or not."""
    one = chain_lattice(1)
    for L in (corpus["powerset2"], powerset_lattice(3), one):
        h = LatticeHom(L, one, (one.bottom,) * L.n)
        assert h.law == (True, None)
        for unchecked in (False, True):
            with pytest.raises(DegenerateLattice):
                separativity_equivalence(h, unchecked)
        with pytest.raises(DegenerateLattice):
            functor_laws(identity_hom(one), h)
        with pytest.raises(DegenerateLattice):
            ref_functor_laws(identity_hom(one), h)


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


def ref_functor_laws(g, h):
    """functor_laws as it stood before it decided the laws by
    construction, verbatim, with _induced replaced by its verbatim copy
    ref_induced: the four induced maps built and compared pointwise."""
    gh = compose(g, h)
    for f in (g, h):
        homs._require_hom(f)
    K, L, M = h.source, h.target, g.target
    homs._require_normal(("source", K), ("middle", L), ("target", M))
    m_gh = ref_induced(gh)
    m_g = ref_induced(LatticeHom(L, M, g.map))
    m_h = ref_induced(h)
    composed = tuple(m_h.point_map[i] for i in m_g.point_map)
    idm = ref_induced(identity_hom(K))
    id_ok = idm.point_map == tuple(range(idm.target.size))
    return m_gh.point_map == composed and id_ok


def outcome(fn, *args):
    """fn(*args), or the type and text of the package error it raised."""
    try:
        return fn(*args)
    except WallmanError as exc:
        return (type(exc).__name__, str(exc))


def test_functor_laws_match_the_pointwise_check(corpus):
    """functor_laws, with no map built, gives ref_functor_laws' value or
    error on 512 Boolean pairs B_j -> B_k -> B_l (j, k, l in 1..4) and on
    the corpus: each fixture's identity twice, each prime-filter hom
    followed by a Boolean hom, and the embedding 2² -> M3 before M3's
    identity and after 2²'s, where ult is undefined although all three
    lattices are normal."""
    rng = random.Random(5)
    algebras = {k: gen.boolean_algebra(k) for k in range(1, 5)}
    pairs = []
    for j in range(1, 5):
        for k in range(1, 5):
            for l in range(1, 5):
                for seed in range(8):
                    h = gen.random_boolean_hom(algebras[j], algebras[k], seed)
                    g = gen.random_boolean_hom(algebras[k], algebras[l], seed + 1)
                    pairs.append((g, h))
    for L in corpus.values():
        pairs.append((identity_hom(L), identity_hom(L)))
        for h in prime_filter_homs(L, rng):
            k = len(atoms(h.target))
            if k:
                g = gen.random_boolean_hom(h.target, algebras[rng.randint(1, 4)], k)
                pairs.append((g, h))
    emb = m3_embedding(corpus["m3"])
    pairs += [(identity_hom(corpus["m3"]), emb), (emb, identity_hom(emb.source))]
    assert len(pairs) >= 500
    seen = set()
    for g, h in pairs:
        got = outcome(functor_laws, g, h)
        assert got == outcome(ref_functor_laws, g, h), (g, h)
        seen.add(got if got is True else got[0])
    assert seen == {True, "NotNormal", "NonUniqueExtension"}


def test_not_normal_names_the_lattice(corpus):
    """induced_map names its source, and functor_laws its source, middle
    and target in turn, each with is_normal's witness: fivepoint is not
    normal, and the 2-chain, the powersets and the homs between them
    are."""
    fp = corpus["fivepoint"]
    wit = lattice.is_normal(fp)[1]
    assert wit is not None
    with pytest.raises(NotNormal) as exc:
        induced_map(identity_hom(fp))
    assert str(exc.value) == f"source lattice not normal, witness {wit}"
    two = chain_lattice(2)
    up = LatticeHom(two, fp, tuple(fp.top if a == two.top else fp.bottom for a in range(2)))
    down = next(prime_filter_homs(fp, random.Random(0)))
    for label, g, h in (
        ("source", identity_hom(down.target), down),
        ("middle", down, up),
        ("target", up, identity_hom(two)),
    ):
        with pytest.raises(NotNormal) as exc:
            functor_laws(g, h)
        assert str(exc.value) == f"{label} lattice not normal, witness {wit}"


def test_each_hom_verified_once(monkeypatch, tmp_path, capsys):
    """A hom object is verified once however many public entries it goes
    through, since each reads the verdict cached in h.law: the five
    one-hom entries and then functor_laws(g, h) verify h once and g once.
    Together they construct ult(K) and ult(L) once each; functor_laws
    builds no space, so ult(M) is never built.  `wallman hom` verifies its hom once whatever the flags, and --laws
    its second hom once more."""
    B = [gen.boolean_algebra(k) for k in (3, 2, 2)]
    h = gen.random_boolean_hom(B[0], B[1], 1)
    g = gen.random_boolean_hom(B[1], B[2], 2)
    verified, built = [], []
    verify, space = homs.verify_hom, spaces.WallmanSpace
    monkeypatch.setattr(homs, "verify_hom", lambda f: verified.append(f) or verify(f))
    monkeypatch.setattr(
        spaces, "WallmanSpace", lambda L, *rest: built.append(L) or space(L, *rest)
    )
    for entry in (
        induced_map,
        is_separative_hom,
        separativity_equivalence,
        surjectivity_from_kernel,
        embedding_from_separation,
    ):
        entry(h)
    assert verified == [h]
    assert functor_laws(g, h)
    assert verified == [h, g]
    assert len(built) == 2
    assert {id(L) for L in built} == {id(h.source), id(h.target)}

    names = ["{}", "{0}", "{1}", "{0,1}"]
    path = tmp_path / "id.json"
    path.write_text(json.dumps({
        "source": "powerset2",
        "target": "powerset2",
        "map": [[nm, nm] for nm in names],
    }))
    for flags, count in (
        ([], 1),
        (["--induced"], 1),
        (["--separative"], 1),
        (["--equivalence"], 1),
        (["--equivalence", "--unchecked"], 1),
        (["--laws", str(path)], 2),
        (["--induced", "--separative", "--equivalence", "--laws", str(path)], 2),
    ):
        verified.clear()
        assert cli.main(["hom", str(path), *flags]) == 0, flags
        capsys.readouterr()
        assert len(verified) == count, flags


def test_each_space_built_once_per_lattice(monkeypatch, tmp_path, capsys):
    """build_space keeps each space in its lattice's memo.  `wallman hom`
    with --induced, --separative, --equivalence and --laws on the
    identity of powerset2 asks for ult(·) 2 times over 2 lattice objects
    (both from induced_map, never from separativity_equivalence or
    functor_laws) and builds each of the 2 spaces once."""
    calls, built = [], []
    build, space = homs.build_space, spaces.WallmanSpace
    monkeypatch.setattr(
        homs, "build_space", lambda L, kind: calls.append(L) or build(L, kind)
    )
    monkeypatch.setattr(
        spaces, "WallmanSpace", lambda L, *rest: built.append(L) or space(L, *rest)
    )
    names = ["{}", "{0}", "{1}", "{0,1}"]
    path = tmp_path / "id.json"
    path.write_text(json.dumps({
        "source": "powerset2",
        "target": "powerset2",
        "map": [[nm, nm] for nm in names],
    }))
    flags = ["--induced", "--separative", "--equivalence", "--laws", str(path)]
    assert cli.main(["hom", str(path), *flags]) == 0
    capsys.readouterr()
    assert len(calls) == 2
    assert len(built) == 2
    assert {id(L) for L in built} == {id(L) for L in calls}

    L = gen.boolean_algebra(2)
    assert build_space(L, "ultra") is build_space(L, "ultra")
    assert build_space(L, "prime") is not build_space(L, "ultra")
    assert build_space(L, "prime").kind == "prime"


def test_functor_laws_names_the_bad_input(powerset3):
    i = identity_hom(powerset3)
    bad = LatticeHom(powerset3, powerset3, (powerset3.bottom,) * powerset3.n)
    for g, h in ((bad, i), (i, bad)):
        with pytest.raises(NotAHom) as exc:
            functor_laws(g, h)
        assert exc.value.witness == verify_hom(bad)[1] == ("top", powerset3.top)


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


def ref_image_separates(h):
    """Definitional scan: every disjoint pair (a, b) of the target has
    some c in the image with a <= c and c ∧ b = 0."""
    L = h.target
    img = sorted(set(h.map))
    for a in range(L.n):
        for b in range(L.n):
            if L.meet(a, b) != L.bottom:
                continue
            if not any(
                L.leq(a, c) and L.meet(c, b) == L.bottom for c in img
            ):
                return False
    return True


def test_image_separates_matches_reference(corpus, quotient, embedding):
    """Boolean homs, prime-filter homs into powersets, and the bounds-only
    homs 2 -> L, whose image separates iff no two nonzero elements of L
    are disjoint."""
    rng = random.Random(2)
    lattices = oracle_lattices(corpus)
    homs_ = [quotient, embedding] + random_boolean_homs()
    homs_ += [h for L in lattices if L.n > 1 for h in prime_filter_homs(L, rng)]
    two = chain_lattice(2)
    homs_ += [LatticeHom(two, L, (L.bottom, L.top)) for L in lattices]
    homs_ += [identity_hom(L) for L in lattices]
    seen = set()
    for h in homs_:
        verdict = image_separates(h)
        assert verdict == ref_image_separates(h), h
        seen.add(verdict)
    assert seen == {True, False}


def test_image_separates_above_size_cap(monkeypatch):
    """A keyed target reads ↑a off its points, so it answers above
    SIZE_CAP: on a Boolean target the image separates iff h is onto
    (see the next test), so the identity of 2^13 separates and the
    bounds-only hom 2 -> 2^13 does not.  Only up-rows are asked for, one
    element at a time."""
    sides = []
    rows = homs._order_rows

    def spy(L, ids, up):
        sides.append(up)
        return rows(L, ids, up)

    monkeypatch.setattr(homs, "_order_rows", spy)
    P = powerset_lattice(13)
    assert P.n > SIZE_CAP
    assert image_separates(identity_hom(P)) is True
    bounds = LatticeHom(chain_lattice(2), P, (P.bottom, P.top))
    assert image_separates(bounds) is False
    assert sides == [True, True]


def test_image_separates_iff_onto_on_boolean_targets():
    """On a Boolean target the image of h separates iff h is onto.  Onto
    is enough, as then every c is in the image.  Conversely, take an atom
    t and its complement t'.  The image must hold some c >= t with
    c ∧ t' = 0, and c <= t'' = t, so c = t: every atom is in the image,
    and a sublattice holding every atom holds every join of atoms, which
    is every element."""
    seen = set()
    for h in random_boolean_homs():
        onto = set(h.map) == set(range(h.target.n))
        assert image_separates(h) == onto, h
        seen.add(onto)
    assert seen == {True, False}


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


def test_ult_of_the_algebra_matches_build_space():
    """For B = 2^k, k = 1…10, the ult(B) of alexandrov is the space
    build_space makes on a fresh 2^k, point for point, and it sits in B's
    memo."""
    for k in range(1, 11):
        S = build_space(powerset_lattice(k), "ultra")
        res = alexandrov(powerset_lattice(k))
        T = res.onto.source
        assert T is build_space(res.algebra, "ultra")
        assert T.kind == S.kind == "ultra"
        assert [p.members for p in T.points] == [p.members for p in S.points]
        assert {p.kind for p in T.points} == {"ultra"}
        assert T.a_plus == S.a_plus
        assert T.closures == S.closures


def test_non_distributive_target_runs_no_witness_search(corpus, monkeypatch):
    """verify_hom into a non-distributive table lattice declines the dual
    check on the join-prime route alone, with no distributivity witness
    search, and the pair scan decides."""
    scans = []
    monkeypatch.setattr(
        lattice, "_distributivity_scan", lambda L: scans.append(L)
    )
    for name in ("m3", "n5"):
        L = opposite(corpus[name])  # a fresh object, its memo empty
        assert verify_hom(identity_hom(L)) == (True, None)
    assert scans == []


def test_stone_m3_message(m3):
    """The known defect pinned by the benchmark: alexandrov on M3 ends in
    this AssertionError, witness and text unchanged."""
    with pytest.raises(AssertionError) as exc:
        alexandrov(m3)
    assert str(exc.value) == (
        "a -> a⁺ failed the homomorphism check: ('join', 1, 2)"
    )
    with pytest.raises(AssertionError) as exc:
        cli.main(["stone", "m3"])
    assert str(exc.value) == (
        "a -> a⁺ failed the homomorphism check: ('join', 1, 2)"
    )


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


def check_point_chase(L, S, res):
    """Every preimage j⁻¹(p) of an ultrafilter of B is already a point of
    ult(L): its only ultrafilter extension is itself, so the chase through
    the brute-force extensions lands on the point the lookup returns."""
    index = {u.members: i for i, u in enumerate(S.points)}
    ult_b = build_space(res.algebra, "ultra")
    for k, p in enumerate(ult_b.points):
        pre = res.hom.preimage_filter(p)
        assert pre in index
        assert brute_extensions(L, pre) == [pre]
        assert res.onto.point_map[k] == index[pre]


def check_alexandrov(L):
    """alexandrov's algebra against the reference, j: a ↦ a⁺ against the
    definitional hom check, and the onto map, which alexandrov builds as
    the identity, against the definitional continuity and surjectivity
    checks; where some ultrafilter is not prime, j is no homomorphism and
    alexandrov raises, naming the first failing pair."""
    if L.n == 1:
        return
    S = build_space(L, "ultra")
    if all(is_prime(L, p)[0] for p in S.points):
        res = alexandrov(L)
        assert list(res.algebra.keys) == ref_algebra_keys(S)
        assert is_boolean(res.algebra)
        assert verify_hom(res.hom) == (True, None)
        assert res.onto.point_map == tuple(range(S.size))
        assert ref_continuous(res.onto)
        assert set(res.onto.point_map) == set(range(res.onto.target.size))
        assert res.kernel == (L.bottom,)
        check_point_chase(L, S, res)
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


def ref_stone_fields(res):
    """The fields of `wallman stone` that hold by construction, measured
    on alexandrov's result."""
    return {
        "algebra_boolean": is_boolean(res.algebra),
        "onto": res.onto.is_surjective(),
        "continuous": res.onto.is_continuous(),
    }


def test_stone_fields_match_the_measurement(corpus, tmp_path, capsys):
    """`wallman stone` reports the three fields as constants; on every
    fixture but m3 (whose alexandrov raises) and on seeded down-set
    lattices the measurement agrees, and the exit code is 0."""
    jobs = [(name, L) for name, L in corpus.items() if name != "m3"]
    for seed in range(30):
        L = gen.random_downset_lattice(1 + seed % 6, seed)
        path = tmp_path / f"downset{seed}.json"
        path.write_text(json.dumps(io.dump_lattice(L)))
        jobs.append((str(path), L))
    for ref, L in jobs:
        assert cli.main(["stone", ref]) == 0, ref
        rep = json.loads(capsys.readouterr().out)
        fields = ref_stone_fields(alexandrov(L))
        assert fields == dict.fromkeys(fields, True), ref
        assert {k: rep[k] for k in fields} == fields, ref


# -- internal consistency checks ---------------------------------------------


def _constant_map(h):
    return (0,) * len(atoms(h.target))


# Explicit ids keep each case's name stable across versions of the list;
# cases 0 and 1 checked the continuity of induced maps, which now holds by
# construction (see homs.induced_map).  Cases 3 and 4 replace the point
# map of ult(h) by a constant one, neither onto nor one-to-one on the two
# points of ult(powerset2).
@pytest.mark.parametrize("patches, call, message", [
    pytest.param(
        [(homs, "is_separative_hom", lambda h: (False, None))],
        lambda P: separativity_equivalence(identity_hom(P)),
        "equivalence fails under hypotheses",
        id="patches2-<lambda>-equivalence fails under hypotheses",
    ),
    pytest.param(
        [(homs, "_ult_map", _constant_map)],
        lambda P: surjectivity_from_kernel(identity_hom(P)),
        "trivial kernel must give a surjection",
        id="patches3-<lambda>-trivial kernel must give a surjection",
    ),
    pytest.param(
        [(homs, "_ult_map", _constant_map)],
        lambda P: embedding_from_separation(identity_hom(P)),
        "separating image must give an injection",
        id="patches4-<lambda>-separating image must give an injection",
    ),
])
def test_oracle_disagreement_sites(monkeypatch, corpus, patches, call, message):
    for owner, name, fake in patches:
        monkeypatch.setattr(owner, name, fake)
    with pytest.raises(OracleDisagreement, match=f"^{message}$"):
        call(corpus["powerset2"])

