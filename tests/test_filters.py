import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_spaces import oracle_lattices

from wallman import gen
from wallman.bits import iter_bits, mask_of
from wallman.lattice import is_normal
from wallman.errors import (
    ElementInFilter,
    NonUniqueExtension,
    NotCentered,
    NotDistributive,
    TooLarge,
)
from wallman.filters import (
    FilterSet,
    enumerate_filters,
    generated_filter,
    is_centered,
    is_filter,
    is_ideal,
    is_prime,
    principal_filter,
    separate_by_prime,
    unique_ultrafilter_extension,
)

small_lattices = st.builds(
    gen.random_downset_lattice,
    st.integers(1, 6),
    st.integers(0, 10**6),
)


def up(L, name):
    return principal_filter(L, L.id_of(name))


# -- definitional checks ----------------------------------------------------


def test_is_filter_examples(chain3, corpus):
    assert is_filter(chain3, up(chain3, "m"))[0]
    assert is_filter(chain3, {chain3.top})[0]
    P = corpus["powerset3"]
    flag, wit = is_filter(P, {P.id_of("{0}"), P.top})
    assert not flag and wit[0] == "not-upward-closed"


def test_is_ideal_dual(chain3):
    assert is_ideal(chain3, {chain3.bottom, chain3.id_of("m")})[0]
    assert not is_ideal(chain3, {chain3.id_of("m")})[0]


def test_is_centered(fivepoint):
    a, b = fivepoint.id_of("a"), fivepoint.id_of("b")
    assert is_centered(fivepoint, {a})
    assert not is_centered(fivepoint, {a, b})
    assert is_centered(fivepoint, ())


def ref_centered(L, M):
    """Every nonempty subset of the bitset M has a nonzero meet: the 2^k
    scan."""
    ids = list(iter_bits(M))
    meets = [L.top]  # meets[s] is the meet of the ids chosen by the bits of s
    for s in range(1, 1 << len(ids)):
        low = s & -s
        meets.append(L.meet(meets[s ^ low], ids[low.bit_length() - 1]))
        if meets[s] == L.bottom:
            return False
    return True


def test_centered_and_prime_against_references(corpus):
    """is_centered against the subset scan on every principal filter and
    every principal ideal without 0 of up to 12 members, and is_prime
    against 'the complement is an ideal' on every principal filter."""
    verdicts = set()
    for L in oracle_lattices(corpus):
        for a in range(L.n):
            for M in (L.up_mask(a), L.down_mask(a) & ~(1 << L.bottom)):
                if M.bit_count() <= 12:
                    centered = is_centered(L, M)
                    assert centered == ref_centered(L, M)
                    verdicts.add(("centered", centered))
            if a == L.bottom:
                continue
            F = L.up_mask(a)
            prime = is_prime(L, F)[0]
            assert prime == is_ideal(L, L.full_mask & ~F)[0]
            verdicts.add(("prime", prime))
    assert len(verdicts) == 4


def test_generated_filter(fivepoint):
    a = fivepoint.id_of("a")
    assert generated_filter(fivepoint, {a}).members == fivepoint.up_mask(a)
    c1 = generated_filter(fivepoint, {fivepoint.id_of("c"), fivepoint.top})
    assert sorted(c1.element_names()) == ["1", "c"]
    with pytest.raises(NotCentered):
        generated_filter(fivepoint, {a, fivepoint.id_of("b")})


def test_is_prime_examples(chain3, fivepoint):
    assert is_prime(chain3, up(chain3, "m"))[0]
    flag, wit = is_prime(fivepoint, up(fivepoint, "c"))
    assert not flag
    x, y = wit
    assert fivepoint.join(x, y) == fivepoint.id_of("c")
    assert is_prime(fivepoint, up(fivepoint, "1"))[0]


# -- enumeration ------------------------------------------------------------


def test_enumerate_examples(powerset3, one_plus_b2, fivepoint):
    assert len(enumerate_filters(powerset3, "ultra", "brute")) == 3
    assert len(enumerate_filters(one_plus_b2, "ultra", "brute")) == 1
    primes = enumerate_filters(fivepoint, "prime", "brute")
    gens = {fivepoint.names[p.min_element()] for p in primes}
    assert gens == {"a", "b", "1"}
    ultras = enumerate_filters(fivepoint, "ultra", "brute")
    assert {fivepoint.names[p.min_element()] for p in ultras} == {"a", "b"}


def test_fast_needs_distributivity(n5):
    with pytest.raises(NotDistributive):
        enumerate_filters(n5, "ultra", "fast")


def test_exhaustive_cap(monkeypatch, powerset3):
    monkeypatch.setenv("WALLMAN_MAX_BRUTE", "4")
    with pytest.raises(TooLarge):
        enumerate_filters(powerset3, "ultra", "exhaustive")
    monkeypatch.setenv("WALLMAN_MAX_BRUTE", "8")
    assert len(enumerate_filters(powerset3, "ultra", "exhaustive")) == 3


@given(small_lattices)
@settings(max_examples=40, deadline=None)
def test_brute_fast_exhaustive_agree(L):
    for kind in ("prime", "ultra"):
        brute = {f.members for f in enumerate_filters(L, kind, "brute")}
        fast = {f.members for f in enumerate_filters(L, kind, "fast")}
        assert brute == fast
        if L.n <= 18:
            exh = {f.members for f in enumerate_filters(L, kind, "exhaustive")}
            assert brute == exh


@given(small_lattices)
@settings(max_examples=40, deadline=None)
def test_ultra_subset_prime(L):
    primes = {f.members for f in enumerate_filters(L, "prime", "brute")}
    for u in enumerate_filters(L, "ultra", "brute"):
        assert u.members in primes


@given(small_lattices)
@settings(max_examples=40, deadline=None)
def test_maximality_characterization(L):
    for p in enumerate_filters(L, "ultra", "brute"):
        for a in range(L.n):
            if a in p:
                continue
            assert any(
                L.meet(a, b) == L.bottom for b in iter_bits(p.members)
            )


@given(small_lattices)
@settings(max_examples=40, deadline=None)
def test_every_filter_principal(L):
    for f in enumerate_filters(L, "all", "brute"):
        assert f.members == L.up_mask(f.min_element())


# -- unique extension -------------------------------------------------------


def test_unique_extension_chain3(chain3):
    F = up(chain3, "1")
    ext = unique_ultrafilter_extension(chain3, F)
    assert ext.members == chain3.up_mask(chain3.id_of("m"))


def test_unique_extension_identity_on_ultra(corpus):
    P = corpus["powerset2"]
    for u in enumerate_filters(P, "ultra", "brute"):
        assert unique_ultrafilter_extension(P, u).members == u.members


def test_unique_extension_fivepoint_fails(fivepoint):
    F = up(fivepoint, "1")
    with pytest.raises(NonUniqueExtension) as exc:
        unique_ultrafilter_extension(fivepoint, F)
    names = {
        fivepoint.names[e.min_element()] for e in exc.value.extensions
    }
    assert names == {"a", "b"}


@given(small_lattices)
@settings(max_examples=30, deadline=None)
def test_extension_surjects_onto_ultrafilters(L):
    # uniqueness is a theorem under normality only
    if not is_normal(L)[0]:
        return
    ultras = {u.members for u in enumerate_filters(L, "ultra", "brute")}
    hit = set()
    for p in enumerate_filters(L, "prime", "brute"):
        ext = unique_ultrafilter_extension(L, p)
        assert ext.members in ultras
        hit.add(ext.members)
    assert hit == ultras


# -- separation -------------------------------------------------------------


def test_separate_by_prime_examples(corpus, chain3):
    P = corpus["powerset2"]
    p = separate_by_prime(P, {P.top}, P.id_of("{0}"))
    assert p.members == P.up_mask(P.id_of("{1}"))
    q = separate_by_prime(chain3, {chain3.top}, chain3.id_of("m"))
    assert q.members == chain3.up_mask(chain3.top)
    with pytest.raises(ElementInFilter):
        separate_by_prime(chain3, up(chain3, "m"), chain3.id_of("m"))


@given(small_lattices, st.data())
@settings(max_examples=40, deadline=None)
def test_separate_by_prime_avoids_element(L, data):
    f = data.draw(st.sampled_from(enumerate_filters(L, "all", "brute")))
    outside = [a for a in range(L.n) if a not in f]
    if not outside:
        return
    a = data.draw(st.sampled_from(outside))
    p = separate_by_prime(L, f, a)
    assert a not in p
    assert f.members & ~p.members == 0
    assert is_prime(L, p)[0]


def test_filterset_helpers(chain3):
    f = FilterSet(chain3, mask_of([chain3.id_of("m"), chain3.top]), "prime")
    assert f.element_names() == ("m", "1")
    assert chain3.names[f.min_element()] == "m"
