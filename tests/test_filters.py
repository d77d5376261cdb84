import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_lattice import closure_system_lattices
from test_spaces import oracle_lattices

from wallman import gen
from wallman.bits import iter_bits, mask_of, subset
from wallman.lattice import FiniteLattice, chain_lattice, is_distributive, is_normal
from wallman.errors import (
    DegenerateLattice,
    ElementInFilter,
    NonUniqueExtension,
    NotAFilter,
    NotCentered,
    NotDistributive,
    NotPrime,
    TooLarge,
)
from wallman.filters import (
    EXHAUSTIVE_CAP,
    FilterSet,
    enumerate_filters,
    generated_filter,
    is_centered,
    is_filter,
    is_ideal,
    is_prime,
    is_ultra,
    principal_filter,
    separate_by_prime,
    ultrafilter_extensions,
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


def test_exhaustive_cap():
    above = chain_lattice(EXHAUSTIVE_CAP + 1)
    with pytest.raises(TooLarge, match=f"capped at {EXHAUSTIVE_CAP} elements"):
        enumerate_filters(above, "ultra", "exhaustive")
    at = chain_lattice(EXHAUSTIVE_CAP)
    assert len(enumerate_filters(at, "ultra", "exhaustive")) == 1


def ref_brute_prime_filters(L):
    """The prime filters by definition, one at a time: each principal
    filter ↑a, a ≠ 0, tested alone against the prime law over the pairs
    outside it, O(n³) joins in all.  Returns the member bitsets in
    generator-id order."""

    def prime_scan(members):
        outside = list(iter_bits(L.full_mask & ~members))
        for i, a in enumerate(outside):
            for b in outside[i:]:
                if members >> L.join(a, b) & 1:
                    return (False, (a, b))
        return (True, None)

    out = []
    for a in range(L.n):
        if a == L.bottom:
            continue
        members = L.up_mask(a)
        if not prime_scan(members)[0]:
            continue
        out.append(members)
    return out


def check_brute_primes(L):
    """The brute prime enumeration against ref_brute_prime_filters: the
    same members in the same order, all tagged prime.  Returns the
    verdicts seen, True for a prime ↑a and False for one that is not."""
    got = enumerate_filters(L, "prime", "brute")
    want = ref_brute_prime_filters(L)
    assert [f.members for f in got] == want, L
    assert all(f.kind == "prime" for f in got)
    seen = set()
    if want:
        seen.add(True)
    if len(want) < L.n - 1:
        seen.add(False)
    return seen


def shuffled_chains(rng):
    """Keyed chains of 2 to 12 elements with their ids in random order."""
    for k in range(2, 13):
        keys = [(1 << i) - 1 for i in range(k)]
        rng.shuffle(keys)
        yield FiniteLattice.from_keys(keys)


def test_brute_primes_match_reference(corpus):
    """Fixtures (M3 and N5 included), their opposites and attach_bottom,
    seeded keyed down-set lattices and shuffled chains."""
    lattices = [L for L in oracle_lattices(corpus) if L.n > 1]
    lattices += [gen.random_downset_lattice(7, seed) for seed in range(10)]
    lattices += list(shuffled_chains(random.Random(8)))
    seen = set()
    for L in lattices:
        seen |= check_brute_primes(L)
    assert seen == {True, False}


@given(closure_system_lattices())
@settings(max_examples=60, deadline=None)
def test_brute_primes_match_reference_on_shuffled_ids(L):
    if L.n > 1:
        check_brute_primes(L)


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
    check_brute_primes(L)


def test_fast_all_matches_brute(corpus):
    """The fast `all` branch lists ↑a for a ≠ 0 in id order, as brute
    does: on every fixture, M3 and N5 included (it needs no
    distributivity), on keyed down-set lattices and Boolean algebras."""
    keyed = [
        gen.random_downset_lattice(k, seed) for k in (2, 5, 8) for seed in range(4)
    ]
    keyed += [gen.boolean_algebra(k) for k in (1, 3, 5)]
    assert all(L.keys is not None for L in keyed)
    lattices = list(corpus.values()) + keyed
    assert any(not is_distributive(L)[0] for L in lattices)
    for L in lattices:
        fast = enumerate_filters(L, "all", "fast")
        brute = enumerate_filters(L, "all", "brute")
        assert [f.members for f in fast] == [f.members for f in brute], L
        assert all(f.kind == "filter" for f in fast)


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


def test_unique_extension_needs_a_prime_filter(n5):
    """↑c of N5 is a filter but not prime: a∨b = 1 lies in it, a and b
    do not."""
    with pytest.raises(NotPrime, match=r"^filter is not prime, witness \(1, 3\)$"):
        unique_ultrafilter_extension(n5, up(n5, "c"))


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


def ref_extension_formula(L, F):
    """p_F = {a : a∧b > 0 for all b in F}."""
    return mask_of(
        a
        for a in range(L.n)
        if all(L.meet(a, b) != L.bottom for b in iter_bits(F))
    )


def check_extensions(L):
    """ultrafilter_extensions against the brute-force ultrafilters, for
    every filter.  For every prime filter, unique_ultrafilter_extension
    returns the single extension, which equals the formula p_F, or raises
    NonUniqueExtension naming them all.  Returns the outcomes seen."""
    brute = [u.members for u in enumerate_filters(L, "ultra", "brute")]
    for f in enumerate_filters(L, "all", "brute"):
        exts = [u.members for u in ultrafilter_extensions(L, f)]
        assert exts == [u for u in brute if subset(f.members, u)]
    seen = set()
    for p in enumerate_filters(L, "prime", "brute"):
        want = [u for u in brute if subset(p.members, u)]
        if len(want) == 1:
            ext = unique_ultrafilter_extension(L, p).members
            assert ext == want[0] == ref_extension_formula(L, p.members)
        else:
            with pytest.raises(NonUniqueExtension) as exc:
                unique_ultrafilter_extension(L, p)
            assert [e.members for e in exc.value.extensions] == want
        seen.add(len(want) == 1)
    return seen


def test_extensions_match_brute_on_fixtures(corpus):
    seen = set()
    for L in oracle_lattices(corpus):
        if L.n > 1:
            seen |= check_extensions(L)
    assert seen == {True, False}


@given(small_lattices)
@settings(max_examples=40, deadline=None)
def test_extensions_match_brute(L):
    if L.n > 1:
        check_extensions(L)


def test_extensions_need_two_elements():
    with pytest.raises(DegenerateLattice, match="^filters need 0 != 1$"):
        ultrafilter_extensions(chain_lattice(1), 0)


# -- separation -------------------------------------------------------------


def test_separate_by_prime_examples(corpus, chain3):
    P = corpus["powerset2"]
    p = separate_by_prime(P, {P.top}, P.id_of("{0}"))
    assert p.members == P.up_mask(P.id_of("{1}"))
    q = separate_by_prime(chain3, {chain3.top}, chain3.id_of("m"))
    assert q.members == chain3.up_mask(chain3.top)
    with pytest.raises(ElementInFilter):
        separate_by_prime(chain3, up(chain3, "m"), chain3.id_of("m"))


def test_filter_checks_refuse_a_non_filter(corpus):
    """is_prime, is_ultra and separate_by_prime raise NotAFilter with
    is_filter's witness: the empty set of powerset2 misses its top, and
    {{}, {0,1}} holds its bottom."""
    P = corpus["powerset2"]
    for members, wit in (
        (0, "('missing-top', 3)"),
        (mask_of([P.bottom, P.top]), "('contains-bottom', 0)"),
    ):
        assert str(is_filter(P, members)[1]) == wit
        for check in (
            lambda: is_prime(P, members),
            lambda: is_ultra(P, members),
            lambda: separate_by_prime(P, members, P.id_of("{0}")),
        ):
            with pytest.raises(NotAFilter, match=f"^not a filter: {re.escape(wit)}$"):
                check()


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
