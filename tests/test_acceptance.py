"""Acceptance gate: ten criteria, one printed pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` (add -s to see the verdict
lines inline).  Every criterion is exact except the two timing budgets.
"""

import time

import pytest

from wallman import gen, io
from wallman.covers import (
    centered_subsets,
    gulko_lt,
    gulko_lt_brute,
    max_increasing_chain_brute,
    phi_from_witness,
    rank_upper_bound,
    rosenthal_refinement,
    stabilized_rank,
    wiec_refinement,
)
from wallman.errors import NonUniqueExtension, TooLarge
from wallman.filters import (
    enumerate_filters,
    principal_filter,
    unique_ultrafilter_extension,
)
from wallman.homs import (
    alexandrov,
    embedding_from_separation,
    functor_laws,
    identity_hom,
    surjectivity_from_kernel,
    verify_hom,
)
from wallman.lattice import (
    is_boolean,
    is_distributive,
    is_normal,
    is_separative,
    join_irreducibles,
)
from wallman.spaces import build_space, separation_axioms


def verdict(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def corpus():
    return {L.name: L for L in io.builtin_corpus()}


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    count = 0
    for seed in range(200):
        L = gen.random_downset_lattice(1 + seed % 8, seed)
        for kind in ("prime", "ultra"):
            brute = {f.members for f in enumerate_filters(L, kind, "brute")}
            fast = {f.members for f in enumerate_filters(L, kind, "fast")}
            assert brute == fast, (seed, kind)
        count += 1
    elapsed = time.perf_counter() - start
    verdict(
        1,
        count >= 200 and elapsed < 60.0,
        f"brute = fast on {count} lattices in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_unique_extension(corpus):
    checked = 0
    for L in corpus.values():
        if not is_distributive(L)[0] or not is_normal(L)[0]:
            continue
        ultras = {u.members for u in enumerate_filters(L, "ultra", "brute")}
        for p in enumerate_filters(L, "prime", "brute"):
            ext = unique_ultrafilter_extension(L, p)
            assert ext.members in ultras
            checked += 1
    FP = corpus["fivepoint"]
    top_filter = principal_filter(FP, FP.top)
    n_exts = 0
    try:
        unique_ultrafilter_extension(FP, top_filter)
    except NonUniqueExtension as exc:
        n_exts = len(exc.extensions)
    verdict(
        2,
        checked > 0 and n_exts == 2,
        f"{checked} prime filters extend uniquely; "
        f"fivepoint raises with {n_exts} extensions",
    )


def test_criterion_03_space_theorem_shadows(corpus):
    ok = True
    for L in corpus.values():
        if L.n == 1:
            continue
        pf = build_space(L, "prime")
        ult = build_space(L, "ultra")
        pf_sep = separation_axioms(pf)
        ult_sep = separation_axioms(ult)
        ok &= pf_sep.t0
        ok &= ult_sep.t1
        if is_distributive(L)[0]:
            # the biconditional and the closed-base identity are clauses
            # of a theorem about distributive lattices (n5 satisfies
            # ult = Pf without being Boolean)
            same = {p.members for p in pf.points} == {
                p.members for p in ult.points
            }
            ok &= same == is_boolean(L)
            ok &= pf.closed_family() == frozenset(pf.a_plus) | {pf.full}
        if is_normal(L)[0]:
            ok &= ult_sep.hausdorff
    # documented regression: ult(fivepoint) Hausdorff, lattice non-normal
    FP = corpus["fivepoint"]
    regression = (
        separation_axioms(build_space(FP, "ultra")).hausdorff
        and not is_normal(FP)[0]
    )
    verdict(
        3,
        ok and regression,
        "Pf T0, ult T1, ult=Pf iff Boolean, closed=basic, normal=>Hausdorff; "
        "fivepoint converse regression present",
    )


def test_criterion_04_separative_corollary(corpus):
    lattices = list(corpus.values())
    for seed in range(500 - len(lattices)):
        lattices.append(gen.random_downset_lattice(1 + seed % 6, seed))
    violations = [
        L.name
        for L in lattices
        if is_separative(L)[0] and is_distributive(L)[0] and not is_boolean(L)
    ]
    verdict(
        4,
        len(lattices) >= 500 and not violations,
        f"separative & distributive => Boolean on {len(lattices)} lattices",
    )


def test_criterion_05_functor_and_monoepi(corpus):
    pairs = 0
    for seed in range(100):
        j = 1 + seed % 3
        k = 1 + (seed // 3) % 3
        l = 1 + (seed // 9) % 3
        h = gen.random_boolean_hom(
            gen.boolean_algebra(j), gen.boolean_algebra(k), seed
        )
        g = gen.random_boolean_hom(
            gen.boolean_algebra(k), gen.boolean_algebra(l), seed + 1000
        )
        assert functor_laws(g, h), seed
        pairs += 1
    # mono/epi on applicable corpus homs: identities plus boolean samples
    homs = [
        identity_hom(L)
        for L in corpus.values()
        if is_distributive(L)[0]
        and is_normal(L)[0]
        and L.n > 1
    ]
    for seed in range(20):
        homs.append(
            gen.random_boolean_hom(
                gen.boolean_algebra(2), gen.boolean_algebra(3), seed
            )
        )
    for h in homs:
        kr = surjectivity_from_kernel(h)
        if kr.kernel_trivial:
            assert kr.surjective
        er = embedding_from_separation(h)
        if er.separating_image:
            assert er.injective
    verdict(
        5,
        pairs >= 100,
        f"functor laws on {pairs} composable pairs; "
        f"kernel/embedding theorems on {len(homs)} homs",
    )


def test_criterion_06_generated_ultrafilters():
    from wallman.spaces import ultrafilter_generated_by

    triples = 0
    seed = 0
    while triples < 100:
        L = gen.random_downset_lattice(1 + seed % 6, seed)
        seed += 1
        if L.n == 1:
            continue
        G = list(join_irreducibles(L))
        for p in enumerate_filters(L, "ultra", "brute"):
            assert ultrafilter_generated_by(L, G, p), (seed, p)
            triples += 1
    verdict(6, triples >= 100, f"[p ∩ G) = p on {triples} triples")


def test_criterion_07_alexandrov(corpus):
    checked = 0
    for L in corpus.values():
        if not is_distributive(L)[0] or L.n == 1:
            continue
        res = alexandrov(L)
        assert is_boolean(res.algebra), L.name
        assert res.onto.is_surjective(), L.name
        assert verify_hom(res.hom)[0], L.name
        checked += 1
    verdict(
        7,
        checked >= 9,
        f"Boolean 0-dimensionalization maps onto ult(L) on {checked} lattices",
    )


def test_criterion_08_gulko_poset():
    families = [
        gen.random_staged_family(1 + seed % 4, seed) for seed in range(20)
    ]
    pair_checks = 0
    for F in families:
        phi = phi_from_witness(F)
        u = F.members[0].id
        nodes = [
            (s, k)
            for s, _ in centered_subsets(F)
            if len(s) <= 4
            for k in range(7)
        ]
        for a in nodes:
            for b in nodes:
                assert gulko_lt(F, a, b, phi, u) == gulko_lt_brute(
                    F, a, b, phi, u
                )
                pair_checks += 1
        length, _ = stabilized_rank(F, phi, u)
        bound = rank_upper_bound(F, phi, u)
        assert length <= bound, (F, length, bound)
        if len(F.by_id()) <= 4:
            cap = max(phi[u]) + len(F.by_id()) + 1
            brute_len = max_increasing_chain_brute(F, phi, u, cap)
            assert brute_len == length
            assert brute_len <= bound
    verdict(
        8,
        pair_checks > 0,
        f"order matches brute on {pair_checks} node pairs over "
        f"{len(families)} families; ranks stabilize within the bound",
    )


def test_criterion_09_refinements():
    checked = 0
    for seed in range(50):
        F = gen.random_staged_family(1 + seed % 6, seed + 500)
        for refine in (wiec_refinement, rosenthal_refinement):
            out = refine(F)
            assert out.t0_preserved, seed
            assert out.ord_transfer_ok, seed
        checked += 1
    verdict(
        9,
        checked >= 50,
        f"both refinements preserve T0 and ord-transfer on {checked} families",
    )


def test_criterion_10_performance():
    rows = gen.random_poset(14, seed=7)
    minimal = sum(
        1
        for j in range(14)
        if not any(i != j and rows[i] >> j & 1 for i in range(14))
    )
    L = gen.downset_lattice(rows, name="bench14")
    start = time.perf_counter()
    fast = enumerate_filters(L, "ultra", "fast")
    elapsed = time.perf_counter() - start
    # ultrafilters are the principal filters of atoms, i.e. one per
    # minimal poset point
    assert len(fast) == minimal
    if L.n > 18:
        with pytest.raises(TooLarge):
            enumerate_filters(L, "ultra", "exhaustive")
    small = gen.random_downset_lattice(4, seed=7)
    assert small.n <= 18
    assert {f.members for f in enumerate_filters(small, "ultra", "fast")} == {
        f.members for f in enumerate_filters(small, "ultra", "exhaustive")
    }
    verdict(
        10,
        elapsed < 5.0,
        f"fast ultrafilter enumeration on |L|={L.n} in {elapsed:.2f}s (< 5s); "
        "exhaustive oracle capped at 18 and agreeing below it",
    )
