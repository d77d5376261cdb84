import hashlib
import os
import pathlib
import random
import subprocess
import sys
import warnings
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallman import gen
from wallman.bits import iter_bits, mask_of
from wallman.covers import (
    _CENTERED_ENUM_CAP,
    _chain_search,
    _order_masks,
    _step,
    CapTooSmallWarning,
    CenteredRankReport,
    CoverFamily,
    Member,
    cantor_pair,
    centered_poset_rank,
    centered_subsets,
    gulko_lt,
    gulko_lt_brute,
    is_T0_separating,
    max_increasing_chain,
    max_increasing_chain_brute,
    node_is_valid,
    ord_count,
    phi_from_witness,
    rank_upper_bound,
    rosenthal_refinement,
    stabilized_rank,
    weakly_sigma_point_finite,
    wiec_refinement,
    witness_from_phi,
)
from wallman.errors import (
    EmptyPhiValue,
    InvalidNode,
    MissingStages,
    TooLarge,
)

staged_families = st.builds(
    gen.random_staged_family,
    st.integers(1, 5),
    st.integers(0, 10**6),
)


def fam(ground, *entries):
    """entries: (id, point-iterable, group[, stages])"""
    members = []
    for e in entries:
        pts = sum(1 << ground.index(p) for p in e[1])
        stages = None
        if len(e) > 3:
            stages = tuple(
                sum(1 << ground.index(p) for p in w) for w in e[3]
            )
        members.append(Member(e[0], pts, e[2], stages))
    return CoverFamily(tuple(ground), tuple(members))


# -- counting and separation ------------------------------------------------


def test_ord_examples():
    F = fam(["1", "2"], ("u", ["1"], 0), ("v", ["1", "2"], 0))
    assert ord_count(0, F.members) == 2
    assert ord_count(1, F.members) == 1
    assert ord_count(0, []) == 0


@given(staged_families, st.data())
@settings(max_examples=30, deadline=None)
def test_ord_matches_recount(F, data):
    x = data.draw(st.integers(0, len(F.ground) - 1))
    assert ord_count(x, F.members) == sum(
        1 for m in F.members if x in set(_points(m))
    )


def _points(m):
    i, w = 0, m.points
    while w:
        if w & 1:
            yield i
        i += 1
        w >>= 1


def test_family_rejects_bad_entries():
    with pytest.raises(ValueError, match="^'v' leaves the ground set$"):
        CoverFamily(("x",), (Member("u", 0b1, 0), Member("v", 0b10, 0)))
    with pytest.raises(ValueError, match=r"^duplicate entry \('u', 0\)$"):
        CoverFamily(("x",), (Member("u", 0b1, 0), Member("u", 0b1, 0)))
    with pytest.raises(
        ValueError, match="^entries named 'u' disagree on their point set$"
    ):
        CoverFamily(
            ("x", "y"),
            (Member("u", 0b01, 0), Member("v", 0b11, 0), Member("u", 0b11, 1)),
        )


def test_family_error_order():
    # the first bad entry decides, whatever faults follow it
    with pytest.raises(ValueError, match="leaves the ground set"):
        CoverFamily(
            ("x", "y"),
            (Member("u", 0b01, 0), Member("w", 0b100, 0), Member("u", 0b01, 0)),
        )
    with pytest.raises(ValueError, match="duplicate entry"):
        CoverFamily(
            ("x", "y"),
            (Member("u", 0b01, 0), Member("u", 0b01, 0), Member("u", 0b10, 1)),
        )
    with pytest.raises(ValueError, match="disagree"):
        CoverFamily(
            ("x", "y"),
            (Member("u", 0b01, 0), Member("u", 0b10, 1), Member("u", 0b01, 0)),
        )


def test_t0_separating():
    singles = fam(["x", "y", "z"], *[(p, [p], 0) for p in "xyz"])
    assert is_T0_separating(singles)[0]
    whole = fam(["x", "y"], ("u", ["x", "y"], 0))
    flag, wit = is_T0_separating(whole)
    assert not flag and wit == (0, 1)


def ref_is_T0_separating(F):
    """Definitional pair scan: the first (x, y), x < y, that no member
    holds exactly one of."""
    n = len(F.ground)
    for x in range(n):
        for y in range(x + 1, n):
            if not any(
                (m.points >> x & 1) != (m.points >> y & 1)
                for m in F.members
            ):
                return (False, (x, y))
    return (True, None)


def test_t0_separating_matches_pair_scan():
    rng = random.Random(3)
    seen = set()
    for _ in range(600):
        g = rng.randint(0, 7)
        members = tuple(
            Member(f"u{i}", rng.getrandbits(g) if g else 0, rng.randrange(2))
            for i in range(rng.randint(0, 6))
        )
        F = CoverFamily(tuple(str(x) for x in range(g)), members)
        verdict = is_T0_separating(F)
        assert verdict == ref_is_T0_separating(F), F
        seen.add(verdict[0])
    assert seen == {True, False}


# -- centered subcollections ------------------------------------------------


def test_centered_rank_disjoint():
    F = fam(["x", "y"], ("u", ["x"], 0), ("v", ["y"], 0))
    rep = centered_poset_rank(F.members, F.ground_mask)
    assert rep.max_centered_size == 1 == rep.max_ord


def test_centered_rank_point_star():
    # all subsets of a 3-point set containing x0
    ground = ["a", "b", "c"]
    sets = [["a"], ["a", "b"], ["a", "c"], ["a", "b", "c"]]
    F = fam(ground, *[(f"u{i}", s, 0) for i, s in enumerate(sets)])
    rep = centered_poset_rank(F.members, F.ground_mask)
    assert rep.max_centered_size == 4 == rep.max_ord
    assert len(rep.chain) == 4


def test_centered_rank_empty():
    rep = centered_poset_rank([], 0b111)
    assert rep.max_centered_size == 0 and rep.chain == ()


def test_centered_rank_matches_enumeration_on_random_groups():
    """The ord route against the depth-first enumeration it replaced, on
    groups of 1-8 points and 0-10 members, some of them empty: same size,
    same chain, ties broken alike."""
    rng = random.Random(7)
    for _ in range(1500):
        n_points = rng.randint(1, 8)
        ground = (1 << n_points) - 1
        members = [
            Member(f"u{i}", 0 if rng.random() < 0.1 else rng.getrandbits(n_points), 0)
            for i in range(rng.randint(0, 10))
        ]
        for ms in (members, members[:1]):
            assert centered_poset_rank(ms, ground) == (
                ref_centered_poset_rank(ms, ground)
            ), (n_points, ms)


# -- phi round trips --------------------------------------------------------


def test_phi_from_witness():
    F = fam(["x"], ("u", ["x"], 0), ("u", ["x"], 2), ("v", ["x"], 1))
    phi = phi_from_witness(F)
    assert phi["u"] == frozenset({0, 2})
    assert phi["v"] == frozenset({1})


@given(staged_families)
@settings(max_examples=30, deadline=None)
def test_phi_round_trip(F):
    phi = phi_from_witness(F)
    back = witness_from_phi(F.members, phi)
    assert phi_from_witness(back) == phi
    assert {(m.id, m.group) for m in back.members} == {
        (m.id, m.group) for m in F.members
    }


def test_weakly_sigma_point_finite_default():
    F = gen.random_staged_family(4, seed=3)
    assert weakly_sigma_point_finite(F)
    assert not weakly_sigma_point_finite(F, tau=0)


# -- the certificate poset --------------------------------------------------


@pytest.fixture()
def pair_family():
    return fam(
        ["x", "y"],
        ("u", ["x", "y"], 0),
        ("v", ["x"], 1),
        ("w", ["y"], 0),
    )


def test_gulko_lt_base_cases(pair_family):
    phi = phi_from_witness(pair_family)
    assert gulko_lt(pair_family, (frozenset(), 0), (frozenset({"u"}), 1), phi, "u")
    # counters alone cannot certify covered groups
    assert not gulko_lt(pair_family, (frozenset(), 2), (frozenset(), 3), phi, "u")
    assert not gulko_lt(pair_family, (frozenset(), 1), (frozenset(), 1), phi, "u")


def test_gulko_lt_invalid_node(pair_family):
    phi = phi_from_witness(pair_family)
    bad = (frozenset({"v", "w"}), 0)  # {x} ∩ {y} = ∅
    assert not node_is_valid(pair_family, bad)
    with pytest.raises(InvalidNode):
        gulko_lt(pair_family, (frozenset(), 0), bad, phi, "u")


def test_gulko_lt_irreflexive_and_transitive(pair_family):
    phi = phi_from_witness(pair_family)
    nodes = [
        (s, k) for s, _ in centered_subsets(pair_family) for k in range(4)
    ]
    for a in nodes:
        assert not gulko_lt(pair_family, a, a, phi, "u")
    lt = {
        (a, b)
        for a in nodes
        for b in nodes
        if gulko_lt(pair_family, a, b, phi, "u")
    }
    for a, b in lt:
        for c in nodes:
            if (b, c) in lt:
                assert (a, c) in lt


def test_gulko_lt_matches_brute(pair_family):
    phi = phi_from_witness(pair_family)
    nodes = [
        (s, k) for s, _ in centered_subsets(pair_family) for k in range(4)
    ]
    for mode in ("membership", "equality"):
        for a in nodes:
            for b in nodes:
                assert gulko_lt(pair_family, a, b, phi, "u", mode) == (
                    gulko_lt_brute(pair_family, a, b, phi, "u", mode)
                )


def test_gulko_modes_differ():
    # v belongs to groups {0,1}: membership covers m=0 through v,
    # strict equality does not
    F = fam(["x"], ("u", ["x"], 0), ("v", ["x"], 0), ("v", ["x"], 1))
    phi = phi_from_witness(F)
    a = (frozenset({"u"}), 1)
    b = (frozenset({"u", "v"}), 2)
    assert gulko_lt(F, a, b, phi, "u", "membership")
    assert not gulko_lt(F, a, b, phi, "u", "equality")


# -- chain search -----------------------------------------------------------


def test_single_member_rank():
    F = fam(["x"], ("u", ["x"], 0))
    phi = phi_from_witness(F)
    length, chain = stabilized_rank(F, phi, "u")
    # (∅,0) < (∅,1) < ({u},2): counters idle below min phi, then s grows
    assert length == 3
    assert length <= rank_upper_bound(F, phi, "u") == 3
    assert max_increasing_chain_brute(F, phi, "u", 4) == 3
    for a, b in zip(chain, chain[1:]):
        assert gulko_lt(F, a, b, phi, "u")


def test_disjoint_pair_short_rank():
    F = fam(["x", "y"], ("u", ["x"], 0), ("v", ["y"], 0))
    phi = phi_from_witness(F)
    length, _ = stabilized_rank(F, phi, "u")
    assert length <= rank_upper_bound(F, phi, "u")
    assert length == max_increasing_chain_brute(F, phi, "u", 4)


def test_cap_warning(pair_family):
    phi = phi_from_witness(pair_family)
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        max_increasing_chain(pair_family, phi, "u", 1)
    assert any(issubclass(w.category, CapTooSmallWarning) for w in got)


@given(st.integers(1, 4), st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_rank_stabilizes_and_respects_bound(n, seed):
    F = gen.random_staged_family(n, seed)
    phi = phi_from_witness(F)
    u = F.members[0].id
    length, chain = stabilized_rank(F, phi, u)
    assert length <= rank_upper_bound(F, phi, u)
    for a, b in zip(chain, chain[1:]):
        assert gulko_lt(F, a, b, phi, u)
    if len(F.by_id()) <= 3 and max(phi[u]) <= 2:
        cap = max(phi[u]) + len(F.by_id()) + 1
        assert length == max_increasing_chain_brute(F, phi, u, cap)


# -- refinements ------------------------------------------------------------


def test_refinement_trivial_stages():
    F = fam(
        ["x", "y"],
        ("u", ["x"], 0, [["x"]]),
        ("v", ["x", "y"], 1, [["x", "y"]]),
    )
    out = wiec_refinement(F)
    assert len(out.family.members) == len(F.members)
    assert out.t0_preserved and out.ord_transfer_ok


def test_refinement_two_stage():
    F = fam(
        ["x", "y", "z"],
        ("u", ["x", "y"], 0, [["x"], ["x", "y"]]),
        ("v", ["z"], 0, [["z"]]),
        ("w", ["y", "z"], 1, [["y"], ["y", "z"]]),
    )
    for refine in (wiec_refinement, rosenthal_refinement):
        out = refine(F)
        assert len(out.family.members) == 5  # sum of stage counts
        assert out.t0_preserved
        assert out.ord_transfer_ok
        assert out.group_rank_bounds_ok


def test_refinement_needs_stages():
    F = fam(["x"], ("u", ["x"], 0))
    with pytest.raises(MissingStages):
        wiec_refinement(F)


def test_refinement_group_indexing_differs():
    F = fam(["x"], ("u", ["x"], 1, [["x"], ["x"]]))
    w = wiec_refinement(F).family
    r = rosenthal_refinement(F).family
    assert {m.group for m in w.members} == {cantor_pair(0, 1), cantor_pair(1, 1)}
    assert {m.group for m in r.members} == {cantor_pair(1, 0), cantor_pair(1, 1)}


@given(staged_families)
@settings(max_examples=40, deadline=None)
def test_refinements_preserve_t0(F):
    assert is_T0_separating(F)[0]
    for refine in (wiec_refinement, rosenthal_refinement):
        out = refine(F)
        assert out.t0_preserved
        assert is_T0_separating(out.family)[0]
        assert out.ord_transfer_ok


# -- the refinement flags against their run-time scans ------------------------
#
# _refine sets its three flags by construction (see its docstring).  The
# scans it used to run are kept here verbatim as the oracle, with group_key
# read back off the output ids, so that a refinement whose output breaks a
# flag's argument fails the check.


def ref_refinement_flags(F: CoverFamily, out: CoverFamily, group_key) -> tuple:
    was_t0 = is_T0_separating(F)[0]
    t0_preserved = (not was_t0) or is_T0_separating(out)[0]
    # ord transfer: stage-k slices of a group never beat the group itself
    ord_ok = True
    groups_in = F.groups()
    for x in range(len(F.ground)):
        for g, ms in groups_in.items():
            base = ord_count(x, ms)
            ks = {len(m.stages) for m in ms}
            for k in range(max(ks)):
                slice_members = [
                    Member("w", m.stages[k], 0)
                    for m in ms
                    if k < len(m.stages)
                ]
                if ord_count(x, slice_members) > base:
                    ord_ok = False
    # centered-size bound per output group against its source group
    rank_ok = True
    src_rank = {
        g: centered_poset_rank(ms, F.ground_mask).max_centered_size
        for g, ms in groups_in.items()
    }
    for g_out, ms in out.groups().items():
        srcs = {mm.group for mm in F.members for k in range(len(mm.stages))
                if group_key(k, mm.group) == g_out}
        bound = max(src_rank[g] for g in srcs)
        got = centered_poset_rank(ms, F.ground_mask).max_centered_size
        if got > bound:
            rank_ok = False
    return (t0_preserved, ord_ok, rank_ok)


def output_group_key(out: CoverFamily):
    """group_key as the refinement applied it, read off the output ids
    "<id>.g<group>.k<stage>"."""
    key_of = {}
    for m in out.members:
        _, g, k = m.id.rsplit(".", 2)
        key_of[(int(k[1:]), int(g[1:]))] = m.group
    return lambda k, g: key_of.get((k, g))


def random_stage_family(rng: random.Random) -> CoverFamily:
    """1 to 6 ground points, ids with dots in them, each id listed in 1 to
    3 groups with its own random stage sequence per group; T0 or not."""
    g = rng.randint(1, 6)
    members = []
    for i in range(rng.randint(1, 5)):
        pts = rng.getrandbits(g)
        for grp in rng.sample(range(5), rng.randint(1, 3)):
            stages = [pts]
            for _ in range(rng.randint(0, 3)):
                stages.append(stages[-1] & rng.getrandbits(g))
            members.append(Member(f"m.{i}", pts, grp, tuple(reversed(stages))))
    return CoverFamily(tuple(f"p{x}" for x in range(g)), tuple(members))


def test_refinement_flags_match_the_scans():
    rng = random.Random(15)
    families = [random_stage_family(rng) for _ in range(2000)]
    families += [
        gen.random_staged_family(1 + seed % 10, seed) for seed in range(400)
    ]
    seen = set()
    for F in families:
        seen.add(is_T0_separating(F)[0])
        for refine in (wiec_refinement, rosenthal_refinement):
            out = refine(F)
            flags = (out.t0_preserved, out.ord_transfer_ok, out.group_rank_bounds_ok)
            ref = ref_refinement_flags(F, out.family, output_group_key(out.family))
            assert flags == ref == (True, True, True), (F, refine.__name__, ref)
    assert seen == {True, False}


def test_cantor_pair_injective():
    seen = {}
    for a in range(20):
        for b in range(20):
            v = cantor_pair(a, b)
            assert v not in seen
            seen[v] = (a, b)


# -- the rank search against its earlier form --------------------------------
#
# Verbatim copies of centered_subsets, centered_poset_rank and
# max_increasing_chain as they stood when each wrote its own centered-set
# scan and its own copy of the order step.  The shared-scan versions must
# return the same lists, chains and warnings, ties included; centered_subsets
# pairs each set with its member mask where the copy pairs it with the
# intersection of its members.


def ref_centered_poset_rank(
    members, ground_mask: int
) -> CenteredRankReport:
    members = list(members)
    if len(members) > _CENTERED_ENUM_CAP:
        raise TooLarge("centered subcollection scan beyond the cap")
    best: tuple = ()
    stack = [((), ground_mask, 0)]
    while stack:
        chosen, inter, start = stack.pop()
        if len(chosen) > len(best):
            best = chosen
        for i in range(start, len(members)):
            nxt = inter & members[i].points
            if nxt:
                stack.append((chosen + (i,), nxt, i + 1))
    chain = tuple(best[:k] for k in range(len(best), 0, -1))
    max_ord = max(
        (ord_count(x, members) for x in iter_bits(ground_mask)),
        default=0,
    )
    assert len(best) == max_ord or not members, (
        "centered maximum must match the ord maximum on a finite ground"
    )
    return CenteredRankReport(len(best), chain, max_ord)


def ref_centered_subsets(F: CoverFamily) -> list:
    ids = sorted(F.by_id())
    if len(ids) > _CENTERED_ENUM_CAP:
        raise TooLarge("too many members for centered enumeration")
    by_id = F.by_id()
    out = []
    stack = [((), F.ground_mask, 0)]
    while stack:
        chosen, inter, start = stack.pop()
        out.append((frozenset(chosen), inter))
        for i in range(start, len(ids)):
            nxt = inter & by_id[ids[i]].points
            if nxt:
                stack.append((chosen + (ids[i],), nxt, i + 1))
    return out


def ref_max_increasing_chain(
    F: CoverFamily,
    phi: dict,
    u: str,
    k_cap: int,
    mode: str = "membership",
):
    if u not in phi:
        raise KeyError(f"no phi value for {u!r}")
    set_ids = [s for s, _ in ref_centered_subsets(F)]

    def step_ok(s: frozenset, k: int, t: frozenset) -> bool:
        if not s <= t:
            return False
        fresh = t - s
        for m in phi[u]:
            if m >= k:
                continue
            if mode == "membership":
                if not any(m in phi[v] for v in fresh):
                    return False
            else:
                if not any(phi[v] == frozenset((m,)) for v in fresh):
                    return False
        return True

    def rank_at(cap: int):
        memo: dict = {}

        def chain_from(s: frozenset, k: int):
            key = (s, k)
            if key in memo:
                return memo[key]
            best_len, best_tail = 1, ((s, k),)
            if k < cap:
                for t in set_ids:
                    if step_ok(s, k, t):
                        ln, tail = chain_from(t, k + 1)
                        if ln + 1 > best_len:
                            best_len, best_tail = ln + 1, ((s, k),) + tail
            memo[key] = (best_len, best_tail)
            return memo[key]

        best = (0, ())
        for s in set_ids:
            for k0 in range(cap + 1):
                cand = chain_from(s, k0)
                if cand[0] > best[0]:
                    best = cand
        return best

    length, chain = rank_at(k_cap)
    if k_cap > 0:
        prev_len, _ = rank_at(k_cap - 1)
        if prev_len != length:
            warnings.warn(
                f"chain length still growing at k_cap={k_cap}",
                CapTooSmallWarning,
            )
    return length, chain


def ref_chain_search(F: CoverFamily, phi: dict, u: str, mode: str):
    """_chain_search as it stood with successor lists: one _step per pair
    of centered sets at each level, and max over each list, in index
    order, for a node's successor."""
    pos, need, hit = _order_masks(F, phi, u, mode)
    sets = [s for s, _ in centered_subsets(F)]
    masks = [mask_of(pos[v] for v in s) for s in sets]
    # level 0 asks for no group, and _step(s, t, ()) is s ⊆ t
    succ = [[[j for j, t in enumerate(masks) if not s & ~t] for s in masks]]
    # each further level asks the fresh part to hit one more group
    for h in hit:
        succ.append([
            [j for j in out if _step(s, masks[j], (h,))]
            for s, out in zip(masks, succ[-1])
        ])

    def rank_at(cap: int):
        if cap < 0:
            return 0, ()
        lengths = [[1] * len(sets)]  # lengths[i][x]: from (sets[x], cap - i)
        choices = [[None] * len(sets)]
        for k in range(cap - 1, -1, -1):
            nxt = lengths[-1]
            pick = [
                max(out, key=nxt.__getitem__, default=None)
                for out in succ[bisect_left(need, k)]
            ]
            lengths.append([1 if j is None else nxt[j] + 1 for j in pick])
            choices.append(pick)
        length = max(lengths[-1])
        x, k, chain = lengths[-1].index(length), 0, []
        while x is not None:
            chain.append((sets[x], k))
            x = choices[cap - k][x]
            k += 1
        return length, tuple(chain)

    return rank_at


def _with_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in got]


def _extra_groups(phi: dict, seed: int) -> dict:
    """phi with up to two more groups per member, some beyond the family's."""
    rng = random.Random(seed)
    return {
        v: g | frozenset(rng.sample(range(6), rng.randint(0, 2)))
        for v, g in phi.items()
    }


def _assert_search_matches_reference(F: CoverFamily, phi: dict) -> None:
    ids = sorted(F.by_id())
    assert centered_subsets(F) == [
        (s, mask_of(ids.index(v) for v in s)) for s, _ in ref_centered_subsets(F)
    ]
    n_members = len(F.by_id())
    for u in sorted(F.by_id()):
        for mode in ("membership", "equality"):
            last = max(phi[u]) + n_members + 3
            for cap in range(last + 1):
                args = (F, phi, u, cap, mode)
                assert _with_warnings(max_increasing_chain, *args) == (
                    _with_warnings(ref_max_increasing_chain, *args)
                ), (u, mode, cap)
            want, _ = _with_warnings(
                ref_max_increasing_chain, F, phi, u, last - 2, mode
            )
            assert stabilized_rank(F, phi, u, mode) == want


# (members, seed): every size gen allows, the large ones on seeds with few
# centered sets (17, 32 and 38), since the search grows with their number
_ORACLE_FAMILIES = [(n, s) for n in range(1, 6) for s in (11, 12, 13)] + [
    (6, 14), (7, 15), (8, 14),
]


@pytest.mark.parametrize("n, seed", _ORACLE_FAMILIES)
def test_rank_search_matches_reference(n, seed):
    F = gen.random_staged_family(n, seed)
    _assert_search_matches_reference(F, phi_from_witness(F))
    for ms in list(F.groups().values()) + [F.members]:
        assert centered_poset_rank(ms, F.ground_mask) == (
            ref_centered_poset_rank(ms, F.ground_mask)
        )


@pytest.mark.parametrize("seed", range(4))
def test_rank_search_matches_reference_extra_groups(seed):
    F = gen.random_staged_family(2 + seed, 100 + seed)
    _assert_search_matches_reference(
        F, _extra_groups(phi_from_witness(F), seed)
    )


def _assert_chain_search_matches_list_version(F, phi, seed) -> None:
    """For one member u of F, a different one from seed to seed, length
    and chain agree with ref_chain_search at every cap from 0 to
    max(phi(u)) + |members| + 2, in both modes."""
    ids = sorted(F.by_id())
    u = ids[seed % len(ids)]
    last = max(phi[u]) + len(ids) + 2
    for mode in ("membership", "equality"):
        got = _chain_search(F, phi, u, mode)
        want = ref_chain_search(F, phi, u, mode)
        for cap in range(last + 1):
            assert got(cap) == want(cap), (seed, u, mode, cap)


def _with_twins(F: CoverFamily, seed: int) -> CoverFamily:
    """F with one or two members copied under new ids, in one or two
    groups: equal point sets give equally long chains through different
    sets, so the searches must break the ties alike."""
    rng = random.Random(seed)
    ids = sorted(F.by_id())
    twins = [
        Member(f"{m.id}~", m.points, g, m.stages)
        for v in rng.sample(ids, min(len(ids), rng.randint(1, 2)))
        for m in [F.by_id()[v]]
        for g in sorted({m.group, rng.randrange(4)})
    ]
    return CoverFamily(F.ground, F.members + tuple(twins))


# 400 families of 4-8 members, in runs of 50 seeds
@pytest.mark.parametrize("first", range(0, 400, 50))
def test_chain_search_matches_list_version(first):
    for seed in range(first, first + 50):
        F = gen.random_staged_family(4 + seed % 5, seed)
        _assert_chain_search_matches_list_version(F, phi_from_witness(F), seed)


def test_chain_search_matches_list_version_extra_groups():
    for seed in range(400, 500):
        F = gen.random_staged_family(4 + seed % 5, seed)
        phi = _extra_groups(phi_from_witness(F), seed)
        _assert_chain_search_matches_list_version(F, phi, seed)


def test_chain_search_matches_list_version_twins():
    for seed in range(500, 600):
        T = _with_twins(gen.random_staged_family(4 + seed % 3, seed), seed)
        assert len({m.points for m in T.by_id().values()}) < len(T.by_id())
        _assert_chain_search_matches_list_version(T, phi_from_witness(T), seed)


def _spread(phi: dict, gap: int) -> dict:
    """phi with each group g moved to g·gap."""
    return {v: frozenset(g * gap for g in gs) for v, gs in phi.items()}


def test_chain_search_matches_list_version_wide_gaps():
    """Values of phi(u) further apart than |members| + 1, where the
    filled rows of one level repeat and are skipped, at every cap."""
    for seed in range(600, 640):
        F = gen.random_staged_family(2 + seed % 4, seed)
        gap = len(F.by_id()) + 2 + seed % 3
        _assert_chain_search_matches_list_version(
            F, _spread(phi_from_witness(F), gap), seed
        )


def test_chain_search_far_apart_phi_values():
    """phi(u) = {0, 10⁹} gives the chain and rank of {0, g} for any gap
    g past 2·|members| + 2, where the rows at the chain's counters no
    longer see the top of the level; the list version reads the small
    gap, the bitset search the large one, without a row per counter."""
    for seed in range(20):
        F = gen.random_staged_family(2 + seed % 4, seed)
        n = len(F.by_id())
        u = sorted(F.by_id())[seed % n]
        for mode in ("membership", "equality"):
            small = dict(phi_from_witness(F), **{u: frozenset({0, 2 * n + 3})})
            large = dict(small, **{u: frozenset({0, 10**9})})
            want = ref_chain_search(F, small, u, mode)(2 * n + 3 + n + 1)
            assert stabilized_rank(F, large, u, mode) == want, (seed, mode)


def test_strict_supersets_follow_their_subsets():
    """The closed-form rows of _chain_search take their depths in one pass
    by decreasing index, which needs every strict superset of a centered
    set to come after it in centered_subsets order."""
    families = [gen.random_staged_family(4 + s % 5, s) for s in range(400)]
    families += [
        _with_twins(gen.random_staged_family(4 + s % 3, s), s)
        for s in range(500, 600)
    ]
    for F in families:
        sets = [s for s, _ in centered_subsets(F)]
        for i, s in enumerate(sets):
            assert all(not s < t for t in sets[:i]), (F, s)


def test_empty_phi_value_chain_search():
    """With phi(u) empty nothing need be hit: every set steps to itself,
    and the searches agree on the chain up the first set."""
    for seed in range(20):
        F = gen.random_staged_family(2 + seed % 5, seed)
        phi = dict(phi_from_witness(F))
        u = sorted(F.by_id())[seed % len(F.by_id())]
        phi[u] = frozenset()
        for mode in ("membership", "equality"):
            got = _chain_search(F, phi, u, mode)
            want = ref_chain_search(F, phi, u, mode)
            for cap in range(-1, 6):
                assert got(cap) == want(cap), (seed, mode, cap)


def test_rank_search_input_errors():
    F = fam(["x"], ("u", ["x"], 0))
    with pytest.raises(KeyError, match="no phi value for 'zz'"):
        stabilized_rank(F, {"u": frozenset({0})}, "zz")
    with pytest.raises(EmptyPhiValue):
        stabilized_rank(F, {"u": frozenset()}, "u")
    big = CoverFamily(
        ("x",),
        tuple(Member(f"u{i}", 1, 0) for i in range(_CENTERED_ENUM_CAP + 1)),
    )
    with pytest.raises(TooLarge):
        centered_subsets(big)
    # the ord route has no cap: all 19 members share the point x
    rep = centered_poset_rank(big.members, big.ground_mask)
    assert rep.max_centered_size == rep.max_ord == _CENTERED_ENUM_CAP + 1
    assert rep.chain[0] == tuple(range(_CENTERED_ENUM_CAP + 1))


def test_missing_phi_value_is_named():
    F = fam(["x"], ("u0", ["x"], 0), ("u1", ["x"], 1))
    phi = {"u0": frozenset({2})}
    a, b = (frozenset(), 0), (frozenset({"u1"}), 3)
    with pytest.raises(EmptyPhiValue, match="^no phi value for member 'u1'$"):
        stabilized_rank(F, phi, "u0")
    with pytest.raises(EmptyPhiValue, match="^no phi value for member 'u1'$"):
        max_increasing_chain(F, phi, "u0", 1)
    with pytest.raises(EmptyPhiValue, match="^no phi value for member 'u1'$"):
        gulko_lt(F, a, b, phi, "u0")


def test_unknown_mode_rejected():
    F = fam(["x"], ("u", ["x"], 0))
    phi = phi_from_witness(F)
    a, b = (frozenset(), 0), (frozenset({"u"}), 1)
    with pytest.raises(ValueError, match="^unknown mode 'strict'$"):
        stabilized_rank(F, phi, "u", "strict")
    with pytest.raises(ValueError, match="^unknown mode 'strict'$"):
        gulko_lt(F, a, b, phi, "u", "strict")


# -- the rank search at the benchmark's sizes ---------------------------------


# (members, seed) of 7- and 8-member families with 44, 64, 58 and 80
# centered sets
_BENCH_SIZED_FAMILIES = [(7, 21), (7, 24), (8, 23), (8, 30)]


@pytest.mark.parametrize("n, seed", _BENCH_SIZED_FAMILIES)
def test_stabilized_rank_matches_reference_at_bench_sizes(n, seed):
    F = gen.random_staged_family(n, seed)
    assert 40 <= len(centered_subsets(F)) <= 80
    phi = phi_from_witness(F)
    for u in sorted(F.by_id()):
        cap = max(phi[u]) + len(F.by_id()) + 1
        for mode in ("membership", "equality"):
            want, _ = _with_warnings(
                ref_max_increasing_chain, F, phi, u, cap, mode
            )
            assert stabilized_rank(F, phi, u, mode) == want, (u, mode)


@pytest.mark.parametrize("n, seed", _BENCH_SIZED_FAMILIES + [(10, 31)])
def test_rank_stable_past_the_derived_cap(n, seed):
    """stabilized_rank searches at cap = max(phi(u)) + |members| + 1 only;
    the search at cap, cap + 1 and cap + 2 gives the same length, and at
    cap the same chain."""
    F = gen.random_staged_family(n, seed)
    phi = phi_from_witness(F)
    for u in sorted(F.by_id()):
        cap = max(phi[u]) + len(F.by_id()) + 1
        for mode in ("membership", "equality"):
            got = stabilized_rank(F, phi, u, mode)
            runs = [
                _with_warnings(max_increasing_chain, F, phi, u, c, mode)
                for c in (cap, cap + 1, cap + 2)
            ]
            assert runs[0][0] == got, (u, mode)
            # no CapTooSmallWarning above cap: each length equals the one
            # a cap lower
            above = [(result[0], warned) for result, warned in runs[1:]]
            assert above == [(got[0], [])] * 2, (u, mode)


@pytest.mark.parametrize("n, seed", _BENCH_SIZED_FAMILIES)
def test_huge_cap_gives_the_derived_cap_length(n, seed):
    """Rows above max phi(u) cost nothing per row, so a cap of 10**6 is
    answered at once, with the derived cap's length and no warning."""
    F = gen.random_staged_family(n, seed)
    phi = phi_from_witness(F)
    for u in sorted(F.by_id()):
        (length, chain), warned = _with_warnings(
            max_increasing_chain, F, phi, u, 10**6
        )
        assert warned == []
        assert length == len(chain) == stabilized_rank(F, phi, u)[0]
        for a, b in zip(chain, chain[1:]):
            assert gulko_lt(F, a, b, phi, u)


def test_ten_member_chains_step_by_step():
    F = gen.random_staged_family(10, 31)
    assert len(F.by_id()) == 10
    phi = phi_from_witness(F)
    for u in sorted(F.by_id()):
        cap = max(phi[u]) + len(F.by_id()) + 1
        for mode in ("membership", "equality"):
            length, chain = stabilized_rank(F, phi, u, mode)
            assert len(chain) == length <= rank_upper_bound(F, phi, u)
            assert all(0 <= k <= cap for _, k in chain)
            for a, b in zip(chain, chain[1:]):
                assert b[1] == a[1] + 1
                assert gulko_lt(F, a, b, phi, u, mode)
                assert gulko_lt_brute(F, a, b, phi, u, mode)


_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_rank_survey_output_unchanged():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    out = subprocess.run(
        [
            sys.executable,
            str(_ROOT / "scripts" / "rank_survey.py"),
            "--families", "50",
            "--max-members", "5",
        ],
        env=env,
        capture_output=True,
        check=True,
        timeout=120,
    ).stdout
    assert hashlib.md5(out).hexdigest() == "7b218f88c65140db41608ba9436bc84a"
