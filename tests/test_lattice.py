import json
import random
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallman import bits, cli, gen
from wallman.bits import (
    iter_bits,
    mask_of,
    popcount,
    reflexive_transitive_closure,
    subset,
    transpose,
    union_closure,
)
from wallman.errors import (
    NoBounds,
    NotALattice,
    NotAPoset,
    WallmanError,
)
from wallman.filters import enumerate_filters, ultrafilter_extensions
from wallman.homs import alexandrov, compose, identity_hom, image_separates
from wallman.lattice import (
    SIZE_CAP,
    FiniteLattice,
    _disjoint_masks,
    _distributivity_scan,
    _join_to_top_masks,
    _key_name,
    _meets_with_meet_irreducibles,
    atoms,
    attach_bottom,
    chain_lattice,
    generated_sublattice,
    is_boolean,
    is_distributive,
    is_generating,
    is_normal,
    is_separative,
    join_irreducibles,
    join_primes,
    lattice_report,
    load_lattice,
    opposite,
    powerset_lattice,
)
from wallman.spaces import build_space, theorem_suite

small_lattices = st.builds(
    gen.random_downset_lattice,
    st.integers(1, 6),
    st.integers(0, 10**6),
)


@st.composite
def closure_system_lattices(draw):
    """Random ∩-closed set family plus the full set, ordered by inclusion,
    loaded through from_up_rows with its ids in random order."""
    k = draw(st.integers(1, 4))
    full = (1 << k) - 1
    family = set(draw(st.lists(st.integers(0, full), max_size=10))) | {full}
    while True:
        more = {a & b for a in family for b in family} - family
        if not more:
            break
        family |= more
    keys = draw(st.permutations(sorted(family)))
    up = [
        mask_of(j for j, t in enumerate(keys) if subset(s, t)) for s in keys
    ]
    return FiniteLattice.from_up_rows([str(s) for s in keys], up)


def oracle_lattices(corpus):
    """The fixtures, their opposites, attach_bottom of both, and seeded
    down-set lattices of up to 64 elements."""
    out = []
    for L in corpus.values():
        for M in (L, opposite(L)):
            out += [M, attach_bottom(M)]
    out += [gen.random_downset_lattice(1 + seed % 6, seed) for seed in range(40)]
    return out


def _scan_bound(names, rows, a: int, b: int) -> int:
    """Greatest element of rows[a] & rows[b]; rows=down gives meet.

    The definitional reference: the candidate of largest row is the only
    one that can be greatest, and it is iff every candidate lies below it.
    """
    cand = rows[a] & rows[b]
    if cand == 0:
        raise NotALattice(
            f"{names[a]}, {names[b]} have no common bound", witness=(a, b)
        )
    best = -1
    best_pc = -1
    for c in iter_bits(cand):
        pc = popcount(rows[c])
        if pc > best_pc:
            best, best_pc = c, pc
    if not subset(cand, rows[best]):
        raise NotALattice(
            f"{names[a]}, {names[b]} lack a greatest common bound",
            witness=(a, b),
        )
    return best


def _reference_tables(names, down, up):
    """Meet and join tables by a _scan_bound call per pair, all meets
    first, pairs in id order."""
    n = len(names)
    return tuple(
        [[_scan_bound(names, rows, a, b) for b in range(n)] for a in range(n)]
        for rows in (down, up)
    )


def _tables(L):
    """Meet and join tables read through L.meet and L.join."""
    rng = range(L.n)
    return tuple(
        [[op(a, b) for b in rng] for a in rng] for op in (L.meet, L.join)
    )


# -- loading ----------------------------------------------------------------


def test_load_one_element():
    L = load_lattice({"elements": ["e"], "covers": []})
    assert L.n == 1 and L.bottom == L.top == 0


def test_load_n5(n5):
    assert n5.n == 5
    assert n5.names[n5.bottom] == "0" and n5.names[n5.top] == "1"


def test_load_cycle_rejected():
    with pytest.raises(NotAPoset):
        load_lattice({"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]})


def test_load_missing_bounds():
    with pytest.raises(NoBounds):
        load_lattice({"elements": ["a", "b"], "covers": []})


def test_load_missing_sup():
    # two maximal elements over two minimal ones: no join of the minima
    with pytest.raises((NotALattice, NoBounds)):
        load_lattice(
            {
                "elements": ["0", "a", "b", "x", "y", "1"],
                "covers": [
                    ["0", "a"], ["0", "b"],
                    ["a", "x"], ["a", "y"], ["b", "x"], ["b", "y"],
                    ["x", "1"], ["y", "1"],
                ],
            }
        )


# -- predicates -------------------------------------------------------------


def test_distributive_examples(corpus):
    assert is_distributive(corpus["powerset2"])[0]
    flag, wit = is_distributive(corpus["n5"])
    assert not flag and wit is not None
    a, b, c = wit
    L = corpus["n5"]
    assert L.meet(a, L.join(b, c)) != L.join(L.meet(a, b), L.meet(a, c))
    assert not is_distributive(corpus["m3"])[0]


def test_normal_examples(chain3, fivepoint, powerset3):
    assert is_normal(chain3)[0]
    flag, wit = is_normal(fivepoint)
    assert not flag
    assert sorted(fivepoint.names[x] for x in wit) == ["a", "b"]
    assert is_normal(powerset3)[0]


def test_normal_needs_no_distributivity(n5):
    """is_normal evaluates the bare predicate on a non-distributive
    lattice, verdict and witness as the pairwise reference has them."""
    assert not is_distributive(n5)[0]
    assert is_normal(n5) == ref_is_normal(n5)


def test_separative_examples(corpus, chain3, fivepoint):
    assert is_separative(corpus["powerset2"])[0]
    flag, wit = is_separative(chain3)
    assert not flag
    assert (chain3.names[wit[0]], chain3.names[wit[1]]) == ("1", "m")
    flag, wit = is_separative(fivepoint)
    assert not flag
    assert (fivepoint.names[wit[0]], fivepoint.names[wit[1]]) == ("1", "c")


def test_boolean_examples(corpus, chain3, fivepoint):
    assert is_boolean(corpus["powerset3"])
    assert not is_boolean(chain3)
    assert not is_boolean(fivepoint)


def test_report_witnesses_recheck(n5):
    rep = lattice_report(n5)
    assert not rep.is_distributive and "distributive" in rep.witnesses


# -- fast routes against their oracles --------------------------------------


def ref_distributivity_scan(L):
    """The plain triple loop: (False, first failing (a, b, c)) or
    (True, None)."""
    meet, join = L.meet, L.join
    rng = range(L.n)
    for a in rng:
        for b in rng:
            ab = meet(a, b)
            for c in rng:
                if meet(a, join(b, c)) != join(ab, meet(a, c)):
                    return (False, (a, b, c))
    return (True, None)


def test_join_prime_route_matches_scan_on_fixtures(corpus):
    for L in corpus.values():
        for M in (L, opposite(L)):
            assert is_distributive(M) == ref_distributivity_scan(M)


@given(closure_system_lattices())
@settings(max_examples=150, deadline=None)
def test_join_prime_route_matches_scan_on_closure_systems(L):
    assert is_distributive(L) == ref_distributivity_scan(L)


def fixture_spec(name):
    """A shipped fixture's lattice file, as parsed JSON."""
    return json.loads(
        resources.files("wallman").joinpath(f"fixtures/{name}.json").read_text()
    )


def stacked(parts, seed):
    """The ordinal sum of the lattice specs and chains in parts, bottom
    first (an int m is an m-element chain), each part's top covered by the
    next part's bottom; elements listed in a seeded random order.  A
    spec lists its bottom first and its top last."""
    rng = random.Random(seed)
    names, covers, below = [], [], None
    for i, part in enumerate(parts):
        if isinstance(part, int):
            part_names = [f"c{i}.{j}" for j in range(part)]
            part_covers = [list(p) for p in zip(part_names, part_names[1:])]
        else:
            part_names = [f"{i}.{x}" for x in part["elements"]]
            part_covers = [[f"{i}.{a}", f"{i}.{b}"] for a, b in part["covers"]]
        if below is not None:
            covers.append([below, part_names[0]])
        names += part_names
        covers += part_covers
        below = part_names[-1]
    rng.shuffle(names)
    return load_lattice({"elements": names, "covers": covers})


def test_witness_scan_matches_the_triple_loop(corpus):
    """The scan that skips elements comparable to all others finds the
    plain loop's first failing triple, on the fixtures, their opposites
    and chains stacked under, over and between M3 and N5."""
    m3, n5 = fixture_spec("m3"), fixture_spec("n5")
    lattices = list(corpus.values())
    lattices += [opposite(L) for L in lattices]
    shapes = [
        [9, m3], [m3, 9], [4, n5, 5], [n5, 3, m3], [m3, 2, n5, 6], [1, m3, 1],
        [40, m3],
    ]
    lattices += [stacked(shape, seed) for seed in range(3) for shape in shapes]
    failing = 0
    for L in lattices:
        want = ref_distributivity_scan(L)
        assert _distributivity_scan(L) == want, L.name
        failing += not want[0]
    assert failing >= 3 * len(shapes)  # every stacked lattice fails


def test_distributivity_exact_above_old_cap():
    L = chain_lattice(200)
    assert L.keys is None
    assert is_distributive(L) == (True, None)
    B = gen.boolean_algebra(8)  # keyed, 256 elements
    assert is_distributive(B) == (True, None)


@given(closure_system_lattices())
@settings(max_examples=100, deadline=None)
def test_join_irreducibles_have_one_lower_cover(L):
    def lower_covers(a):
        strict = L.down_mask(a) & ~(1 << a)
        return [m for m in range(L.n) if strict >> m & 1
                and L.up_mask(m) & strict == 1 << m]

    assert join_irreducibles(L) == tuple(
        a for a in range(L.n) if len(lower_covers(a)) == 1
    )


@given(closure_system_lattices())
@settings(max_examples=100, deadline=None)
def test_tables_match_scan_bound(L):
    assert _tables(L) == _reference_tables(L.names, L._down, L._up)


def test_tables_match_scan_bound_on_fixtures(corpus):
    for L in corpus.values():
        for M in (L, opposite(L), attach_bottom(L)):
            assert _tables(M) == _reference_tables(
                M.names, M._down, M._up
            )


def _relabel(rows, perm):
    """The relation rows with element i renamed perm[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        out[perm[i]] = mask_of(perm[j] for j in iter_bits(row))
    return out


def _bounded_poset(seed, p, edge_prob=0.4):
    """gen.random_poset(p, seed) with a new bottom and top, ids shuffled:
    up-rows of p + 2 elements."""
    poset = gen.random_poset(p, seed, edge_prob=edge_prob)
    n = p + 2
    # element 0 is a new bottom, 1..p the poset, p+1 a new top
    top = 1 << (p + 1)
    up = [mask_of(range(n))] + [(row << 1) | top for row in poset] + [top]
    perm = list(range(n))
    random.Random(seed).shuffle(perm)  # ids need not be sorted
    return _relabel(up, perm)


def test_non_lattice_errors_match_scan_bound():
    """Bounded random posets: the lattice check raises the NotALattice of
    the per-pair reference, with the same message and witness, or neither
    does and meet/join agree with it on every pair."""
    outcomes = set()
    for seed in range(120):
        up = _bounded_poset(seed, 2 + seed % 6)
        names = [f"e{i}" for i in range(len(up))]
        try:
            got = FiniteLattice.from_up_rows(names, up)
        except NotALattice as e:
            got = (str(e), e.witness)
        try:
            want = _reference_tables(names, transpose(up), up)
        except NotALattice as e:
            want = (str(e), e.witness)
        if isinstance(got, FiniteLattice):
            got = _tables(got)
        assert got == want
        outcomes.add(isinstance(want[0], str))
    assert outcomes == {True, False}


def _ref_antisymmetry(names, rows):
    """The per-bit scan: first i, then its lowest j != i with i <= j <= i."""
    for i in range(len(rows)):
        for j in iter_bits(rows[i]):
            if j != i and rows[j] >> i & 1:
                return f"antisymmetry fails on {names[i]}, {names[j]}"
    return None


def test_antisymmetry_matches_per_bit_scan():
    """Seeded relations, most with a planted cycle of length 2 to 4:
    load_lattice raises the NotAPoset message of the per-bit scan over the
    closure, or no NotAPoset when the scan finds none."""
    failed = set()
    for seed in range(120):
        rng = random.Random(seed)
        n = 3 + seed % 6
        names = [f"e{i}" for i in range(n)]
        pairs = {(i, j) for i in range(n) for j in range(n)
                 if i != j and rng.random() < 0.15}
        cycle = 0 if seed % 4 == 0 else 2 + seed % 3
        ring = rng.sample(range(n), min(cycle, n))
        if len(ring) > 1:
            pairs |= set(zip(ring, ring[1:] + ring[:1]))
        spec = {"elements": names,
                "leq": [[names[i], names[j]] for i, j in sorted(pairs)]}
        rows = [0] * n
        for i, j in pairs:
            rows[i] |= 1 << j
        want = _ref_antisymmetry(names, reflexive_transitive_closure(rows))
        try:
            load_lattice(spec)
            got = None
        except NotAPoset as e:
            got = str(e)
        except (NoBounds, NotALattice):
            got = None
        assert got == want
        if want is not None:
            failed.add(len(ring))
    assert {2, 3, 4} <= failed


def ref_closure(rows):
    """Warshall's loop, the oracle of reflexive_transitive_closure."""
    rows = [row | 1 << i for i, row in enumerate(rows)]
    n = len(rows)
    for k in range(n):
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    return rows


def _seeded_relations():
    """(rows, planted cycle length) for seeded relations on 1 to 12
    elements: random edges, self-loops included, most with a planted
    cycle of length 2 to 4 (0 for none)."""
    out = []
    for seed in range(150):
        rng = random.Random(seed)
        n = 1 + seed % 12
        rows = [
            mask_of(j for j in range(n) if rng.random() < 0.15) for _ in range(n)
        ]
        ring = rng.sample(range(n), min(seed % 5, n))
        if len(ring) > 1:
            for i, j in zip(ring, ring[1:] + ring[:1]):
                rows[i] |= 1 << j
        out.append((rows, len(ring) if len(ring) > 1 else 0))
    return out


def _seeded_posets():
    """Relations with no cycle but self-loops: outputs of gen.random_poset
    at 0 to 16 points, each with its ids shuffled, as given and thinned
    to a random sub-relation with a self-loop on every element."""
    out = []
    for seed in range(80):
        rng = random.Random(seed)
        n = seed % 17
        P = gen.random_poset(n, seed, edge_prob=rng.choice((0.1, 0.3, 0.6)))
        perm = list(range(n))
        rng.shuffle(perm)
        out.append(_relabel(P, perm))
        thin = [row & rng.getrandbits(n) | 1 << i for i, row in enumerate(P)]
        out.append(_relabel(thin, perm))
    return out


def test_closure_matches_warshall():
    """The depth-first closure equals Warshall's loop on relations with
    self-loops and cycles of length 2 to 4, and on random posets, which
    it leaves as they are."""
    cycles = set()
    for rows, cycle in _seeded_relations():
        assert reflexive_transitive_closure(rows) == ref_closure(rows), rows
        cycles.add(cycle)
    assert cycles == {0, 2, 3, 4}
    for n in range(17):
        for seed in range(3):
            P = gen.random_poset(n, seed)
            assert ref_closure(P) == P
    for rows in _seeded_posets():
        assert reflexive_transitive_closure(rows) == ref_closure(rows), rows


def test_acyclic_input_never_reaches_warshall(monkeypatch, corpus):
    """Relations whose only cycles are self-loops, and every fixture file,
    are closed by the depth-first search alone; a 2-cycle is not."""
    calls = []

    def spy(rows):
        calls.append(len(rows))
        return ref_closure(rows)

    monkeypatch.setattr(bits, "_warshall", spy)
    for rows in _seeded_posets():
        reflexive_transitive_closure(rows)
    for name in corpus:
        load_lattice(fixture_spec(name))
    assert calls == []
    assert reflexive_transitive_closure([0b10, 0b01, 0b010]) == [0b11, 0b11, 0b111]
    assert calls == [3]


def test_covers_chain_at_size_cap_loads():
    """A chain of SIZE_CAP elements given by its covers, listed top first:
    the search from the bottom runs through every element, SIZE_CAP deep,
    with no RecursionError."""
    names = [f"c{i}" for i in range(SIZE_CAP)]
    spec = {
        "elements": names[::-1],
        "covers": [[lo, hi] for lo, hi in zip(names, names[1:])],
    }
    L = load_lattice(spec)
    assert L.n == SIZE_CAP
    assert L.names[L.bottom] == "c0" and L.names[L.top] == names[-1]
    assert L.up_mask(L.bottom) == L.full_mask
    assert L.up_mask(SIZE_CAP - 2) == (1 << (SIZE_CAP - 1)) - 1



def _cover_rows(up):
    """The covering relation of a partial order given by its up-rows: j
    covers i when i < j with nothing strictly between."""
    out = []
    for i, row in enumerate(up):
        strict = row & ~(1 << i)
        above = 0
        for j in iter_bits(strict):
            above |= up[j] & ~(1 << j)
        out.append(strict & ~above)
    return out


def _parts(L):
    return L._up, L._down, L.bottom, L.top, _tables(L)


def test_generating_rows_build_the_lattice_of_their_closure(corpus):
    """from_up_rows on the rows of a lattice order, ids shuffled, keeps
    them; on its covers alone or its strict order (no self-loops) it
    builds the same lattice: rows, bounds and meet and join tables."""
    rng = random.Random(25)
    lattices = list(corpus.values())
    lattices += [gen.random_downset_lattice(1 + s % 6, s) for s in range(30)]
    for L in lattices:
        perm = list(range(L.n))
        rng.shuffle(perm)
        names = [None] * L.n
        for i, p in enumerate(perm):
            names[p] = L.names[i]
        closed = _relabel([L.up_mask(a) for a in range(L.n)], perm)
        want = FiniteLattice.from_up_rows(names, closed)
        assert want._up == closed
        strict = [row & ~(1 << i) for i, row in enumerate(closed)]
        for rows in (_cover_rows(closed), strict):
            got = FiniteLattice.from_up_rows(names, rows)
            assert _parts(got) == _parts(want), L


def _outcome(build, *args):
    """The lattice's parts, or the type, message and witness raised."""
    try:
        return _parts(build(*args))
    except WallmanError as e:
        return type(e), str(e), getattr(e, "witness", None)


def test_from_up_rows_fails_as_load_lattice():
    """Seeded relations with self-loops and planted cycles: from_up_rows
    on the rows and load_lattice on the same pairs as `leq` give the same
    lattice or the same error, and a cycle raises the NotAPoset of the
    per-bit scan over the closure."""
    cycles = set()
    for rows, cycle in _seeded_relations():
        names = [f"e{i}" for i in range(len(rows))]
        spec = {
            "elements": names,
            "leq": [[names[i], names[j]] for i, r in enumerate(rows)
                    for j in iter_bits(r)],
        }
        got = _outcome(FiniteLattice.from_up_rows, names, rows)
        assert got == _outcome(load_lattice, spec), rows
        if cycle:
            want = _ref_antisymmetry(names, ref_closure(rows))
            assert got == (NotAPoset, want, None), rows
            cycles.add(cycle)
    assert cycles == {2, 3, 4}


@pytest.mark.parametrize(
    "rows, element",
    [([0b111, 0b110], "a"), ([0b11, 0b110], "b"), ([0b11, -1], "b")],
)
def test_from_up_rows_rejects_an_id_outside_the_elements(rows, element):
    with pytest.raises(ValueError, match=f"row of {element} holds an element id"):
        FiniteLattice.from_up_rows(["a", "b"], rows)


def test_from_up_rows_rejects_a_row_count_unlike_the_names():
    with pytest.raises(ValueError, match="1 rows for 2 elements"):
        FiniteLattice.from_up_rows(["a", "b"], [0b11])


def test_built_rows_are_kept(corpus):
    """chain_lattice, opposite and attach_bottom hand from_up_rows rows
    that are already a partial order, and the lattice keeps them."""
    for k in range(1, 40):
        C = chain_lattice(k)
        assert C._up == [mask_of(range(i, k)) for i in range(k)]
        assert C._down == [mask_of(range(i + 1)) for i in range(k)]
    for L in corpus.values():
        n = L.n
        M = opposite(L)
        assert (M._up, M._down) == (L._down, L._up)
        B = attach_bottom(L)
        assert B._up == L._up + [(1 << (n + 1)) - 1]
        assert B._down == [row | 1 << n for row in L._down] + [1 << n]

def ref_meetless_pair(names, up):
    """(message, witness) of the first pair (a, b), a < b, in id order
    without a meet, by _scan_bound per pair; None for a lattice."""
    down = transpose(up)
    for a in range(len(up)):
        for b in range(a + 1, len(up)):
            try:
                _scan_bound(names, down, a, b)
            except NotALattice as e:
                return str(e), e.witness
    return None


def _thinned_downset_lattices():
    """Up-rows of seeded down-set lattices with a random set of elements
    other than the bounds dropped, ids shuffled: bounded posets of up to
    about 90 elements, some of them lattices."""
    out = []
    for seed in range(60):
        rng = random.Random(seed)
        L = gen.random_downset_lattice(3 + seed % 5, seed)
        drop = rng.choice((0.0, 0.05, 0.2))
        keep = [
            a for a in range(L.n)
            if a in (L.bottom, L.top) or rng.random() >= drop
        ]
        sub = mask_of(keep)
        pos = {a: i for i, a in enumerate(keep)}
        up = [mask_of(pos[b] for b in iter_bits(L.up_mask(a) & sub)) for a in keep]
        perm = list(range(len(keep)))
        rng.shuffle(perm)
        out.append(_relabel(up, perm))
    return out


def test_meet_irreducible_check_matches_pair_scan():
    """On seeded bounded posets the meet-irreducible criterion gives the
    verdict of the scan over all pairs, and from_up_rows raises the
    scan's NotALattice message and witness, or builds the lattice."""
    posets = [_bounded_poset(seed, 2 + seed % 15, 0.2 + seed % 3 / 10)
              for seed in range(90)]
    outcomes = set()
    for up in posets + _thinned_downset_lattices():
        names = [f"e{i}" for i in range(len(up))]
        want = ref_meetless_pair(names, up)
        down = transpose(up)
        meet_of = {row: i for i, row in enumerate(down)}
        join_of = {row: i for i, row in enumerate(up)}
        verdict = _meets_with_meet_irreducibles(up, down, meet_of, join_of)
        assert verdict == (want is None), up
        try:
            got = FiniteLattice.from_up_rows(names, up)
        except NotALattice as e:
            got = (str(e), e.witness)
        assert (want is None and isinstance(got, FiniteLattice)) or got == want
        outcomes.add(verdict)
    assert outcomes == {True, False}


def _bowtie_with_chain(k):
    """0 < a, b < c, d < 1 plus a chain of k fillers from 0 to 1: c and d
    have a and b as maximal common lower bounds, so no meet."""
    fill = [f"f{i}" for i in range(k)]
    chain = ["0"] + fill + ["1"]
    covers = [["0", "a"], ["0", "b"], ["a", "c"], ["a", "d"], ["b", "c"],
              ["b", "d"], ["c", "1"], ["d", "1"]]
    covers += [[lo, hi] for lo, hi in zip(chain, chain[1:])]
    return {"elements": ["0", "a", "b", "c", "d", "1"] + fill, "covers": covers}


@pytest.mark.parametrize("fill", [10, 1100])
def test_non_lattice_rejected_at_every_size(fill, tmp_path, capsys):
    """The lattice check runs above 1024 elements too, where the load used
    to accept this poset and `space` reported separation axioms for it."""
    spec = _bowtie_with_chain(fill)
    with pytest.raises(NotALattice) as info:
        load_lattice(spec)
    assert info.value.witness == (3, 4)
    path = tmp_path / "bowtie.json"
    path.write_text(json.dumps(spec))
    code = cli.main(["space", str(path), "--kind", "prime", "--axioms"])
    err = capsys.readouterr().err
    assert code == 2 and err == "error: c, d lack a greatest common bound\n"


def test_meet_join_above_old_cap():
    L = chain_lattice(1100)
    down = [L.down_mask(i) for i in range(L.n)]
    up = [L.up_mask(i) for i in range(L.n)]
    rng = random.Random(0)
    for _ in range(300):
        a, b = rng.randrange(L.n), rng.randrange(L.n)
        assert L.meet(a, b) == _scan_bound(L.names, down, a, b)
        assert L.join(a, b) == _scan_bound(L.names, up, a, b)


# -- structural predicates against their pairwise definitions --------------


def ref_disjoint_masks(L):
    """disj[b] = {c : c∧b = 0}, one meet per pair."""
    return [
        mask_of(c for c in range(L.n) if L.meet(c, b) == L.bottom)
        for b in range(L.n)
    ]


def ref_join_to_top_masks(L):
    """cover[a] = {x : a∨x = 1}, one join per pair."""
    return [
        mask_of(x for x in range(L.n) if L.join(a, x) == L.top)
        for a in range(L.n)
    ]


def ref_is_separative(L):
    """First (a, b), 0 < a ≰ b, with no c in (0, a] disjoint from b."""
    disj = ref_disjoint_masks(L)
    nonbot = L.full_mask & ~(1 << L.bottom)
    for a in range(L.n):
        if a == L.bottom:
            continue
        below = L.down_mask(a) & nonbot
        for b in range(L.n):
            if not L.leq(a, b) and not below & disj[b]:
                return (False, (a, b))
    return (True, None)


def ref_is_normal(L):
    """First disjoint pair (a, b), b >= a, with no a1 disjoint from b and
    b1 disjoint from a such that a1∨b1 = 1."""
    disj = ref_disjoint_masks(L)
    jointop = ref_join_to_top_masks(L)
    for a in range(L.n):
        for b in iter_bits(disj[a]):
            if b >= a and not any(
                disj[a] & jointop[a1] for a1 in iter_bits(disj[b])
            ):
                return (False, (a, b))
    return (True, None)


def ref_join_primes(L):
    """The j > 0 not below the join of all elements outside ↑j."""
    out = []
    for j in range(L.n):
        if j == L.bottom:
            continue
        s = L.bottom
        for x in iter_bits(L.full_mask & ~L.up_mask(j)):
            s = L.join(s, x)
        if not L.leq(j, s):
            out.append(j)
    return tuple(out)


def check_predicates(L):
    """Masks, verdicts and witnesses against the references; returns the
    (separative, normal) verdicts."""
    disj, jointop = ref_disjoint_masks(L), ref_join_to_top_masks(L)
    assert _disjoint_masks(L) == disj
    assert _join_to_top_masks(L) == jointop
    sep = is_separative(L)
    assert sep == ref_is_separative(L)
    norm = is_normal(L)
    assert norm == ref_is_normal(L)
    assert join_primes(L) == ref_join_primes(L)
    dist = ref_distributivity_scan(L)[0]
    assert is_boolean(L) == (dist and all(d & j for d, j in zip(disj, jointop)))
    return sep[0], norm[0]


def test_predicates_match_references(corpus):
    seen = {check_predicates(L) for L in oracle_lattices(corpus)}
    # both verdicts of each predicate occur, so witnesses are compared
    assert {s for s, _ in seen} == {n for _, n in seen} == {True, False}


@given(closure_system_lattices())
@settings(max_examples=150, deadline=None)
def test_predicates_match_references_on_closure_systems(L):
    check_predicates(L)


def test_predicates_above_size_cap():
    """A keyed lattice above SIZE_CAP: distributivity, normality,
    separativity, Booleanness, the atoms, the join-irreducibles, the
    join-primes, both Wallman spaces, the fast prime and ultra filter
    enumeration, the ultrafilter extensions and the disjointness masks are
    read off its ground points and answer at every size, as do generated
    sublattices and image_separates, which reads ↑a off the points
    without storing the order rows."""
    P = powerset_lattice(13)
    assert P.n > SIZE_CAP
    assert is_distributive(P) == (True, None)
    singletons = tuple(1 << i for i in range(13))  # ids are keys here
    assert join_irreducibles(P) == join_primes(P) == atoms(P) == singletons
    assert is_normal(P) == (True, None)
    assert is_separative(P) == (True, None)
    assert is_boolean(P)
    ult = build_space(P, "ultra")
    assert ult.size == 13
    assert [p.members for p in ult.points] == [
        mask_of(k for k in range(P.n) if k >> i & 1) for i in range(13)
    ]
    disj = _disjoint_masks(P)
    assert len(disj) == P.n
    for b in (0, 1, 6, 0b1010101010101, P.n - 2, P.top):
        assert disj[b] == mask_of(c for c in range(P.n) if c & b == 0), b
    for kind, tag in (("ultra", "ultra"), ("prime", "prime")):
        found = enumerate_filters(P, kind, "fast")
        assert [f.members for f in found] == [p.members for p in ult.points]
        assert {f.kind for f in found} == {tag}
    (ext,) = ultrafilter_extensions(P, ult.points[5])
    assert ext.members == ult.points[5].members
    assert len(ultrafilter_extensions(P, 1 << P.top)) == 13
    assert image_separates(identity_hom(P)) is True
    assert P._up is None
    assert generated_sublattice(P, [1, 2]) == frozenset({0, 1, 2, 3, P.top})


def ref_generated_sublattice(L, M):
    """Pairwise fixpoint: rescan every pair until no meet or join is new."""
    cur = set(M) | {L.bottom, L.top}
    while True:
        new = {
            c
            for a in cur
            for b in cur
            for c in (L.meet(a, b), L.join(a, b))
        } - cur
        if not new:
            return frozenset(cur)
        cur |= new


def test_generated_sublattice_matches_fixpoint(corpus):
    rng = random.Random(0)
    for L in oracle_lattices(corpus):
        for size in (0, 1, 2, 3, L.n):
            M = rng.sample(range(L.n), min(size, L.n))
            assert generated_sublattice(L, M) == ref_generated_sublattice(L, M)


@given(closure_system_lattices(), st.randoms())
@settings(max_examples=100, deadline=None)
def test_generated_sublattice_matches_fixpoint_on_closure_systems(L, rng):
    M = rng.sample(range(L.n), rng.randint(0, min(3, L.n)))
    assert generated_sublattice(L, M) == ref_generated_sublattice(L, M)


# -- keyed mode -------------------------------------------------------------


@given(small_lattices)
@settings(max_examples=40, deadline=None)
def test_keyed_rows_match_key_inclusion(L):
    keys = L.keys
    assert L._up is None
    for a in range(L.n):
        assert L.up_mask(a) == mask_of(
            j for j in range(L.n) if subset(keys[a], keys[j])
        )
        assert L.down_mask(a) == mask_of(
            j for j in range(L.n) if subset(keys[j], keys[a])
        )
    assert L._up is not None  # cached after the first call


def test_from_keys_checks_every_pair():
    # a chain of 700 sets over {0, 1}, then {0} and {1} last: only the very
    # last pair lacks its union {0, 1}
    chain = [0] + [0b11 | (1 << k) - 1 << 2 for k in range(1, 701)]
    keys = chain + [0b01, 0b10]
    with pytest.raises(NotALattice) as info:
        FiniteLattice.from_keys(keys)
    assert info.value.witness == (len(keys) - 2, len(keys) - 1)
    assert FiniteLattice.from_keys(chain + [0b01, 0b10, 0b11]).n == 704


def ref_key_closure(keys):
    """from_keys's checks with the definitional pair scan, as they stood
    before the ring-of-sets test: the bounds, then the first pair (i, j),
    i < j, whose & or | is missing."""
    keys = list(keys)
    n = len(keys)
    if n == 0:
        raise NotALattice("a lattice needs at least one element")
    if len(set(keys)) != n:
        raise NotAPoset("duplicate keys violate antisymmetry")
    index = {k: i for i, k in enumerate(keys)}
    bot_key = keys[0]
    top_key = keys[0]
    for k in keys:
        bot_key &= k
        top_key |= k
    if bot_key not in index or top_key not in index:
        raise NoBounds("key family lacks its intersection or union")
    for i, a in enumerate(keys):
        for j in range(i + 1, n):
            b = keys[j]
            if a & b not in index or a | b not in index:
                raise NotALattice(
                    "key family is not closed under meet/join",
                    witness=(i, j),
                )


def ring_of_sets(rng):
    """Keys of a random ring of sets, in random order: the down-sets of a
    random preorder on 1 to 7 points, each joined with 0 to 2 low points
    that every key holds, so the bottom key need not be empty.  Returns
    the keys and the masks of the ground and of the low points."""
    g = rng.randint(1, 7)
    p = rng.uniform(0.05, 0.4)
    rows = reflexive_transitive_closure(
        [mask_of(j for j in range(g) if rng.random() < p) for _ in range(g)]
    )
    shift = rng.randint(0, 2)
    low = (1 << shift) - 1
    keys = [low | d << shift for d in union_closure(transpose(rows))]
    rng.shuffle(keys)
    return keys, (1 << g + shift) - 1, low


def outcome(build, keys):
    try:
        build(keys)
    except WallmanError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return None


def test_key_closure_check_matches_pair_scan():
    """Half the families are rings of sets, half have one key dropped or
    one mask added; verdict, message and witness agree with the scan."""
    rng = random.Random(12)
    verdicts = []
    for trial in range(2400):
        keys, ground, low = ring_of_sets(rng)
        if trial % 2:
            outside = [m for m in range(ground + 1) if m & low == low]
            outside = sorted(set(outside) - set(keys))
            if outside and rng.random() < 0.5:
                keys.insert(rng.randrange(len(keys) + 1), rng.choice(outside))
            else:
                keys.pop(rng.randrange(len(keys)))
        got = outcome(FiniteLattice.from_keys, keys)
        assert got == outcome(ref_key_closure, keys), keys
        if trial % 2 == 0:
            assert got is None
        verdicts.append(got and got[0])
    assert {NotALattice, NoBounds, None} <= set(verdicts)
    assert verdicts.count(NotALattice) > 500


def row_route(L):
    """A table-mode copy of keyed L with the same ids, whose structure is
    read off the order rows."""
    rows = [L.up_mask(a) for a in range(L.n)]
    return FiniteLattice.from_up_rows(L.names, rows)


def test_keyed_structure_matches_the_row_route():
    rng = random.Random(5)
    lattices = [gen.random_downset_lattice(1 + seed % 8, seed) for seed in range(40)]
    lattices += [powerset_lattice(k) for k in range(6)]
    for k in range(1, 12):
        chain = [(1 << i) - 1 for i in range(k)]
        rng.shuffle(chain)
        lattices.append(FiniteLattice.from_keys(chain))
    lattices += [FiniteLattice.from_keys(ring_of_sets(rng)[0]) for _ in range(60)]
    for L in lattices:
        T = row_route(L)
        assert join_irreducibles(L) == join_irreducibles(T)
        assert join_primes(L) == join_primes(T)
        assert is_distributive(L) == (True, None) == is_distributive(T)
        assert _distributivity_scan(L) == (True, None)


def keyed_family(rng):
    """Keys of the down-set lattice of a random poset on 1 to 6 points,
    with three changes each drawn at random: a duplicated ground point (a
    new point held by exactly the keys holding an old one, so that ⊑ is
    a preorder and not a partial order), 0 to 2 extra bottom points that
    every key holds, and shuffled ids."""
    k = rng.randint(1, 6)
    rows = gen.random_poset(k, rng.randrange(10**6), rng.uniform(0.1, 0.7))
    keys = list(gen.downset_lattice(rows).keys)
    if rng.random() < 0.5:
        x = rng.randrange(k)
        keys = [key | (key >> x & 1) << k for key in keys]
    shift = rng.choice((0, 0, 1, 2))
    keys = [(1 << shift) - 1 | key << shift for key in keys]
    if rng.random() < 0.5:
        rng.shuffle(keys)
    return keys


def table_twin(L):
    """Keyed L as a table-mode lattice with the same ids and names, its
    rows read off key inclusion, so every answer takes the row route."""
    keys = L.keys
    rows = [mask_of(j for j, kj in enumerate(keys) if subset(k, kj)) for k in keys]
    return FiniteLattice.from_up_rows(L.names, rows)


def space_parts(S):
    return [p.members for p in S.points], S.a_plus, S.closures


def filter_parts(filters):
    return [(f.members, f.kind) for f in filters]


def alexandrov_parts(res):
    return res.algebra.keys, res.hom.map, res.onto.point_map, res.kernel


def test_point_route_matches_the_row_route():
    """Verdicts, witnesses, atoms, both spaces, the fast prime and ultra
    filters, the ultrafilter extensions of every point, the disjointness
    masks, the theorem suite and the 0-dimensionalization of keyed
    lattices, read off their points, agree with their table twins, read
    off the order rows; on the first 300 the masks also agree with the
    pairwise reference."""
    rng = random.Random(14)
    seen = set()
    for i in range(2000):
        L = FiniteLattice.from_keys(keyed_family(rng))
        T = table_twin(L)
        rep = lattice_report(L)
        assert rep == lattice_report(T), L.keys
        assert atoms(L) == atoms(T)
        for kind in ("prime", "ultra"):
            assert space_parts(build_space(L, kind)) == space_parts(
                build_space(T, kind)
            )
            assert filter_parts(enumerate_filters(L, kind, "fast")) == (
                filter_parts(enumerate_filters(T, kind, "fast"))
            )
        for p in build_space(L, "prime").points:
            assert filter_parts(ultrafilter_extensions(L, p)) == filter_parts(
                ultrafilter_extensions(T, p.members)
            )
        assert _disjoint_masks(L) == _disjoint_masks(T)
        if i < 300:
            assert _disjoint_masks(T) == ref_disjoint_masks(T)
        assert theorem_suite(L) == theorem_suite(T)
        assert alexandrov_parts(alexandrov(L)) == alexandrov_parts(alexandrov(T))
        assert L._up is None
        seen.add((rep.is_normal, rep.is_separative, rep.is_boolean))
    assert seen == {
        (False, False, False),
        (True, False, False),
        (True, True, True),
    }


def ref_eq(A, B):
    """Same names and the same up-row for every id: the row comparison."""
    return A.names == B.names and all(
        A.up_mask(i) == B.up_mask(i) for i in range(A.n)
    )


def test_equality_above_size_cap():
    """Two keyed lattices compare without order rows, so == and compose
    answer above SIZE_CAP."""
    P, Q = powerset_lattice(13), powerset_lattice(13)
    assert P.n > SIZE_CAP and P is not Q
    assert P == Q
    h = compose(identity_hom(Q), identity_hom(P))
    assert h.map == tuple(range(P.n))
    # the same key set under other ids, with the same names: the order on
    # the ids differs (0 < 1 in P, 1 < 0 here)
    R = FiniteLattice.from_keys(
        [k ^ 1 for k in range(P.n)], names=P.names, verify=False
    )
    assert P != R
    assert P._up is Q._up is R._up is None


def test_equality_matches_the_row_comparison():
    """== on keyed lattices against ref_eq, on their table twins (mixed
    pairs), on copies with the ground points renamed (equal), on copies
    with the keys shuffled over the ids (mostly unequal) and on pairs of
    unrelated lattices of one size and one set of names."""
    rng = random.Random(15)
    lattices = [FiniteLattice.from_keys(keyed_family(rng)) for _ in range(300)]
    seen = set()
    by_size = {}
    for L in lattices:
        width = L.keys[L.top].bit_length()
        perm = list(range(width))
        rng.shuffle(perm)
        renamed = FiniteLattice.from_keys(
            [sum(1 << perm[x] for x in iter_bits(k)) for k in L.keys],
            names=L.names,
        )
        shuffled = list(L.keys)
        rng.shuffle(shuffled)
        pairs = [
            (L, renamed),
            (L, FiniteLattice.from_keys(shuffled, names=L.names)),
            (L, table_twin(L)),
            (table_twin(L), L),
        ]
        named = FiniteLattice.from_keys(L.keys, names=[f"e{i}" for i in range(L.n)])
        for M in by_size.get(L.n, []):
            pairs.append((named, M))
        by_size.setdefault(L.n, []).append(named)
        for A, B in pairs:
            verdict = A == B
            assert verdict == ref_eq(A, B), (A.keys, B.keys)
            if A.keys is not None and B.keys is not None:
                seen.add(verdict)
    assert seen == {True, False}


def test_predicates_match_references_on_keyed_lattices():
    """check_predicates on keyed lattices, Booleanness decided first from
    the ground points alone: the complement oracle sees both verdicts."""
    rng = random.Random(16)
    seen = set()
    for _ in range(300):
        L = FiniteLattice.from_keys(keyed_family(rng))
        seen.add(is_boolean(L))
        assert L._up is None
        check_predicates(L)
    assert seen == {True, False}


def test_names_on_demand_match_key_names():
    keys = gen.random_downset_lattice(7, seed=4).keys
    L = FiniteLattice.from_keys(keys)
    assert L._names is None
    assert L.names == tuple(_key_name(k) for k in keys)
    given_names = [f"e{i}" for i in range(len(keys))]
    M = FiniteLattice.from_keys(keys, names=given_names)
    assert M.names == tuple(given_names)
    with pytest.raises(ValueError, match="unique"):
        FiniteLattice.from_keys(keys, names=["e"] * len(keys))


relations = st.integers(0, 6).flatmap(
    lambda n: st.lists(st.integers(0, 2**n - 1), min_size=n, max_size=n)
)


@given(relations)
@settings(max_examples=60, deadline=None)
def test_bitset_relation_helpers(rows):
    assert transpose(transpose(rows)) == rows
    n = len(rows)
    closed = reflexive_transitive_closure(rows)
    reach = [[i == j or bool(rows[i] >> j & 1) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    assert closed == [mask_of(j for j in range(n) if reach[i][j]) for i in range(n)]


# -- constructions ----------------------------------------------------------


def test_opposite_involution(corpus):
    for L in corpus.values():
        assert opposite(opposite(L)) == L


def test_opposite_chain(chain3):
    op = opposite(chain3)
    assert op.names[op.bottom] == "1" and op.names[op.top] == "0"


def test_opposite_preserves_distributivity(corpus):
    for L in corpus.values():
        assert is_distributive(L)[0] == ref_distributivity_scan(opposite(L))[0]


def test_generated_sublattice_examples(powerset3):
    L = powerset3
    singles = [L.id_of("{0}"), L.id_of("{1}")]
    got = {L.names[x] for x in generated_sublattice(L, singles)}
    assert got == {"{}", "{0}", "{1}", "{0,1}", "{0,1,2}"}
    assert generated_sublattice(L, range(L.n)) == frozenset(range(L.n))
    assert generated_sublattice(L, []) == frozenset({L.bottom, L.top})


@given(small_lattices, st.data())
@settings(max_examples=40, deadline=None)
def test_generated_sublattice_is_closure(L, data):
    ids = data.draw(st.lists(st.integers(0, L.n - 1), max_size=5))
    more = data.draw(st.lists(st.integers(0, L.n - 1), max_size=3))
    cl = generated_sublattice(L, ids)
    assert set(ids) <= cl  # extensive
    assert cl <= generated_sublattice(L, list(ids) + list(more))  # monotone
    assert generated_sublattice(L, cl) == cl  # idempotent


def test_attach_bottom(corpus, m3):
    plus = attach_bottom(corpus["powerset2"])
    assert plus.n == 5
    assert is_normal(plus)[0]
    one = load_lattice({"elements": ["e"], "covers": []})
    two = attach_bottom(one)
    assert two.n == 2 and two.names[two.bottom] == "s"
    assert not is_distributive(attach_bottom(m3))[0]


def test_one_plus_b2_matches_attach_bottom(corpus, one_plus_b2):
    assert attach_bottom(corpus["powerset2"]).n == one_plus_b2.n
    assert is_normal(one_plus_b2)[0]


def test_atoms_and_irreducibles(powerset3, chain3, fivepoint):
    assert len(atoms(powerset3)) == 3
    assert atoms(powerset3) == join_irreducibles(powerset3)
    assert [chain3.names[a] for a in atoms(chain3)] == ["m"]
    assert [chain3.names[a] for a in join_irreducibles(chain3)] == ["m", "1"]
    assert sorted(fivepoint.names[a] for a in atoms(fivepoint)) == ["a", "b"]
    assert sorted(fivepoint.names[a] for a in join_irreducibles(fivepoint)) == [
        "1", "a", "b",
    ]


def test_keyed_atoms_match_table_route():
    L = gen.random_downset_lattice(6, seed=11)
    rows = [L.up_mask(i) for i in range(L.n)]
    T = FiniteLattice.from_up_rows(L.names, rows)
    assert atoms(L) == atoms(T)
    assert join_irreducibles(L) == join_irreducibles(T)


# -- algebraic laws ---------------------------------------------------------


@given(small_lattices)
@settings(max_examples=30, deadline=None)
def test_lattice_axioms_exhaustive(L):
    assert L.n <= 64
    for a in range(L.n):
        assert L.meet(a, a) == a and L.join(a, a) == a
        for b in range(L.n):
            assert L.meet(a, b) == L.meet(b, a)
            assert L.join(a, b) == L.join(b, a)
            assert L.meet(a, L.join(a, b)) == a  # absorption
            assert L.join(a, L.meet(a, b)) == a


@given(st.builds(gen.random_downset_lattice, st.integers(1, 5), st.integers(0, 10**6)))
@settings(max_examples=25, deadline=None)
def test_lattice_associativity(L):
    for a in range(L.n):
        for b in range(L.n):
            for c in range(L.n):
                assert L.meet(a, L.meet(b, c)) == L.meet(L.meet(a, b), c)
                assert L.join(a, L.join(b, c)) == L.join(L.join(a, b), c)


@given(small_lattices)
@settings(max_examples=40, deadline=None)
def test_downset_lattices_distributive(L):
    assert ref_distributivity_scan(L)[0]


@given(small_lattices)
@settings(max_examples=40, deadline=None)
def test_boolean_implies_normal_and_separative(L):
    if is_boolean(L):
        assert is_normal(L)[0]
        assert is_separative(L)[0]


@pytest.mark.parametrize("k", [1, 2, 3, 7, 40])
def test_chain_lattice_matches_a_loaded_chain(corpus, k):
    """chain_lattice skips the poset check; its lattice is the one a chain
    file loads to, checks and all."""
    names = [f"c{i}" for i in range(k)]
    covers = [[lo, hi] for lo, hi in zip(names, names[1:])]
    L = chain_lattice(k)
    M = load_lattice({"elements": names, "covers": covers})
    assert L == M
    assert all(
        L.meet(a, b) == M.meet(a, b) and L.join(a, b) == M.join(a, b)
        for a in range(k)
        for b in range(k)
    )
    if f"chain{k}" in corpus:
        shipped = corpus[f"chain{k}"]
        assert [L.up_mask(i) for i in range(k)] == [
            shipped.up_mask(i) for i in range(k)
        ]


def test_chain_and_powerset_builders():
    assert chain_lattice(4).n == 4
    P = powerset_lattice(3)
    assert P.n == 8 and is_boolean(P)
    assert is_generating(P, atoms(P))
