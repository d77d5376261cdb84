"""Finite bounded lattices and their exhaustively checked structural predicates.

Elements are dense integer ids in input order.  All element sets are bitsets
(plain ints).  Two storage modes exist:

* table mode: the full order relation as up and down rows, plus two dicts
  from row to element id: a∧b is the element whose down-row is
  down[a] & down[b], a∨b the one whose up-row is up[a] & up[b].  Its one
  way in is from_up_rows, whose rows generate the order: it takes their
  reflexive-transitive closure itself;
* keyed mode: every element carries a set-key (a bitmask over some ground
  set) such that leq is key inclusion and meet/join are key & / |.  This is
  how generated down-set lattices and powerset algebras are represented.

Both modes answer meet and join with one dict lookup, at every size up to
SIZE_CAP.  A keyed lattice answers leq, meet and join by its keys even
once materialize_rows has given it order rows.

A keyed lattice is a ring of sets: a family closed under ∩ and ∪.  Its one
way in is from_keys, and it is read through its ground points.  For a
point x of top∖bottom, m_x is the intersection of the keys holding x
(_point_meets, n·|G| big-int ANDs for n keys over a ground set G), and
holds_x is the bitset of elements whose key holds x, the up-row of m_x
(_point_holds, the columns of the keys read as an n × |G| bit matrix).
Both are dicts {x: ...} in point order, and they are the only code that
walks top∖bottom.  homs, spaces, filters, io and cli reach the points
only through the helpers below (_generator_ups, _order_rows, _pullbacks),
and read neither the keys nor their index.
from_keys checks closure with one key lookup per key and point instead
of one per pair of keys; the m_x are the join-irreducibles, which are
also the join-primes, and the lattice is distributive by construction.
The other structural answers are read off the same points, each argued
in its docstring:

* atoms: the m_x of the minimal points, O(|G|²) key comparisons;
* is_boolean: distributive (by construction) with every join-irreducible
  an atom, read off the m_x like atoms and join_irreducibles;
* is_separative: the first element holding a point that is not minimal,
  O(n) key tests, then O(|G|) ANDs of holds_x for its witness;
* is_normal: no two points with disjoint m_x share an upper point,
  O(|G|²) key tests; only on failure a pass of O(n·|G|) big-int ORs over
  the holds_x names the witness;
* _generator_ups: the up-row of a join-irreducible m_x is holds_x, so the
  Wallman spaces (spaces.build_space), the fast prime and ultra filter
  enumeration and the disjointness masks (_disjoint_masks) read the
  holds_x of their generators.

None of these needs the order rows, so they answer above SIZE_CAP.
Element names of a keyed lattice built without names are made from its
keys on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .bits import (
    bit,
    iter_bits,
    mask_of,
    popcount,
    reflexive_transitive_closure,
    subset,
    transpose,
)
from .caps import SIZE_CAP
from .errors import (
    NoBounds,
    NotALattice,
    NotAPoset,
    OracleDisagreement,
    TooLarge,
)


class FiniteLattice:
    """Immutable finite bounded lattice."""

    __slots__ = (
        "name",
        "_names",
        "n",
        "bottom",
        "top",
        "keys",
        "_key_index",
        "_up",
        "_down",
        "_meet_of",
        "_join_of",
        "_cache",
    )

    def __init__(self):
        raise TypeError("use load_lattice, from_up_rows or from_keys")

    # -- constructors -------------------------------------------------

    @classmethod
    def _blank(cls) -> "FiniteLattice":
        obj = object.__new__(cls)
        obj.name = None
        obj._names = None
        obj.keys = None
        obj._key_index = None
        obj._up = None
        obj._down = None
        obj._meet_of = None
        obj._join_of = None
        obj._cache = {}
        return obj

    @classmethod
    def from_up_rows(
        cls,
        names: Sequence[str],
        up_rows: Sequence[int],
        name: Optional[str] = None,
    ) -> "FiniteLattice":
        """Build from rows that generate the order: element i lies below
        every j of up_rows[i], and the order is their reflexive-transitive
        closure (bits.reflexive_transitive_closure), so the rows of a
        partial order come back unchanged and a relation of covers or a
        `leq` file's pairs give the order they generate.  A row must hold
        element ids below len(names) only, else ValueError names its
        element.

        After the closure the relation is reflexive and transitive, and
        antisymmetry is tested after the transpose: up[i] & down[i] holds
        some j != i exactly when i <= j <= i, and the lowest such j, for
        the lowest such i, is the NotAPoset witness.  Antisymmetry also
        makes the rows of distinct elements distinct, so the dicts from
        row to id below are well defined.

        The lattice check tests meets only, and only on incomparable
        pairs.  A comparable pair has its smaller element as meet.  For
        any a, b, cand = ↓a ∩ ↓b is a down-set holding the bottom; it has
        a greatest element g iff cand = ↓g, that is iff cand is a down-row.
        Once every pair has a meet, every pair has a join: a∨b is the meet
        of the common upper bounds of a and b, a set that holds the top,
        and a finite nonempty set has a meet when every pair does (Davey &
        Priestley, Introduction to Lattices and Order, 2nd ed., ch. 2).
        So join needs no check.

        Nor does every pair of meets: it is enough that a∧m exists for
        every a and every meet-irreducible m, an element with exactly one
        upper cover, which is the m whose ↑m∖{m} is an up-row (one
        join_of lookup each; Davey & Priestley, ch. 2, for the
        meet-irreducibles of a finite lattice).  Proof, down from the top:
        let every a∧c exist for all c > b, b not the top.  If b has one
        upper cover, b is meet-irreducible.  Otherwise take two, c1 and
        c2; they are incomparable, so d = c1∧c2 lies in [b, c1), hence
        d = b.  Then x <= b iff x <= c1 and x <= c2, so the lower bounds
        of {a, b} are those of {a∧c1, c2}, and a∧b = (a∧c1)∧c2 exists.
        That costs one AND and one lookup per incomparable pair (a, m),
        O(n·|M|) for the meet-irreducibles M (7 or 8 on a down-set
        lattice of 7 or 8 points) instead of O(n²).  Only when it fails
        does the scan over all incomparable pairs run, to name the first
        pair (a, b), a < b, in id order without a meet as the NotALattice
        witness.  Meet and join are then one dict lookup each.
        """
        n = len(names)
        if n == 0:
            raise NotALattice("a lattice needs at least one element")
        if n > SIZE_CAP:
            raise TooLarge(f"{n} elements exceeds the cap of {SIZE_CAP}")
        if len(set(names)) != n:
            raise ValueError("element names must be unique")
        if len(up_rows) != n:
            raise ValueError(f"{len(up_rows)} rows for {n} elements")
        for i, row in enumerate(up_rows):
            if row >> n:
                raise ValueError(
                    f"row of {names[i]} holds an element id outside 0..{n - 1}"
                )
        up = reflexive_transitive_closure(up_rows)
        down = transpose(up)
        for i in range(n):
            both = up[i] & down[i] & ~bit(i)
            if both:
                j = (both & -both).bit_length() - 1
                raise NotAPoset(
                    f"antisymmetry fails on {names[i]}, {names[j]}"
                )
        full = bit(n) - 1
        bottom = top = -1
        for i in range(n):
            if up[i] == full:
                bottom = i
            if down[i] == full:
                top = i
        if bottom < 0 or top < 0:
            raise NoBounds("the poset lacks a least or a greatest element")
        meet_of = {row: i for i, row in enumerate(down)}
        join_of = {row: i for i, row in enumerate(up)}
        if not _meets_with_meet_irreducibles(up, down, meet_of, join_of):
            _raise_first_meetless_pair(names, up, down, meet_of)
        obj = cls._blank()
        obj.name = name
        obj._names = tuple(names)
        obj.n = n
        obj.bottom = bottom
        obj.top = top
        obj._up = up
        obj._down = down
        obj._meet_of = meet_of
        obj._join_of = join_of
        return obj

    @classmethod
    def from_keys(
        cls,
        keys: Sequence[int],
        names: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
        verify: bool = True,
    ) -> "FiniteLattice":
        """Build a lattice of sets: leq is key inclusion, meet/join are &,|.

        The key family must be closed under & and |.  verify (the default)
        checks that at every size; verify=False is for callers whose
        family is closed by construction.  Without names the elements are
        named by their keys, "{0,2}" for the key of points 0 and 2, when
        `names` is first read.

        The check, with bottom = ∩keys and top = ∪keys both keys: the
        family is closed iff k | m_x is a key for every key k and every
        point x of top∖bottom, where m_x is the intersection of the keys
        holding x.  For x in k the union is k itself, since m_x ⊆ k, and
        for k = bottom it is m_x, since bottom ⊆ m_x: so every m_x is a
        key.  Necessity: m_x is a meet of keys and k | m_x a join.
        Sufficiency: put y ⊑ x iff y ∈ m_x, a preorder on top∖bottom
        (a key holding x holds m_x, so holds every y ∈ m_x and then m_y).
        Every key k is bottom ∪ ⋃{m_x : x ∈ k}, and k∖bottom is a down-set
        of ⊑.  Conversely, for a down-set D, adding the m_x for x ∈ D one
        at a time to bottom stays in the family (the step k ↦ k | m_x) and
        ends at bottom ∪ D.  So the family is exactly {bottom ∪ D : D a
        down-set}, which is closed under ∩ and ∪ (Birkhoff; Davey &
        Priestley, Introduction to Lattices and Order, 2nd ed., ch. 5).
        Cost: n·|G| key lookups for n keys over a ground set G, instead of
        n²/2 pairs.  Only when the check fails does the pair scan run, to
        name the first pair (i, j), i < j, whose & or | is missing as the
        NotALattice witness.
        """
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
        obj = cls._blank()
        obj.name = name
        obj.n = n
        obj.keys = tuple(keys)
        obj._key_index = index
        obj.bottom = index[bot_key]
        obj.top = index[top_key]
        if verify and not _is_ring_of_sets(obj):
            raise NotALattice(
                "key family is not closed under meet/join",
                witness=_first_unclosed_pair(keys, index),
            )
        if names is not None:
            names = tuple(names)
            if len(set(names)) != n:
                raise ValueError("element names must be unique")
            obj._names = names
        return obj

    # -- order and operations -----------------------------------------

    def leq(self, a: int, b: int) -> bool:
        if self.keys is not None:
            return subset(self.keys[a], self.keys[b])
        return bool(self._up[a] >> b & 1)

    def meet(self, a: int, b: int) -> int:
        if self.keys is not None:
            return self._key_index[self.keys[a] & self.keys[b]]
        return self._meet_of[self._down[a] & self._down[b]]

    def join(self, a: int, b: int) -> int:
        if self.keys is not None:
            return self._key_index[self.keys[a] | self.keys[b]]
        return self._join_of[self._up[a] & self._up[b]]

    def up_mask(self, a: int) -> int:
        """Bitset of all elements >= a."""
        if self._up is None:
            self.materialize_rows()
        return self._up[a]

    def down_mask(self, a: int) -> int:
        """Bitset of all elements <= a."""
        if self._down is None:
            self.materialize_rows()
        return self._down[a]

    def materialize_rows(self) -> None:
        """Compute and store the full order relation (keyed lattices),
        through _order_rows."""
        if self._up is not None:
            return
        if self.n > SIZE_CAP:
            raise TooLarge("relation rows beyond the size cap")
        ids = range(self.n)
        up = list(_order_rows(self, ids, True))
        down = list(_order_rows(self, ids, False))
        self._up, self._down = up, down

    # -- conveniences --------------------------------------------------

    @property
    def names(self) -> tuple:
        if self._names is None:
            self._names = tuple(_key_name(k) for k in self.keys)
        return self._names

    @property
    def full_mask(self) -> int:
        return bit(self.n) - 1

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no element named {name!r}") from None

    def __repr__(self) -> str:
        label = self.name or "lattice"
        return f"<FiniteLattice {label} n={self.n}>"

    def __eq__(self, other) -> bool:
        """Same element names and the same order on the element ids.

        Two keyed lattices compare their sets of holds_x columns
        (_point_holds) instead of their up-rows, with no rows and so at
        every size.  The holds_x are the up-rows of the join-irreducibles
        m_x, and a <= b iff every holds_x holding a holds b (key a lies in
        key b iff key b holds every point of key a∖bottom).  So the set of
        columns fixes the order, and the order fixes the set: the up-rows
        of its join-irreducibles.  Any other pair compares up-rows.
        """
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        if self.names != other.names:
            return False
        if self.keys is not None and other.keys is not None:
            mine, theirs = _point_holds(self), _point_holds(other)
            return set(mine.values()) == set(theirs.values())
        return all(
            self.up_mask(i) == other.up_mask(i) for i in range(self.n)
        )

    def __hash__(self):
        return hash(self.names)

    # predicate caches keyed by a string tag
    def _memo(self, tag, fn):
        if tag not in self._cache:
            self._cache[tag] = fn()
        return self._cache[tag]


def _key_name(key: int) -> str:
    return "{" + ",".join(str(i) for i in iter_bits(key)) + "}"


def _point_meets(L: FiniteLattice) -> dict:
    """{x: m_x}, m_x the intersection of the keys holding x, for the
    points x of top∖bottom of a keyed lattice, in point order: n·|G|
    big-int ANDs."""

    def compute():
        keys = L.keys
        top = keys[L.top]
        out = {}
        for x in iter_bits(top & ~keys[L.bottom]):
            xb = 1 << x
            m = top
            for k in keys:
                if k & xb:
                    m &= k
            out[x] = m
        return out

    return L._memo("point_meets", compute)


def _point_holds(L: FiniteLattice) -> dict:
    """{x: holds_x}, holds_x the bitset of the elements whose key holds
    x, for the points x of top∖bottom of a keyed lattice, in point order:
    the columns of the keys read as a bit matrix, n·|G| bits.  A key
    holds x iff it holds m_x (it holds m_x once it holds x, and x ∈ m_x),
    so holds_x is the up-row of the element m_x."""

    def compute():
        keys = L.keys
        top = keys[L.top]
        cols = transpose(keys, top.bit_length())
        return {x: cols[x] for x in iter_bits(top & ~keys[L.bottom])}

    return L._memo("point_holds", compute)


def _order_rows(L: FiniteLattice, ids, up: bool):
    """The up-rows (up=True) or the down-rows of the elements ids, one
    at a time.

    A lattice with rows reads them.  A keyed lattice reads them off its
    points, with no SIZE_CAP: for each point g of top∖bottom, holds_g
    (_point_holds) is the set of elements whose key contains g; the
    points of bottom lie in every key and bound no row.  The up-row of a
    is the intersection of holds_g over the points g of its key; b <= a
    iff key b holds no point outside key a, so the down-row of a is the
    full mask minus the union of holds_g over the other points.  So one
    row costs one big-int operation per point on its side of key a, and
    both rows of all n elements n·|ground| operations instead of n² key
    comparisons and a transpose.
    """
    if L._up is not None:
        rows = L._up if up else L._down
        for a in ids:
            yield rows[a]
        return
    full = L.full_mask
    keys = L.keys
    points = _point_holds(L).items()
    for a in ids:
        ka = keys[a]
        if up:
            row = full
            for g, h in points:
                if ka >> g & 1:
                    row &= h
            yield row
        else:
            row = 0
            for g, h in points:
                if not ka >> g & 1:
                    row |= h
            yield full & ~row


def _meets_with_meet_irreducibles(up, down, meet_of, join_of) -> bool:
    """Whether a∧m exists for every element a and every meet-irreducible
    m of a bounded poset given by its rows (see from_up_rows): the m whose
    strict up-set ↑m∖{m} is an up-row, that is, which have exactly one
    upper cover.  Comparable pairs are skipped, their meet is the smaller
    one.  One join_of lookup per element and one meet_of lookup per
    incomparable pair (a, m)."""
    full = (1 << len(up)) - 1
    for m, um in enumerate(up):
        if um ^ 1 << m in join_of:
            dm = down[m]
            for a in iter_bits(full & ~(um | dm)):
                if down[a] & dm not in meet_of:
                    return False
    return True


def _raise_first_meetless_pair(names, up, down, meet_of) -> None:
    """Raise NotALattice naming the first pair (a, b), a < b, in id order
    that has no meet: the pair scan run once _meets_with_meet_irreducibles
    has failed."""
    full = (1 << len(up)) - 1
    for a, da in enumerate(down):
        for b in iter_bits((full & ~(up[a] | da)) >> a << a):
            if da & down[b] not in meet_of:
                raise NotALattice(
                    f"{names[a]}, {names[b]} lack a greatest common bound",
                    witness=(a, b),
                )
    raise OracleDisagreement(
        "meet-irreducible check failed where every pair has a meet"
    )


def _is_ring_of_sets(L: FiniteLattice) -> bool:
    """k | m_x is a key for every key k and every m_x (see from_keys).
    A key k holding x needs no lookup: m_x ⊆ k, so k | m_x = k."""
    index = L._key_index
    keys = L.keys
    for x, m in _point_meets(L).items():
        xb = 1 << x
        for k in keys:
            if not k & xb and k | m not in index:
                return False
    return True


def _first_unclosed_pair(keys: Sequence[int], index: Mapping) -> tuple:
    """First pair (i, j), i < j, whose & or | is not a key: the witness
    from_keys names once _is_ring_of_sets has failed."""
    n = len(keys)
    for i, a in enumerate(keys):
        for j in range(i + 1, n):
            b = keys[j]
            if a & b not in index or a | b not in index:
                return (i, j)
    raise OracleDisagreement("ring-of-sets check failed on a closed family")


# ---------------------------------------------------------------------------
# loading


def load_lattice(spec: Mapping) -> FiniteLattice:
    """Build a lattice from a parsed description.

    The description holds "elements" (unique strings), exactly one of
    "covers" or "leq", each a list of [lo, hi] name pairs, and an optional
    string "name" (absent or null for none).  Either way the pairs are
    rows that generate the order: from_up_rows takes their
    reflexive-transitive closure and checks that it is antisymmetric,
    bounded and has every binary meet.
    """
    if not isinstance(spec, Mapping) or "elements" not in spec:
        raise ValueError('lattice description needs an "elements" list')
    names = spec["elements"]
    if not isinstance(names, list):
        raise ValueError('lattice field "elements" is not a list')
    for x in names:
        if not isinstance(x, str):
            raise ValueError(
                f'lattice field "elements" holds {x!r}, not a string'
            )
    if len(set(names)) != len(names):
        raise ValueError("element names must be unique")
    has_covers = "covers" in spec
    has_leq = "leq" in spec
    if has_covers == has_leq:
        raise ValueError('give exactly one of "covers" or "leq"')
    field = "covers" if has_covers else "leq"
    pairs = spec[field]
    if not isinstance(pairs, list):
        raise ValueError(f'lattice field "{field}" is not a list')
    n = len(names)
    if n == 0:
        raise NotALattice("a lattice needs at least one element")
    if n > SIZE_CAP:
        raise TooLarge(f"{n} elements exceeds the cap of {SIZE_CAP}")
    idx = {nm: i for i, nm in enumerate(names)}
    rows = [0] * n
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(
                f'lattice field "{field}" holds {pair!r}, not a [lo, hi] pair'
            )
        lo, hi = pair
        try:
            rows[idx[lo]] |= 1 << idx[hi]
        except (KeyError, TypeError):
            raise ValueError(
                f"unknown element in pair [{lo!r}, {hi!r}]"
            ) from None
    name = spec.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError('lattice field "name" is not a string')
    return FiniteLattice.from_up_rows(names, rows, name=name)


def chain_lattice(k: int, name: Optional[str] = None) -> FiniteLattice:
    """Chain with k elements c0 < c1 < ... (k >= 1): row i is
    {i, ..., k-1}."""
    names = [f"c{i}" for i in range(k)]
    rows = [mask_of(range(i, k)) for i in range(k)]
    return FiniteLattice.from_up_rows(names, rows, name=name or f"chain{k}")


def powerset_lattice(k: int, name: Optional[str] = None) -> FiniteLattice:
    """Powerset of a k-point set, in keyed mode."""
    return FiniteLattice.from_keys(
        range(1 << k), name=name or f"powerset{k}", verify=False
    )


# ---------------------------------------------------------------------------
# structural predicates


def is_distributive(L: FiniteLattice):
    """Decide a∧(b∨c) = (a∧b)∨(a∧c) for all a, b, c, exactly at every size.

    Route: L is distributive iff every join-irreducible is join-prime,
    that is iff join_primes(L) == join_irreducibles(L); Birkhoff's
    representation theorem, Davey & Priestley, Introduction to Lattices
    and Order (2nd ed.), Thm 5.12.  Why the criterion holds: if L is
    distributive and j <= a∨b, then j = j∧(a∨b) = (j∧a)∨(j∧b), and a
    join-irreducible j equals j∧a or j∧b.  If every j is join-prime,
    a ↦ J↓(a) (the join-irreducibles below a) maps joins to unions and
    meets to intersections, and it is injective since a = ⋁J↓(a); L
    embeds in a powerset and is distributive.  Cost: two set lookups per
    element over the order rows (join_primes, join_irreducibles).  A keyed
    lattice is a ring of sets, distributive by construction: it answers
    (True, None) with no rows, at every size.

    When the route finds a failure, the witness is the first failing
    triple (a, b, c) of the definitional scan, run only then
    (_distributivity_scan, which skips the a that start no failing
    triple); the plain triple loop is the oracle in the tests.
    Returns (flag, witness_triple_or_None).
    """

    def compute():
        if L.keys is not None:
            return (True, None)
        if join_primes(L) != join_irreducibles(L):
            return _distributivity_scan(L)
        return (True, None)

    return L._memo("distributive", compute)


def _distributivity_scan(L: FiniteLattice):
    """The first a∧(b∨c) ≠ (a∧b)∨(a∧c) in (a, b, c) order, as (False,
    (a, b, c)), or (True, None).

    An a comparable to every element starts no failing triple: if a <= b
    or a <= c, both sides equal a; otherwise b and c lie below a, and both
    sides equal b∨c.  So such an a is skipped with one test of its rows,
    and the first failing triple is the plain triple scan's; a chain of
    length m under M3 costs O(m) row tests there instead of m·n² steps.
    """
    meet, join = L.meet, L.join
    rng = range(L.n)
    full = L.full_mask
    for a in rng:
        if L.up_mask(a) | L.down_mask(a) == full:
            continue
        for b in rng:
            ab = meet(a, b)
            for c in rng:
                if meet(a, join(b, c)) != join(ab, meet(a, c)):
                    return (False, (a, b, c))
    return (True, None)


def _generator_ups(L: FiniteLattice, gens) -> list:
    """The up-rows ↑g of join-irreducible elements g, in the order given.

    On a keyed lattice every join-irreducible, so every atom and every
    join-prime, is a key m_x (see join_irreducibles), and a key holds m_x
    iff it holds x, so ↑m_x = holds_x (_point_holds): no order rows.  A
    table lattice reads its up-rows.
    """
    if L.keys is not None:
        holds = _point_holds(L)
        up_of = {m: holds[x] for x, m in _point_meets(L).items()}
        return [up_of[L.keys[g]] for g in gens]
    return [L.up_mask(g) for g in gens]


def _pullbacks(L: FiniteLattice, images) -> dict:
    """{g: {i : g <= images[i]}} for the join-irreducibles g of L, as
    bitsets over the positions i of images, a sequence of element ids
    of L.

    A keyed L reads them off its points: a key holds m_x iff it holds x,
    so {i : m_x <= images[i]} is column x of the image keys read as a
    bit matrix, and the m_x are the join-irreducibles (join_irreducibles).
    A table L reads column g of the down-rows of the images: g <= y iff
    g ∈ ↓y.  Either way one transpose of len(images) rows.
    """
    if L.keys is not None:
        keys, index = L.keys, L._key_index
        cols = transpose([keys[y] for y in images], keys[L.top].bit_length())
        return {index[m]: cols[x] for x, m in _point_meets(L).items()}
    cols = transpose([L.down_mask(y) for y in images], L.n)
    return {g: cols[g] for g in join_irreducibles(L)}


def _disjoint_masks(L: FiniteLattice) -> list:
    """disj[b] = bitset of c with c∧b = 0.

    Every element above 0 of a finite lattice lies above an atom, so
    c∧b > 0 iff some atom t lies below c∧b, that is below both c and b.
    Hence disj[b] is the full mask minus the union of ↑t over the atoms
    t <= b: one transpose of the atoms' up-rows (_generator_ups) names
    the atoms below each b, then O(n·|atoms|) big-int ORs, no meet and,
    on a keyed lattice, no order rows.  The 1-element lattice has no
    atom and gets the full mask, as 0∧0 = 0.
    """

    def compute():
        ups = _generator_ups(L, atoms(L))
        full = L.full_mask
        out = []
        for below in transpose(ups, L.n):
            m = 0
            for i in iter_bits(below):
                m |= ups[i]
            out.append(full & ~m)
        return out

    return L._memo("disj", compute)


def _join_to_top_masks(L: FiniteLattice) -> list:
    """cover[a] = bitset of x with a∨x = 1.

    Dually to _disjoint_masks: every element below 1 lies below a coatom,
    so a∨x < 1 iff some coatom lies above both a and x, and cover[a] is
    the full mask minus the union of ↓c over the coatoms c >= a, the
    elements whose up-row holds exactly two elements.
    """

    def compute():
        L.materialize_rows()
        up, down = L._up, L._down
        full = L.full_mask
        coatoms = mask_of(c for c in range(L.n) if popcount(up[c]) == 2)
        out = []
        for u in up:
            m = 0
            for c in iter_bits(u & coatoms):
                m |= down[c]
            out.append(full & ~m)
        return out

    return L._memo("jointop", compute)


def is_normal(L: FiniteLattice):
    """Every disjoint pair a,b admits a1,b1 with a1∧b = 0 = a∧b1, a1∨b1 = 1.

    Distributivity is a convention of the source notion, not a condition
    of this predicate: the bare predicate is evaluated on any lattice.
    Returns (flag, witness_pair).

    a1∨b1 = 1 is symmetric in a1 and b1, so the a1 that work for a (some
    b1 with a∧b1 = 0 and a1∨b1 = 1) form R[a], the union of cover[b1]
    over b1 in disj[a].  The pair (a, b) fails iff disj[b] misses R[a]:
    one mask test per pair, with the pairs walked in the order of the
    definitional scan (a, then b >= a), so the witness is its first
    failing pair.

    A keyed lattice is read off its points (see from_keys: key a is
    bottom ∪ D_a for a down-set D_a of ⊑ on P = top∖bottom, and a∧b = 0
    iff D_a ∩ D_b = ∅).  The largest a1 disjoint from b is P∖↑D_b: it is
    a down-set missing D_b, and a down-set D meeting ↑D_b holds some
    y ⊑ z ∈ D with y ∈ D_b, so it meets D_b.  Both conditions on a1 and
    b1 only gain as they grow, so (a, b) is served iff
    (P∖↑D_b) ∪ (P∖↑D_a) = P: a disjoint pair fails iff ↑D_a ∩ ↑D_b ≠ ∅.
    Hence L is normal iff no two points x, y with m_x ∩ m_y = bottom
    share an upper point z (x, y ∈ m_z): such x, y give the failing pair
    (m_x, m_y), and a failing pair with x ∈ D_a, y ∈ D_b below a common
    z has ↓x ⊆ D_a and ↓y ⊆ D_b disjoint.  That test costs O(|G|²) key
    tests with no element mask.  Only when it fails does a pass over a
    in id order build, from the holds_x, the b disjoint from a,
    full ∖ ⋃{holds_x : x ∈ D_a}, and the b with ↑D_b ∩ ↑D_a ≠ ∅, that is
    D_b ∩ ↓↑D_a ≠ ∅, ⋃{holds_y : y ∈ ↓↑D_a}; the lowest b >= a in both
    is the first failing pair of the scan above.  O(n·|G|) big-int ORs.
    """

    def compute():
        if L.keys is not None:
            return _keyed_normal(L)
        disj = _disjoint_masks(L)
        jointop = _join_to_top_masks(L)
        for a in range(L.n):
            pairs = disj[a] >> a << a
            if not pairs:
                continue
            reach = 0
            for b1 in iter_bits(disj[a]):
                reach |= jointop[b1]
            for b in iter_bits(pairs):
                if not disj[b] & reach:
                    return (False, (a, b))
        return (True, None)

    return L._memo("normal", compute)


def _keyed_normal(L: FiniteLattice):
    """is_normal of a keyed lattice, read off its points (see there)."""
    keys = L.keys
    low = keys[L.bottom]
    meets = _point_meets(L)
    above = dict.fromkeys(meets, 0)  # above[x] = ↑x = {z : x ∈ m_z}
    for z, m in meets.items():
        for x in iter_bits(m & ~low):
            above[x] |= 1 << z
    pts = list(meets)
    if not any(
        meets[x] & meets[y] == low and above[x] & above[y]
        for i, x in enumerate(pts)
        for y in pts[i + 1 :]
    ):
        return (True, None)
    holds = _point_holds(L)
    full = L.full_mask
    for a, k in enumerate(keys):
        hit = up = down = touch = 0
        for x in iter_bits(k & ~low):
            hit |= holds[x]
            up |= above[x]
        for z in iter_bits(up):
            down |= meets[z]
        for y in iter_bits(down & ~low):
            touch |= holds[y]
        bad = (full & ~hit & touch) >> a << a
        if bad:
            return (False, (a, (bad & -bad).bit_length() - 1))
    raise OracleDisagreement("a clash of points gave no failing pair")


def is_separative(L: FiniteLattice):
    """0 < a ≰ b implies some c > 0 with c <= a and c∧b = 0.

    Such a c exists iff some atom t <= a has t ≰ b: an atom below c is
    below a and disjoint from b, and an atom t ≰ b has t∧b = 0, so t is
    itself a witness.  So the b that fail for a are those above every
    atom below a but not above a: the intersection of ↑t over the atoms
    t <= a, minus ↑a.  The first failing a with its lowest such b is the
    first pair of the definitional (a, b) scan.

    On a keyed lattice the atoms t <= a are the m_x of the minimal points
    x in D_a = key_a ∖ bottom (see atoms), with ↑t = holds_x, and
    ↑a = ∩{holds_x : x ∈ D_a}, since a key holds key a iff it holds every
    point of D_a.  So the failing b are ∩{holds_x : x ∈ D_a minimal}
    minus ∩{holds_x : x ∈ D_a}, empty when every point of D_a is
    minimal.  Otherwise a fails: for x ∈ D_a not minimal, the key bottom
    ∪ ⋃{m_y : y ∈ D_a minimal} lies above every atom below a but misses
    x (x ∈ m_y puts m_x inside m_y, so m_x = m_y and x would be
    minimal).  So the first failing a is the first element whose key
    holds a point that is not minimal, found with one key test per
    element, and only its b are built, with O(|G|) ANDs.
    """

    def compute():
        if L.keys is not None:
            keys = L.keys
            low = keys[L.bottom]
            minimal = _minimal_points(L)
            rest = keys[L.top] & ~low & ~minimal
            for a, k in enumerate(keys):
                if k & rest:
                    holds = _point_holds(L)
                    common = up = L.full_mask
                    for x in iter_bits(k & ~low):
                        up &= holds[x]
                        if minimal >> x & 1:
                            common &= holds[x]
                    bad = common & ~up
                    return (False, (a, (bad & -bad).bit_length() - 1))
            return (True, None)
        up, down = L._up, L._down
        atom_mask = mask_of(atoms(L))
        for a in range(L.n):
            if a == L.bottom:
                continue
            common = L.full_mask
            for t in iter_bits(down[a] & atom_mask):
                common &= up[t]
            bad = common & ~up[a]
            if bad:
                return (False, (a, (bad & -bad).bit_length() - 1))
        return (True, None)

    return L._memo("separative", compute)


def is_boolean(L: FiniteLattice) -> bool:
    """Distributive with every element complemented.

    A finite distributive lattice is Boolean iff every join-irreducible
    is an atom.  By Birkhoff's representation theorem (Davey & Priestley,
    Introduction to Lattices and Order, 2nd ed., Thm 5.12) L is
    isomorphic to the down-sets of its poset J of join-irreducibles, and
    those form a powerset, a Boolean lattice, iff every down-set is an
    up-set, that is iff J is an antichain.  J is an antichain iff each j
    has no other join-irreducible below it, and since every element above
    0 lies above a join-irreducible, iff each j is an atom.  Atoms are
    always join-irreducible, so the test is atoms(L) == join_irreducibles(L).
    On a keyed lattice all three calls read the ground points (see
    is_distributive, atoms, join_irreducibles), with no rows.
    """

    def compute():
        return is_distributive(L)[0] and atoms(L) == join_irreducibles(L)

    return L._memo("boolean", compute)


@dataclass(frozen=True)
class LatticeReport:
    """Verdicts of the structural predicates, with violation witnesses."""

    is_lattice: bool
    is_distributive: bool
    is_normal: bool
    is_separative: bool
    is_boolean: bool
    witnesses: dict


def lattice_report(L: FiniteLattice) -> LatticeReport:
    dist, dw = is_distributive(L)
    norm, nw = is_normal(L)
    sep, sw = is_separative(L)
    witnesses = {}
    if dw is not None:
        witnesses["distributive"] = dw
    if nw is not None:
        witnesses["normal"] = nw
    if sw is not None:
        witnesses["separative"] = sw
    return LatticeReport(
        is_lattice=True,
        is_distributive=dist,
        is_normal=norm,
        is_separative=sep,
        is_boolean=is_boolean(L),
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# derived constructions


def opposite(L: FiniteLattice) -> FiniteLattice:
    """Order reversed, meet/join and bounds swapped."""
    L.materialize_rows()
    return FiniteLattice.from_up_rows(
        L.names, L._down, name=f"op({L.name})" if L.name else None
    )


def generated_sublattice(L: FiniteLattice, M: Iterable[int]) -> frozenset:
    """Smallest sublattice containing M and the bounds (worklist closure).

    Each element, once taken off the worklist, is met and joined with the
    elements taken before it, and every result not yet found joins the
    worklist.  So every pair of distinct elements is combined once, and
    when the worklist runs dry the found set is closed under ∧ and ∨.
    """
    found = set(M) | {L.bottom, L.top}
    todo = list(found)
    done = []
    while todo:
        a = todo.pop()
        for b_ in done:
            for c in (L.meet(a, b_), L.join(a, b_)):
                if c not in found:
                    found.add(c)
                    todo.append(c)
        done.append(a)
    return frozenset(found)


def is_generating(L: FiniteLattice, M: Iterable[int]) -> bool:
    return len(generated_sublattice(L, M)) == L.n


def attach_bottom(L: FiniteLattice, new_name: str = "s") -> FiniteLattice:
    """The lattice 1+L: one new element strictly below everything."""
    L.materialize_rows()
    while new_name in L.names:
        new_name += "'"
    n = L.n
    rows = list(L._up) + [bit(n + 1) - 1]
    return FiniteLattice.from_up_rows(
        list(L.names) + [new_name],
        rows,
        name=f"1+{L.name}" if L.name else None,
    )


def atoms(L: FiniteLattice) -> tuple:
    """Minimal nonzero elements, in id order: those with a two-element
    down-row.

    A keyed lattice needs no rows.  Its nonzero keys are bottom ∪ D for
    the nonempty down-sets D of ⊑ (see from_keys).  A minimal one holds
    some x, hence ↓x = m_x∖bottom, and so equals m_x; and m_x is minimal
    iff no y ∈ m_x∖bottom has m_y ⊊ m_x, where y ∈ m_x already gives
    m_y ⊆ m_x.  Call x minimal when every y ∈ m_x∖bottom has m_y = m_x:
    the atoms are the distinct m_x of the minimal x, O(|G|²) key
    comparisons.  Every point of an atom's key outside bottom is minimal,
    so the minimal points are the union of the atoms' keys minus bottom.
    """

    def compute():
        if L.keys is not None:
            low = L.keys[L.bottom]
            meets = _point_meets(L)
            index = L._key_index
            found = {
                index[m]
                for m in meets.values()
                if all(meets[y] == m for y in iter_bits(m & ~low))
            }
            return tuple(sorted(found))
        down = L._down
        return tuple(
            a for a in range(L.n) if a != L.bottom and popcount(down[a]) == 2
        )

    return L._memo("atoms", compute)


def _minimal_points(L: FiniteLattice) -> int:
    """The minimal points of a keyed lattice as a key (see atoms)."""
    keys = L.keys
    union = 0
    for t in atoms(L):
        union |= keys[t]
    return union & ~keys[L.bottom]


def join_irreducibles(L: FiniteLattice) -> tuple:
    """Nonzero elements with exactly one lower cover.

    In a finite lattice a has exactly one lower cover iff the elements
    strictly below a have a greatest element m (that m is the cover), that
    is iff down[a] minus a is itself a down-row: one set lookup per a.

    A keyed lattice needs no rows: its join-irreducibles are the distinct
    m_x of _point_meets.  Every key k ≠ bottom is the union of the m_x for
    x ∈ k∖bottom, so a join-irreducible k is one of them; and m_x ⊆ a ∪ b
    puts x, hence m_x, in a or in b, so m_x is join-prime, and
    join-irreducible as m_x ≠ bottom.
    """

    def compute():
        if L.keys is not None:
            index = L._key_index
            return tuple(sorted({index[m] for m in _point_meets(L).values()}))
        down = L._down
        rows = set(down)
        return tuple(
            a
            for a in range(L.n)
            if a != L.bottom and down[a] ^ bit(a) in rows
        )

    return L._memo("join_irreducibles", compute)


def join_primes(L: FiniteLattice) -> tuple:
    """Elements j > 0 with j <= a∨b only if j <= a or j <= b, in id order.

    j is join-prime iff j ≰ s, the join of all x with j ≰ x: if j ≰ s,
    j ≰ a and j ≰ b give a∨b <= s; if j <= s, j lies below a join of
    elements none of which is above it.  And j ≰ s iff L∖↑j is a
    principal down-set ↓m: if j ≰ s, then s lies in L∖↑j and bounds it,
    and every x <= s lies outside ↑j, so L∖↑j = ↓s; if L∖↑j = ↓m, then
    s = m, which lies outside ↑j.  So the test is one set lookup per j
    among the down-rows, as in join_irreducibles; j = 0 fails it, since
    L∖↑0 is empty and every down-row holds 0.  On a keyed lattice the
    join-primes are the join-irreducibles (see there), with no rows.
    """

    def compute():
        if L.keys is not None:
            return join_irreducibles(L)
        rows = set(L._down)
        full = L.full_mask
        return tuple(j for j in range(L.n) if full & ~L._up[j] in rows)

    return L._memo("join_primes", compute)
