"""Finite bounded lattices and their exhaustively checked structural predicates.

Elements are dense integer ids in input order.  All element sets are bitsets
(plain ints).  Two storage modes exist:

* table mode: the full order relation as up and down rows, plus two dicts
  from row to element id: a∧b is the element whose down-row is
  down[a] & down[b], a∨b the one whose up-row is up[a] & up[b];
* keyed mode: every element carries a set-key (a bitmask over some ground
  set) such that leq is key inclusion and meet/join are key & / |.  This is
  how generated down-set lattices and powerset algebras are represented.

Both modes answer meet and join with one dict lookup, at every size up to
SIZE_CAP.

A keyed lattice is a ring of sets: a family closed under ∩ and ∪.  It is
read through its ground points.  For a point x of top∖bottom, m_x is the
intersection of the keys holding x (_point_meets, n·|G| big-int ANDs for n
keys over a ground set G).  from_keys checks closure with one key lookup
per key and point instead of one per pair of keys; the m_x are the
join-irreducibles, which are also the join-primes, and the lattice is
distributive by construction, so these answers need no order rows and
hold above SIZE_CAP.  Element names of a keyed lattice built without names
are made from its keys on first read.
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
from .errors import (
    NoBounds,
    NotALattice,
    NotAPoset,
    NotDistributive,
    OracleDisagreement,
    TooLarge,
)

SIZE_CAP = 4096


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
        raise TypeError("use load_lattice / FiniteLattice.from_keys")

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
        check: bool = True,
    ) -> "FiniteLattice":
        """Build from the full order relation (up_rows[i] = {j : i <= j}).

        With check, the rows are first checked, element by element, to be
        reflexive, antisymmetric and transitive.  Without it they must be
        a preorder already (load_lattice takes the reflexive-transitive
        closure); antisymmetry is tested at every call after the
        transpose: up[i] & down[i] holds some j != i exactly when i <= j
        <= i, and the lowest such j is the witness.  Antisymmetry also
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
        So join needs no check, and the first failing pair (a, b), a < b,
        in id order is the NotALattice witness.  Cost: one AND and one set
        lookup per incomparable pair at load; meet and join are then one
        dict lookup each.
        """
        n = len(names)
        if n == 0:
            raise NotALattice("a lattice needs at least one element")
        if n > SIZE_CAP:
            raise TooLarge(f"{n} elements exceeds the cap of {SIZE_CAP}")
        if len(set(names)) != n:
            raise ValueError("element names must be unique")
        up = list(up_rows)
        if check:
            for i in range(n):
                if not up[i] >> i & 1:
                    raise NotAPoset(f"relation not reflexive at {names[i]}")
                for j in iter_bits(up[i]):
                    if j != i and up[j] >> i & 1:
                        raise NotAPoset(
                            f"antisymmetry fails on {names[i]}, {names[j]}"
                        )
                    if not subset(up[j], up[i]):
                        raise NotAPoset(
                            f"transitivity fails at {names[i]} <= {names[j]}"
                        )
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
        for a in range(n):
            da = down[a]
            for b in iter_bits((full & ~(up[a] | da)) >> a << a):
                if da & down[b] not in meet_of:
                    raise NotALattice(
                        f"{names[a]}, {names[b]} lack a greatest common bound",
                        witness=(a, b),
                    )
        obj = cls._blank()
        obj.name = name
        obj._names = tuple(names)
        obj.n = n
        obj.bottom = bottom
        obj.top = top
        obj._up = up
        obj._down = down
        obj._meet_of = meet_of
        obj._join_of = {row: i for i, row in enumerate(up)}
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
        if self._up is not None:
            return bool(self._up[a] >> b & 1)
        return subset(self.keys[a], self.keys[b])

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
        """Compute and store the full order relation (keyed lattices).

        For each ground point g (a point of the top key), holds[g] is the
        set of elements whose key contains g.  The up-row of a is the
        intersection of holds[g] over the points g of its key; b <= a iff
        key b holds no point outside key a, so the down-row of a is the
        full mask minus the union of holds[g] over the other points.  That
        costs 2·n·|ground| big-int operations instead of n² key
        comparisons and a transpose.
        """
        if self._up is not None:
            return
        if self.n > SIZE_CAP:
            raise TooLarge("relation rows beyond the size cap")
        full = self.full_mask
        ground = list(iter_bits(self.keys[self.top]))
        holds = []
        for g in ground:
            m = 0
            for j, kj in enumerate(self.keys):
                if kj >> g & 1:
                    m |= 1 << j
            holds.append(m)
        up = []
        down = []
        for ka in self.keys:
            u = full
            d = 0
            for g, h in zip(ground, holds):
                if ka >> g & 1:
                    u &= h
                else:
                    d |= h
            up.append(u)
            down.append(full & ~d)
        self._up = up
        self._down = down

    # -- conveniences --------------------------------------------------

    @property
    def names(self) -> tuple:
        if self._names is None:
            self._names = tuple(_key_name(k) for k in self.keys)
        return self._names

    @property
    def full_mask(self) -> int:
        return bit(self.n) - 1

    def elements(self) -> range:
        return range(self.n)

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no element named {name!r}") from None

    def is_set_lattice(self) -> bool:
        return self.keys is not None

    def __repr__(self) -> str:
        label = self.name or "lattice"
        return f"<FiniteLattice {label} n={self.n}>"

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        if self.names != other.names:
            return False
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


def _point_meets(L: FiniteLattice) -> list:
    """m_x, the intersection of the keys holding x, for each point x of
    top∖bottom of a keyed lattice, in point order: n·|G| big-int ANDs."""

    def compute():
        keys = L.keys
        top = keys[L.top]
        out = []
        for x in iter_bits(top & ~keys[L.bottom]):
            xb = 1 << x
            m = top
            for k in keys:
                if k & xb:
                    m &= k
            out.append(m)
        return out

    return L._memo("point_meets", compute)


def _is_ring_of_sets(L: FiniteLattice) -> bool:
    """k | m_x is a key for every key k and every m_x (see from_keys)."""
    index = L._key_index
    for m in _point_meets(L):
        for k in L.keys:
            if k | m not in index:
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

    The description holds "elements" (unique strings) and exactly one of
    "covers" or "leq", each a list of [lo, hi] name pairs.  leq is completed
    to its reflexive-transitive closure, and from_up_rows checks that the
    result is antisymmetric, bounded and has every binary meet.
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
        known = isinstance(lo, str) and isinstance(hi, str)
        if not known or lo not in idx or hi not in idx:
            raise ValueError(f"unknown element in pair [{lo!r}, {hi!r}]")
        rows[idx[lo]] |= bit(idx[hi])
    return FiniteLattice.from_up_rows(
        names,
        reflexive_transitive_closure(rows),
        name=spec.get("name"),
        check=False,
    )


def chain_lattice(k: int, name: Optional[str] = None) -> FiniteLattice:
    """Chain with k elements c0 < c1 < ... (k >= 1).  Row i is
    {i, ..., k-1}, a total order by construction, so the per-element
    poset check is skipped."""
    names = [f"c{i}" for i in range(k)]
    rows = [mask_of(range(i, k)) for i in range(k)]
    return FiniteLattice.from_up_rows(
        names, rows, name=name or f"chain{k}", check=False
    )


def powerset_lattice(k: int, name: Optional[str] = None) -> FiniteLattice:
    """Powerset of a k-point set, in keyed mode."""
    return FiniteLattice.from_keys(
        range(1 << k), name=name or f"powerset{k}", verify=False
    )


# ---------------------------------------------------------------------------
# structural predicates


def is_distributive(L: FiniteLattice, force_scan: bool = False):
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
    triple (a, b, c) of the definitional scan, run only then.  With
    force_scan the scan alone decides (the oracle; not memoized).
    Returns (flag, witness_triple_or_None).
    """
    if force_scan:
        return _distributivity_scan(L)

    def compute():
        if L.keys is None and join_primes(L) != join_irreducibles(L):
            return _distributivity_scan(L)
        return (True, None)

    return L._memo("distributive", compute)


def _distributivity_scan(L: FiniteLattice):
    """Definitional triple scan; (False, first failing (a, b, c)) or (True, None)."""
    meet, join = L.meet, L.join
    rng = range(L.n)
    for a in rng:
        for b in rng:
            ab = meet(a, b)
            for c in rng:
                if meet(a, join(b, c)) != join(ab, meet(a, c)):
                    return (False, (a, b, c))
    return (True, None)


def _avoid_masks(L: FiniteLattice, rows: list, dual: list) -> list:
    """out[x] = full minus the union of rows[e] over the e in dual[x] whose
    dual row holds exactly two elements.

    With rows = up and dual = down those e are the atoms below x; with
    rows = down and dual = up, dually, the coatoms above x.
    """
    full = L.full_mask
    ends = mask_of(e for e in range(L.n) if popcount(dual[e]) == 2)
    out = []
    for d in dual:
        m = 0
        for e in iter_bits(d & ends):
            m |= rows[e]
        out.append(full & ~m)
    return out


def _disjoint_masks(L: FiniteLattice) -> list:
    """disj[b] = bitset of c with c∧b = 0.

    Every element above 0 of a finite lattice lies above an atom, so
    c∧b > 0 iff some atom t lies below c∧b, that is below both c and b.
    Hence disj[b] is the full mask minus the union of ↑t over the atoms
    t <= b: O(n·|atoms|) big-int operations, no meet.
    """

    def compute():
        L.materialize_rows()
        return _avoid_masks(L, L._up, L._down)

    return L._memo("disj", compute)


def _join_to_top_masks(L: FiniteLattice) -> list:
    """cover[a] = bitset of x with a∨x = 1.

    Dually to _disjoint_masks: every element below 1 lies below a coatom,
    so a∨x < 1 iff some coatom lies above both a and x, and cover[a] is
    the full mask minus the union of ↓c over the coatoms c >= a.
    """

    def compute():
        L.materialize_rows()
        return _avoid_masks(L, L._down, L._up)

    return L._memo("jointop", compute)


def is_normal(L: FiniteLattice, require_distributive: bool = True):
    """Every disjoint pair a,b admits a1,b1 with a1∧b = 0 = a∧b1, a1∨b1 = 1.

    Distributivity is a convention of the source notion; by default its
    failure raises NotDistributive, with require_distributive=False the
    bare predicate is evaluated anyway.  Returns (flag, witness_pair).

    a1∨b1 = 1 is symmetric in a1 and b1, so the a1 that work for a (some
    b1 with a∧b1 = 0 and a1∨b1 = 1) form R[a], the union of cover[b1]
    over b1 in disj[a].  The pair (a, b) fails iff disj[b] misses R[a]:
    one mask test per pair, with the pairs walked in the order of the
    definitional scan (a, then b >= a), so the witness is its first
    failing pair.
    """
    dist, wit = is_distributive(L)
    if require_distributive and not dist:
        raise NotDistributive(
            "normality is defined on distributive lattices", witness=wit
        )

    def compute():
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


def is_separative(L: FiniteLattice):
    """0 < a ≰ b implies some c > 0 with c <= a and c∧b = 0.

    Such a c exists iff some atom t <= a has t ≰ b: an atom below c is
    below a and disjoint from b, and an atom t ≰ b has t∧b = 0, so t is
    itself a witness.  So the b that fail for a are those above every
    atom below a but not above a: the intersection of ↑t over the atoms
    t <= a, minus ↑a.  The first failing a with its lowest such b is the
    first pair of the definitional (a, b) scan.
    """

    def compute():
        L.materialize_rows()
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
    """Distributive with every element complemented."""

    def compute():
        dist, _ = is_distributive(L)
        if not dist:
            return False
        disj = _disjoint_masks(L)
        jointop = _join_to_top_masks(L)
        return all(disj[a] & jointop[a] for a in range(L.n))

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
    norm, nw = is_normal(L, require_distributive=False)
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
        L.names,
        L._down,
        name=f"op({L.name})" if L.name else None,
        check=False,
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
        check=False,
    )


def atoms(L: FiniteLattice) -> tuple:
    """Minimal nonzero elements."""

    def compute():
        bot = L.bottom
        if L._down is not None:
            return tuple(
                a
                for a in range(L.n)
                if a != bot and popcount(L._down[a]) == 2
            )
        keys = L.keys
        order = sorted(
            (a for a in range(L.n) if a != bot),
            key=lambda a: (popcount(keys[a]), keys[a]),
        )
        found = []
        for a in order:
            ka = keys[a]
            if not any(subset(keys[t], ka) for t in found):
                found.append(a)
        return tuple(sorted(found))

    return L._memo("atoms", compute)


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
            return tuple(sorted({index[m] for m in _point_meets(L)}))
        L.materialize_rows()
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
        L.materialize_rows()
        rows = set(L._down)
        full = L.full_mask
        return tuple(j for j in range(L.n) if full & ~L._up[j] in rows)

    return L._memo("join_primes", compute)
