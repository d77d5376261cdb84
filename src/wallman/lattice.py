"""Finite bounded lattices and their exhaustively checked structural predicates.

Elements are dense integer ids in input order.  All element sets are bitsets
(plain ints).  Two storage modes exist:

* table mode: the full order relation plus precomputed meet/join tables
  (built at load time for n <= TABLE_CAP, on demand up to SIZE_CAP);
* keyed mode: every element carries a set-key (a bitmask over some ground
  set) such that leq is key inclusion and meet/join are key & / |.  This is
  how generated down-set lattices and powerset algebras are represented and
  it scales past the table cap.
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
    TooLarge,
)

SIZE_CAP = 4096
TABLE_CAP = 1024


class FiniteLattice:
    """Immutable finite bounded lattice."""

    __slots__ = (
        "name",
        "names",
        "n",
        "bottom",
        "top",
        "keys",
        "_key_index",
        "_up",
        "_down",
        "_meet",
        "_join",
        "_cache",
    )

    def __init__(self):
        raise TypeError("use load_lattice / FiniteLattice.from_keys")

    # -- constructors -------------------------------------------------

    @classmethod
    def _blank(cls) -> "FiniteLattice":
        obj = object.__new__(cls)
        obj.name = None
        obj.keys = None
        obj._key_index = None
        obj._up = None
        obj._down = None
        obj._meet = None
        obj._join = None
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
        """Build from the full order relation (up_rows[i] = {j : i <= j})."""
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
        full = bit(n) - 1
        bottom = top = -1
        for i in range(n):
            if up[i] == full:
                bottom = i
            if down[i] == full:
                top = i
        if bottom < 0 or top < 0:
            raise NoBounds("the poset lacks a least or a greatest element")
        obj = cls._blank()
        obj.name = name
        obj.names = tuple(names)
        obj.n = n
        obj.bottom = bottom
        obj.top = top
        obj._up = up
        obj._down = down
        if n <= TABLE_CAP:
            obj._meet = _build_table(names, down)
            obj._join = _build_table(names, up)
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

        The key family must be closed under & and |.  With verify (the
        default) every pair is checked, at every size; the first pair
        (i, j), i < j, whose & or | is missing is the NotALattice witness.
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
        if verify:
            for i, a in enumerate(keys):
                for j in range(i + 1, n):
                    b = keys[j]
                    if a & b not in index or a | b not in index:
                        raise NotALattice(
                            "key family is not closed under meet/join",
                            witness=(i, j),
                        )
        if names is None:
            names = [_key_name(k) for k in keys]
        elif len(set(names)) != n:
            raise ValueError("element names must be unique")
        obj = cls._blank()
        obj.name = name
        obj.names = tuple(names)
        obj.n = n
        obj.keys = tuple(keys)
        obj._key_index = index
        obj.bottom = index[bot_key]
        obj.top = index[top_key]
        return obj

    # -- order and operations -----------------------------------------

    def leq(self, a: int, b: int) -> bool:
        if self._up is not None:
            return bool(self._up[a] >> b & 1)
        return subset(self.keys[a], self.keys[b])

    def meet(self, a: int, b: int) -> int:
        if self._meet is not None:
            return self._meet[a][b]
        if self.keys is not None:
            return self._key_index[self.keys[a] & self.keys[b]]
        return _scan_bound(self.names, self._down, a, b)

    def join(self, a: int, b: int) -> int:
        if self._join is not None:
            return self._join[a][b]
        if self.keys is not None:
            return self._key_index[self.keys[a] | self.keys[b]]
        return _scan_bound(self.names, self._up, a, b)

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

        For each ground point g, holds[g] is the set of elements whose key
        contains g; the up-row of a is then the intersection of holds[g]
        over the points g of its key.  That costs twice the total key size
        in big-int operations instead of n² key comparisons.
        """
        if self._up is not None:
            return
        if self.n > SIZE_CAP:
            raise TooLarge("relation rows beyond the size cap")
        holds = {}
        for j, kj in enumerate(self.keys):
            for g in iter_bits(kj):
                holds[g] = holds.get(g, 0) | bit(j)
        full = self.full_mask
        up = []
        for ka in self.keys:
            m = full
            for g in iter_bits(ka):
                m &= holds[g]
            up.append(m)
        self._up = up
        self._down = transpose(up)

    # -- conveniences --------------------------------------------------

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


def _scan_bound(names, rows, a: int, b: int) -> int:
    """Greatest element of rows[a] & rows[b]; rows=down gives meet."""
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


def _build_table(names, rows) -> list:
    """Table of _scan_bound over all pairs, in O(n²) big-int operations.

    Read rows[c] as the set of elements "below" c (down rows: the order
    itself, giving meets; up rows: its dual, giving joins).  c strictly
    below d makes rows[c] a proper subset of rows[d], so sorting by
    popcount(rows[c]) is a linear extension; the bits are relabelled by
    position in it.  If cand = rows[a] & rows[b] has a greatest element g,
    every c in cand lies below g and so sits at a lower position: g can
    only be the highest bit of the relabelled cand.  The two exact checks
    of _scan_bound stay (cand nonempty, cand ⊆ rows[g]), so a pair without
    a greatest common bound still raises, and pairs are visited in the
    same order: the first failing pair, its message and its witness are
    those of _scan_bound.
    """
    n = len(rows)
    order = sorted(range(n), key=lambda c: popcount(rows[c]))
    pos = [0] * n
    for p, c in enumerate(order):
        pos[c] = p
    rel = []
    for row in rows:
        m = 0
        for x in iter_bits(row):
            m |= 1 << pos[x]
        rel.append(m)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        ta = table[a]
        ta[a] = a
        ra = rel[a]
        for b in range(a + 1, n):
            cand = ra & rel[b]
            if cand == 0:
                raise NotALattice(
                    f"{names[a]}, {names[b]} have no common bound",
                    witness=(a, b),
                )
            c = order[cand.bit_length() - 1]
            if cand & ~rel[c]:
                raise NotALattice(
                    f"{names[a]}, {names[b]} lack a greatest common bound",
                    witness=(a, b),
                )
            ta[b] = c
            table[b][a] = c
    return table


# ---------------------------------------------------------------------------
# loading


def load_lattice(spec: Mapping) -> FiniteLattice:
    """Build a lattice from a parsed description.

    The description holds "elements" (unique strings) and exactly one of
    "covers" or "leq", each a list of [lo, hi] name pairs.  leq is completed
    to its reflexive-transitive closure; meet/join tables are computed with
    an exhaustive inf/sup existence check.
    """
    if not isinstance(spec, Mapping) or "elements" not in spec:
        raise ValueError('lattice description needs an "elements" list')
    if not isinstance(spec["elements"], list):
        raise ValueError('lattice field "elements" is not a list')
    names = [str(x) for x in spec["elements"]]
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
    rows = reflexive_transitive_closure(rows)
    for i in range(n):
        for j in iter_bits(rows[i]):
            if j != i and rows[j] >> i & 1:
                raise NotAPoset(
                    f"antisymmetry fails on {names[i]}, {names[j]}"
                )
    return FiniteLattice.from_up_rows(
        names, rows, name=spec.get("name"), check=False
    )


def chain_lattice(k: int, name: Optional[str] = None) -> FiniteLattice:
    """Chain with k elements c0 < c1 < ... (k >= 1)."""
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
    embeds in a powerset and is distributive.  Cost: |J|·n joins.

    When the route finds a failure, the witness is the first failing
    triple (a, b, c) of the definitional scan, run only then.  With
    force_scan the scan alone decides (the oracle; not memoized).
    Returns (flag, witness_triple_or_None).
    """
    if force_scan:
        return _distributivity_scan(L)

    def compute():
        if join_primes(L) != join_irreducibles(L):
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


def _disjoint_masks(L: FiniteLattice) -> list:
    """disj[b] = bitset of c with c∧b = 0."""

    def compute():
        bot = L.bottom
        out = []
        for b_ in range(L.n):
            m = 0
            for c in range(L.n):
                if L.meet(c, b_) == bot:
                    m |= bit(c)
            out.append(m)
        return out

    return L._memo("disj", compute)


def _join_to_top_masks(L: FiniteLattice) -> list:
    """cover[a] = bitset of x with a∨x = 1."""

    def compute():
        top = L.top
        out = []
        for a in range(L.n):
            m = 0
            for x in range(L.n):
                if L.join(a, x) == top:
                    m |= bit(x)
            out.append(m)
        return out

    return L._memo("jointop", compute)


def is_normal(L: FiniteLattice, require_distributive: bool = True):
    """Every disjoint pair a,b admits a1,b1 with a1∧b = 0 = a∧b1, a1∨b1 = 1.

    Distributivity is a convention of the source notion; by default its
    failure raises NotDistributive, with require_distributive=False the
    bare predicate is evaluated anyway.  Returns (flag, witness_pair).
    """
    dist, wit = is_distributive(L)
    if require_distributive and not dist:
        raise NotDistributive(
            "normality is defined on distributive lattices", witness=wit
        )

    def compute():
        bot = L.bottom
        disj = _disjoint_masks(L)
        jointop = _join_to_top_masks(L)
        for a in range(L.n):
            for b in iter_bits(disj[a]):
                if b < a:
                    continue
                ok = False
                for a1 in iter_bits(disj[b]):
                    if disj[a] & jointop[a1]:
                        ok = True
                        break
                if not ok:
                    return (False, (a, b))
        return (True, None)

    return L._memo("normal", compute)


def is_separative(L: FiniteLattice):
    """0 < a ≰ b implies some c > 0 with c <= a and c∧b = 0."""

    def compute():
        bot = L.bottom
        nonbot = L.full_mask & ~bit(bot)
        disj = _disjoint_masks(L)
        for a in range(L.n):
            if a == bot:
                continue
            da = L.down_mask(a) & nonbot
            for b_ in range(L.n):
                if L.leq(a, b_):
                    continue
                if not da & disj[b_]:
                    return (False, (a, b_))
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
    """Smallest sublattice containing M and the bounds (closure iteration)."""
    cur = set(M) | {L.bottom, L.top}
    while True:
        items = list(cur)
        new = set()
        for i, a in enumerate(items):
            for b_ in items[i + 1 :]:
                m = L.meet(a, b_)
                j = L.join(a, b_)
                if m not in cur:
                    new.add(m)
                if j not in cur:
                    new.add(j)
        if not new:
            return frozenset(cur)
        cur |= new


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
    """

    def compute():
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
    elements none of which is above it.  Join-primes are join-irreducible
    (j = a∨b with a, b < j breaks the law), so only J(L) is tested:
    |J|·n joins.
    """

    def compute():
        join = L.join
        full = L.full_mask
        out = []
        for j in join_irreducibles(L):
            up_j = L.up_mask(j)
            s = L.bottom
            for x in iter_bits(full & ~up_j):
                s = join(s, x)
            if not up_j >> s & 1:
                out.append(j)
        return tuple(out)

    return L._memo("join_primes", compute)
