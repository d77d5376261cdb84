"""Combinatorial covering certificates on finite ground sets.

Indexed set families with stage sequences, the group/phi round trip, the
certificate poset of (centered set, counter) nodes with its strict order,
rank search over bitset successor sets (one bit per centered set, one AND
or OR per member), and the two clopen-style refinements.  The search
answers every counter above max phi(u) in closed form, from each set's
depth in the last level's strict-superset relation; at counters up to
min phi(u) a longest chain stays on its set, and only the counters in
between fill a bucketed table, each level of it until a row repeats.

Node validity (centeredness) is read over the ground set: the intersection
of the chosen members must be nonempty, the empty choice being vacuously
centered.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Sequence, Tuple

from .bits import bit, iter_bits, lowest_bit, mask_of, transpose
from .caps import CENTERED_ENUM_CAP as _CENTERED_ENUM_CAP
from .errors import (
    CapTooSmallWarning,
    EmptyPhiValue,
    InvalidNode,
    MissingStages,
    TooLarge,
)


@dataclass(frozen=True)
class Member:
    """One indexed subset of the ground set, optionally with stages."""

    id: str
    points: int  # bitset over ground indices
    group: int
    stages: Optional[tuple] = None  # increasing bitsets, last == points

    def __post_init__(self):
        if self.group < 0:
            raise ValueError("group indices are naturals")
        if self.stages is not None:
            prev = 0
            for w in self.stages:
                if prev & ~w:
                    raise ValueError(f"stages of {self.id!r} not increasing")
                prev = w
            if not self.stages or self.stages[-1] != self.points:
                raise ValueError(f"stages of {self.id!r} do not exhaust it")


@dataclass(frozen=True)
class CoverFamily:
    ground: tuple  # point labels
    members: tuple  # Member entries; an id may recur across groups

    def __post_init__(self):
        seen = set()
        first: dict = {}  # id -> its first entry
        for m in self.members:
            if m.points >> len(self.ground):
                raise ValueError(f"{m.id!r} leaves the ground set")
            key = (m.id, m.group)
            if key in seen:
                raise ValueError(f"duplicate entry {key}")
            seen.add(key)
            if first.setdefault(m.id, m).points != m.points:
                raise ValueError(
                    f"entries named {m.id!r} disagree on their point set"
                )

    @property
    def ground_mask(self) -> int:
        return bit(len(self.ground)) - 1

    def groups(self) -> dict:
        out: dict = {}
        for m in self.members:
            out.setdefault(m.group, []).append(m)
        return out

    def by_id(self) -> dict:
        out: dict = {}
        for m in self.members:
            out.setdefault(m.id, m)
        return out

    def point_id(self, label) -> int:
        return self.ground.index(label)


def ord_count(x: int, members: Iterable[Member]) -> int:
    """Number of members containing the point with index x."""
    return sum(1 for m in members if m.points >> x & 1)


def is_T0_separating(F: CoverFamily):
    """Some member contains exactly one of every pair of distinct points.

    Points x and y are separated iff their signatures, the sets of members
    holding each, differ.  So the pairs that fail are the pairs within one
    signature group, and the first of them in (x, y) order pairs the
    lowest point whose signature recurs with the next point sharing it:
    O(|G|·|M|) bit operations instead of a member scan per pair.
    """
    sig = [0] * len(F.ground)
    for i, m in enumerate(F.members):
        for x in iter_bits(m.points):
            sig[x] |= 1 << i
    first: dict = {}
    fails = []
    for y, s in enumerate(sig):
        x = first.setdefault(s, y)
        if x != y:
            fails.append((x, y))
    if fails:
        return (False, min(fails))
    return (True, None)


# ---------------------------------------------------------------------------
# centered subcollections


@dataclass(frozen=True)
class CenteredRankReport:
    max_centered_size: int
    chain: tuple  # descending chain of index tuples, largest first
    max_ord: int  # max over points of ord(x, members)


def centered_poset_rank(
    members: Sequence[Member], ground_mask: int
) -> CenteredRankReport:
    """Longest strictly descending chain of centered subcollections.

    For a finite family a subcollection is centered iff its members share
    a point x, that is iff it lies inside M_x = {i : x ∈ members[i]}.  So
    the largest centered ones are the M_x of size max ord, and the chain
    length is max ord.  Of those the lexicographically largest index
    tuple is taken: in centered_subsets' depth-first pop order children
    come largest index first, so it is the first maximum there.
    O(|G|·|M|).
    """
    stars = [
        tuple(i for i, m in enumerate(members) if m.points >> x & 1)
        for x in iter_bits(ground_mask)
    ]
    best = max(stars, key=lambda s: (len(s), s), default=())
    chain = tuple(best[:k] for k in range(len(best), 0, -1))
    return CenteredRankReport(len(best), chain, len(best))


# ---------------------------------------------------------------------------
# group structure and phi


def phi_from_witness(F: CoverFamily) -> dict:
    """phi(u) = the set of groups whose listing contains u."""
    phi: dict = {}
    for m in F.members:
        phi.setdefault(m.id, set()).add(m.group)
    return {u: frozenset(g) for u, g in phi.items()}


def witness_from_phi(members: Sequence[Member], phi: dict) -> CoverFamily:
    """Regroup members so group m holds exactly those u with m in phi(u)."""
    by_id: dict = {}
    ground_size = 0
    for m in members:
        by_id.setdefault(m.id, m)
        ground_size = max(ground_size, m.points.bit_length())
    entries = []
    for u, m in by_id.items():
        if u not in phi or not phi[u]:
            raise EmptyPhiValue(f"phi value for {u!r} is missing or empty")
        for g in sorted(phi[u]):
            entries.append(Member(u, m.points, g, m.stages))
    ground = tuple(str(i) for i in range(ground_size))
    return CoverFamily(ground, tuple(entries))


def weakly_sigma_point_finite(
    F: CoverFamily, tau: Optional[int] = None
) -> bool:
    """Every member lies, for each point, in a group of ord below tau.

    tau marks the finitude threshold; the default |members|+1 makes the
    predicate literally true on finite families (no fake infinities).
    """
    if tau is None:
        tau = len(F.members) + 1
    phi = phi_from_witness(F)
    groups = F.groups()
    for x in range(len(F.ground)):
        ords = {g: ord_count(x, ms) for g, ms in groups.items()}
        for m in F.members:
            if not any(ords[g] < tau for g in phi[m.id]):
                return False
    return True


# ---------------------------------------------------------------------------
# the certificate poset


Node = Tuple[FrozenSet[str], int]


def _intersection(F: CoverFamily, ids: Iterable[str]) -> int:
    by_id = F.by_id()
    inter = F.ground_mask
    for u in ids:
        inter &= by_id[u].points
    return inter


def node_is_valid(F: CoverFamily, node: Node) -> bool:
    s, k = node
    return k >= 0 and _intersection(F, s) != 0


def gulko_lt(
    F: CoverFamily,
    a: Node,
    b: Node,
    phi: dict,
    u: str,
    mode: str = "membership",
) -> bool:
    """Strict order on (centered set, counter) nodes.

    (s,k) < (t,l) iff s ⊆ t, k < l, and every group index m in phi(u)
    below k is hit by some v in t∖s.  "Hit" defaults to m ∈ phi(v); the
    displayed singleton reading phi(v) = {m} is kept behind mode
    "equality" for comparison.
    """
    pos, need, hit = _order_masks(F, phi, u, mode)
    for node in (a, b):
        if not node_is_valid(F, node):
            raise InvalidNode(f"node {node} is not centered")
    s, k = a
    t, l = b
    return k < l and _step(
        mask_of(pos[v] for v in s),
        mask_of(pos[v] for v in t),
        hit[: bisect_left(need, k)],
    )


def _order_masks(F: CoverFamily, phi: dict, u: str, mode: str):
    """The order on u's nodes as bitsets: ({id: bit position}, need, hit).

    Member ids, sorted, are the bit positions; need is phi(u) in increasing
    order and hit[i] holds the members v that hit need[i] (need[i] ∈ phi(v),
    or phi(v) = {need[i]} in mode "equality").  At counter k the groups to
    hit are need[:bisect_left(need, k)].  Every member's phi value is read
    here: a phi lacking u raises KeyError, one lacking another member
    EmptyPhiValue, rather than letting that member hit nothing.
    """
    if mode not in ("membership", "equality"):
        raise ValueError(f"unknown mode {mode!r}")
    if u not in phi:
        raise KeyError(f"no phi value for {u!r}")
    ids = sorted(F.by_id())
    for v in ids:
        if v not in phi:
            raise EmptyPhiValue(f"no phi value for member {v!r}")

    def is_hit(m: int, group) -> bool:
        return m in group if mode == "membership" else set(group) == {m}

    need = sorted(phi[u])
    hit = [
        mask_of(i for i, v in enumerate(ids) if is_hit(m, phi[v]))
        for m in need
    ]
    return {v: i for i, v in enumerate(ids)}, need, hit


def _step(s: int, t: int, hits: Sequence[int]) -> bool:
    """s ⊆ t and t∖s meets every mask in hits: the order on nodes, over
    member bitsets, without its counter test k < l."""
    fresh = t & ~s
    return not s & ~t and all(fresh & h for h in hits)


def gulko_lt_brute(
    F: CoverFamily,
    a: Node,
    b: Node,
    phi: dict,
    u: str,
    mode: str = "membership",
) -> bool:
    """Independent literal transcription of the order, for cross-checks."""
    for node in (a, b):
        if not node_is_valid(F, node):
            raise InvalidNode(f"node {node} is not centered")
    s, k = a
    t, l = b
    if not all(v in t for v in s):
        return False
    if not k < l:
        return False
    for m in range(k):
        if m not in phi[u]:
            continue
        found = False
        for v in t:
            if v in s:
                continue
            if (mode == "membership" and m in phi[v]) or (
                mode == "equality" and set(phi[v]) == {m}
            ):
                found = True
                break
        if not found:
            return False
    return True


def centered_subsets(F: CoverFamily) -> list:
    """Every centered choice of members, as (id set, member mask) pairs in
    depth-first pop order, the empty choice first.  Bit i of the member
    mask is the i-th member id in sorted order, its bit position in
    _order_masks."""
    by_id = F.by_id()
    ids = sorted(by_id)
    if len(ids) > _CENTERED_ENUM_CAP:
        raise TooLarge("too many members for centered enumeration")
    points = [by_id[v].points for v in ids]
    out = []
    stack = [((), 0, F.ground_mask, 0)]
    while stack:
        chosen, mask, inter, start = stack.pop()
        out.append((frozenset(chosen), mask))
        for i in range(start, len(ids)):
            nxt = inter & points[i]
            if nxt:
                stack.append((chosen + (ids[i],), mask | 1 << i, nxt, i + 1))
    return out


def _chain_search(F: CoverFamily, phi: dict, u: str, mode: str):
    """rank_at(cap): the longest chain with all counters <= cap.

    Successor counters are taken as k+1 only: lowering a successor's
    counter weakens every later covering requirement while preserving
    order, so minimal increments are dominant.  A step s -> t at counter k
    depends on k only through its level, the number of groups of phi(u)
    below k, so the centered sets (enumerated once, in centered_subsets
    order) get one successor set per level, shared by every cap.

    Successor sets are bitsets over the indices of the centered sets.
    With holders[v] the sets that hold member v, the sets t ⊇ s are the
    intersection of holders[v] over v in s, all sets when s is empty:
    level 0 asks for no group.  Level l keeps those of level l - 1 whose
    fresh part t∖s meets hit[l - 1]; as t ⊇ s, t∖s meets hit[l - 1] iff
    t meets hit[l - 1]∖s, that is iff t lies in the union of holders[v]
    over v in hit[l - 1]∖s.  So a set costs one AND or OR per member at
    each level, where a scan of pairs of sets costs one order step per
    pair.

    Of equally long chains the first in centered_subsets order is kept,
    both for a node's successor and for the start node.  In the
    depth-first pop order of centered_subsets a strict superset t of s
    comes after s: either s is a prefix of t's sorted ids, and t lies in
    s's subtree, or at the first place the two sorted id lists differ s
    has the larger id, and of two siblings the larger id is pushed last,
    popped first, and its whole subtree is popped before the smaller one.
    And each row is antimonotone in the set: for t ⊇ s, a chain from
    (t, k) stepping to (t', k + 1) gives one from (s, k) as long, since
    s ⊆ t ⊆ t' and t'∖s ⊇ t'∖t meets every group t'∖t meets.  So the
    start is (sets[0], 0): a chain from (s, k + 1) moved one counter down
    is a chain from (s, k), since a lower counter asks for no more
    groups, and the empty choice sets[0], a subset of every set, starts
    a longest chain in each row.

    Rows at or below min phi(u) stay put.  Such a row reads level 0,
    where the successors of s are the t ⊇ s, so s is a longest successor
    of itself and, its strict supersets coming after it, the first one:
    length(s, k) = 1 + length(s, k + 1), and the chain stays on s.

    Rows above max phi(u) in closed form.  Every counter k > max phi(u)
    reads the last level, where each group of phi(u) must be hit, so
    t∖s ≠ ∅ and every successor is a strict superset, which comes later.
    So one pass over the sets in decreasing index order finds depth[s],
    the longest path from s in the last level's relation (0 when s has no
    successor), each set's successors being done before it; depth is kept
    in buckets, one bitset per value, and atleast[h] ORs the buckets from
    h up.  Then for k > max phi(u), length(s, k) = min(cap - k + 1,
    1 + depth[s]), by induction down from k = cap, where every length is
    1: a chain of last-level steps can be cut short to fit under the
    cap, and none is longer than 1 + depth[s].  A node's longest
    successors are the t with min(cap - k, 1 + depth[t]) = min(cap - k,
    depth[s]), that is with depth[t] >= min(cap - k - 1, depth[s] - 1),
    so the successor kept is the lowest bit of
    succ & atleast[min(cap - k - 1, depth[s] - 1)], the first longest one
    in index order, as a bucketed row would pick.

    Only the rows strictly between min phi(u) and max phi(u) + 1 are
    filled as a table of longest chains, from the lowest closed-form row
    down, each row bucketed by length, one bitset of sets per length.  A
    node's successor is the lowest set bit of its successor set within
    the longest bucket that set meets: that bucket holds exactly its
    longest successors, and the lowest bit among them is the first of
    them in index order, the one that max over its successors listed in
    index order returns.  A filled row k reads level l = the number of
    values of phi(u) below k, at least 1 above min phi(u), and it and its
    successors are a function of row k + 1 and l alone.  So once a
    filled row equals the row above it, every row of level l below it,
    down to the level's lowest counter need[l - 1] + 1, repeats it with
    the same successors: those rows are skipped, and the chain reads its
    successors there from the repeated row.  A level's sets strictly
    grow along each step, so at most |members| + 2 of its rows are
    filled, and the work no longer grows with the values of phi(u).

    A cap at or below max phi(u) moves the closed form up to its top
    row, all 1s, which is min(cap - k + 1, 1 + depth[s]) at k = cap as
    well.  When phi(u) is empty every row below the cap stays put, so
    every length is cap - k + 1 and the chain stays on the first set,
    the empty choice; depth, read over strict supersets of a last level
    that is level 0, is then unused.
    """
    pos, need, hit = _order_masks(F, phi, u, mode)
    sets, masks = zip(*centered_subsets(F))
    holders = transpose(masks, len(pos))
    everything = bit(len(sets)) - 1
    level = []
    for s in masks:
        out = everything
        for v in iter_bits(s):
            out &= holders[v]
        level.append(out)
    succ = [level]
    for h in hit:
        level = []
        for s, out in zip(masks, succ[-1]):
            reach = 0
            for v in iter_bits(h & ~s):
                reach |= holders[v]
            level.append(out & reach)
        succ.append(level)

    last = succ[-1]
    depth = [0] * len(sets)
    by_depth = []  # by_depth[h]: the sets of depth h
    for x in range(len(sets) - 1, -1, -1):
        out, h = last[x], len(by_depth)
        while h and not out & by_depth[h - 1]:
            h -= 1
        depth[x] = h
        if h == len(by_depth):
            by_depth.append(0)
        by_depth[h] |= 1 << x
    atleast = by_depth  # atleast[h]: the sets of depth >= h
    for h in range(len(atleast) - 2, -1, -1):
        atleast[h] |= atleast[h + 1]

    def rank_at(cap: int):
        if cap < 0:
            return 0, ()
        top = min(cap, need[-1] + 1) if need else cap  # lowest closed-form row
        low = min(top, need[0] + 1) if need else top  # rows below stay put
        row = [min(cap - top + 1, 1 + h) for h in depth]
        # picks[i][x]: the successor of (sets[x], k) for starts[i] <= k
        # below the next start, filled top down
        starts, picks = [], []
        k = top - 1
        while k >= low:
            l = bisect_left(need, k)
            buckets: dict = {}
            for j, n in enumerate(row):
                buckets[n] = buckets.get(n, 0) | 1 << j
            longest_first = sorted(buckets.items(), reverse=True)
            lengths, pick = [], []
            for out in succ[l]:
                n, x = 0, None  # no successor: the chain ends here
                if out:  # the buckets cover every set, so out meets one
                    for n, bucket in longest_first:
                        if out & bucket:
                            x = lowest_bit(out & bucket)
                            break
                lengths.append(n + 1)
                pick.append(x)
            if lengths == row:  # so is every row of level l below k
                k = max(low, need[l - 1] + 1)
            starts.append(k)
            picks.append(pick)
            row = lengths
            k -= 1
        starts.reverse()
        picks.reverse()
        length = low + row[0]
        chain = [(sets[0], k) for k in range(low)]
        x, k = 0, low
        while x is not None:
            chain.append((sets[x], k))
            if k < top:
                x = picks[bisect_right(starts, k) - 1][x]
            elif k < cap and depth[x]:
                x = lowest_bit(
                    last[x] & atleast[min(cap - k - 1, depth[x] - 1)]
                )
            else:
                x = None
            k += 1
        return length, tuple(chain)

    return rank_at


def max_increasing_chain(
    F: CoverFamily,
    phi: dict,
    u: str,
    k_cap: int,
    mode: str = "membership",
):
    """Longest <-increasing node chain with all counters <= k_cap; warns
    when the value is still growing at the cap."""
    rank_at = _chain_search(F, phi, u, mode)
    length, chain = rank_at(k_cap)
    if k_cap > 0 and rank_at(k_cap - 1)[0] != length:
        warnings.warn(
            f"chain length still growing at k_cap={k_cap}",
            CapTooSmallWarning,
        )
    return length, chain


def max_increasing_chain_brute(
    F: CoverFamily,
    phi: dict,
    u: str,
    k_cap: int,
    mode: str = "membership",
) -> int:
    """Plain DFS over all successor counters, no memo, no dominance."""
    sets = [s for s, _ in centered_subsets(F)]

    def extend(node: Node) -> int:
        best = 1
        s, k = node
        for t in sets:
            for l in range(k + 1, k_cap + 1):
                if gulko_lt_brute(F, node, (t, l), phi, u, mode):
                    best = max(best, 1 + extend((t, l)))
        return best

    best = 0
    for s in sets:
        for k0 in range(k_cap + 1):
            best = max(best, extend((s, k0)))
    return best


def stabilized_rank(
    F: CoverFamily, phi: dict, u: str, mode: str = "membership"
):
    """Rank at cap = max(phi(u)) + |members| + 1, where it is stable.

    A chain's counters strictly increase, so at most max(phi(u)) + 1 of
    its nodes have a counter <= max(phi(u)).  From a node with a larger
    counter every group of phi(u) must be hit, so t∖s ≠ ∅ and the sets
    strictly grow: at most |members| + 1 such nodes.  Moved down to
    counters 0, 1, ... (allowed, see _chain_search), any chain fits under
    cap, in either mode.
    """
    rank_at = _chain_search(F, phi, u, mode)
    if not phi[u]:
        raise EmptyPhiValue(f"phi value for {u!r} is empty")
    return rank_at(max(phi[u]) + len(F.by_id()) + 1)


def rank_upper_bound(F: CoverFamily, phi: dict, u: str) -> int:
    """|members| + min(phi(u)) + 2: counters may idle below min(phi(u)),
    after which every step must enlarge the centered set."""
    return len(F.by_id()) + min(phi[u]) + 2


# ---------------------------------------------------------------------------
# refinements


def cantor_pair(a: int, b: int) -> int:
    """The standard pairing bijection omega x omega -> omega."""
    return (a + b) * (a + b + 1) // 2 + b


@dataclass(frozen=True)
class Refinement:
    family: CoverFamily
    t0_preserved: bool
    ord_transfer_ok: bool
    group_rank_bounds_ok: bool


def _refine(F: CoverFamily, group_key) -> Refinement:
    """Stage every member out: stage k of a member of group g becomes a
    member of group group_key(k, g).  The three flags hold by
    construction, so they are set rather than measured:

    * t0_preserved: each member's last stage is its whole point set, so
      every point set of F is the point set of some output member, and
      T0 separation depends on the point sets alone.
    * ord_transfer_ok: a stage is a subset of its member, and the stage-k
      slice of a group takes one stage from each of distinct members, so
      no point lies in more slice members than group members.
    * group_rank_bounds_ok: group_key is cantor_pair in one orientation,
      a bijection, so each output group is the stage-k slice of exactly
      one source group; its max centered size is its max ord
      (centered_poset_rank), at most that group's by the ord transfer.
    """
    if any(m.stages is None for m in F.members):
        raise MissingStages("every member needs a stage sequence")
    entries = []
    for m in F.members:
        for k, w in enumerate(m.stages):
            entries.append(
                Member(
                    id=f"{m.id}.g{m.group}.k{k}",
                    points=w,
                    group=group_key(k, m.group),
                    stages=(w,),
                )
            )
    return Refinement(CoverFamily(F.ground, tuple(entries)), True, True, True)


def wiec_refinement(F: CoverFamily) -> Refinement:
    """Stage members out, grouping by (stage, group) through the pairing."""
    return _refine(F, lambda k, n: cantor_pair(k, n))


def rosenthal_refinement(F: CoverFamily) -> Refinement:
    """Same staging with the (group, stage) orientation of the index."""
    return _refine(F, lambda k, n: cantor_pair(n, k))
