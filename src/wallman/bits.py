"""Tiny bitset helpers; element sets are plain ints throughout the package."""

from __future__ import annotations

from typing import Iterable, Iterator


def bit(i: int) -> int:
    return 1 << i


def mask_of(ids: Iterable[int]) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def lowest_bit(mask: int) -> int:
    """Index of the lowest set bit of a nonzero mask: next(iter_bits(mask))
    without a generator, for inner loops."""
    return (mask & -mask).bit_length() - 1


def subset(a: int, b: int) -> bool:
    return a & ~b == 0


def popcount(mask: int) -> int:
    return mask.bit_count()


def transpose(rows, width=None) -> list:
    """Columns of a bit matrix: out[j] has bit i iff rows[i] has bit j,
    for j below width, which defaults to len(rows) (the rows of the
    converse relation).  Every row must lie below 2**width.

    Each row is written as a binary string of that width and zip reads
    the strings back column by column, so the work per bit is done in C;
    once the rows are a few dozen bits wide that is several times faster
    than ORing in one bit at a time.
    """
    if width is None:
        width = len(rows)
    if not rows or not width:
        return [0] * width
    text = [format(row, f"0{width}b") for row in reversed(rows)]
    out = list(map(int, map("".join, zip(*text)), [2] * width))
    out.reverse()
    return out


def union_closure(masks) -> set:
    """Every union of a subfamily of masks, the empty union 0 included.

    Over the rows of a preorder these are the sets S holding rows[x] for
    every x in S: down-sets from down rows, up-sets from up rows.
    """
    out = {0}
    for m in masks:
        out |= {s | m for s in out}
    return out


def reflexive_transitive_closure(rows) -> list:
    """Smallest reflexive, transitive relation containing rows, every row
    below 2**len(rows).

    An iterative depth-first search, roots in decreasing id order, closes
    each node i in post-order: acc starts as {i}, and while some
    successor of i is not yet in acc, the lowest one, j, is closed first
    (if it is not yet) and acc |= up[j], which holds all j reaches.  A
    successor already in acc is skipped: it lies in a closed row, so all
    it reaches is there too.  So the result is the closure, every row ORed
    in is final, and no row is swept twice.  The covers io.dump_lattice
    writes cost one OR each, since no cover of i lies above another.
    When the ids list the elements in a linear extension (lower elements
    first), as gen builds them, the lowest successor left is always a
    cover, so a transitively closed `leq` relation costs one OR per
    cover as well, instead of Warshall's n² bit tests.  Edges i -> j
    with j > i, as gen.random_poset draws them, find j closed already.

    A successor that is still open on the stack is a back edge: the
    relation has a cycle, so it is no partial order and post-order rows
    are not closed yet.  Then the closure is taken by _warshall instead;
    both give the one closure, so the NotAPoset witness that
    FiniteLattice.from_up_rows names is the same either way.
    """
    n = len(rows)
    up = [0] * n  # 0: not reached, -1: open on the stack, else closed
    for root in range(n - 1, -1, -1):
        if up[root]:
            continue
        stack = []
        i, acc = root, 1 << root
        rest = rows[root] & ~acc
        up[root] = -1
        while True:
            while rest:
                j = (rest & -rest).bit_length() - 1
                r = up[j]
                if r > 0:
                    acc |= r
                    rest &= ~acc
                elif r:
                    return _warshall(rows)
                else:
                    stack.append((i, acc, rest))
                    i, acc = j, 1 << j
                    rest = rows[j] & ~acc
                    up[j] = -1
            up[i] = acc
            if not stack:
                break
            i, acc, rest = stack.pop()
    return up


def _warshall(rows) -> list:
    """Smallest reflexive, transitive relation containing rows, by
    Warshall's n² loop: the route of a relation with a cycle."""
    rows = [row | 1 << i for i, row in enumerate(rows)]
    n = len(rows)
    for k in range(n):
        rk = rows[k]
        kb = 1 << k
        for i in range(n):
            if rows[i] & kb:
                rows[i] |= rk
    return rows
