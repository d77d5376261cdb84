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
    """Smallest reflexive, transitive relation containing rows (Warshall)."""
    rows = [row | 1 << i for i, row in enumerate(rows)]
    n = len(rows)
    for k in range(n):
        rk = rows[k]
        kb = 1 << k
        for i in range(n):
            if rows[i] & kb:
                rows[i] |= rk
    return rows
