"""Balls-in-boxes oracles for descent counting.

Two independent counting models live here, each standardizing to a
permutation so that closed-form descent counts can be checked against raw
enumeration.

One-sided: place labeled balls 1..n into k ordered boxes. Reading the boxes
left to right, each box's contents in increasing order, gives a barred
permutation: the word w plus bars splitting it into k blocks. Every descent
of w is forced onto a bar, so the number of placements with a fixed w is
binomial(k + n - 1 - des(w), n).

Two-sided: place n unlabeled balls into a columns-by-rows grid, cells
repeatable. Standardize by ranking the balls two ways: column rank sorts by
(column, row, copy index within the cell) and row rank sorts by
(row, column, the same copy index), so multiple balls in one cell read along
the diagonal and never create ties. Setting w(column rank) = row rank gives
a permutation with vertical bars (column boundaries) covering descents of w
and horizontal bars (row boundaries) covering descents of w inverse. The
count of placements with a fixed w is
binomial(rows + n - 1 - ides(w), n) * binomial(columns + n - 1 - des(w), n).

The oracles enumerate every placement within an explicit budget and raise
GuardRailError past it; they exist to cross-check the closed forms, not to
scale. They stream placements from itertools, building no dataclass per
placement and sharing no code with the S_n walk in perm.
standardize_grid_placement standardizes a single grid placement, given as
the sorted tuple of its balls' cell indices, to w and both sets of bars,
with one stable sort and no per-ball tuple; verify walks it over every
small placement to check that the bars cover the descents on both sides.

The barred census reads each assignment as a head, the boxes of balls
1..n - t, and a tail, the boxes of the last t balls. Heads stream from
itertools in product order, and each is standardized with one stable sort
of its balls by box. Each tail ball, larger than every ball placed before
it, then stands last in its box: the census inserts it at its box's end,
the head's balls in that box or left of it plus the earlier tail balls
there, which depend on the tail alone and are tabled once. Every
assignment still gets its own word, built in product order, so the
tally's key order is that of a sort per assignment, and no descent count
or binomial enters. The tail depth t is min(3, n), lowered until k**t is
at most CENSUS_CHUNK, so one head's words bound the working memory; t = 0
sorts every assignment whole. Deeper tails and expanding every ball level
at once were measured slower or far larger.

The grid census lists the cells in (column, row) order, each standing for
its row, so each placement arrives from itertools as the row sequence of its
balls listed by column rank. Two balls in one row stand in (column, copy)
order, so the stable sort of the positions by row alone is the sort by
(row, column, copy): the row rank, whose inverse is w. Many placements share
a row sequence (54,264 placements of 6 balls in a 4x4 grid have 4,068), so
the census tallies the sequences of CENSUS_CHUNK placements at a time, which
bounds its working memory whatever the number of placements, and sorts once
per distinct sequence in a chunk. It walks the grid with its shorter side
as rows, which caps the distinct sequences at min(columns, rows)**n;
transposing swaps column rank and row rank, so there the sort is w itself.
Every placement is still walked and standardized, and no descent count or
binomial enters the walk, so it stays independent of the closed form it
checks.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from collections import Counter
from math import lgamma, log, log2
from typing import Callable, Iterable

from .common import check_budget
from .exactnum import binomial
from .perm import Perm, descent_count, inverse, inverse_descent_count

# 10**8 assignments, (n, k) = (8, 10), took 20 s (0.20 us each) and 24 MiB
# peak RSS as a child process on a 2-vCPU host.
BARRED_CENSUS_BUDGET = 10**8
# (n, columns, rows) = (5, 7, 9), 9.7 million placements, took 0.71 s and
# 19 MiB peak RSS as a child process on a 2-vCPU host; (10, 4, 4), 3.3
# million, 1.4 s and 78 MiB, most of it the 202,370-entry result, which
# the tally is inverted into as it drains.
GRID_CENSUS_BUDGET = 10**7
# Placements the grid census tallies at a time, and the most words the
# barred census builds from one head; either bounds its working memory.
CENSUS_CHUNK = 2**16


def count_barred(w: Perm, k: int) -> int:
    """Placements of 1..n into k boxes whose barred word is w."""
    if k < 0:
        raise ValueError("box count must be nonnegative")
    n = len(w)
    return binomial(k + n - 1 - descent_count(w), n)


def oracle_barred_census(n: int, k: int) -> dict[Perm, int]:
    """Enumerate all k**n assignments and histogram the underlying words."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    # k**n is k for k <= 1, so only k >= 2 needs n factors
    size = _census_size(itertools.repeat((k, 1), n if k > 1 else 1), lambda: n * log2(k))
    check_budget(f"assignments of {n} balls to {k} boxes", size, BARRED_CENSUS_BUDGET)
    # Reading the boxes left to right is one stable sort of the balls by box:
    # the head's balls are sorted so, and each tail ball is inserted at its
    # box's end (module docstring).
    t = min(3, n)
    while k**t > CENSUS_CHUNK:
        t -= 1
    boxes = range(k)
    # For each tail ball x, a row per box sequence of the tail balls before
    # it, in product order: for each box b, how many of those lie in b or
    # left of it. Ball x lands at the head's end of box b plus that count.
    levels = []
    sequences = [()]
    for x in range(n - t + 1, n + 1):
        levels.append((x, [tuple([sum(c <= b for c in seq) for b in boxes]) for seq in sequences]))
        sequences = [seq + (b,) for seq in sequences for b in boxes]
    balls = range(1, n - t + 1)
    tally: Counter[Perm] = Counter()
    for head in itertools.product(boxes, repeat=n - t):
        words = [tuple(sorted(balls, key=((0,) + head).__getitem__))]
        if levels:  # box ends only place tail balls, and cost k per head
            sizes = [0] * k
            for b in head:
                sizes[b] += 1
            ends = list(itertools.accumulate(sizes))
            for x, rows in levels:
                words = [
                    word[:p] + (x,) + word[p:]
                    for word, row in zip(words, rows)
                    for p in map(operator.add, ends, row)
                ]
        tally.update(words)
    return dict(tally)


def _census_size(factors: Iterable[tuple[int, int]], log2_size: Callable[[], float]) -> int:
    """The number of placements a census would walk, by an early-exit product.

    The size is the product of a / b over factors, in order, each running
    product an exact integer no smaller than the last. The product stops
    once it passes 64 bits, far past both census budgets: check_budget names
    a refused count that large by its bit length alone, so a power of two
    of the bit length log2_size() gives stands in for the exact size, which
    can run to millions of digits.
    """
    size = 1
    for a, b in factors:
        size = size * a // b
        if size.bit_length() > 64:
            return 1 << int(log2_size())
    return size


# ---------------------------------------------------------------------------
# grid placements


def standardize_grid_placement(
    cells: tuple[int, ...], columns: int, rows: int
) -> tuple[Perm, tuple[int, ...], tuple[int, ...]]:
    """Standardize one grid placement: (w, vertical bars, horizontal bars).

    cells lists the balls' cell indices in increasing order, cell (c, r)
    at index (c - 1) * rows + (r - 1): the multisets that
    itertools.combinations_with_replacement(range(columns * rows), n)
    yields, balls listed by column rank. w is the inverse of the stable
    sort of positions 1..n by row, the row rank (module docstring).

    Each bar is given by its position, the number of letters before it:
    the bar between columns c and c + 1 stands after the balls of columns
    1..c in column-rank order, and the bar between rows r and r + 1 after
    those of rows 1..r in row-rank order. So there are columns - 1 vertical
    and rows - 1 horizontal bars, in increasing order, an empty column or
    row repeating a position. Every position 1..n-1 where the column (row)
    changes between consecutive balls holds a vertical (horizontal) bar;
    those cover the descents of w (of w inverse).
    """
    n = len(cells)
    if not n:
        raise ValueError("placement holds no balls")
    if not all(map(operator.le, cells, cells[1:])):
        raise ValueError("cell indices must be in increasing order")
    if rows < 1 or cells[0] < 0 or cells[-1] >= columns * rows:
        raise ValueError(f"cell index outside the {columns}x{rows} grid")
    row_of = [cell % rows for cell in cells]
    by_row = sorted(range(n), key=row_of.__getitem__)
    w = [0] * n
    for rank, position in enumerate(by_row, start=1):
        w[position] = rank
    row_of.sort()
    return (
        tuple(w),
        tuple([bisect_left(cells, first) for first in range(rows, columns * rows, rows)]),
        tuple([bisect_left(row_of, row) for row in range(1, rows)]),
    )


def count_two_sided(w: Perm, columns: int, rows: int) -> int:
    """Grid placements standardizing to w."""
    if columns < 0 or rows < 0:
        raise ValueError("grid dimensions must be nonnegative")
    n = len(w)
    return binomial(rows + n - 1 - inverse_descent_count(w), n) * binomial(
        columns + n - 1 - descent_count(w), n
    )


def oracle_two_sided_census(n: int, columns: int, rows: int) -> dict[Perm, int]:
    """Enumerate all multisets of n cells and histogram the standardizations."""
    if n < 1 or columns < 0 or rows < 0:
        raise ValueError("need n >= 1 and nonnegative grid dimensions")
    # binomial(m, n) with m = cells + n - 1, over its shorter side r: no cells, no placements
    cells = columns * rows
    m, r = cells + n - 1, min(n, cells - 1)
    size = _census_size(
        ((m - r + i, i) for i in range(1, r + 1)) if cells else [(0, 1)],
        lambda: (lgamma(m + 1) - lgamma(r + 1) - lgamma(m - r + 1)) / log(2),
    )
    check_budget(f"placements of {n} balls in a {columns}x{rows} grid", size, GRID_CENSUS_BUDGET)
    # Cells in (column, row) order, each standing for its row: a placement is
    # its balls' row sequence by column rank, and the stable sort of the
    # positions by row is the row rank (module docstring). Sequences are
    # tallied CENSUS_CHUNK placements at a time and sorted once per distinct
    # sequence; w(column rank) = row rank inverts the sort. Walking the grid
    # with its shorter side as rows caps the distinct sequences at
    # min(columns, rows)**n, and since the transpose swaps the two ranks,
    # its sort is w itself.
    transposed = rows > columns
    if transposed:
        columns, rows = rows, columns
    pool = [row for _ in range(columns) for row in range(rows)]
    placements = itertools.combinations_with_replacement(pool, n)
    positions = range(1, n + 1)
    sorts: Counter[Perm] = Counter()
    while sequences := Counter(itertools.islice(placements, CENSUS_CHUNK)):
        for sequence, count in sequences.items():
            sorts[tuple(sorted(positions, key=((0,) + sequence).__getitem__))] += count
    if transposed:
        return dict(sorts)
    # Invert while draining the tally in insertion order, each sort popped as
    # it is inverted, so the sorts and their inverses are never both held whole.
    pending = list(sorts)
    pending.reverse()
    census = {}
    while pending:
        s = pending.pop()
        census[inverse(s)] = sorts.pop(s)
    return census
