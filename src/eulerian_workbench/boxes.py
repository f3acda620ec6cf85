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
scale. They stream placements from itertools and standardize each with one
stable sort, building no dataclass per placement and sharing no code with
the S_n walk in perm; grid_placement_to_permutation standardizes a single
grid placement through the dataclasses.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import lgamma, log, log2
from typing import Callable, Iterable

from .common import check_budget
from .exactnum import binomial
from .perm import (
    Perm,
    check_permutation,
    descent_count,
    inverse,
    inverse_descent_count,
)

BARRED_CENSUS_BUDGET = 10**8
GRID_CENSUS_BUDGET = 10**7


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
    # Reading the boxes left to right is one stable sort of the balls by box.
    balls = range(1, n + 1)
    return dict(Counter(
        tuple(sorted(balls, key=((0,) + boxes).__getitem__))
        for boxes in itertools.product(range(1, k + 1), repeat=n)
    ))


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


@dataclass(frozen=True)
class GridPlacement:
    """Unlabeled balls in a columns-by-rows grid.

    cells holds (column, row, multiplicity) triples, sorted, multiplicity
    positive, each cell listed at most once.
    """

    columns: int
    rows: int
    cells: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        seen = set()
        for col, row, mult in self.cells:
            if not (1 <= col <= self.columns and 1 <= row <= self.rows):
                raise ValueError(f"cell ({col}, {row}) outside the grid")
            if mult < 1:
                raise ValueError("multiplicities must be positive")
            if (col, row) in seen:
                raise ValueError(f"cell ({col}, {row}) listed twice")
            seen.add((col, row))

    @property
    def ball_count(self) -> int:
        return sum(mult for _, _, mult in self.cells)

    @staticmethod
    def from_triples(
        triples: Iterable[Iterable[int]],
        columns: int | None = None,
        rows: int | None = None,
    ) -> "GridPlacement":
        cells = tuple(sorted((int(c), int(r), int(m)) for c, r, m in triples))
        if columns is None:
            columns = max((c for c, _, _ in cells), default=0)
        if rows is None:
            rows = max((r for _, r, _ in cells), default=0)
        return GridPlacement(columns, rows, cells)


@dataclass(frozen=True)
class TwoSidedBarred:
    """A permutation with independent column and row block structure.

    column_blocks[c - 1] counts the letters of w in column c; row_blocks
    likewise for w inverse by row. Blocks may be empty.
    """

    underlying: Perm
    column_blocks: tuple[int, ...]
    row_blocks: tuple[int, ...]

    def __post_init__(self):
        n = len(self.underlying)
        if sum(self.column_blocks) != n or sum(self.row_blocks) != n:
            raise ValueError("blocks must sum to the word length")


def cut_positions(blocks: tuple[int, ...]) -> set[int]:
    """Positions 1..n-1 where a bar separates two letters."""
    cuts = set()
    total = sum(blocks)
    at = 0
    for size in blocks[:-1]:
        at += size
        if 0 < at < total:
            cuts.add(at)
    return cuts


def grid_placement_to_permutation(g: GridPlacement) -> TwoSidedBarred:
    """Standardize a grid placement to its two-sided barred permutation."""
    n = g.ball_count
    if n < 1:
        raise ValueError("placement holds no balls")
    balls = [
        (col, row, copy)
        for col, row, mult in g.cells
        for copy in range(mult)
    ]
    by_column = sorted(balls)
    by_row = sorted(balls, key=lambda ball: (ball[1], ball[0], ball[2]))
    row_rank = {ball: pos for pos, ball in enumerate(by_row, start=1)}
    w = check_permutation(row_rank[ball] for ball in by_column)
    column_blocks = [0] * g.columns
    row_blocks = [0] * g.rows
    for col, row, mult in g.cells:
        column_blocks[col - 1] += mult
        row_blocks[row - 1] += mult
    return TwoSidedBarred(w, tuple(column_blocks), tuple(row_blocks))


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
    # Cells in (column, row) order, each named by its (row, column) rank. A
    # multiset then lists its balls by column rank with copies adjacent, and
    # a stable sort of the positions by cell name lists them by row rank;
    # w(column rank) = row rank inverts that sort, once per distinct sort.
    by_row = [row * columns + col for col in range(columns) for row in range(rows)]
    positions = range(1, n + 1)
    sorts = Counter(
        tuple(sorted(positions, key=((0,) + multiset).__getitem__))
        for multiset in itertools.combinations_with_replacement(by_row, n)
    )
    return {inverse(s): count for s, count in sorts.items()}
