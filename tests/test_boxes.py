"""Balls-in-boxes oracles against the closed-form counts.

The labeled-ball bijection of the paper's worked figure (BoxAssignment,
BarredPermutation, assignment_to_barred), its two-sided counterpart for
grids (GridPlacement, TwoSidedBarred, grid_placement_to_permutation,
cut_positions) and the shorthand readings of a two-sided barred word live
here, not in the package: they standardize one placement at a time through
dataclasses, the reference the streaming oracles and the package's
standardize_grid_placement are compared with.
"""

import itertools
import time
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from math import comb

import pytest

from eulerian_workbench import boxes
from eulerian_workbench.boxes import (
    count_barred,
    count_two_sided,
    oracle_barred_census,
    oracle_two_sided_census,
    standardize_grid_placement,
)
from eulerian_workbench.common import GuardRailError
from eulerian_workbench.perm import (
    Perm,
    check_permutation,
    descent_count,
    format_permutation,
    inverse,
    inverse_descent_count,
)


@dataclass(frozen=True)
class BoxAssignment:
    """Labeled balls in a row of boxes: box_of[b - 1] is the box of ball b."""

    n: int
    k: int
    box_of: tuple[int, ...]

    def __post_init__(self):
        if len(self.box_of) != self.n:
            raise ValueError("assignment must place every ball")
        if any(not 1 <= box <= self.k for box in self.box_of):
            raise ValueError(f"boxes must lie in 1..{self.k}")


@dataclass(frozen=True)
class BarredPermutation:
    """A permutation split into consecutive blocks, one per box."""

    underlying: Perm
    box_sizes: tuple[int, ...]

    def __post_init__(self):
        if sum(self.box_sizes) != len(self.underlying):
            raise ValueError("block sizes must sum to the word length")

    def blocks(self) -> Iterator[tuple[int, ...]]:
        at = 0
        for size in self.box_sizes:
            yield self.underlying[at : at + size]
            at += size

    def shorthand(self) -> str:
        """Bars between blocks: (1)(5,6)(2) prints as "1|56|2"."""
        return "|".join("".join(map(str, block)) for block in self.blocks())


def assignment_to_barred(a: BoxAssignment) -> BarredPermutation:
    """Sort each box's contents and read the boxes left to right."""
    word = []
    sizes = []
    for box in range(1, a.k + 1):
        members = sorted(b for b in range(1, a.n + 1) if a.box_of[b - 1] == box)
        word.extend(members)
        sizes.append(len(members))
    return BarredPermutation(check_permutation(word), tuple(sizes))


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
    def from_triples(triples, columns: int, rows: int) -> "GridPlacement":
        cells = tuple(sorted((int(c), int(r), int(m)) for c, r, m in triples))
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
    """Rank the balls by (column, row, copy) and by (row, column, copy);
    w(column rank) = row rank."""
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


def _grouped(word: Perm, blocks: tuple[int, ...]) -> str:
    parts = []
    at = 0
    for size in blocks:
        parts.append("".join(map(str, word[at : at + size])))
        at += size
    return "|".join(parts)


def column_shorthand(barred: TwoSidedBarred) -> str:
    return _grouped(barred.underlying, barred.column_blocks)


def row_shorthand(barred: TwoSidedBarred) -> str:
    return _grouped(inverse(barred.underlying), barred.row_blocks)

# the worked 9-box example: balls 5,6 in box 3, ball 2 in box 4, balls 1,4
# in box 6, ball 3 in box 9; box_of is indexed by ball
WORKED_BOXES = (6, 4, 9, 6, 3, 3)


def test_worked_assignment_standardizes():
    barred = assignment_to_barred(BoxAssignment(6, 9, WORKED_BOXES))
    assert barred.underlying == (5, 6, 2, 1, 4, 3)
    assert barred.box_sizes == (0, 0, 2, 1, 0, 2, 0, 0, 1)
    assert barred.shorthand() == "||56|2||14|||3"


def test_worked_assignment_inverse_side_reading():
    # the same figure read along the other axis: 8 boxes for w inverse
    barred = TwoSidedBarred(
        (5, 6, 2, 1, 4, 3),
        column_blocks=(0, 0, 2, 1, 0, 2, 0, 0, 1),
        row_blocks=(0, 1, 1, 0, 1, 1, 2, 0),
    )
    assert column_shorthand(barred) == "||56|2||14|||3"
    assert row_shorthand(barred) == "|4|3||6|5|12|"


def test_single_box_standardizes_to_identity():
    barred = assignment_to_barred(BoxAssignment(4, 1, (1, 1, 1, 1)))
    assert barred.underlying == (1, 2, 3, 4)
    assert barred.shorthand() == "1234"


def test_crossed_assignment_forces_descent_on_bar():
    barred = assignment_to_barred(BoxAssignment(2, 2, (2, 1)))
    assert barred.underlying == (2, 1)
    assert barred.box_sizes == (1, 1)


def test_assignment_validation():
    with pytest.raises(ValueError):
        BoxAssignment(2, 2, (1,))
    with pytest.raises(ValueError):
        BoxAssignment(2, 2, (1, 3))


def test_barred_block_sizes_must_cover_word():
    with pytest.raises(ValueError):
        BarredPermutation((2, 1), (1,))


def test_count_barred_worked_values():
    w = (5, 6, 2, 1, 4, 3)
    assert count_barred(w, 4) == 1
    assert count_barred(w, 9) == comb(9 + 5 - 3, 6)
    # too few boxes for the descents
    assert count_barred(w, 3) == 0
    assert count_barred((1, 2, 3, 4), 1) == 1
    assert count_barred((2, 1), 2) == 1


def test_barred_census_small_grid():
    census = oracle_barred_census(3, 2)
    assert sum(census.values()) == 8
    assert census[(1, 2, 3)] == 4
    for w, count in census.items():
        assert count_barred(w, 2) == count


def test_barred_census_matches_closed_form():
    for n in range(1, 5):
        for k in range(5):
            census = oracle_barred_census(n, k) if k else {}
            assert sum(census.values()) == k**n
            for w in itertools.permutations(range(1, n + 1)):
                assert census.get(w, 0) == count_barred(w, k)


def _barred_census_reference(n, k):
    """One stable sort of the balls by box per assignment, tallied in product order."""
    balls = range(1, n + 1)
    return dict(Counter(
        tuple(sorted(balls, key=((0,) + assignment).__getitem__))
        for assignment in itertools.product(range(1, k + 1), repeat=n)
    ))


# (3, 40) and (3, 41) sit at the cap of tail depth 3, (2, 256) and (2, 257)
# at that of depth 2, and (1, 70000) past that of depth 1, where the walk
# sorts every assignment whole
BARRED_SHAPES = [(n, k) for n in range(1, 7) for k in range(7)] + [
    (3, 40), (3, 41), (2, 256), (2, 257), (1, 70000)
]


def test_barred_census_matches_the_per_assignment_sort():
    for n, k in BARRED_SHAPES:
        census = oracle_barred_census(n, k)
        expected = _barred_census_reference(n, k)
        assert census == expected, (n, k)
        assert list(census) == list(expected), (n, k)


@pytest.mark.parametrize("chunk", [1, 3, 10**9])
def test_barred_census_is_the_same_in_any_chunk_size(monkeypatch, chunk):
    # a chunk of 1 sorts every assignment whole for k >= 2, and 3 leaves one
    # tail ball for k = 2 and 3
    shapes = [(1, 5), (3, 1), (3, 0), (4, 2), (4, 3), (5, 3), (6, 4), (7, 2)]
    expected = [_barred_census_reference(*shape) for shape in shapes]
    monkeypatch.setattr(boxes, "CENSUS_CHUNK", chunk)
    got = [oracle_barred_census(*shape) for shape in shapes]
    assert got == expected
    assert [list(census) for census in got] == [list(census) for census in expected]


def test_barred_counts_sum_to_powers():
    for n in range(1, 7):
        for k in range(7):
            total = sum(
                count_barred(w, k) for w in itertools.permutations(range(1, n + 1))
            )
            assert total == k**n


def test_barred_census_budget():
    with pytest.raises(GuardRailError):
        oracle_barred_census(12, 9)
    # a count past Python's int-to-str limit is named by its size, no override offered
    with pytest.raises(GuardRailError, match=r"about 2\*\*332192, past the budget 100000000$"):
        oracle_barred_census(10**5, 10)


def test_census_budgets_decide_without_the_full_count():
    # k**n and binomial(cells + n - 1, n) here run to millions of digits
    start = time.perf_counter()
    with pytest.raises(GuardRailError, match=r"about 2\*\*33219280, past the budget 100000000$"):
        oracle_barred_census(10**7, 10)
    with pytest.raises(GuardRailError, match=r"about 2\*\*114074, past the budget 10000000$"):
        oracle_two_sided_census(10**7, 100, 100)
    # a count that fits in 64 bits is named exactly
    with pytest.raises(GuardRailError, match=r": 10000001, past the budget 10000000$"):
        oracle_two_sided_census(10**7, 2, 1)
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# grids

WORKED_CELLS = (
    (1, 1, 1),
    (1, 4, 1),
    (2, 1, 1),
    (3, 1, 2),
    (3, 3, 1),
    (5, 1, 1),
)


def test_worked_grid_standardizes():
    g = GridPlacement.from_triples(WORKED_CELLS, columns=5, rows=4)
    barred = grid_placement_to_permutation(g)
    assert barred.underlying == (1, 7, 2, 3, 4, 6, 5)
    assert column_shorthand(barred) == "17|2|346||5"
    assert row_shorthand(barred) == "13457||6|2"


def test_grid_single_cell_reads_diagonally():
    g = GridPlacement.from_triples([(1, 1, 4)], columns=1, rows=1)
    assert grid_placement_to_permutation(g).underlying == (1, 2, 3, 4)


def test_grid_antidiagonal_cells():
    g = GridPlacement.from_triples([(1, 2, 1), (2, 1, 1)], columns=2, rows=2)
    assert grid_placement_to_permutation(g).underlying == (2, 1)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridPlacement(2, 2, ((3, 1, 1),))
    with pytest.raises(ValueError):
        GridPlacement(2, 2, ((1, 1, 0),))
    with pytest.raises(ValueError):
        GridPlacement(2, 2, ((1, 1, 1), (1, 1, 2)))


def cell_indices(chosen, rows):
    """(column, row) pairs, listed in (column, row) order, as the cell
    indices standardize_grid_placement takes: (c - 1) * rows + (r - 1)."""
    return tuple((c - 1) * rows + r - 1 for c, r in chosen)


def barred_shorthand(word, bars):
    """word with a | after its first q letters for each bar at position q."""
    parts = []
    at = 0
    for q in bars + (len(word),):
        parts.append("".join(map(str, word[at:q])))
        at = q
    return "|".join(parts)


def test_worked_grid_standardizes_by_cell_index():
    chosen = sorted((c, r) for c, r, m in WORKED_CELLS for _ in range(m))
    w, vertical, horizontal = standardize_grid_placement(cell_indices(chosen, 4), 5, 4)
    assert w == (1, 7, 2, 3, 4, 6, 5)
    assert (vertical, horizontal) == ((2, 3, 6, 6), (5, 5, 6))
    assert barred_shorthand(w, vertical) == "17|2|346||5"
    assert barred_shorthand(inverse(w), horizontal) == "13457||6|2"


def test_standardization_equals_the_dataclass_route():
    # every placement with n <= 5 on grids up to 4x4: w, every bar's
    # position, and the bars that separate two letters
    placements = 0
    for n in range(1, 6):
        for columns in range(1, 5):
            for rows in range(1, 5):
                cells = [(c, r) for c in range(1, columns + 1) for r in range(1, rows + 1)]
                for chosen in itertools.combinations_with_replacement(cells, n):
                    g = GridPlacement.from_triples(
                        [(c, r, chosen.count((c, r))) for c, r in set(chosen)],
                        columns=columns,
                        rows=rows,
                    )
                    barred = grid_placement_to_permutation(g)
                    w, vertical, horizontal = standardize_grid_placement(
                        cell_indices(chosen, rows), columns, rows
                    )
                    assert w == barred.underlying, g
                    assert vertical == tuple(itertools.accumulate(barred.column_blocks[:-1])), g
                    assert horizontal == tuple(itertools.accumulate(barred.row_blocks[:-1])), g
                    assert {q for q in vertical if 0 < q < n} == cut_positions(barred.column_blocks)
                    assert {q for q in horizontal if 0 < q < n} == cut_positions(barred.row_blocks)
                    placements += 1
    assert placements == 38747


def test_standardization_fibres_are_the_closed_form():
    for n in range(1, 5):
        for columns in range(1, 4):
            for rows in range(1, 4):
                fibres = Counter(
                    standardize_grid_placement(cells, columns, rows)[0]
                    for cells in itertools.combinations_with_replacement(
                        range(columns * rows), n
                    )
                )
                for w in itertools.permutations(range(1, n + 1)):
                    assert fibres[w] == count_two_sided(w, columns, rows), (n, columns, rows, w)


@pytest.mark.parametrize(
    "cells,columns,rows,message",
    [
        ((), 2, 2, "holds no balls"),
        ((1, 0), 2, 2, "increasing order"),
        ((0, 3, 2), 2, 2, "increasing order"),
        ((0, 4), 2, 2, "outside the 2x2 grid"),
        ((-1, 0), 2, 2, "outside the 2x2 grid"),
        ((0,), 0, 2, "outside the 0x2 grid"),
        ((0,), 2, 0, "outside the 2x0 grid"),
    ],
)
def test_standardization_rejects_bad_placements(cells, columns, rows, message):
    with pytest.raises(ValueError, match=message):
        standardize_grid_placement(cells, columns, rows)


def test_bars_cover_descents_both_sides():
    for columns in range(1, 4):
        for rows in range(1, 4):
            cell_list = [
                (c, r)
                for c in range(1, columns + 1)
                for r in range(1, rows + 1)
            ]
            for chosen in itertools.combinations_with_replacement(cell_list, 3):
                triples = [
                    (c, r, sum(1 for x in chosen if x == (c, r)))
                    for c, r in set(chosen)
                ]
                g = GridPlacement.from_triples(triples, columns=columns, rows=rows)
                barred = grid_placement_to_permutation(g)
                w = barred.underlying
                v_cuts = cut_positions(barred.column_blocks)
                h_cuts = cut_positions(barred.row_blocks)
                for pos in range(1, len(w)):
                    if w[pos - 1] > w[pos]:
                        assert pos in v_cuts
                w_inv = inverse(w)
                for pos in range(1, len(w_inv)):
                    if w_inv[pos - 1] > w_inv[pos]:
                        assert pos in h_cuts


def test_count_two_sided_worked_values():
    assert count_two_sided((1, 2, 3), 1, 1) == 1
    assert count_two_sided((2, 1), 2, 2) == 1
    assert count_two_sided((2, 1), 1, 5) == 0
    w = (1, 7, 2, 3, 4, 6, 5)
    expected = comb(4 + 6 - inverse_descent_count(w), 7) * comb(
        5 + 6 - descent_count(w), 7
    )
    assert count_two_sided(w, 5, 4) == expected


def test_grid_census_matches_closed_form():
    for n in range(1, 5):
        for columns in range(1, 4):
            for rows in range(1, 4):
                census = oracle_two_sided_census(n, columns, rows)
                assert sum(census.values()) == comb(columns * rows + n - 1, n)
                for w in itertools.permutations(range(1, n + 1)):
                    assert census.get(w, 0) == count_two_sided(w, columns, rows)


def test_grid_census_contains_worked_permutation():
    census = oracle_two_sided_census(7, 5, 4)
    assert census[(1, 7, 2, 3, 4, 6, 5)] > 0
    assert census[(1, 7, 2, 3, 4, 6, 5)] == count_two_sided(
        (1, 7, 2, 3, 4, 6, 5), 5, 4
    )


def test_grid_placements_standardize_bijectively():
    # distinct placements give distinct barred readings at a fixed grid size
    seen = set()
    count = 0
    for chosen in itertools.combinations_with_replacement(
        [(c, r) for c in (1, 2) for r in (1, 2)], 3
    ):
        triples = [
            (c, r, sum(1 for x in chosen if x == (c, r))) for c, r in set(chosen)
        ]
        g = GridPlacement.from_triples(triples, columns=2, rows=2)
        barred = grid_placement_to_permutation(g)
        seen.add((barred.underlying, barred.column_blocks, barred.row_blocks))
        count += 1
    assert len(seen) == count == comb(4 + 2, 3)


def test_streamed_censuses_match_the_dataclass_route():
    # every placement with n <= 4, standardized one at a time through the
    # dataclasses, against the streaming oracles
    for n in range(1, 5):
        for k in range(4):
            expected = Counter(
                assignment_to_barred(BoxAssignment(n, k, boxes)).underlying
                for boxes in itertools.product(range(1, k + 1), repeat=n)
            )
            assert oracle_barred_census(n, k) == expected
        for columns in range(4):
            for rows in range(4):
                cells = [(c, r) for c in range(1, columns + 1) for r in range(1, rows + 1)]
                expected = Counter()
                for chosen in itertools.combinations_with_replacement(cells, n):
                    g = GridPlacement.from_triples(
                        [(c, r, chosen.count((c, r))) for c, r in set(chosen)],
                        columns=columns,
                        rows=rows,
                    )
                    expected[grid_placement_to_permutation(g).underlying] += 1
                assert oracle_two_sided_census(n, columns, rows) == expected


def _grid_census_reference(n, columns, rows):
    """One keyed sort per placement, each cell named by its (row, column) rank.

    A multiset of cell names lists its balls by column rank, so the stable
    sort of the positions by name lists them by row rank; inverting that sort
    gives w(column rank) = row rank.
    """
    by_row = [row * columns + col for col in range(columns) for row in range(rows)]
    positions = range(1, n + 1)
    sorts = Counter(
        tuple(sorted(positions, key=((0,) + multiset).__getitem__))
        for multiset in itertools.combinations_with_replacement(by_row, n)
    )
    return {inverse(s): count for s, count in sorts.items()}


GRID_SHAPES = [
    (n, columns, rows) for n in range(1, 6) for columns in range(6) for rows in range(6)
] + [(6, 4, 4), (7, 3, 3)]


def test_grid_census_matches_the_per_placement_walk():
    for n, columns, rows in GRID_SHAPES:
        census = oracle_two_sided_census(n, columns, rows)
        expected = _grid_census_reference(n, columns, rows)
        assert census == expected, (n, columns, rows)
        if rows <= columns:
            # the untransposed walk meets each permutation first where the reference does
            assert list(census) == list(expected), (n, columns, rows)


def test_grid_census_transposes_to_the_inverse():
    for n, columns, rows in GRID_SHAPES:
        transposed = oracle_two_sided_census(n, rows, columns)
        assert oracle_two_sided_census(n, columns, rows) == {
            inverse(w): count for w, count in transposed.items()
        }, (n, columns, rows)


@pytest.mark.parametrize("chunk", [1, 3, 10**9])
def test_grid_census_is_the_same_in_any_chunk_size(monkeypatch, chunk):
    # 56 placements for (5, 4, 1) and (5, 1, 4) leave a partial last chunk of 3
    shapes = [(4, 3, 2), (5, 2, 3), (5, 4, 1), (5, 1, 4), (6, 4, 4), (7, 3, 3)]
    expected = [_grid_census_reference(*shape) for shape in shapes]
    monkeypatch.setattr(boxes, "CENSUS_CHUNK", chunk)
    assert [oracle_two_sided_census(*shape) for shape in shapes] == expected


def test_grid_census_budget():
    with pytest.raises(GuardRailError):
        oracle_two_sided_census(10, 40, 40)
    with pytest.raises(GuardRailError, match="past the budget 10000000$"):
        oracle_two_sided_census(10**4, 100, 100)


# ---------------------------------------------------------------------------
# serialization


def census_to_obj(census):
    """JSON form: permutation text to decimal count, keys in lex order."""
    return {format_permutation(w): str(census[w]) for w in sorted(census)}


def census_to_csv(census):
    lines = ["permutation,count"]
    for w in sorted(census):
        text = format_permutation(w)
        if "," in text:
            text = f'"{text}"'
        lines.append(f"{text},{census[w]}")
    return "\n".join(lines) + "\n"


def test_census_serialization_shapes():
    census = oracle_barred_census(3, 2)
    obj = census_to_obj(census)
    # decimal strings keyed by the compact word form, lex-ordered keys
    assert obj["123"] == "4"
    assert list(obj) == sorted(obj)
    assert sum(int(v) for v in obj.values()) == 8
    text = census_to_csv(census)
    lines = text.splitlines()
    assert lines[0] == "permutation,count"
    assert "123,4" in lines
    assert text.endswith("\n")


def test_census_csv_quotes_comma_forms():
    w = tuple(range(10, 0, -1))
    text = census_to_csv({w: 3})
    assert '"10,9,8,7,6,5,4,3,2,1",3' in text.splitlines()
