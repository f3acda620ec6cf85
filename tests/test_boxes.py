"""Balls-in-boxes oracles against the closed-form counts."""

import itertools
from collections import Counter
from math import comb

import pytest

from eulerian_workbench.boxes import (
    BarredPermutation,
    BoxAssignment,
    GridPlacement,
    TwoSidedBarred,
    assignment_to_barred,
    census_to_csv,
    census_to_obj,
    count_barred,
    count_two_sided,
    cut_positions,
    grid_placement_to_permutation,
    oracle_barred_census,
    oracle_two_sided_census,
)
from eulerian_workbench.common import GuardRailError
from eulerian_workbench.perm import descent_count, inverse, inverse_descent_count

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
    assert barred.column_shorthand() == "||56|2||14|||3"
    assert barred.row_shorthand() == "|4|3||6|5|12|"


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
    assert barred.column_shorthand() == "17|2|346||5"
    assert barred.row_shorthand() == "13457||6|2"


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


def test_grid_census_budget():
    with pytest.raises(GuardRailError):
        oracle_two_sided_census(10, 40, 40)


# ---------------------------------------------------------------------------
# serialization


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
