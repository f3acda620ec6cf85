"""The two-sided engine: arrays, series, symmetries, the basis solve."""

from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerian_workbench.common import ConsistencyError, GuardRailError
from eulerian_workbench.eulerian import table_from_recurrence
from eulerian_workbench.exactnum import BiPoly
from eulerian_workbench.twosided import (
    TwoSidedTable,
    _two_sided_step,
    check_array_sums,
    check_symmetries,
    diagonal_monotonicity_probe,
    gessel_basis_indices,
    gessel_solve,
    polynomial_from_table,
    two_sided_brute_force,
    two_sided_from_recurrence,
    two_sided_polynomial,
    verify_bivariate_recurrence,
    verify_grid_series,
    worpitzky_grid_identity,
)

from reference_tables import GESSEL_4, GESSEL_5, TABLE2


def gessel_basis_element(n: int, i: int, j: int) -> BiPoly:
    """(s t)**i (s + t)**j (1 + s t)**(n + 1 - j - 2i), from BiPoly products."""
    st_mono = BiPoly.monomial(1, 1)
    s_plus_t = BiPoly.monomial(1, 0) + BiPoly.monomial(0, 1)
    return st_mono**i * s_plus_t**j * (BiPoly.one() + st_mono) ** (n + 1 - j - 2 * i)

def test_recurrence_reproduces_reference_arrays():
    tables = two_sided_from_recurrence(8)
    for n, entries in TABLE2.items():
        assert tables[n - 1].entries == entries


def test_recurrence_matches_the_double_alternating_sum_to_n_12():
    tables = two_sided_from_recurrence(12)
    for n in range(1, 13):
        closed = tuple(
            tuple(
                sum(
                    (-1) ** (a + b)
                    * comb(n + 1, a)
                    * comb(n + 1, b)
                    * comb((i - a) * (j - b) + n - 1, n)
                    for a in range(i)
                    for b in range(j)
                )
                for j in range(1, n + 1)
            )
            for i in range(1, n + 1)
        )
        assert tables[n - 1].entries == closed


def test_recurrence_step_names_the_entry_a_corrupt_array_breaks():
    prev = two_sided_from_recurrence(6)[5].entries
    assert _two_sided_step(prev, 7) == two_sided_from_recurrence(7)[6].entries
    # A(6, 2, 3) + 1 moves the sum at (7, 2, 3) by 2 * 3 + 6 = 12, not 0 mod 7
    bad = [list(row) for row in prev]
    bad[1][2] += 1
    with pytest.raises(
        ConsistencyError, match=r"at \(n=7, i=2, j=3\) is not divisible by 7$"
    ):
        _two_sided_step(tuple(map(tuple, bad)), 7)


def every_entry_step(prev, n):
    """The four-term recurrence on every entry of array n, none mirrored:
    the reference the fundamental-domain step is held to."""
    m = n - 1
    zero = (0,) * (n + 1)
    a = [zero] + [(0,) + row + (0,) for row in prev] + [zero]
    grid = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            total = (
                (i * j + m) * a[i][j]
                + (j * (n + 1 - i) - m) * a[i - 1][j]
                + (i * (n + 1 - j) - m) * a[i][j - 1]
                + ((n + 1 - i) * (n + 1 - j) + m) * a[i - 1][j - 1]
            )
            q, r = divmod(total, n)
            assert not r, (n, i, j)
            row.append(q)
        grid.append(tuple(row))
    return tuple(grid)


def every_entry_arrays(n_max):
    arrays = [((1,),)]
    for n in range(2, n_max + 1):
        arrays.append(every_entry_step(arrays[-1], n))
    return arrays


def test_recurrence_equals_the_every_entry_reference_to_n_60():
    reference = every_entry_arrays(60)
    for table, entries in zip(two_sided_from_recurrence(60), reference, strict=True):
        assert table.entries == entries


def test_every_entry_reference_has_both_symmetries_to_n_40():
    # the symmetries the step mirrors by, checked on arrays that computed
    # every entry
    for n, entries in enumerate(every_entry_arrays(40), 1):
        assert check_symmetries(TwoSidedTable(n, entries)) is None


def test_mirrored_entries_are_the_computed_ints():
    for table in two_sided_from_recurrence(30):
        n, a = table.n, table.entries
        for i in range(n):
            for j in range(n):
                assert a[i][j] is a[j][i]
                assert a[i][j] is a[n - 1 - i][n - 1 - j]


def test_brute_force_reproduces_reference_arrays():
    for n, entries in TABLE2.items():
        assert two_sided_brute_force(n).entries == entries


def test_brute_force_matches_recurrence_past_the_table():
    assert two_sided_brute_force(9).entries == two_sided_from_recurrence(9)[8].entries


def test_brute_force_guard_rail():
    with pytest.raises(GuardRailError):
        two_sided_brute_force(12)


def test_spot_entries_from_reference():
    tables = two_sided_from_recurrence(8)
    assert tables[5].entry(2, 3) == 21
    assert tables[7].entry(4, 5) == 4761
    assert tables[4].entry(3, 3) == 54
    # out-of-range reads are zero
    assert tables[3].entry(0, 1) == 0
    assert tables[3].entry(1, 5) == 0


def test_base_step_by_hand():
    # the four-term recurrence at n=2, entry (2,2): the only surviving term
    # is [n-1 + (n+1-i)(n+1-j)] A(1,1,1) = 2, and division by n=2 gives 1
    table = two_sided_from_recurrence(2)[1]
    assert table.entries == ((1, 0), (0, 1))


def test_totals_and_marginals():
    tables = two_sided_from_recurrence(12)
    univariate = table_from_recurrence(12)
    for n in range(1, 13):
        table = tables[n - 1]
        assert table.total() == factorial(n)
        row = univariate.row(n)
        assert table.row_marginal() == row
        assert table.column_marginal() == row


def test_polynomial_support():
    p = two_sided_polynomial(4)
    assert p.as_dict() == {
        (1, 1): 1,
        (2, 2): 10,
        (3, 3): 10,
        (4, 4): 1,
        (2, 3): 1,
        (3, 2): 1,
    }
    assert two_sided_polynomial(1) == BiPoly.monomial(1, 1)
    assert two_sided_polynomial(3).as_dict() == {(1, 1): 1, (2, 2): 4, (3, 3): 1}
    assert two_sided_brute_force(5).entries == two_sided_from_recurrence(5)[4].entries


def bumped(table: TwoSidedTable, i: int, j: int) -> TwoSidedTable:
    """The table with entry (i, j) one too large."""
    entries = [list(row) for row in table.entries]
    entries[i - 1][j - 1] += 1
    return TwoSidedTable(table.n, tuple(map(tuple, entries)))


def test_grid_series_small_entries():
    tables = two_sided_from_recurrence(4)
    assert verify_grid_series(tables[0], 5) is None
    # n=1 window entry (2,3) is binomial(6,1)
    assert comb(2 * 3 + 0, 1) == 6
    assert verify_grid_series(tables[3], 5) is None
    assert comb(2 * 2 + 3, 4) == 35


def test_grid_series_window_wide():
    tables = two_sided_from_recurrence(7)
    for n in range(1, 8):
        assert verify_grid_series(tables[n - 1], 6) is None
    with pytest.raises(ConsistencyError) as info:
        verify_grid_series(bumped(tables[5], 2, 3), 5)
    assert str(info.value) == "n=6: entry (2,3) is 463, expected 462"


def test_grid_worpitzky_worked_values():
    assert worpitzky_grid_identity(2, 2, 2) == 10
    assert worpitzky_grid_identity(4, 3, 2) == 126
    for k in range(4):
        for l in range(4):
            assert worpitzky_grid_identity(1, k, l) == k * l


def test_grid_worpitzky_full_range():
    tables = two_sided_from_recurrence(6)
    for n in range(1, 7):
        table = tables[n - 1]
        for k in range(6):
            for l in range(6):
                expected = comb(k * l + n - 1, n)
                assert worpitzky_grid_identity(n, k, l, table) == expected


def test_grid_worpitzky_rejects_corrupt_table():
    bad = TwoSidedTable(2, ((1, 0), (1, 1)))
    with pytest.raises(ConsistencyError):
        worpitzky_grid_identity(2, 2, 2, bad)


def test_bivariate_recurrence_reports():
    tables = two_sided_from_recurrence(15)
    for n in (2, 5, 15):
        assert verify_bivariate_recurrence(tables[n - 2], tables[n - 1]) is None
    with pytest.raises(ConsistencyError) as info:
        verify_bivariate_recurrence(tables[4], bumped(tables[5], 2, 3))
    assert str(info.value) == "n=6: first mismatch at s^2 t^3: 132 vs 126"


def test_symmetries_hold_to_n_20():
    for table in two_sided_from_recurrence(20):
        assert check_symmetries(table) is None


def test_symmetries_detect_breakage():
    # ((1,1),(0,1)) is fixed by the antitranspose but not the other two; the
    # antipodal image is tested first
    lopsided = TwoSidedTable(2, ((1, 1), (0, 1)))
    with pytest.raises(ConsistencyError, match=r"^array 2 is not palindromic$"):
        check_symmetries(lopsided)
    skewed = TwoSidedTable(2, ((2, 1), (0, 1)))
    with pytest.raises(ConsistencyError, match=r"^array 2 is not palindromic$"):
        check_symmetries(skewed)
    # the 3-cycle (1,2), (2,3), (3,1) in place of the diagonal, and its
    # antipodal image: every sum, both marginals and the antipodal symmetry
    # hold, and only the transpose breaks
    table = shifted(
        two_sided_from_recurrence(6)[5],
        *[(i, j, 1) for i, j in ((1, 2), (2, 3), (3, 1), (6, 5), (5, 4), (4, 6))],
        *[(i, i, -1) for i in range(1, 7)],
    )
    with pytest.raises(ConsistencyError, match=r"^array 6 is not symmetric under transpose$"):
        check_symmetries(table)


# ---------------------------------------------------------------------------
# diagonal monotonicity


def test_probe_quiet_through_n_7():
    for table in two_sided_from_recurrence(7):
        assert diagonal_monotonicity_probe(table) == []


def test_probe_first_violations_at_n_8():
    table = two_sided_from_recurrence(8)[7]
    violations = diagonal_monotonicity_probe(table)
    found = {(v.i, v.j, v.value, v.toward_value) for v in violations}
    assert found == {
        (2, 3, 126, 84),
        (3, 4, 1980, 1773),
    }
    # both are steps that lower j, not steps that raise i
    for v in violations:
        assert v.toward_value == table.entry(v.i, v.j - 1) != table.entry(v.i + 1, v.j)


# ---------------------------------------------------------------------------
# the Gessel basis


def test_basis_indices_respect_bounds():
    for n in range(1, 10):
        indices = gessel_basis_indices(n)
        assert all(i >= 1 and j >= 0 and 2 * i + j <= n + 1 for i, j in indices)
        assert len(set(indices)) == len(indices)


def test_basis_element_shape():
    # (st)^1 (s+t)^0 (1+st)^1 = st + (st)^2
    assert gessel_basis_element(2, 1, 0).as_dict() == {(1, 1): 1, (2, 2): 1}
    # (st)^1 (s+t)^1 (1+st)^0 = s^2 t + s t^2
    assert gessel_basis_element(2, 1, 1).as_dict() == {(2, 1): 1, (1, 2): 1}


def test_gessel_worked_expansions():
    e4 = gessel_solve(two_sided_polynomial(4), 4)
    assert e4.gammas == GESSEL_4
    assert e4.nonnegative
    e5 = gessel_solve(two_sided_polynomial(5), 5)
    assert e5.gammas == GESSEL_5
    assert e5.nonnegative


def test_gessel_basis_element_round_trips():
    for n in (3, 6, 9):
        p = gessel_basis_element(n, 1, 0)
        expansion = gessel_solve(p, n)
        assert expansion.gammas == {(1, 0): 1}
        assert expansion.nonnegative


def test_gessel_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        gessel_solve(BiPoly.monomial(2, 1), 2)


def test_gessel_rejects_non_palindromic_input():
    p = BiPoly.monomial(1, 1)  # symmetric in s, t but centered wrong for n=3
    with pytest.raises(ValueError):
        gessel_solve(p, 3)


def test_polynomial_from_table_keeps_every_nonzero_entry_in_sorted_order():
    tables = [*two_sided_from_recurrence(12), TwoSidedTable(2, ((0, 3), (-1, 0)))]
    for table in tables:
        cells = {(i, j): table.entry(i, j) for i in range(1, table.n + 1)
                 for j in range(1, table.n + 1)}
        assert polynomial_from_table(table) == BiPoly.from_dict(cells), table.n
    assert polynomial_from_table(tables[-1]).terms == ((1, 2, 3), (2, 1, -1))


def test_gessel_nonnegative_through_n_14():
    tables = two_sided_from_recurrence(14)
    for n in range(1, 15):
        expansion = gessel_solve(polynomial_from_table(tables[n - 1]), n)
        assert expansion.nonnegative, f"negative coefficient at n={n}"
        assert all(v > 0 for v in expansion.gammas.values())


def test_gessel_nonnegative_through_n_30():
    tables = two_sided_from_recurrence(30)
    for n in range(1, 31):
        p = polynomial_from_table(tables[n - 1])
        expansion = gessel_solve(p, n)
        assert expansion.nonnegative, f"negative coefficient at n={n}"
        rebuilt = BiPoly()
        for (i, j), g in expansion.gammas.items():
            rebuilt = rebuilt + g * gessel_basis_element(n, i, j)
        assert rebuilt == p


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_gessel_round_trips_random_coefficients(data):
    # the basis comes from BiPoly products, not from the peel's binomials
    n = data.draw(st.integers(min_value=1, max_value=9))
    indices = gessel_basis_indices(n)
    coeffs = data.draw(
        st.lists(st.integers(-1000, 1000), min_size=len(indices), max_size=len(indices))
    )
    p = BiPoly()
    for (i, j), g in zip(indices, coeffs):
        p = p + g * gessel_basis_element(n, i, j)
    expansion = gessel_solve(p, n)
    assert expansion.gammas == {idx: g for idx, g in zip(indices, coeffs) if g}
    assert expansion.nonnegative == all(g >= 0 for g in coeffs)


def test_gessel_reconstruction_is_exact():
    for n in range(1, 9):
        p = two_sided_polynomial(n)
        expansion = gessel_solve(p, n)
        rebuilt = BiPoly()
        for (i, j), g in expansion.gammas.items():
            rebuilt = rebuilt + g * gessel_basis_element(n, i, j)
        assert rebuilt == p


@pytest.mark.parametrize("cells", [[(2, 3)], [(2, 3), (3, 2)], [(3, 3)]])
def test_check_symmetries_rejects_an_array_that_is_not_palindromic(cells):
    for table in two_sided_from_recurrence(9):
        check_symmetries(table)
    table = two_sided_from_recurrence(6)[5]
    for i, j in cells:
        table = bumped(table, i, j)
    with pytest.raises(ConsistencyError, match=r"^array 6 is not palindromic$"):
        check_symmetries(table)


def shifted(table, *changes):
    """The array with entry (i, j) moved by delta, for each (i, j, delta)."""
    entries = [list(row) for row in table.entries]
    for i, j, delta in changes:
        entries[i - 1][j - 1] += delta
    return TwoSidedTable(table.n, tuple(map(tuple, entries)))


def test_check_array_sums_passes_arrays_and_names_an_array_that_is_off():
    rows = table_from_recurrence(20).rows
    for table in two_sided_from_recurrence(20):
        check_array_sums(table, rows[table.n - 1])
    array6 = two_sided_from_recurrence(6)[5]
    # keeps every symmetry, but totals 724
    symmetric = shifted(array6, (2, 3, 1), (3, 2, 1), (5, 4, 1), (4, 5, 1))
    with pytest.raises(ConsistencyError, match=r"^array 6 does not total 6!$"):
        check_array_sums(symmetric, rows[5])
    # keeps the total and the row marginal, but moves the column marginal
    moved = shifted(array6, (2, 3, 1), (2, 4, -1))
    with pytest.raises(ConsistencyError, match=r"^the marginals of array 6 are not row 6 of the triangle$"):
        check_array_sums(moved, rows[5])
