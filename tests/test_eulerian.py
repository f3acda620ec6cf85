"""The univariate engine: tables, series, identities, gamma vectors."""

from decimal import MAX_PREC, Context, Decimal, Inexact, Rounded, localcontext
from itertools import islice
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerian_workbench.common import ConsistencyError, GuardRailError
from eulerian_workbench.eulerian import (
    check_row_sum,
    check_row_symmetry,
    eulerian_polynomial,
    gamma_extract,
    check_unimodality,
    recurrence_rows,
    table_brute_force,
    table_from_recurrence,
    verify_polynomial_recurrence,
    verify_power_sum_series,
    worpitzky_identity,
)
from eulerian_workbench.exactnum import (
    UniPoly,
    geometric_power_window,
    series_product,
    sturm_negative_root_count,
)

from reference_tables import GAMMA_ROW_4, GAMMA_ROW_5, TABLE1


def test_recurrence_reproduces_reference_table():
    table = table_from_recurrence(8)
    for n, row in TABLE1.items():
        assert table.row(n) == row


def test_recurrence_rows_match_the_alternating_sum_to_n_60():
    table = table_from_recurrence(60)
    for n in range(1, 61):
        closed = tuple(
            sum((-1) ** a * comb(n + 1, a) * (i - a) ** n for a in range(i))
            for i in range(1, n + 1)
        )
        assert table.row(n) == closed


def every_entry_rows(n_max):
    """The two-term recurrence on every entry of each row, none mirrored:
    the reference the half-row builder is held to."""
    rows = [(1,)]
    for n in range(2, n_max + 1):
        prev = (0,) + rows[-1] + (0,)
        rows.append(tuple(i * prev[i] + (n + 1 - i) * prev[i - 1] for i in range(1, n + 1)))
    return rows


def test_recurrence_equals_the_every_entry_reference_to_n_300():
    assert table_from_recurrence(300).rows == tuple(every_entry_rows(300))


def test_every_entry_reference_rows_are_palindromic_to_n_40():
    for n, row in enumerate(every_entry_rows(40), 1):
        assert check_row_symmetry(n, row) is None


def test_mirrored_row_entries_are_the_computed_ints():
    for n, row in enumerate(table_from_recurrence(60).rows, 1):
        assert all(row[i] is row[n - 1 - i] for i in range(n))


def test_table_from_recurrence_holds_only_ints():
    assert {type(c) for row in table_from_recurrence(60).rows for c in row} == {int}


def test_recurrence_rows_keep_the_number_type_of_the_row_they_start_from():
    ints = table_from_recurrence(60).rows
    # Decimal rows are exact only at a precision above their digits; the
    # default 28 digits would round row 28 on, so trap that too
    exact = Context(prec=MAX_PREC, traps=[Inexact, Rounded])
    with localcontext(exact):
        decimals = ((Decimal(1),), *islice(recurrence_rows((Decimal(1),)), 59))
    with pytest.raises(Rounded), localcontext(Context(traps=[Rounded])):
        tuple(islice(recurrence_rows((Decimal(1),)), 59))
    assert decimals == ints
    assert all(type(c) is Decimal and c.as_tuple().exponent == 0 for row in decimals for c in row)
    # from any row n, the rows after it
    assert tuple(islice(recurrence_rows(ints[29]), 30)) == ints[30:]


def test_brute_force_reproduces_reference_table():
    for n, row in TABLE1.items():
        assert table_brute_force(n) == row


def test_brute_force_matches_recurrence_past_the_table():
    assert table_brute_force(9) == table_from_recurrence(9).row(9)


def test_brute_force_guard_rail():
    with pytest.raises(GuardRailError):
        table_brute_force(12)


def test_table_rows_validate():
    table = table_from_recurrence(3)
    with pytest.raises(ValueError):
        table.row(4)
    with pytest.raises(ValueError):
        table.row(0)


def test_row_structure_to_n_40():
    table = table_from_recurrence(40)
    for n in range(1, 41):
        row = table.row(n)
        assert sum(row) == factorial(n)
        assert row == row[::-1]
        assert check_unimodality(n, row) is None
        assert all(c > 0 for c in row)


def test_unimodality_detects_dips():
    check_unimodality(4, (1, 3, 3, 1))
    check_unimodality(1, (1,))
    with pytest.raises(ConsistencyError, match=r"^row 5 is not unimodal$"):
        check_unimodality(5, (1, 3, 2, 3, 1))


def test_polynomials_match_reference_rows():
    assert eulerian_polynomial(4).coeffs == (0, 1, 11, 11, 1)
    assert eulerian_polynomial(5).coeffs == (0, 1, 26, 66, 26, 1)
    assert eulerian_polynomial(1).coeffs == (0, 1)
    assert table_brute_force(4) == table_from_recurrence(4).row(4)


def test_power_sum_window_small():
    window = series_product(eulerian_polynomial(3), geometric_power_window(4, 5))
    assert window.coeffs == (0, 1, 8, 27, 64, 125)


def test_power_sum_window_linear():
    window = series_product(eulerian_polynomial(1), geometric_power_window(2, 4))
    assert window.coeffs == (0, 1, 2, 3, 4)


def test_power_sum_report_wide():
    assert verify_power_sum_series(table_from_recurrence(8).row(8), 20) is None
    # A(5, 2) one too large: coefficient 2 picks it up first
    with pytest.raises(ConsistencyError) as info:
        verify_power_sum_series((1, 27, 66, 26, 1), 12)
    assert str(info.value) == "n=5: coefficient 2 is 33, expected 32"


def test_worpitzky_worked_value():
    assert worpitzky_identity(4, 3) == 81
    assert worpitzky_identity(1, 7) == 7
    assert worpitzky_identity(5, 2) == 32


def test_worpitzky_full_grid():
    table = table_from_recurrence(8)
    for n in range(1, 9):
        row = table.row(n)
        for k in range(9):
            assert worpitzky_identity(n, k, row) == k**n


def test_worpitzky_rejects_corrupt_row():
    with pytest.raises(ConsistencyError):
        worpitzky_identity(4, 3, (1, 11, 12, 1))


def test_polynomial_recurrence_reports():
    table = table_from_recurrence(20)
    for n in (2, 4, 20):
        assert verify_polynomial_recurrence(table.row(n - 1), table.row(n)) is None
    with pytest.raises(ConsistencyError) as info:
        verify_polynomial_recurrence(table.row(4), (1, 27, 66, 26, 1))
    assert str(info.value) == "n=5: first mismatch at t^2: 27 vs 26"


# ---------------------------------------------------------------------------
# gamma vectors


def test_gamma_worked_vectors():
    assert gamma_extract(eulerian_polynomial(4), 4).gammas == GAMMA_ROW_4
    assert gamma_extract(eulerian_polynomial(5), 5).gammas == GAMMA_ROW_5


def test_gamma_of_basis_element():
    p = UniPoly.monomial(1) * UniPoly.from_coeffs([1, 1]) ** 2
    gv = gamma_extract(p, 3)
    assert gv.gammas == (1, 0)
    assert gv.nonnegative


def test_gamma_rejects_non_palindromic():
    with pytest.raises(ValueError):
        gamma_extract(UniPoly.from_coeffs([0, 1, 4, 2]), 3)


def test_gamma_rejects_out_of_span():
    # palindromic about the right center but with a constant term, so the
    # peeling cannot terminate at zero
    p = UniPoly.from_coeffs([1, 0, 0, 0, 1])
    with pytest.raises(ValueError):
        gamma_extract(p, 3)


def test_gamma_allows_negative_entries():
    # 2t(1+t)^2 - t^2 is palindromic for n = 3 with gamma (2, -3)
    p = 2 * (UniPoly.monomial(1) * UniPoly.from_coeffs([1, 1]) ** 2)
    p = p - UniPoly.monomial(2, 3)
    gv = gamma_extract(p, 3)
    assert gv.gammas == (2, -3)
    assert not gv.nonnegative


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_gamma_round_trips_random_vectors(data):
    # the basis comes from UniPoly products, not from the peel's binomials
    n = data.draw(st.integers(min_value=1, max_value=12))
    size = n // 2 + n % 2
    gammas = data.draw(st.lists(st.integers(-1000, 1000), min_size=size, max_size=size))
    p = UniPoly()
    for i, g in enumerate(gammas, start=1):
        p = p + g * (UniPoly.monomial(i) * UniPoly.from_coeffs([1, 1]) ** (n + 1 - 2 * i))
    assert gamma_extract(p, n).gammas == tuple(gammas)


def test_gamma_evaluation_identity_to_n_40():
    table = table_from_recurrence(40)
    for n in range(1, 41):
        row = table.row(n)
        gv = gamma_extract(UniPoly.from_coeffs((0,) + row), n)
        assert gv.nonnegative
        total = sum(g * 2 ** (n + 1 - 2 * i) for i, g in enumerate(gv.gammas, 1))
        assert total == factorial(n)


def test_gamma_vectors_rebuild_the_eulerian_polynomial():
    # the basis from UniPoly products, not from the peel's binomial rows;
    # n = 41 and 61 are odd, so their last element is t**((n + 1) / 2) alone
    one_plus_t = UniPoly.from_coeffs([1, 1])
    for n in (41, 60, 61):
        gv = gamma_extract(eulerian_polynomial(n), n)
        rebuilt = UniPoly()
        for i, g in enumerate(gv.gammas, start=1):
            rebuilt = rebuilt + g * (UniPoly.monomial(i) * one_plus_t ** (n + 1 - 2 * i))
        assert rebuilt == eulerian_polynomial(n), n


def test_row_polynomials_have_distinct_negative_roots():
    for n in range(1, 61):
        p = eulerian_polynomial(n)
        shifted = UniPoly.from_coeffs(p.coeffs[1:])
        assert sturm_negative_root_count(shifted) == (n - 1, True)


def test_check_row_symmetry_rejects_a_row_that_is_not_palindromic():
    for n, row in enumerate(table_from_recurrence(30).rows, start=1):
        check_row_symmetry(n, row)
    # still sums to 4!
    with pytest.raises(ConsistencyError, match=r"^row 4 is not palindromic$"):
        check_row_symmetry(4, (1, 12, 10, 1))


def test_check_row_sum_passes_rows_and_names_a_row_that_is_off():
    for n, row in enumerate(table_from_recurrence(30).rows, start=1):
        check_row_sum(n, row)
    # still palindromic, but the sum is 122
    with pytest.raises(ConsistencyError, match=r"^row 5 does not sum to 5!$"):
        check_row_sum(5, (1, 27, 66, 27, 1))
