"""The univariate engine: tables, series, identities, gamma vectors."""

from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerian_workbench.common import ConsistencyError, GuardRailError
from eulerian_workbench.eulerian import (
    eulerian_polynomial,
    gamma_extract,
    check_unimodality,
    row_from_obj,
    row_to_obj,
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


def test_brute_force_reproduces_reference_table():
    for n, row in TABLE1.items():
        assert table_brute_force(n) == row


def test_brute_force_matches_recurrence_past_the_table():
    assert table_brute_force(9) == table_from_recurrence(9).row(9)


def test_brute_force_sharding_is_exact():
    row = table_from_recurrence(8).row(8)
    for shards in (2, 3, 5):
        assert table_brute_force(8, shards=shards) == row


def test_brute_force_guard_rail():
    with pytest.raises(GuardRailError):
        table_brute_force(12)


def test_table_rows_validate():
    table = table_from_recurrence(3)
    with pytest.raises(ValueError):
        table.row(4)
    with pytest.raises(ValueError):
        table.row(0)
    assert table.entry(3, 2) == 4
    assert table.entry(3, 7) == 0


def test_row_structure_to_n_40():
    table = table_from_recurrence(40)
    for n in range(1, 41):
        row = table.row(n)
        assert sum(row) == factorial(n)
        assert row == row[::-1]
        assert check_unimodality(row)
        assert all(c > 0 for c in row)


def test_unimodality_detects_dips():
    assert check_unimodality((1, 3, 3, 1))
    assert check_unimodality((1,))
    assert not check_unimodality((1, 3, 2, 3, 1))


def test_polynomials_match_reference_rows():
    assert eulerian_polynomial(4).coeffs == (0, 1, 11, 11, 1)
    assert eulerian_polynomial(5).coeffs == (0, 1, 26, 66, 26, 1)
    assert eulerian_polynomial(1).coeffs == (0, 1)
    assert eulerian_polynomial(4, source="brute") == eulerian_polynomial(4)


def test_power_sum_window_small():
    window = series_product(eulerian_polynomial(3), geometric_power_window(4, 5))
    assert window.coeffs == (0, 1, 8, 27, 64, 125)


def test_power_sum_window_linear():
    window = series_product(eulerian_polynomial(1), geometric_power_window(2, 4))
    assert window.coeffs == (0, 1, 2, 3, 4)


def test_power_sum_report_wide():
    report = verify_power_sum_series(8, 20)
    assert report.ok, report.detail
    assert report.status == "pass"


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
    for n in (2, 4, 20):
        report = verify_polynomial_recurrence(n)
        assert report.ok, report.detail


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


def test_row_polynomials_have_distinct_negative_roots():
    for n in range(1, 31):
        p = eulerian_polynomial(n)
        shifted = UniPoly.from_coeffs(p.coeffs[1:])
        assert sturm_negative_root_count(shifted) == (n - 1, True)


# ---------------------------------------------------------------------------
# serialization


def test_row_json_round_trip():
    row = TABLE1[5]
    obj = row_to_obj(5, row, GAMMA_ROW_5)
    assert obj == {
        "n": "5",
        "A": ["1", "26", "66", "26", "1"],
        "gamma": ["1", "22", "16"],
    }
    assert row_from_obj(obj) == (5, row, GAMMA_ROW_5)


def test_row_json_without_gamma():
    obj = row_to_obj(2, TABLE1[2])
    assert "gamma" not in obj
    assert row_from_obj(obj) == (2, TABLE1[2], None)
