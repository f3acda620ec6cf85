"""The two-sided engine: arrays, series, symmetries, the basis solve."""

from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerian_workbench.common import ConsistencyError, GuardRailError
from eulerian_workbench.eulerian import table_from_recurrence
from eulerian_workbench.exactnum import BiPoly
from eulerian_workbench.twosided import (
    GesselExpansion,
    TwoSidedTable,
    check_symmetries,
    diagonal_monotonicity_probe,
    gessel_basis_element,
    gessel_basis_indices,
    gessel_solve,
    polynomial_from_table,
    table_from_obj,
    table_to_obj,
    two_sided_brute_force,
    two_sided_from_recurrence,
    two_sided_polynomial,
    verify_bivariate_recurrence,
    verify_grid_series,
    worpitzky_grid_identity,
)

from reference_tables import GESSEL_4, GESSEL_5, TABLE2


def _expansion_from_obj(obj: dict) -> GesselExpansion | None:
    """Read back the gamma part of table_to_obj's output."""
    if "gamma" not in obj:
        return None
    gammas: dict[tuple[int, int], int] = {}
    for key, value in obj["gamma"].items():
        i, j = key.strip("()").split(",")
        gammas[(int(i), int(j))] = int(value)
    return GesselExpansion(int(obj["n"]), gammas, bool(obj["gessel_nonnegative"]))


def test_recurrence_reproduces_reference_arrays():
    tables = two_sided_from_recurrence(8)
    for n, entries in TABLE2.items():
        assert tables[n - 1].entries == entries


def test_brute_force_reproduces_reference_arrays():
    for n, entries in TABLE2.items():
        assert two_sided_brute_force(n).entries == entries


def test_brute_force_matches_recurrence_past_the_table():
    assert two_sided_brute_force(9).entries == two_sided_from_recurrence(9)[8].entries


def test_brute_force_sharding_is_exact():
    reference = TABLE2[7]
    for shards in (2, 3, 5):
        assert two_sided_brute_force(7, shards=shards).entries == reference


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
    assert two_sided_polynomial(5, source="brute") == two_sided_polynomial(5)


def test_grid_series_small_entries():
    report = verify_grid_series(1, 5)
    assert report.ok, report.detail
    # n=1 window entry (2,3) is binomial(6,1)
    assert comb(2 * 3 + 0, 1) == 6
    report = verify_grid_series(4, 5)
    assert report.ok, report.detail
    assert comb(2 * 2 + 3, 4) == 35


def test_grid_series_window_wide():
    for n in range(1, 8):
        report = verify_grid_series(n, 6)
        assert report.ok, report.detail


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
    for n in (2, 5, 15):
        report = verify_bivariate_recurrence(n)
        assert report.ok, report.detail


def test_symmetries_hold_to_n_20():
    for table in two_sided_from_recurrence(20):
        assert check_symmetries(table) == (True, True, True)


def test_symmetries_detect_breakage():
    # ((1,1),(0,1)) is fixed by the antitranspose but not the other two
    lopsided = TwoSidedTable(2, ((1, 1), (0, 1)))
    assert check_symmetries(lopsided) == (False, False, True)
    skewed = TwoSidedTable(2, ((2, 1), (0, 1)))
    assert check_symmetries(skewed) == (False, False, False)


# ---------------------------------------------------------------------------
# diagonal monotonicity


def test_probe_quiet_through_n_7():
    for table in two_sided_from_recurrence(7):
        assert diagonal_monotonicity_probe(table) == []


def test_probe_first_violations_at_n_8():
    table = two_sided_from_recurrence(8)[7]
    found = {
        (v.i, v.j, v.step, v.value, v.toward_value)
        for v in diagonal_monotonicity_probe(table)
    }
    assert found == {
        (2, 3, "lower-j", 126, 84),
        (3, 4, "lower-j", 1980, 1773),
    }


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
    st_mono = BiPoly.monomial(1, 1)
    s_plus_t = BiPoly.monomial(1, 0) + BiPoly.monomial(0, 1)
    p = BiPoly()
    for (i, j), g in zip(indices, coeffs):
        p = p + g * (st_mono**i * s_plus_t**j * (BiPoly.one() + st_mono) ** (n + 1 - j - 2 * i))
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


# ---------------------------------------------------------------------------
# serialization


def test_table_json_round_trip():
    table = two_sided_from_recurrence(4)[3]
    expansion = gessel_solve(polynomial_from_table(table), 4)
    obj = table_to_obj(table, expansion)
    assert obj["n"] == "4"
    assert obj["A"][1] == ["0", "10", "1", "0"]
    assert obj["gamma"] == {"(1,0)": "1", "(2,0)": "7", "(2,1)": "1"}
    assert obj["gessel_nonnegative"] is True
    assert table_from_obj(obj).entries == table.entries
    back = _expansion_from_obj(obj)
    assert back is not None
    assert back.gammas == expansion.gammas
    assert back.nonnegative


def test_table_json_without_expansion():
    table = two_sided_from_recurrence(2)[1]
    obj = table_to_obj(table)
    assert "gamma" not in obj
    assert _expansion_from_obj(obj) is None
    assert table_from_obj(obj).entries == table.entries


def test_table_from_obj_validates_shape():
    with pytest.raises(ValueError):
        table_from_obj({"n": "2", "A": [["1", "0"]]})
