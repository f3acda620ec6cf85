"""Polynomials, series windows, the exact solver, and Sturm counting."""

import doctest
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerian_workbench import exactnum
from eulerian_workbench.common import ConsistencyError
from eulerian_workbench.exactnum import (
    BiPoly,
    UniPoly,
    binomial,
    geometric_power_window,
    series_product,
    series_product_bivariate,
    solve_exact_linear,
    sturm_negative_root_count,
)

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), max_size=6)


def test_module_doctests():
    assert doctest.testmod(exactnum).failed == 0


def test_binomial_matches_comb_in_range():
    for m in range(10):
        for r in range(m + 1):
            assert binomial(m, r) == comb(m, r)


def test_binomial_out_of_range_is_zero():
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
    assert binomial(-2, 0) == 0


# ---------------------------------------------------------------------------
# univariate polynomials


def test_unipoly_trims_and_reports_degree():
    assert UniPoly.from_coeffs([1, 2, 0, 0]).coeffs == (1, 2)
    assert UniPoly.from_coeffs([]).degree == -1
    assert UniPoly.monomial(3).degree == 3
    assert UniPoly.monomial(3, 0).is_zero()


def test_unipoly_square_of_binomial():
    p = UniPoly.from_coeffs([1, 1])
    assert (p * p).coeffs == (1, 2, 1)
    assert (p**4).coeffs == (1, 4, 6, 4, 1)


def test_unipoly_scalar_and_subtraction():
    p = UniPoly.from_coeffs([2, 0, 5])
    assert (3 * p).coeffs == (6, 0, 15)
    assert (p - p).is_zero()


def test_unipoly_derivative_and_evaluate():
    p = UniPoly.from_coeffs([1, 2, 3])
    assert p.derivative().coeffs == (2, 6)
    assert p.evaluate(2) == 1 + 4 + 12
    assert p.evaluate(Fraction(1, 2)) == Fraction(11, 4)


def test_unipoly_palindrome_detection():
    assert UniPoly.from_coeffs([0, 1, 4, 1]).is_palindromic(4)
    assert not UniPoly.from_coeffs([0, 1, 4, 2]).is_palindromic(4)


def test_unipoly_json_round_trip():
    p = UniPoly.from_coeffs([0, 1, 0, -7])
    assert UniPoly.from_obj(p.to_obj()) == p


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=60, deadline=None)
def test_unipoly_ring_laws(a, b, c):
    p, q, r = map(UniPoly.from_coeffs, (a, b, c))
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


# ---------------------------------------------------------------------------
# bivariate polynomials


def test_bipoly_drops_zero_terms():
    p = BiPoly.from_dict({(1, 2): 3, (0, 0): 0})
    assert p.terms == ((1, 2, 3),)
    assert p.coeff(0, 0) == 0
    assert p.coeff(1, 2) == 3


def test_bipoly_product_and_swap():
    s = BiPoly.monomial(1, 0)
    t = BiPoly.monomial(0, 1)
    p = (s + t) ** 2
    assert p.as_dict() == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert p.swap_vars() == p
    q = s * t * t
    assert q.swap_vars() == s * s * t


def test_bipoly_reciprocal():
    p = BiPoly.from_dict({(1, 1): 5, (2, 3): 1})
    assert p.reciprocal(4) == BiPoly.from_dict({(3, 3): 5, (2, 1): 1})
    with pytest.raises(ValueError):
        BiPoly.monomial(5, 0).reciprocal(4)


def test_bipoly_exact_division():
    one_st = BiPoly.one() + BiPoly.monomial(1, 1)
    s = BiPoly.monomial(1, 0)
    p = s * one_st**3
    assert p.divide_exact(one_st) == s * one_st**2
    assert p.divide_exact(BiPoly.one() + BiPoly.monomial(0, 1)) is None


def test_bipoly_partial_derivatives():
    p = BiPoly.from_dict({(2, 1): 3})
    assert p.partial_derivative("s") == BiPoly.from_dict({(1, 1): 6})
    assert p.partial_derivative("t") == BiPoly.from_dict({(2, 0): 3})


def test_bipoly_json_round_trip():
    p = BiPoly.from_dict({(0, 0): 1, (3, 2): -4})
    assert BiPoly.from_obj(p.to_obj()) == p


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=-5, max_value=5),
        ),
        max_size=4,
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=-5, max_value=5),
        ),
        max_size=4,
    ),
)
@settings(max_examples=40, deadline=None)
def test_bipoly_commutativity(a, b):
    def build(triples):
        out = BiPoly()
        for i, j, c in triples:
            out = out + BiPoly.monomial(i, j) * c
        return out

    p, q = build(a), build(b)
    assert p + q == q + p
    assert p * q == q * p


# ---------------------------------------------------------------------------
# series windows


def test_geometric_window_is_multichoose():
    window = geometric_power_window(7, 10)
    assert window.coeffs[6] == 924
    for k, c in enumerate(window.coeffs):
        assert c == comb(k + 6, 6)


def test_series_product_telescopes():
    # (1 - t) times the window of 1/(1 - t) is the constant series 1
    window = geometric_power_window(1, 8)
    assert window.coeffs == (1,) * 9
    product = series_product(UniPoly.from_coeffs([1, -1]), window)
    assert product.coeffs == (1,) + (0,) * 8


def test_series_product_rejects_grid_window():
    grid = series_product_bivariate(
        BiPoly.one(), geometric_power_window(1, 2), geometric_power_window(1, 2)
    )
    assert grid.bivariate
    with pytest.raises(ValueError):
        series_product(UniPoly.one(), grid)


def test_bivariate_window_shifts_monomials():
    st_mono = BiPoly.monomial(1, 1)
    grid = series_product_bivariate(
        st_mono, geometric_power_window(2, 4), geometric_power_window(3, 4)
    )
    for k in range(5):
        for l in range(5):
            expected = 0
            if k >= 1 and l >= 1:
                expected = comb(k - 1 + 1, 1) * comb(l - 1 + 2, 2)
            assert grid.coeffs[k][l] == expected


# ---------------------------------------------------------------------------
# exact linear solving


def test_solver_two_by_two():
    rows = [
        [Fraction(2), Fraction(1), Fraction(5)],
        [Fraction(1), Fraction(-1), Fraction(1)],
    ]
    assert solve_exact_linear(rows, 2) == [Fraction(2), Fraction(1)]


def test_solver_rejects_underdetermined():
    rows = [[Fraction(1), Fraction(1), Fraction(2)]]
    with pytest.raises(ConsistencyError):
        solve_exact_linear(rows, 2)


def test_solver_rejects_inconsistent():
    rows = [
        [Fraction(1), Fraction(3)],
        [Fraction(2), Fraction(7)],
    ]
    with pytest.raises(ConsistencyError):
        solve_exact_linear(rows, 1)


def test_solver_overdetermined_but_consistent():
    rows = [
        [Fraction(1), Fraction(4)],
        [Fraction(2), Fraction(8)],
    ]
    assert solve_exact_linear(rows, 1) == [Fraction(4)]


# ---------------------------------------------------------------------------
# Sturm counting


def test_sturm_double_root():
    count, distinct = sturm_negative_root_count(UniPoly.from_coeffs([1, 2, 1]))
    assert (count, distinct) == (1, False)


def test_sturm_two_distinct_negative_roots():
    count, distinct = sturm_negative_root_count(UniPoly.from_coeffs([1, 4, 1]))
    assert (count, distinct) == (2, True)


def test_sturm_ignores_root_at_zero():
    # t**2 + t has roots 0 and -1; only the strictly negative one counts
    count, distinct = sturm_negative_root_count(UniPoly.from_coeffs([0, 1, 1]))
    assert (count, distinct) == (1, True)


def test_sturm_triple_root():
    count, distinct = sturm_negative_root_count(UniPoly.from_coeffs([1, 3, 3, 1]))
    assert (count, distinct) == (1, False)


def test_sturm_no_negative_roots():
    count, distinct = sturm_negative_root_count(UniPoly.from_coeffs([1, -2, 1]))
    assert count == 0


@given(
    st.integers(min_value=0, max_value=3),
    st.lists(
        st.tuples(st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=3)),
        max_size=5,
    ),
)
@settings(max_examples=150, deadline=None)
def test_sturm_matches_factored_oracle(z, factors):
    # p = t^z prod (t + a)^m has roots -a, so its negative roots are the
    # distinct positive a; multiplicities gather per root, 0 included
    p = UniPoly.monomial(z)
    multiplicity = Counter({0: z})
    for a, m in factors:
        p = p * UniPoly.from_coeffs([a, 1]) ** m
        multiplicity[-a] += m
    count, distinct = sturm_negative_root_count(p)
    assert count == len({a for a, _ in factors if a > 0})
    assert distinct == all(v <= 1 for v in multiplicity.values())
