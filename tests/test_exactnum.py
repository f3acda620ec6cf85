"""Polynomials, series windows, and Sturm counting."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulerian_workbench import exactnum
from eulerian_workbench.eulerian import table_from_recurrence
from eulerian_workbench.exactnum import (
    BiPoly,
    UniPoly,
    binomial,
    binomial_row,
    geometric_power_window,
    series_product,
    series_product_bivariate,
    sturm_negative_root_count,
)

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), max_size=6)


def test_binomial_matches_comb_in_range():
    for m in range(10):
        for r in range(m + 1):
            assert binomial(m, r) == comb(m, r)


def test_binomial_out_of_range_is_zero():
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
    assert binomial(-2, 0) == 0


def test_binomial_row_matches_comb_entry_by_entry():
    for m in range(81):
        assert binomial_row(m) == tuple(comb(m, k) for k in range(m + 1)), m


def test_binomial_row_is_built_once_per_process():
    assert binomial_row(37) is binomial_row(37)


def test_the_linear_solver_is_only_a_binding_for_the_bench():
    with pytest.raises(NotImplementedError, match="bench/spans.py"):
        exactnum.solve_exact_linear([[Fraction(1), Fraction(2)]], 1)


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


def test_unipoly_palindrome_detection():
    assert UniPoly.from_coeffs([0, 1, 4, 1]).is_palindromic(4)
    assert not UniPoly.from_coeffs([0, 1, 4, 2]).is_palindromic(4)


def test_unipoly_palindrome_about_a_top_other_than_the_degree():
    # top above the degree pads with zeros; a degree above top never passes
    assert UniPoly.from_coeffs([0, 0, 1, 4, 1]).is_palindromic(6)
    assert not UniPoly.from_coeffs([1, 4, 1]).is_palindromic(3)
    assert not UniPoly.from_coeffs([1, 4, 1]).is_palindromic(1)
    assert UniPoly().is_palindromic(2)


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


def test_bipoly_partial_derivatives():
    p = BiPoly.from_dict({(2, 1): 3})
    assert p.partial_derivative("s") == BiPoly.from_dict({(1, 1): 6})
    assert p.partial_derivative("t") == BiPoly.from_dict({(2, 0): 3})


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


def test_a_rectangular_grid_window_keeps_each_variables_order():
    # orders 2 in s and 5 in t, and the reverse: 1/(1-s) times 1/(1-t)**2 has
    # s**k t**l coefficient l + 1, and the window's shape is its only order
    for ks, kt in ((2, 5), (5, 2)):
        grid = series_product_bivariate(
            BiPoly.one(), geometric_power_window(1, ks), geometric_power_window(2, kt)
        )
        assert grid.coeffs == ((*range(1, kt + 2),),) * (ks + 1)
    assert [field.name for field in dataclasses.fields(exactnum.SeriesWindow)] == ["coeffs"]


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
    st.integers(min_value=-5, max_value=5).filter(bool),
    st.integers(min_value=0, max_value=3),
    st.lists(
        st.tuples(st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=3)),
        max_size=5,
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=-4, max_value=4),
            st.integers(min_value=1, max_value=6),
            st.integers(min_value=1, max_value=2),
        ).filter(lambda f: f[0] ** 2 < 4 * f[1]),
        max_size=2,
    ),
)
@settings(max_examples=150, deadline=None)
def test_sturm_matches_factored_oracle(lead, z, linears, quadratics):
    # p = lead t^z prod (t + a)^m prod (t^2 + bt + c)^m has real roots -a
    # only, since b^2 < 4c leaves each quadratic with none; its negative
    # roots are the distinct positive a. Distinct monic irreducible factors
    # share no complex root, so p is squarefree exactly when no factor
    # (t + 0 = t included) gathers multiplicity above one.
    p = UniPoly.monomial(z, lead)
    multiplicity = Counter({(0,): z})
    for a, m in linears:
        p = p * UniPoly.from_coeffs([a, 1]) ** m
        multiplicity[(a,)] += m
    for b, c, m in quadratics:
        p = p * UniPoly.from_coeffs([c, b, 1]) ** m
        multiplicity[(b, c)] += m
    count, distinct = sturm_negative_root_count(p)
    assert count == len({a for a, _ in linears if a > 0})
    assert distinct == all(v <= 1 for v in multiplicity.values())


# The oracle's factors: (at + b)(bt + a) and (at - b)(bt - a) are palindromic
# with roots -b/a, -a/b and b/a, a/b; t^2 + ct + 1 with |c| <= 1 has two
# non-real roots. Their product, times t^z and (1 + t)^k, is t^z times a
# palindrome, so sturm_negative_root_count takes its palindromic branch, or
# the full chain when -1 or 1 stays a root of the even-degree part.
reciprocal_pairs = st.lists(
    st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 2)), max_size=3)


@given(
    st.integers(min_value=-5, max_value=5).filter(bool),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    reciprocal_pairs,
    reciprocal_pairs,
    st.lists(st.tuples(st.integers(-1, 1), st.integers(1, 2)), max_size=2),
)
@example(1, 0, 2, [], [], [])  # (1 + t)^2: r(-2) = 0
@example(1, 0, 0, [], [(1, 1, 1)], [])  # (1 - t)^2: r(2) = 0
@example(3, 1, 1, [(1, 1, 1)], [(2, 2, 1)], [(0, 1)])  # 3t (1 + t)^3 (2t - 2)^2 (t^2 + 1)
@settings(max_examples=200, deadline=None)
def test_sturm_matches_palindromic_factored_oracle(lead, z, k, negatives, positives, quadratics):
    # roots merge by value, so -a/b from one pair and -1 from (1 + t)^k or a
    # pair with a = b gather one multiplicity; p is squarefree exactly when
    # none exceeds one
    p = UniPoly.monomial(z, lead) * UniPoly.from_coeffs([1, 1]) ** k
    multiplicity = Counter({Fraction(0): z, Fraction(-1): k})
    for sign, pairs in ((1, negatives), (-1, positives)):
        for a, b, m in pairs:
            p = p * (UniPoly.from_coeffs([sign * b, a]) * UniPoly.from_coeffs([sign * a, b])) ** m
            multiplicity[Fraction(-sign * b, a)] += m
            multiplicity[Fraction(-sign * a, b)] += m
    for c, m in quadratics:
        p = p * UniPoly.from_coeffs([1, c, 1]) ** m
        multiplicity[("t^2 + ct + 1", c)] += m
    count, distinct = sturm_negative_root_count(p)
    assert count == sum(1 for root, m in multiplicity.items()
                        if m and isinstance(root, Fraction) and root < 0)
    assert distinct == all(m <= 1 for m in multiplicity.values())


def full_chain_count(p):
    """The count from the remainder sequence of q itself, degree for degree."""
    shift = next(e for e, c in enumerate(p.coeffs) if c)
    chain = exactnum._sturm_chain(list(p.coeffs[shift:]))
    sign = lambda x: (x > 0) - (x < 0)
    changes = lambda signs: sum(1 for x, y in zip(signs, signs[1:]) if x != y)
    at_minus_inf = [sign(c[-1]) * (-1) ** (len(c) - 1) for c in chain]
    at_zero = [sign(c[0]) for c in chain if c[0]]
    return (changes(at_minus_inf) - changes(at_zero), shift <= 1 and len(chain[-1]) == 1)


def test_palindromic_branch_equals_the_full_chain_on_eulerian_rows_to_n_60():
    # rows 61-80, whose full chains take most of a minute, are compared by
    # the sturm sweep of tools/sweeps.py, run in CI
    table = table_from_recurrence(60)
    for n in range(1, 61):
        p = UniPoly.from_coeffs(table.row(n))
        assert sturm_negative_root_count(p) == full_chain_count(p) == (n - 1, True), n


def random_palindrome(rng):
    """t^0..2 times a palindrome: random mirrored coefficients or a product of
    small random palindromes, sometimes multiplied by (1 + t)^j or (1 - t)^2."""
    def mirrored(degree):
        half = [rng.randint(-9, 9) for _ in range(degree // 2 + 1)]
        half[0] = half[0] or 1
        return UniPoly.from_coeffs(half + half[: (degree + 1) // 2][::-1])
    if rng.random() < 0.5:
        q = mirrored(rng.randint(0, 12))
    else:
        q = UniPoly.one()
        for _ in range(rng.randint(1, 4)):
            q = q * mirrored(rng.choice((1, 2, 2, 4)))
    extra = rng.choice([UniPoly.one()] * 5 + [UniPoly.from_coeffs([1, 1]) ** j for j in (1, 2)]
                       + [UniPoly.from_coeffs([1, -2, 1])])
    return UniPoly.monomial(rng.randint(0, 2)) * q * extra


def test_palindromic_branch_equals_the_full_chain_on_random_palindromes():
    rng = random.Random(20261020)
    fallbacks = 0
    for _ in range(2400):
        p = random_palindrome(rng)
        q = p.coeffs[next(e for e, c in enumerate(p.coeffs) if c):]
        assert q == q[::-1]
        fallbacks += exactnum._palindromic_count(q) is None
        assert sturm_negative_root_count(p) == full_chain_count(p), p.coeffs
    # both paths run often: a root at -1 or 1 of the even-degree part, from
    # (1 + t)^2, (1 - t)^2 or two odd-degree factors, sends q to the full chain
    assert 300 < fallbacks < 2400 - 1000
