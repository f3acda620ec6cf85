"""Valley hopping: classification, hops, orbits, and the census."""

import doctest
import itertools
from math import factorial

import pytest

from eulerian_workbench import hopping
from eulerian_workbench.common import GuardRailError
from eulerian_workbench.eulerian import eulerian_polynomial, gamma_extract
from eulerian_workbench.exactnum import BiPoly, UniPoly
from eulerian_workbench.hopping import (
    DOUBLE_ASCENT,
    DOUBLE_DESCENT,
    PEAK,
    VALLEY,
    classify_letters,
    factored_bivariate,
    factored_univariate,
    free_values,
    hop,
    orbit_census,
    orbit_descent_polynomial,
    orbit_of,
    peak_values,
    valley_values,
)
from eulerian_workbench.perm import BRUTE_FORCE_GUARD, descent_count, enumerate_sn, identity
from eulerian_workbench.twosided import two_sided_polynomial

GOLDEN = (8, 6, 3, 2, 4, 7, 1, 5, 9)


def test_module_doctests():
    assert doctest.testmod(hopping).failed == 0


def test_classify_golden_word():
    assert peak_values(GOLDEN) == (7,)
    assert valley_values(GOLDEN) == (2, 1)
    assert free_values(GOLDEN) == (8, 6, 3, 4, 5, 9)


def test_classify_identity_and_forced_words():
    assert classify_letters((1, 2, 3)) == (VALLEY, DOUBLE_ASCENT, DOUBLE_ASCENT)
    assert classify_letters((1, 3, 2)) == (VALLEY, PEAK, VALLEY)
    assert classify_letters((1,)) == (VALLEY,)


def test_classification_counts_are_linked():
    for n in range(1, 8):
        for w in enumerate_sn(n):
            kinds = classify_letters(w)
            peaks = kinds.count(PEAK)
            valleys = kinds.count(VALLEY)
            free = kinds.count(DOUBLE_ASCENT) + kinds.count(DOUBLE_DESCENT)
            assert valleys == peaks + 1
            assert free == n - 2 * peaks - 1


def test_descents_split_into_peaks_and_double_descents():
    for n in range(1, 8):
        for w in enumerate_sn(n):
            kinds = classify_letters(w)
            assert descent_count(w) == kinds.count(PEAK) + kinds.count(
                DOUBLE_DESCENT
            )


def test_hop_worked_examples():
    assert hop((1, 2, 3), 2) == (2, 1, 3)
    assert hop((2, 1, 3), 2) == (1, 2, 3)
    assert hop((2, 1, 3), 3) == (3, 2, 1)


def test_hop_rejects_non_free_letters():
    with pytest.raises(ValueError):
        hop((1, 3, 2), 3)  # a peak
    with pytest.raises(ValueError):
        hop((1, 3, 2), 1)  # a valley
    with pytest.raises(ValueError):
        hop((1, 3, 2), 4)  # absent


def test_hop_is_an_involution_and_commutes():
    for n in range(1, 7):
        for w in enumerate_sn(n):
            free = free_values(w)
            for x in free:
                assert hop(hop(w, x), x) == w
            for x, y in itertools.combinations(free, 2):
                assert hop(hop(w, x), y) == hop(hop(w, y), x)


def test_hop_moves_descents_by_one():
    for w in enumerate_sn(6):
        for x in free_values(w):
            assert abs(descent_count(hop(w, x)) - descent_count(w)) == 1


# ---------------------------------------------------------------------------
# orbits


def test_orbit_of_small_cycle():
    orbit = orbit_of((1, 2, 3))
    assert set(orbit.members) == {
        (1, 2, 3),
        (2, 1, 3),
        (3, 1, 2),
        (3, 2, 1),
    }
    assert orbit.size == 4
    assert orbit.representative == (1, 2, 3)
    assert orbit_descent_polynomial(orbit).coeffs == (0, 1, 2, 1)


def test_orbit_singleton():
    orbit = orbit_of((1, 3, 2))
    assert orbit.members == ((1, 3, 2),)
    assert orbit.size == 1
    orbit = orbit_of((2, 3, 1))
    assert orbit.size == 1


def test_orbit_of_identity_is_maximal():
    for n in range(1, 8):
        orbit = orbit_of(identity(n))
        assert orbit.size == 2 ** (n - 1)
        bi = orbit_descent_polynomial(orbit, "bivariate")
        expected = BiPoly.monomial(1, 1) * (
            BiPoly.one() + BiPoly.monomial(1, 1)
        ) ** (n - 1)
        assert bi == expected


def test_golden_orbit():
    orbit = orbit_of(GOLDEN)
    assert orbit.size == 64
    assert orbit.peak_count == 1
    assert orbit.representative == (2, 3, 4, 6, 7, 1, 5, 8, 9)
    assert GOLDEN in orbit.members
    uni = orbit_descent_polynomial(orbit)
    assert uni == UniPoly.monomial(2) * UniPoly.from_coeffs([1, 1]) ** 6
    bi = orbit_descent_polynomial(orbit, "bivariate")
    one = BiPoly.one()
    expected = (
        BiPoly.monomial(3, 2)
        * (one + BiPoly.monomial(0, 1)) ** 2
        * (one + BiPoly.monomial(1, 1)) ** 4
    )
    assert bi == expected
    assert factored_univariate(orbit) == "t^2(1+t)^6"
    assert factored_bivariate(bi) == "s^3 t^2 (1+t)^2 (1+st)^4"


def test_orbit_members_share_invariants():
    for n in range(1, 7):
        seen = set()
        for w in enumerate_sn(n):
            if w in seen:
                continue
            orbit = orbit_of(w)
            seen.update(orbit.members)
            peak_sets = {peak_values(u) for u in orbit.members}
            valley_sets = {valley_values(u) for u in orbit.members}
            free_sets = {frozenset(free_values(u)) for u in orbit.members}
            assert len(peak_sets) == 1
            assert len(valley_sets) == 1
            assert free_sets == {orbit.free_letters}


def test_orbit_polynomials_sum_to_full_distributions():
    for n in range(1, 8):
        uni_total = UniPoly()
        bi_total = BiPoly()
        seen = set()
        for w in enumerate_sn(n):
            if w in seen:
                continue
            orbit = orbit_of(w)
            seen.update(orbit.members)
            uni_total = uni_total + orbit_descent_polynomial(orbit)
            bi_total = bi_total + orbit_descent_polynomial(orbit, "bivariate")
        assert uni_total == eulerian_polynomial(n)
        assert bi_total == two_sided_polynomial(n)


# ---------------------------------------------------------------------------
# the census


def test_census_small_values():
    assert orbit_census(1) == {0: 1}
    assert orbit_census(2) == {0: 1}
    assert orbit_census(3) == {0: 1, 1: 2}
    assert orbit_census(5) == {0: 1, 1: 22, 2: 16}


def test_census_matches_gamma_vectors():
    for n in range(1, 8):
        census = orbit_census(n)
        gammas = gamma_extract(eulerian_polynomial(n), n).gammas
        assert census == {i - 1: g for i, g in enumerate(gammas, 1) if g}


def test_census_class_sizes_cover_sn():
    for n in range(1, 7):
        total = 0
        seen = set()
        for w in enumerate_sn(n):
            if w in seen:
                continue
            orbit = orbit_of(w)
            seen.update(orbit.members)
            total += orbit.size
        assert total == factorial(n)


def test_each_orbit_has_one_member_without_double_descents():
    for n in range(1, 8):
        seen = set()
        for w in enumerate_sn(n):
            if w in seen:
                continue
            orbit = orbit_of(w)
            seen.update(orbit.members)
            plain = [
                u for u in orbit.members if DOUBLE_DESCENT not in classify_letters(u)
            ]
            assert len(plain) == 1
            assert descent_count(plain[0]) == orbit.peak_count


def test_census_guard_rail():
    with pytest.raises(GuardRailError):
        orbit_census(BRUTE_FORCE_GUARD + 1)


# ---------------------------------------------------------------------------
# factored display forms


def test_factored_univariate_edge_exponents():
    assert factored_univariate(orbit_of((1, 3, 2))) == "t^2"
    assert factored_univariate(orbit_of((1, 2))) == "t(1+t)"


def test_factored_bivariate_forms():
    one = BiPoly.one()
    p = BiPoly.monomial(1, 1) * (one + BiPoly.monomial(1, 1)) ** 2
    assert factored_bivariate(p) == "s t (1+st)^2"
    assert factored_bivariate(BiPoly.monomial(2, 2)) == "s^2 t^2"
    # an irreducible sum that is none of the recognized factors
    assert factored_bivariate(one + BiPoly.monomial(2, 0)) is None
