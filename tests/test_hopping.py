"""Valley hopping: classification, hops, orbits, and the census."""

import itertools
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerian_workbench import hopping
from eulerian_workbench.common import ConsistencyError, GuardRailError
from eulerian_workbench.eulerian import eulerian_polynomial, gamma_extract
from eulerian_workbench.exactnum import BiPoly, UniPoly
from eulerian_workbench.hopping import (
    DOUBLE_ASCENT,
    DOUBLE_DESCENT,
    PEAK,
    VALLEY,
    class_polynomial,
    classify_letters,
    factored_bivariate,
    free_values,
    hop,
    orbit_census,
    orbit_descent_polynomial,
    orbit_of,
    orbit_two_sided_polynomial,
    peak_values,
    valley_values,
)
from eulerian_workbench.perm import BRUTE_FORCE_GUARD, descent_count, enumerate_sn
from eulerian_workbench.twosided import two_sided_polynomial

GOLDEN = (8, 6, 3, 2, 4, 7, 1, 5, 9)


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


# ---------------------------------------------------------------------------
# the one-pass letter classes and the slice hop against per-letter references


def _classify_reference(w):
    """Each letter's kind from its own two neighbours, +inf past both ends."""
    n = len(w)
    kinds = []
    for at, x in enumerate(w):
        left_larger = at == 0 or w[at - 1] > x
        right_larger = at == n - 1 or w[at + 1] > x
        if left_larger and right_larger:
            kinds.append(VALLEY)
        elif left_larger:
            kinds.append(DOUBLE_DESCENT)
        elif right_larger:
            kinds.append(DOUBLE_ASCENT)
        else:
            kinds.append(PEAK)
    return tuple(kinds)


def _hop_reference(w, x):
    """Pop the free letter x and insert it beside the nearest larger letter
    on its valley's other slope."""
    letters = list(w)
    at = letters.index(x)
    left_larger = at == 0 or letters[at - 1] > x
    right_larger = at == len(letters) - 1 or letters[at + 1] > x
    if left_larger and not right_larger:  # double descent
        target = next(
            (q for q in range(at + 1, len(letters)) if letters[q] > x), len(letters)
        )
        letters.pop(at)
        letters.insert(target - 1, x)
    elif right_larger and not left_larger:  # double ascent
        target = next((q for q in range(at - 1, -1, -1) if letters[q] > x), -1)
        letters.pop(at)
        letters.insert(target + 1, x)
    else:
        raise ValueError(f"letter {x} is not free")
    return tuple(letters)


def _check_against_references(w):
    kinds = _classify_reference(w)
    assert classify_letters(w) == kinds
    assert peak_values(w) == tuple(x for x, k in zip(w, kinds) if k == PEAK)
    assert valley_values(w) == tuple(x for x, k in zip(w, kinds) if k == VALLEY)
    free = tuple(x for x, k in zip(w, kinds) if k in (DOUBLE_ASCENT, DOUBLE_DESCENT))
    assert free_values(w) == free
    for x in free:
        assert hop(w, x) == _hop_reference(w, x)


def test_classes_and_hops_match_references_through_n8():
    for n in range(1, 9):
        for w in enumerate_sn(n):
            _check_against_references(w)


@given(st.integers(1, 40).flatmap(lambda n: st.permutations(range(1, n + 1))))
@settings(max_examples=300, deadline=None)
def test_classes_and_hops_match_references_to_n40(letters):
    _check_against_references(tuple(letters))


def test_class_polynomial_is_the_product_form():
    for p in range(21):
        for m in range(21):
            product = UniPoly.monomial(p + 1) * (UniPoly.one() + UniPoly.monomial(1)) ** m
            assert class_polynomial(m + 1 + 2 * p, p) == product


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


def test_hop_accepts_exactly_the_free_letters():
    # hop decides from two neighbours; classify_letters reads the whole word
    for n in range(1, 7):
        for w in enumerate_sn(n):
            kinds = classify_letters(w)
            for x, kind in zip(w, kinds):
                if kind in (DOUBLE_ASCENT, DOUBLE_DESCENT):
                    assert descent_count(hop(w, x)) - descent_count(w) == (
                        1 if kind == DOUBLE_ASCENT else -1
                    )
                else:
                    with pytest.raises(ValueError, match=f"letter {x} is a {kind}, not free"):
                        hop(w, x)


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
        orbit = orbit_of(tuple(range(1, n + 1)))
        assert orbit.size == 2 ** (n - 1)
        bi = orbit_two_sided_polynomial(orbit)
        expected = BiPoly.monomial(1, 1) * (
            BiPoly.one() + BiPoly.monomial(1, 1)
        ) ** (n - 1)
        assert bi == expected


def test_orbit_of_rejects_a_member_with_other_free_letters(monkeypatch):
    # a hop from a word whose free letter is 2 onto one whose free letter is
    # 3, and back: two members, as 2**1 expects, so only the free-set check
    # catches it
    a, b = (1, 2, 4, 3), (1, 3, 4, 2)
    monkeypatch.setattr(hopping, "hop", lambda u, x: {a: b, b: a}[u])
    with pytest.raises(ConsistencyError, match="whose free letters differ$"):
        orbit_of(a)


def test_orbit_of_rejects_a_class_of_the_wrong_size(monkeypatch):
    # three words whose free letter is 2, hopped round a cycle
    a, b, c = (1, 2, 4, 3), (2, 1, 4, 3), (3, 4, 1, 2)
    monkeypatch.setattr(hopping, "hop", lambda u, x: {a: b, b: c, c: a}[u])
    with pytest.raises(ConsistencyError, match=r"closed at 3 members, expected 2\*\*1$"):
        orbit_of(a)


def test_golden_orbit():
    orbit = orbit_of(GOLDEN)
    assert orbit.size == 64
    assert orbit.peak_count == 1
    assert orbit.representative == (2, 3, 4, 6, 7, 1, 5, 8, 9)
    assert GOLDEN in orbit.members
    uni = orbit_descent_polynomial(orbit)
    assert uni == UniPoly.monomial(2) * UniPoly.from_coeffs([1, 1]) ** 6
    bi = orbit_two_sided_polynomial(orbit)
    one = BiPoly.one()
    expected = (
        BiPoly.monomial(3, 2)
        * (one + BiPoly.monomial(0, 1)) ** 2
        * (one + BiPoly.monomial(1, 1)) ** 4
    )
    assert bi == expected
    assert factored_bivariate(bi) == (3, 2, 0, 2, 4)


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
            assert free_sets == {frozenset(free_values(w))}


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
            bi_total = bi_total + orbit_two_sided_polynomial(orbit)
        assert uni_total == eulerian_polynomial(n)
        assert bi_total == two_sided_polynomial(n)


def test_orbit_polynomials_are_the_direct_count_on_every_class():
    # verify's orbit sums count each member's statistics themselves, so both
    # polynomials are held here to a count that calls nothing of perm, on every
    # class through n = 7
    for n in range(1, 8):
        seen = set()
        for w in enumerate_sn(n):
            if w in seen:
                continue
            orbit = orbit_of(w)
            seen.update(orbit.members)
            counts = Counter()
            for u in orbit.members:
                des = sum(a > b for a, b in zip(u, u[1:]))
                # an inverse descent at v: the letter v + 1 stands left of v
                ides = sum(u.index(v + 1) < u.index(v) for v in range(1, n))
                counts[ides + 1, des + 1] += 1
            assert orbit_two_sided_polynomial(orbit) == BiPoly.from_dict(counts)
            marginal = [0] * (n + 1)
            for (_, t_exp), c in counts.items():
                marginal[t_exp] += c
            assert orbit_descent_polynomial(orbit) == UniPoly.from_coeffs(marginal)


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
# bivariate factorization


def test_factored_bivariate_exponents():
    one = BiPoly.one()
    p = BiPoly.monomial(1, 1) * (one + BiPoly.monomial(1, 1)) ** 2
    assert factored_bivariate(p) == (1, 1, 0, 0, 2)
    assert factored_bivariate(BiPoly.monomial(2, 2)) == (2, 2, 0, 0, 0)
    assert factored_bivariate(one) == (0, 0, 0, 0, 0)
    # an irreducible sum that is none of the recognized factors
    assert factored_bivariate(one + BiPoly.monomial(2, 0)) is None
    # exponents that read off as nonnegative but name another product
    assert factored_bivariate(BiPoly.monomial(1, 0) + BiPoly.monomial(0, 1)) is None
    # a coefficient sum that is no positive power of two
    assert factored_bivariate(one - BiPoly.monomial(1, 1)) is None
    assert factored_bivariate(BiPoly.monomial(0, 0, 3)) is None
    assert factored_bivariate(BiPoly()) is None
