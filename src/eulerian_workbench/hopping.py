"""Valley hopping: an involution system that groups S_n into classes whose
descent generating functions are single gamma-basis terms.

Pad w with a virtual +infinity at both ends, then classify each letter by
its neighbors: a peak is larger than both, a valley smaller than both, a
double ascent sits between a smaller left and larger right neighbor, and a
double descent the reverse. With the +infinity sentinels, peaks and valleys
alternate and every non-peak non-valley letter leans on one slope of some
valley. Those slope letters are free. Each letter class is read in one
pass over the triples (left, x, right) of the word framed by the sentinel
n + 1, larger than every letter of a permutation of {1, ..., n}.

A hop moves one free letter x across its valley to the matching height on
the other slope: every letter strictly between the old and new position is
smaller than x, so the letters passed over are exactly the floor of the
valley. Concretely, for a double descent x the new position is immediately
before the nearest larger letter to the right; for a double ascent,
immediately after the nearest larger letter to the left. hop scans for
that letter and joins four slices of the word around it. Hopping x is an
involution, changes the descent count by exactly one, and hops on distinct
free letters commute, so an orbit has size 2**(number of free letters) and
its descent generating function is t**(peaks + 1) (1 + t)**(n - 1 - 2 peaks)
(asserted on every orbit built here).

Tracking inverse descents as well gives each orbit a bivariate generating
function; no factorization is asserted for it, and factored_bivariate returns
the exponents of the one it finds, or None.

The census counts classes by peak count without building them: each class
has exactly one member with no double descents (P. Branden, "Actions on
permutations and unimodality of descent polynomials", European J. Combin.
29 (2008)), so it counts those members in one stream over S_n and checks
that the class sizes add up to n!. orbit_of builds single orbits by
hops, breadth first; check_orbit_budget sizes an orbit from its free
letters before anything is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from .common import ConsistencyError, check_budget
from .exactnum import BiPoly, UniPoly
from .perm import Perm, census_kernel, descent_count, histogram, inverse_descent_count

# Letters an orbit may hold without force: 2**free members of n letters each.
# The identity of 15 letters (2**14 members, 245,760 letters) builds in
# about 0.24 s; a 60-letter word with 15 free letters (2**15 members,
# 1,966,080 letters, 7.5 times the budget) in 1.05 s (in-process, best of
# 3, one CPU of a 2-vCPU host).
ORBIT_LETTER_BUDGET = 2**18

PEAK = "peak"
VALLEY = "valley"
DOUBLE_ASCENT = "double_ascent"
DOUBLE_DESCENT = "double_descent"


def _framed(w: Perm) -> Perm:
    """w between two sentinels n + 1, larger than every letter of w."""
    top = (len(w) + 1,)
    return top + w + top


def classify_letters(w: Perm) -> tuple[str, ...]:
    """The kind of each letter, in position order, with +inf sentinels.

    >>> classify_letters((1, 3, 2))
    ('valley', 'peak', 'valley')
    """
    framed = _framed(w)
    return tuple([
        (VALLEY if right > x else DOUBLE_DESCENT)
        if left > x
        else (DOUBLE_ASCENT if right > x else PEAK)
        for left, x, right in zip(framed, w, framed[2:])
    ])


def peak_values(w: Perm) -> tuple[int, ...]:
    framed = _framed(w)
    return tuple([x for left, x, right in zip(framed, w, framed[2:]) if left < x > right])


def valley_values(w: Perm) -> tuple[int, ...]:
    framed = _framed(w)
    return tuple([x for left, x, right in zip(framed, w, framed[2:]) if left > x < right])


def free_values(w: Perm) -> tuple[int, ...]:
    """Double ascents and double descents, in position order."""
    framed = _framed(w)
    return tuple([
        x
        for left, x, right in zip(framed, w, framed[2:])
        if left > x > right or left < x < right
    ])


def hop(w: Perm, x: int) -> Perm:
    """Move the free letter x across its valley to the other slope.

    >>> hop((2, 1, 3), 2)
    (1, 2, 3)
    >>> hop((1, 2, 3), 2)
    (2, 1, 3)
    """
    at = w.index(x)
    last = len(w) - 1
    # x's kind from its two neighbours, with the +inf sentinels at the ends
    left_larger = at == 0 or w[at - 1] > x
    right_larger = at == last or w[at + 1] > x
    if left_larger and not right_larger:  # double descent
        # Land immediately before the nearest larger letter to the right;
        # the +inf sentinel catches the case where none exists.
        q = at + 2
        while q <= last and w[q] < x:
            q += 1
        return w[:at] + w[at + 1 : q] + (x,) + w[q:]
    if right_larger and not left_larger:  # double ascent
        # Land immediately after the nearest larger letter to the left.
        q = at - 2
        while q >= 0 and w[q] < x:
            q -= 1
        return w[: q + 1] + (x,) + w[q + 1 : at] + w[at + 1 :]
    raise ValueError(f"letter {x} is a {classify_letters(w)[at]}, not free")


def check_orbit_budget(w: Perm, force: bool) -> None:
    """Refuse w's orbit past ORBIT_LETTER_BUDGET letters unless forced.

    The orbit has 2**free members, free being the number of free letters,
    so its size is known before any hop is made.
    """
    letters = 2 ** len(free_values(w)) * len(w)
    check_budget("letters in this word's orbit", letters, ORBIT_LETTER_BUDGET, force)


@dataclass(frozen=True)
class Orbit:
    """One hop class: all members, reached from any one of them."""

    representative: Perm  # lexicographically least member
    peak_count: int
    size: int
    members: tuple[Perm, ...]  # sorted


def orbit_of(w: Perm) -> Orbit:
    """Close w under hops on all free letters, breadth first.

    Each member reached is expanded once, by a hop on each of its free
    letters, read once per member: w is expanded with the free letters that
    size the class. Hops keep the set of free letters and hops on distinct
    letters commute, so the class has 2**free members; both are verified,
    which makes the reached set the whole class and nothing more.
    """
    free = free_values(w)
    letters = set(free)
    members = {w}
    queue = [w]
    for i, u in enumerate(queue):  # queue grows as members are reached
        free_u = free_values(u) if i else free
        if set(free_u) != letters:
            raise ConsistencyError(f"orbit of {w} reaches {u}, whose free letters differ")
        for x in free_u:
            v = hop(u, x)
            if v not in members:
                members.add(v)
                queue.append(v)
    if len(members) != 2 ** len(free):
        raise ConsistencyError(
            f"orbit of {w} closed at {len(members)} members, "
            f"expected 2**{len(free)}"
        )
    ordered = tuple(sorted(members))
    return Orbit(
        representative=ordered[0],
        peak_count=len(peak_values(w)),
        size=len(ordered),
        members=ordered,
    )


def class_polynomial(n: int, peaks: int) -> UniPoly:
    """t**(peaks + 1) (1 + t)**(n - 1 - 2 peaks), from binomial coefficients."""
    m = n - 1 - 2 * peaks
    return UniPoly((0,) * (peaks + 1) + tuple([comb(m, i) for i in range(m + 1)]))


def orbit_descent_polynomial(orbit: Orbit) -> UniPoly:
    """Sum of t**(des + 1) over the orbit's members, asserted equal to
    t**(peaks + 1) (1 + t)**(n - 1 - 2 peaks)."""
    n = len(orbit.representative)
    counts = [0] * (n + 1)
    for u in orbit.members:
        counts[descent_count(u) + 1] += 1
    total = UniPoly.from_coeffs(counts)
    expected = class_polynomial(n, orbit.peak_count)
    if total != expected:
        raise ConsistencyError(
            f"orbit of {orbit.representative} has descent polynomial "
            f"{total}, expected {expected}"
        )
    return total


def orbit_two_sided_polynomial(orbit: Orbit) -> BiPoly:
    """Sum of s**(ides + 1) t**(des + 1) over the orbit's members; no shape
    is asserted."""
    out: dict[tuple[int, int], int] = {}
    for u in orbit.members:
        key = (inverse_descent_count(u) + 1, descent_count(u) + 1)
        out[key] = out.get(key, 0) + 1
    return BiPoly.from_dict(out)


def orbit_census(n: int, force: bool = False) -> dict[int, int]:
    """Count hop classes of S_n by peak count, one class member each.

    Every class has exactly one member with no double descents (Branden
    2008): hops keep the peaks and move each free letter between the two
    slopes of its valley, so exactly one choice puts every free letter on
    an ascending slope. One stream over S_n therefore counts those members
    by peak count through perm.census_kernel and builds no class; the kernel
    puts every word with a double descent under the key None, which is
    dropped here. perm describes how the kernel reads S_n.

    Coverage is checked by class size: a class with p peaks has
    2**(n - 1 - 2p) members, and the classes counted must add up to n!.
    The class counts equal the gamma vector of the descent distribution,
    which is how they get used in cross-checks.
    """
    counts = histogram([n], census_kernel, force=force)[n]
    del counts[None]  # members with a double descent
    covered = sum(c * 2 ** (n - 1 - 2 * p) for p, c in counts.items())
    if covered != factorial(n):
        raise ConsistencyError(
            f"census classes cover {covered} of {factorial(n)} permutations"
        )
    return {p: counts[p] for p in sorted(counts)}


def factored_bivariate(p: BiPoly) -> tuple[int, int, int, int, int] | None:
    """The exponents (a, b, c, d, e) of p = s^a t^b (1+s)^c (1+t)^d (1+st)^e
    if p factors so, else None.

    Such a factorization is unique, and its exponents can be read off p: a
    and b are the least exponents of s and t, S = a + c + e and T = b + d + e
    the largest, and the coefficients sum to 2**(c + d + e). The product
    they name is expanded and compared with p. Orbit generating functions
    observed so far always factor this way, but nothing guarantees it, so
    callers must tolerate None.
    """
    total = sum(coeff for _, _, coeff in p.terms)
    if total < 1 or total & (total - 1):
        return None
    a = min(s_exp for s_exp, _, _ in p.terms)
    b = min(t_exp for _, t_exp, _ in p.terms)
    s_span = max(s_exp for s_exp, _, _ in p.terms) - a
    t_span = max(t_exp for _, t_exp, _ in p.terms) - b
    e = s_span + t_span - (total.bit_length() - 1)
    c, d = s_span - e, t_span - e
    if min(c, d, e) < 0:
        return None
    one = BiPoly.one()
    product = (
        BiPoly.monomial(a, b)
        * (one + BiPoly.monomial(1, 0)) ** c
        * (one + BiPoly.monomial(0, 1)) ** d
        * (one + BiPoly.monomial(1, 1)) ** e
    )
    if product != p:
        return None
    return (a, b, c, d, e)
