"""Valley hopping: an involution system that groups S_n into classes whose
descent generating functions are single gamma-basis terms.

Pad w with a virtual +infinity at both ends, then classify each letter by
its neighbors: a peak is larger than both, a valley smaller than both, a
double ascent sits between a smaller left and larger right neighbor, and a
double descent the reverse. With the +infinity sentinels, peaks and valleys
alternate and every non-peak non-valley letter leans on one slope of some
valley. Those slope letters are free.

A hop moves one free letter x across its valley to the matching height on
the other slope: every letter strictly between the old and new position is
smaller than x, so the letters passed over are exactly the floor of the
valley. Concretely, for a double descent x the new position is immediately
before the nearest larger letter to the right; for a double ascent,
immediately after the nearest larger letter to the left. Hopping x is an
involution, changes the descent count by exactly one, and hops on distinct
free letters commute, so an orbit has size 2**(number of free letters) and
its descent generating function is t**(peaks + 1) (1 + t)**(n - 1 - 2 peaks)
(asserted on every orbit built here).

Tracking inverse descents as well gives each orbit a bivariate generating
function; no factorization is asserted for it.

The census counts classes by peak count without building them: each class
has exactly one member with no double descents (P. Branden, "Actions on
permutations and unimodality of descent polynomials", European J. Combin.
29 (2008)), so it counts those members in one stream over S_n and checks
that the class sizes add up to n!. orbit_of keeps the hop closure for
single orbits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .common import ConsistencyError
from .exactnum import BiPoly, UniPoly
from .perm import Perm, census_kernel, descent_count, histogram, inverse_descent_count

PEAK = "peak"
VALLEY = "valley"
DOUBLE_ASCENT = "double_ascent"
DOUBLE_DESCENT = "double_descent"


def classify_letters(w: Perm) -> tuple[str, ...]:
    """The kind of each letter, in position order, with +inf sentinels.

    >>> classify_letters((1, 3, 2))
    ('valley', 'peak', 'valley')
    """
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


def peak_values(w: Perm) -> tuple[int, ...]:
    kinds = classify_letters(w)
    return tuple(x for x, kind in zip(w, kinds) if kind == PEAK)


def valley_values(w: Perm) -> tuple[int, ...]:
    kinds = classify_letters(w)
    return tuple(x for x, kind in zip(w, kinds) if kind == VALLEY)


def free_values(w: Perm) -> tuple[int, ...]:
    """Double ascents and double descents, in position order."""
    kinds = classify_letters(w)
    return tuple(
        x for x, kind in zip(w, kinds) if kind in (DOUBLE_ASCENT, DOUBLE_DESCENT)
    )


def hop(w: Perm, x: int) -> Perm:
    """Move the free letter x across its valley to the other slope.

    >>> hop((2, 1, 3), 2)
    (1, 2, 3)
    >>> hop((1, 2, 3), 2)
    (2, 1, 3)
    """
    letters = list(w)
    at = letters.index(x)
    kinds = classify_letters(w)
    kind = kinds[at]
    if kind == DOUBLE_DESCENT:
        # Land immediately before the nearest larger letter to the right;
        # the +inf sentinel catches the case where none exists.
        target = next(
            (q for q in range(at + 1, len(letters)) if letters[q] > x), len(letters)
        )
        letters.pop(at)
        letters.insert(target - 1, x)
    elif kind == DOUBLE_ASCENT:
        target = next((q for q in range(at - 1, -1, -1) if letters[q] > x), -1)
        letters.pop(at)
        letters.insert(target + 1, x)
    else:
        raise ValueError(f"letter {x} is a {kind}, not free")
    return tuple(letters)


@dataclass(frozen=True)
class Orbit:
    """One hop class: all members, reached from any one of them."""

    representative: Perm  # lexicographically least member
    peak_count: int
    free_letters: frozenset[int]
    size: int
    members: tuple[Perm, ...]  # sorted


def orbit_of(w: Perm) -> Orbit:
    """Close w under hops on all free letters.

    Since hops on distinct letters commute, folding one letter at a time
    reaches the whole class; closure and the 2**free size are verified.
    """
    free = free_values(w)
    members = {w}
    for x in free:
        members |= {hop(u, x) for u in members}
    if len(members) != 2 ** len(free):
        raise ConsistencyError(
            f"orbit of {w} closed at {len(members)} members, "
            f"expected 2**{len(free)}"
        )
    for u in members:
        for x in free_values(u):
            if hop(u, x) not in members:
                raise ConsistencyError(f"orbit of {w} is not closed under hops")
    peaks = len(peak_values(w))
    return Orbit(
        representative=min(members),
        peak_count=peaks,
        free_letters=frozenset(free),
        size=len(members),
        members=tuple(sorted(members)),
    )


def orbit_descent_polynomial(orbit: Orbit, mode: str = "univariate"):
    """Generating function of the orbit by descents (t) or both statistics.

    Univariate: sum of t**(des + 1) over members, asserted equal to
    t**(peaks + 1) (1 + t)**(n - 1 - 2 peaks). Bivariate: sum of
    s**(ides + 1) t**(des + 1), no shape asserted.
    """
    if mode == "univariate":
        total = UniPoly()
        for u in orbit.members:
            total = total + UniPoly.monomial(descent_count(u) + 1)
        n = len(orbit.representative)
        p = orbit.peak_count
        expected = UniPoly.monomial(p + 1) * (
            UniPoly.one() + UniPoly.monomial(1)
        ) ** (n - 1 - 2 * p)
        if total != expected:
            raise ConsistencyError(
                f"orbit of {orbit.representative} has descent polynomial "
                f"{total}, expected {expected}"
            )
        return total
    if mode == "bivariate":
        out: dict[tuple[int, int], int] = {}
        for u in orbit.members:
            key = (inverse_descent_count(u) + 1, descent_count(u) + 1)
            out[key] = out.get(key, 0) + 1
        return BiPoly.from_dict(out)
    raise ValueError("mode must be 'univariate' or 'bivariate'")


def orbit_census(n: int, force: bool = False) -> dict[int, int]:
    """Count hop classes of S_n by peak count, one class member each.

    Every class has exactly one member with no double descents (Branden
    2008): hops keep the peaks and move each free letter between the two
    slopes of its valley, so exactly one choice puts every free letter on
    an ascending slope. One stream over S_n counts those members by peak
    count and builds no class; perm.census_kernel tells those members
    apart and counts their peaks.

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


# ---------------------------------------------------------------------------
# factored display forms


def factored_univariate(orbit: Orbit) -> str:
    """The asserted shape t**(peaks+1) (1+t)**(n-1-2 peaks) as text."""
    n = len(orbit.representative)
    p = orbit.peak_count
    return _factored_text([("t", p + 1), ("(1+t)", n - 1 - 2 * p)], sep="")


def factored_bivariate(p: BiPoly) -> str | None:
    """Factor p as s^a t^b (1+s)^c (1+t)^d (1+st)^e if possible, else None.

    Orbit generating functions observed so far always factor this way, but
    nothing guarantees it, so callers must tolerate None.
    """
    if p.is_zero():
        return None
    a = min(s_exp for s_exp, _, _ in p.terms)
    b = min(t_exp for _, t_exp, _ in p.terms)
    rest = BiPoly(tuple((s_exp - a, t_exp - b, c) for s_exp, t_exp, c in p.terms))
    counts = []
    for name, base in (
        ("(1+s)", BiPoly.one() + BiPoly.monomial(1, 0)),
        ("(1+t)", BiPoly.one() + BiPoly.monomial(0, 1)),
        ("(1+st)", BiPoly.one() + BiPoly.monomial(1, 1)),
    ):
        count = 0
        while True:
            quotient = rest.divide_exact(base)
            if quotient is None:
                break
            rest = quotient
            count += 1
        counts.append((name, count))
    if rest != BiPoly.one():
        return None
    return _factored_text([("s", a), ("t", b)] + counts)


def _factored_text(factors: list[tuple[str, int]], sep: str = " ") -> str:
    parts = []
    for name, exp in factors:
        if exp == 0:
            continue
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return sep.join(parts) if parts else "1"
