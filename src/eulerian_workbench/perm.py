"""Permutations of {1, ..., n} in one-line notation.

A permutation is a tuple of ints: w[r - 1] is the letter in position r, with
positions and letters both 1-based. The empty-word case n = 0 is excluded
everywhere; statistics below assume n >= 1.

Text form: a compact digit string for n <= 9 ("5624713") and comma-separated
letters otherwise ("10,3,1,2,..."); parsing validates bijectivity.

Descents sit at positions r with w(r) > w(r+1), so a permutation with i - 1
descents has i increasing runs. Full enumeration streams in lexicographic
order and can be split into contiguous shard blocks for parallel counting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Iterator

from .common import GuardRailError

Perm = tuple[int, ...]

# 12! is 479 million permutations; anything past that needs an explicit override.
FULL_STREAM_GUARD = 12


def check_permutation(letters) -> Perm:
    """Validate that letters is a bijection on {1, ..., n}; return it as a tuple."""
    w = tuple(int(x) for x in letters)
    n = len(w)
    if n < 1:
        raise ValueError("permutations here are nonempty")
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {w}")
    return w


def parse_permutation(text: str) -> Perm:
    """Parse the compact or comma-separated text form.

    >>> parse_permutation("312")
    (3, 1, 2)
    >>> parse_permutation("10,3,1,2,4,5,6,7,8,9")[:2]
    (10, 3)
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    if "," in text:
        return check_permutation(int(part) for part in text.split(","))
    if not text.isdigit():
        raise ValueError(f"not a permutation string: {text!r}")
    return check_permutation(int(ch) for ch in text)


def format_permutation(w: Perm) -> str:
    if len(w) <= 9:
        return "".join(str(x) for x in w)
    return ",".join(str(x) for x in w)


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def inverse(w: Perm) -> Perm:
    out = [0] * len(w)
    for pos, letter in enumerate(w, start=1):
        out[letter - 1] = pos
    return tuple(out)


def descent_count(w: Perm) -> int:
    """Number of positions r with w(r) > w(r+1).

    >>> descent_count((5, 6, 2, 4, 7, 1, 3))
    2
    """
    return sum(1 for a, b in zip(w, w[1:]) if a > b)


def ascent_count(w: Perm) -> int:
    return sum(1 for a, b in zip(w, w[1:]) if a < b)


def inversion_count(w: Perm) -> int:
    """Number of pairs r < q with w(r) > w(q). Quadratic scan; fine desk-side."""
    return sum(
        1
        for r in range(len(w))
        for q in range(r + 1, len(w))
        if w[r] > w[q]
    )


def excedance_count(w: Perm) -> int:
    return sum(1 for pos, letter in enumerate(w, start=1) if letter > pos)


def run_count(w: Perm) -> int:
    """Number of maximal increasing runs."""
    runs = 1
    for a, b in zip(w, w[1:]):
        if a > b:
            runs += 1
    return runs


def inverse_descent_count(w: Perm) -> int:
    return descent_count(inverse(w))


@dataclass(frozen=True)
class StatProfile:
    """The six statistics of one permutation."""

    des: int
    ides: int
    inv: int
    asc: int
    exc: int
    run: int


def statistic_profile(w: Perm) -> StatProfile:
    return StatProfile(
        des=descent_count(w),
        ides=inverse_descent_count(w),
        inv=inversion_count(w),
        asc=ascent_count(w),
        exc=excedance_count(w),
        run=run_count(w),
    )


def compose_simple_transposition(w: Perm, r: int, side: str) -> Perm:
    """Compose w with the adjacent transposition swapping r and r + 1.

    side "right" applies the transposition first, so positions r and r + 1
    of w swap. side "left" applies it last, so the letters r and r + 1 swap
    wherever they sit.

    >>> compose_simple_transposition((2, 1, 3), 2, "right")
    (2, 3, 1)
    >>> compose_simple_transposition((2, 1, 3), 2, "left")
    (3, 1, 2)
    """
    n = len(w)
    if not 1 <= r <= n - 1:
        raise ValueError(f"transposition index must be in 1..{n - 1}")
    if side == "right":
        out = list(w)
        out[r - 1], out[r] = out[r], out[r - 1]
        return tuple(out)
    if side == "left":
        swap = {r: r + 1, r + 1: r}
        return tuple(swap.get(x, x) for x in w)
    raise ValueError("side must be 'left' or 'right'")


def descents_via_inversions(w: Perm, side: str = "right") -> int:
    """Count r where composing with the transposition at r lowers inv.

    With side "right" this equals descent_count(w); with side "left" it
    equals descent_count(inverse(w)).
    """
    base = inversion_count(w)
    return sum(
        1
        for r in range(1, len(w))
        if inversion_count(compose_simple_transposition(w, r, side)) < base
    )


# ---------------------------------------------------------------------------
# lexicographic enumeration


def unrank(n: int, rank: int) -> Perm:
    """The permutation of {1, ..., n} at the given lexicographic rank."""
    if not 0 <= rank < factorial(n):
        raise ValueError(f"rank {rank} out of range for n={n}")
    pool = list(range(1, n + 1))
    out = []
    fact = factorial(n - 1)
    for remaining in range(n - 1, -1, -1):
        digit, rank = divmod(rank, fact)
        out.append(pool.pop(digit))
        if remaining:
            fact //= remaining
    return tuple(out)


def next_permutation(letters: list[int]) -> bool:
    """Advance letters to the lexicographic successor in place.

    Returns False when letters is already the last arrangement.
    """
    i = len(letters) - 2
    while i >= 0 and letters[i] >= letters[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(letters) - 1
    while letters[j] <= letters[i]:
        j -= 1
    letters[i], letters[j] = letters[j], letters[i]
    letters[i + 1 :] = reversed(letters[i + 1 :])
    return True


def enumerate_sn(n: int, shard: tuple[int, int] | None = None, force: bool = False) -> Iterator[Perm]:
    """Stream S_n in lexicographic order, optionally one shard block.

    shard (index, total) selects the index-th of total contiguous blocks;
    block sizes differ by at most one and concatenating all blocks in index
    order reproduces the full stream. n above the guard rail requires force.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > FULL_STREAM_GUARD and not force:
        raise GuardRailError(
            f"enumerating S_{n} means {factorial(n)} permutations; "
            f"pass force (--force) to go past n={FULL_STREAM_GUARD}"
        )
    if shard is None:
        return (tuple(w) for w in itertools.permutations(range(1, n + 1)))
    index, total = shard
    if total < 1 or not 0 <= index < total:
        raise ValueError(f"bad shard {shard}")
    fact = factorial(n)
    start = index * fact // total
    stop = (index + 1) * fact // total
    return _shard_stream(n, start, stop)


def _shard_stream(n: int, start: int, stop: int) -> Iterator[Perm]:
    if start >= stop:
        return
    letters = list(unrank(n, start))
    for _ in range(stop - start):
        yield tuple(letters)
        if not next_permutation(letters):
            break
