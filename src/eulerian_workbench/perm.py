"""Permutations of {1, ..., n} in one-line notation.

A permutation is a tuple of ints: w[r - 1] is the letter in position r, with
positions and letters both 1-based. The empty-word case n = 0 is excluded
everywhere; statistics below assume n >= 1.

Text form: a compact digit string for n <= 9 ("5624713") and comma-separated
letters otherwise ("10,3,1,2,..."); parsing validates bijectivity.

Descents sit at positions r with w(r) > w(r+1), so a permutation with i - 1
descents has i increasing runs.

Every brute-force route walks S_n here. enumerate_sn streams S_n in
lexicographic order, whole or as one of several contiguous shard blocks; a
block is cut into runs that share a fixed prefix of k = max(0, n - 7)
letters. A run is a slice of itertools.permutations over one word, the
prefix followed by the remaining letters in increasing order: that iterator
keeps the word's first k letters in place for its first (n - k)! steps,
permuting the rest in lexicographic order, so every word of the walk comes
straight from C. histogram counts one statistic over S_n block by block, in
a process pool when there is more than one shard, with the workers capped
at the CPUs this process may use, and merges the counts exactly. Its
kernels (des, the pair (ides, des) and the peaks of permutations with no
double descents) are block kernels: each takes one shard block and n, runs
one loop over the block's words, computes each word's statistic from that
word's own letters, tallies it into a list or an n x n grid and returns the
counts. They are module-level, so they pickle by name. One guard rail,
BRUTE_FORCE_GUARD, covers every walk: past it, force is required.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import factorial

from .common import check_budget

Perm = tuple[int, ...]

# 11! is 39.9 million permutations; walking past it needs an explicit override.
BRUTE_FORCE_GUARD = 11

# Shard blocks run through itertools.permutations on the last SUFFIX letters.
SUFFIX = 7


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


# ---------------------------------------------------------------------------
# lexicographic enumeration


def check_guard(n: int, force: bool) -> None:
    """Refuse a walk over S_n past the guard rail unless forced."""
    if n < 1:
        raise ValueError("n must be at least 1")
    check_budget("n for a walk over S_n", n, BRUTE_FORCE_GUARD, force)


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


def enumerate_sn(n: int, shard: tuple[int, int] | None = None, force: bool = False) -> Iterator[Perm]:
    """Stream S_n in lexicographic order, optionally one shard block.

    shard (index, total) selects the permutations of lexicographic rank
    index * n! // total up to (index + 1) * n! // total; concatenating all
    blocks in index order reproduces the full stream. n above the guard
    rail requires force.
    """
    check_guard(n, force)
    if shard is None:
        shard = (0, 1)
    index, total = shard
    if total < 1 or not 0 <= index < total:
        raise ValueError(f"bad shard {shard}")
    fact = factorial(n)
    start = index * fact // total
    stop = (index + 1) * fact // total
    if start == 0 and stop == fact:
        return itertools.permutations(range(1, n + 1))
    return itertools.chain.from_iterable(_prefix_runs(n, start, stop))


def _prefix_runs(n: int, start: int, stop: int) -> Iterator[Iterator[Perm]]:
    """The block of ranks [start, stop) as runs that share a prefix.

    Prefixes of k letters come in lexicographic order, and each covers
    (n - k)! consecutive ranks; only the first and last run can be partial.
    A run is the first (n - k)! permutations of the prefix followed by the
    sorted remaining letters, cut to the ranks in the block.
    """
    k = max(0, n - SUFFIX)
    run = factorial(n - k)
    first, last = start // run, (stop - 1) // run
    letters = range(1, n + 1)
    prefixes = itertools.islice(itertools.permutations(letters, k), first, last + 1)
    for at, prefix in enumerate(prefixes, start=first):
        word = prefix + tuple(x for x in letters if x not in prefix)
        lo = start - at * run if at == first else 0
        hi = stop - at * run if at == last else run
        yield itertools.islice(itertools.permutations(word), lo, hi)


# ---------------------------------------------------------------------------
# histograms over S_n
#
# The kernels are brute force's own code: the closed forms in boxes and the
# hop checks count with descent_count and friends, so a slip in one route
# cannot hide in the other.


def descent_kernel(block: Iterable[Perm], n: int) -> Counter:
    """Counts of des(w) over the words w of block, a block of S_n."""
    tally = [0] * n
    for w in block:
        des = 0
        prev = w[0]
        for x in w:
            if prev > x:
                des += 1
            prev = x
        tally[des] += 1
    return Counter({d: c for d, c in enumerate(tally) if c})


def pair_kernel(block: Iterable[Perm], n: int) -> Counter:
    """Counts of (ides(w), des(w)) over the words w of block, a block of S_n.

    One pass per word: x is an inverse descent exactly when x + 1 stands
    left of x, that is when x + 1 has already been seen.
    """
    grid = [[0] * n for _ in range(n)]
    blank = [False] * (n + 2)  # seen[n + 1] stays False: n has no successor
    for w in block:
        seen = blank[:]
        ides = des = prev = 0
        for x in w:
            if seen[x + 1]:
                ides += 1
            if prev > x:
                des += 1
            seen[x] = True
            prev = x
        grid[ides][des] += 1
    return Counter(
        {(i, d): c for i, row in enumerate(grid) for d, c in enumerate(row) if c}
    )


def census_kernel(block: Iterable[Perm], n: int) -> Counter:
    """Counts of peak counts over the words of block with no double descent.

    Words with a double descent are counted under the key None. With +inf
    sentinels at both ends, the first letter is a double descent exactly
    when w1 > w2, an interior b when a > b > c, and the last letter never.
    With none of them every descent starts at a peak, so the peak count is
    the descent count. The walk starts from the left sentinel, n + 1, whose
    fall into w1 is counted once too many and makes w1 > w2 a second fall
    in a row.
    """
    tally = [0] * n
    doubled = 0
    for w in block:
        peaks = -1  # the sentinel's fall into w1
        fell = False
        prev = n + 1
        for x in w:
            if prev > x:
                if fell:  # the letter before x falls on both sides
                    doubled += 1
                    break
                fell = True
                peaks += 1
            else:
                fell = False
            prev = x
        else:
            tally[peaks] += 1
    counts = Counter({p: c for p, c in enumerate(tally) if c})
    if doubled:
        counts[None] = doubled
    return counts


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS keeps one.

    os.cpu_count() counts the host's CPUs even when taskset or a cpuset
    confines the process to fewer.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def histogram(
    ns: list[int],
    kernel: Callable[[Iterable[Perm], int], Counter],
    shards: int = 1,
    force: bool = False,
    pool: Callable[..., ProcessPoolExecutor] = ProcessPoolExecutor,
) -> dict[int, Counter]:
    """Count a statistic over S_n for each n in ns, from shards blocks each.

    kernel(block, n) returns the Counter of its statistic over the words of
    one shard block of S_n (see _count_block). One shard counts in this
    process; more run in pool(max_workers=...), with the workers capped at
    usable_cpus(), so the shard count fixes the blocks but not the number
    of processes. Counts merge exactly, so the result does not depend on
    shards.
    """
    for n in ns:
        check_guard(n, force)
    if shards < 1:
        raise ValueError("shards must be positive")
    tasks = [(kernel, n, index, shards, force) for n in ns for index in range(shards)]
    if shards == 1:
        counts = list(map(_count_block, tasks))
    else:
        with pool(max_workers=min(shards, usable_cpus())) as workers:
            counts = list(workers.map(_count_block, tasks))
    return {
        n: sum(counts[at * shards : (at + 1) * shards], Counter())
        for at, n in enumerate(ns)
    }


def _count_block(task: tuple) -> Counter:
    """The kernel's counts over one shard block of S_n, walked by enumerate_sn."""
    kernel, n, index, total, force = task
    return kernel(enumerate_sn(n, shard=(index, total), force=force), n)
