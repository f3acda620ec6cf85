"""Permutations of {1, ..., n} in one-line notation.

A permutation is a tuple of ints: w[r - 1] is the letter in position r, with
positions and letters both 1-based. The empty-word case n = 0 is excluded
everywhere; statistics below assume n >= 1.

Text form: a compact digit string for n <= 9 ("5624713") and comma-separated
letters otherwise ("10,3,1,2,..."); parsing validates bijectivity.

Descents sit at positions r with w(r) > w(r+1), so a permutation with i - 1
descents has i increasing runs.

Every brute-force route walks S_n here. enumerate_sn streams S_n in
lexicographic order, whole or as one of several contiguous shard blocks,
and returns a Block: an itertools.chain whose words come straight from C,
which can also give the block as runs (prefix, rest, lo, hi). A run's
words share their first n - 7 letters (the whole word below n = 7) and
are itertools.permutations(prefix + rest)[lo:hi]: that iterator keeps the
prefix in place for its first 7! steps while it permutes rest, the other
letters in increasing order, lexicographically. histogram counts one
statistic over S_n block by block, in order and in this process, and
merges the counts exactly. Its kernels (des, the pair (ides, des) and
the peaks of permutations with no double descents) are block kernels:
each takes one shard block and n and works run by run. A tail word is
rest relabelled by a pattern p of range(7), which keeps every comparison
inside the tail, so each statistic is the prefix's part, a comparison or
two across the boundary and a function of p alone (proved above the
kernels). A kernel scans each run's prefix once and adds the tail words in
groups of patterns from its table, built once on first use. One guard
rail, BRUTE_FORCE_GUARD, covers every walk, and SHARD_BUDGET bounds the
blocks of one histogram call: past either, force is required.
"""

from __future__ import annotations

import functools
import itertools
import operator
from bisect import bisect_left
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from math import factorial

from .common import check_budget

Perm = tuple[int, ...]

# 11! is 39.9 million permutations; walking past it needs an explicit override.
BRUTE_FORCE_GUARD = 11

# Shard blocks one histogram call may count, summed over its ns. A block
# shorter than a run counts up to two partial runs, uncached: 10**4 blocks
# of S_11 took 1.0 to 3.9 s by kernel on a 2-vCPU host, one block 0.03 to
# 0.12 s.
SHARD_BUDGET = 10**4

# Runs walk itertools.permutations over their last SUFFIX letters, the tail.
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
    return sum(map(operator.gt, w, w[1:]))


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


def enumerate_sn(n: int, shard: tuple[int, int] | None = None, force: bool = False) -> Block:
    """Stream S_n in lexicographic order, optionally one shard block.

    shard (index, total) selects the permutations of lexicographic rank
    index * n! // total up to (index + 1) * n! // total; concatenating all
    blocks in index order reproduces the full stream. n above the guard
    rail requires force. The Block returned iterates the words and also
    gives the block's runs (see Block.runs).
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
        block = Block(itertools.permutations(range(1, n + 1)))
    else:
        block = Block.from_iterable(
            itertools.islice(itertools.permutations(prefix + rest), lo, hi)
            for prefix, rest, lo, hi in _prefix_runs(n, start, stop)
        )
    block.n, block.start, block.stop = n, start, stop
    return block


class Block(itertools.chain):
    """The words of S_n of lexicographic rank start up to stop, from C.

    runs() gives the same block as runs of words that share a prefix.
    """

    __slots__ = ("n", "start", "stop")

    def runs(self) -> Iterator[tuple[Perm, Perm, int, int]]:
        return _prefix_runs(self.n, self.start, self.stop)


def _prefix_runs(n: int, start: int, stop: int) -> Iterator[tuple[Perm, Perm, int, int]]:
    """The ranks [start, stop) of S_n as runs (prefix, rest, lo, hi).

    A run's words are itertools.permutations(prefix + rest)[lo:hi]: rest is
    the letters missing from prefix in increasing order, and that iterator
    keeps the prefix in place for its first len(rest)! steps, permuting
    rest in lexicographic order. The prefix has n - SUFFIX letters, so the
    tail rest has exactly SUFFIX; below SUFFIX letters the prefix is the
    whole word and rest is empty. Prefixes come in lexicographic order and
    each covers len(rest)! consecutive ranks; only the first and last run
    can be partial.
    """
    k = n - SUFFIX if n >= SUFFIX else n
    run = factorial(n - k)
    first, last = start // run, (stop - 1) // run
    letters = range(1, n + 1)
    prefixes = itertools.islice(itertools.permutations(letters, k), first, last + 1)
    for at, prefix in enumerate(prefixes, start=first):
        rest = tuple(x for x in letters if x not in prefix)
        lo = start - at * run if at == first else 0
        hi = stop - at * run if at == last else run
        yield prefix, rest, lo, hi


# ---------------------------------------------------------------------------
# histograms over S_n
#
# The kernels are brute force's own code: the closed forms in boxes and the
# hop checks count with descent_count and friends, so a slip in one route
# cannot hide in the other.
#
# A run's tail words are permutations(rest)[lo:hi]. permutations orders
# its output by the positions it picks from rest, so the r-th tail word is
# rest[p0], ..., rest[p6] for the r-th lexicographic pattern p of
# range(SUFFIX). rest is increasing, so this keeps every comparison between
# tail letters, and each statistic splits into the prefix's part, the
# comparisons across the boundary and a part of p alone:
# - des(w) = des(prefix) + [z > rest[p0]] + des(p), z being the prefix's
#   last letter; rest[j] < z exactly for j below cut, the number of rest
#   letters under z, so the boundary term is [p0 < cut].
# - x is an inverse descent when x + 1 stands left of x. The prefix stands
#   left of the tail, so it settles every x whose successor it holds, and x
#   in the prefix with x + 1 in the tail is never one. Both in the tail are
#   neighbours rest[j], rest[j + 1], and x + 1 stands left of x exactly when
#   j + 1 stands left of j in p: bit j of ibits(p). The tail adds
#   popcount(ibits(p) & mask), mask marking the neighbours that differ by 1.
# - a double descent is three falls in a row. With y the letter before z,
#   y > z > rest[p0] needs y > z and p0 < cut, z > rest[p0] > rest[p1]
#   needs p0 < cut and p0 > p1, and three tail letters fall when p does.
# Each kernel's table keys every rank, and also groups all 7! ranks by key
# for full runs. Only a block's first and last run can be partial; those
# group their [lo:hi] slice of the keys directly, uncached.


def _groups(table: tuple, lo: int, hi: int):
    """The (key, count) groups of a table's ranks lo..hi."""
    keys, full = table
    return full if hi - lo == len(keys) else Counter(keys[lo:hi]).items()


@functools.cache
def _descent_table() -> tuple:
    """(p0, des(p)) for each SUFFIX-letter pattern p by rank, and its groups."""
    keys = tuple([
        (a, (a > b) + (b > c) + (c > d) + (d > e) + (e > f) + (f > g))
        for a, b, c, d, e, f, g in itertools.permutations(range(SUFFIX))
    ])
    return keys, tuple(Counter(keys).items())


@functools.cache
def _pair_table() -> tuple:
    """(p0, des(p), ibits(p)) by rank, and its groups.

    A pattern is spelled in the powers 2**j of its letters j, which compare
    as the letters do; s is the set read so far, and reading 2**x, bit x of
    s >> 1 says x + 1 stood left of x.
    """
    keys = tuple([
        (
            a.bit_length() - 1,
            (a > b) + (b > c) + (c > d) + (d > e) + (e > f) + (f > g),
            a >> 1 & b | (s := a | b) >> 1 & c | (s := s | c) >> 1 & d
            | (s := s | d) >> 1 & e | (s := s | e) >> 1 & f | (s | f) >> 1 & g,
        )
        for a, b, c, d, e, f, g in itertools.permutations([1 << j for j in range(SUFFIX)])
    ])
    return keys, tuple(Counter(keys).items())


def _ides_groups(groups, mask: int):
    """(p0, des(p), ibits(p)) groups regrouped by (p0, des(p), tail ides)."""
    out = Counter()
    for (first, des, bits), count in groups:
        out[first, des, (bits & mask).bit_count()] += count
    return out.items()


@functools.cache
def _pair_mask_groups(mask: int):
    """Every pattern grouped by (p0, des(p), tail ides) under one of 64 masks."""
    return tuple(_ides_groups(_pair_table()[1], mask))


@functools.cache
def _census_table() -> tuple:
    """By rank, None when p has a double descent a > b > c of its own, else
    (p0, p0 > p1, des(p)); and its groups."""
    keys = tuple([
        None if a > b > c or b > c > d or c > d > e or d > e > f or e > f > g
        else (a, a > b, (a > b) + (b > c) + (c > d) + (d > e) + (e > f) + (f > g))
        for a, b, c, d, e, f, g in itertools.permutations(range(SUFFIX))
    ])
    return keys, tuple(Counter(keys).items())


def descent_kernel(block: Block, n: int) -> Counter:
    """Counts of des(w) over the words w of block, a block of S_n."""
    tally = [0] * n
    for prefix, rest, lo, hi in block.runs():
        des = sum(1 for y, z in zip(prefix, prefix[1:]) if y > z)
        if not rest:
            tally[des] += hi - lo
            continue
        cut = bisect_left(rest, prefix[-1]) if prefix else 0
        for (first, d), count in _groups(_descent_table(), lo, hi):
            tally[des + (first < cut) + d] += count
    return Counter({d: c for d, c in enumerate(tally) if c})


def pair_kernel(block: Block, n: int) -> Counter:
    """Counts of (ides(w), des(w)) over the words w of block, a block of S_n."""
    grid = [[0] * n for _ in range(n)]
    for prefix, rest, lo, hi in block.runs():
        at = {x: r for r, x in enumerate(prefix)}  # a tail letter stands at n
        ides = sum(1 for x in range(1, n) if x + 1 in at and at[x + 1] < at.get(x, n))
        des = sum(1 for y, z in zip(prefix, prefix[1:]) if y > z)
        if not rest:
            grid[ides][des] += hi - lo
            continue
        cut = bisect_left(rest, prefix[-1]) if prefix else 0
        mask = sum((y + 1 == x) << j for j, (y, x) in enumerate(zip(rest, rest[1:])))
        if hi - lo == factorial(SUFFIX):
            groups = _pair_mask_groups(mask)
        else:  # a partial run, regrouped uncached
            groups = _ides_groups(_groups(_pair_table(), lo, hi), mask)
        for (first, d, i), count in groups:
            grid[ides + i][des + (first < cut) + d] += count
    return Counter(
        {(i, d): c for i, row in enumerate(grid) for d, c in enumerate(row) if c}
    )


def census_kernel(block: Block, n: int) -> Counter:
    """Counts of peak counts over the words of block with no double descent.

    Words with a double descent are counted under the key None. With +inf
    sentinels at both ends, the first letter is a double descent exactly
    when w1 > w2, an interior b when a > b > c, and the last letter never.
    With none of them every descent starts at a peak, so the peak count is
    the descent count. The prefix scan starts from the left sentinel,
    n + 1, whose fall into w1 is counted once too many and makes w1 > w2 a
    second fall in a row. A prefix with a double descent puts its whole run
    under None; otherwise the tail words' falls are grouped as above.
    """
    tally = [0] * n
    doubled = 0
    for prefix, rest, lo, hi in block.runs():
        peaks = -1  # the sentinel's fall into w1
        fell = False  # y > z
        z = n + 1  # the sentinel until the prefix has a letter
        for x in prefix:
            if z > x:
                if fell:  # the letter before x falls on both sides
                    peaks = None
                    break
                fell = True
                peaks += 1
            else:
                fell = False
            z = x
        if peaks is None:
            doubled += hi - lo
        elif not rest:
            tally[peaks] += hi - lo
        else:
            cut = bisect_left(rest, z)
            counted = 0
            for key, count in _groups(_census_table(), lo, hi):
                if key is not None:
                    first, falls, d = key
                    into = first < cut  # z > the tail's first letter
                    if not (into and (fell or falls)):
                        tally[peaks + into + d] += count
                        counted += count
            doubled += hi - lo - counted
    counts = Counter({p: c for p, c in enumerate(tally) if c})
    if doubled:
        counts[None] = doubled
    return counts


def histogram(
    ns: list[int],
    kernel: Callable[[Block, int], Counter],
    shards: int = 1,
    force: bool = False,
) -> dict[int, Counter]:
    """Count a statistic over S_n for each n in ns, from shards blocks each.

    kernel(block, n) returns the Counter of its statistic over the words of
    one shard block of S_n, reading the block run by run: each run's prefix
    once, then its tail words in groups of patterns. The blocks count one
    at a time, in order, in this process, and their counts merge exactly,
    so the result does not depend on shards. Past SHARD_BUDGET blocks over
    all of ns, force is required, decided before any block is counted.
    """
    for n in ns:
        check_guard(n, force)
    if shards < 1:
        raise ValueError("shards must be positive")
    check_budget("shard blocks over S_n", len(ns) * shards, SHARD_BUDGET, force)
    out = {}
    for n in ns:
        counts = out[n] = Counter()
        for index in range(shards):
            counts.update(kernel(enumerate_sn(n, shard=(index, shards), force=force), n))
    return out
