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
which for a whole S_n can also give its runs (prefix, rest). A run's words
share their first max(n - 7, 0) letters and are the first len(rest)! of
itertools.permutations(prefix + rest): that iterator keeps the prefix in
place for those steps while it permutes rest, the other min(n, 7)
letters in increasing order, lexicographically. histogram counts one statistic over each S_n
whole, one kernel call per n. Its kernels (des, the pair (ides, des) and
the peaks of permutations with no double descents) take the whole of S_n
and n and work run by run. A tail word is rest relabelled by a pattern p
of range(m), m = len(rest), which keeps every comparison inside the tail,
so each statistic is the prefix's part, a comparison or two across the
boundary and a function of p alone (proved above the kernels). The
boundary reads p only through its first letter, against cut, the number
of tail letters below the prefix's last letter; the pair adds the tail
mask of neighbours that differ by 1, and the census whether the prefix
ends in a fall. A run of all m! patterns therefore adds the same counts
for every prefix with one boundary key. A kernel scans each run's prefix
once and adds the run from its cached table for (m, key), a few entries
offset by the prefix's part. One guard rail, BRUTE_FORCE_GUARD, covers
every walk; SHARD_BUDGET bounds the shard count one histogram call
accepts: past either, force is required.
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

# Shard blocks one histogram call accepts, summed over its ns. histogram
# counts each S_n whole, so this only keeps the exit 3 of --shards past it.
SHARD_BUDGET = 10**4

# Runs walk itertools.permutations over their last min(n, SUFFIX) letters,
# the tail.
SUFFIX = 7


def check_permutation(letters) -> Perm:
    """Validate that letters is a bijection on {1, ..., n}; return it as a tuple.

    A word of n letters in 1..n with none repeated misses none, so the error
    names the first letter that is repeated or out of range, by position and
    not by value when out of range (a comma part may run to thousands of
    digits), and never echoes the word.
    """
    w = tuple(int(x) for x in letters)
    n = len(w)
    if n < 1:
        raise ValueError("permutations here are nonempty")
    if sorted(w) != list(range(1, n + 1)):
        head = f"not a permutation of 1..{n}"
        seen = set()
        for pos, letter in enumerate(w, start=1):
            if not 1 <= letter <= n:
                bound = "below 1" if letter < 1 else f"above {n}"
                raise ValueError(f"{head}: the letter at position {pos} is {bound}")
            if letter in seen:
                raise ValueError(f"{head}: letter {letter} at position {pos} is repeated")
            seen.add(letter)
    return w


def parse_permutation(text: str) -> Perm:
    """Parse the compact or comma-separated text form.

    The compact form is ASCII digits, one letter each. A comma part is ASCII
    digits after its surrounding whitespace is stripped. A rejection names
    the bad character's or part's position and never echoes it.

    >>> parse_permutation("312")
    (3, 1, 2)
    >>> parse_permutation("10, 3,1,2,4,5,6,7,8,9")[:2]
    (10, 3)
    >>> parse_permutation("1,+2")
    Traceback (most recent call last):
    ...
    ValueError: not a permutation: the part at position 2 is not ASCII digits
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    if "," not in text:
        for pos, ch in enumerate(text, start=1):
            if not (ch.isascii() and ch.isdigit()):
                raise ValueError(
                    f"not a permutation: the character at position {pos} is not an ASCII digit"
                )
        return check_permutation(int(ch) for ch in text)
    parts = [part.strip() for part in text.split(",")]
    width = len(str(len(parts)))
    letters = []
    for pos, part in enumerate(parts, start=1):
        if not (part and part.isascii() and part.isdigit()):
            raise ValueError(
                f"not a permutation: the part at position {pos} is not ASCII digits"
            )
        # a part with more significant digits than n has is above n, and
        # check_permutation reports n + 1 at its position as such; int() of a
        # part past Python's int-to-str limit would raise instead
        digits = part.lstrip("0")
        letters.append(len(parts) + 1 if len(digits) > width else int(digits or "0"))
    return check_permutation(letters)


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
    """Number of pairs r < q with w(r) > w(q), in O(n log n).

    Scans w from the right, adding for each letter the smaller letters
    already seen; a Fenwick tree over the letters holds those counts.

    >>> inversion_count((5, 6, 2, 4, 7, 1, 3))
    13
    """
    n = len(w)
    tree = [0] * (n + 1)
    inversions = 0
    for letter in reversed(w):
        i = letter - 1
        while i:  # seen letters below letter: prefix sum over 1..letter-1
            inversions += tree[i]
            i &= i - 1
        i = letter
        while i <= n:
            tree[i] += 1
            i += i & -i
    return inversions


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
    rail requires force. The Block returned iterates the words; a whole
    S_n also gives its runs (see Block.runs).
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
    whole = start == 0 and stop == fact
    if whole:
        block = Block(itertools.permutations(range(1, n + 1)))
    else:  # the runs that hold ranks start..stop - 1, each cut to them
        run = factorial(min(n, SUFFIX))
        first = start // run
        block = Block.from_iterable(
            itertools.islice(
                itertools.permutations(prefix + rest), max(start - at, 0), min(stop - at, run)
            )
            for at, (prefix, rest) in zip(range(first * run, stop, run), _prefix_runs(n, first))
        )
    block.n = n if whole else None
    return block


class Block(itertools.chain):
    """The words of S_n of lexicographic rank start up to stop, from C.

    runs() gives a whole S_n as runs of words that share a prefix; n is
    None on a shard block.
    """

    __slots__ = ("n",)

    def runs(self) -> Iterator[tuple[Perm, Perm]]:
        if self.n is None:
            raise ValueError("only a whole S_n splits into runs, not a shard block")
        return _prefix_runs(self.n)


def _prefix_runs(n: int, first: int = 0) -> Iterator[tuple[Perm, Perm]]:
    """The runs (prefix, rest) of S_n from prefix rank first on.

    A run's words are the first len(rest)! of
    itertools.permutations(prefix + rest): rest is the letters missing
    from prefix in increasing order, and that iterator keeps the prefix in
    place for those steps, permuting rest in lexicographic order. The
    prefix has max(n - SUFFIX, 0) letters, so the tail rest has
    min(n, SUFFIX). Prefixes come in lexicographic order and each covers
    len(rest)! consecutive ranks.
    """
    letters = range(1, n + 1)
    prefixes = itertools.permutations(letters, max(n - SUFFIX, 0))
    for prefix in itertools.islice(prefixes, first, None):
        yield prefix, tuple(x for x in letters if x not in prefix)


# ---------------------------------------------------------------------------
# histograms over S_n
#
# The kernels are brute force's own code: the closed forms in boxes and the
# hop checks count with descent_count and friends, so a slip in one route
# cannot hide in the other.
#
# A run's tail words are permutations(rest), m = len(rest) letters.
# permutations orders its output by the positions it picks from rest, so
# the r-th tail word is rest[p0], ..., rest[p(m-1)] for the r-th
# lexicographic pattern p of range(m). rest is increasing, so this keeps
# every comparison between tail letters, and each statistic splits into
# the prefix's part, the comparisons across the boundary and a part of p
# alone:
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
# The boundary terms read p only through [p0 < cut], the pair's also
# through mask and the census's also through fell = [y > z], and the
# prefix's part is an offset. So a run, all m! patterns, adds the same
# counts after every prefix with one boundary key: cut for des, (mask, cut)
# for the pair and (cut, fell) for the census. Each kernel caches one table
# of grouped pattern statistics per m, and from it one table per (m, key),
# its counts already shifted by the boundary term, as (value, count) pairs
# with the zero counts dropped, so no pair reaches past the tally; the
# census table also holds the run's double descents. A run adds at most 8
# entries, or 64 to the pair grid.
#
# The table builders spell the 7-letter statistics out once, for every m:
# each pattern of range(m) is padded to 7 letters by m, ..., 6 in
# increasing order. The padding stands last and rises from above every
# pattern letter, so it adds no descent, no inverse descent (nor a mask
# bit: mask has m - 1) and no double descent.


def _padded_patterns(m: int, letters: list[int]) -> Iterator[tuple]:
    """Each permutation of letters[:m] in lexicographic order, followed by
    letters[m:] as they stand."""
    pad = itertools.repeat(tuple(letters[m:]))
    return map(operator.add, itertools.permutations(letters[:m]), pad)


@functools.cache
def _descent_table(m: int) -> tuple:
    """(p0, des(p)) over the patterns p of range(m), grouped with counts."""
    return tuple(Counter(
        (a, (a > b) + (b > c) + (c > d) + (d > e) + (e > f) + (f > g))
        for a, b, c, d, e, f, g in _padded_patterns(m, list(range(SUFFIX)))
    ).items())


@functools.cache
def _descent_run(m: int, cut: int) -> tuple:
    """([p0 < cut] + des(p), count) over the patterns of range(m), counts
    nonzero: a run's des counts past the prefix when cut tail letters lie
    below z."""
    counts = [0] * (SUFFIX + 1)
    for (first, d), count in _descent_table(m):
        counts[(first < cut) + d] += count
    return tuple([(d, c) for d, c in enumerate(counts) if c])


@functools.cache
def _pair_table(m: int) -> tuple:
    """(p0, des(p), ibits(p)) over the patterns p of range(m), grouped with
    counts.

    A pattern is spelled in the powers 2**j of its letters j, which compare
    as the letters do; s is the set read so far, and reading 2**x, bit x of
    s >> 1 says x + 1 stood left of x.
    """
    return tuple(Counter(
        (
            a.bit_length() - 1,
            (a > b) + (b > c) + (c > d) + (d > e) + (e > f) + (f > g),
            a >> 1 & b | (s := a | b) >> 1 & c | (s := s | c) >> 1 & d
            | (s := s | d) >> 1 & e | (s := s | e) >> 1 & f | (s | f) >> 1 & g,
        )
        for a, b, c, d, e, f, g in _padded_patterns(m, [1 << j for j in range(SUFFIX)])
    ).items())


@functools.cache
def _pair_run(m: int, mask: int, cut: int) -> tuple:
    """(tail ides, [p0 < cut] + des(p), count) over the patterns of range(m),
    counts nonzero: a run's (ides, des) counts past the prefix under one
    boundary key."""
    counts = Counter()
    for (first, d, bits), count in _pair_table(m):
        counts[(bits & mask).bit_count(), (first < cut) + d] += count
    return tuple([(i, d, c) for (i, d), c in counts.items()])


@functools.cache
def _census_table(m: int) -> tuple:
    """Over the patterns p of range(m), None when p has a double descent
    a > b > c of its own, else (p0, p0 > p1, des(p)); grouped with counts."""
    return tuple(Counter(
        None if a > b > c or b > c > d or c > d > e or d > e > f or e > f > g
        else (a, a > b, (a > b) + (b > c) + (c > d) + (d > e) + (e > f) + (f > g))
        for a, b, c, d, e, f, g in _padded_patterns(m, list(range(SUFFIX)))
    ).items())


@functools.cache
def _census_run(m: int, cut: int, fell: bool) -> tuple:
    """(([p0 < cut] + des(p), count) pairs, counts nonzero; the double
    descents) over the patterns of range(m): a run's peak counts past a
    prefix whose last letter z has cut tail letters below it and falls from
    the letter before it when fell."""
    counts = [0] * (SUFFIX + 1)
    doubled = 0
    for key, count in _census_table(m):
        if key is None:
            doubled += count
            continue
        first, falls, d = key
        into = first < cut  # z > the tail's first letter
        if into and (fell or falls):
            doubled += count
        else:
            counts[into + d] += count
    return tuple([(d, c) for d, c in enumerate(counts) if c]), doubled


def descent_kernel(block: Block, n: int) -> Counter:
    """Counts of des(w) over the words w of block, the whole of S_n."""
    tally = [0] * n
    m = min(n, SUFFIX)
    for prefix, rest in block.runs():
        des = sum(1 for y, z in zip(prefix, prefix[1:]) if y > z)
        cut = bisect_left(rest, prefix[-1]) if prefix else 0
        for d, count in _descent_run(m, cut):
            tally[des + d] += count
    return Counter({d: c for d, c in enumerate(tally) if c})


def pair_kernel(block: Block, n: int) -> Counter:
    """Counts of (ides(w), des(w)) over the words w of block, the whole of S_n."""
    grid = [[0] * n for _ in range(n)]
    m = min(n, SUFFIX)
    for prefix, rest in block.runs():
        at = {x: r for r, x in enumerate(prefix)}  # a tail letter stands at n
        ides = sum(1 for x in range(1, n) if x + 1 in at and at[x + 1] < at.get(x, n))
        des = sum(1 for y, z in zip(prefix, prefix[1:]) if y > z)
        cut = bisect_left(rest, prefix[-1]) if prefix else 0
        mask = sum((y + 1 == x) << j for j, (y, x) in enumerate(zip(rest, rest[1:])))
        for i, d, count in _pair_run(m, mask, cut):
            grid[ides + i][des + d] += count
    return Counter({(i, d): c for i, row in enumerate(grid) for d, c in enumerate(row) if c})


def census_kernel(block: Block, n: int) -> Counter:
    """Counts of peak counts over the words of block, the whole of S_n, with
    no double descent.

    Words with a double descent are counted under the key None. With +inf
    sentinels at both ends, the first letter is a double descent exactly
    when w1 > w2, an interior b when a > b > c, and the last letter never.
    With none of them every descent starts at a peak, so the peak count is
    the descent count. The prefix scan starts from the left sentinel,
    n + 1, whose fall into w1 is counted once too many and makes w1 > w2 a
    second fall in a row. A prefix with a double descent puts its whole run
    under None; otherwise the tail words' falls come from the table of the
    boundary key (cut, fell) as above.
    """
    tally = [0] * n
    doubled = 0
    m = min(n, SUFFIX)
    run = factorial(m)
    for prefix, rest in block.runs():
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
            doubled += run
            continue
        counts, tail_doubled = _census_run(m, bisect_left(rest, z), fell)
        for d, count in counts:
            tally[peaks + d] += count
        doubled += tail_doubled
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
    """Count a statistic over S_n for each n in ns, one kernel call per n.

    kernel(block, n) returns the Counter of its statistic over the words of
    the whole of S_n, reading it run by run: each run's prefix once, then
    its tail words as one table of counts. Each S_n is counted whole, so
    shards changes nothing counted: it is only checked, positive, and past
    SHARD_BUDGET blocks over all of ns force is required, decided before
    any count.
    """
    for n in ns:
        check_guard(n, force)
    if shards < 1:
        raise ValueError("shards must be positive")
    check_budget("shard blocks over S_n", len(ns) * shards, SHARD_BUDGET, force)
    return {n: kernel(enumerate_sn(n, force=force), n) for n in ns}
