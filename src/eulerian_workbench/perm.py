"""Permutations of {1, ..., n} in one-line notation.

A permutation is a tuple of ints: w[r - 1] is the letter in position r, with
positions and letters both 1-based. The empty-word case n = 0 is excluded
everywhere; statistics below assume n >= 1.

Text form: a compact digit string for n <= 9 ("5624713") and comma-separated
letters otherwise ("10,3,1,2,..."); parsing validates bijectivity.

Descents sit at positions r with w(r) > w(r+1), so a permutation with i - 1
descents has i increasing runs.

Every brute-force route walks S_n here. enumerate_sn streams S_n in
lexicographic order, straight from C: whole as a Block, which also gives
its runs (prefix, rest), or one shard block, a plain islice of ranks of
that one stream, which is no Block and has no runs. histogram counts one
statistic over each S_n whole, one kernel call per n. A kernel (des, the
pair (ides, des) or the peaks of permutations with no double descents)
takes the Block alone, reads n from it and counts it run by run from
tables cached per tail length, all read off one walk of the tail
patterns, as the comment above the kernels proves; a shard block has
neither n nor runs, so a kernel fails on one rather than count part of
S_n. One guard rail, BRUTE_FORCE_GUARD, covers every walk: past it,
force is required.
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


def enumerate_sn(
    n: int, shard: tuple[int, int] | None = None, force: bool = False
) -> Block | Iterator[Perm]:
    """Stream S_n in lexicographic order, whole or one shard block.

    shard (index, total) selects the permutations of lexicographic rank
    index * n! // total up to (index + 1) * n! // total, an islice of the
    whole stream; concatenating all blocks in index order reproduces it.
    Without shard the whole S_n comes as a Block. n above the guard rail
    requires force.
    """
    check_guard(n, force)
    if shard is None:
        return Block(n)
    index, total = shard
    if total < 1 or not 0 <= index < total:
        raise ValueError(f"bad shard {shard}")
    fact = factorial(n)
    whole = itertools.permutations(range(1, n + 1))
    return itertools.islice(whole, index * fact // total, (index + 1) * fact // total)


class Block(itertools.permutations):
    """The words of the whole of S_n in lexicographic order, from C, with n."""

    __slots__ = ("n",)

    def __new__(cls, n: int) -> Block:
        block = super().__new__(cls, range(1, n + 1))
        block.n = n
        return block

    def runs(self) -> Iterator[tuple[Perm, Perm]]:
        """The runs (prefix, rest) of S_n, prefixes in lexicographic order.

        A run's words are the first len(rest)! of
        itertools.permutations(prefix + rest): rest is the letters missing
        from prefix in increasing order, and that iterator keeps the prefix
        in place for those steps, permuting rest in lexicographic order. The
        prefix has max(n - SUFFIX, 0) letters, so the tail rest has
        min(n, SUFFIX), and each run covers len(rest)! consecutive ranks.
        """
        letters = range(1, self.n + 1)
        for prefix in itertools.permutations(letters, max(self.n - SUFFIX, 0)):
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
# for the pair and (cut, fell) for the census. One table of grouped pattern
# statistics per m serves every kernel, and from it each kernel caches one
# table per (m, key), its counts already shifted by the boundary term, as
# (value, count) pairs with the zero counts dropped, so no pair reaches past
# the tally; the census table also holds the run's double descents. A
# kernel reads n from its Block, scans each run's prefix once and adds the
# run from the table of its key: at most 8 entries, or 64 to the pair grid.
#
# That one table, _tail_table, spells the 7-letter statistics out once, for
# every m: each pattern of range(m) is padded to 7 letters by m, ..., 6 in
# increasing order. The padding stands last and rises from above every
# pattern letter, so it adds no descent, no inverse descent (nor a mask
# bit: mask has m - 1) and no double descent. The census reads it whole;
# des and the pair read its projection _pair_table, with the census's two
# fields summed out, which each of up to 512 (mask, cut) pair tables scans.


@functools.cache
def _tail_table(m: int) -> tuple:
    """(p0, p0 > p1, des(p), ibits(p), inner) over the patterns p of range(m),
    grouped with counts; inner when p has a double descent a > b > c of its
    own.

    A pattern is spelled in the powers 2**j of its letters j, which compare
    as the letters do; s is the set read so far, and reading 2**x, bit x of
    s >> 1 says x + 1 stood left of x.
    """
    pad = itertools.repeat(tuple(1 << j for j in range(m, SUFFIX)))
    patterns = itertools.permutations([1 << j for j in range(m)])
    return tuple(Counter(
        (
            a.bit_length() - 1,
            a > b,
            (a > b) + (b > c) + (c > d) + (d > e) + (e > f) + (f > g),
            a >> 1 & b | (s := a | b) >> 1 & c | (s := s | c) >> 1 & d
            | (s := s | d) >> 1 & e | (s := s | e) >> 1 & f | (s | f) >> 1 & g,
            a > b > c or b > c > d or c > d > e or d > e > f or e > f > g,
        )
        for a, b, c, d, e, f, g in map(operator.add, patterns, pad)
    ).items())


@functools.cache
def _pair_table(m: int) -> tuple:
    """(p0, des(p), ibits(p)) over the patterns p of range(m), grouped with
    counts: _tail_table(m) with p0 > p1 and inner summed out."""
    counts = Counter()
    for (first, _, d, bits, _), count in _tail_table(m):
        counts[first, d, bits] += count
    return tuple(counts.items())


@functools.cache
def _descent_run(m: int, cut: int) -> tuple:
    """([p0 < cut] + des(p), count) over the patterns of range(m), counts
    nonzero: a run's des counts past the prefix when cut tail letters lie
    below z."""
    counts = [0] * (SUFFIX + 1)
    for (first, d, _), count in _pair_table(m):
        counts[(first < cut) + d] += count
    return tuple([(d, c) for d, c in enumerate(counts) if c])


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
def _census_run(m: int, cut: int, fell: bool) -> tuple:
    """(([p0 < cut] + des(p), count) pairs, counts nonzero; the double
    descents) over the patterns of range(m): a run's peak counts past a
    prefix whose last letter z has cut tail letters below it and falls from
    the letter before it when fell."""
    counts = [0] * (SUFFIX + 1)
    doubled = 0
    for (first, falls, d, _, inner), count in _tail_table(m):
        into = first < cut  # z > the tail's first letter
        if inner or into and (fell or falls):
            doubled += count
        else:
            counts[into + d] += count
    return tuple([(d, c) for d, c in enumerate(counts) if c]), doubled


def descent_kernel(block: Block) -> Counter:
    """Counts of des(w) over the words w of block, the whole of S_n."""
    n = block.n
    tally = [0] * n
    m = min(n, SUFFIX)
    for prefix, rest in block.runs():
        des = sum(1 for y, z in zip(prefix, prefix[1:]) if y > z)
        cut = bisect_left(rest, prefix[-1]) if prefix else 0
        for d, count in _descent_run(m, cut):
            tally[des + d] += count
    return Counter({d: c for d, c in enumerate(tally) if c})


def pair_kernel(block: Block) -> Counter:
    """Counts of (ides(w), des(w)) over the words w of block, the whole of S_n."""
    n = block.n
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


def census_kernel(block: Block) -> Counter:
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
    n = block.n
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
    ns: list[int], kernel: Callable[[Block], Counter], force: bool = False
) -> dict[int, Counter]:
    """Count a statistic over S_n for each n in ns, one kernel call per n.

    kernel(block) returns the Counter of its statistic over the words of
    block, the whole of S_n, reading it run by run: each run's prefix once,
    then its tail words as one table of counts. Every n is checked against
    the guard rail before any count.
    """
    for n in ns:
        check_guard(n, force)
    return {n: kernel(enumerate_sn(n, force=force)) for n in ns}
