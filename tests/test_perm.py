"""Permutation statistics, ranking, and sharded enumeration."""

import itertools
import random
import re
import time
from bisect import bisect_left
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerian_workbench import perm
from eulerian_workbench.common import GuardRailError
from eulerian_workbench.eulerian import (
    brute_force_rows,
    gamma_extract,
    polynomial_from_row,
    table_from_recurrence,
)
from eulerian_workbench.hopping import DOUBLE_DESCENT, PEAK, classify_letters, orbit_census
from eulerian_workbench.perm import (
    BRUTE_FORCE_GUARD,
    Block,
    Perm,
    ascent_count,
    census_kernel,
    check_permutation,
    descent_count,
    descent_kernel,
    enumerate_sn,
    excedance_count,
    format_permutation,
    histogram,
    inverse,
    inverse_descent_count,
    inversion_count,
    pair_kernel,
    parse_permutation,
    run_count,
    statistic_profile,
)
from eulerian_workbench.twosided import brute_force_tables, two_sided_from_recurrence


def test_parse_compact_and_comma_forms():
    assert parse_permutation("35142") == (3, 5, 1, 4, 2)
    assert parse_permutation("10,2,3,4,5,6,7,8,9,1") == (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)
    assert parse_permutation(" 1 ") == (1,)
    assert parse_permutation("1, 2,\t3 ") == (1, 2, 3)
    assert parse_permutation("1," + "0" * 4300 + "2") == (1, 2)


# each malformed text and the end of the one-line error it gets
MALFORMED = {
    "": "empty permutation",
    "132x": "the character at position 4 is not an ASCII digit",
    "122": "letter 2 at position 3 is repeated",
    "13": "the letter at position 2 is above 2",
    "0,1": "the letter at position 1 is below 1",
    "1,1": "letter 1 at position 2 is repeated",
    "1,2,,3": "the part at position 3 is not ASCII digits",
    "1,x,3": "the part at position 2 is not ASCII digits",
    "\u00b213": "the character at position 1 is not an ASCII digit",
    "\u0662\u0661\u0663": "the character at position 1 is not an ASCII digit",
    "1,+2,3": "the part at position 2 is not ASCII digits",
    "1_0,1,2,3,4,5,6,7,8,9": "the part at position 1 is not ASCII digits",
    "1," + "9" * 4301: "the letter at position 2 is above 2",
    "2," + "0" * 4300 + "2": "letter 2 at position 2 is repeated",
}


@pytest.mark.parametrize(
    "bad", MALFORMED, ids=lambda bad: f"{bad[:6]}...{len(bad)}-chars" if len(bad) > 60 else None
)
def test_parse_rejects_malformed_text(bad):
    message = MALFORMED[bad]
    with pytest.raises(ValueError, match=f"^(not a permutation.*: )?{re.escape(message)}$"):
        parse_permutation(bad)


def test_format_switches_to_commas_past_nine_letters():
    assert format_permutation((3, 1, 2)) == "312"
    w = tuple(range(1, 11))
    assert format_permutation(w) == "1,2,3,4,5,6,7,8,9,10"
    assert parse_permutation(format_permutation(w)) == w


@given(st.permutations(list(range(1, 13))))
@settings(max_examples=40, deadline=None)
def test_parse_format_round_trip(letters):
    w = tuple(letters)
    assert parse_permutation(format_permutation(w)) == w


def test_check_rejects_non_bijections():
    with pytest.raises(ValueError, match="letter 2 at position 3 is repeated"):
        check_permutation([1, 2, 2])
    with pytest.raises(ValueError, match="the letter at position 1 is below 1"):
        check_permutation([0, 1])
    with pytest.raises(ValueError, match=r"the letter at position 2 is above 2$"):
        check_permutation([1, 10**4000])
    with pytest.raises(ValueError):
        check_permutation([])


def test_statistics_on_a_worked_word():
    w = (5, 6, 2, 4, 7, 1, 3)
    assert descent_count(w) == 2
    assert ascent_count(w) == 4
    assert run_count(w) == 3
    assert inversion_count(w) == 13
    assert excedance_count(w) == 3
    assert inverse(w) == (6, 3, 7, 4, 1, 2, 5)
    assert inverse_descent_count(w) == 3
    p = statistic_profile(w)
    assert (p.des, p.ides, p.inv, p.asc, p.exc, p.run) == (2, 3, 13, 4, 3, 3)


def test_identity_statistics():
    w = tuple(range(1, 7))
    p = statistic_profile(w)
    assert (p.des, p.ides, p.inv, p.asc, p.exc, p.run) == (0, 0, 0, 5, 0, 1)


def test_reversal_has_all_descents():
    w = tuple(range(7, 0, -1))
    assert descent_count(w) == 6
    assert inversion_count(w) == 21
    assert run_count(w) == 7


def pairwise_inversions(w):
    """The definition: pairs r < q with w(r) > w(q), every pair scanned."""
    return sum(1 for r, q in itertools.combinations(range(len(w)), 2) if w[r] > w[q])


@given(st.integers(1, 40).flatmap(lambda n: st.permutations(range(1, n + 1))))
@settings(max_examples=300, deadline=None)
def test_inversion_count_matches_the_pairwise_definition(letters):
    w = tuple(letters)
    assert inversion_count(w) == pairwise_inversions(w)


def test_inversion_count_of_a_long_reversed_word_is_fast():
    n = 10**5
    start = time.perf_counter()
    assert inversion_count(tuple(range(n, 0, -1))) == n * (n - 1) // 2
    assert time.perf_counter() - start < 2


def test_descents_plus_ascents_cover_positions():
    for w in itertools.permutations(range(1, 6)):
        assert descent_count(w) + ascent_count(w) == 4
        assert run_count(w) == descent_count(w) + 1


def test_inversions_invariant_under_inverse():
    for w in enumerate_sn(6):
        assert inversion_count(w) == inversion_count(inverse(w))


def test_inversions_invariant_under_inverse_larger_random():
    rng = random.Random(20260816)
    for n in (9, 11, 12):
        letters = list(range(1, n + 1))
        for _ in range(25):
            rng.shuffle(letters)
            w = tuple(letters)
            assert inversion_count(w) == inversion_count(inverse(w))
            assert inverse(inverse(w)) == w


def test_equidistribution_over_s5():
    """des, ides, and exc histograms agree; asc mirrors des."""
    des_hist: dict[int, int] = {}
    ides_hist: dict[int, int] = {}
    exc_hist: dict[int, int] = {}
    asc_hist: dict[int, int] = {}
    for w in enumerate_sn(5):
        p = statistic_profile(w)
        des_hist[p.des] = des_hist.get(p.des, 0) + 1
        ides_hist[p.ides] = ides_hist.get(p.ides, 0) + 1
        exc_hist[p.exc] = exc_hist.get(p.exc, 0) + 1
        asc_hist[p.asc] = asc_hist.get(p.asc, 0) + 1
    assert des_hist == ides_hist == exc_hist == asc_hist
    assert des_hist == {0: 1, 1: 26, 2: 66, 3: 26, 4: 1}


def compose_simple_transposition(w: Perm, r: int, side: str) -> Perm:
    """Compose w with the adjacent transposition swapping r and r + 1.

    side "right" applies the transposition first, so positions r and r + 1
    of w swap. side "left" applies it last, so the letters r and r + 1 swap
    wherever they sit.
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


def test_compose_simple_transposition_worked_examples():
    assert compose_simple_transposition((2, 1, 3), 2, "right") == (2, 3, 1)
    assert compose_simple_transposition((2, 1, 3), 2, "left") == (3, 1, 2)


def test_transpositions_move_one_inversion():
    for w in enumerate_sn(5):
        for r in range(1, 5):
            for side in ("left", "right"):
                moved = compose_simple_transposition(w, r, side)
                assert abs(inversion_count(moved) - inversion_count(w)) == 1
                assert compose_simple_transposition(moved, r, side) == w


def test_descents_via_inversions_matches_direct_counts():
    for w in enumerate_sn(6):
        assert descents_via_inversions(w, "right") == descent_count(w)
        assert descents_via_inversions(w, "left") == inverse_descent_count(w)


def test_transposition_index_validation():
    with pytest.raises(ValueError):
        compose_simple_transposition((1, 2, 3), 3, "right")
    with pytest.raises(ValueError):
        compose_simple_transposition((1, 2, 3), 1, "middle")


# ---------------------------------------------------------------------------
# ranking and enumeration


def _rank_of(w):
    """Lexicographic rank within S_n, counting from 0."""
    n = len(w)
    seen = 0
    rank = 0
    fact = factorial(n - 1) if n else 1
    for pos, letter in enumerate(w):
        smaller_used = (seen & ((1 << (letter - 1)) - 1)).bit_count()
        rank += (letter - 1 - smaller_used) * fact
        seen |= 1 << (letter - 1)
        if pos < n - 1:
            fact //= n - 1 - pos
    return rank


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


def test_rank_unrank_round_trip_small():
    for n in (1, 2, 3, 4, 5):
        for rank, w in enumerate(itertools.permutations(range(1, n + 1))):
            assert _rank_of(w) == rank
            assert unrank(n, rank) == w


def test_rank_unrank_round_trip_sparse_large():
    n = 12
    total = factorial(n)
    for rank in (0, 1, total // 7, total // 2, total - 2, total - 1):
        assert _rank_of(unrank(n, rank)) == rank


def test_unrank_range_check():
    with pytest.raises(ValueError):
        unrank(3, 6)
    with pytest.raises(ValueError):
        unrank(3, -1)


def _next_permutation(letters: list[int]) -> bool:
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


def test_next_permutation_walks_lex_order():
    letters = [1, 2, 3]
    seen = [tuple(letters)]
    while _next_permutation(letters):
        seen.append(tuple(letters))
    assert seen == list(itertools.permutations([1, 2, 3]))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_shard_blocks_follow_the_successor_walk(data):
    n = data.draw(st.integers(1, 8), label="n")
    total = data.draw(st.integers(1, 12), label="total")
    index = data.draw(st.integers(0, total - 1), label="index")
    start = index * factorial(n) // total
    stop = (index + 1) * factorial(n) // total
    expected = []
    if start < stop:
        letters = list(unrank(n, start))
        expected.append(tuple(letters))
        while len(expected) < stop - start and _next_permutation(letters):
            expected.append(tuple(letters))
    assert list(enumerate_sn(n, shard=(index, total))) == expected


@pytest.mark.parametrize("n,total", [(9, 5), (9, 7), (10, 3), (10, 13)])
def test_shard_blocks_are_slices_of_the_one_stream_by_rank(n, total):
    # past the successor walk's sizes, every block's first word, last word
    # and count, the late blocks of S_10 included
    fact = factorial(n)
    for index in range(total):
        start = index * fact // total
        stop = (index + 1) * fact // total
        block = enumerate_sn(n, shard=(index, total))
        first = next(block)
        count, last = 1, first
        for count, last in enumerate(block, start=2):
            pass
        assert count == stop - start
        assert first == unrank(n, start)
        assert last == unrank(n, stop - 1)


def _per_word_counts(words):
    """des, (ides, des) and census counts of words, one word at a time."""
    des, pair, census = Counter(), Counter(), Counter()
    for w in words:
        des[descent_count(w)] += 1
        pair[inverse_descent_count(w), descent_count(w)] += 1
        kinds = classify_letters(w)
        census[None if DOUBLE_DESCENT in kinds else kinds.count(PEAK)] += 1
    return des, pair, census


@pytest.mark.parametrize("n", range(1, 10))
def test_kernels_match_per_word_statistics_over_the_whole_of_sn(n):
    # one-letter prefixes from n = 8 on, two at n = 9; below 8 one run, empty prefix
    wanted = _per_word_counts(enumerate_sn(n))
    for kernel, want in zip((descent_kernel, pair_kernel, census_kernel), wanted):
        got = kernel(enumerate_sn(n))
        assert type(got) is Counter
        assert dict(got) == dict(want), kernel.__name__
        with pytest.raises(TypeError):  # n comes from the Block alone, never beside it
            kernel(enumerate_sn(n), n + 1)


def _ibits(w):
    """Bit k set when letter k + 2 stands left of k + 1 in w, from inverse(w)."""
    at = inverse(w)
    return sum((at[k + 1] < at[k]) << k for k in range(len(w) - 1))


@pytest.mark.parametrize("m", range(1, perm.SUFFIX + 1))
def test_tail_tables_match_per_word_statistics_under_every_boundary_key(m):
    # pattern r of range(m), plus one, is word r of permutations(range(1, m + 1)):
    # the one padded 7-letter walk must count these m-letter words exactly
    words = list(itertools.permutations(range(1, m + 1)))
    stats = []
    for w in words:
        kinds = classify_letters(w)
        stats.append((w[0] - 1, descent_count(w), _ibits(w), DOUBLE_DESCENT in kinds[1:],
                      kinds[0] == DOUBLE_DESCENT))
    assert dict(perm._tail_table(m)) == Counter(
        (first, falls, des, bits, inner) for first, des, bits, inner, falls in stats
    )
    assert dict(perm._pair_table(m)) == Counter((first, des, bits) for first, des, bits, *_ in stats)
    for cut in range(m + 1):
        table = perm._descent_run(m, cut)
        assert dict(table) == Counter((first < cut) + des for first, des, *_ in stats), cut
        assert len(table) <= 8
        for fell in (False, True):
            counts, doubled = perm._census_run(m, cut, fell)
            want = Counter(
                None if inner or (first < cut and (fell or falls)) else (first < cut) + des
                for first, des, _, inner, falls in stats
            )
            assert doubled == want.pop(None, 0) and dict(counts) == want, (cut, fell)
        for mask in range(2 ** (m - 1)):
            table = perm._pair_run(m, mask, cut)
            want = Counter(
                ((bits & mask).bit_count(), (first < cut) + des) for first, des, bits, *_ in stats
            )
            assert {(i, d): count for i, d, count in table} == want, (mask, cut)
            assert len(table) <= 64


def _tail_mask(rest):
    return sum((y + 1 == x) << j for j, (y, x) in enumerate(zip(rest, rest[1:])))


def test_table_caches_hold_one_entry_per_tail_size_and_one_per_key_seen():
    kernels = (descent_kernel, pair_kernel, census_kernel)
    tables = (perm._tail_table, perm._pair_table)
    runs = (perm._descent_run, perm._pair_run, perm._census_run)
    for cached in (*tables, *runs):
        cached.cache_clear()
    keys = {cached: set() for cached in runs}
    for n in range(1, 11):
        for kernel in kernels:
            kernel(enumerate_sn(n))
        m = min(n, perm.SUFFIX)
        for prefix, rest in enumerate_sn(n).runs():
            framed = (n + 1, *prefix)  # the census's left sentinel
            cut = bisect_left(rest, prefix[-1]) if prefix else 0
            keys[perm._descent_run].add((m, cut))
            keys[perm._pair_run].add((m, _tail_mask(rest), cut))
            if not any(a > b > c for a, b, c in zip(framed, framed[1:], framed[2:])):
                fell = len(framed) > 1 and framed[-2] > framed[-1]
                keys[perm._census_run].add((m, bisect_left(rest, framed[-1]), fell))
    for cached in tables:
        assert cached.cache_info().currsize == perm.SUFFIX, cached.__name__
    for cached in runs:
        assert cached.cache_info().currsize == len(keys[cached]), cached.__name__
    # below n = 8 one key per m; at m = 7 at most 8 cuts, 16 census keys, 64 masks a cut
    assert len(keys[perm._descent_run]) <= 6 + 8 and len(keys[perm._census_run]) <= 6 + 16
    assert len(keys[perm._pair_run]) <= 6 + 64 * 8


@pytest.mark.parametrize("n", range(1, 10))
def test_runs_of_a_whole_sn_spell_its_stream(n):
    m = min(n, perm.SUFFIX)
    runs = list(enumerate_sn(n).runs())
    assert len(runs) == factorial(n) // factorial(m)
    for prefix, rest in runs:
        assert len(prefix) == n - m and len(rest) == m
        assert rest == tuple(sorted(rest)) and set(prefix + rest) == set(range(1, n + 1))
    spelled = [prefix + tail for prefix, rest in runs for tail in itertools.permutations(rest)]
    assert spelled == list(enumerate_sn(n))


@pytest.mark.parametrize("n,shard", [(1, (0, 3)), (5, (1, 2)), (5, (0, 1)), (8, (0, 7)),
                                     (9, (12, 13))])
def test_a_shard_block_is_no_block_and_no_kernel_counts_it(n, shard):
    block = enumerate_sn(n, shard=shard)
    assert not isinstance(block, Block)
    assert not hasattr(block, "runs")
    for kernel in (descent_kernel, pair_kernel, census_kernel):
        with pytest.raises(AttributeError):
            kernel(enumerate_sn(n, shard=shard))


def test_the_shard_count_the_bench_passes_changes_no_table():
    # bench/workloads.py passes a shard count positionally; the slot is inert
    ns = list(range(1, 9))
    rows = brute_force_rows(ns)
    tables = brute_force_tables(ns)
    for shards in (1, 2, 3, 7, 8, 10**12):
        assert brute_force_rows(ns, shards) == rows
        assert brute_force_tables(ns, shards) == tables


def test_histogram_counts_each_sn_whole_in_one_kernel_call():
    ns = [1, 4, 8, 9]
    calls = []

    def kernel(block):
        calls.append((type(block), block.n))
        return descent_kernel(block)

    counted = histogram(ns, kernel)
    assert calls == [(Block, n) for n in ns]
    assert counted == {n: Counter(map(descent_count, enumerate_sn(n))) for n in ns}


@pytest.mark.parametrize("n", [10, 11])
def test_brute_force_past_verify_matches_the_recurrences_and_gamma(n):
    # verify compares brute force with the recurrences up to n = 9 only
    row = table_from_recurrence(n).row(n)
    array = two_sided_from_recurrence(n)[n - 1]
    for shards in (1, 3):
        assert brute_force_rows([n], shards=shards)[n] == row
        assert brute_force_tables([n], shards=shards)[n] == array
    gammas = gamma_extract(polynomial_from_row(row), n).gammas
    assert orbit_census(n) == {i: g for i, g in enumerate(gammas) if g}


def test_enumeration_matches_itertools():
    assert list(enumerate_sn(4)) == list(itertools.permutations(range(1, 5)))


def test_shards_partition_the_stream():
    n = 6
    full = list(enumerate_sn(n))
    for shards in (1, 2, 3, 4, 7):
        pieces = [list(enumerate_sn(n, shard=(i, shards))) for i in range(shards)]
        assert sum(pieces, []) == full
        sizes = [len(p) for p in pieces]
        assert sum(sizes) == factorial(n)
        # contiguous block split: sizes differ by at most one... not quite,
        # but every block is the slice between consecutive cut points
        cuts = [i * factorial(n) // shards for i in range(shards + 1)]
        assert sizes == [cuts[i + 1] - cuts[i] for i in range(shards)]


def test_shard_validation():
    with pytest.raises(ValueError):
        list(enumerate_sn(4, shard=(2, 2)))
    with pytest.raises(ValueError):
        list(enumerate_sn(4, shard=(-1, 2)))


def test_full_stream_guard_rail():
    big = BRUTE_FORCE_GUARD + 1
    with pytest.raises(GuardRailError):
        enumerate_sn(big)
    with pytest.raises(GuardRailError):
        enumerate_sn(big, shard=(0, factorial(big) // 24))
    # forced access stays allowed; take a slim shard only
    stream = enumerate_sn(big, shard=(0, factorial(big) // 24), force=True)
    assert len(list(stream)) == 24
    forced = enumerate_sn(big, force=True)
    assert next(iter(forced)) == tuple(range(1, big + 1))
