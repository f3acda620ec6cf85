"""Two-sided Eulerian numbers and the Gessel-basis expansion.

A(n, i, j) counts permutations of {1, ..., n} with i - 1 inverse descents
and j - 1 descents. Routes implemented here:

- brute force over S_n histogramming both statistics on the shared walk
  in perm;
- a four-term recurrence producing n * A(n, i, j) from array n - 1, as a
  generator of arrays, computed on a quarter of each array
  (i <= j <= n + 1 - i) with the divisibility by n asserted on every entry
  computed, the rest mirrored by the symmetries below, each mirrored entry
  the same sum of the same integers;
- the grid series: A_n(s, t) / ((1 - s)**(n+1) (1 - t)**(n+1)) has
  s**k t**l coefficient binomial(k l + n - 1, n);
- the two-sided Worpitzky identity
  binomial(k l + n - 1, n)
      = sum_{i,j} A(n, i, j) binomial(k + n - i, n) binomial(l + n - j, n);
- the bivariate derivative recurrence for n A_n(s, t) from A_{n-1}(s, t).

The checks take the arrays they check, so a caller builds its tables once.
Each returns None or raises ConsistencyError at its first mismatch, its
message naming n; grid_window is the one grid series window, for the check
and the CLI alike.

The distribution is symmetric in the two statistics and palindromic under
(i, j) -> (n + 1 - i, n + 1 - j). Any polynomial with those symmetries
expands uniquely in the basis

    (s t)**i (s + t)**j (1 + s t)**(n + 1 - j - 2 i),  i >= 1, j >= 0,
    2 i + j <= n + 1,

and gessel_solve finds that expansion by a triangular peel in integers. The
verdict under test is that every coefficient is nonnegative for A_n(s, t),
Gessel's conjecture, proved by Z. Lin (Electron. J. Combin. 23, 2016).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import count, islice
from math import factorial

from .common import ConsistencyError
from .exactnum import (
    BiPoly,
    UniPoly,
    binomial,
    binomial_row,
    geometric_power_window,
    series_product_bivariate,
)
from .perm import histogram, pair_kernel

# bench/spans.py swaps its process-counting pool in under this name and puts
# it back afterwards; no code here starts a pool.
ProcessPoolExecutor = None


@dataclass(frozen=True)
class TwoSidedTable:
    """The n-by-n array for one n; entry(i, j) is A(n, i, j), 1-based."""

    n: int
    entries: tuple[tuple[int, ...], ...]

    def entry(self, i: int, j: int) -> int:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            return 0
        return self.entries[i - 1][j - 1]

    def total(self) -> int:
        return sum(sum(row) for row in self.entries)

    def row_marginal(self) -> tuple[int, ...]:
        """Marginal over j: counts by inverse descents alone."""
        return tuple(sum(row) for row in self.entries)

    def column_marginal(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.entries))


def brute_force_tables(
    ns: list[int], shards: int = 1, force: bool = False
) -> dict[int, TwoSidedTable]:
    """Brute-force (ides, des) histograms for several n, in one histogram call.

    shards is ignored: each S_n is counted whole. The slot stays because
    bench/workloads.py passes a shard count positionally.
    """
    counts = histogram(ns, pair_kernel, force)
    return {
        n: TwoSidedTable(
            n, tuple(tuple(counts[n][i, j] for j in range(n)) for i in range(n))
        )
        for n in ns
    }


def two_sided_brute_force(n: int, force: bool = False) -> TwoSidedTable:
    return brute_force_tables([n], force=force)[n]


def recurrence_arrays(table: TwoSidedTable) -> Iterator[TwoSidedTable]:
    """Arrays n + 1, n + 2, ... from array n, which must be symmetric under
    transpose and the antipode.

    n A(n, i, j) = (i j + n - 1) A(n - 1, i, j)
                 + (j (n + 1 - i) - n + 1) A(n - 1, i - 1, j)
                 + (i (n + 1 - j) - n + 1) A(n - 1, i, j - 1)
                 + ((n + 1 - i) (n + 1 - j) + n - 1) A(n - 1, i - 1, j - 1),

    read off the top ceil(n / 2) rows of the array before, framed in zeros
    (a[i][j] is A(n - 1, i, j), 0 outside 1..n - 1). Only the fundamental
    domain i <= j <= n + 1 - i, in rows i <= ceil(n / 2), is computed, each
    sum checked for divisibility by n on its own, and a failure raises
    ConsistencyError, since it can only come from a broken array. The rest
    is mirrored from it in the same pass, each mirrored entry the same int
    object:

    - j < i is column i of the earlier rows (transpose, A(i, j) = A(j, i));
    - j > n + 1 - i is column n + 1 - i of the earlier rows read in
      reverse (A(i, j) = A(n + 1 - j, n + 1 - i), antipode and transpose);
    - row n + 1 - i is row i reversed (antipode).

    On a symmetric array before it no check loses a value it could catch: a
    mirrored entry's sum is the same sum of the same integers as its
    computed image. Transpose swaps the cu and cl coefficient progressions
    together with their neighbours A(n - 1, i - 1, j) and A(n - 1, i, j - 1),
    and fixes the other two terms; the antipode (i, j) -> (n + 1 - i,
    n + 1 - j) swaps ch with cc and cu with cl, together with their
    neighbours. Each array yielded is symmetric in turn.

    >>> [t.entries for t in islice(recurrence_arrays(TwoSidedTable(1, ((1,),))), 2)]
    [((1, 0), (0, 1)), ((1, 0, 0), (0, 4, 0), (0, 0, 1))]
    """
    prev = table.entries
    for n in count(table.n + 1):
        m = n - 1
        half = (n + 1) // 2
        zero = (0,) * (n + 1)
        a = [zero] + [(0,) + row + (0,) for row in prev[:half]]
        grid = []
        for i in range(1, half + 1):
            up, here = a[i - 1], a[i]
            ri = n + 1 - i
            row = [r[i - 1] for r in grid]  # j < i, by transpose
            # the four coefficients, each an arithmetic progression in j = i..ri
            for j, h, u, left, corner, ch, cu, cl, cc in zip(
                range(i, ri + 1), here[i:], up[i:], here[i - 1 :], up[i - 1 :],
                range(i * i + m, i * (ri + 1) + m, i),  # i j + m
                range(ri * i - m, ri * (ri + 1) - m, ri),  # j (n + 1 - i) - m
                range(i * ri - m, i * (i - 1) - m, -i),  # i (n + 1 - j) - m
                range(ri * ri + m, ri * (i - 1) + m, -ri),  # (n + 1 - i) (n + 1 - j) + m
            ):
                total = ch * h + cu * u + cl * left + cc * corner
                q, r = divmod(total, n)
                if r:
                    raise ConsistencyError(
                        f"recurrence sum {total} at (n={n}, i={i}, j={j}) "
                        f"is not divisible by {n}"
                    )
                row.append(q)
            row += [r[ri - 1] for r in reversed(grid)]  # j > ri, by the antipode and transpose
            grid.append(tuple(row))
        grid += [row[::-1] for row in reversed(grid[: n // 2])]
        prev = tuple(grid)
        yield TwoSidedTable(n, prev)


def two_sided_from_recurrence(n_max: int) -> list[TwoSidedTable]:
    """Arrays 1..n_max from the four-term recurrence: array 1 and the first
    n_max - 1 arrays recurrence_arrays builds from it. Array 1 is symmetric,
    so every step starts from a symmetric array."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    first = TwoSidedTable(1, ((1,),))
    return [first, *islice(recurrence_arrays(first), n_max - 1)]


def check_array_sums(table: TwoSidedTable, row: tuple[int, ...]) -> None:
    """Raise ConsistencyError unless array n totals n! and both of its
    marginals equal row, which the caller passes in as row n of the
    one-sided triangle."""
    n = table.n
    if table.total() != factorial(n):
        raise ConsistencyError(f"array {n} does not total {n}!")
    if table.row_marginal() != row or table.column_marginal() != row:
        raise ConsistencyError(f"the marginals of array {n} are not row {n} of the triangle")


def polynomial_from_table(table: TwoSidedTable) -> BiPoly:
    """A(n, i, j) as the coefficient of s**i t**j; the entries, read row by
    row, come in the sorted exponent order BiPoly keeps."""
    return BiPoly(tuple(
        (i, j, c)
        for i, row in enumerate(table.entries, start=1)
        for j, c in enumerate(row, start=1)
        if c
    ))


def two_sided_polynomial(n: int) -> BiPoly:
    """A_n(s, t) from the recurrence, s tracking inverse descents and t descents."""
    return polynomial_from_table(two_sided_from_recurrence(n)[n - 1])


def grid_window(table: TwoSidedTable, terms: int) -> tuple[tuple[int, ...], ...]:
    """Entries (k, l), k, l <= terms, of A_n(s, t) / ((1-s)(1-t))**(n+1).

    >>> grid_window(TwoSidedTable(2, ((1, 0), (0, 1))), 2)
    ((0, 0, 0), (0, 1, 3), (0, 3, 10))
    """
    window = geometric_power_window(table.n + 1, terms)
    return series_product_bivariate(polynomial_from_table(table), window, window).coeffs


def check_grid_window(n: int, grid: tuple[tuple[int, ...], ...]) -> None:
    """Check a grid window of array n.

    Entry (k, l) must equal binomial(k l + n - 1, n); the first mismatch
    raises ConsistencyError.
    """
    for k, row in enumerate(grid):
        for l, value in enumerate(row):
            expected = binomial(k * l + n - 1, n)
            if value != expected:
                raise ConsistencyError(f"n={n}: entry ({k},{l}) is {value}, expected {expected}")


def verify_grid_series(table: TwoSidedTable, terms: int) -> None:
    """Check the grid window of the table's array, entries (k, l) for
    k, l <= terms, with check_grid_window."""
    check_grid_window(table.n, grid_window(table, terms))


def worpitzky_grid_identity(
    n: int, k: int, l: int, table: TwoSidedTable | None = None
) -> int:
    """binomial(k l + n - 1, n) as the double Worpitzky sum; asserted."""
    if k < 0 or l < 0:
        raise ValueError("k and l must be nonnegative")
    if table is None:
        table = two_sided_from_recurrence(n)[n - 1]
    # binomial(k + n - i, n) vanishes for i > k, and likewise for j > l.
    value = sum(
        table.entry(i, j) * binomial(k + n - i, n) * binomial(l + n - j, n)
        for i in range(1, min(n, k) + 1)
        for j in range(1, min(n, l) + 1)
    )
    expected = binomial(k * l + n - 1, n)
    if value != expected:
        raise ConsistencyError(
            f"two-sided Worpitzky sum at n={n}, k={k}, l={l} gave {value}, "
            f"expected {expected}"
        )
    return value


def verify_bivariate_recurrence(prev_table: TwoSidedTable, table: TwoSidedTable) -> None:
    """Check the derivative recurrence giving n A_n(s, t) from A_{n-1}.

    A mismatch raises ConsistencyError naming the first term at fault.
    """
    n = table.n
    if n < 2:
        raise ValueError("the derivative recurrence needs n >= 2")
    if prev_table.n != n - 1:
        raise ValueError(f"array {prev_table.n} does not precede array {n}")
    s = BiPoly.monomial(1, 0)
    t = BiPoly.monomial(0, 1)
    one = BiPoly.one()
    st = s * t
    prev = polynomial_from_table(prev_table)
    rhs = (
        (n * n * st + (n - 1) * (one - s) * (one - t)) * prev
        + n * st * (one - s) * prev.partial_derivative("s")
        + n * st * (one - t) * prev.partial_derivative("t")
        + st * (one - s) * (one - t) * prev.partial_derivative("s").partial_derivative("t")
    )
    lhs = n * polynomial_from_table(table)
    if lhs != rhs:
        a, b, _ = (lhs - rhs).terms[0]
        raise ConsistencyError(
            f"n={n}: first mismatch at s^{a} t^{b}: {lhs.coeff(a, b)} vs {rhs.coeff(a, b)}"
        )


def check_symmetries(table: TwoSidedTable) -> None:
    """Raise ConsistencyError unless array n equals its antipodal image and
    its transpose: entry (i, j) equals entry (n + 1 - i, n + 1 - j), so the
    array read row by row is a palindrome, and entry (j, i)."""
    rows = table.entries
    if any(row != other[::-1] for row, other in zip(rows, reversed(rows))):
        raise ConsistencyError(f"array {table.n} is not palindromic")
    if rows != tuple(zip(*rows)):
        raise ConsistencyError(f"array {table.n} is not symmetric under transpose")


@dataclass(frozen=True)
class MonotonicityViolation:
    """A step toward the diagonal that strictly decreases the entry."""

    i: int
    j: int
    value: int
    toward_value: int  # entry (i + 1, j) or (i, j - 1)


def diagonal_monotonicity_probe(table: TwoSidedTable) -> list[MonotonicityViolation]:
    """List off-diagonal entries above i < j <= ceil(n/2) that beat a
    neighbor one step closer to the diagonal.

    An empty list means the array is monotone toward the diagonal in that
    range; the first violations in n appear at n = 8.
    """
    n = table.n
    out = []
    half = (n + 1) // 2
    for i in range(1, half + 1):
        for j in range(i + 1, half + 1):
            value = table.entry(i, j)
            up = table.entry(i + 1, j)
            if up < value:
                out.append(MonotonicityViolation(i, j, value, up))
            down = table.entry(i, j - 1)
            if down < value:
                out.append(MonotonicityViolation(i, j, value, down))
    return out


# ---------------------------------------------------------------------------
# Gessel basis


@dataclass(frozen=True)
class GesselExpansion:
    """Expansion coefficients keyed by (i, j); nonnegative is the verdict."""

    n: int
    gammas: dict[tuple[int, int], int]
    nonnegative: bool


def gessel_basis_indices(n: int) -> list[tuple[int, int]]:
    """All (i, j) with i >= 1, j >= 0, 2i + j <= n + 1, sorted."""
    return [
        (i, j)
        for i in range(1, (n + 1) // 2 + 1)
        for j in range(0, n + 2 - 2 * i)
    ]


def gessel_solve(p: BiPoly, n: int) -> GesselExpansion:
    """Expand p in the Gessel basis by a triangular integer peel.

    Preconditions: p is symmetric under swapping s and t and palindromic
    under the reciprocal at n + 1 (both checked; ValueError otherwise).

    The element for (i, j) has binomial(j, a) binomial(m, c) at
    s**(i+a+c) t**(i+j-a+c), m = n + 1 - j - 2i, so every t exponent in it
    is at least i, and t**i appears only in s**(i+j) t**i, with coefficient
    1. Walking the indices with i ascending, gamma_(i,j) is therefore that
    coefficient of the residual once the earlier elements are subtracted:
    the coefficients come out as integers with no elimination. The peel
    reads the rows of j and m from exactnum.binomial_row, built once per
    process, so subtracting an element costs one product per (a, c) beside
    gamma_(i,j) binomial(j, a), computed once per a. A nonzero
    final residual, meaning p lies outside the span, raises
    ConsistencyError, and so does a rebuild that fails to reproduce p.

    The rebuild shares nothing with the peel's binomials: it forms
    p = sum_j (s + t)**j R_j(s t), R_j(u) = sum_i gamma_ij u**i
    (1 + u)**(n + 1 - j - 2i), from UniPoly and BiPoly products, building
    each power of s + t and of 1 + u once.

    >>> e = gessel_solve(two_sided_polynomial(4), 4)
    >>> e.gammas, e.nonnegative
    ({(1, 0): 1, (2, 0): 7, (2, 1): 1}, True)
    """
    if p != p.swap_vars():
        raise ValueError("polynomial is not symmetric in s and t")
    if p != p.reciprocal(n + 1):
        raise ValueError(f"polynomial is not palindromic about ({n + 1}, {n + 1})")
    size = n + 2
    residual = [[0] * size for _ in range(size)]
    for a, b, c in p.terms:
        residual[a][b] = c
    gammas: dict[tuple[int, int], int] = {}
    for i, j in gessel_basis_indices(n):  # i ascending
        g = gammas[(i, j)] = residual[i + j][i]
        if not g:
            continue
        row_m = binomial_row(n + 1 - j - 2 * i)
        for a, ca in enumerate(binomial_row(j)):
            ga, s0, t0 = g * ca, i + a, i + j - a
            for c, cc in enumerate(row_m):
                residual[s0 + c][t0 + c] -= ga * cc
    if any(any(row) for row in residual):
        raise ConsistencyError("polynomial is outside the span of the Gessel basis")
    one_plus_u = [UniPoly.one()]  # (1 + u)**m, m = n + 1 - j - 2i <= n - 1
    for _ in range(n - 1):
        one_plus_u.append(one_plus_u[-1] * UniPoly((1, 1)))
    s_plus_t = BiPoly.monomial(1, 0) + BiPoly.monomial(0, 1)
    power = BiPoly.one()  # (s + t)**j
    rebuilt = BiPoly()
    for j in range(n):
        r = UniPoly()
        for i in range(1, (n + 1 - j) // 2 + 1):
            if gammas[(i, j)]:
                r = r + gammas[(i, j)] * UniPoly.monomial(i) * one_plus_u[n + 1 - j - 2 * i]
        if not r.is_zero():
            rebuilt = rebuilt + power * BiPoly.from_dict({(e, e): c for e, c in enumerate(r.coeffs)})
        power = power * s_plus_t
    if rebuilt != p:
        raise ConsistencyError("basis reconstruction does not match the input")
    nonnegative = all(v >= 0 for v in gammas.values())
    # zero coefficients carry no information; keep the expansion sparse
    gammas = {idx: v for idx, v in gammas.items() if v != 0}
    return GesselExpansion(n, gammas, nonnegative)
