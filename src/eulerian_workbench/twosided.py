"""Two-sided Eulerian numbers and the Gessel-basis expansion.

A(n, i, j) counts permutations of {1, ..., n} with i - 1 inverse descents
and j - 1 descents. Routes implemented here:

- brute force over S_n (optionally sharded) histogramming both statistics
  on the shared walk in perm;
- a four-term recurrence producing n * A(n, i, j) from row n - 1, with the
  divisibility by n asserted on every entry;
- the grid series: A_n(s, t) / ((1 - s)**(n+1) (1 - t)**(n+1)) has
  s**k t**l coefficient binomial(k l + n - 1, n);
- the two-sided Worpitzky identity
  binomial(k l + n - 1, n)
      = sum_{i,j} A(n, i, j) binomial(k + n - i, n) binomial(l + n - j, n);
- the bivariate derivative recurrence for n A_n(s, t) from A_{n-1}(s, t).

The checks take the arrays they check, so a caller builds its tables once;
grid_window is the one grid series window, for the check and the CLI alike.

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

# bench/spans.py swaps its process-counting pool in under this name, so it
# stays bound here, though no code here starts a pool.
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass

from .common import CheckReport, ConsistencyError
from .exactnum import (
    BiPoly,
    binomial,
    geometric_power_window,
    series_product_bivariate,
)
from .perm import histogram, pair_kernel


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
    """Brute-force (ides, des) histograms for several n, in one histogram call."""
    counts = histogram(ns, pair_kernel, shards, force)
    return {
        n: TwoSidedTable(
            n, tuple(tuple(counts[n][i, j] for j in range(n)) for i in range(n))
        )
        for n in ns
    }


def two_sided_brute_force(n: int, shards: int = 1, force: bool = False) -> TwoSidedTable:
    return brute_force_tables([n], shards=shards, force=force)[n]


def two_sided_from_recurrence(n_max: int) -> list[TwoSidedTable]:
    """Tables for n = 1..n_max from the four-term recurrence.

    Every intermediate sum must be divisible by n; a failure raises
    ConsistencyError because it can only come from a broken table.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    tables = [TwoSidedTable(1, ((1,),))]
    for n in range(2, n_max + 1):
        tables.append(TwoSidedTable(n, _two_sided_step(tables[-1].entries, n)))
    return tables


def _two_sided_step(
    prev: tuple[tuple[int, ...], ...], n: int
) -> tuple[tuple[int, ...], ...]:
    """The array for n from the (n - 1)-by-(n - 1) array before it.

    n A(n, i, j) = (i j + n - 1) A(n - 1, i, j)
                 + (j (n + 1 - i) - n + 1) A(n - 1, i - 1, j)
                 + (i (n + 1 - j) - n + 1) A(n - 1, i, j - 1)
                 + ((n + 1 - i) (n + 1 - j) + n - 1) A(n - 1, i - 1, j - 1),

    read off prev framed in zeros (a[i][j] is A(n - 1, i, j), 0 outside
    1..n - 1). Every entry is computed and its sum checked for divisibility
    by n on its own.
    """
    m = n - 1
    zero = (0,) * (n + 1)
    a = [zero] + [(0,) + row + (0,) for row in prev] + [zero]
    js = range(1, n + 1)
    grid = []
    for i in js:
        up, here = a[i - 1], a[i]
        ri = n + 1 - i
        row = []
        for j, h, left, u, corner in zip(js, here[1:], here, up[1:], up):
            rj = n + 1 - j
            total = (
                (i * j + m) * h
                + (j * ri - m) * u
                + (i * rj - m) * left
                + (ri * rj + m) * corner
            )
            q, r = divmod(total, n)
            if r:
                raise ConsistencyError(
                    f"recurrence sum {total} at (n={n}, i={i}, j={j}) "
                    f"is not divisible by {n}"
                )
            row.append(q)
        grid.append(tuple(row))
    return tuple(grid)


def polynomial_from_table(table: TwoSidedTable) -> BiPoly:
    return BiPoly.from_dict(
        {
            (i, j): table.entry(i, j)
            for i in range(1, table.n + 1)
            for j in range(1, table.n + 1)
        }
    )


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


def verify_grid_series(table: TwoSidedTable, terms: int) -> CheckReport:
    """Check the grid window of the table's array.

    Entry (k, l) must equal binomial(k l + n - 1, n) for k, l <= terms.
    """
    n = table.n
    grid = grid_window(table, terms)
    description = (
        f"A_{n}(s,t)/((1-s)(1-t))^{n + 1} matches binomial(kl+{n - 1},{n}) "
        f"for k,l <= {terms}"
    )
    for k in range(terms + 1):
        for l in range(terms + 1):
            expected = binomial(k * l + n - 1, n)
            if grid[k][l] != expected:
                return CheckReport(
                    False,
                    description,
                    f"entry ({k},{l}) is {grid[k][l]}, expected {expected}",
                )
    return CheckReport(True, description)


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


def verify_bivariate_recurrence(
    prev_table: TwoSidedTable, table: TwoSidedTable
) -> CheckReport:
    """Check the derivative recurrence giving n A_n(s, t) from A_{n-1}."""
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
    description = f"bivariate derivative recurrence reproduces {n} * A_{n}(s,t)"
    if lhs == rhs:
        return CheckReport(True, description)
    diff = lhs - rhs
    a, b, _ = diff.terms[0]
    return CheckReport(
        False,
        description,
        f"first mismatch at s^{a} t^{b}: {lhs.coeff(a, b)} vs {rhs.coeff(a, b)}",
    )


def check_symmetries(table: TwoSidedTable) -> tuple[bool, bool, bool]:
    """(transpose symmetry, antipodal palindromicity, their composition)."""
    n = table.n
    swap = all(
        table.entry(i, j) == table.entry(j, i)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )
    reverse = all(
        table.entry(i, j) == table.entry(n + 1 - i, n + 1 - j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )
    both = all(
        table.entry(i, j) == table.entry(n + 1 - j, n + 1 - i)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )
    return (swap, reverse, both)


@dataclass(frozen=True)
class MonotonicityViolation:
    """A step toward the diagonal that strictly decreases the entry."""

    i: int
    j: int
    step: str  # "raise-i" (i+1, j) or "lower-j" (i, j-1)
    value: int
    toward_value: int


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
                out.append(MonotonicityViolation(i, j, "raise-i", value, up))
            down = table.entry(i, j - 1)
            if down < value:
                out.append(MonotonicityViolation(i, j, "lower-j", value, down))
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


def gessel_basis_element(n: int, i: int, j: int) -> BiPoly:
    """(s t)**i (s + t)**j (1 + s t)**(n + 1 - j - 2i)."""
    st = BiPoly.monomial(1, 1)
    s_plus_t = BiPoly.monomial(1, 0) + BiPoly.monomial(0, 1)
    one_plus_st = BiPoly.one() + BiPoly.monomial(1, 1)
    return st**i * s_plus_t**j * one_plus_st ** (n + 1 - j - 2 * i)


def gessel_solve(p: BiPoly, n: int) -> GesselExpansion:
    """Expand p in the Gessel basis by a triangular integer peel.

    Preconditions: p is symmetric under swapping s and t and palindromic
    under the reciprocal at n + 1 (both checked; ValueError otherwise).

    The element for (i, j) has binomial(j, a) binomial(m, c) at
    s**(i+a+c) t**(i+j-a+c), m = n + 1 - j - 2i, so every t exponent in it
    is at least i, and t**i appears only in s**(i+j) t**i, with coefficient
    1. Walking the indices with i ascending, gamma_(i,j) is therefore that
    coefficient of the residual once the earlier elements are subtracted:
    the coefficients come out as integers with no elimination. A nonzero
    final residual, meaning p lies outside the span, raises
    ConsistencyError, and so does a rebuild from gessel_basis_element
    products that fails to reproduce p.

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
        m = n + 1 - j - 2 * i
        ca = 1  # binomial(j, a)
        for a in range(j + 1):
            cc = g * ca  # g * binomial(j, a) * binomial(m, c)
            for c in range(m + 1):
                residual[i + a + c][i + j - a + c] -= cc
                cc = cc * (m - c) // (c + 1)
            ca = ca * (j - a) // (a + 1)
    if any(any(row) for row in residual):
        raise ConsistencyError("polynomial is outside the span of the Gessel basis")
    rebuilt: dict[tuple[int, int], int] = {}
    for (i, j), g in gammas.items():
        if g:
            for a, b, c in gessel_basis_element(n, i, j).terms:
                rebuilt[(a, b)] = rebuilt.get((a, b), 0) + g * c
    if BiPoly.from_dict(rebuilt) != p:
        raise ConsistencyError("basis reconstruction does not match the input")
    nonnegative = all(v >= 0 for v in gammas.values())
    # zero coefficients carry no information; keep the expansion sparse
    gammas = {idx: v for idx, v in gammas.items() if v != 0}
    return GesselExpansion(n, gammas, nonnegative)


# ---------------------------------------------------------------------------
# JSON schema


def table_to_obj(table: TwoSidedTable) -> dict:
    return {
        "n": str(table.n),
        "A": [[str(c) for c in row] for row in table.entries],
    }
