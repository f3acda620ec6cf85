"""Eulerian numbers by independent routes, plus gamma-basis extraction.

A(n, i) counts permutations of {1, ..., n} with exactly i - 1 descents,
equivalently i increasing runs, for 1 <= i <= n. Routes implemented here:

- brute force: count descents over S_n on the shared walk in perm;
- the two-term recurrence
  A(n, i) = i * A(n - 1, i) + (n + 1 - i) * A(n - 1, i - 1), as a
  generator of rows in the number type of the row it starts from;
- the power-sum series: A_n(t) / (1 - t)**(n + 1) has t**k coefficient k**n;
- the Worpitzky identity k**n = sum_i A(n, i) * binomial(k + n - i, n);
- the derivative recurrence
  A_n(t) = n t A_{n-1}(t) + t (1 - t) A'_{n-1}(t).

The checks take the rows they check, so a caller builds its table once.
Each returns None or raises ConsistencyError at its first mismatch, its
message naming n; power_sum_window is the one series window, for the check
and the CLI alike.

The Eulerian polynomial A_n(t) = sum_i A(n, i) t**i has zero constant term
and degree n, and its coefficient row is palindromic, so it expands in the
basis t**i (1 + t)**(n + 1 - 2i); gamma_extract peels that expansion off in
integers and demands a zero residual.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice
from math import factorial

from .common import ConsistencyError
from .exactnum import UniPoly, binomial, binomial_row, geometric_power_window, series_product
# bench/test_bench.py reads eulerian.enumerate_sn, so the name stays bound here.
from .perm import descent_kernel, enumerate_sn, histogram  # noqa: F401

# bench/spans.py swaps its process-counting pool in under this name and puts
# it back afterwards; no code here starts a pool.
ProcessPoolExecutor = None


@dataclass(frozen=True)
class EulerianTable:
    """Rows 1..n_max of the Eulerian triangle; row(n)[i - 1] is A(n, i)."""

    n_max: int
    rows: tuple[tuple[int, ...], ...]

    def row(self, n: int) -> tuple[int, ...]:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"row {n} not in table")
        return self.rows[n - 1]


def brute_force_rows(
    ns: list[int], shards: int = 1, force: bool = False
) -> dict[int, tuple[int, ...]]:
    """Brute-force descent histograms for several n, in one histogram call.

    shards is ignored: each S_n is counted whole. The slot stays because
    bench/workloads.py passes a shard count positionally.
    """
    counts = histogram(ns, descent_kernel, force)
    return {n: tuple(counts[n][d] for d in range(n)) for n in ns}


def table_brute_force(n: int, force: bool = False) -> tuple[int, ...]:
    """Row n of the triangle by enumerating S_n and counting descents."""
    return brute_force_rows([n], force=force)[n]


def recurrence_rows(row: tuple) -> Iterator[tuple]:
    """Rows n + 1, n + 2, ... of the triangle from row n, which must be
    palindromic, each in the number type of row's entries.

    A(n, i) = i A(n - 1, i) + (n + 1 - i) A(n - 1, i - 1) is computed for
    i <= ceil(n / 2) only, and the row is that half followed by its mirror,
    A(n, i) = A(n, n + 1 - i), each mirrored entry the same object. On a
    palindromic row n - 1 the map i -> n + 1 - i swaps the recurrence's two
    terms, so a mirrored entry is the same sum of the same numbers as the
    one computed, and each row yielded is palindromic in turn. Decimal
    rows are exact only under a context whose precision exceeds their
    digits: the default 28 digits round row 28 on.

    >>> from itertools import islice
    >>> list(islice(recurrence_rows((1,)), 3))
    [(1, 1), (1, 4, 1), (1, 11, 11, 1)]
    """
    prev = tuple(row)
    n = len(prev)
    while True:
        n += 1
        # A(n - 1, i) and A(n - 1, i - 1) side by side, 0 before the start
        half = [
            i * a + ri * b
            for i, ri, a, b in zip(range(1, (n + 1) // 2 + 1), range(n, 0, -1), prev, (0,) + prev)
        ]
        prev = tuple(half + half[n // 2 - 1 :: -1])
        yield prev


def table_from_recurrence(n_max: int, one=1) -> EulerianTable:
    """Rows 1..n_max from the two-term recurrence: row 1, (one,), and the
    first n_max - 1 rows recurrence_rows builds from it, in one's number
    type; exact integers by default."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    first = (one,)
    return EulerianTable(n_max, (first, *islice(recurrence_rows(first), n_max - 1)))


def check_row_sum(n: int, row: tuple[int, ...]) -> None:
    """Raise ConsistencyError unless row n of the triangle sums to n!."""
    if sum(row) != factorial(n):
        raise ConsistencyError(f"row {n} does not sum to {n}!")


def check_row_symmetry(n: int, row: tuple[int, ...]) -> None:
    """Raise ConsistencyError unless row n of the triangle is palindromic."""
    if row != row[::-1]:
        raise ConsistencyError(f"row {n} is not palindromic")


def polynomial_from_row(row: tuple[int, ...]) -> UniPoly:
    """A_n(t) for row n of the triangle: zero constant term, degree n."""
    return UniPoly.from_coeffs((0,) + row)


def eulerian_polynomial(n: int) -> UniPoly:
    """A_n(t) from the recurrence."""
    return polynomial_from_row(table_from_recurrence(n).row(n))


def power_sum_window(row: tuple[int, ...], terms: int) -> tuple[int, ...]:
    """Coefficients 0..terms of A_n(t) / (1 - t)**(n + 1), n = len(row).

    >>> power_sum_window((1, 4, 1), 4)
    (0, 1, 8, 27, 64)
    """
    n = len(row)
    window = geometric_power_window(n + 1, terms)
    return series_product(polynomial_from_row(row), window).coeffs


def check_power_sum_window(n: int, window: tuple[int, ...]) -> None:
    """Check that a power-sum window of row n reads 0**n, 1**n, 2**n, ...

    Coefficient k must equal k**n; the first mismatch raises
    ConsistencyError.
    """
    for k, value in enumerate(window):
        if value != k**n:
            raise ConsistencyError(f"n={n}: coefficient {k} is {value}, expected {k**n}")


def verify_power_sum_series(row: tuple[int, ...], terms: int) -> None:
    """Check row n's power-sum window, coefficients 0..terms, against k**n
    with check_power_sum_window."""
    check_power_sum_window(len(row), power_sum_window(row, terms))


def worpitzky_identity(n: int, k: int, row: tuple[int, ...] | None = None) -> int:
    """k**n as sum_i A(n, i) binomial(k + n - i, n); asserted against k**n.

    A mismatch means the supplied (or computed) row is corrupt, so it raises
    ConsistencyError rather than returning quietly.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if row is None:
        row = table_from_recurrence(n).row(n)
    # binomial(k + n - i, n) vanishes for i > k, so only i <= min(n, k) count.
    value = sum(row[i - 1] * binomial(k + n - i, n) for i in range(1, min(n, k) + 1))
    if value != k**n:
        raise ConsistencyError(
            f"Worpitzky sum at n={n}, k={k} gave {value}, expected {k**n}"
        )
    return value


def verify_polynomial_recurrence(prev_row: tuple[int, ...], row: tuple[int, ...]) -> None:
    """Check A_n(t) = n t A_{n-1}(t) + t (1 - t) A'_{n-1}(t) on rows n - 1 and n.

    A mismatch raises ConsistencyError naming the lowest power of t at fault.
    """
    n = len(row)
    if n < 2:
        raise ValueError("the derivative recurrence needs n >= 2")
    if len(prev_row) != n - 1:
        raise ValueError(f"row {len(prev_row)} does not precede row {n}")
    t = UniPoly.monomial(1)
    one = UniPoly.one()
    prev = polynomial_from_row(prev_row)
    rhs = n * t * prev + t * (one - t) * prev.derivative()
    lhs = polynomial_from_row(row)
    if lhs != rhs:
        exp = next(e for e, c in enumerate((lhs - rhs).coeffs) if c)
        raise ConsistencyError(
            f"n={n}: first mismatch at t^{exp}: {lhs.coeff(exp)} vs {rhs.coeff(exp)}"
        )


# ---------------------------------------------------------------------------
# gamma basis


@dataclass(frozen=True)
class GammaVector:
    """Coefficients gamma_i of t**i (1 + t)**(n + 1 - 2i), i = 1..ceil(n/2)."""

    n: int
    gammas: tuple[int, ...]

    @property
    def nonnegative(self) -> bool:
        return all(g >= 0 for g in self.gammas)


def gamma_extract(p: UniPoly, n: int) -> GammaVector:
    """Expand p in the basis t**i (1 + t)**(n + 1 - 2i) by peeling.

    Requires p palindromic about (n + 1) / 2, that is
    coeff(i) == coeff(n + 1 - i) for all i; the basis spans exactly those
    polynomials with zero constant term, so a nonzero final residual also
    raises ValueError. The basis element for i has lowest term t**i, so
    gamma_i is the t**i coefficient of the residual once the elements below
    i are subtracted, in integers: element i is gamma_i times the binomial
    row of n + 1 - 2i shifted up by i, read from exactnum.binomial_row, so
    each residual entry costs one product and one subtraction and each row
    is built once per process, however many n are peeled.

    >>> gamma_extract(eulerian_polynomial(5), 5).gammas
    (1, 22, 16)
    """
    top = n + 1
    if not p.is_palindromic(top):
        raise ValueError(f"polynomial is not palindromic about {top}/2")
    residual = list(p.coeffs) + [0] * (top + 1 - len(p.coeffs))
    gammas = []
    for i in range(1, n // 2 + (n % 2) + 1):
        g = residual[i]
        gammas.append(g)
        if g:
            for at, c in enumerate(binomial_row(top - 2 * i), start=i):
                residual[at] -= g * c
    if any(residual):
        raise ValueError("polynomial is outside the span of the gamma basis")
    return GammaVector(n, tuple(gammas))


def check_unimodality(n: int, row: tuple[int, ...]) -> None:
    """Raise ConsistencyError unless row n rises to its middle entry and
    falls afterwards."""
    peak = (len(row) + 1) // 2
    rising = all(row[i] <= row[i + 1] for i in range(peak - 1))
    falling = all(row[i] >= row[i + 1] for i in range(peak - 1, len(row) - 1))
    if not (rising and falling):
        raise ConsistencyError(f"row {n} is not unimodal")
