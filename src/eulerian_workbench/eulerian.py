"""Eulerian numbers by independent routes, plus gamma-basis extraction.

A(n, i) counts permutations of {1, ..., n} with exactly i - 1 descents,
equivalently i increasing runs, for 1 <= i <= n. Routes implemented here:

- brute force: count descents over S_n on the shared walk in perm
  (optionally sharded across processes);
- the two-term recurrence
  A(n, i) = i * A(n - 1, i) + (n + 1 - i) * A(n - 1, i - 1);
- the power-sum series: A_n(t) / (1 - t)**(n + 1) has t**k coefficient k**n;
- the Worpitzky identity k**n = sum_i A(n, i) * binomial(k + n - i, n);
- the derivative recurrence
  A_n(t) = n t A_{n-1}(t) + t (1 - t) A'_{n-1}(t).

The Eulerian polynomial A_n(t) = sum_i A(n, i) t**i has zero constant term
and degree n, and its coefficient row is palindromic, so it expands in the
basis t**i (1 + t)**(n + 1 - 2i); gamma_extract peels that expansion off in
integers and demands a zero residual.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .common import CheckReport, ConsistencyError
from .exactnum import UniPoly, binomial, geometric_power_window, series_product
# bench/test_bench.py reads eulerian.enumerate_sn, so the name stays bound here.
from .perm import descent_kernel, enumerate_sn, histogram  # noqa: F401


@dataclass(frozen=True)
class EulerianTable:
    """Rows 1..n_max of the Eulerian triangle; row(n)[i - 1] is A(n, i)."""

    n_max: int
    rows: tuple[tuple[int, ...], ...]

    def row(self, n: int) -> tuple[int, ...]:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"row {n} not in table")
        return self.rows[n - 1]

    def entry(self, n: int, i: int) -> int:
        row = self.row(n)
        if not 1 <= i <= n:
            return 0
        return row[i - 1]


def brute_force_rows(
    ns: list[int], shards: int = 1, force: bool = False
) -> dict[int, tuple[int, ...]]:
    """Brute-force descent histograms for several n with one worker pool."""
    counts = histogram(ns, descent_kernel, shards, force, pool=ProcessPoolExecutor)
    return {n: tuple(counts[n][d] for d in range(n)) for n in ns}


def table_brute_force(n: int, shards: int = 1, force: bool = False) -> tuple[int, ...]:
    """Row n of the triangle by enumerating S_n and counting descents."""
    return brute_force_rows([n], shards=shards, force=force)[n]


def table_from_recurrence(n_max: int) -> EulerianTable:
    """Rows 1..n_max from the two-term recurrence, exact integers."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    rows: list[tuple[int, ...]] = [(1,)]
    for n in range(2, n_max + 1):
        prev = rows[-1]

        def a(i: int) -> int:
            return prev[i - 1] if 1 <= i <= n - 1 else 0

        rows.append(tuple(i * a(i) + (n + 1 - i) * a(i - 1) for i in range(1, n + 1)))
    return EulerianTable(n_max, tuple(rows))


def eulerian_polynomial(
    n: int, source: str = "recurrence", shards: int = 1, force: bool = False
) -> UniPoly:
    """A_n(t): zero constant term, degree n."""
    if source == "recurrence":
        row = table_from_recurrence(n).row(n)
    elif source == "brute":
        row = table_brute_force(n, shards=shards, force=force)
    else:
        raise ValueError("source must be 'recurrence' or 'brute'")
    return UniPoly.from_coeffs((0,) + row)


def verify_power_sum_series(n: int, terms: int, source: str = "recurrence") -> CheckReport:
    """Check that A_n(t) / (1 - t)**(n + 1) starts 0**n, 1**n, 2**n, ...

    Multiplies A_n(t) into the window of 1/(1 - t)**(n + 1) and compares
    coefficient k with k**n for 0 <= k <= terms.
    """
    poly = eulerian_polynomial(n, source=source)
    window = series_product(poly, geometric_power_window(n + 1, terms))
    description = f"A_{n}(t)/(1-t)^{n + 1} matches k^{n} for 0 <= k <= {terms}"
    for k, value in enumerate(window.coeffs):
        if value != k**n:
            return CheckReport(
                False, description, f"coefficient {k} is {value}, expected {k**n}"
            )
    return CheckReport(True, description)


def worpitzky_identity(n: int, k: int, row: tuple[int, ...] | None = None) -> int:
    """k**n as sum_i A(n, i) binomial(k + n - i, n); asserted against k**n.

    A mismatch means the supplied (or computed) row is corrupt, so it raises
    ConsistencyError rather than returning quietly.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if row is None:
        row = table_from_recurrence(n).row(n)
    value = sum(row[i - 1] * binomial(k + n - i, n) for i in range(1, n + 1))
    if value != k**n:
        raise ConsistencyError(
            f"Worpitzky sum at n={n}, k={k} gave {value}, expected {k**n}"
        )
    return value


def verify_polynomial_recurrence(n: int, source: str = "recurrence") -> CheckReport:
    """Check A_n(t) = n t A_{n-1}(t) + t (1 - t) A'_{n-1}(t)."""
    if n < 2:
        raise ValueError("the derivative recurrence needs n >= 2")
    t = UniPoly.monomial(1)
    one = UniPoly.one()
    prev = eulerian_polynomial(n - 1, source=source)
    rhs = n * t * prev + t * (one - t) * prev.derivative()
    lhs = eulerian_polynomial(n, source=source)
    description = f"derivative recurrence reproduces A_{n}(t)"
    if lhs == rhs:
        return CheckReport(True, description)
    diff = lhs - rhs
    exp = next(e for e, c in enumerate(diff.coeffs) if c)
    return CheckReport(
        False, description, f"first mismatch at t^{exp}: {lhs.coeff(exp)} vs {rhs.coeff(exp)}"
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
    i are subtracted, binomial by binomial, in integers.

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
            m = top - 2 * i
            c = 1  # binomial(m, k)
            for k in range(m + 1):
                residual[i + k] -= g * c
                c = c * (m - k) // (k + 1)
    if any(residual):
        raise ValueError("polynomial is outside the span of the gamma basis")
    return GammaVector(n, tuple(gammas))


def check_unimodality(row: tuple[int, ...]) -> bool:
    """True when the row rises to its middle entry and falls afterwards."""
    peak = (len(row) + 1) // 2
    rising = all(row[i] <= row[i + 1] for i in range(peak - 1))
    falling = all(row[i] >= row[i + 1] for i in range(peak - 1, len(row) - 1))
    return rising and falling


# ---------------------------------------------------------------------------
# JSON schema


def row_to_obj(n: int, row: tuple[int, ...], gamma: tuple[int, ...] | None = None) -> dict:
    obj: dict = {"n": str(n), "A": [str(c) for c in row]}
    if gamma is not None:
        obj["gamma"] = [str(g) for g in gamma]
    return obj


def row_from_obj(obj: dict) -> tuple[int, tuple[int, ...], tuple[int, ...] | None]:
    n = int(obj["n"])
    row = tuple(int(c) for c in obj["A"])
    gamma = tuple(int(g) for g in obj["gamma"]) if "gamma" in obj else None
    if len(row) != n:
        raise ValueError(f"row for n={n} has {len(row)} entries")
    return n, row, gamma
