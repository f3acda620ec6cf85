"""Eulerian numbers by independent routes, plus gamma-basis extraction.

A(n, i) counts permutations of {1, ..., n} with exactly i - 1 descents,
equivalently i increasing runs, for 1 <= i <= n. Routes implemented here:

- brute force: stream S_n (optionally sharded across processes) and
  histogram descents;
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

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import factorial

from .common import CheckReport, ConsistencyError, GuardRailError
from .exactnum import UniPoly, binomial, geometric_power_window, series_product
from .perm import enumerate_sn

# 11! is the intended brute-force ceiling; 12! needs an explicit override.
BRUTE_FORCE_GUARD = 11


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


def _check_brute_rail(n: int, force: bool) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > BRUTE_FORCE_GUARD and not force:
        raise GuardRailError(
            f"brute force over S_{n} means {factorial(n)} permutations; "
            f"pass force (--force) to go past n={BRUTE_FORCE_GUARD}"
        )


def _descent_histogram_shard(task: tuple[int, int, int, bool]) -> list[int]:
    n, index, total, force = task
    hist = [0] * n
    for w in enumerate_sn(n, shard=(index, total), force=force):
        d = 0
        prev = w[0]
        for x in w[1:]:
            if prev > x:
                d += 1
            prev = x
        hist[d] += 1
    return hist


def brute_force_rows(
    ns: list[int], shards: int = 1, force: bool = False
) -> dict[int, tuple[int, ...]]:
    """Brute-force descent histograms for several n with one worker pool."""
    for n in ns:
        _check_brute_rail(n, force)
    if shards < 1:
        raise ValueError("shards must be positive")
    tasks = [(n, index, shards, force) for n in ns for index in range(shards)]
    if shards == 1:
        results = [_descent_histogram_shard(task) for task in tasks]
    else:
        # The shard count fixes the task list; workers stop at the CPU count.
        workers = min(shards, os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_descent_histogram_shard, tasks))
    rows: dict[int, tuple[int, ...]] = {}
    for n_at, n in enumerate(ns):
        merged = [0] * n
        for index in range(shards):
            for i, c in enumerate(results[n_at * shards + index]):
                merged[i] += c
        rows[n] = tuple(merged)
    return rows


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
