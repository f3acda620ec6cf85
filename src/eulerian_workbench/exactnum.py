"""Exact arithmetic substrate for the workbench.

Counts are plain Python ints (exact at any size), and every algorithm here
runs on them: polynomial products, series windows and Sturm chains alike.
Sturm chains come from a primitive pseudo-remainder sequence whose scales
are positive integers, so signs survive and no rational is ever formed. One
such sequence of (q, q') gives both the distinct-root count and whether q is
squarefree. It is never divided by gcd(q, q'): the gcd has no root at 0 or
near -inf, so the count is the same. No floating point appears anywhere.

A palindromic q, such as every Eulerian row, is counted by a chain of half
its degree. At odd degree q(-1) = -q(-1), so q = (1 + t) q1 and -1 is a
root; q1 has even degree 2m and q1(t) = t**m r(t + 1/t) with deg r = m,
built from t**k + t**-k = P_k(t + 1/t), where P_0 = 2, P_1 = u and
P_(k+1) = u P_k - P_(k-1). On t < 0, u = t + 1/t <= -2, with equality only
at t = -1, and each root u < -2 of r gives the two negative roots t and 1/t
of q1. The count is therefore 2 (V(-inf) - V(-2)) + [degree odd] on the
chain of r, and q is squarefree when r is. Both need r(2) r(-2) != 0; the
few palindromes with r(+-2) = 0 have a root at 1 or -1 of even
multiplicity, and they take the full chain (sturm_negative_root_count
gives the proof). At n = 60 the half chain counts A_n(t)/t in 14 ms,
against 0.36 s for the full one (Python 3.11, a 2-vCPU host).

binomial_row(m) is the row binomial(m, 0..m), built once per process by a
running product and cached, so the gamma and Gessel peels, which read the
same rows for every n they expand, never rebuild one. The cache holds every
row asked for, at most about m**2 / 2 entries for the largest m, each
below 2**m. That is less than a --n-max range of Eulerian rows, but more
than the one row a single --n streams: gamma --n 1558 --force, at the
int-to-str limit, peaks at 109 MiB with the cache and 29 MiB without it,
in the same 6.8 s (child process, 2-vCPU host, Python 3.11).

Polynomials come in two shapes:

- UniPoly: dense integer coefficients in one variable t, stored as a tuple
  indexed by exponent with no trailing zero. The zero polynomial is the
  empty tuple.
- BiPoly: sparse integer coefficients in two variables s and t, stored as a
  sorted tuple of (s_exp, t_exp, coeff) triples with no zero coefficient.
  Equal polynomials are structurally equal.

A SeriesWindow holds the coefficients of a power series truncated at a fixed
order, either one row (univariate) or a grid (bivariate), whose orders are
read off its shape. Multiplying a polynomial into the window of 1/(1-t)^m is
how closed product forms get compared against term-by-term series data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb, gcd
from collections.abc import Iterable, Mapping

from .common import ConsistencyError


def binomial(m: int, r: int) -> int:
    """Binomial coefficient, 0 whenever the arguments fall out of range.

    >>> binomial(7, 4)
    35
    >>> binomial(3, 4)
    0
    """
    if r < 0 or m < 0 or r > m:
        return 0
    return comb(m, r)


@cache
def binomial_row(m: int) -> tuple[int, ...]:
    """The full row binomial(m, 0), ..., binomial(m, m), built once per process.

    Each entry comes from the one before it by the running product
    binomial(m, k + 1) = binomial(m, k) (m - k) / (k + 1), exact at every
    step; no half of the row is mirrored from the other.

    >>> binomial_row(4)
    (1, 4, 6, 4, 1)
    """
    row = [1]
    for k in range(m):
        row.append(row[-1] * (m - k) // (k + 1))
    return tuple(row)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


# ---------------------------------------------------------------------------
# univariate polynomials


@dataclass(frozen=True)
class UniPoly:
    """Dense integer polynomial in t; coeffs[e] is the coefficient of t**e."""

    coeffs: tuple[int, ...] = ()

    @staticmethod
    def from_coeffs(cs: Iterable[int]) -> "UniPoly":
        cs = list(cs)
        while cs and cs[-1] == 0:
            cs.pop()
        return UniPoly(tuple(cs))

    @staticmethod
    def monomial(exp: int, coeff: int = 1) -> "UniPoly":
        if coeff == 0:
            return UniPoly()
        return UniPoly((0,) * exp + (coeff,))

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly((1,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, exp: int) -> int:
        if 0 <= exp < len(self.coeffs):
            return self.coeffs[exp]
        return 0

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly.from_coeffs(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return UniPoly()
            return UniPoly(tuple(other * c for c in self.coeffs))
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return UniPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly.from_coeffs(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPoly.one()
        for _ in range(n):
            result = result * self
        return result

    def derivative(self) -> "UniPoly":
        return UniPoly.from_coeffs(i * c for i, c in enumerate(self.coeffs) if i)

    def is_palindromic(self, top: int) -> bool:
        """True when coeff(i) == coeff(top - i) for every 0 <= i <= top."""
        if self.degree > top:
            return False
        padded = self.coeffs + (0,) * (top + 1 - len(self.coeffs))
        return padded == padded[::-1]

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
            if e == 0:
                body = str(abs(c))
            else:
                t = "t" if e == 1 else f"t^{e}"
                body = t if abs(c) == 1 else f"{abs(c)}{t}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# bivariate polynomials


@dataclass(frozen=True)
class BiPoly:
    """Sparse integer polynomial in s and t.

    terms holds (s_exp, t_exp, coeff) triples, sorted by exponent pair, with
    every coeff nonzero.
    """

    terms: tuple[tuple[int, int, int], ...] = ()

    @staticmethod
    def from_dict(d: Mapping[tuple[int, int], int]) -> "BiPoly":
        return BiPoly(tuple(sorted((a, b, c) for (a, b), c in d.items() if c)))

    @staticmethod
    def monomial(s_exp: int, t_exp: int, coeff: int = 1) -> "BiPoly":
        if coeff == 0:
            return BiPoly()
        return BiPoly(((s_exp, t_exp, coeff),))

    @staticmethod
    def one() -> "BiPoly":
        return BiPoly(((0, 0, 1),))

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(a, b): c for a, b, c in self.terms}

    def coeff(self, s_exp: int, t_exp: int) -> int:
        for a, b, c in self.terms:
            if (a, b) == (s_exp, t_exp):
                return c
        return 0

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "BiPoly") -> "BiPoly":
        out = self.as_dict()
        for a, b, c in other.terms:
            out[(a, b)] = out.get((a, b), 0) + c
        return BiPoly.from_dict(out)

    def __neg__(self) -> "BiPoly":
        return BiPoly(tuple((a, b, -c) for a, b, c in self.terms))

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return BiPoly(tuple((a, b, other * c) for a, b, c in self.terms)) if other else BiPoly()
        if not isinstance(other, BiPoly):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for a1, b1, c1 in self.terms:
            for a2, b2, c2 in other.terms:
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0) + c1 * c2
        return BiPoly.from_dict(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = BiPoly.one()
        for _ in range(n):
            result = result * self
        return result

    def partial_derivative(self, var: str) -> "BiPoly":
        if var == "s":
            return BiPoly.from_dict({(a - 1, b): a * c for a, b, c in self.terms if a})
        if var == "t":
            return BiPoly.from_dict({(a, b - 1): b * c for a, b, c in self.terms if b})
        raise ValueError(f"unknown variable {var!r}")

    def swap_vars(self) -> "BiPoly":
        """The polynomial with s and t exchanged."""
        return BiPoly(tuple(sorted((b, a, c) for a, b, c in self.terms)))

    def reciprocal(self, top: int) -> "BiPoly":
        """(st)**top times the polynomial evaluated at (1/s, 1/t).

        Sends the term at (a, b) to (top - a, top - b); every exponent must
        be at most top.
        """
        if any(a > top or b > top for a, b, _ in self.terms):
            raise ValueError(f"exponent above {top} has no reciprocal image")
        return BiPoly(tuple(sorted((top - a, top - b, c) for a, b, c in self.terms)))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for a, b, c in self.terms:
            s = "" if a == 0 else ("s" if a == 1 else f"s^{a}")
            t = "" if b == 0 else ("t" if b == 1 else f"t^{b}")
            body = (s + t) or str(abs(c))
            if s + t and abs(c) != 1:
                body = f"{abs(c)}{s}{t}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# truncated series windows


@dataclass(frozen=True)
class SeriesWindow:
    """Power-series coefficients up to a fixed order.

    Univariate: coeffs[k] is the t**k coefficient for 0 <= k < len(coeffs).
    Bivariate: coeffs[k][l] is the s**k t**l coefficient; the grid's row
    count and row length each give one variable's order plus one.
    """

    coeffs: tuple

    @property
    def bivariate(self) -> bool:
        return bool(self.coeffs) and isinstance(self.coeffs[0], tuple)


def geometric_power_window(m: int, order: int) -> SeriesWindow:
    """Window of 1/(1-t)**m: coefficient of t**k is binomial(k+m-1, m-1).

    >>> geometric_power_window(7, 6).coeffs[6]
    924
    """
    if m < 0 or order < 0:
        raise ValueError("window parameters must be nonnegative")
    return SeriesWindow(tuple(binomial(k + m - 1, m - 1) for k in range(order + 1)))


def series_product(p: UniPoly, window: SeriesWindow) -> SeriesWindow:
    """Window of p(t) times the given univariate window (truncated product)."""
    if window.bivariate:
        raise ValueError("expected a univariate window")
    out = []
    for k in range(len(window.coeffs)):
        total = 0
        for e in range(min(k, p.degree) + 1):
            c = p.coeffs[e]
            if c:
                total += c * window.coeffs[k - e]
        out.append(total)
    return SeriesWindow(tuple(out))


def series_product_bivariate(p: BiPoly, s_window: SeriesWindow, t_window: SeriesWindow) -> SeriesWindow:
    """Grid window of p(s, t) times the two univariate windows.

    Entry (k, l) is the s**k t**l coefficient of
    p(s, t) * f(s) * g(t) truncated at the window orders.
    """
    if s_window.bivariate or t_window.bivariate:
        raise ValueError("expected univariate windows for both variables")
    ks, kt = len(s_window.coeffs), len(t_window.coeffs)
    grid = [[0] * kt for _ in range(ks)]
    for a, b, c in p.terms:
        for k in range(a, ks):
            left = c * s_window.coeffs[k - a]
            if not left:
                continue
            row = grid[k]
            for l in range(b, kt):
                row[l] += left * t_window.coeffs[l - b]
    return SeriesWindow(tuple(tuple(row) for row in grid))


# bench/spans.py binds this name to count Gessel unknowns; nothing calls it.
def solve_exact_linear(*args) -> None:
    raise NotImplementedError("solve_exact_linear is only a binding for bench/spans.py")


# ---------------------------------------------------------------------------
# Sturm sequences

# Chain elements are primitive integer coefficient lists. Every scale applied
# is a positive integer: Sturm counting depends on signs, so a negative or
# zero scale would corrupt the count.


def _trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _derivative_list(cs: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(cs)][1:]


def _primitive(cs: list[int]) -> list[int]:
    cs = _trim(list(cs))
    content = gcd(*cs)
    return [c // content for c in cs] if content > 1 else cs


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """The remainder of |lc(b)|**k * a on division by b, for some k >= 0.

    Each elimination step scales a by |lc(b)| instead of lc(b), so the result
    is a positive multiple of the rational remainder and keeps its signs.
    """
    a = _trim(list(a))
    db, lead = len(b) - 1, b[-1]
    scale, sign = abs(lead), _sign(lead)
    while len(a) > db:
        factor = sign * a[-1]
        shift = len(a) - 1 - db
        a = [scale * c for c in a]
        for i, c in enumerate(b):
            a[i + shift] -= factor * c
        _trim(a)
    return a


def _sturm_chain(cs: list[int]) -> list[list[int]]:
    chain = [_primitive(cs)]
    deriv = _trim(_derivative_list(chain[0]))
    if deriv:
        chain.append(_primitive(deriv))
    while len(chain[-1]) > 1:
        rem = _pseudo_remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_primitive([-c for c in rem]))
    return chain


def _sign_changes(signs: list[int]) -> int:
    seq = [s for s in signs if s]
    return sum(1 for x, y in zip(seq, seq[1:]) if x != y)


def _changes_at_minus_inf(chain: list[list[int]]) -> int:
    return _sign_changes([_sign(c[-1]) * (-1 if (len(c) - 1) % 2 else 1) for c in chain])


def _horner(cs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _palindromic_count(q: tuple[int, ...]) -> tuple[int, bool] | None:
    """(count, squarefree) for a palindromic q with q(0) != 0 from the chain
    of r, q1(t) = t**m r(t + 1/t); None when r(2) r(-2) == 0 and the full
    chain of q must count (see sturm_negative_root_count)."""
    odd = len(q) % 2 == 0
    if odd:  # q(-1) = -q(-1), so 1 + t divides q: synthetic division
        quotient, carry = [], 0
        for c in q[:-1]:
            carry = c - carry
            quotient.append(carry)
        if carry != q[-1]:
            raise ConsistencyError("palindromic polynomial of odd degree not divisible by 1 + t")
        q = quotient
    # r = q[m] + sum of q[m + k] * P_k, P_k(t + 1/t) = t**k + t**-k
    m = len(q) // 2
    r = [q[m]] + [0] * m
    before, here = [2], [0, 1]
    for k in range(1, m + 1):
        c = q[m + k]
        for i, pc in enumerate(here):
            r[i] += c * pc
        after = [0] + here
        for i, pc in enumerate(before):
            after[i] -= pc
        before, here = here, after
    if not _horner(r, 2) or not _horner(r, -2):
        return None
    chain = _sturm_chain(r)
    at_minus_two = _sign_changes([_sign(_horner(c, -2)) for c in chain])
    return (2 * (_changes_at_minus_inf(chain) - at_minus_two) + odd, len(chain[-1]) == 1)


def sturm_negative_root_count(p: UniPoly) -> tuple[int, bool]:
    """Count distinct real roots of p in (-inf, 0); also report squarefreeness.

    Returns (count, all_distinct) where all_distinct is True exactly when p
    has no repeated complex root. Write p = t**shift * q with q(0) != 0; one
    signed remainder sequence of (q, q') gives both answers.

    - It ends at a multiple of g = gcd(q, q'), so q is squarefree exactly
      when it ends at a constant, and p when shift <= 1 as well.
    - g divides every element, and the quotients form a Sturm sequence for
      q/g, whose roots are the distinct roots of q (Basu, Pollack and Roy,
      Algorithms in Real Algebraic Geometry, ch. 2). No division by g is
      needed: g has no root at 0 and one sign near -inf, so it multiplies
      each sign vector by one sign, and V(-inf) - V(0) stays the same.

    A palindromic q (every Eulerian row is one) takes a chain of half the
    degree instead:

    - At odd degree q(-1) = -q(-1), so q = (1 + t) q1 with q1 palindromic
      and -1 is a root of q; at even degree q1 = q.
    - q1 has degree 2m, so q1(t) = t**m r(u) with u = t + 1/t and
      deg r = m. On t < 0, u <= -2 with equality only at t = -1, and u
      maps (-inf, -1) and (-1, 0) each one to one onto (-inf, -2). Each
      root u < -2 of r thus gives two negative roots t and 1/t of q1, and
      when r(-2) != 0 the count is 2 (V(-inf) - V(-2)) + [degree odd],
      signs taken on the chain of r, at -2 by Horner.
    - A root u of r of multiplicity k gives the roots of t**2 - u t + 1,
      each of multiplicity k; they are distinct unless u = +-2, where they
      merge into t = +-1 of multiplicity 2k. So when r(2) r(-2) != 0, q1
      is squarefree exactly when r is, and then so is q, since -1 is no
      root of q1.
    - When r(2) or r(-2) is 0, q1 has a root at 1 or -1 of even
      multiplicity: q is not squarefree though r may be, and V(-2) is taken
      at a root of r, so the full chain of q counts instead.

    >>> sturm_negative_root_count(UniPoly.from_coeffs([2, 3, 1]))  # (t+1)(t+2)
    (2, True)
    >>> sturm_negative_root_count(UniPoly.from_coeffs([0, 1, 2, 1]))  # t(t+1)^2
    (1, False)
    >>> sturm_negative_root_count(UniPoly.from_coeffs([0, 1, 11, 11, 1]))  # A_4(t)
    (3, True)
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no root count")
    shift = next(e for e, c in enumerate(p.coeffs) if c)
    q = p.coeffs[shift:]
    if q == q[::-1]:
        counted = _palindromic_count(q)
        if counted is not None:
            return (counted[0], shift <= 1 and counted[1])
    chain = _sturm_chain(list(q))
    all_distinct = shift <= 1 and len(chain[-1]) == 1
    at_zero = [_sign(c[0]) for c in chain]
    return (_changes_at_minus_inf(chain) - _sign_changes(at_zero), all_distinct)
