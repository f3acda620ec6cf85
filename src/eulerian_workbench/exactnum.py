"""Exact arithmetic substrate for the workbench.

Counts are plain Python ints (exact at any size), and every algorithm here
runs on them: polynomial products, series windows and Sturm chains alike.
Sturm chains come from a primitive pseudo-remainder sequence whose scales
are positive integers, so signs survive and no rational is ever formed. The
one routine on fractions.Fraction values is solve_exact_linear, which no
module of the package calls. No floating point appears anywhere.

Polynomials come in two shapes:

- UniPoly: dense integer coefficients in one variable t, stored as a tuple
  indexed by exponent with no trailing zero. The zero polynomial is the
  empty tuple.
- BiPoly: sparse integer coefficients in two variables s and t, stored as a
  sorted tuple of (s_exp, t_exp, coeff) triples with no zero coefficient.
  Equal polynomials are structurally equal.

A SeriesWindow holds the coefficients of a power series truncated at a fixed
order, either one row (univariate) or a grid (bivariate). Multiplying a
polynomial into the window of 1/(1-t)^m is how closed product forms get
compared against term-by-term series data.

JSON form for polynomials: {"var": "t", "terms": [[exp, "coeff"], ...]} and
{"var": "st", "terms": [[s_exp, t_exp, "coeff"], ...]}, exponents ascending,
coefficients as decimal strings so no consumer ever sees a float or an
overflowing native integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Iterable, Mapping

from .common import ConsistencyError

Count = int


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

    def evaluate(self, x):
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def is_palindromic(self, top: int) -> bool:
        """True when coeff(i) == coeff(top - i) for every 0 <= i <= top."""
        if self.degree > top:
            return False
        return all(self.coeff(i) == self.coeff(top - i) for i in range(top + 1))

    def to_obj(self) -> dict:
        return {
            "var": "t",
            "terms": [[e, str(c)] for e, c in enumerate(self.coeffs) if c],
        }

    @staticmethod
    def from_obj(obj: Mapping) -> "UniPoly":
        if obj.get("var") != "t":
            raise ValueError("expected a univariate polynomial in t")
        out: dict[int, int] = {}
        for exp, coeff in obj["terms"]:
            out[int(exp)] = out.get(int(exp), 0) + int(coeff)
        if not out:
            return UniPoly()
        size = max(out) + 1
        return UniPoly.from_coeffs(out.get(e, 0) for e in range(size))

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

    def degrees(self) -> tuple[int, int]:
        """(max s exponent, max t exponent); (-1, -1) for the zero polynomial."""
        if not self.terms:
            return (-1, -1)
        return (max(a for a, _, _ in self.terms), max(b for _, b, _ in self.terms))

    def divide_exact(self, divisor: "BiPoly") -> "BiPoly | None":
        """Exact quotient self / divisor, or None when it does not divide.

        Plain multivariate division on the lexicographic monomial order; the
        divisors used here are monomials and two-term binomials, for which
        this terminates quickly.
        """
        if divisor.is_zero():
            raise ValueError("division by zero polynomial")
        la, lb, lc = divisor.terms[-1]
        rest = divisor.terms[:-1]
        rem = self.as_dict()
        quotient: dict[tuple[int, int], int] = {}
        while rem:
            a, b = max(rem)
            c = rem.pop((a, b))
            if a < la or b < lb or c % lc:
                return None
            qa, qb, qc = a - la, b - lb, c // lc
            quotient[(qa, qb)] = quotient.get((qa, qb), 0) + qc
            for ra, rb, rc in rest:
                key = (qa + ra, qb + rb)
                val = rem.get(key, 0) - qc * rc
                if val:
                    rem[key] = val
                else:
                    rem.pop(key, None)
        return BiPoly.from_dict(quotient)

    def to_obj(self) -> dict:
        return {
            "var": "st",
            "terms": [[a, b, str(c)] for a, b, c in self.terms],
        }

    @staticmethod
    def from_obj(obj: Mapping) -> "BiPoly":
        if obj.get("var") != "st":
            raise ValueError("expected a bivariate polynomial in s and t")
        out: dict[tuple[int, int], int] = {}
        for a, b, coeff in obj["terms"]:
            key = (int(a), int(b))
            out[key] = out.get(key, 0) + int(coeff)
        return BiPoly.from_dict(out)

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

    Univariate: coeffs[k] is the t**k coefficient for 0 <= k <= order.
    Bivariate: coeffs[k][l] is the s**k t**l coefficient, both up to order.
    """

    order: int
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
    return SeriesWindow(order, tuple(binomial(k + m - 1, m - 1) for k in range(order + 1)))


def series_product(p: UniPoly, window: SeriesWindow) -> SeriesWindow:
    """Window of p(t) times the given univariate window (truncated product)."""
    if window.bivariate:
        raise ValueError("expected a univariate window")
    out = []
    for k in range(window.order + 1):
        total = 0
        for e in range(min(k, p.degree) + 1):
            c = p.coeffs[e]
            if c:
                total += c * window.coeffs[k - e]
        out.append(total)
    return SeriesWindow(window.order, tuple(out))


def series_product_bivariate(p: BiPoly, s_window: SeriesWindow, t_window: SeriesWindow) -> SeriesWindow:
    """Grid window of p(s, t) times the two univariate windows.

    Entry (k, l) is the s**k t**l coefficient of
    p(s, t) * f(s) * g(t) truncated at the window orders.
    """
    if s_window.bivariate or t_window.bivariate:
        raise ValueError("expected univariate windows for both variables")
    ks, kt = s_window.order, t_window.order
    grid = [[0] * (kt + 1) for _ in range(ks + 1)]
    for a, b, c in p.terms:
        for k in range(a, ks + 1):
            left = c * s_window.coeffs[k - a]
            if not left:
                continue
            row = grid[k]
            for l in range(b, kt + 1):
                row[l] += left * t_window.coeffs[l - b]
    return SeriesWindow(max(ks, kt), tuple(tuple(row) for row in grid))


# ---------------------------------------------------------------------------
# exact linear solving


def solve_exact_linear(rows: list[list[Fraction]], n_unknowns: int) -> list[Fraction]:
    """Solve an (over)determined rational linear system exactly.

    Each row is augmented: n_unknowns coefficients followed by the right-hand
    side. The system must have exactly one solution; an inconsistent or
    underdetermined system raises ConsistencyError.
    """
    mat = [list(r) for r in rows]
    if any(len(r) != n_unknowns + 1 for r in mat):
        raise ValueError("rows must have n_unknowns + 1 entries")
    pivot_row = 0
    for col in range(n_unknowns):
        src = next((r for r in range(pivot_row, len(mat)) if mat[r][col] != 0), None)
        if src is None:
            raise ConsistencyError(f"underdetermined system: no pivot for unknown {col}")
        mat[pivot_row], mat[src] = mat[src], mat[pivot_row]
        pivot = mat[pivot_row][col]
        mat[pivot_row] = [x / pivot for x in mat[pivot_row]]
        base = mat[pivot_row]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], base)]
        pivot_row += 1
    for r in range(pivot_row, len(mat)):
        if mat[r][n_unknowns] != 0:
            raise ConsistencyError("inconsistent system: incompatible equation")
    return [mat[i][n_unknowns] for i in range(n_unknowns)]


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


def _int_poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two integer polynomials (primitive remainder sequence)."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of a / b for a primitive divisor b of a.

    By Gauss's lemma the quotient has integer coefficients, so every step of
    the long division is an exact integer division; one that is not, or a
    nonzero remainder, raises ConsistencyError.
    """
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    while len(_trim(a)) > db:
        shift = len(a) - 1 - db
        factor, rem = divmod(a[-1], lead)
        if rem:
            raise ConsistencyError("expected an exact polynomial division")
        q[shift] = factor
        for i, c in enumerate(b):
            a[i + shift] -= factor * c
    if a:
        raise ConsistencyError("expected an exact polynomial division")
    return _primitive(q)


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


def sturm_negative_root_count(p: UniPoly) -> tuple[int, bool]:
    """Count distinct real roots of p in (-inf, 0); also report squarefreeness.

    Returns (count, all_distinct) where all_distinct is True exactly when p
    has no repeated complex root (gcd(p, p') is constant). The count is of
    distinct roots, taken on the squarefree part, so multiplicities do not
    inflate it. All arithmetic is on integers.

    >>> sturm_negative_root_count(UniPoly.from_coeffs([2, 3, 1]))  # (t+1)(t+2)
    (2, True)
    >>> sturm_negative_root_count(UniPoly.from_coeffs([0, 1, 2, 1]))  # t(t+1)^2
    (1, False)
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no root count")
    cs = list(p.coeffs)
    g = _int_poly_gcd(cs, _derivative_list(cs))
    all_distinct = len(g) == 1
    shift = next(e for e, c in enumerate(cs) if c)
    cs = cs[shift:]
    if len(cs) == 1:
        return (0, all_distinct)
    if shift:
        # the gcd above includes the stripped power of t
        g = _int_poly_gcd(cs, _derivative_list(cs))
    if len(g) > 1:
        cs = _exact_quotient(cs, g)
    chain = _sturm_chain(cs)
    at_minus_inf = [_sign(c[-1]) * (-1 if (len(c) - 1) % 2 else 1) for c in chain]
    at_zero = [_sign(c[0]) for c in chain]
    return (_sign_changes(at_minus_inf) - _sign_changes(at_zero), all_distinct)
