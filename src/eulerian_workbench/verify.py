"""Named verification suites: every cross-check the engines support, bundled
for the CLI.

Each suite returns CheckReport records. Bounds come from SuiteBounds; a
bound left as None falls back to the per-check desk-scale default, and
expensive enumerations additionally cap themselves so that a large n_max
aimed at the cheap checks cannot silently start a week-long walk. The walks
over S_n (brute-force rows and arrays, the orbit census) stop at
perm.BRUTE_FORCE_GUARD, the largest n a walk runs without force.

Each suite reads its tables (one recurrence run up to its largest n, one
brute-force call over all its brute-force n, one table of hops, descents or
hop classes per n) through its own _memo, made anew on each call, so no
table outlives the call. A table is built on its first read, which comes
inside a check, and read from the memo after that. A builder that raises
fails the check that first read its table, with the builder's message, and
the memo raises the same exception again at every later read: every check
that reads a broken table fails with that message, and every other check
still runs.

Every check runs through _check, the one place a CheckReport is built, and
fails one way: by raising. A check that raises at one of its items fails
there, with the exception's message as the failure, and goes on to its next
item, so a broken table or a builder that raises is a FAIL line in the full
report of every suite, never a crash; a check that returns anything but
None fails too. GuardRailError alone is not caught, nor kept by a memo: a
refused budget still refuses the whole run. The engine checks in
eulerian and twosided raise ConsistencyError with a message that names n.
Their check_* and verify_* functions otherwise return None, so a suite
hands each to _check as it is; the table commands run the same check_*
functions on the sums and symmetries. The Worpitzky identities return the
value they checked, so a closure drops it.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from math import factorial

from . import boxes, eulerian, hopping, twosided
from .common import SUITE_ORDER, CheckReport, ConsistencyError, GuardRailError
from .exactnum import BiPoly, UniPoly, binomial, sturm_negative_root_count
from .perm import BRUTE_FORCE_GUARD, Perm, descent_count, enumerate_sn, inverse


@dataclass(frozen=True)
class SuiteBounds:
    n_max: int | None = None
    k_max: int | None = None
    l_max: int | None = None
    terms: int | None = None

    def __post_init__(self):
        for name in ("n_max", "k_max", "l_max", "terms"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


def _bound(value: int | None, default: int, cap: int | None = None) -> int:
    out = default if value is None else value
    if cap is not None:
        out = min(out, cap)
    return out


def _check(
    description: str,
    items: Iterable,
    check: Callable[..., None],
    detail: str | Callable[[], str] = "",
) -> CheckReport:
    """Run one check: check(item) returns None or raises at each item.

    A raise is that item's failure, its message recorded verbatim, and the
    check goes on to the next item; a message already recorded, as a broken
    table gives at every item that reads it, is recorded once. Anything but
    None returned fails the item too, so a check written as a generator,
    which runs no line of its body until iterated, cannot pass unrun. A
    failing check reports its first three failures; a passing one reports
    detail, called first when it is a function, and a raise there fails the
    check.
    """
    found: list[str] = []
    for item in items:
        try:
            result = check(item)
        except GuardRailError:
            raise
        except Exception as exc:  # the check's boundary: a raise is a failure
            if str(exc) not in found:
                found.append(str(exc))
        else:
            if result is not None:
                found.append(f"the check returned {type(result).__name__}, not None")
    if not found:
        try:
            return CheckReport(True, description, detail() if callable(detail) else detail)
        except GuardRailError:
            raise
        except Exception as exc:
            found.append(str(exc))
    return CheckReport(False, description, "; ".join(found[:3]))


def _memo(**builders: Callable) -> Callable:
    """read(name, *args) is builders[name](*args), built on the first read.

    A builder's exception is kept and raised again at every later read of
    the same table; a GuardRailError is not kept, since it ends the run.
    """
    built: dict[tuple, object] = {}

    def read(name: str, *args):
        key = (name, *args)
        if key not in built:
            try:
                built[key] = builders[name](*args)
            except GuardRailError:
                raise
            except Exception as exc:  # kept for every reader of this table
                built[key] = exc
        table = built[key]
        if isinstance(table, Exception):
            raise table
        return table

    return read


# ---------------------------------------------------------------------------


def suite_eulerian(bounds: SuiteBounds) -> list[CheckReport]:
    n_max = _bound(bounds.n_max, 12)
    n_brute = _bound(bounds.n_max, 9, cap=BRUTE_FORCE_GUARD)
    k_max = _bound(bounds.k_max, 8)
    terms = _bound(bounds.terms, 12)
    tables = _memo(
        # row 4 feeds the Worpitzky spot value whatever n_max is
        triangle=lambda: eulerian.table_from_recurrence(max(n_max, 4)),
        brute=lambda: eulerian.brute_force_rows(list(range(1, n_brute + 1))),
    )
    ns = range(1, n_max + 1)

    def row(n):
        return tables("triangle").row(n)

    def brute_rows(n):
        if tables("brute")[n] != row(n):
            raise ConsistencyError(f"n={n}")

    def worpitzky(item):
        n, k = item
        eulerian.worpitzky_identity(n, k, row=row(n))

    def spot_value():
        return f"spot value 3^4 = {eulerian.worpitzky_identity(4, 3, row(4))}"

    def gamma(n):
        gv = eulerian.gamma_extract(eulerian.polynomial_from_row(row(n)), n)
        if not gv.nonnegative:
            raise ConsistencyError(f"n={n}: {gv.gammas}")
        if sum(g * 2 ** (n + 1 - 2 * i) for i, g in enumerate(gv.gammas, start=1)) != factorial(n):
            raise ConsistencyError(f"n={n}: gamma total mismatch")

    def sturm(n):
        count, distinct = sturm_negative_root_count(UniPoly.from_coeffs(row(n)))
        if count != n - 1 or not distinct:
            raise ConsistencyError(f"n={n}: ({count}, {distinct})")

    return [
        _check(f"brute force and recurrence rows agree for n <= {n_brute}",
               range(1, n_brute + 1), brute_rows),
        _check(f"row sums equal n! for n <= {n_max}", ns,
               lambda n: eulerian.check_row_sum(n, row(n))),
        _check(f"rows are palindromic for n <= {n_max}", ns,
               lambda n: eulerian.check_row_symmetry(n, row(n))),
        _check(f"rows are unimodal for n <= {n_max}", ns,
               lambda n: eulerian.check_unimodality(n, row(n))),
        _check(f"Worpitzky identity holds for n <= {min(n_max, 8)}, k <= {k_max}",
               itertools.product(range(1, min(n_max, 8) + 1), range(0, k_max + 1)),
               worpitzky, spot_value),
        _check(f"series window of A_n(t)/(1-t)^(n+1) matches k^n for n <= {min(n_max, 8)}, "
               f"k <= {terms}", range(1, min(n_max, 8) + 1),
               lambda n: eulerian.verify_power_sum_series(row(n), terms)),
        _check(f"derivative recurrence reproduces A_n(t) for n <= {n_max}",
               range(2, n_max + 1),
               lambda n: eulerian.verify_polynomial_recurrence(row(n - 1), row(n))),
        _check(f"gamma vectors are nonnegative and evaluate to n! at t=1 for n <= {n_max}",
               ns, gamma),
        _check(f"A_n(t)/t has n-1 distinct negative roots (Sturm) for n <= {min(n_max, 10)}",
               range(1, min(n_max, 10) + 1), sturm),
    ]


# ---------------------------------------------------------------------------


def suite_twosided(bounds: SuiteBounds) -> list[CheckReport]:
    n_max = _bound(bounds.n_max, 12)
    n_brute = _bound(bounds.n_max, 8, cap=BRUTE_FORCE_GUARD)
    k_max = _bound(bounds.k_max, 5)
    l_max = _bound(bounds.l_max, 5)
    terms = _bound(bounds.terms, 5)
    tables = _memo(
        arrays=lambda: twosided.two_sided_from_recurrence(n_max),
        rows=lambda: eulerian.table_from_recurrence(n_max),
        brute=lambda: twosided.brute_force_tables(list(range(1, n_brute + 1))),
    )
    ns = range(1, n_max + 1)

    def array(n):
        return tables("arrays")[n - 1]

    def brute_arrays(n):
        if tables("brute")[n].entries != array(n).entries:
            raise ConsistencyError(f"n={n}")

    def worpitzky(item):
        n, k, l = item
        twosided.worpitzky_grid_identity(n, k, l, table=array(n))

    def monotonicity(n):
        violations = twosided.diagonal_monotonicity_probe(array(n))
        if n <= 7 and violations:
            raise ConsistencyError(f"unexpected violation at n={n}")
        if n == 8:
            found = {(v.i, v.j, v.value, v.toward_value) for v in violations}
            if found != {(2, 3, 126, 84), (3, 4, 1980, 1773)}:
                raise ConsistencyError(f"n=8 violations were {sorted(found)}")

    return [
        _check(f"brute force and recurrence arrays agree for n <= {n_brute}",
               range(1, n_brute + 1), brute_arrays),
        _check(f"marginals match the one-sided rows and total n! for n <= {n_max}",
               ns, lambda n: twosided.check_array_sums(array(n), tables("rows").row(n))),
        _check(f"transpose and antipodal symmetries hold for n <= {n_max}", ns,
               lambda n: twosided.check_symmetries(array(n))),
        _check(f"grid series matches binomial(kl+n-1,n) for n <= {min(n_max, 6)}, "
               f"k,l <= {terms}", range(1, min(n_max, 6) + 1),
               lambda n: twosided.verify_grid_series(array(n), terms)),
        _check(f"two-sided Worpitzky identity holds for n <= {min(n_max, 6)}, "
               f"k <= {k_max}, l <= {l_max}",
               itertools.product(range(1, min(n_max, 6) + 1), range(0, k_max + 1),
                                 range(0, l_max + 1)),
               worpitzky),
        _check(f"bivariate derivative recurrence reproduces n A_n(s,t) for n <= {n_max}",
               range(2, n_max + 1),
               lambda n: twosided.verify_bivariate_recurrence(array(n - 1), array(n))),
        _check("diagonal monotonicity holds through n=7 and first breaks at n=8 as documented"
               if n_max >= 8 else f"diagonal monotonicity holds for n <= {n_max}",
               range(1, min(n_max, 8) + 1), monotonicity,
               "first violations at n=8: 126 > 84 and 1980 > 1773" if n_max >= 8 else ""),
    ]


# ---------------------------------------------------------------------------


def suite_boxes(bounds: SuiteBounds) -> list[CheckReport]:
    n_census = _bound(bounds.n_max, 5, cap=5)
    k_census = _bound(bounds.k_max, 5, cap=6)
    n_sum = _bound(bounds.n_max, 6, cap=8)
    n_grid = _bound(bounds.n_max, 4, cap=4)
    cr_max = 3

    def barred_census(item):
        n, k = item
        census = boxes.oracle_barred_census(n, k)
        if sum(census.values()) != k**n:
            raise ConsistencyError(f"census total at n={n}, k={k}")
        for w, count in census.items():
            if count != boxes.count_barred(w, k):
                raise ConsistencyError(f"n={n}, k={k}, w={w}")

    def barred_sum(item):
        n, k = item
        if sum(boxes.count_barred(w, k) for w in enumerate_sn(n)) != k**n:
            raise ConsistencyError(f"n={n}, k={k}")

    def grid_census(item):
        n, c, r = item
        census = boxes.oracle_two_sided_census(n, c, r)
        if sum(census.values()) != binomial(c * r + n - 1, n):
            raise ConsistencyError(f"total at n={n}, c={c}, r={r}")
        for w, count in census.items():
            if count != boxes.count_two_sided(w, c, r):
                raise ConsistencyError(f"n={n}, c={c}, r={r}, w={w}")

    def worked_grid(triples):
        # cell (c, r) of the 5x4 grid at index (c - 1) * 4 + (r - 1)
        cells = tuple(sorted((c - 1) * 4 + r - 1 for c, r, m in triples for _ in range(m)))
        standardized, _, _ = boxes.standardize_grid_placement(cells, 5, 4)
        if standardized != (1, 7, 2, 3, 4, 6, 5):
            raise ConsistencyError(f"got {standardized}")

    def bars(item):
        n, c, r = item
        positions = range(1, n)
        for cells in itertools.combinations_with_replacement(range(c * r), n):
            w, vertical, horizontal = boxes.standardize_grid_placement(cells, c, r)
            inv = inverse(w)
            for q in positions:
                if w[q - 1] > w[q] and q not in vertical:
                    raise ConsistencyError(f"vertical bars miss a descent: cells {cells}")
                if inv[q - 1] > inv[q] and q not in horizontal:
                    raise ConsistencyError(
                        f"horizontal bars miss an inverse descent: cells {cells}"
                    )

    return [
        _check(f"barred census matches the closed form for n <= {n_census}, k <= {k_census}",
               itertools.product(range(1, n_census + 1), range(0, k_census + 1)),
               barred_census),
        _check(f"closed-form counts sum to k^n over S_n for n <= {n_sum}, k <= 6",
               itertools.product(range(1, n_sum + 1), range(0, 7)), barred_sum),
        _check(f"grid census matches the closed form for n <= {n_grid}, "
               f"columns, rows <= {cr_max}",
               itertools.product(range(1, n_grid + 1), range(0, cr_max + 1),
                                 range(0, cr_max + 1)),
               grid_census),
        _check("the worked 5x4 grid placement standardizes to 1723465",
               [[[1, 1, 1], [1, 4, 1], [2, 1, 1], [3, 1, 2], [3, 3, 1], [5, 1, 1]]],
               worked_grid, "got (1, 7, 2, 3, 4, 6, 5)"),
        _check(f"bars cover descents on both sides for n <= {n_grid}, grids <= "
               f"{cr_max}x{cr_max}",
               itertools.product(range(1, n_grid + 1), range(1, cr_max + 1),
                                 range(1, cr_max + 1)),
               bars),
    ]


# ---------------------------------------------------------------------------


def suite_hopping(bounds: SuiteBounds) -> list[CheckReport]:
    n_small = _bound(bounds.n_max, 6, cap=6)
    n_mid = _bound(bounds.n_max, 7, cap=7)
    n_census = _bound(bounds.n_max, 9, cap=BRUTE_FORCE_GUARD)
    tables = _memo(
        triangle=lambda: eulerian.table_from_recurrence(n_census),
        arrays=lambda: twosided.two_sided_from_recurrence(n_mid),
        orbits=_orbits,
        descents=_descents,
        hops=_hops,
    )

    def hop_laws(n):
        # each hop read from the table: hops[w][x] is hop(w, x) for the free x of w
        hops, des = tables("hops", n), tables("descents", n)
        for w, hopped in hops.items():
            for x, w_x in hopped.items():
                if hops.get(w_x, {}).get(x) != w:
                    raise ConsistencyError(f"involution fails at {w}, x={x}")
                if abs(des[w_x] - des[w]) != 1:
                    raise ConsistencyError(f"descent step at {w}, x={x}")
            for (x, w_x), (y, w_y) in itertools.combinations(hopped.items(), 2):
                w_xy = hops[w_x].get(y)
                if w_xy is None or w_xy != hops[w_y].get(x):
                    raise ConsistencyError(f"commutation fails at {w}, x={x}, y={y}")

    def letter_classes(n):
        for w, des in tables("descents", n).items():
            kinds = hopping.classify_letters(w)
            peaks = kinds.count(hopping.PEAK)
            if des != peaks + kinds.count(hopping.DOUBLE_DESCENT):
                raise ConsistencyError(f"descent split fails at {w}")
            if kinds.count(hopping.VALLEY) != peaks + 1:
                raise ConsistencyError(f"valley count fails at {w}")

    def invariants(n):
        for orbit in tables("orbits", n):
            peak_sets = {tuple(sorted(hopping.peak_values(u))) for u in orbit.members}
            valley_sets = {
                tuple(sorted(hopping.valley_values(u))) for u in orbit.members
            }
            free_sets = {
                tuple(sorted(hopping.free_values(u))) for u in orbit.members
            }
            if len(peak_sets) != 1 or len(valley_sets) != 1 or len(free_sets) != 1:
                raise ConsistencyError(
                    f"classification varies over orbit of {orbit.representative}"
                )

    def orbit_sums(n):
        # Each member's (ides + 1, des + 1), ides read as the descents of its
        # inverse, goes into its orbit's t-marginal and the bivariate sum;
        # the marginal is held to the class shape as orbit_descent_polynomial
        # holds it, and summed into the univariate sum.
        des = tables("descents", n)
        shapes: dict[int, tuple[UniPoly, list[int]]] = {}
        uni_counts = [0] * (n + 1)
        bi_counts: dict[tuple[int, int], int] = {}
        for orbit in tables("orbits", n):
            marginal = [0] * (n + 1)
            for u in orbit.members:
                b = des[u] + 1
                marginal[b] += 1
                key = (des[inverse(u)] + 1, b)
                bi_counts[key] = bi_counts.get(key, 0) + 1
            if orbit.peak_count not in shapes:
                shape = hopping.class_polynomial(n, orbit.peak_count)
                padded = list(shape.coeffs) + [0] * (n + 1 - len(shape.coeffs))
                shapes[orbit.peak_count] = shape, padded
            shape, padded = shapes[orbit.peak_count]
            if marginal != padded:
                raise ConsistencyError(
                    f"orbit of {orbit.representative} has descent polynomial "
                    f"{UniPoly.from_coeffs(marginal)}, expected {shape}"
                )
            for exp, c in enumerate(marginal):
                uni_counts[exp] += c
        triangle = tables("triangle")
        if UniPoly.from_coeffs(uni_counts) != eulerian.polynomial_from_row(triangle.row(n)):
            raise ConsistencyError(f"univariate orbit sum fails at n={n}")
        array = tables("arrays")[n - 1]
        if BiPoly.from_dict(bi_counts) != twosided.polynomial_from_table(array):
            raise ConsistencyError(f"bivariate orbit sum fails at n={n}")

    def census_gamma(n):
        census = hopping.orbit_census(n)
        row = tables("triangle").row(n)
        gv = eulerian.gamma_extract(eulerian.polynomial_from_row(row), n)
        expected = {
            i - 1: g for i, g in enumerate(gv.gammas, start=1) if g
        }
        if census != expected:
            raise ConsistencyError(f"n={n}: census {census} vs gamma {expected}")

    def golden(word):
        orbit = hopping.orbit_of(word)
        expected_uni = UniPoly.monomial(2) * (UniPoly.one() + UniPoly.monomial(1)) ** 6
        expected_bi = (
            BiPoly.monomial(3, 2)
            * (BiPoly.one() + BiPoly.monomial(0, 1)) ** 2
            * (BiPoly.one() + BiPoly.monomial(1, 1)) ** 4
        )
        if not (
            orbit.size == 64
            and hopping.orbit_descent_polynomial(orbit) == expected_uni
            and hopping.orbit_two_sided_polynomial(orbit) == expected_bi
        ):
            raise ConsistencyError(f"size {orbit.size}")

    return [
        _check(f"hops are involutions, move descents by one, and commute for n <= {n_small}",
               range(1, n_small + 1), hop_laws),
        _check(f"descents split into peaks plus double descents and valleys exceed "
               f"peaks by one for n <= {n_mid}", range(1, n_mid + 1), letter_classes),
        _check(f"peak, valley, and free sets are orbit invariants for n <= {n_small}",
               range(1, n_small + 1), invariants),
        _check(f"orbit generating functions sum to the full distributions for n <= {n_mid}",
               range(1, n_mid + 1), orbit_sums),
        _check(f"orbit census by peak count equals the gamma vector for n <= {n_census}",
               range(1, n_census + 1), census_gamma),
        _check("the orbit of 863247159 has 64 members with the documented generating functions",
               [(8, 6, 3, 2, 4, 7, 1, 5, 9)], golden, "size 64"),
    ]


def _orbits(n: int) -> list[hopping.Orbit]:
    """The hop classes of S_n, each built once, from its least member."""
    seen: set[Perm] = set()
    out = []
    for w in enumerate_sn(n):
        if w not in seen:
            orbit = hopping.orbit_of(w)
            seen.update(orbit.members)
            out.append(orbit)
    return out


def _descents(n: int) -> dict[Perm, int]:
    """descent_count of every word of S_n, in enumeration order."""
    return {w: descent_count(w) for w in enumerate_sn(n)}


def _hops(n: int) -> dict[Perm, dict[int, Perm]]:
    """hop(w, x) for every word w of S_n and free letter x of w."""
    return {
        w: {x: hopping.hop(w, x) for x in hopping.free_values(w)} for w in enumerate_sn(n)
    }


# ---------------------------------------------------------------------------


def suite_gessel(bounds: SuiteBounds) -> list[CheckReport]:
    n_max = _bound(bounds.n_max, 12)
    tables = _memo(arrays=lambda: twosided.two_sided_from_recurrence(n_max))
    smallest: dict[int, int] = {}

    def nonnegative(n):
        array = tables("arrays")[n - 1]
        expansion = twosided.gessel_solve(twosided.polynomial_from_table(array), n)
        if not expansion.nonnegative:
            negative = {k: v for k, v in expansion.gammas.items() if v < 0}
            raise ConsistencyError(f"n={n}: negative coefficients {negative}")
        smallest[n] = min(expansion.gammas.values())

    def worst() -> str:
        # min keeps the first n among ties
        n, value = min(smallest.items(), key=lambda item: item[1])
        return f"smallest coefficient seen: {value} at n={n}"

    return [
        _check(f"Gessel expansions are integral and nonnegative for n <= {n_max}",
               range(1, n_max + 1), nonnegative, worst),
    ]


# ---------------------------------------------------------------------------


SUITES = dict(zip(
    SUITE_ORDER,
    (suite_eulerian, suite_twosided, suite_boxes, suite_hopping, suite_gessel),
    strict=True,
))


def run_suite(name: str, bounds: SuiteBounds) -> list[CheckReport]:
    if name == "all":
        out = []
        for suite in SUITE_ORDER:
            out.extend(SUITES[suite](bounds))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](bounds)
