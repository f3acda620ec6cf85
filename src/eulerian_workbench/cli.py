"""Command-line surface tying the engines together.

Subcommands: stats, eulerian, two-sided, gamma, gessel, orbit, orbits,
series, verify. Data goes to stdout; progress, warnings, and timings go to
stderr. Output is deterministic: the same invocation produces the same
bytes, whatever the shard count. Brute force counts each S_n whole in
this process; --shards is accepted and ignored, and no command starts a
child process.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 guard rail.
Only argparse and the permutation text that stats and orbit parse give exit
2; any other ValueError or ConsistencyError a command raises comes from a
table or identity that failed a check, and exits 1.

Each flag goes only to the subcommands it acts on: --format to all of
them, --force to the seven guarded ones (all but stats and verify), and
--n/--n-max, --source, --cache and --shards to the four table commands;
any other flag exits 2. The parser checks counts: --n, --n-max and --shards
at least 1, series --terms at least 0. Every guard rail and work budget is
decided from the arguments before any work, through common.check_budget,
which --force lifts; Python's limit on int-to-str conversion is held the
same way but cannot be lifted.

Rendering happens here alone: the engines return numbers, tuples and
polynomials, and the emitters below turn them into text, CSV and JSON. All
numbers inside JSON payloads are decimal strings, so the schema never
changes shape when entries outgrow native integers and no consumer ever
sees a float. A polynomial is {"var": "t", "terms": [[exp, "coeff"], ...]}
or {"var": "st", "terms": [[s_exp, t_exp, "coeff"], ...]}, exponents
ascending. One writer, _json_text, produces stdout's indented JSON byte for
byte as the json module would, writing a list of digit strings with one
join.

eulerian, two-sided, gamma and gessel run one pipeline, _cmd_table, in one
fixed sequence: the work budget, shared with series (WORK_BUDGET); then
every table built and certified; then every table expanded; then the
render. One record per command in TABLE_COMMANDS holds all that differs:
its builder, _rows or _arrays; its budget exponent; its expansion, none,
gamma or Gessel, with that expansion's work per n; and its renderer.
Unless --source brute is given, the rows and the arrays come from one
stream helper, _stream, over each table's recurrence: a --n-max range from
one run of its list builder up to the largest n, and every single --n from
table n - 1, each table before it built from table 1 and only the last one
kept. The rows are ints, except those the eulerian command prints, which
the same stream builds as integral Decimals in a context that traps any
rounding, since str() of a Decimal is linear in its digits and of an int
quadratic; series reads its one int row, or with --bivariate its one
array, from the same streams. Before any output, the builder checks
every table on the numbers it holds: every row sums to n! and is
palindromic, and every array totals n!, has both marginals equal to row n
of the row stream and equals its transpose and its antipodal image. On
recurrence tables the symmetry checks hold by construction, since each
recurrence computes one half of a row or one quarter of an array and
mirrors the rest; they still catch a --source brute table that breaks a
symmetry and any change to a table between its build and its print. gamma
and gessel build every expansion before any output too, and refuse one
with a negative coefficient, so a failed check leaves stdout empty. A
command then holds its tables and the text of one table at a time: it
renders a table's entries to decimal as it writes them, once each and
only the first half of a palindromic row or array at all. The triangle's
one column width is read off its entries, and so is each text square's,
which is then written a line at a time.

Tables are always recomputed: nothing is cached. --cache DIR and
$EULERIAN_WORKBENCH_CACHE are still accepted, so older invocations keep
their stdout and exit code, but either one only costs a table command one
warning line on stderr; nothing is read or created at that path.

run may be called any number of times in one process. The argument parser
is built once per process, on the first run, not at import, and every run
parses with it. Only the verify command imports verify, and boxes with it,
and only the eulerian command imports decimal, so no other command pays
to load them.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import operator
import os
import sys
import time
from collections.abc import Callable
from itertools import islice
from json.encoder import encode_basestring_ascii

from . import eulerian, hopping, twosided
from .common import SUITE_ORDER, CheckReport, ConsistencyError, GuardRailError, check_budget
from .perm import (
    StatProfile,
    descent_count,
    format_permutation,
    inverse_descent_count,
    parse_permutation,
    statistic_profile,
)

CACHE_ENV = "EULERIAN_WORKBENCH_CACHE"

# Entries a series window may hold without --force: K + 1 for --terms K, or
# (K + 1)**2 with --bivariate.
SERIES_WINDOW_BUDGET = 10**6
# Work a series or table call may do without --force, counted in
# coefficient products weighted by n, since every operand grows about
# linearly with n. The recurrences up to n are counted at n**2 products
# one-sided and n**3 two-sided, though they compute only half of each row
# and a quarter of each array and mirror the rest; a series window adds
# n (K + 1), or n**2 (K + 1)**2 for the grid; gamma's peel adds n**2 / 4 per
# row and Gessel's peel and rebuild about n**4 / 10 per array (counted at
# n = 10..50). The largest calls it admits, as child processes on a 2-vCPU
# host (median of 3, json): eulerian --n-max 584 0.68 s, gamma --n-max 233
# 0.32 s, two-sided --n-max 118 0.46 s, gessel --n-max 47 0.53 s. The
# recurrence and Gessel terms price work that has since become cheaper;
# re-pricing them changes exit codes and is left for the second Gessel
# route.
WORK_BUDGET = 2 * 10**8

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


# ---------------------------------------------------------------------------
# tables


def _check_table_budget(command: str, ns: range, force: bool) -> None:
    """Refuse a table command past WORK_BUDGET unless forced, and past
    Python's int-to-str limit in any case.

    Counts the recurrence up to the largest n, at the exponent of the
    command's record in TABLE_COMMANDS, and the record's expansion of every
    requested n, as WORK_BUDGET describes; it decides from the arguments
    alone, before any table is built. Every entry is below n!, so that is
    the number the limit is held against.
    """
    spec = TABLE_COMMANDS[command]
    top = ns[-1]
    work = top**spec.exponent
    if spec.expand_work and work <= WORK_BUDGET:  # else top may be huge: no sum over ns
        work += sum(map(spec.expand_work, ns))
    check_budget(f"weighted products for {command} up to n={top}", work, WORK_BUDGET, force)
    _check_printable(command, top, operator.mul)


def _check_printable(command: str, n: int, step) -> None:
    """Refuse, with no override, a call whose largest printed number would
    pass Python's limit on int-to-str conversion (none when it is 0).

    step(value, i) gives the bound on the numbers printed at size i from the
    one at i - 1, starting from 1. The budget is the largest size whose
    bound stays below 10**limit. The walk stops at n or just past the
    budget: at most n small products, far below the work it guards.
    """
    # Python 3.10 releases before 3.10.7 have no limit to read
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    bound, value = 10**limit, 1
    for i in range(1, n + 1):
        value = step(value, i)
        if value >= bound:
            check_budget(
                f"n for {command} under Python's {limit}-digit limit on "
                "int-to-str conversion", n, i - 1,
            )


def _stream(ns: range, build, generate, first, convert=lambda table: table) -> dict:
    """n -> table n of a recurrence, for the ns in ascending order.

    A range from 1 comes from one run of build, the recurrence's list
    builder, up to the largest n. A single n > 1 streams from table 1,
    first, by generate, the recurrence's generator: tables 2..n - 1 are
    built in turn, only the last of them kept, and that table alone goes
    through convert before the step to n.
    """
    if ns[0] == 1:
        return dict(zip(ns, build(ns[-1])))
    seed = first  # tables 2..n - 1 in turn, only the last one kept
    for seed in islice(generate(first), ns[0] - 2):
        pass
    return dict(zip(ns, generate(convert(seed))))


def _row_stream(ns: range, one=1) -> dict:
    """n -> row n of the triangle by _stream, in the number type of one.

    Rows 1..n_max come from one table_from_recurrence run from row 1,
    (one,). A single n > 1 streams from int row 1, and row n - 1 alone is
    converted, each mirrored pair once, since int-to-Decimal conversion is
    quadratic too and converting a row costs about what rendering it would.
    """
    return _stream(ns, lambda top: eulerian.table_from_recurrence(top, one=one).rows,
                   eulerian.recurrence_rows, (1,), lambda row: tuple(_mirrored(row, type(one))))


@contextlib.contextmanager
def _exact_decimal():
    """Decimal(1), under one context that traps rounding, inexact and
    invalid operations, at a precision far above the digits of any n! a
    command can print. Every entry of the triangle is an integer of
    exponent 0, so no fraction can arise, and a trapped signal means
    arithmetic that was not exact: ConsistencyError."""
    import decimal  # only the eulerian command pays for importing decimal

    traps = [decimal.Inexact, decimal.Rounded, decimal.InvalidOperation]
    try:
        with decimal.localcontext(decimal.Context(prec=decimal.MAX_PREC, traps=traps)):
            yield decimal.Decimal(1)
    except decimal.DecimalException as exc:
        raise ConsistencyError(
            f"decimal arithmetic on the triangle was not exact: {type(exc).__name__}"
        ) from None


def _rows(args, ns: range, in_decimal: bool = False) -> dict:
    """n -> row n of the triangle, for the ns in ascending order, once each
    row sums to n! and is palindromic; else ConsistencyError, raised before
    anything is printed.

    Brute force counts each S_n whole; --shards is ignored. Otherwise
    _row_stream builds the rows: in ints, or with in_decimal as integral
    Decimals, built and certified under _exact_decimal's context, since
    str() of a Decimal is linear in its digits and of an int quadratic.
    """
    with _exact_decimal() if in_decimal else contextlib.nullcontext(1) as one:
        if args.source == "brute":
            rows = eulerian.brute_force_rows(ns, force=args.force)
        else:
            rows = _row_stream(ns, one)
        for n in ns:
            eulerian.check_row_sum(n, rows[n])
            eulerian.check_row_symmetry(n, rows[n])
    return rows


def _array_stream(ns: range) -> dict:
    """n -> the TwoSidedTable of n by _stream: arrays 1..n_max from one
    two_sided_from_recurrence run, and a single n > 1 from array 1 by
    recurrence_arrays, array n - 1 the only one kept."""
    return _stream(ns, twosided.two_sided_from_recurrence, twosided.recurrence_arrays,
                   twosided.TwoSidedTable(1, ((1,),)))


def _arrays(args, ns: range) -> dict:
    """n -> the TwoSidedTable of n, for the ns in ascending order, once each
    array totals n!, has both marginals equal to row n of the one-sided
    recurrence, in ints from _row_stream, and equals its transpose and its
    antipodal image; else ConsistencyError, raised before anything is
    printed.

    Brute force counts each S_n whole; --shards is ignored. Otherwise
    _array_stream builds the arrays.
    """
    if args.source == "brute":
        arrays = twosided.brute_force_tables(ns, force=args.force)
    else:
        arrays = _array_stream(ns)
    rows = _row_stream(ns)
    for n in ns:
        twosided.check_array_sums(arrays[n], rows[n])
        twosided.check_symmetries(arrays[n])
    return arrays


def _nonnegative(what: str, n: int, expansion):
    """expansion, a GammaVector or GesselExpansion of n, unless it has a
    negative coefficient: then ConsistencyError. Both are theorems, for rows
    (Foata and Strehl) and for arrays (Lin, Electron. J. Combin. 23, 2016),
    so a negative coefficient is a fault, never a verdict to print."""
    if not expansion.nonnegative:
        raise ConsistencyError(f"n={n}: the {what} has a negative coefficient")
    return expansion


def _gamma(n: int, row: tuple):
    polynomial = eulerian.polynomial_from_row(row)
    return _nonnegative("gamma vector", n, eulerian.gamma_extract(polynomial, n))


def _gessel(n: int, table: twosided.TwoSidedTable):
    polynomial = twosided.polynomial_from_table(table)
    return _nonnegative("Gessel expansion", n, twosided.gessel_solve(polynomial, n))


# bench/spans.py binds these two names; no command calls them.
def cache_load(*args) -> None:
    pass


def cache_store(*args) -> None:
    pass


# ---------------------------------------------------------------------------
# emitters


def _only_digits(items) -> bool:
    """True when every item is a string of ASCII digits or empty.

    One join and one bytes scan, both at C speed, decide it for the whole
    list.
    """
    try:
        joined = "".join(items)
    except TypeError:  # an item that is not a string
        return False
    return not joined or (joined.isascii() and joined.encode().isdigit())


def _json_text(obj, level: int = 0) -> str:
    """obj as json.dumps(obj, indent=2) writes it, for dicts with string keys,
    lists, strings and scalars.

    A list of digit strings, the shape of every table payload, is written
    with one join, since such strings need no escaping. Any other string
    goes through the JSON module's C escaper and any other scalar through
    json.dumps.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if not isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    open_ = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level
    sep = "," + open_
    if isinstance(obj, dict):
        body = sep.join(
            f"{encode_basestring_ascii(key)}: {_json_text(value, level + 1)}"
            for key, value in obj.items()
        )
        return f"{{{open_}{body}{close}}}"
    if _only_digits(obj):
        quoted = f'"{sep}"'.join(obj)
        body = f'"{quoted}"'
    else:
        body = sep.join(_json_text(item, level + 1) for item in obj)
    return f"[{open_}{body}{close}]"


def _emit_json(payload) -> None:
    print(_json_text(payload))


def _emit_json_each(items: list, to_obj) -> None:
    """Write a command's JSON payload, to_obj(item) for each item: the one
    object alone when there is one item, else the list of them.

    Byte for byte what _emit_json writes, but a list goes out one object at
    a time, each rendered only as it is written.
    """
    if len(items) == 1:
        _emit_json(to_obj(items[0]))
        return
    write = sys.stdout.write
    write("[\n  ")
    for at, item in enumerate(items):
        if at:
            write(",\n  ")
        write(_json_text(to_obj(item), 1))
    write("\n]\n")


def _emit_csv(rows) -> None:
    """Write rows, lists of strings, exactly as csv.writer(lineterminator="\n")
    would, a row at a time, so rows may be a generator.

    A row is joined directly unless a field holds a delimiter, a quote or a
    line break, or the row is one empty field; only those rows go through
    csv.writer.
    """
    out = sys.stdout
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        line = ",".join(row)
        if (
            line.count(",") + 1 != len(row)
            or not line
            or '"' in line
            or "\r" in line
            or "\n" in line
        ):
            writer.writerow(row)
        else:
            out.write(line)
            out.write("\n")


def _emit_csv_triangle(top: int, rows) -> None:
    """Write the n\\i triangle: a header of 1..top, then each (n, cells) of
    rows, a generator if need be, padded with empty fields to top cells."""
    _emit_csv([["n\\i"] + [str(i) for i in range(1, top + 1)]])
    _emit_csv([str(n)] + cells + [""] * (top - len(cells)) for n, cells in rows)


# ---------------------------------------------------------------------------
# rendering


def _mirrored(values, convert) -> list:
    """values, a palindrome, with each mirrored pair converted once: only the
    first ceil(len/2) go through convert and the rest mirror them."""
    half = [convert(c) for c in values[: (len(values) + 1) // 2]]
    return half + half[: len(values) // 2][::-1]


def _half_text(values) -> list[str]:
    """values, a palindrome, as decimal strings, by _mirrored. A row passes
    check_row_symmetry first, an array check_symmetries."""
    return _mirrored(values, str)


def _array_text(table: twosided.TwoSidedTable) -> list[list[str]]:
    """The array's rows as decimal strings, from _half_text of the array read
    row by row, which its antipodal symmetry makes a palindrome."""
    n = table.n
    text = _half_text([c for row in table.entries for c in row])
    return [text[at : at + n] for at in range(0, n * n, n)]


def _factored_text(factors, sep: str = " ") -> str:
    """Each (name, exp) of factors as name or name^exp, exponent 0 left out,
    joined by sep; "1" when nothing is left."""
    parts = [name if exp == 1 else f"{name}^{exp}" for name, exp in factors if exp]
    return sep.join(parts) or "1"


def _aligned(label: str, cells, width: int) -> str:
    return "  ".join([label.ljust(width)] + [c.rjust(width) for c in cells]).rstrip()


def _square_lines(table: twosided.TwoSidedTable):
    """The text square of the array, a line at a time, each with its line
    break, the one column width read off every entry first."""
    n = table.n
    text = _array_text(table)
    width = max(max(len(c) for row in text for c in row), len("i\\j"), len(str(n)))
    yield f"n={n}\n"
    yield _aligned("i\\j", [str(j) for j in range(1, n + 1)], width) + "\n"
    for i, row in enumerate(text, start=1):
        yield _aligned(str(i), row, width) + "\n"


# ---------------------------------------------------------------------------
# report schema


def report_to_obj(suite: str, checks: list[CheckReport]) -> dict:
    return {
        "suite": suite,
        "checks": [
            {"description": c.description, "status": c.status, "detail": c.detail}
            for c in checks
        ],
        "status": "pass" if all(c.ok for c in checks) else "fail",
    }


# ---------------------------------------------------------------------------
# subcommands


def _usage_error(exc: ValueError) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_stats(args) -> int:
    try:
        words = [parse_permutation(text) for text in args.permutation]
    except ValueError as exc:
        return _usage_error(exc)
    names = [field.name for field in dataclasses.fields(StatProfile)]
    rows = [
        [format_permutation(w), *map(str, dataclasses.astuple(statistic_profile(w)))]
        for w in words
    ]
    if args.format == "json":
        _emit_json_each(rows, lambda row: dict(zip(["w", *names], row)))
    elif args.format == "csv":
        _emit_csv([["w", *names], *rows])
    else:
        for row in rows:
            print(" ".join(f"{name}={value}" for name, value in zip(names, row[1:])))
    return EXIT_OK


def _render_eulerian(fmt: str, rows: dict, expanded: None) -> None:
    n_top = max(rows)
    if fmt == "json":
        _emit_json_each(list(rows), lambda n: {"n": str(n), "A": _half_text(rows[n])})
    elif fmt == "csv":
        _emit_csv_triangle(n_top, ((n, _half_text(row)) for n, row in rows.items()))
    else:
        widest = max(map(max, rows.values()))
        width = max(len(str(widest)), len("n\\i"), len(str(n_top)))
        print(_aligned("n\\i", [str(i) for i in range(1, n_top + 1)], width))
        for n, row in rows.items():
            print(_aligned(str(n), _half_text(row), width))


def _render_two_sided(fmt: str, tables: dict, expanded: None) -> None:
    if fmt == "json":
        _emit_json_each(list(tables), lambda n: {"n": str(n), "A": _array_text(tables[n])})
    elif fmt == "csv":

        def lines():
            for at, (n, table) in enumerate(tables.items()):
                if at:
                    yield []
                yield [f"n={n}"]
                yield ["i\\j"] + [str(j) for j in range(1, n + 1)]
                for i, row in enumerate(_array_text(table), start=1):
                    yield [str(i)] + row

        _emit_csv(lines())
    else:
        for at, table in enumerate(tables.values()):
            if at:
                print()
            sys.stdout.writelines(_square_lines(table))


def _render_gamma(fmt: str, rows: dict, expanded: dict) -> None:
    gammas = {n: e.gammas for n, e in expanded.items()}
    if fmt == "json":
        _emit_json_each(
            list(rows),
            lambda n: {
                "n": str(n),
                "A": _half_text(rows[n]),
                "gamma": [str(g) for g in gammas[n]],
            },
        )
    elif fmt == "csv":
        _emit_csv_triangle(
            max(map(len, gammas.values())),
            ((n, [str(g) for g in gamma]) for n, gamma in gammas.items()),
        )
    else:
        for n, gamma in gammas.items():
            body = ", ".join(str(g) for g in gamma)
            print(f"n={n}: gamma = [{body}]")


def _render_gessel(fmt: str, tables: dict, expanded: dict) -> None:
    if fmt == "json":
        _emit_json_each(
            list(tables),
            lambda n: {
                "n": str(n),
                "A": _array_text(tables[n]),
                "gamma": {
                    f"({i},{j})": str(expanded[n].gammas[(i, j)])
                    for i, j in sorted(expanded[n].gammas)
                },
                "gessel_nonnegative": expanded[n].nonnegative,
            },
        )
    elif fmt == "csv":
        _emit_csv([["n", "i", "j", "gamma"]])
        _emit_csv(
            [str(n), str(i), str(j), str(e.gammas[(i, j)])]
            for n, e in expanded.items()
            for i, j in sorted(e.gammas)
        )
    else:
        for n, e in expanded.items():
            body = " ".join(
                f"gamma({i},{j})={e.gammas[(i, j)]}" for i, j in sorted(e.gammas)
            )
            print(f"n={n}: {body} verdict=NONNEGATIVE")


@dataclasses.dataclass(frozen=True)
class TableCommand:
    """What one table command does that the others do not; _cmd_table runs
    the rest, the same for all four."""

    help: str
    # (args, ns) -> n -> table, for the ns in ascending order, each certified
    build: Callable
    # the recurrence up to n costs n**exponent weighted products
    exponent: int
    # (fmt, tables, expanded) -> None, writing stdout
    render: Callable
    # (n, table) -> its expansion, checked nonnegative; None for no expansion
    expand: Callable | None = None
    # n -> the weighted products of one expansion
    expand_work: Callable | None = None


TABLE_COMMANDS = {
    "eulerian": TableCommand("Eulerian triangle rows", functools.partial(_rows, in_decimal=True),
                             3, _render_eulerian),
    "two-sided": TableCommand("two-sided Eulerian arrays", _arrays, 4, _render_two_sided),
    "gamma": TableCommand("gamma vectors of rows", _rows, 3, _render_gamma,
                          expand=_gamma, expand_work=lambda n: n**3 // 4),
    "gessel": TableCommand("Gessel-basis expansions and the verdict", _arrays, 4, _render_gessel,
                           expand=_gessel, expand_work=lambda n: n**5 // 10),
}


def _cmd_table(args) -> int:
    """Every table command, in one sequence: the budget, then every table
    built and certified, then every table expanded, then the render. A
    failed check anywhere before the render leaves stdout empty. A cache,
    if named, is noted as ignored and never touched."""
    spec = TABLE_COMMANDS[args.command]
    if args.cache or os.environ.get(CACHE_ENV):
        print(f"warning: --cache and ${CACHE_ENV} are ignored; tables are always recomputed",
              file=sys.stderr)
    ns = range(args.n, args.n + 1) if args.n else range(1, args.n_max + 1)
    _check_table_budget(args.command, ns, args.force)
    tables = spec.build(args, ns)
    expanded = {n: spec.expand(n, table) for n, table in tables.items()} if spec.expand else None
    spec.render(args.format, tables, expanded)
    return EXIT_OK


def _cmd_orbit(args) -> int:
    try:
        w = parse_permutation(args.permutation)
    except ValueError as exc:
        return _usage_error(exc)
    hopping.check_orbit_budget(w, args.force)
    orbit = hopping.orbit_of(w)
    uni = hopping.orbit_descent_polynomial(orbit)
    bi = hopping.orbit_two_sided_polynomial(orbit)
    peaks = hopping.peak_values(w)
    valleys = hopping.valley_values(w)
    free = hopping.free_values(w)
    p = orbit.peak_count
    uni_text = _factored_text([("t", p + 1), ("(1+t)", len(w) - 1 - 2 * p)], sep="")
    exps = hopping.factored_bivariate(bi)
    names = ("s", "t", "(1+s)", "(1+t)", "(1+st)")
    bi_text = str(bi) if exps is None else _factored_text(zip(names, exps))
    if args.format == "json":
        _emit_json(
            {
                "input": format_permutation(w),
                "representative": format_permutation(orbit.representative),
                "size": str(orbit.size),
                "peaks": [str(x) for x in peaks],
                "valleys": [str(x) for x in valleys],
                "free": [str(x) for x in free],
                "uni": uni_text,
                "bi": bi_text,
                "uni_terms": {
                    "var": "t",
                    "terms": [[e, str(c)] for e, c in enumerate(uni.coeffs) if c],
                },
                "bi_terms": {"var": "st", "terms": [[a, b, str(c)] for a, b, c in bi.terms]},
            }
        )
    elif args.format == "csv":
        out = [["member", "des", "ides"]]
        for member in orbit.members:
            out.append(
                [
                    format_permutation(member),
                    str(descent_count(member)),
                    str(inverse_descent_count(member)),
                ]
            )
        _emit_csv(out)
    else:
        print(f"input: {format_permutation(w)}")
        print(f"representative: {format_permutation(orbit.representative)}")
        print(f"size: {orbit.size}")
        print(f"peaks: {' '.join(str(x) for x in peaks) or '-'}")
        print(f"valleys: {' '.join(str(x) for x in valleys) or '-'}")
        print(f"free: {' '.join(str(x) for x in free) or '-'}")
        print(f"descents: {uni_text} = {uni}")
        print(f"two-sided: {bi_text} = {bi}")
    return EXIT_OK


def _cmd_orbits(args) -> int:
    census = hopping.orbit_census(args.n, force=args.force)
    if args.format == "json":
        _emit_json(
            {
                "n": str(args.n),
                "classes": {str(p): str(c) for p, c in sorted(census.items())},
            }
        )
    elif args.format == "csv":
        out = [["peaks", "classes"]]
        out.extend([str(p), str(c)] for p, c in sorted(census.items()))
        _emit_csv(out)
    else:
        for p, c in sorted(census.items()):
            print(f"peaks={p}: {c}")
        print(f"total classes: {sum(census.values())}")
    return EXIT_OK


def _check_series_budget(n: int, terms: int, bivariate: bool, force: bool) -> None:
    """Refuse a series call past either budget unless forced, and past
    Python's int-to-str limit in any case: the largest number printed is
    terms**n, or binomial(terms**2 + n - 1, n) with bivariate (1 at most for
    terms below 2)."""
    entries = (terms + 1) ** 2 if bivariate else terms + 1
    check_budget("entries in the series window", entries, SERIES_WINDOW_BUDGET, force)
    work = n ** (3 if bivariate else 2) * (entries + n)
    check_budget(f"weighted products for series at n={n}", work, WORK_BUDGET, force)
    cells = terms * terms
    _check_printable(
        "series",
        n if terms > 1 else 0,
        (lambda value, i: value * (cells + i - 1) // i) if bivariate
        else (lambda value, i: value * terms),
    )


def _passes(check, *args) -> bool:
    """Whether check(*args), an engine check, finds no ConsistencyError."""
    try:
        check(*args)
    except ConsistencyError:
        return False
    return True


def _cmd_series(args) -> int:
    n, terms = args.n, args.terms
    _check_series_budget(n, terms, args.bivariate, args.force)
    if args.bivariate:
        grid = twosided.grid_window(_array_stream(range(n, n + 1))[n], terms)
        ok = _passes(twosided.check_grid_window, n, grid)
        cells = [[str(c) for c in row] for row in grid]
        lines = [" ".join(row) for row in cells]
        subject, closed_form = "entries", f"binomial(kl+{n - 1},{n}) for k,l <= {terms}"
        payload = {"kind": "grid", "grid": cells}
        table = [["k\\l"] + [str(l) for l in range(terms + 1)]]
        table += [[str(k)] + row for k, row in enumerate(cells)]
    else:
        window = eulerian.power_sum_window(_row_stream(range(n, n + 1))[n], terms)
        ok = _passes(eulerian.check_power_sum_window, n, window)
        cells = [str(c) for c in window]
        lines = [" ".join(cells)]
        subject, closed_form = "coefficients", f"k^{n} for 0 <= k <= {terms}"
        payload = {"kind": "power-sum", "coefficients": cells}
        table = [["k", "coefficient"]] + [[str(k), c] for k, c in enumerate(cells)]
    if args.format == "json":
        _emit_json({"n": str(n), **payload, "matches_closed_form": ok})
    elif args.format == "csv":
        _emit_csv(table)
    else:
        print("\n".join(lines))
        print(subject, "match" if ok else "MISMATCH against", closed_form)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_verify(args) -> int:
    from . import verify  # only this command pays for importing verify and boxes

    bounds = verify.SuiteBounds(
        n_max=args.n_max, k_max=args.k, l_max=args.l, terms=args.terms
    )
    start = time.monotonic()
    checks = verify.run_suite(args.suite, bounds)
    elapsed = time.monotonic() - start
    ok = all(c.ok for c in checks)
    if args.format == "json":
        _emit_json(report_to_obj(args.suite, checks))
    elif args.format == "csv":
        out = [["status", "description", "detail"]]
        out.extend([c.status, c.description, c.detail] for c in checks)
        _emit_csv(out)
    else:
        for c in checks:
            line = f"[{'PASS' if c.ok else 'FAIL'}] {c.description}"
            if c.detail:
                line += f" :: {c.detail}"
            print(line)
        passed = sum(1 for c in checks if c.ok)
        print(f"suite {args.suite}: {passed}/{len(checks)} checks passed")
    print(f"suite {args.suite} finished in {elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK if ok else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# parser


def _at_least(k: int):
    """The argparse type of an int no smaller than k."""

    def parse(text: str) -> int:
        value = int(text)
        if value < k:
            raise argparse.ArgumentTypeError(f"must be at least {k}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its invalid-value message
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerian-workbench",
        description=(
            "Exact Eulerian and two-sided Eulerian numbers, with independent "
            "cross-checks, gamma vectors, and valley-hopping orbits."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    positive = _at_least(1)

    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument(
        "--format", choices=["text", "csv", "json"], default="text",
        help="output format (default text)",
    )
    guarded = argparse.ArgumentParser(add_help=False, parents=[formatted])
    guarded.add_argument(
        "--force", action="store_true",
        help="lift the guard rails and work budgets (not Python's limit on "
        "int-to-str conversion)",
    )
    tables = argparse.ArgumentParser(add_help=False, parents=[guarded])
    group = tables.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=positive, help="single n")
    group.add_argument("--n-max", type=positive, dest="n_max", help="all n up to this")
    tables.add_argument("--source", choices=["recurrence", "brute"], default="recurrence")
    tables.add_argument(
        "--cache", metavar="DIR",
        help=f"ignored, as is ${CACHE_ENV}: tables are always recomputed "
        "(one warning on stderr)",
    )
    tables.add_argument(
        "--shards", type=positive, metavar="N",
        help="accepted and ignored: each S_n is counted whole, so N changes "
        "no output",
    )

    p = sub.add_parser("stats", parents=[formatted], help="statistics of permutations")
    p.add_argument("permutation", nargs="+", help="one-line notation")
    p.set_defaults(handler=_cmd_stats)

    for name, spec in TABLE_COMMANDS.items():
        sub.add_parser(name, parents=[tables], help=spec.help).set_defaults(handler=_cmd_table)

    p = sub.add_parser("orbit", parents=[guarded], help="hop orbit of a permutation")
    p.add_argument("permutation", help="one-line notation")
    p.set_defaults(handler=_cmd_orbit)

    p = sub.add_parser("orbits", parents=[guarded], help="orbit census by peak count")
    p.add_argument("--n", type=positive, required=True)
    p.set_defaults(handler=_cmd_orbits)

    p = sub.add_parser(
        "series", parents=[guarded], help="series windows of the closed products"
    )
    p.add_argument("--n", type=positive, required=True)
    p.add_argument("--terms", type=_at_least(0), default=10, metavar="K")
    p.add_argument(
        "--bivariate", action="store_true", help="use the two-variable grid window"
    )
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("verify", parents=[formatted], help="run a verification suite")
    p.add_argument(
        "--suite",
        choices=["all"] + SUITE_ORDER,
        default="all",
    )
    p.add_argument("--n-max", type=positive, dest="n_max", help="size bound for the checks")
    p.add_argument("--k", type=positive, help="grid bound for Worpitzky-style checks")
    p.add_argument("--l", type=positive, help="second grid bound")
    p.add_argument("--terms", type=positive, help="series window size")
    p.set_defaults(handler=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first run. Parsing leaves it
    as it was, and argparse reads stdout, stderr and the terminal width
    only when it writes help or an error, so every run may share it."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except GuardRailError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ConsistencyError, ValueError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


def main() -> None:
    """The console script: run argv, and let a reader that closes stdout
    early end the process by SIGPIPE, as it ends any Unix filter, with no
    traceback. In-process callers of run keep Python's own handling."""
    import signal

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
