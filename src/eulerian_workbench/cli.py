"""Command-line surface tying the engines together.

Subcommands: stats, eulerian, two-sided, gamma, gessel, orbit, orbits,
series, verify. Data goes to stdout; progress, warnings, and timings go to
stderr. Output is deterministic: the same invocation produces the same
bytes, whatever the shard count. Brute force counts its shard blocks in
order in this process, one block unless --shards says otherwise; no
command starts a child process.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 guard rail.

Each flag goes only to the subcommands it acts on: --format to all of
them, --force to the seven guarded ones (all but stats and verify), and
--n/--n-max, --source, --cache and --shards to the four table commands;
any other flag exits 2. The parser checks counts: --n, --n-max and --shards
at least 1, series --terms at least 0. Every guard rail and work budget is
decided from the arguments before any work, through common.check_budget,
which --force lifts; Python's limit on int-to-str conversion is held the
same way but cannot be lifted.

All numbers inside JSON payloads are decimal strings so the schema never
changes shape when entries outgrow native integers. One writer, _json_text,
produces both JSON layouts byte for byte as the json module would: indented
for stdout and canonical (sorted keys, no spaces) for the cache. It writes
a list of digit strings with one join.

The tables behind eulerian, two-sided, gamma and gessel come from one
provider, _tables, behind one work budget shared with series (WORK_BUDGET).
Unless --source brute is given, one recurrence run up to the largest n
builds the tables, cache or no cache. Each entry is rendered to decimal
text at most once per invocation, and only the first half of a palindromic
row at all; that text feeds the cache and every output format, so stdout
never depends on the cache.

The cache directory (--cache or $EULERIAN_WORKBENCH_CACHE) keeps one file
per table, {kind}-n{n}.json, holding the table's JSON object in canonical
form and a newline, e.g. {"A":["1","4","1"],"n":"3"}. Nothing is parsed
from it: an entry is valid only when it holds exactly the bytes of the
recomputed table's line. Any other entry, a FIFO or a device among them
(opened without blocking, never read), is rejected with one warning and
rewritten: through a temporary file with a fresh random name, renamed into
place. A directory that cannot be written costs one warning.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import operator
import os
import stat
import sys
import time
from functools import cached_property
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import eulerian, hopping, twosided, verify
from .common import CheckReport, ConsistencyError, GuardRailError, check_budget
from .exactnum import binomial
from .perm import (
    SHARD_BUDGET,
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
# linearly with n. The recurrences up to n make n**2 products one-sided and
# n**3 two-sided; a series window adds n (K + 1), or n**2 (K + 1)**2 for the
# grid; gamma's peel adds n**2 / 4 per row and Gessel's peel and rebuild
# about n**4 / 10 per array (counted at n = 10..50). Calls at this bound
# took 0.2 to 5.5 s on a 2-vCPU host.
WORK_BUDGET = 2 * 10**8

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


# ---------------------------------------------------------------------------
# tables


class Table:
    """One n of a table kind ("eulerian" or "twosided"): integers and text.

    value is the Eulerian row (a tuple of ints) or the TwoSidedTable; obj is
    the JSON object {"n": ..., "A": ...} whose "A" holds the same entries as
    decimal strings, rendered on first use, once.
    """

    def __init__(self, kind: str, n: int, value):
        self.kind = kind
        self.n = n
        self.value = value

    @cached_property
    def obj(self) -> dict:
        if self.kind == "twosided":
            return twosided.table_to_obj(self.value)
        return eulerian.row_to_obj(self.n, self.value)

    @property
    def text(self) -> list:
        return self.obj["A"]

    def width(self) -> int:
        """Digits of the widest entry."""
        if self.kind == "twosided":
            return max(len(c) for row in self.text for c in row)
        return max(map(len, self.text))


def _check_table_budget(command: str, ns: range, force: bool) -> None:
    """Refuse a table command past WORK_BUDGET unless forced, and past
    Python's int-to-str limit in any case.

    Counts the recurrence up to the largest n, and for gamma and gessel the
    expansion of every requested n, as WORK_BUDGET describes; it decides
    from the arguments alone, before any table is built. Every entry is
    below n!, so that is the number the limit is held against.
    """
    top = ns[-1]
    work = top ** (3 if command in ("eulerian", "gamma") else 4)
    if work <= WORK_BUDGET:  # else top may be huge: no sum over ns
        if command == "gamma":
            work += sum(n**3 // 4 for n in ns)
        elif command == "gessel":
            work += sum(n**5 // 10 for n in ns)
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


def _tables(args, kind: str) -> list[Table]:
    """Tables of kind "eulerian" or "twosided" for the requested ns.

    Brute force never touches the cache; it counts --shards blocks, else
    one. Otherwise one recurrence run up to the largest n gives every
    table; the cache only stores their bytes.
    """
    ns = range(args.n, args.n + 1) if args.n else range(1, args.n_max + 1)
    _check_table_budget(args.command, ns, args.force)
    if args.source == "brute":
        brute = (
            eulerian.brute_force_rows if kind == "eulerian"
            else twosided.brute_force_tables
        )
        found = brute(ns, shards=args.shards or 1, force=args.force)
        return [Table(kind, n, found[n]) for n in ns]
    if kind == "eulerian":
        computed = eulerian.table_from_recurrence(ns[-1]).rows
    else:
        computed = twosided.two_sided_from_recurrence(ns[-1])
    tables = [Table(kind, n, computed[n - 1]) for n in ns]
    cache_dir = _cache_dir(args)
    if cache_dir:
        _pin_to_cache(cache_dir, tables)
    return tables


# ---------------------------------------------------------------------------
# cache


def _cache_dir(args) -> Path | None:
    cache = args.cache or os.environ.get(CACHE_ENV)
    return Path(cache) if cache else None


def _pin_to_cache(cache_dir: Path, tables: list[Table]) -> None:
    """Store each table's line unless its entry holds exactly those bytes,
    warning before replacing any other entry; stop at the first store that
    fails."""
    for table in tables:
        kind, n = table.kind, table.n
        line = _json_text(table.obj).encode() + b"\n"
        entry = cache_load(cache_dir, kind, n)
        if entry == line:
            continue
        if entry is not None:
            path = cache_dir / f"{kind}-n{n}.json"
            print(f"warning: cache entry {path} rejected (not the recomputed table); rewriting",
                  file=sys.stderr)
        try:
            cache_store(cache_dir, kind, n, line)
        except OSError as exc:
            print(
                f"warning: cache directory {cache_dir} cannot be written ({exc}); "
                "tables not stored",
                file=sys.stderr,
            )
            return


def cache_store(cache_dir: Path, kind: str, n: int, line: bytes) -> None:
    cache_dir.mkdir(parents=True, exist_ok=True)
    # a fresh random name, created exclusively, so concurrent writers never
    # share a temporary file; "x" mode keeps the umask's permissions
    tmp = cache_dir / f".{kind}-n{n}-{os.urandom(8).hex()}.tmp"
    f = open(tmp, "xb")
    try:
        with f:
            f.write(line)
        os.replace(tmp, cache_dir / f"{kind}-n{n}.json")
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cache_load(cache_dir: Path, kind: str, n: int) -> bytes | None:
    """The bytes of the entry for kind and n, or None when there is none.

    The entry is opened without blocking and read only if it is a regular
    file; any other entry (a FIFO, a device, a directory, one that cannot be
    opened) reads as b"", which matches no table.
    """
    try:
        f = open(cache_dir / f"{kind}-n{n}.json", "rb",
                 opener=lambda path, flags: os.open(path, flags | os.O_NONBLOCK))
    except (FileNotFoundError, NotADirectoryError):
        return None
    except OSError:  # a directory, or not readable
        return b""
    with f:
        return f.read() if stat.S_ISREG(os.fstat(f.fileno()).st_mode) else b""


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


def _json_text(obj, indent: int | None = None, level: int = 0) -> str:
    """obj as json.dumps(obj, indent=indent) writes it, for dicts with string
    keys, lists, strings and scalars; indent None means the canonical
    compact form, json.dumps(obj, sort_keys=True, separators=(",", ":")).

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
    if indent is None:
        sep, key_sep, open_, close = ",", ":", "", ""
    else:
        open_ = "\n" + " " * (indent * (level + 1))
        close = "\n" + " " * (indent * level)
        sep, key_sep = "," + open_, ": "
    if isinstance(obj, dict):
        items = obj.items() if indent is not None else sorted(obj.items())
        body = sep.join(
            f"{encode_basestring_ascii(key)}{key_sep}"
            f"{_json_text(value, indent, level + 1)}"
            for key, value in items
        )
        return f"{{{open_}{body}{close}}}"
    if _only_digits(obj):
        quoted = f'"{sep}"'.join(obj)
        body = f'"{quoted}"'
    else:
        body = sep.join(_json_text(item, indent, level + 1) for item in obj)
    return f"[{open_}{body}{close}]"


def _emit_json(payload) -> None:
    print(_json_text(payload, indent=2))


def _emit_csv(rows: list[list[str]]) -> None:
    """Write rows exactly as csv.writer(lineterminator="\n") would.

    A row is joined directly unless a field holds a delimiter, a quote or a
    line break, or the row is one empty field; only those rows go through
    csv.writer.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
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
            buf.write(line)
            buf.write("\n")
    sys.stdout.write(buf.getvalue())


def _aligned(label: str, cells, width: int) -> str:
    return "  ".join([label.ljust(width)] + [c.rjust(width) for c in cells]).rstrip()


def _print_triangle(rows: list[Table], corner: str) -> None:
    """Print the rows right-aligned in one width, a line at a time."""
    n_top = max(t.n for t in rows)
    width = max(max(t.width() for t in rows), len(corner), len(str(n_top)))
    print(_aligned(corner, [str(i) for i in range(1, n_top + 1)], width))
    for t in rows:
        print(_aligned(str(t.n), t.text, width))


def _square_text(table: Table) -> str:
    n = table.n
    width = max(table.width(), len("i\\j"), len(str(n)))
    header = [str(j) for j in range(1, n + 1)]
    lines = [f"n={n}", _aligned("i\\j", header, width)]
    lines.extend(
        _aligned(str(i), row, width) for i, row in enumerate(table.text, start=1)
    )
    return "\n".join(lines)


def _single_or_list(payload: list):
    return payload[0] if len(payload) == 1 else payload


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


def _cmd_stats(args) -> int:
    profiles = [(parse_permutation(text), None) for text in args.permutation]
    profiles = [(w, statistic_profile(w)) for w, _ in profiles]
    if args.format == "json":
        payload = [
            {
                "w": format_permutation(w),
                "des": str(p.des),
                "ides": str(p.ides),
                "inv": str(p.inv),
                "asc": str(p.asc),
                "exc": str(p.exc),
                "run": str(p.run),
            }
            for w, p in profiles
        ]
        _emit_json(_single_or_list(payload))
    elif args.format == "csv":
        rows = [["w", "des", "ides", "inv", "asc", "exc", "run"]]
        rows.extend(
            [
                format_permutation(w),
                str(p.des),
                str(p.ides),
                str(p.inv),
                str(p.asc),
                str(p.exc),
                str(p.run),
            ]
            for w, p in profiles
        )
        _emit_csv(rows)
    else:
        for _, p in profiles:
            print(
                f"des={p.des} ides={p.ides} inv={p.inv} "
                f"asc={p.asc} exc={p.exc} run={p.run}"
            )
    return EXIT_OK


def _cmd_eulerian(args) -> int:
    rows = _tables(args, "eulerian")
    if args.format == "json":
        _emit_json(_single_or_list([t.obj for t in rows]))
    elif args.format == "csv":
        n_top = max(t.n for t in rows)
        out = [["n\\i"] + [str(i) for i in range(1, n_top + 1)]]
        for t in rows:
            out.append([str(t.n)] + t.text + [""] * (n_top - t.n))
        _emit_csv(out)
    else:
        _print_triangle(rows, "n\\i")
    return EXIT_OK


def _cmd_two_sided(args) -> int:
    tables = _tables(args, "twosided")
    if args.format == "json":
        _emit_json(_single_or_list([t.obj for t in tables]))
    elif args.format == "csv":
        out: list[list[str]] = []
        for at, t in enumerate(tables):
            if at:
                out.append([])
            out.append([f"n={t.n}"])
            out.append(["i\\j"] + [str(j) for j in range(1, t.n + 1)])
            for i, row in enumerate(t.text, start=1):
                out.append([str(i)] + row)
        _emit_csv(out)
    else:
        print("\n\n".join(_square_text(t) for t in tables))
    return EXIT_OK


def _cmd_gamma(args) -> int:
    rows = _tables(args, "eulerian")
    enriched = [
        (t, eulerian.gamma_extract(eulerian.polynomial_from_row(t.value), t.n).gammas)
        for t in rows
    ]
    if args.format == "json":
        _emit_json(
            _single_or_list(
                [{**t.obj, "gamma": [str(g) for g in gamma]} for t, gamma in enriched]
            )
        )
    elif args.format == "csv":
        top = max((len(g) for _, g in enriched), default=0)
        out = [["n\\i"] + [str(i) for i in range(1, top + 1)]]
        for t, gamma in enriched:
            out.append([str(t.n)] + [str(g) for g in gamma] + [""] * (top - len(gamma)))
        _emit_csv(out)
    else:
        for t, gamma in enriched:
            body = ", ".join(str(g) for g in gamma)
            print(f"n={t.n}: gamma = [{body}]")
    return EXIT_OK


def _cmd_gessel(args) -> int:
    tables = _tables(args, "twosided")
    expanded = [
        (t, twosided.gessel_solve(twosided.polynomial_from_table(t.value), t.n))
        for t in tables
    ]
    if args.format == "json":
        _emit_json(
            _single_or_list(
                [
                    {
                        **t.obj,
                        "gamma": {
                            f"({i},{j})": str(e.gammas[(i, j)])
                            for i, j in sorted(e.gammas)
                        },
                        "gessel_nonnegative": e.nonnegative,
                    }
                    for t, e in expanded
                ]
            )
        )
    elif args.format == "csv":
        out = [["n", "i", "j", "gamma"]]
        for t, e in expanded:
            for (i, j) in sorted(e.gammas):
                out.append([str(t.n), str(i), str(j), str(e.gammas[(i, j)])])
        _emit_csv(out)
    else:
        for t, e in expanded:
            body = " ".join(
                f"gamma({i},{j})={e.gammas[(i, j)]}" for i, j in sorted(e.gammas)
            )
            verdict = "NONNEGATIVE" if e.nonnegative else "NEGATIVE"
            print(f"n={t.n}: {body} verdict={verdict}")
    return EXIT_OK


def _cmd_orbit(args) -> int:
    w = parse_permutation(args.permutation)
    hopping.check_orbit_budget(w, args.force)
    orbit = hopping.orbit_of(w)
    uni = hopping.orbit_descent_polynomial(orbit)
    bi = hopping.orbit_descent_polynomial(orbit, "bivariate")
    peaks = hopping.peak_values(w)
    valleys = hopping.valley_values(w)
    free = hopping.free_values(w)
    uni_text = hopping.factored_univariate(orbit)
    bi_text = hopping.factored_bivariate(bi) or str(bi)
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
                "uni_terms": uni.to_obj(),
                "bi_terms": bi.to_obj(),
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


def _cmd_series(args) -> int:
    n, terms = args.n, args.terms
    _check_series_budget(n, terms, args.bivariate, args.force)
    if args.bivariate:
        grid = twosided.grid_window(twosided.two_sided_from_recurrence(n)[n - 1], terms)
        ok = all(
            grid[k][l] == binomial(k * l + n - 1, n)
            for k in range(terms + 1)
            for l in range(terms + 1)
        )
        if args.format == "json":
            _emit_json(
                {
                    "n": str(n),
                    "kind": "grid",
                    "grid": [[str(c) for c in row] for row in grid],
                    "matches_closed_form": ok,
                }
            )
        elif args.format == "csv":
            out = [["k\\l"] + [str(l) for l in range(terms + 1)]]
            for k in range(terms + 1):
                out.append([str(k)] + [str(c) for c in grid[k]])
            _emit_csv(out)
        else:
            for row in grid:
                print(" ".join(str(c) for c in row))
            status = "match" if ok else "MISMATCH against"
            print(f"entries {status} binomial(kl+{n - 1},{n}) for k,l <= {terms}")
    else:
        window = eulerian.power_sum_window(eulerian.table_from_recurrence(n).row(n), terms)
        ok = all(c == k**n for k, c in enumerate(window))
        if args.format == "json":
            _emit_json(
                {
                    "n": str(n),
                    "kind": "power-sum",
                    "coefficients": [str(c) for c in window],
                    "matches_closed_form": ok,
                }
            )
        elif args.format == "csv":
            out = [["k", "coefficient"]]
            out.extend([str(k), str(c)] for k, c in enumerate(window))
            _emit_csv(out)
        else:
            print(" ".join(str(c) for c in window))
            status = "match" if ok else "MISMATCH against"
            print(f"coefficients {status} k^{n} for 0 <= k <= {terms}")
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_verify(args) -> int:
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
        help=f"table cache directory (default ${CACHE_ENV})",
    )
    tables.add_argument(
        "--shards", type=positive, metavar="N",
        help="shard blocks per n for brute-force enumeration, counted in order "
        f"in this process (default 1; past {SHARD_BUDGET} blocks over all n, --force)",
    )

    p = sub.add_parser("stats", parents=[formatted], help="statistics of permutations")
    p.add_argument("permutation", nargs="+", help="one-line notation")
    p.set_defaults(handler=_cmd_stats)

    for name, handler, text in (
        ("eulerian", _cmd_eulerian, "Eulerian triangle rows"),
        ("two-sided", _cmd_two_sided, "two-sided Eulerian arrays"),
        ("gamma", _cmd_gamma, "gamma vectors of rows"),
        ("gessel", _cmd_gessel, "Gessel-basis expansions and the verdict"),
    ):
        sub.add_parser(name, parents=[tables], help=text).set_defaults(handler=handler)

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
        choices=["all"] + verify.SUITE_ORDER,
        default="all",
    )
    p.add_argument("--n-max", type=positive, dest="n_max", help="size bound for the checks")
    p.add_argument("--k", type=positive, help="grid bound for Worpitzky-style checks")
    p.add_argument("--l", type=positive, help="second grid bound")
    p.add_argument("--terms", type=positive, help="series window size")
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except GuardRailError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ConsistencyError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
