"""Command-line surface tying the engines together.

Subcommands: stats, eulerian, two-sided, gamma, gessel, orbit, orbits,
series, verify. Data goes to stdout; progress, warnings, and timings go to
stderr. Output is deterministic: the same invocation produces the same
bytes, whatever the shard count.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 guard rail.

All numbers inside JSON payloads are decimal strings so the schema never
changes shape when entries outgrow native integers.

The cache directory (--cache or $EULERIAN_WORKBENCH_CACHE) stores verified
recurrence tables as JSON with a checksum; entries failing the checksum or
the row-sum revalidation are rejected with a warning and recomputed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
from math import factorial
from pathlib import Path

from . import eulerian, hopping, twosided, verify
from .common import CheckReport, ConsistencyError, GuardRailError
from .exactnum import (
    UniPoly,
    binomial,
    geometric_power_window,
    series_product,
    series_product_bivariate,
)
from .perm import format_permutation, parse_permutation, statistic_profile

CACHE_ENV = "EULERIAN_WORKBENCH_CACHE"

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


# ---------------------------------------------------------------------------
# cache


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def cache_store(cache_dir: Path, kind: str, n: int, payload: dict) -> None:
    cache_dir.mkdir(parents=True, exist_ok=True)
    body = {
        "payload": payload,
        "sha256": hashlib.sha256(_canonical(payload)).hexdigest(),
    }
    path = cache_dir / f"{kind}-n{n}.json"
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(body, indent=2) + "\n")
    os.replace(tmp, path)


def cache_load(cache_dir: Path, kind: str, n: int):
    """Load a verified table, or None (with a stderr warning) if unusable."""
    path = cache_dir / f"{kind}-n{n}.json"
    if not path.exists():
        return None
    try:
        body = json.loads(path.read_text())
        payload = body["payload"]
        if hashlib.sha256(_canonical(payload)).hexdigest() != body["sha256"]:
            raise ValueError("checksum mismatch")
        if kind == "eulerian":
            n_got, row, _ = eulerian.row_from_obj(payload)
            if n_got != n or sum(row) != factorial(n):
                raise ValueError("row fails revalidation")
            return row
        if kind == "twosided":
            table = twosided.table_from_obj(payload)
            if table.n != n or table.total() != factorial(n):
                raise ValueError("array fails revalidation")
            return table
        raise ValueError(f"unknown cache kind {kind}")
    except Exception as exc:
        print(
            f"warning: cache entry {path} rejected ({exc}); recomputing",
            file=sys.stderr,
        )
        return None


def _cache_dir(args) -> Path | None:
    if getattr(args, "cache", None):
        return Path(args.cache)
    env = os.environ.get(CACHE_ENV)
    return Path(env) if env else None


def _effective_shards(args) -> int:
    if getattr(args, "shards", None) is not None:
        if args.shards < 1:
            raise ValueError("--shards must be positive")
        return args.shards
    if getattr(args, "source", "recurrence") == "brute":
        return os.cpu_count() or 1
    return 1


# ---------------------------------------------------------------------------
# table providers


def _requested_ns(args) -> list[int]:
    if args.n is not None:
        if args.n < 1:
            raise ValueError("--n must be at least 1")
        return [args.n]
    if args.n_max < 1:
        raise ValueError("--n-max must be at least 1")
    return list(range(1, args.n_max + 1))


def _eulerian_rows(args, ns: list[int]) -> list[tuple[int, tuple[int, ...]]]:
    if args.source == "brute":
        rows = eulerian.brute_force_rows(
            ns, shards=_effective_shards(args), force=args.force
        )
        return [(n, rows[n]) for n in ns]
    cache_dir = _cache_dir(args)
    out: dict[int, tuple[int, ...]] = {}
    missing = []
    for n in ns:
        row = cache_load(cache_dir, "eulerian", n) if cache_dir else None
        if row is None:
            missing.append(n)
        else:
            out[n] = row
    if missing:
        table = eulerian.table_from_recurrence(max(missing))
        for n in missing:
            out[n] = table.row(n)
            if cache_dir:
                cache_store(cache_dir, "eulerian", n, eulerian.row_to_obj(n, out[n]))
    return [(n, out[n]) for n in ns]


def _two_sided_tables(args, ns: list[int]) -> list[twosided.TwoSidedTable]:
    if args.source == "brute":
        tables = twosided.brute_force_tables(
            ns, shards=_effective_shards(args), force=args.force
        )
        return [tables[n] for n in ns]
    cache_dir = _cache_dir(args)
    out: dict[int, twosided.TwoSidedTable] = {}
    missing = []
    for n in ns:
        table = cache_load(cache_dir, "twosided", n) if cache_dir else None
        if table is None:
            missing.append(n)
        else:
            out[n] = table
    if missing:
        computed = twosided.two_sided_from_recurrence(max(missing))
        for n in missing:
            out[n] = computed[n - 1]
            if cache_dir:
                cache_store(cache_dir, "twosided", n, twosided.table_to_obj(out[n]))
    return [out[n] for n in ns]


# ---------------------------------------------------------------------------
# emitters


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _emit_csv(rows: list[list[str]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _triangle_text(rows: list[tuple[int, tuple[int, ...]]], corner: str) -> str:
    n_top = max(n for n, _ in rows)
    width = max(len(str(c)) for _, row in rows for c in row)
    width = max(width, len(corner), len(str(n_top)))
    lines = [
        "  ".join(
            [corner.ljust(width)] + [str(i).rjust(width) for i in range(1, n_top + 1)]
        ).rstrip()
    ]
    for n, row in rows:
        lines.append(
            "  ".join(
                [str(n).ljust(width)] + [str(c).rjust(width) for c in row]
            ).rstrip()
        )
    return "\n".join(lines)


def _square_text(table: twosided.TwoSidedTable) -> str:
    n = table.n
    width = max(len(str(c)) for row in table.entries for c in row)
    width = max(width, len("i\\j"), len(str(n)))
    lines = [f"n={n}"]
    lines.append(
        "  ".join(
            ["i\\j".ljust(width)] + [str(j).rjust(width) for j in range(1, n + 1)]
        ).rstrip()
    )
    for i, row in enumerate(table.entries, start=1):
        lines.append(
            "  ".join(
                [str(i).ljust(width)] + [str(c).rjust(width) for c in row]
            ).rstrip()
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


def report_from_obj(obj: dict) -> tuple[str, list[CheckReport]]:
    checks = [
        CheckReport(c["status"] == "pass", c["description"], c.get("detail", ""))
        for c in obj["checks"]
    ]
    return obj["suite"], checks


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
    rows = _eulerian_rows(args, _requested_ns(args))
    if args.format == "json":
        _emit_json(_single_or_list([eulerian.row_to_obj(n, row) for n, row in rows]))
    elif args.format == "csv":
        n_top = max(n for n, _ in rows)
        out = [["n\\i"] + [str(i) for i in range(1, n_top + 1)]]
        for n, row in rows:
            out.append([str(n)] + [str(c) for c in row] + [""] * (n_top - n))
        _emit_csv(out)
    else:
        print(_triangle_text(rows, "n\\i"))
    return EXIT_OK


def _cmd_two_sided(args) -> int:
    tables = _two_sided_tables(args, _requested_ns(args))
    if args.format == "json":
        _emit_json(_single_or_list([twosided.table_to_obj(t) for t in tables]))
    elif args.format == "csv":
        out: list[list[str]] = []
        for at, t in enumerate(tables):
            if at:
                out.append([])
            out.append([f"n={t.n}"])
            out.append(["i\\j"] + [str(j) for j in range(1, t.n + 1)])
            for i, row in enumerate(t.entries, start=1):
                out.append([str(i)] + [str(c) for c in row])
        _emit_csv(out)
    else:
        print("\n\n".join(_square_text(t) for t in tables))
    return EXIT_OK


def _cmd_gamma(args) -> int:
    rows = _eulerian_rows(args, _requested_ns(args))
    enriched = []
    for n, row in rows:
        gv = eulerian.gamma_extract(UniPoly.from_coeffs((0,) + row), n)
        enriched.append((n, row, gv.gammas))
    if args.format == "json":
        _emit_json(
            _single_or_list(
                [eulerian.row_to_obj(n, row, gamma) for n, row, gamma in enriched]
            )
        )
    elif args.format == "csv":
        top = max((len(g) for _, _, g in enriched), default=0)
        out = [["n\\i"] + [str(i) for i in range(1, top + 1)]]
        for n, _, gamma in enriched:
            out.append([str(n)] + [str(g) for g in gamma] + [""] * (top - len(gamma)))
        _emit_csv(out)
    else:
        for n, _, gamma in enriched:
            body = ", ".join(str(g) for g in gamma)
            print(f"n={n}: gamma = [{body}]")
    return EXIT_OK


def _cmd_gessel(args) -> int:
    tables = _two_sided_tables(args, _requested_ns(args))
    expanded = [
        (t, twosided.gessel_solve(twosided.polynomial_from_table(t), t.n))
        for t in tables
    ]
    if args.format == "json":
        _emit_json(
            _single_or_list([twosided.table_to_obj(t, e) for t, e in expanded])
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
    orbit = hopping.orbit_of(w)
    uni = hopping.orbit_descent_polynomial(orbit)
    bi = hopping.orbit_descent_polynomial(orbit, "bivariate")
    kinds = hopping.classify_letters(w)
    peaks = [x for x, k in zip(w, kinds) if k == hopping.PEAK]
    valleys = [x for x, k in zip(w, kinds) if k == hopping.VALLEY]
    free = [
        x
        for x, k in zip(w, kinds)
        if k in (hopping.DOUBLE_ASCENT, hopping.DOUBLE_DESCENT)
    ]
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
        from .perm import descent_count, inverse_descent_count

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
    if args.n is None or args.n < 1:
        raise ValueError("--n must be at least 1")
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


def _cmd_series(args) -> int:
    n, terms = args.n, args.terms
    if n is None or n < 1:
        raise ValueError("--n must be at least 1")
    if terms < 0:
        raise ValueError("--terms must be nonnegative")
    if args.bivariate:
        poly = twosided.two_sided_polynomial(n)
        window = geometric_power_window(n + 1, terms)
        grid = series_product_bivariate(poly, window, window)
        ok = all(
            grid.coeffs[k][l] == binomial(k * l + n - 1, n)
            for k in range(terms + 1)
            for l in range(terms + 1)
        )
        if args.format == "json":
            _emit_json(
                {
                    "n": str(n),
                    "kind": "grid",
                    "grid": [[str(c) for c in row] for row in grid.coeffs],
                    "matches_closed_form": ok,
                }
            )
        elif args.format == "csv":
            out = [["k\\l"] + [str(l) for l in range(terms + 1)]]
            for k in range(terms + 1):
                out.append([str(k)] + [str(c) for c in grid.coeffs[k]])
            _emit_csv(out)
        else:
            for row in grid.coeffs:
                print(" ".join(str(c) for c in row))
            status = "match" if ok else "MISMATCH against"
            print(f"entries {status} binomial(kl+{n - 1},{n}) for k,l <= {terms}")
    else:
        poly = eulerian.eulerian_polynomial(n)
        window = series_product(poly, geometric_power_window(n + 1, terms))
        ok = all(c == k**n for k, c in enumerate(window.coeffs))
        if args.format == "json":
            _emit_json(
                {
                    "n": str(n),
                    "kind": "power-sum",
                    "coefficients": [str(c) for c in window.coeffs],
                    "matches_closed_form": ok,
                }
            )
        elif args.format == "csv":
            out = [["k", "coefficient"]]
            out.extend([str(k), str(c)] for k, c in enumerate(window.coeffs))
            _emit_csv(out)
        else:
            print(" ".join(str(c) for c in window.coeffs))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerian-workbench",
        description=(
            "Exact Eulerian and two-sided Eulerian numbers, with independent "
            "cross-checks, gamma vectors, and valley-hopping orbits."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format", choices=["text", "csv", "json"], default="text",
        help="output format (default text)",
    )
    shared.add_argument(
        "--cache", metavar="DIR",
        help=f"table cache directory (default ${CACHE_ENV})",
    )
    shared.add_argument(
        "--shards", type=int, metavar="N",
        help="shard count for brute-force enumeration; worker processes "
        "are capped at the cpu count (default: cpu count)",
    )
    shared.add_argument(
        "--force", action="store_true",
        help="override the enumeration guard rails",
    )

    def add_range(p, require=True):
        group = p.add_mutually_exclusive_group(required=require)
        group.add_argument("--n", type=int, help="single n")
        group.add_argument("--n-max", type=int, dest="n_max", help="all n up to this")
        p.set_defaults(n=None, n_max=None)

    p = sub.add_parser("stats", parents=[shared], help="statistics of permutations")
    p.add_argument("permutation", nargs="+", help="one-line notation")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("eulerian", parents=[shared], help="Eulerian triangle rows")
    add_range(p)
    p.add_argument("--source", choices=["recurrence", "brute"], default="recurrence")
    p.set_defaults(handler=_cmd_eulerian)

    p = sub.add_parser(
        "two-sided", parents=[shared], help="two-sided Eulerian arrays"
    )
    add_range(p)
    p.add_argument("--source", choices=["recurrence", "brute"], default="recurrence")
    p.set_defaults(handler=_cmd_two_sided)

    p = sub.add_parser("gamma", parents=[shared], help="gamma vectors of rows")
    add_range(p)
    p.add_argument("--source", choices=["recurrence", "brute"], default="recurrence")
    p.set_defaults(handler=_cmd_gamma)

    p = sub.add_parser(
        "gessel", parents=[shared], help="Gessel-basis expansions and the verdict"
    )
    add_range(p)
    p.add_argument("--source", choices=["recurrence", "brute"], default="recurrence")
    p.set_defaults(handler=_cmd_gessel)

    p = sub.add_parser("orbit", parents=[shared], help="hop orbit of a permutation")
    p.add_argument("permutation", help="one-line notation")
    p.set_defaults(handler=_cmd_orbit)

    p = sub.add_parser("orbits", parents=[shared], help="orbit census by peak count")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_orbits)

    p = sub.add_parser(
        "series", parents=[shared], help="series windows of the closed products"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--terms", type=int, default=10, metavar="K")
    p.add_argument(
        "--bivariate", action="store_true", help="use the two-variable grid window"
    )
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("verify", parents=[shared], help="run a verification suite")
    p.add_argument(
        "--suite",
        choices=["all"] + verify.SUITE_ORDER,
        default="all",
    )
    p.add_argument("--n-max", type=int, dest="n_max", help="size bound for the checks")
    p.add_argument("--k", type=int, help="grid bound for Worpitzky-style checks")
    p.add_argument("--l", type=int, help="second grid bound")
    p.add_argument("--terms", type=int, help="series window size")
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
