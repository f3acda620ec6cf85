"""Spans and counters recorded around calls into the package's public API.

Nothing under src/ is edited. For a traced pass, Instrumentation replaces the
public functions of each module with wrappers, in every module namespace that
holds them, and puts the originals back afterwards. A span is
[name, start, end, parent]; spans stay in memory until the run ends. A
layer's self time is its span minus the time its child spans cover.

Functions called millions of times in a pass (hopping.hop) only bump a
counter, so that the traced pass still finishes within the run.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from math import comb, factorial
from pathlib import Path

MODULES = ("exactnum", "perm", "boxes", "eulerian", "twosided", "hopping", "verify", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def span(self, name: str, fn, after=None):
        """Wrap fn so each call records a span; after(result, *args) may count."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            record = [name, time.perf_counter(), 0.0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


class Instrumentation:
    """Context manager that swaps wrappers in for the package's public calls."""

    def __init__(self, tracer: Tracer, package):
        self.tracer = tracer
        self.package = package
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch(self, fn, wrapper):
        """Replace fn in every package module that binds it by name."""
        for module in [self.package] + [getattr(self.package, m) for m in MODULES]:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def _span(self, module, attr, after=None):
        fn = getattr(module, attr)
        short = module.__name__.rsplit(".", 1)[-1]
        self._patch(fn, self.tracer.span(f"{short}.{attr}", fn, after))

    def __enter__(self):
        pkg, counts = self.package, self.tracer.counts
        ex, perm, boxes = pkg.exactnum, pkg.perm, pkg.boxes
        eul, two, hop, ver, cli = pkg.eulerian, pkg.twosided, pkg.hopping, pkg.verify, pkg.cli

        # exactnum: __rmul__ is the same function as __mul__, so both names
        # share one wrapper and one span name.
        for cls, short in ((ex.UniPoly, "unipoly"), (ex.BiPoly, "bipoly")):
            mul = self.tracer.span(f"exactnum.{short}.mul", cls.__mul__)
            self._set(cls, "__mul__", mul)
            self._set(cls, "__rmul__", mul)
            self._set(cls, "__pow__", self.tracer.span(f"exactnum.{short}.pow", cls.__pow__))

        def linear(result, rows, n_unknowns):
            counts["twosided.gessel_unknowns"] += n_unknowns
            counts["twosided.gessel_equations"] += len(rows)

        self._span(ex, "solve_exact_linear", linear)
        for attr in ("sturm_negative_root_count", "geometric_power_window",
                     "series_product", "series_product_bivariate"):
            self._span(ex, attr)

        def streamed(result, n, shard=None, force=False):
            if shard is None:
                counts["perm.perms"] += factorial(n)
            else:
                index, total = shard
                counts["perm.perms"] += (index + 1) * factorial(n) // total - index * factorial(n) // total

        self._span(perm, "enumerate_sn", streamed)
        self._span(perm, "parse_permutation")
        self._span(perm, "statistic_profile")

        def brute(prefix):
            # Pool workers stream in their own processes, where spans are lost;
            # count their permutations here instead.
            def after(result, ns, shards=1, force=False):
                perms = sum(factorial(n) for n in ns)
                counts[f"{prefix}.brute_perms"] += perms
                if shards > 1:
                    counts["perm.perms"] += perms
            return after

        self._span(eul, "brute_force_rows", brute("eulerian"))
        self._span(two, "brute_force_tables", brute("twosided"))
        for module in (eul, two):
            self._set(module, "ProcessPoolExecutor", _counting_pool(counts, module))

        for attr in ("table_from_recurrence", "eulerian_polynomial", "gamma_extract",
                     "worpitzky_identity", "verify_power_sum_series",
                     "verify_polynomial_recurrence"):
            self._span(eul, attr)
        for attr in ("two_sided_from_recurrence", "two_sided_polynomial", "gessel_solve",
                     "verify_grid_series", "worpitzky_grid_identity",
                     "verify_bivariate_recurrence", "check_symmetries"):
            self._span(two, attr)

        def census(result, n, force=False):
            counts["hopping.census_perms"] += factorial(n)
            counts["hopping.orbits"] += sum(result.values())

        def orbit(result, w):
            counts["hopping.orbits"] += 1

        self._span(hop, "orbit_census", census)
        self._span(hop, "orbit_of", orbit)
        self._span(hop, "orbit_descent_polynomial")
        self._patch(hop.hop, self.tracer.counter("hopping.hop_calls", hop.hop))

        def barred(result, n, k):
            counts["boxes.placements"] += k**n

        def grid(result, n, columns, rows):
            counts["boxes.placements"] += comb(columns * rows + n - 1, n)

        self._span(boxes, "oracle_barred_census", barred)
        self._span(boxes, "oracle_two_sided_census", grid)

        def checks(result, name, bounds):
            counts["verify.checks"] += len(result)
            counts["verify.checks_failed"] += sum(1 for c in result if not c.ok)

        self._span(ver, "run_suite", checks)
        for suite, fn in list(ver.SUITES.items()):
            self._set_item(ver.SUITES, suite, self.tracer.span(f"verify.suite.{suite}", fn))

        self._span(cli, "run")
        self._patch(cli.cache_load, self._cache_load(cli.cache_load))

        def stored(result, cache_dir, kind, n, payload):
            counts["cli.cache_bytes_written"] += (Path(cache_dir) / f"{kind}-n{n}.json").stat().st_size

        self._span(cli, "cache_store", stored)
        return self

    def _set_item(self, mapping, key, value):
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def _cache_load(self, fn):
        counts = self.tracer.counts

        def load(cache_dir, kind, n):
            path = Path(cache_dir) / f"{kind}-n{n}.json"
            size = path.stat().st_size if path.exists() else None
            result = fn(cache_dir, kind, n)
            if size is None:
                counts["cli.cache_misses"] += 1
            elif result is None:
                counts["cli.cache_rejects"] += 1
            else:
                counts["cli.cache_hits"] += 1
                counts["cli.cache_bytes_read"] += size
            return result

        return self.tracer.span("cli.cache_load", load)

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()
        return False


def _counting_pool(counts, module):
    short = module.__name__.rsplit(".", 1)[-1]

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            counts[f"{short}.processes_started"] += max_workers or os.cpu_count() or 1
            super().__init__(max_workers, *args, **kwargs)

    return CountingPool


# ---------------------------------------------------------------------------
# turning spans into per-layer metrics


def span_totals(spans: list[list]) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per span name: inclusive time (outermost occurrences only), self time, calls."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    inclusive: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for at, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_time[name] += end - start - child[at]
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][3]
        if up < 0:
            inclusive[name] += end - start
    return inclusive, self_time, calls


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass layer metrics of a traced run; passes is the traced pass count."""
    inclusive, self_time, calls = span_totals(tracer.spans)
    counts = tracer.counts

    def incl(*names):
        return sum(inclusive.get(n, 0.0) for n in names) / passes

    def per_pass(total):
        return total // passes if total % passes == 0 else total / passes

    def count(name):
        return per_pass(counts.get(name, 0))

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    out: dict[str, float] = {}
    for module in MODULES:
        names = [n for n in calls if n.startswith(module + ".")]
        out[f"{module}.self_s"] = sum(self_time[n] for n in names) / passes
        out[f"{module}.calls"] = per_pass(sum(calls[n] for n in names))

    out["perm.perms_streamed"] = count("perm.perms")
    drain = incl("job.drain-full", "job.drain-block")
    if drain:
        out["perm.stream_perms_per_s"] = rate(count("job.drain-perms"), drain)
    for module, fn in (("eulerian", "eulerian.brute_force_rows"),
                       ("twosided", "twosided.brute_force_tables")):
        out[f"{module}.brute_s"] = incl(fn)
        out[f"{module}.brute_perms_per_s"] = rate(count(f"{module}.brute_perms"), incl(fn))
        out[f"{module}.processes_started"] = count(f"{module}.processes_started")
        one, many = incl(f"job.{module}-n9-shards1"), incl(f"job.{module}-n9-shards-nproc")
        if one and many:
            out[f"{module}.shard_speedup"] = one / many
    out["eulerian.recurrence_s"] = incl("eulerian.table_from_recurrence")
    out["eulerian.gamma_extract_s"] = incl("eulerian.gamma_extract")
    out["twosided.recurrence_s"] = incl("twosided.two_sided_from_recurrence")
    out["twosided.gessel_solve_s"] = incl("twosided.gessel_solve")
    out["twosided.gessel_unknowns"] = count("twosided.gessel_unknowns")
    out["twosided.gessel_equations"] = count("twosided.gessel_equations")
    out["hopping.orbit_census_s"] = incl("hopping.orbit_census")
    out["hopping.census_perms_per_s"] = rate(count("hopping.census_perms"), incl("hopping.orbit_census"))
    out["hopping.orbits"] = count("hopping.orbits")
    out["hopping.hop_calls"] = count("hopping.hop_calls")
    out["hopping.orbit_of_s"] = incl("hopping.orbit_of")
    out["boxes.oracle_s"] = incl("boxes.oracle_barred_census", "boxes.oracle_two_sided_census")
    out["boxes.placements"] = count("boxes.placements")
    out["boxes.placements_per_s"] = rate(out["boxes.placements"], out["boxes.oracle_s"])
    for short in ("unipoly", "bipoly"):
        out[f"exactnum.{short}_mul_calls"] = per_pass(calls.get(f"exactnum.{short}.mul", 0))
        out[f"exactnum.{short}_mul_s"] = incl(f"exactnum.{short}.mul")
    out["exactnum.solve_exact_linear_s"] = incl("exactnum.solve_exact_linear")
    out["exactnum.sturm_s"] = incl("exactnum.sturm_negative_root_count")
    out["exactnum.series_window_s"] = incl(
        "exactnum.geometric_power_window", "exactnum.series_product",
        "exactnum.series_product_bivariate",
    )
    for suite in ("eulerian", "twosided", "boxes", "hopping", "gessel"):
        out[f"verify.suite_s.{suite}"] = incl(f"verify.suite.{suite}")
    out["verify.checks"] = count("verify.checks")
    out["verify.checks_failed"] = count("verify.checks_failed")
    out["cli.cache_load_s"] = incl("cli.cache_load")
    out["cli.cache_store_s"] = incl("cli.cache_store")
    for name in ("hits", "misses", "rejects", "bytes_read", "bytes_written"):
        out[f"cli.cache_{name}"] = count(f"cli.cache_{name}")
    lookups = out["cli.cache_hits"] + out["cli.cache_misses"] + out["cli.cache_rejects"]
    out["cli.cache_hit_ratio"] = out["cli.cache_hits"] / lookups if lookups else 0.0
    out["cli.run_self_s"] = self_time.get("cli.run", 0.0) / passes
    return out


def span_summary(tracer: Tracer, passes: int) -> dict[str, dict]:
    """Calls, inclusive and self seconds per span name, per traced pass."""
    inclusive, self_time, calls = span_totals(tracer.spans)
    return {
        name: {
            "calls": calls[name] / passes,
            "inclusive_s": inclusive[name] / passes,
            "self_s": self_time[name] / passes,
        }
        for name in sorted(calls)
    }
