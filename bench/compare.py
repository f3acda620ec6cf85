"""Compare two sets of benchmark results, per workload and end-to-end metric.

    python3 bench/compare.py BASE NEW

BASE and NEW are result files written by run.py, or directories of them
(for example bench/baseline and bench/out). Runs pair up by workload and seed.
For each metric the verdict follows the rule the benchmark was built to:

- improved: NEW wins at least nine tenths of at least ten pairs, and the
  medians differ by more than BASE's own spread (q3 - q1);
- regressed: NEW's median is worse than BASE's by more than the metric's
  bound from BENCHMARK.json;
- unresolved: BASE's spread is wider than the bound, unless every NEW run
  beats every BASE run;
- unchanged: otherwise.

Metrics in the result files that BENCHMARK.json does not gate (job_p50_s,
job_p90_s) are shown against the widest bound and marked "not gated".
Traced runs on both sides add a table of per-layer medians, without verdicts.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for f in files:
        data = json.loads(f.read_text())
        if "meta" in data:
            runs.append(data)
    return runs


def spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], pairs: list[tuple[float, float]],
            bound: float) -> tuple[str, int]:
    """Verdict for a lower-is-better metric, and the number of pairs NEW won."""
    wins = sum(1 for b, n in pairs if n < b)
    b1, b_med, b3 = spread(base)
    _, n_med, _ = spread(new)
    gain = b_med - n_med
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > b3 - b1:
        return "improved", wins
    if -gain > bound * abs(b_med):
        return "regressed", wins
    all_better = max(new) < min(base)
    if (b3 - b1) > bound * abs(b_med) and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def metrics(spec: dict, runs: list[dict]) -> list[tuple[str, float, bool]]:
    """Gated metrics with their bounds, then any other end-to-end metric the
    result files carry, judged against the widest bound. All are lower-better."""
    gated = [(m["name"], m["bound"], True) for m in spec["end_to_end"]]
    widest = max(bound for _, bound, _ in gated)
    known = {name for name, _, _ in gated}
    extra = sorted({k for r in runs for k in r["end_to_end"]} - known)
    return gated + [(name, widest, False) for name in extra]


def describe(runs: list[dict]) -> str:
    metas = {(r["meta"]["git_sha"], r["meta"]["src_lines"], r["meta"]["python"], r["meta"]["nproc"])
             for r in runs}
    return "; ".join(f"sha {s or 'unknown'}, src {lines} lines, python {py}, nproc {n}"
                     for s, lines, py, n in sorted(metas, key=str))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base_runs, new_runs = load(Path(argv[0])), load(Path(argv[1]))
    if not base_runs or not new_runs:
        print("error: no result files on one side", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    print(f"base: {describe(base_runs)}")
    print(f"new:  {describe(new_runs)}")
    header = f"{'workload':<11} {'metric':<13} {'base median [q1, q3]':<30} {'new median [q1, q3]':<30} wins  verdict"
    print(header)
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        base = {r["meta"]["seed"]: r for r in base_runs if r["meta"]["workload"] == workload and not r["meta"]["trace"]}
        new = {r["meta"]["seed"]: r for r in new_runs if r["meta"]["workload"] == workload and not r["meta"]["trace"]}
        if not base or not new:
            continue
        for name, bound, gated in metrics(spec, list(base.values()) + list(new.values())):
            b = [r["end_to_end"][name] for r in base.values() if name in r["end_to_end"]]
            n = [r["end_to_end"][name] for r in new.values() if name in r["end_to_end"]]
            if not b or not n:
                continue
            pairs = [(base[s]["end_to_end"][name], new[s]["end_to_end"][name])
                     for s in base if s in new and name in base[s]["end_to_end"] and name in new[s]["end_to_end"]]
            result, wins = verdict(b, n, pairs, bound)
            (b1, bm, b3), (n1, nm, n3) = spread(b), spread(n)
            print(f"{workload:<11} {name:<13} {bm:>10.4f} [{b1:.4f}, {b3:.4f}] ({len(b):>2})"
                  f"  {nm:>10.4f} [{n1:.4f}, {n3:.4f}] ({len(n):>2})  {wins:>2}/{len(pairs):<2} {result}"
                  f"{'' if gated else ' (not gated)'}")
        layers(workload, base_runs, new_runs)
    return 0


def layers(workload: str, base_runs: list[dict], new_runs: list[dict]) -> None:
    def medians(runs):
        traced = [r["layers"] for r in runs if r["meta"]["workload"] == workload and r["meta"]["trace"]]
        names = {k for layer in traced for k in layer}
        return {k: statistics.median(layer[k] for layer in traced if k in layer) for k in names}

    base, new = medians(base_runs), medians(new_runs)
    for name in sorted(set(base) & set(new)):
        if base[name] or new[name]:
            print(f"{'':<11} layer {name:<32} {base[name]:>14.6g} -> {new[name]:<14.6g}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
