"""Summarise one tree's benchmark runs into one BENCH_<label>.json.

    python tools/bench_summary.py [--root DIR] [--label LABEL] [--out FILE]
    python tools/bench_summary.py --compare BASE NEW

The first form reads DIR/bench/out/*.json, the result files bench/run.py
writes in the checkout DIR (this one by default), and writes
DIR/BENCH_<label>.json, or FILE. The label is the runs' short git sha, with
-dirty when src/, bench/ or BENCHMARK.json differ from that commit in DIR;
src_sha256 in the file then tells two dirty trees apart. It refuses, with
exit 1 and one line on stderr, runs that mix src_sha256 values or git shas,
a run that is not correct or has a failed job, a set with no untraced run,
and a checkout whose src/ no longer hashes to the runs' src_sha256.

The file holds the runs' shared metadata; the state of each module's
bytecode in DIR/src, as this tool finds it (valid, stale or missing: a
set-up probe compiles every module that is not valid, unless bytecode
writing is off, and then it does so on every probe); and per workload the
median, quartiles, count and per-seed values of every end-to-end metric
over the untraced runs, with the median over traced runs of every layer
metric.

The second form prints, per workload and end-to-end metric, BASE's and
NEW's medians and the verdict bench/compare.py gives on the seeds the two
summaries share, or "no shared seed" when they share none.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from compare import verdict  # noqa: E402
from run import quartiles  # noqa: E402

# the metadata every run of one tree on one host shares
SHARED = ("git_sha", "src_sha256", "src_lines", "python", "nproc")


class Refused(Exception):
    """The result files do not describe one correct run set of one tree."""


def src_digest(src: Path) -> str:
    """The sha256 over src's .py files that bench/run.py records as src_sha256."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def bytecode_state(source: Path) -> str:
    """"valid" when the cached bytecode of source would be loaded as it is,
    "stale" when it is there but the import system would recompile it, else
    "missing"."""
    cached = Path(importlib.util.cache_from_source(str(source)))
    try:
        header = cached.read_bytes()[:16]
    except OSError:
        return "missing"
    if len(header) < 16 or header[:4] != importlib.util.MAGIC_NUMBER:
        return "stale"
    flags = int.from_bytes(header[4:8], "little")
    if flags & 1:  # hash-based; unchecked ones load whatever the source
        fresh = not flags & 2 or header[8:16] == importlib.util.source_hash(source.read_bytes())
    else:
        stat = source.stat()
        fresh = header[8:16] == ((int(stat.st_mtime) & 0xFFFFFFFF).to_bytes(4, "little")
                                 + (stat.st_size & 0xFFFFFFFF).to_bytes(4, "little"))
    return "valid" if fresh else "stale"


def dirty(root: Path, sha: str) -> bool:
    """Whether src/, bench/ or BENCHMARK.json in root differ from commit sha."""
    done = subprocess.run(
        ["git", "-C", str(root), "status", "--porcelain", "--", "src", "bench", "BENCHMARK.json"],
        capture_output=True, text=True,
    )
    head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
    if done.returncode or head.returncode:
        raise Refused(f"{root} is not a git checkout; name the tree with --label")
    return head.stdout.strip() != sha or done.stdout != ""


def summarise(root: Path, label: str | None = None) -> tuple[str, dict]:
    """The label and the summary of root's bench/out/*.json; Refused if the
    runs are not one correct run set of the tree in root."""
    runs = [json.loads(path.read_text()) for path in sorted((root / "bench" / "out").glob("*.json"))]
    runs = [run for run in runs if "meta" in run]
    if not runs:
        raise Refused(f"no result files in {root / 'bench' / 'out'}")
    for key in ("src_sha256", "git_sha"):
        values = sorted({str(run["meta"][key]) for run in runs})
        if len(values) > 1:
            raise Refused(f"the runs mix {key} values: {', '.join(values)}")
    for run in runs:
        m = run["meta"]
        name = f"{m['workload']} seed {m['seed']} trace {int(m['trace'])}"
        if not run["correct"] or run["failed"]:
            raise Refused(f"{name} is not correct: {run['failed']} failed of {run['attempted']}")
    meta = {key: runs[0]["meta"][key] for key in SHARED}
    src = root / "src"
    if src_digest(src) != meta["src_sha256"]:
        raise Refused(f"{src} has changed since the runs: its sha256 is not their src_sha256")
    if label is None:
        if not meta["git_sha"]:
            raise Refused("the runs name no git sha; name the tree with --label")
        label = meta["git_sha"][:7] + ("-dirty" if dirty(root, meta["git_sha"]) else "")
    workloads = {}
    for name in sorted({run["meta"]["workload"] for run in runs}):
        untraced = sorted((r for r in runs if r["meta"]["workload"] == name and not r["meta"]["trace"]),
                          key=lambda r: r["meta"]["seed"])
        traced = [r["layers"] for r in runs if r["meta"]["workload"] == name and r["meta"]["trace"]]
        if not untraced:
            raise Refused(f"{name} has no untraced run, so no end-to-end metric")
        metrics = sorted({key for r in untraced for key in r["end_to_end"]})
        workloads[name] = {
            "seconds": sorted({r["meta"]["seconds"] for r in untraced}),
            "end_to_end": {
                key: {
                    **quartiles([r["end_to_end"][key] for r in untraced if key in r["end_to_end"]]),
                    "values": {str(r["meta"]["seed"]): r["end_to_end"][key]
                               for r in untraced if key in r["end_to_end"]},
                }
                for key in metrics
            },
            "traced_runs": len(traced),
            "layers": {key: statistics.median(layer[key] for layer in traced if key in layer)
                       for key in sorted({k for layer in traced for k in layer})},
        }
    package = src / "eulerian_workbench"
    summary = {
        "label": label,
        "meta": meta,
        "bytecode": {
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "modules": {path.name: bytecode_state(path) for path in sorted(package.glob("*.py"))},
        },
        "workloads": workloads,
    }
    return label, summary


def compare(base: dict, new: dict) -> list[str]:
    """Lines of BASE against NEW: per workload and end-to-end metric, the
    medians, quartiles and counts, the pairs NEW won and compare.py's
    verdict, or "no shared seed" in place of both when there are no pairs."""
    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    widest = max(bounds.values())
    lines = [f"base: {base['label']} (src {base['meta']['src_lines']} lines)",
             f"new:  {new['label']} (src {new['meta']['src_lines']} lines)"]
    for name in sorted(set(base["workloads"]) & set(new["workloads"])):
        b_all, n_all = base["workloads"][name]["end_to_end"], new["workloads"][name]["end_to_end"]
        for key in sorted(set(b_all) & set(n_all), key=lambda k: (k not in bounds, k)):
            b, n = b_all[key], n_all[key]
            pairs = [(b["values"][s], n["values"][s]) for s in b["values"] if s in n["values"]]
            if pairs:
                result, wins = verdict(list(b["values"].values()), list(n["values"].values()), pairs,
                                       bounds.get(key, widest))
                result = f"{wins:>2}/{len(pairs):<2} {result}"
            else:  # verdict gates only "improved" on pairs, and would call any move unchanged
                result = "no shared seed"
            lines.append(
                f"{name:<11} {key:<13} {b['median']:>9.4f} [{b['q1']:.4f}, {b['q3']:.4f}] ({b['n']:>2})"
                f"  {n['median']:>9.4f} [{n['q1']:.4f}, {n['q3']:.4f}] ({n['n']:>2})"
                f"  {n['median'] / b['median'] - 1:+7.1%}  {result}"
                + ("" if key in bounds else " (not gated)")
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="the checkout the runs were made in")
    parser.add_argument("--label", help="the tree's name in BENCH_<label>.json")
    parser.add_argument("--out", type=Path, help="the summary's path")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        base, new = (json.loads(path.read_text()) for path in args.compare)
        print("\n".join(compare(base, new)))
        return 0
    try:
        label, summary = summarise(args.root, args.label)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    out = args.out or args.root / f"BENCH_{label}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    # a reader that closes stdout early, as head does, ends the process by
    # SIGPIPE, as it ends any Unix filter, with no traceback
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
