"""Benchmark harness for eulerian-workbench: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from src/. After one
untimed warm-up job the run repeats passes over the workload's job list until
S seconds of measuring time are used, checking every output. Set-up and
cold-start probes in fresh interpreters are spread over the run. Times are
scaled to the host's uncontended speed (speed.py). With --trace 1, traced
passes (spans around the package's public calls, spans.py) alternate with
untraced ones and the per-layer metrics are reported; end-to-end metrics
always come from untraced passes.

A detailed result file goes to bench/out/; the last line of stdout is one
JSON object with correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from speed import Speedometer, pin

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Guard rails: one policy for every job and child interpreter.
JOB_BUDGET_S = 30.0
RUN_DEADLINE_S = 140.0  # no job starts after this; the run must end within 180 s
# Fresh-interpreter probes per run, spread evenly over the measuring time
# between jobs, so that they sample the whole run rather than one moment.
PROBES = 12
NAN = float("nan")

# The result line's metrics; the result file adds cold_start_s, job_p50_s and
# job_p90_s, which are too noisy run to run to gate on (see README.md).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
# Per-layer metrics every workload reports; the result file holds the rest.
PER_LAYER = {
    "cli.import_s": "s",
    "trace.overhead_s": "s",
    "eulerian.self_s": "s",
    "twosided.self_s": "s",
    "perm.perms_streamed": "count",
    "eulerian.processes_started": "count",
    "twosided.processes_started": "count",
    "twosided.gessel_unknowns": "count",
    "twosided.gessel_equations": "count",
    "hopping.orbits": "count",
    "hopping.hop_calls": "count",
    "boxes.placements": "count",
    "exactnum.unipoly_mul_calls": "count",
    "exactnum.bipoly_mul_calls": "count",
    "verify.checks": "count",
    "verify.checks_failed": "count",
    "cli.cache_hits": "count",
    "cli.cache_misses": "count",
    "cli.cache_rejects": "count",
    "cli.cache_bytes_read": "count",
    "cli.cache_bytes_written": "count",
} | {f"{m}.calls": "count" for m in (
    "exactnum", "perm", "boxes", "eulerian", "twosided", "hopping", "verify", "cli")}


class BudgetExceeded(Exception):
    pass


def _alarm(signum, frame):
    raise BudgetExceeded(f"job exceeded its {JOB_BUDGET_S:.0f} s budget")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def quartiles(values: list[float]) -> dict:
    """Median and quartiles as statistics.quantiles(n=4) gives them, with the count."""
    if len(values) == 1:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str]) -> tuple[float, float, subprocess.CompletedProcess | None]:
    """One child interpreter at a time, within the job budget.

    Returns its wall time, the mean CPU speed just before and just after it
    (the child runs on the caller's CPU), and the finished process, None on
    overrun.
    """
    before = speed.speed_now()
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=JOB_BUDGET_S)
    except subprocess.TimeoutExpired:
        done = None
    wall = time.perf_counter() - start
    return wall, (before + speed.speed_now()) / 2, done


def import_package():
    sys.path.insert(0, str(SRC))
    import eulerian_workbench
    from eulerian_workbench import boxes, cli, eulerian, exactnum, hopping, perm, twosided, verify  # noqa: F401

    if not Path(eulerian_workbench.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"eulerian_workbench imported from {eulerian_workbench.__file__}, not src/")
    return eulerian_workbench


class Runner:
    def __init__(self, workload_name: str, seed: int, seconds: float, trace: bool):
        self.name = workload_name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rng = random.Random(seed)
        self.cold_words = [tuple(self.rng.sample(range(1, 10), 9)) for _ in range(PROBES)]
        self.nproc = nproc()
        self.work_dir = OUT / f"work-{os.getpid()}"
        self.attempted = 0
        self.failures: list[str] = []
        # probe intervals as (start, end) and the import time each set-up probe reported
        # probes as (raw seconds, CPU speed around them)
        self.setup_walls: list[tuple[float, float]] = []
        self.import_times: list[tuple[float, float]] = []
        self.cold_walls: list[tuple[float, float]] = []
        self.probes_run = 0
        self.probe_time = 0.0

    def record(self, name: str, ok: bool, why: str = "output disagrees with the reference") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {why}")

    def timed(self, job, tracer=None) -> tuple[float, float]:
        """Run one job under the budget, check it untimed; return its start and end."""
        run = job.run
        if tracer is not None:
            run = tracer.span(f"job.{job.name}", job.run)
            for key, value in job.counts.items():
                tracer.counts[key] += value
        signal.setitimer(signal.ITIMER_REAL, JOB_BUDGET_S)
        start = time.perf_counter()
        try:
            out = run()
        except BudgetExceeded as exc:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.record(job.name, False, str(exc))
            return start, time.perf_counter()
        except Exception as exc:  # a failing job is a result, not a crashed run
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.record(job.name, False, f"raised {exc!r}")
            return start, time.perf_counter()
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            ok = bool(job.check(out))
        except Exception as exc:
            self.record(job.name, False, f"check raised {exc!r}")
        else:
            self.record(job.name, ok)
        return start, end

    def setup_probe(self) -> None:
        """A fresh interpreter imports the package and runs the warm-up job."""
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", self.name,
                "--probe-setup", str(self.work_dir), str(self.nproc)]
        wall, cpu_speed, done = run_child(argv)
        ok = done is not None and done.returncode == 0
        self.record("setup-probe", ok, "child failed or overran its budget")
        if ok:
            self.setup_walls.append((wall, cpu_speed))
            self.import_times.append((json.loads(done.stdout.strip().splitlines()[-1])["import_s"], cpu_speed))

    def cold_start_probe(self) -> None:
        """A fresh `python -m eulerian_workbench.cli stats WORD`, output checked."""
        from workloads import stats_line, word_text

        w = self.cold_words[self.probes_run - 1]
        wall, cpu_speed, done = run_child([sys.executable, "-m", "eulerian_workbench.cli", "stats", word_text(w)])
        ok = done is not None and done.returncode == 0 and done.stdout == stats_line(w)
        self.record("cold-start", ok)
        if ok:
            self.cold_walls.append((wall, cpu_speed))

    def probes_due(self, measured: float) -> None:
        """Run the set-up and cold-start probes due after `measured` seconds."""
        due = PROBES if measured >= self.seconds else int(PROBES * measured / self.seconds)
        while self.probes_run < due:
            start = time.perf_counter()
            self.probes_run += 1
            self.setup_probe()
            self.cold_start_probe()
            self.probe_time += time.perf_counter() - start

    def run(self) -> dict:
        from spans import Instrumentation, Tracer, layer_metrics, span_summary
        from workloads import WORKLOADS

        started = time.perf_counter()
        self.work_dir.mkdir(parents=True, exist_ok=True)
        pkg = import_package()
        workload = WORKLOADS[self.name](pkg, self.nproc, self.work_dir)
        workload.prepare(self.rng)
        self.timed(workload.warmup())

        all_cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
        home = {min(all_cpus)} if all_cpus else set()
        tracer = Tracer() if self.trace else None
        # (job name, start, end, parallel) per job, one list per pass
        passes: list[tuple[bool, list[tuple[str, float, float, bool]]]] = []
        pin(home)  # probes and single-CPU jobs run where the first sampler runs
        with Speedometer(all_cpus) as meter:
            measure_start = time.perf_counter()

            def measured() -> float:
                return time.perf_counter() - measure_start - self.probe_time

            traced = False
            # Passes start until the measuring time is used up (the last one
            # may run over) and there is at least one pass of each kind needed.
            while time.perf_counter() - started < RUN_DEADLINE_S:
                kinds = {kind for kind, _ in passes}
                if measured() >= self.seconds and False in kinds and (True in kinds or not self.trace):
                    break
                jobs = workload.pass_jobs(self.rng)
                workload.before_pass()
                samples = []
                for job in jobs:
                    with contextlib.ExitStack() as stack:
                        if job.parallel:
                            stack.enter_context(meter.paused())
                            pin(all_cpus)
                            stack.callback(pin, home)
                        if traced:
                            stack.enter_context(Instrumentation(tracer, pkg))
                        start, end = self.timed(job, tracer if traced else None)
                    samples.append((job.name, start, end, job.parallel))
                    with meter.paused():
                        self.probes_due(measured())
                passes.append((traced, samples))
                traced = self.trace and not traced
            with meter.paused():
                self.probes_due(self.seconds)
        shutil.rmtree(self.work_dir, ignore_errors=True)

        def summarize(duration, probe) -> dict:
            """Quartile summaries; duration(start, end, parallel) times a job and
            probe(wall, cpu_speed) a probe."""
            walls = {False: [], True: []}
            latencies: dict[str, list[float]] = {}
            for kind, samples in passes:
                values = [duration(start, end, parallel) for _, start, end, parallel in samples]
                walls[kind].append(sum(values))
                if not kind:
                    for (name, *_), value in zip(samples, values):
                        latencies.setdefault(name, []).append(value)
            pooled = [t for values in latencies.values() for t in values]
            out = {
                "wall_s": quartiles(walls[False]),
                "job_p50_s": quartiles(pooled),
                "setup_s": quartiles([probe(*p) for p in self.setup_walls] or [NAN]),
                "cold_start_s": quartiles([probe(*p) for p in self.cold_walls] or [NAN]),
            }
            if len(pooled) >= 100:
                out["job_p90_s"] = {"value": statistics.quantiles(pooled, n=10)[8], "n": len(pooled)}
            out["jobs"] = {name: quartiles(values) for name, values in sorted(latencies.items())}
            out["traced_wall_s"] = quartiles(walls[True]) if walls[True] else None
            return out

        scaled = summarize(meter.scaled, lambda wall, cpu_speed: wall * cpu_speed)
        raw = summarize(lambda start, end, parallel: end - start, lambda wall, cpu_speed: wall)
        rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024
        end_to_end = {name: scaled[name]["median"] for name in ("wall_s", "job_p50_s", "setup_s", "cold_start_s")}
        end_to_end["peak_rss_mib"] = rss
        if "job_p90_s" in scaled:
            end_to_end["job_p90_s"] = scaled["job_p90_s"]["value"]
        speeds = [speed.REFERENCE_S / (b - a) for samples in meter.samples.values() for a, b in samples]
        result = {
            "meta": metadata(self),
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "error_rate": len(self.failures) / max(self.attempted, 1),
            "failures": self.failures[:20],
            "end_to_end": end_to_end,
            "scaled": scaled,
            "raw": raw,
            "host_speed": quartiles(speeds or [NAN]),
        }
        if self.trace:
            traced_passes = max(1, sum(1 for kind, _ in passes if kind))
            layers = layer_metrics(tracer, traced_passes)
            layers["cli.import_s"] = (statistics.median(t * v for t, v in self.import_times)
                                      if self.import_times else NAN)
            layers["trace.overhead_s"] = (scaled["traced_wall_s"]["median"] - scaled["wall_s"]["median"]
                                          if scaled["traced_wall_s"] else NAN)
            result["layers"] = layers
            result["spans"] = span_summary(tracer, traced_passes)
            self.spans = tracer.spans
        return result


def metadata(runner: Runner) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": runner.name,
        "seed": runner.seed,
        "seconds": runner.seconds,
        "trace": runner.trace,
        "python": platform.python_version(),
        "nproc": runner.nproc,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(path.read_text().splitlines()) for path in sources),
    }


def probe_setup(workload_name: str, work_dir: str, shards: str) -> int:
    """Child side of a set-up probe: import the package, run one warm-up job.

    shards is the parent's CPU count; the child itself is pinned to one CPU.
    """
    start = time.perf_counter()
    pkg = import_package()
    import_s = time.perf_counter() - start
    from workloads import WORKLOADS

    job = WORKLOADS[workload_name](pkg, int(shards), Path(work_dir)).warmup()
    ok = job.check(job.run())
    print(json.dumps({"import_s": import_s}))
    return 0 if ok else 1


def final_line(result: dict, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    })


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe-setup", nargs=2, metavar=("WORK_DIR", "NPROC"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "eulerian_workbench" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'eulerian_workbench'}; run from a checkout", file=sys.stderr)
        return 2
    if args.probe_setup:
        return probe_setup(args.workload, *args.probe_setup)

    signal.signal(signal.SIGALRM, _alarm)
    runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace))
    result = runner.run()
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for name, start, end, parent in runner.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
        print(final_line(result, result["layers"], PER_LAYER))
    else:
        print(final_line(result, result["end_to_end"], END_TO_END))
    return 0


if __name__ == "__main__":
    sys.exit(main())
