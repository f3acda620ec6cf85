"""The four benchmark workloads, their jobs and the references that check them.

Every workload is a closed loop with one client: each job waits for the one
before it, as a desk user of the CLI does. A pass runs the workload's fixed job
list once; the seed shuffles the order and draws the light inputs (stats and
orbit words, series and Worpitzky spot values), never the heavy sizes, so seeds
differ in inputs and not in the amount of work.

No reference comes from the routine being timed. One-sided rows, k**n,
binomial(kl+n-1, n), gamma vectors and Sturm counts are checked against closed
forms computed here; two-sided arrays up to CLOSED_FORM_TWO_SIDED_MAX against
the double alternating sum; everything else (larger arrays, Gessel
coefficients, CLI stdout) against sha256 digests frozen by freeze.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import shutil
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial
from pathlib import Path
from typing import Callable

CLOSED_FORM_TWO_SIDED_MAX = 12
DIGESTS = Path(__file__).with_name("digests.json")


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    # work the job does that its spans cannot see, added to the trace counters
    counts: dict[str, int] = field(default_factory=dict)
    # True when the job starts worker processes, which need every CPU
    parallel: bool = False


@dataclass
class CliResult:
    code: int
    stdout: str


def cli_call(cli, argv: list[str]) -> CliResult:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return CliResult(code, out.getvalue())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


# ---------------------------------------------------------------------------
# closed forms and independent statistics


@lru_cache(maxsize=None)
def eulerian_row(n: int) -> tuple[int, ...]:
    """A(n, i) = sum_k (-1)**k binomial(n+1, k) (i-k)**n, mirrored by symmetry."""
    powers = [m**n for m in range(n + 1)]
    half = [
        sum((-1) ** k * comb(n + 1, k) * powers[i - k] for k in range(i + 1))
        for i in range(1, (n + 1) // 2 + 1)
    ]
    return tuple(half + half[::-1][n % 2 :])


@lru_cache(maxsize=None)
def two_sided_array(n: int) -> tuple[tuple[int, ...], ...]:
    """Coefficients of (1-s)**(n+1) (1-t)**(n+1) sum_{k,l} binomial(kl+n-1, n) s**k t**l."""
    sign = [(-1) ** m * comb(n + 1, m) for m in range(n + 1)]
    return tuple(
        tuple(
            sum(
                sign[i - k] * sign[j - l] * comb(k * l + n - 1, n)
                for k in range(1, i + 1)
                for l in range(1, j + 1)
            )
            for j in range(1, n + 1)
        )
        for i in range(1, n + 1)
    )


def gamma_row(n: int, gammas) -> tuple[int, ...]:
    """Row of sum_i gamma_i t**i (1+t)**(n+1-2i), coefficients of t**1..t**n."""
    return tuple(
        sum(g * comb(n + 1 - 2 * i, m - i) for i, g in enumerate(gammas, start=1) if i <= m)
        for m in range(1, n + 1)
    )


def descents(w) -> int:
    return sum(1 for a, b in zip(w, w[1:]) if a > b)


def inverse_of(w) -> tuple[int, ...]:
    inv = [0] * len(w)
    for pos, letter in enumerate(w, start=1):
        inv[letter - 1] = pos
    return tuple(inv)


def stats_line(w) -> str:
    n = len(w)
    inv = sum(1 for r in range(n) for q in range(r + 1, n) if w[r] > w[q])
    des = descents(w)
    exc = sum(1 for pos, x in enumerate(w, start=1) if x > pos)
    return (f"des={des} ides={descents(inverse_of(w))} inv={inv} "
            f"asc={n - 1 - des} exc={exc} run={des + 1}\n")


def unrank(n: int, rank: int) -> tuple[int, ...]:
    pool = list(range(1, n + 1))
    out = []
    for remaining in range(n - 1, -1, -1):
        digit, rank = divmod(rank, factorial(remaining))
        out.append(pool.pop(digit))
    return tuple(out)


def word_text(w) -> str:
    return "".join(map(str, w)) if len(w) <= 9 else ",".join(map(str, w))


def letter_kinds(w) -> list[str]:
    """peak / valley / free for each letter, with +infinity beyond both ends."""
    kinds = []
    for at, x in enumerate(w):
        left = at == 0 or w[at - 1] > x
        right = at == len(w) - 1 or w[at + 1] > x
        kinds.append("valley" if left and right else "free" if left or right else "peak")
    return kinds


def hopped(w, x) -> tuple[int, ...]:
    """Move free letter x across its valley (the definition in hopping's docstring)."""
    letters = list(w)
    at = letters.index(x)
    left_larger = at == 0 or letters[at - 1] > x
    letters.pop(at)
    if left_larger:  # double descent: land just before the next larger letter
        q = next((q for q in range(at, len(letters)) if letters[q] > x), len(letters))
        letters.insert(q, x)
    else:  # double ascent: land just after the previous larger letter
        q = next((q for q in range(at - 1, -1, -1) if letters[q] > x), -1)
        letters.insert(q + 1, x)
    return tuple(letters)


def orbit_reference(w) -> dict:
    """The `orbit --format json` payload of w, built without the hopping module."""
    kinds = letter_kinds(w)
    free = [x for x, k in zip(w, kinds) if k == "free"]
    members = {tuple(w)}
    for x in free:
        members |= {hopped(u, x) for u in members}
    n, p = len(w), kinds.count("peak")
    bi: dict[tuple[int, int], int] = {}
    for u in members:
        key = (descents(inverse_of(u)) + 1, descents(u) + 1)
        bi[key] = bi.get(key, 0) + 1
    m = n - 1 - 2 * p
    return {
        "input": word_text(w),
        "representative": word_text(min(members)),
        "size": str(len(members)),
        "peaks": [str(x) for x, k in zip(w, kinds) if k == "peak"],
        "valleys": [str(x) for x, k in zip(w, kinds) if k == "valley"],
        "free": [str(x) for x in free],
        "uni": "".join(power for power, e in (_power("t", p + 1), _power("(1+t)", m)) if e) or "1",
        "uni_terms": {"var": "t", "terms": [[p + 1 + e, str(comb(m, e))] for e in range(m + 1)]},
        "bi_terms": {"var": "st", "terms": [[a, b, str(c)] for (a, b), c in sorted(bi.items())]},
    }


def _power(name: str, exp: int) -> tuple[str, int]:
    return (name if exp == 1 else f"{name}^{exp}", exp)


_FACTOR = re.compile(r"^(s|t|\(1\+s\)|\(1\+t\)|\(1\+st\))(?:\^(\d+))?$")


def expand_factored(text: str) -> dict[tuple[int, int], int] | None:
    """Multiply out 's^a t^b (1+s)^c (1+t)^d (1+st)^e'; None if not that shape."""
    poly = {(0, 0): 1}
    for part in text.split(" "):
        match = _FACTOR.match(part)
        if not match:
            return None
        base, exp = match.group(1), int(match.group(2) or 1)
        factor = {"s": {(1, 0): 1}, "t": {(0, 1): 1}, "(1+s)": {(0, 0): 1, (1, 0): 1},
                  "(1+t)": {(0, 0): 1, (0, 1): 1}, "(1+st)": {(0, 0): 1, (1, 1): 1}}[base]
        for _ in range(exp):
            out: dict[tuple[int, int], int] = {}
            for (a1, b1), c1 in poly.items():
                for (a2, b2), c2 in factor.items():
                    out[(a1 + a2, b1 + b2)] = out.get((a1 + a2, b1 + b2), 0) + c1 * c2
            poly = out
    return poly


def orbit_matches(w, result: CliResult) -> bool:
    if result.code != 0:
        return False
    got = json.loads(result.stdout)
    want = orbit_reference(w)
    bi = {(a, b): int(c) for a, b, c in got.get("bi_terms", {}).get("terms", [])}
    return (
        all(got.get(key) == value for key, value in want.items())
        and expand_factored(got.get("bi", "")) == bi
    )


def random_word(rng, n: int) -> tuple[int, ...]:
    w = list(range(1, n + 1))
    rng.shuffle(w)
    return tuple(w)


def orbit_word(rng, n: int, free: int) -> tuple[int, ...]:
    """A random word of length n whose orbit has exactly 2**free members."""
    while True:
        w = random_word(rng, n)
        if letter_kinds(w).count("free") == free:
            return w


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A named job list; pass_jobs(rng) gives one pass in seed-shuffled order."""

    def __init__(self, pkg, nproc: int, work_dir: Path):
        self.pkg = pkg
        self.nproc = nproc
        self.work_dir = work_dir
        self.jobs: list[Job] = []

    def prepare(self, rng) -> None:
        """Draw the light inputs and build the job list; references are computed
        here or on first check, never inside a timed job."""
        self.jobs = self.build(rng)

    def build(self, rng) -> list[Job]:
        raise NotImplementedError

    def warmup(self) -> Job:
        raise NotImplementedError

    def pass_jobs(self, rng) -> list[Job]:
        jobs = list(self.jobs)
        rng.shuffle(jobs)
        return jobs

    def before_pass(self) -> None:
        pass


class VerifyAll(Workload):
    """The command users run for a trusted verdict; touches every module."""

    def build(self, rng):
        digest = load_digests()["verify-all"]
        return [Job(
            "verify-all",
            lambda: cli_call(self.pkg.cli, ["verify", "--suite", "all"]),
            lambda r: r.code == 0 and sha256(r.stdout) == digest,
        )]

    def warmup(self):
        return Job(
            "warmup-verify-all-n4",
            lambda: cli_call(self.pkg.cli, ["verify", "--suite", "all", "--n-max", "4"]),
            lambda r: r.code == 0 and "FAIL" not in r.stdout,
        )


class Enumerate(Workload):
    """Oracles that walk S_n or ball placements; no exact polynomial work."""

    def build(self, rng):
        perm, eul, two, boxes = self.pkg.perm, self.pkg.eulerian, self.pkg.twosided, self.pkg.boxes
        shards = self.nproc
        n = 9
        block = factorial(n) // shards
        jobs = [
            Job("drain-full", lambda: drain(perm.enumerate_sn(n)),
                lambda r: r == (factorial(n), tuple(range(1, n + 1)), tuple(range(n, 0, -1))),
                {"job.drain-perms": factorial(n)}),
            Job("drain-block", lambda: drain(perm.enumerate_sn(n, shard=(0, shards))),
                lambda r: r == (block, tuple(range(1, n + 1)), unrank(n, block - 1)),
                {"job.drain-perms": block}),
            Job("eulerian-n10-shards-nproc", lambda: eul.brute_force_rows([10], shards)[10],
                lambda r: r == eulerian_row(10), parallel=shards > 1),
            Job("boxes-grid-6x4x4", lambda: boxes.oracle_two_sided_census(6, 4, 4),
                lambda r: grid_census_ok(r, 6, 4, 4)),
            Job("boxes-barred-6x5", lambda: boxes.oracle_barred_census(6, 5),
                lambda r: barred_census_ok(r, 6, 5)),
        ]
        for label, count in (("shards1", 1), ("shards-nproc", shards)):
            jobs.append(Job(f"eulerian-n9-{label}", lambda c=count: eul.brute_force_rows([n], c)[n],
                            lambda r: r == eulerian_row(n), parallel=count > 1))
            jobs.append(Job(f"twosided-n9-{label}", lambda c=count: two.brute_force_tables([n], c)[n].entries,
                            lambda r: r == two_sided_array(n), parallel=count > 1))
        return jobs

    def warmup(self):
        eul = self.pkg.eulerian
        return Job("warmup-eulerian-n7", lambda: eul.brute_force_rows([7], self.nproc)[7],
                   lambda r: r == eulerian_row(7))


def drain(stream) -> tuple[int, tuple, tuple]:
    """Consume a permutation stream; return its length, first and last member."""
    first = next(stream)
    count, last = 1, first
    for count, last in enumerate(stream, start=2):
        pass
    return count, first, last


def grid_census_ok(census, n, columns, rows) -> bool:
    return sum(census.values()) == comb(columns * rows + n - 1, n) and all(
        sorted(w) == list(range(1, n + 1))
        and count == comb(rows + n - 1 - descents(inverse_of(w)), n) * comb(columns + n - 1 - descents(w), n)
        for w, count in census.items()
    )


def barred_census_ok(census, n, k) -> bool:
    return sum(census.values()) == k**n and all(
        sorted(w) == list(range(1, n + 1)) and count == comb(k + n - 1 - descents(w), n)
        for w, count in census.items()
    )


class Algebra(Workload):
    """Exact polynomial work with no S_n walk."""

    def build(self, rng):
        eul, two, ex = self.pkg.eulerian, self.pkg.twosided, self.pkg.exactnum
        digests = load_digests()
        UniPoly = ex.UniPoly
        jobs = [
            Job("eulerian-recurrence-300", lambda: eul.table_from_recurrence(300).rows,
                lambda r: r == tuple(eulerian_row(n) for n in range(1, 301))),
            Job("twosided-recurrence-60", lambda: [t.entries for t in two.two_sided_from_recurrence(60)],
                lambda r: two_sided_ok(r, digests["twosided-recurrence-13-60"])),
        ]
        for n in range(1, 101):
            poly = UniPoly.from_coeffs((0,) + eulerian_row(n))
            jobs.append(Job(
                f"gamma-n{n}", lambda n=n, poly=poly: eul.gamma_extract(poly, n).gammas,
                lambda r, n=n: gamma_ok(n, r),
            ))
        for n in (12, 14, 16):
            poly = two.polynomial_from_table(two.TwoSidedTable(n, two_sided_array(n)))
            jobs.append(Job(
                f"gessel-n{n}", lambda n=n, poly=poly: two.gessel_solve(poly, n),
                lambda r, n=n: sha256(gessel_text(r)) == digests[f"gessel-n{n}"],
            ))
        for n in range(20, 27):
            poly = UniPoly.from_coeffs(eulerian_row(n))
            jobs.append(Job(
                f"sturm-n{n}", lambda poly=poly: ex.sturm_negative_root_count(poly),
                lambda r, n=n: r == (n - 1, True),
            ))
        for at in range(3):
            n, terms = rng.randint(26, 30), 40
            jobs.append(Job(
                f"power-sum-window-{at}",
                lambda n=n, terms=terms: ex.series_product(
                    eul.eulerian_polynomial(n), ex.geometric_power_window(n + 1, terms)).coeffs,
                lambda r, n=n, terms=terms: r == tuple(k**n for k in range(terms + 1)),
            ))
        for at in range(2):
            n, terms = rng.randint(7, 9), 10
            jobs.append(Job(
                f"grid-window-{at}",
                lambda n=n, terms=terms: grid_window(ex, two, n, terms),
                lambda r, n=n, terms=terms: r == tuple(
                    tuple(comb(k * l + n - 1, n) for l in range(terms + 1)) for k in range(terms + 1)),
            ))
        for at in range(8):
            n, k = rng.randint(20, 40), rng.randint(0, 50)
            jobs.append(Job(f"worpitzky-{at}", lambda n=n, k=k: eul.worpitzky_identity(n, k),
                            lambda r, n=n, k=k: r == k**n))
        for at in range(4):
            n, k, l = rng.randint(6, 9), rng.randint(0, 8), rng.randint(0, 8)
            jobs.append(Job(f"worpitzky-grid-{at}", lambda n=n, k=k, l=l: two.worpitzky_grid_identity(n, k, l),
                            lambda r, n=n, k=k, l=l: r == comb(k * l + n - 1, n)))
        return jobs

    def warmup(self):
        eul = self.pkg.eulerian
        return Job("warmup-recurrence-30", lambda: eul.table_from_recurrence(30).rows,
                   lambda r: r == tuple(eulerian_row(n) for n in range(1, 31)))


def grid_window(ex, two, n, terms):
    window = ex.geometric_power_window(n + 1, terms)
    return ex.series_product_bivariate(two.two_sided_polynomial(n), window, window).coeffs


@lru_cache(maxsize=None)
def gamma_ok(n: int, gammas: tuple[int, ...]) -> bool:
    return len(gammas) == (n + 1) // 2 and gamma_row(n, gammas) == eulerian_row(n)


def two_sided_ok(arrays, digest: str) -> bool:
    small = min(len(arrays), CLOSED_FORM_TWO_SIDED_MAX)
    return (
        all(arrays[n - 1] == two_sided_array(n) for n in range(1, small + 1))
        and sha256(canonical(arrays[small:])) == digest
    )


def gessel_text(expansion) -> str:
    return canonical({"n": expansion.n, "nonnegative": expansion.nonnegative,
                      "gammas": sorted([i, j, c] for (i, j), c in expansion.gammas.items())})


CLI_COMMANDS = {
    "eulerian-300": ["eulerian", "--n-max", "300"],
    "two-sided-40": ["two-sided", "--n-max", "40"],
    "gamma-60": ["gamma", "--n-max", "60"],
    "gessel-10": ["gessel", "--n-max", "10"],
}
FORMATS = ("text", "json", "csv")


class CliCache(Workload):
    """A desk session through cli.run: cache stores and loads beside the emitters."""

    STATS_JOBS = 4
    ORBIT_JOBS = 3  # 19 jobs a pass: an odd count keeps job_p50_s inside one job

    def build(self, rng):
        self.cache = self.work_dir / "cache"
        digests = load_digests()
        cli = self.pkg.cli
        self.runs = {}
        for label, argv in CLI_COMMANDS.items():
            self.runs[label] = [
                (fmt, lambda argv=argv, fmt=fmt: cli_call(cli, argv + ["--format", fmt, "--cache", str(self.cache)]),
                 lambda r, d=digests[f"cli/{label}/{fmt}"]: r.code == 0 and sha256(r.stdout) == d)
                for fmt in FORMATS
            ]
        light = []
        for at in range(self.STATS_JOBS):
            w = random_word(rng, 12)
            light.append(Job(f"stats-{at}", lambda w=w: cli_call(cli, ["stats", word_text(w)]),
                             lambda r, w=w: r.code == 0 and r.stdout == stats_line(w)))
        for at in range(self.ORBIT_JOBS):
            w = orbit_word(rng, 9, 4)
            light.append(Job(f"orbit-{at}", lambda w=w: cli_call(cli, ["orbit", word_text(w), "--format", "json"]),
                             lambda r, w=w: orbit_matches(w, r)))
        return light  # the cached commands are laid out per pass in pass_jobs

    def pass_jobs(self, rng):
        """Each command runs cold once then warm twice, in seed-chosen formats,
        interleaved with the other commands and the light jobs."""
        queues = {}
        for label, runs in self.runs.items():
            order = list(runs)
            rng.shuffle(order)
            queues[label] = [
                Job(f"{label}/{fmt}/{'cold' if at == 0 else 'warm'}", run, check)
                for at, (fmt, run, check) in enumerate(order)
            ]
        for job in self.jobs:
            queues[job.name] = [job]
        tokens = [label for label, queue in queues.items() for _ in queue]
        rng.shuffle(tokens)
        return [queues[label].pop(0) for label in tokens]

    def before_pass(self):
        shutil.rmtree(self.cache, ignore_errors=True)

    def warmup(self):
        cli = self.pkg.cli
        warm = self.work_dir / "warmup-cache"
        return Job("warmup-eulerian-20",
                   lambda: cli_call(cli, ["eulerian", "--n-max", "20", "--format", "json", "--cache", str(warm)]),
                   lambda r: r.code == 0 and [tuple(map(int, o["A"])) for o in json.loads(r.stdout)]
                   == [eulerian_row(n) for n in range(1, 21)])


WORKLOADS: dict[str, type[Workload]] = {
    "verify-all": VerifyAll,
    "enumerate": Enumerate,
    "algebra": Algebra,
    "cli-cache": CliCache,
}
