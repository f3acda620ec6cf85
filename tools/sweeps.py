"""Checks past verify's caps, each run as a child process under its caps.

``python tools/sweeps.py`` runs every case of CASES, one child at a time,
prints one line per case and exits 1 if any case failed or went over a cap.
``python tools/sweeps.py SWEEP ARGS...`` runs one sweep in this process, as
each child does (an argument of digits is an int); a sweep prints what it
counted and returns whether its check held.
"""

import io
import os
import signal
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations_with_replacement, permutations
from math import comb

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
from eulerian_workbench import boxes, exactnum, perm  # noqa: E402
from eulerian_workbench.eulerian import table_from_recurrence  # noqa: E402


def cli(*args, sink=None):
    """The CLI's exit code and stdout on args, run in this process; "" if sent to sink."""
    from eulerian_workbench import cli as workbench
    out = sink or io.StringIO()
    with redirect_stdout(out):
        code = workbench.run([str(a) for a in args])
    return code, "" if sink else out.getvalue()


def brute(*args):
    """The table args name, by brute force and by the recurrence: one
    non-empty stdout. Brute force is passed 10**12 shards, which it accepts
    without --force and ignores, counting each S_n once. --force reaches
    brute force only."""
    brute_code, table = cli(*args, "--source", "brute", "--shards", 10**12)
    code, recurrence = cli(*[a for a in args if a != "--force"], "--source", "recurrence")
    agree = brute_code == code == 0 and table != "" and table == recurrence
    print(*args, "brute force and recurrence", "agree" if agree else "DISAGREE")
    return agree


def verify(n_max):
    """verify --suite all to n_max, its brute-force checks up to the guard."""
    code, report = cli("verify", "--suite", "all", "--n-max", n_max)
    print(report.rstrip("\n").rpartition("\n")[2])
    return code == 0


def census(n, *force):
    """The hop classes of S_n counted by peaks are the row of the gamma vector."""
    orbit_code, orbits = cli("orbits", "--n", n, *force, "--format", "csv")
    gamma_code, gamma = cli("gamma", "--n", n, "--format", "csv")
    counts = ",".join(line.split(",")[1] for line in orbits.splitlines()[1:])
    row = gamma.splitlines()[-1].split(",", 1)[1] if gamma else ""
    print(f"n={n}: orbit census {counts}, gamma row {row}")
    return orbit_code == gamma_code == 0 and counts != "" and counts == row


def table(*args):
    """A table command, its stdout discarded: a child's peak RSS is the command's."""
    with open(os.devnull, "w") as sink:
        return cli(*args, sink=sink)[0] == 0


def grid_census(n, columns, rows):
    """The census of n balls in a columns x rows grid: every count equals
    count_two_sided, and the total binomial(columns * rows + n - 1, n)."""
    census = boxes.oracle_two_sided_census(n, columns, rows)
    wrong = [w for w, count in census.items() if count != boxes.count_two_sided(w, columns, rows)]
    total = sum(census.values())
    print(f"{len(census)} permutations, {total} placements, {len(wrong)} off the closed form")
    return not wrong and total == comb(columns * rows + n - 1, n)


def standardization(n, columns, rows):
    """Every placement of n balls in a columns x rows grid standardized: the
    vertical bars cover the descents of w, the horizontal bars those of w
    inverse, and count_two_sided(w, columns, rows) placements give each w."""
    fibres = Counter()
    uncovered = 0
    for cells in combinations_with_replacement(range(columns * rows), n):
        w, vertical, horizontal = boxes.standardize_grid_placement(cells, columns, rows)
        inv = perm.inverse(w)
        uncovered += any(w[q - 1] > w[q] and q not in vertical
                         or inv[q - 1] > inv[q] and q not in horizontal for q in range(1, n))
        fibres[w] += 1
    wrong = [w for w in permutations(range(1, n + 1))
             if fibres[w] != boxes.count_two_sided(w, columns, rows)]
    total = sum(fibres.values())
    print(f"{total} placements, {uncovered} with a descent off the bars, {len(wrong)} fibres off")
    return not uncovered and not wrong and total == comb(columns * rows + n - 1, n)


def barred_census(n, k):
    """The barred census of n balls in k boxes: every count equals
    count_barred, and the total k**n."""
    census = boxes.oracle_barred_census(n, k)
    wrong = [w for w, count in census.items() if count != boxes.count_barred(w, k)]
    total = sum(census.values())
    print(f"{len(census)} permutations, {total} assignments, {len(wrong)} off the closed form")
    return not wrong and total == k**n


def sturm(n_max, full_from):
    """Every row A_n(t)/t, n <= n_max, has n - 1 distinct negative roots by
    Sturm, and from n = full_from on so does the remainder sequence of the
    whole polynomial, the test-side full_chain_count."""
    if full_from <= n_max:
        sys.path.insert(0, os.path.join(ROOT, "tests"))
        from test_exactnum import full_chain_count
    table = table_from_recurrence(n_max)
    wrong = []
    for n in range(1, n_max + 1):
        p = exactnum.UniPoly.from_coeffs(table.row(n))
        count = exactnum.sturm_negative_root_count(p)
        if count != (n - 1, True) or n >= full_from and full_chain_count(p) != count:
            wrong.append(n)
    print(f"rows off (n - 1, True), or from n = {full_from} off the full chain: {wrong}")
    return not wrong


def stats(n):
    """stats on the reversed word of 1..n, and the same word with a second 2
    for its last letter refused: exit 2, one short stderr line."""
    word = ",".join(map(str, range(n, 0, -1)))
    code, profile = cli("stats", word)
    err = io.StringIO()
    with redirect_stderr(err):
        refused, _ = cli("stats", word[:-1] + "2")
    message = err.getvalue().rstrip("\n")
    print(f"stats on {n}..1: {profile.strip()}; on {n}..3,2,2: exit {refused}, {message}")
    expected = f"des={n - 1} ides={n - 1} inv={comb(n, 2)} asc=0 exc={n // 2} run={n}\n"
    one_short_line = message != "" and "\n" not in message and len(message) < 199
    return code == 0 and profile == expected and refused == 2 and one_short_line


def cold_start(runs):
    """Medians of runs fresh processes of stats 123, of verify at its default
    bounds and of a bare interpreter: printed, not gated, as runners vary."""
    import statistics
    import subprocess

    def ms(argv):
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], env={**os.environ, "PYTHONPATH": SRC},
                       capture_output=True, check=True)
        return 1000 * (time.perf_counter() - start)

    def median_ms(*argv):
        return statistics.median(ms(argv) for _ in range(runs))

    workbench = ("-m", "eulerian_workbench.cli")
    print(f"stats 123: {median_ms(*workbench, 'stats', '123'):.1f} ms, "
          f"verify: {median_ms(*workbench, 'verify'):.1f} ms, "
          f"a bare interpreter: {median_ms('-c', 'pass'):.1f} ms (medians of {runs} runs)")
    return True


# (sweep, args, wall cap in s, peak RSS cap in MiB), None for no cap. Tables
# run at the largest n that cli.WORK_BUDGET admits, or forced past it.
CASES = [
    (brute, ("eulerian", "--n", 10), None, None),
    (brute, ("eulerian", "--n", 11), None, None),
    (brute, ("two-sided", "--n", 9), None, None),
    (brute, ("two-sided", "--n", 11), None, None),
    (brute, ("two-sided", "--n-max", 9, "--format", "csv"), None, None),
    (brute, ("eulerian", "--n", 12, "--force"), None, None),
    (brute, ("two-sided", "--n", 12, "--force"), None, None),
    (verify, (11,), None, None),
    (census, (10,), None, None),
    (census, (11,), None, None),
    (census, (12, "--force"), None, None),
    (table, ("eulerian", "--n-max", 584, "--format", "json"), None, 80),
    (table, ("two-sided", "--n-max", 118, "--format", "json"), None, 80),
    (table, ("gamma", "--n-max", 233, "--format", "json"), None, 120),
    (table, ("gessel", "--n-max", 47, "--format", "json"), None, 120),
    (table, ("gamma", "--n", 1000, "--force"), None, 80),
    (table, ("two-sided", "--n", 200, "--force"), None, 160),
    (grid_census, (8, 3, 7), None, 64),
    (grid_census, (4, 10, 10), None, 64),
    (grid_census, (10, 4, 4), None, 85),
    (standardization, (6, 4, 4), 5, 32),
    (standardization, (5, 3, 5), 5, 32),
    (standardization, (5, 5, 3), 5, 32),
    (barred_census, (8, 6), None, 64),
    (barred_census, (2, 300), None, 64),
    (barred_census, (1, 70000), None, 64),
    (sturm, (80, 81), 20, None),
    (sturm, (80, 61), 120, None),
    # 23,000 letters in comma form stay under Linux's 128 KiB limit on one argv string
    (stats, (23000,), 10, None),
    (cold_start, (11,), None, None),
]


def run(cases):
    """Run every case as a child process, one at a time: 1 if any failed or
    went over a cap, else 0. A child still running at its wall cap is killed.
    os.wait4 reads a child's own peak RSS, at least this process's peak, as a
    child starts as its copy: the runner holds nothing large."""
    failed = False
    for sweep, args, wall_cap, rss_cap in cases:
        argv = [sys.executable, os.path.abspath(__file__), sweep.__name__, *map(str, args)]
        start = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, os.environ)
        signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.setitimer(signal.ITIMER_REAL, wall_cap or 0)
        _, status, usage = os.wait4(pid, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall, rss = time.monotonic() - start, usage.ru_maxrss / 1024
        code = os.waitstatus_to_exitcode(status)
        ok = code == 0 and wall <= (wall_cap or wall) and rss <= (rss_cap or rss)
        failed |= not ok
        print("ok" if ok else "FAIL", " ".join(argv[2:]) + f": exit {code},",
              f"wall {wall:.2f} s" + (f" (cap {wall_cap} s)," if wall_cap else ","),
              f"peak RSS {rss:.1f} MiB" + (f" (cap {rss_cap} MiB)" if rss_cap else ""), flush=True)
    return int(failed)


if __name__ == "__main__":
    if len(sys.argv) == 1:
        sys.exit(run(CASES))
    name, *args = sys.argv[1:]
    sweep = {case[0].__name__: case[0] for case in CASES}[name]
    sys.exit(not sweep(*(int(a) if a.isdigit() else a for a in args)))
