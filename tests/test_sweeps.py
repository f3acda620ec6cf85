"""tools/sweeps.py, the checks past verify's caps: every sweep holds at a
tiny size and fails on one planted corruption, and its runner reads each
child's exit code, wall time and peak RSS on their own.

The tool is not a package module, so it is loaded by path.
"""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import test_exactnum
from eulerian_workbench import boxes, eulerian, exactnum

SPEC = importlib.util.spec_from_file_location(
    "sweeps", Path(__file__).resolve().parent.parent / "tools" / "sweeps.py"
)
sweeps = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(sweeps)

RUNNER_LINE = re.compile(r"(ok|FAIL) (.+): exit (-?\d+), wall ([\d.]+) s.* peak RSS ([\d.]+) MiB")
# a runner over cases given as JSON lists [sweep name, args, wall cap, RSS cap]
RUNNER = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("sweeps", sys.argv[1])
sweeps = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sweeps)
sys.exit(sweeps.run([(getattr(sweeps, name), *rest) for name, *rest in json.loads(sys.argv[2])]))
"""


@pytest.mark.parametrize("sweep, args", [
    (sweeps.grid_census, (3, 2, 2)),
    (sweeps.barred_census, (3, 2)),
    (sweeps.standardization, (3, 2, 2)),
    (sweeps.sturm, (12, 10)),
    (sweeps.brute, ("eulerian", "--n", 5)),
    (sweeps.brute, ("two-sided", "--n", 5, "--force")),
    (sweeps.brute, ("two-sided", "--n-max", 4, "--format", "csv")),
    (sweeps.verify, (5,)),
    (sweeps.census, (6,)),
    (sweeps.census, (6, "--force")),
    (sweeps.table, ("gamma", "--n-max", 6, "--format", "json")),
    (sweeps.stats, (200,)),
    (sweeps.cold_start, (1,)),
])
def test_every_sweep_holds_at_a_tiny_size(sweep, args):
    assert sweep(*args) is True


def plus_one_at(word):
    def corrupt(count):
        return lambda w, *rest: count(w, *rest) + (w == word)
    return corrupt


def first_vertical_bar_dropped(standardize):
    def dropped(cells, columns, rows):
        w, vertical, horizontal = standardize(cells, columns, rows)
        return w, vertical[1:], horizontal
    return dropped


def off_at_row(n):
    """A negative-root count that reads (n, True) where it was (n - 1, True)."""
    def corrupt(count):
        return lambda p: (n, True) if count(p) == (n - 1, True) else count(p)
    return corrupt


def first_entry_off_at_row(n):
    def corrupt(rows):
        def off(ns, *rest, **kwargs):
            table = rows(ns, *rest, **kwargs)
            return {m: (row[0] + (m == n), *row[1:]) for m, row in table.items()}
        return off
    return corrupt


def last_line_changed(marker):
    """The CLI helper with a 9 added to the last line of stdout on calls
    whose arguments hold marker."""
    def corrupt(cli):
        def changed(*args, **kwargs):
            code, out = cli(*args, **kwargs)
            return code, out.rstrip("\n") + "9\n" if marker in args else out
        return changed
    return corrupt


@pytest.mark.parametrize("module, name, corrupt, sweep, args", [
    (boxes, "count_two_sided", plus_one_at((2, 1, 3)), sweeps.grid_census, (3, 2, 2)),
    (boxes, "count_two_sided", plus_one_at((2, 1, 3)), sweeps.standardization, (3, 2, 2)),
    (boxes, "count_barred", plus_one_at((2, 1, 3)), sweeps.barred_census, (3, 2)),
    (boxes, "standardize_grid_placement", first_vertical_bar_dropped,
     sweeps.standardization, (3, 2, 2)),
    (exactnum, "sturm_negative_root_count", off_at_row(11), sweeps.sturm, (12, 13)),
    (test_exactnum, "full_chain_count", off_at_row(11), sweeps.sturm, (12, 10)),
    (eulerian, "brute_force_rows", first_entry_off_at_row(5), sweeps.verify, (5,)),
    (sweeps, "cli", last_line_changed("brute"), sweeps.brute, ("eulerian", "--n", 5)),
    (sweeps, "cli", last_line_changed("orbits"), sweeps.census, (6,)),
    (sweeps, "cli", last_line_changed("stats"), sweeps.stats, (200,)),
])
def test_every_sweep_fails_on_a_planted_corruption(monkeypatch, module, name, corrupt, sweep, args):
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    assert sweep(*args) is False


def test_the_full_chain_is_read_from_its_first_row_on(monkeypatch):
    monkeypatch.setattr(test_exactnum, "full_chain_count", off_at_row(11)(test_exactnum.full_chain_count))
    assert sweeps.sturm(12, 12) is True


def run_fresh(*cases):
    """The exit code and the per-case lines of a runner in a fresh interpreter.
    A child's peak RSS counts its parent's peak RSS at the spawn, so the
    runner must stay small, as it does from the command line."""
    runner = subprocess.run(
        [sys.executable, "-c", RUNNER, SPEC.origin, json.dumps(cases)],
        capture_output=True, text=True,
    )
    lines = map(RUNNER_LINE.match, runner.stdout.splitlines())
    return runner.returncode, [line.groups() for line in lines if line]


def test_the_runner_runs_every_case_and_fails_on_an_exit_or_a_cap():
    code, lines = run_fresh(
        ("barred_census", (2, 2), None, None),
        ("table", ("eulerian", "--n-max", 0), None, None),
        ("barred_census", (2, 2), None, 1),
        ("sturm", (80, 61), 0.3, None),
    )
    assert code == 1
    assert [line[:3] for line in lines] == [
        ("ok", "barred_census 2 2", "0"),
        ("FAIL", "table eulerian --n-max 0", "1"),
        ("FAIL", "barred_census 2 2", "0"),
        ("FAIL", "sturm 80 61", "-9"),
    ]
    # killed at its wall cap, most of a minute before its end
    assert float(lines[3][3]) < 5


def test_each_child_reads_its_own_peak_rss():
    code, lines = run_fresh(
        # a --n-max range holds every array to 170; the census holds next
        # to nothing
        ("table", ("two-sided", "--n-max", 170, "--force", "--format", "csv"), None, None),
        ("barred_census", (2, 2), None, None),
    )
    assert code == 0
    (*_, large), (*_, small) = lines
    assert float(large) >= 64 and float(small) < 40
