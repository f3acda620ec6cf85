"""The command-line surface: formats, exit codes, the ignored cache flag, determinism."""

import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerian_workbench import cli, eulerian, hopping, perm, twosided, verify
from eulerian_workbench.common import CheckReport, GuardRailError

from reference_tables import TABLE1, TABLE2


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_stats_worked_line():
    code, out, err = run_cli("stats", "5624713")
    assert code == 0
    assert out == "des=2 ides=3 inv=13 asc=4 exc=3 run=3\n"
    assert err == ""


def test_stats_many_words_one_line_each():
    code, out, _ = run_cli("stats", "1234", "4321")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "des=0 ides=0 inv=0 asc=3 exc=0 run=1"
    assert lines[1] == "des=3 ides=3 inv=6 asc=0 exc=2 run=4"


def test_stats_json_and_csv():
    code, out, _ = run_cli("stats", "5624713", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "w": "5624713",
        "des": "2",
        "ides": "3",
        "inv": "13",
        "asc": "4",
        "exc": "3",
        "run": "3",
    }
    code, out, _ = run_cli("stats", "5624713", "21", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "w,des,ides,inv,asc,exc,run"
    assert lines[1] == "5624713,2,3,13,4,3,3"
    assert lines[2] == "21,1,1,1,0,1,2"


# sha256 of stdout, frozen from the release before stats wrote its JSON
# through the table commands' writer
STATS_JSON_DIGEST = "08dabdcd4b8d5f9205626c8409fae903f3be195ca429d0e186d33876739cb276"


def test_stats_json_of_many_words_is_a_pinned_list():
    code, out, _ = run_cli("stats", "1234", "4321", "5624713", "--format", "json")
    assert code == 0
    assert [obj["w"] for obj in json.loads(out)] == ["1234", "4321", "5624713"]
    assert hashlib.sha256(out.encode()).hexdigest() == STATS_JSON_DIGEST


def test_eulerian_csv_row_8():
    code, out, _ = run_cli("eulerian", "--n", "8", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split(",")[0] == "n\\i"
    assert lines[1] == "8," + ",".join(str(c) for c in TABLE1[8])


def test_eulerian_json_shapes():
    code, out, _ = run_cli("eulerian", "--n", "4", "--format", "json")
    assert json.loads(out) == {"n": "4", "A": ["1", "11", "11", "1"]}
    code, out, _ = run_cli("eulerian", "--n-max", "3", "--format", "json")
    objs = json.loads(out)
    assert [o["n"] for o in objs] == ["1", "2", "3"]
    assert objs[2]["A"] == ["1", "4", "1"]


def test_eulerian_text_triangle():
    code, out, _ = run_cli("eulerian", "--n-max", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n\\i")
    for n, line in enumerate(lines[1:], start=1):
        cells = line.split()
        assert cells[0] == str(n)
        assert tuple(int(c) for c in cells[1:]) == TABLE1[n]


def test_two_sided_json_matches_reference():
    code, out, _ = run_cli("two-sided", "--n-max", "8", "--format", "json")
    assert code == 0
    for obj in json.loads(out):
        n = int(obj["n"])
        got = tuple(tuple(int(c) for c in row) for row in obj["A"])
        assert got == TABLE2[n]


def test_two_sided_text_blocks():
    code, out, _ = run_cli("two-sided", "--n-max", "3")
    blocks = out.strip().split("\n\n")
    assert [b.splitlines()[0] for b in blocks] == ["n=1", "n=2", "n=3"]
    last = blocks[2].splitlines()
    assert last[1].split() == ["i\\j", "1", "2", "3"]
    assert last[3].split() == ["2", "0", "4", "0"]


def test_gamma_outputs():
    code, out, _ = run_cli("gamma", "--n", "5", "--format", "json")
    assert json.loads(out) == {
        "n": "5",
        "A": ["1", "26", "66", "26", "1"],
        "gamma": ["1", "22", "16"],
    }
    code, out, _ = run_cli("gamma", "--n", "5")
    assert out == "n=5: gamma = [1, 22, 16]\n"
    code, out, _ = run_cli("gamma", "--n-max", "5", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "n\\i,1,2,3"
    assert lines[5] == "5,1,22,16"


def test_gessel_outputs():
    code, out, _ = run_cli("gessel", "--n", "5", "--format", "json")
    obj = json.loads(out)
    assert obj["gamma"] == {
        "(1,0)": "1",
        "(2,0)": "16",
        "(2,1)": "6",
        "(3,0)": "16",
    }
    assert obj["gessel_nonnegative"] is True
    code, out, _ = run_cli("gessel", "--n", "5")
    assert (
        out
        == "n=5: gamma(1,0)=1 gamma(2,0)=16 gamma(2,1)=6 gamma(3,0)=16 "
        "verdict=NONNEGATIVE\n"
    )
    code, out, _ = run_cli("gessel", "--n", "4", "--format", "csv")
    assert out.splitlines() == [
        "n,i,j,gamma",
        "4,1,0,1",
        "4,2,0,7",
        "4,2,1,1",
    ]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("command", ["gamma", "gessel"])
def test_a_negative_expansion_exits_one_with_nothing_printed(monkeypatch, command, fmt):
    # a negative coefficient is a fault (Foata-Strehl for rows, Lin for
    # arrays), so no verdict of it is printed
    if command == "gamma":
        real = eulerian.gamma_extract

        def negated(p, n):
            v = real(p, n)
            return eulerian.GammaVector(n, (-v.gammas[0], *v.gammas[1:])) if n == 4 else v

        monkeypatch.setattr(eulerian, "gamma_extract", negated)
    else:
        real = twosided.gessel_solve

        def negated(p, n):
            e = real(p, n)
            if n != 4:
                return e
            return twosided.GesselExpansion(n, {**e.gammas, (1, 0): -1}, False)

        monkeypatch.setattr(twosided, "gessel_solve", negated)
    assert run_cli(command, "--n-max", "3", "--format", fmt)[0] == 0
    for argv in (("--n", "4"), ("--n-max", "5")):
        code, out, err = run_cli(command, *argv, "--format", fmt)
        assert (code, out) == (1, "")
        assert err == "verification failure: n=4: the " + (
            "gamma vector" if command == "gamma" else "Gessel expansion"
        ) + " has a negative coefficient\n"


def test_orbit_json_contract():
    code, out, _ = run_cli("orbit", "863247159", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["input"] == "863247159"
    assert obj["representative"] == "234671589"
    assert obj["size"] == "64"
    assert obj["peaks"] == ["7"]
    assert obj["valleys"] == ["2", "1"]
    assert obj["free"] == ["8", "6", "3", "4", "5", "9"]
    assert obj["uni"] == "t^2(1+t)^6"
    assert obj["bi"] == "s^3 t^2 (1+t)^2 (1+st)^4"
    assert obj["uni_terms"]["var"] == "t"
    assert obj["uni_terms"]["terms"][0] == [2, "1"]
    assert obj["bi_terms"]["var"] == "st"
    assert obj["bi_terms"]["terms"][0] == [3, 2, "1"]


def test_orbit_csv_lists_members():
    code, out, _ = run_cli("orbit", "123", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "member,des,ides"
    assert set(lines[1:]) == {"123,0,0", "213,1,1", "312,1,1", "321,2,2"}


def test_orbits_census_output():
    code, out, _ = run_cli("orbits", "--n", "5", "--format", "json")
    assert json.loads(out) == {
        "n": "5",
        "classes": {"0": "1", "1": "22", "2": "16"},
    }
    code, out, _ = run_cli("orbits", "--n", "3")
    assert out.splitlines() == ["peaks=0: 1", "peaks=1: 2", "total classes: 3"]


def test_series_univariate():
    code, out, _ = run_cli("series", "--n", "3", "--terms", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0 1 8 27 64 125"
    assert "match" in lines[1]
    code, out, _ = run_cli("series", "--n", "3", "--terms", "5", "--format", "json")
    obj = json.loads(out)
    assert obj["coefficients"] == ["0", "1", "8", "27", "64", "125"]
    assert obj["matches_closed_form"] is True


def test_series_reads_its_row_from_the_row_stream_and_builds_no_triangle(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("series built a whole triangle")

    monkeypatch.setattr(eulerian, "table_from_recurrence", never)
    for n in (2, 3, 7, 40):
        code, out, _ = run_cli("series", "--n", str(n), "--terms", "4", "--format", "csv")
        assert code == 0
        assert out.split() == ["k,coefficient"] + [f"{k},{k**n}" for k in range(5)]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_a_single_n_streams_its_array_and_builds_no_table(monkeypatch, fmt):
    # two-sided, gessel and series --bivariate at one n > 1 read array n
    # from recurrence_arrays and row n from recurrence_rows, and print the
    # bytes they print when the list builders are there to call
    calls = [(command, "--n", str(n), "--format", fmt) for n in (2, 3, 7, 13)
             for command in ("two-sided", "gessel")]
    calls += [("series", "--n", str(n), "--terms", "4", "--bivariate", "--format", fmt)
              for n in (2, 3, 7, 13)]
    expected = [run_cli(*argv) for argv in calls]

    def never(*args, **kwargs):
        raise AssertionError("a single n built a whole table")

    monkeypatch.setattr(eulerian, "table_from_recurrence", never)
    monkeypatch.setattr(twosided, "two_sided_from_recurrence", never)
    for argv, want in zip(calls, expected):
        assert want[0] == 0
        assert run_cli(*argv) == want


def test_series_bivariate():
    code, out, _ = run_cli(
        "series", "--n", "2", "--terms", "3", "--bivariate", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "grid"
    assert obj["grid"][2][3] == "21"  # binomial(2*3 + 1, 2)
    assert obj["matches_closed_form"] is True


def corrupt_the_recurrences(monkeypatch, n):
    """Make the recurrences behind series give row n and array n with one
    entry, A(n, 2) and A(n, 1, 2), one too large."""
    generate, arrays = eulerian.recurrence_rows, twosided.recurrence_arrays

    def bad_rows(row):
        for out in generate(row):
            yield (out[0], out[1] + 1, *out[2:]) if len(out) == n else out

    def bad_arrays(table):
        for out in arrays(table):
            if out.n == n:
                entries = [list(row) for row in out.entries]
                entries[0][1] += 1
                out = twosided.TwoSidedTable(n, tuple(map(tuple, entries)))
            yield out

    monkeypatch.setattr(eulerian, "recurrence_rows", bad_rows)
    monkeypatch.setattr(twosided, "recurrence_arrays", bad_arrays)


# sha256 of series --n 3 --terms 4 stdout from a corrupt row or array
SERIES_MISMATCH_DIGESTS = {
    (False, "text"): "b9536066196760e4d703612e9da2ca5e42c3a85b2418c6c576b3a4d0a8ec981b",
    (False, "json"): "20f4e25cf5342b7c82e2143fdc0d949ad07b5d4a67de48c6c0f36099a358ad10",
    (False, "csv"): "5db7e5495d041d385aa80f195d51c994e1d43cc51eafd8710df9d095382ccbdb",
    (True, "text"): "fabe1bdf3b7bfe7fa1421c6cd81173f73f46fa9ef347abe1e5a4be83229aac1d",
    (True, "json"): "a779e30214e191c3d32e21fbed4feb2cf8bd0c522cf8e717861f941ed2a9ab43",
    (True, "csv"): "171d69972944238a3bcdbbcabab4aa47d9a70d3006d9127745f164f7742eb51c",
}


@pytest.mark.parametrize("bivariate,fmt", sorted(SERIES_MISMATCH_DIGESTS))
def test_series_prints_a_window_that_misses_its_closed_form_and_exits_one(
    monkeypatch, bivariate, fmt
):
    corrupt_the_recurrences(monkeypatch, 3)
    extra = ("--bivariate",) if bivariate else ()
    code, out, err = run_cli("series", "--n", "3", "--terms", "4", *extra, "--format", fmt)
    assert (code, err) == (1, "")
    if fmt == "text":
        assert "MISMATCH against" in out
    elif fmt == "json":
        assert json.loads(out)["matches_closed_form"] is False
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_MISMATCH_DIGESTS[bivariate, fmt]


def test_series_window_budget():
    budget = cli.SERIES_WINDOW_BUDGET
    side = math.isqrt(budget)  # (side + 1)**2 entries is past the budget
    # the guard decides before any window or table is built
    for argv in (("--terms", str(budget)), ("--terms", str(side), "--bivariate"),
                 ("--terms", str(10**12), "--bivariate")):
        code, out, err = run_cli("series", "--n", "3", *argv)
        assert code == 3
        assert out == ""
        assert "--force" in err
    cli._check_series_budget(3, budget - 1, False, False)
    cli._check_series_budget(3, side - 1, True, False)
    cli._check_series_budget(3, 10**12, True, True)


def test_series_work_budget_counts_n():
    # windows inside the entry budget whose work n makes too large; the
    # guard decides before the recurrence or the window is built
    for argv in (("--n", "15", "--terms", "999", "--bivariate"),
                 ("--n", "300", "--terms", "9999"),
                 ("--n", str(10**6), "--terms", "0"),
                 ("--n", str(10**6), "--terms", "0", "--bivariate")):
        code, out, err = run_cli("series", *argv)
        assert code == 3
        assert out == ""
        assert "--force" in err
    for n, terms, bivariate in ((5, 999, True), (300, 1900, False),
                                (580, 0, False), (118, 0, True)):
        cli._check_series_budget(n, terms, bivariate, False)
    cli._check_series_budget(10**6, 0, True, True)


# the largest n each table command may take without --force, alone and as a
# listing up to n (--n, --n-max)
TABLE_BUDGET_EDGES = {
    "eulerian": (584, 584),
    "two-sided": (118, 118),
    "gamma": (542, 233),
    "gessel": (70, 47),
}


def _table_ns(n, listing):
    return range(1, n + 1) if listing else range(n, n + 1)


@pytest.fixture
def int_str_limit():
    """Python's default 4300-digit limit on int-to-str conversion, then the
    limit the run had."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


# the largest n whose n! has at most 4300 digits: every table entry is below n!
PRINTABLE_TABLE_N = 1558


def test_table_budget_edges(int_str_limit):
    for command, edges in TABLE_BUDGET_EDGES.items():
        for listing, top in enumerate(edges):
            cli._check_table_budget(command, _table_ns(top, listing), False)
            with pytest.raises(GuardRailError, match="--force"):
                cli._check_table_budget(command, _table_ns(top + 1, listing), False)
            cli._check_table_budget(command, _table_ns(PRINTABLE_TABLE_N, listing), True)


def test_int_str_limit_is_decided_before_building(int_str_limit, monkeypatch):
    assert math.factorial(PRINTABLE_TABLE_N) < 10**int_str_limit <= math.factorial(PRINTABLE_TABLE_N + 1)

    def never(*args, **kwargs):
        raise AssertionError("an unprintable table was built")

    for module, name in ((eulerian, "table_from_recurrence"), (eulerian, "recurrence_rows"),
                         (eulerian, "brute_force_rows"), (twosided, "two_sided_from_recurrence"),
                         (twosided, "recurrence_arrays"), (twosided, "brute_force_tables")):
        monkeypatch.setattr(module, name, never)
    for command in TABLE_BUDGET_EDGES:
        for listing in (0, 1):
            for top in (PRINTABLE_TABLE_N + 1, 10**12):
                with pytest.raises(GuardRailError, match=f"budget {PRINTABLE_TABLE_N}$"):
                    cli._check_table_budget(command, _table_ns(top, listing), True)
        code, out, err = run_cli(command, "--n", str(PRINTABLE_TABLE_N + 1), "--force")
        assert code == 3
        assert out == ""
        assert "int-to-str" in err and "--force" not in err
    # no limit, no refusal
    sys.set_int_max_str_digits(0)
    cli._check_table_budget("gessel", range(1, 10**12 + 1), True)
    cli._check_series_budget(10**5, 10**5, False, True)


def test_series_int_str_limit(int_str_limit):
    bound = 10**int_str_limit
    # the largest printed number is terms**n, or binomial(terms**2 + n - 1, n)
    cli._check_series_budget(int_str_limit - 1, 10, False, True)
    with pytest.raises(GuardRailError, match="int-to-str"):
        cli._check_series_budget(int_str_limit, 10, False, True)
    for terms in (100, 1000):
        cells = terms * terms
        top, past = 0, 2 * int_str_limit  # bisect on math.comb
        while past - top > 1:
            mid = (top + past) // 2
            top, past = (mid, past) if math.comb(cells + mid - 1, mid) < bound else (top, mid)
        cli._check_series_budget(top, terms, True, True)
        with pytest.raises(GuardRailError, match=f"budget {top}$"):
            cli._check_series_budget(top + 1, terms, True, True)
    # terms below 2 print nothing past 1
    for bivariate in (False, True):
        for terms in (0, 1):
            cli._check_series_budget(10**6, terms, bivariate, True)


def test_table_budget_allows_every_documented_invocation():
    # the bench's cli-cache commands, the README's and the largest in tests/
    for command, n_max in (("eulerian", 300), ("two-sided", 40), ("gamma", 60),
                           ("gessel", 10), ("gessel", 20), ("two-sided", 8)):
        cli._check_table_budget(command, range(1, n_max + 1), False)


def test_table_budget_is_decided_before_building(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an over-budget table was built")

    for module, name in ((eulerian, "table_from_recurrence"), (eulerian, "recurrence_rows"),
                         (eulerian, "brute_force_rows"), (twosided, "two_sided_from_recurrence"),
                         (twosided, "recurrence_arrays"), (twosided, "brute_force_tables")):
        monkeypatch.setattr(module, name, never)
    for command, (single, listing) in TABLE_BUDGET_EDGES.items():
        for argv in (("--n", str(single + 1)), ("--n-max", str(listing + 1)),
                     ("--n", str(10**12)), ("--n-max", str(10**12)), ("--n", str(10**4000)),
                     ("--n", "3000", "--source", "brute")):
            code, out, err = run_cli(command, *argv)
            assert code == 3
            assert out == ""
            assert "--force" in err


def test_orbit_budget_is_decided_before_building(monkeypatch):
    fits = tuple(range(1, 16))  # 14 free letters: 2**14 members of 15 letters
    past = tuple(range(1, 17))  # 2**15 members of 16 letters
    hopping.check_orbit_budget(fits, force=False)
    with pytest.raises(GuardRailError):
        hopping.check_orbit_budget(past, force=False)
    hopping.check_orbit_budget(past, force=True)

    def never(w):
        raise AssertionError("an over-budget orbit was built")

    monkeypatch.setattr(hopping, "orbit_of", never)
    for word in (past, tuple(range(1, 41))):
        code, out, err = run_cli("orbit", ",".join(map(str, word)))
        assert code == 3
        assert out == ""
        assert "--force" in err


def test_verify_text_and_exit():
    code, out, err = run_cli("verify", "--suite", "eulerian", "--n-max", "4")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("[PASS]") for line in lines[:-1])
    assert lines[-1].startswith("suite eulerian:")
    assert "finished in" in err


def report_from_obj(obj: dict) -> tuple[str, list[CheckReport]]:
    """Read a verify JSON report back into its suite name and checks."""
    checks = [
        CheckReport(c["status"] == "pass", c["description"], c.get("detail", ""))
        for c in obj["checks"]
    ]
    return obj["suite"], checks


def test_verify_json_report_round_trip():
    code, out, _ = run_cli(
        "verify", "--suite", "boxes", "--n-max", "3", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "pass"
    suite, checks = report_from_obj(obj)
    assert suite == "boxes"
    assert all(c.ok for c in checks)
    assert cli.report_to_obj(suite, checks) == obj


def test_verify_failure_exits_one(monkeypatch):
    def broken(bounds):
        return [CheckReport(False, "synthetic failing check", "injected")]

    monkeypatch.setitem(verify.SUITES, "eulerian", broken)
    code, out, _ = run_cli("verify", "--suite", "eulerian")
    assert code == 1
    assert "[FAIL] synthetic failing check :: injected" in out


def test_usage_errors_exit_two():
    code, _, err = run_cli("bogus")
    assert code == 2
    code, _, err = run_cli("eulerian", "--n", "3", "--n-max", "5")
    assert code == 2
    code, _, err = run_cli("eulerian")
    assert code == 2
    code, _, err = run_cli("stats", "1232")
    assert code == 2
    assert "not a permutation" in err
    code, _, err = run_cli("eulerian", "--n", "0")
    assert code == 2
    for flag in ("--n-max", "--k", "--l", "--terms"):
        code, out, err = run_cli("verify", "--suite", "eulerian", flag, "-3")
        assert (code, out) == (2, "")
        assert "must be at least 1" in err


def test_guard_rails_exit_three():
    code, _, err = run_cli("orbits", "--n", "12")
    assert code == 3
    assert "force" in err
    code, _, err = run_cli("eulerian", "--n", "12", "--source", "brute")
    assert code == 3


def test_help_exits_zero():
    code, out, _ = run_cli("--help")
    assert code == 0
    assert "eulerian-workbench" in out


# ---------------------------------------------------------------------------
# one parser per process

# argv and exit code: flags given and then left out, every format, a usage
# error, verify and help
PARSER_SEQUENCE = [
    (("eulerian", "--n", "0"), 2),
    (("eulerian", "--n", "6", "--source", "brute", "--shards", "3"), 0),
    (("eulerian", "--n", "6"), 0),
    (("two-sided", "--n-max", "3", "--format", "csv"), 0),
    (("orbit", "816324759", "--force"), 0),
    (("orbit", "816324759"), 0),
    (("stats", "3142", "--format", "json"), 0),
    (("verify", "--suite", "eulerian", "--n-max", "4"), 0),
    (("--help",), 0),
]


def without_elapsed(err):
    return re.sub(r"finished in [0-9.]+s", "finished in", err)


def test_a_shared_parser_carries_nothing_from_one_run_to_the_next():
    # in-process, where --help wraps to the same terminal width each time
    cli._parser.cache_clear()
    shared = [run_cli(*argv) for argv, _ in PARSER_SEQUENCE]
    for (argv, want), (code, out, err) in zip(PARSER_SEQUENCE, shared):
        cli._parser.cache_clear()
        alone_code, alone_out, alone_err = run_cli(*argv)
        assert code == want, argv
        assert (code, out) == (alone_code, alone_out), argv
        assert without_elapsed(err) == without_elapsed(alone_err), argv


def test_the_parser_is_built_once_per_process_and_not_at_import(monkeypatch):
    code = "import eulerian_workbench.cli as cli; print(cli._parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    built = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True).stdout
    assert built == "0\n"
    calls = []
    build = cli.build_parser

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for argv in (("stats", "312"), ("eulerian", "--n", "0"), ("orbit", "312"), ("--help",)):
        run_cli(*argv)
    assert len(calls) == 1
    assert build() is not cli._parser()  # build_parser still builds a new one


def test_dropped_flags_exit_2():
    # each flag is taken only by the subcommands it acts on
    for argv in (("verify", "--shards", "8"), ("stats", "312", "--cache", "d", "--force"),
                 ("orbits", "--n", "11", "--shards", "4"), ("series", "--n", "3", "--cache", "d"),
                 ("orbit", "312", "--shards", "2"), ("verify", "--force")):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err


# ---------------------------------------------------------------------------
# the exit-code contract over generated argv

TABLE_COMMANDS = ("eulerian", "two-sided", "gamma", "gessel")
SMALL_WORDS = st.integers(1, 6).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(lambda w: "".join(map(str, w)))
)
BAD_WORD_LIST = ("1232", "0", "21a", "13", "", "1,,2", "-1")
BAD_WORDS = st.sampled_from(BAD_WORD_LIST)
# flags a subcommand does not take
DROPPED = {
    "stats": [("--cache", "d"), ("--shards", "2"), ("--force",)],
    "verify": [("--cache", "d"), ("--shards", "2"), ("--force",)],
    "orbit": [("--cache", "d"), ("--shards", "2")],
    "orbits": [("--cache", "d"), ("--shards", "2")],
    "series": [("--cache", "d"), ("--shards", "2")],
}


@st.composite
def cli_cases(draw):
    """(argv, the exit code its inputs require, a verify suite to break).

    Only small inputs run for real. Over-budget inputs (large n, long
    windows, big orbits, S_n past the guard) never come with --force, and
    the test runs them with every builder patched to raise.
    """
    command = draw(st.sampled_from(["stats", *TABLE_COMMANDS, "orbit", "orbits", "series", "verify"]))
    argv, usage, over, broken = [command], False, False, None

    if command == "stats":
        words = draw(st.lists(st.one_of(SMALL_WORDS, BAD_WORDS), min_size=1, max_size=3))
        argv += words
        usage = any(w in BAD_WORD_LIST for w in words)
    elif command in TABLE_COMMANDS:
        brute = draw(st.booleans())
        n = draw(st.one_of(st.integers(-2, 6), st.sampled_from([12] if brute else [1000, 10**12])))
        argv += [draw(st.sampled_from(["--n", "--n-max"])), str(n)]
        usage, over = n < 1, n > 6
        if brute:
            argv += ["--source", "brute"]
        if draw(st.booleans()):
            shards = draw(st.integers(-1, 3))
            argv += ["--shards", str(shards)]
            usage = usage or shards < 1
        if not over and draw(st.booleans()):
            argv.append("--force")
    elif command == "orbit":
        kind = draw(st.sampled_from(["small", "bad", "big"]))
        if kind == "big":  # 2**(m - 1) members of m letters: past 2**18 letters
            argv.append(",".join(map(str, range(1, draw(st.integers(16, 20)) + 1))))
        else:
            argv.append(draw(SMALL_WORDS if kind == "small" else BAD_WORDS))
        usage, over = kind == "bad", kind == "big"
        if not over and draw(st.booleans()):
            argv.append("--force")
    elif command == "orbits":
        n = draw(st.one_of(st.integers(-1, 7), st.just(12)))
        argv += ["--n", str(n)]
        usage, over = n < 1, n > 11
        if not over and draw(st.booleans()):
            argv.append("--force")
    elif command == "series":
        n = draw(st.one_of(st.integers(-1, 5), st.just(10**6)))
        terms = draw(st.one_of(st.integers(-1, 5), st.just(10**6)))
        argv += ["--n", str(n), "--terms", str(terms)]
        if draw(st.booleans()):
            argv.append("--bivariate")
        usage, over = n < 1 or terms < 0, n > 5 or terms > 5
        if not over and draw(st.booleans()):
            argv.append("--force")
    else:
        suite = draw(st.sampled_from(verify.SUITE_ORDER))
        n = draw(st.integers(-2, 4))
        argv += ["--suite", suite, "--n-max", str(n)]
        usage = n < 1
        for flag in draw(st.lists(st.sampled_from(["--k", "--l", "--terms"]), max_size=2, unique=True)):
            value = draw(st.integers(-1, 3))
            argv += [flag, str(value)]
            usage = usage or value < 1
        if draw(st.booleans()):
            broken = suite
    if command in DROPPED and draw(st.integers(0, 3)) == 0:
        argv += draw(st.sampled_from(DROPPED[command]))
        usage = True
    fmt = draw(st.sampled_from([None, "text", "json", "csv", "xml"]))
    if fmt is not None:
        argv += ["--format", fmt]
        usage = usage or fmt == "xml"
    code = 2 if usage else 3 if over else 1 if broken else 0
    return argv, code, broken


@settings(max_examples=200, deadline=None)
@given(case=cli_cases())
def test_exit_codes_follow_the_inputs(case):
    argv, want, broken = case

    def never(*args, **kwargs):
        raise AssertionError("over-budget work was started")

    with pytest.MonkeyPatch.context() as patch:
        if want == 3:
            for module, name in ((eulerian, "table_from_recurrence"),
                                 (eulerian, "recurrence_rows"),
                                 (twosided, "two_sided_from_recurrence"),
                                 (twosided, "recurrence_arrays"),
                                 (hopping, "orbit_of"), (perm, "enumerate_sn")):
                patch.setattr(module, name, never)
        if broken:
            patch.setitem(verify.SUITES, broken,
                          lambda bounds: [CheckReport(False, "injected failure")])
        code, out, _ = run_cli(*argv)
    assert code == want
    if code in (2, 3):
        assert out == ""
    elif code == 1:
        assert "fail" in out.lower()
    else:
        assert out


# ---------------------------------------------------------------------------
# a reader that closes stdout early


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
@pytest.mark.parametrize("argv", [("eulerian", "--n-max", "300"),
                                  ("eulerian", "--n-max", "300", "--format", "json"),
                                  ("two-sided", "--n-max", "40", "--format", "csv")])
def test_a_closed_stdout_ends_the_console_script_by_sigpipe_with_no_traceback(argv):
    # each output is far past a pipe's buffer, so the child is still writing
    # when its reader goes; exit 1 would claim a failed verification
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.Popen([sys.executable, "-m", "eulerian_workbench.cli", *argv], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert len(child.stdout.read(100)) == 100
        child.stdout.close()
        err = child.stderr.read()
        child.wait(timeout=60)
    finally:
        child.kill()
        child.stderr.close()
    assert err == b""
    assert child.returncode == -signal.SIGPIPE


# ---------------------------------------------------------------------------
# the ignored cache flag


def one_cache_notice(err: str) -> bool:
    """err is the single warning line an ignored --cache costs."""
    return err.startswith("warning: ") and err.count("\n") == 1 and "recomputed" in err


@pytest.mark.parametrize("command", TABLE_COMMANDS)
@pytest.mark.parametrize("source,n_max", [("recurrence", "8"), ("brute", "5")])
def test_cache_flag_and_variable_only_cost_one_warning(tmp_path, monkeypatch, command, source, n_max):
    argv = (command, "--n-max", n_max, "--source", source)
    want = run_cli(*argv)
    assert want[0] == 0 and want[2] == ""
    cache = tmp_path / "cache"
    runs = [run_cli(*argv, "--cache", str(cache))]
    monkeypatch.setenv(cli.CACHE_ENV, str(cache))
    runs += [run_cli(*argv), run_cli(*argv, "--cache", str(cache))]
    for code, out, err in runs:
        assert (code, out) == want[:2]
        assert one_cache_notice(err)
    assert not cache.exists()


def test_cache_env_variable(tmp_path, monkeypatch):
    _, want, _ = run_cli("gamma", "--n", "6")
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "envcache"))
    code, out, err = run_cli("gamma", "--n", "6")
    assert (code, out) == (0, want)
    assert one_cache_notice(err)
    assert not (tmp_path / "envcache").exists()


def test_brute_source_bypasses_cache(tmp_path, monkeypatch):
    _, want, _ = run_cli("eulerian", "--n", "5")
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "envcache"))
    code, out, err = run_cli("eulerian", "--n", "5", "--source", "brute")
    assert (code, out) == (0, want)
    assert one_cache_notice(err)
    assert not (tmp_path / "envcache").exists()


def test_cache_entry_that_is_a_directory_warns_and_prints_as_uncached(tmp_path):
    # a directory where an old cache kept an entry is neither read nor replaced
    (tmp_path / "eulerian-n2.json").mkdir()
    argv = ("eulerian", "--n-max", "3")
    _, want, _ = run_cli(*argv)
    code, out, err = run_cli(*argv, "--cache", str(tmp_path))
    assert (code, out) == (0, want)
    assert one_cache_notice(err)
    assert [p.name for p in tmp_path.iterdir()] == ["eulerian-n2.json"]
    assert not any((tmp_path / "eulerian-n2.json").iterdir())


@pytest.mark.parametrize("under", ["", "c"])
def test_unwritable_cache_path_warns_once_and_prints_as_uncached(tmp_path, under):
    # a path at or under a regular file cannot be a directory, even for root
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ("eulerian", "--n-max", "4")
    _, want, _ = run_cli(*argv)
    code, out, err = run_cli(*argv, "--cache", str(blocker / under))
    assert (code, out) == (0, want)
    assert one_cache_notice(err)
    assert blocker.read_text() == ""


@pytest.mark.parametrize("argv", [("--n-max", "6"), ("--n", "6")])
@pytest.mark.parametrize("command", ["eulerian", "gamma", "two-sided", "gessel"])
def test_table_command_runs_one_recurrence_with_or_without_cache(tmp_path, monkeypatch, command, argv):
    # each row 2..6 comes once from the one-sided generator and each array
    # 2..6 once from the two-sided one: through one list builder run for
    # --n-max, and for a single n straight from the generator, from table 1
    # in ints, with no table built; an array command reads its marginals
    # so, beside its arrays; the eulerian command builds the rows it prints
    # in Decimal, for a single n row n alone
    calls, built, arrays = [], [], []

    def rows(row, generate=eulerian.recurrence_rows):
        for out in generate(row):
            built.append((len(out), type(out[0]).__name__))
            yield out

    def tables(table, generate=twosided.recurrence_arrays):
        for out in generate(table):
            arrays.append(out.n)
            yield out

    monkeypatch.setattr(eulerian, "recurrence_rows", rows)
    monkeypatch.setattr(twosided, "recurrence_arrays", tables)
    for module, name in ((eulerian, "table_from_recurrence"), (twosided, "two_sided_from_recurrence")):
        def counted(n_max, build=getattr(module, name), name=name, **kwargs):
            calls.append((name, n_max))
            return build(n_max, **kwargs)

        monkeypatch.setattr(module, name, counted)
    expected = [("table_from_recurrence", 6)] if argv[0] == "--n-max" else []
    kinds = ["int"] * 5
    if command == "eulerian":
        kinds = ["Decimal"] * 5 if argv[0] == "--n-max" else ["int"] * 4 + ["Decimal"]
    if command in ("two-sided", "gessel") and argv[0] == "--n-max":
        expected.insert(0, ("two_sided_from_recurrence", 6))
    for cache in ((), ("--cache", str(tmp_path))):
        calls.clear()
        built.clear()
        arrays.clear()
        code, _, err = run_cli(command, *argv, *cache)
        assert code == 0
        assert one_cache_notice(err) if cache else err == ""
        assert calls == expected
        assert built == list(zip(range(2, 7), kinds))
        assert arrays == (list(range(2, 7)) if command in ("two-sided", "gessel") else [])


# ---------------------------------------------------------------------------
# determinism


def test_shard_counts_do_not_change_bytes():
    outputs = []
    for shards in ("1", "4"):
        code, out, _ = run_cli(
            "eulerian",
            "--n-max",
            "7",
            "--source",
            "brute",
            "--shards",
            shards,
            "--format",
            "json",
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_nonpositive_shards_exit_2():
    for command in ("eulerian", "two-sided"):
        for shards in ("0", "-1"):
            code, out, err = run_cli(
                command, "--n", "4", "--source", "brute", "--shards", shards
            )
            assert code == 2
            assert out == ""
            assert "--shards" in err


@pytest.mark.parametrize("command", ["eulerian", "two-sided"])
def test_any_shard_count_prints_the_bytes_of_one_shard(command):
    # past 10**4 shard blocks over all n, with no --force, S_n is counted once
    brute = (command, "--n-max", "2", "--source", "brute")
    _, serial, _ = run_cli(*brute, "--shards", "1")
    for shards in (5001, 10**12):
        assert run_cli(*brute, "--shards", str(shards)) == (0, serial, "")


def test_brute_force_starts_no_child_process(monkeypatch):
    started = []

    def refuse(*args, **kwargs):
        started.append(args)
        raise AssertionError("a child process was started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    for name in ("fork", "posix_spawn", "posix_spawnp"):
        if hasattr(os, name):
            monkeypatch.setattr(os, name, refuse)
    for command in ("eulerian", "two-sided"):
        brute = (command, "--n", "9", "--source", "brute", "--format", "csv")
        _, serial, _ = run_cli(*brute, "--shards", "1")
        for shards in (None, 3, 8):
            extra = () if shards is None else ("--shards", str(shards))
            code, out, _ = run_cli(*brute, *extra)
            assert code == 0
            assert out == serial
    code, out, _ = run_cli("orbits", "--n", "9")
    assert code == 0
    assert out.endswith("total classes: 54351\n")
    assert started == []


def test_repeat_runs_are_byte_identical():
    first = run_cli("two-sided", "--n-max", "6", "--format", "csv")
    second = run_cli("two-sided", "--n-max", "6", "--format", "csv")
    assert first == second


# ---------------------------------------------------------------------------
# emitters

# sha256 of stdout, frozen from the release before the single table path
TABLE_DIGESTS = {
    ("eulerian", "text"): "66d0e6053434e309a6ebd45aacf99445d67d155f353369d4913bf3a7b1beb03a",
    ("eulerian", "json"): "776d4e0642e96d60758225cc9d824d8267c5f012c6d454cd5ad5fe849ceac888",
    ("eulerian", "csv"): "05fe74eedb9c13ab5fe245e5ad1444af5860c79c32edc434f9d2874b32647df4",
    ("two-sided", "text"): "d3ec3ae93671c9cbcfa546eb6454be56502258b73c2624ac46d2c3e1033c10fe",
    ("two-sided", "json"): "a017214acacb0f2c20034ebe6b797dd86adce893d319c605855eab428d81fd09",
    ("two-sided", "csv"): "6a471751074c1856bf06936415bc120a46f454c374e0999d242d1b7f6c6fb496",
    ("gamma", "text"): "c882d4da84da97eedbc96557597f06cc4e715f262fdc1f0681356980261fc31e",
    ("gamma", "json"): "61d5248d1790cb198568479aff9716f730b02054a4a93fb43a5fd15ce4c32a1d",
    ("gamma", "csv"): "c066ff52763ad0d7e50d0c38070ec3dd78366ee37269bf6d3ac01fe9a00f6e01",
    ("gessel", "text"): "8de46f604fd7808f442c15f8a4c340c5a0d835a7c985d9ead415ae46c09ca9c9",
    ("gessel", "json"): "e81782d79c154e8ccb467f63b450ccdf8a1c547c728fbee89945765873cda416",
    ("gessel", "csv"): "11debf40063f93b8726b52b09e25c0deada3c083f3fe75f726c08941866f881c",
}
TABLE_N_MAX = {"eulerian": "12", "two-sided": "7", "gamma": "12", "gessel": "6"}


@pytest.mark.parametrize("command,fmt", sorted(TABLE_DIGESTS))
def test_table_stdout_is_pinned_with_and_without_cache(tmp_path, command, fmt):
    argv = (command, "--n-max", TABLE_N_MAX[command], "--format", fmt)
    runs = [run_cli(*argv), run_cli(*argv, "--cache", str(tmp_path))]
    for at, (code, out, err) in enumerate(runs):
        assert code == 0
        assert one_cache_notice(err) if at else err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS[command, fmt]


# the same pins at the sizes the bench's cli-cache workload runs, read from
# the bench's own digests: "cli/<command>-<n_max>/<format>"
BENCH_DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "digests.json"
LARGE_TABLE_DIGESTS = {
    tuple(key.split("/")[1:]): digest
    for key, digest in json.loads(BENCH_DIGESTS.read_text()).items()
    if key.startswith("cli/")
}


def test_the_bench_pins_every_table_command_in_every_format():
    assert sorted(LARGE_TABLE_DIGESTS) == sorted(
        (label, fmt)
        for label in ("eulerian-300", "two-sided-40", "gamma-60", "gessel-10")
        for fmt in ("text", "json", "csv")
    )


@pytest.mark.parametrize("label,fmt", sorted(LARGE_TABLE_DIGESTS))
def test_large_table_stdout_is_pinned_with_and_without_cache(tmp_path, label, fmt):
    command, n_max = label.rsplit("-", 1)
    argv = (command, "--n-max", n_max, "--format", fmt)
    runs = [run_cli(*argv), run_cli(*argv, "--cache", str(tmp_path))]
    for at, (code, out, err) in enumerate(runs):
        assert code == 0
        assert one_cache_notice(err) if at else err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == LARGE_TABLE_DIGESTS[label, fmt]


# sha256 of `eulerian --n-max 584 --format csv`, the largest triangle the
# work budget allows, frozen from the release before the triangle was
# printed from Decimal rows
EULERIAN_584_CSV_DIGEST = "97f61ec5496acd47d81699575c7155cacf9c2b202f03e53926bc32093b863d9e"


def test_the_largest_triangle_in_budget_is_pinned():
    code, out, err = run_cli("eulerian", "--n-max", "584", "--format", "csv")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == EULERIAN_584_CSV_DIGEST


@pytest.mark.parametrize("n", [1, 2, 13, 300])
def test_a_single_row_prints_str_of_the_int_row_in_every_format(n):
    row = eulerian.table_from_recurrence(n).row(n)
    cells = [str(c) for c in row]
    header = [str(i) for i in range(1, n + 1)]
    width = max(len(str(max(row))), len("n\\i"), len(str(n)))
    text = ["  ".join([label.ljust(width)] + [c.rjust(width) for c in rest])
            for label, rest in (("n\\i", header), (str(n), cells))]
    want = {
        "text": "\n".join(text) + "\n",
        "json": json.dumps({"n": str(n), "A": cells}, indent=2) + "\n",
        "csv": ",".join(["n\\i", *header]) + "\n" + ",".join([str(n), *cells]) + "\n",
    }
    for fmt, expected in want.items():
        assert run_cli("eulerian", "--n", str(n), "--format", fmt) == (0, expected, "")


@pytest.mark.parametrize("argv", [("--n-max", "30"), ("--n", "30")])
def test_inexact_decimal_arithmetic_exits_one_with_nothing_printed(monkeypatch, argv):
    # the triangle's Decimal context takes decimal.MAX_PREC: row 30 sums to
    # 30!, 33 digits with 7 trailing zeros, so 32 digits round it exactly
    # and 31 inexactly; both signals are trapped
    import decimal

    want = run_cli("eulerian", *argv)
    assert want[0] == 0
    digits = len(str(math.factorial(30)))
    monkeypatch.setattr(decimal, "MAX_PREC", digits)
    assert run_cli("eulerian", *argv) == want
    for prec, signal_name in ((digits - 1, "Rounded"), (digits - 2, "Inexact")):
        monkeypatch.setattr(decimal, "MAX_PREC", prec)
        assert run_cli("eulerian", *argv) == (
            1, "", f"verification failure: decimal arithmetic on the triangle was not exact: {signal_name}\n"
        )


# the same pins for one table, --n 7: a single table's json payload is the
# object itself, not a list of one; frozen from the release before the
# streamed emitters
SINGLE_TABLE_DIGESTS = {
    ("eulerian", "text"): "f27b9ad0a419e396a5f32551c06bb2a4c85b08dbde030d584bfcc1c4df6d2542",
    ("eulerian", "json"): "68dcdbb7185d3d80dfa7a2fa56af0b2a7a7331d7db94f77bb232ef4368ebeec2",
    ("eulerian", "csv"): "3ab619235ac3494f5b69b3541859f85ba23eecb93b2e84fba4c1ca726925af3b",
    ("two-sided", "text"): "b4d238d3e6eb774646b9092fe48443555ac7fa0371a76688bf92707387750b11",
    ("two-sided", "json"): "6d8f0a805f54dba6803c6063a10f2adeb8d5831fcca693da5a9ab550f4ddcba2",
    ("two-sided", "csv"): "c3600b63b488d177f44c84e47ccf75ce83d25628b24e8728bbfc0da8ff0153fc",
    ("gamma", "text"): "3c47ba5cdee5b2edb979d6a1970d9e24baa6930d33d140a881faae4293d28cd9",
    ("gamma", "json"): "b0464c2c3de2569004e83d8e84658be31001f2621f629f91771fe6b0307803b5",
    ("gamma", "csv"): "bf3489078548decda28a988abbbb498f0152b62e665bddcbf65f80ac2165d0e3",
    ("gessel", "text"): "0463350152cef894e836cbbc474a0c8803c1918adf6367f7f388a68821e11423",
    ("gessel", "json"): "39b26a8f03e6c094325f7d63ccaaa07a06813b08e09cfdd7865cfcbfa977ff94",
    ("gessel", "csv"): "d74b842381cba7e5c98c3f0bd9906aebb083827cf86454b45b0ace73388f3adc",
}


@pytest.mark.parametrize("command,fmt", sorted(SINGLE_TABLE_DIGESTS))
def test_single_table_stdout_is_pinned(command, fmt):
    code, out, err = run_cli(command, "--n", "7", "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SINGLE_TABLE_DIGESTS[command, fmt]


# sha256 of stdout of the commands that print no table, frozen from the
# release before the engines' writers moved into cli
STATS_WORDS = "123 863247159 2,1 10,3,1,2,4,5,6,7,8,9 1"
COMMAND_DIGESTS = {
    ("orbit 863247159", "text"): "da8b0d0106512bf42a50db8a8f3fc71fc5f1ed8b931611890ff229f045ae279b",
    ("orbit 863247159", "json"): "16ee975a8a4f1a75e807a43e7e149d556838fc78933b349ebc9611c948c89388",
    ("orbit 863247159", "csv"): "0e1c6834aa36813e6d3f03bbc5e5c4b91f46edb961104de4e1153166a72017a2",
    ("orbit 1", "text"): "d6a6bd2ec1427a6c5e33373ef4d727b1608e5b190b00272fd47205b086f4e9c0",
    ("orbit 1", "json"): "062c29a4ea256607642b0dbaceb0f62c0993039fb70ee99d16d649b6a342a6e7",
    ("orbit 1", "csv"): "bfd01c75f7032e7e6f4543533f69acee75608e501a582908b3d52657e29d7d55",
    ("orbit 10,3,1,2,4,5,6,7,8,9", "text"): "c395b70353b1a86a052f9eff7d75a0cf98d1661e972332f6c414692f255f307c",
    ("orbit 10,3,1,2,4,5,6,7,8,9", "json"): "8d07b304a5cad32c4cc66521c0057762047b08622e18460bd43bbe1e943e4831",
    ("orbit 10,3,1,2,4,5,6,7,8,9", "csv"): "ce9fff869c808fcdcebb73c1cee6405e19986338f15cafd10222e89a24a6d911",
    ("orbits --n 9", "text"): "4589ceaae38b83eb2d75ea1f19547357ccb77bffd948253753419ced57f06112",
    ("orbits --n 9", "json"): "30e99caeb13c1e1bbc895ada03748990c57657b6094a919b22cae706963dea5c",
    ("orbits --n 9", "csv"): "1004d76311eea06c0c376962dda870751ea5638fd297cf4c90b7314a18dc06dd",
    ("series --n 3 --terms 6", "text"): "a35fa93f468eeec78e018aad8c5229e5adf2aa7d4cf3258b52ac92700384c77c",
    ("series --n 3 --terms 6", "json"): "eee4c2c78327e6f46725f099f25ee5aa26a8c8938a5ecbed2e09f9efc829d7af",
    ("series --n 3 --terms 6", "csv"): "5597535f195490c0ddd4cb3f36295a639e10d6776372f705fca6c76678a46a0a",
    ("series --n 5 --terms 4 --bivariate", "text"): "4ed7b46349b4835b7021f3740405517ee35bc7e392e493ad05dfbc64c9836f68",
    ("series --n 5 --terms 4 --bivariate", "json"): "63f91acc270ee93d612b0fb6ebf43e8a843f485b39148c1c875d35361ea7e976",
    ("series --n 5 --terms 4 --bivariate", "csv"): "1d3101c51ebb4c9a5217086aa77ce5ebd0328ce09e933529413d8f502de73294",
    (f"stats {STATS_WORDS}", "text"): "75c77aee77e2caa42368a22d13421c8b715b922e29b0c5381e52b6bbbeb6acb4",
    (f"stats {STATS_WORDS}", "csv"): "eaed5f126c1d4598e71d96be5a8c2daed07858e3298a22d65f05f226f0075dd2",
}


@pytest.mark.parametrize("command,fmt", sorted(COMMAND_DIGESTS))
def test_command_stdout_is_pinned(command, fmt):
    code, out, err = run_cli(*command.split(), "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == COMMAND_DIGESTS[command, fmt]


class Sink:
    """A stdout that discards what is written."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_a_table_command_holds_the_int_tables_and_one_table_of_text(fmt):
    # the Decimal triangle to n = 300 takes 2.6 MiB, the int one 4.0 MiB;
    # with the text of every row held beside the ints the peak was 16.6 MiB
    # in text and 44 MiB in json and csv
    tracemalloc.start()
    try:
        with redirect_stdout(Sink()):
            code = cli.run(["eulerian", "--n-max", "300", "--format", fmt])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# sha256 of `verify --suite all` stdout, frozen from the release before the
# one-sequence Sturm count; the text pin is the bench's verify-all digest
VERIFY_ALL_DIGESTS = {
    "text": "8b7921ad1453e547207b36da63cc7ca0cbf02376da2ee69c61a63c605b42ee82",
    "json": "fadbf0a32a9435d19177addc7f17e0c823431f3c3b6ebf1986e9979e2d4088b9",
    "csv": "c13752ad8692b8b5b0bd0aff230fbce5cd3b235ae7b8d3c865e6be0274f12118",
}


def test_verify_all_text_pin_is_the_bench_digest():
    bench = json.loads(BENCH_DIGESTS.read_text())
    assert VERIFY_ALL_DIGESTS["text"] == bench["verify-all"]


@pytest.mark.parametrize("fmt", sorted(VERIFY_ALL_DIGESTS))
def test_verify_all_stdout_is_pinned(fmt):
    code, out, _ = run_cli("verify", "--suite", "all", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_DIGESTS[fmt]


# the reversed 23,000-letter word, the longest comma form one argv string
# holds, with its last letter changed to a second 2; a compact form whose
# only bad character comes after 60,000 digits; and a comma part one digit
# past Python's default int-to-str limit
OVERSIZED_WORDS = {
    "repeated-letter": ",".join(map(str, range(23000, 2, -1))) + ",2,2",
    "bad-character": "1" * 60000 + "x",
    "long-part": "1," + "9" * 4301,
}


@pytest.mark.parametrize("command", ["stats", "orbit"])
@pytest.mark.parametrize("label", sorted(OVERSIZED_WORDS))
def test_oversized_bad_words_get_one_short_error_line(command, label):
    code, out, err = run_cli(command, OVERSIZED_WORDS[label])
    assert (code, out) == (2, "")
    assert "not a permutation" in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert len(err.encode()) < 200


def readme_examples():
    """(command, expected stdout) for each `$ eulerian-workbench` line in a
    fenced block of README.md whose shown output has no `...`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```$", readme, re.M | re.S):
        for example in re.split(r"^\$ eulerian-workbench ", block, flags=re.M)[1:]:
            command, _, expected = example.partition("\n")
            if "..." not in expected:
                examples.append(pytest.param(command, expected, id=command))
    return examples


@pytest.mark.parametrize("command,expected", readme_examples())
def test_readme_examples_print_what_the_readme_shows(command, expected):
    code, out, _ = run_cli(*command.split())
    assert code == 0
    assert out == expected


def test_stats_csv_quotes_long_words():
    code, out, _ = run_cli("stats", "10,9,8,7,6,5,4,3,2,1", "5624713", "--format", "csv")
    assert code == 0
    assert out == (
        "w,des,ides,inv,asc,exc,run\n"
        '"10,9,8,7,6,5,4,3,2,1",9,9,45,0,5,10\n'
        "5624713,2,3,13,4,3,3\n"
    )


CSV_FIELDS = st.text(alphabet=st.sampled_from(list('0123456789ab ,"\r\n\t')), max_size=6)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.one_of(st.just([]), st.just([""]), st.lists(CSV_FIELDS, max_size=5)), max_size=6))
def test_emit_csv_matches_csv_writer(rows):
    want = io.StringIO()
    csv.writer(want, lineterminator="\n").writerows(rows)
    got = io.StringIO()
    with redirect_stdout(got):
        cli._emit_csv(rows)
    assert got.getvalue() == want.getvalue()


JSON_TEXT = st.text(
    alphabet=st.sampled_from(list('0123456789a "\\/\x00\x1f\t\n\x7f\u00e9\u00b2\u0661\u2028\ud800\U0001f600')),
    max_size=6,
)
JSON_DIGITS = st.text(alphabet=st.sampled_from(list("0123456789")), max_size=8)
JSON_VALUES = st.recursive(
    st.one_of(JSON_TEXT, JSON_DIGITS, st.booleans(), st.none(), st.integers()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(JSON_DIGITS, max_size=6),
        st.dictionaries(JSON_TEXT, inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(value=JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


def test_json_writer_on_table_payloads():
    rows = eulerian.table_from_recurrence(30).rows
    payloads = [{"n": str(n), "A": cli._half_text(row)} for n, row in enumerate(rows, start=1)]
    payloads += [
        {"n": str(t.n), "A": cli._array_text(t)} for t in twosided.two_sided_from_recurrence(9)
    ]
    for value in (payloads, payloads[-1], {"n": "1", "A": [[]]}, [[], {}, [[]]]):
        assert cli._json_text(value) == json.dumps(value, indent=2)


def test_half_text_renders_a_row_whole():
    assert cli._half_text(TABLE1[5]) == ["1", "26", "66", "26", "1"]
    code, out, _ = run_cli("eulerian", "--n", "5", "--format", "json")
    assert json.loads(out) == {"n": "5", "A": ["1", "26", "66", "26", "1"]}
    # only half of each row is rendered; odd and even n
    for row in (TABLE1[6], TABLE1[7], eulerian.table_from_recurrence(40).row(40)):
        assert cli._half_text(row) == [str(c) for c in row]


def test_array_text_renders_an_array_whole():
    table = twosided.two_sided_from_recurrence(4)[3]
    assert cli._array_text(table)[1] == ["0", "10", "1", "0"]
    code, out, _ = run_cli("two-sided", "--n", "4", "--format", "json")
    obj = json.loads(out)
    assert (obj["n"], obj["A"][1], set(obj)) == ("4", ["0", "10", "1", "0"], {"n", "A"})
    # only half of each array is rendered; odd and even n
    for table in twosided.two_sided_from_recurrence(9)[4:]:
        assert cli._array_text(table) == [[str(c) for c in row] for row in table.entries]


def test_factored_text_names_each_factor_once():
    assert cli._factored_text([("t", 2), ("(1+t)", 6)], sep="") == "t^2(1+t)^6"
    assert cli._factored_text([("t", 2), ("(1+t)", 0)], sep="") == "t^2"
    assert cli._factored_text([("t", 1), ("(1+t)", 1)], sep="") == "t(1+t)"
    names = ("s", "t", "(1+s)", "(1+t)", "(1+st)")
    for exps, text in (
        ((3, 2, 0, 2, 4), "s^3 t^2 (1+t)^2 (1+st)^4"),
        ((1, 1, 0, 0, 2), "s t (1+st)^2"),
        ((2, 2, 0, 0, 0), "s^2 t^2"),
        ((0, 0, 0, 0, 0), "1"),
    ):
        assert cli._factored_text(zip(names, exps)) == text
    for word, uni in (("132", "t^2"), ("12", "t(1+t)")):
        assert json.loads(run_cli("orbit", word, "--format", "json")[1])["uni"] == uni


def library_fields(command, n):
    """The fields of one n that a table command prints, as the library's ints."""
    if command in ("eulerian", "gamma"):
        row = eulerian.table_from_recurrence(n).row(n)
        if command == "eulerian":
            return {"A": row}
        gammas = eulerian.gamma_extract(eulerian.polynomial_from_row(row), n).gammas
        return {"A": row, "gamma": gammas}
    table = twosided.two_sided_from_recurrence(n)[-1]
    if command == "two-sided":
        return {"A": table.entries}
    e = twosided.gessel_solve(twosided.polynomial_from_table(table), n)
    return {"A": table.entries, "gamma": e.gammas, "gessel_nonnegative": e.nonnegative}


def decode_json(command, out):
    """n -> fields of a table command's json stdout, every number an int."""
    objs = json.loads(out)
    found = {}
    for obj in objs if isinstance(objs, list) else [objs]:
        fields = found[int(obj.pop("n"))] = {}
        for key, value in obj.items():
            if key == "gessel_nonnegative":
                fields[key] = value
            elif key == "gamma" and command == "gessel":
                fields[key] = {tuple(map(int, k.strip("()").split(","))): int(g)
                               for k, g in value.items()}
            elif command in ("eulerian", "gamma"):
                fields[key] = tuple(map(int, value))
            else:
                fields[key] = tuple(tuple(map(int, row)) for row in value)
    return found


def decode_csv(command, out, ns):
    """n -> the one field a table command's csv stdout carries, as ints."""
    rows = list(csv.reader(io.StringIO(out)))
    if command == "gessel":
        assert rows[0] == ["n", "i", "j", "gamma"]
        found = {n: {} for n in ns}
        for n, i, j, g in rows[1:]:
            found[int(n)][int(i), int(j)] = int(g)
        return {n: {"gamma": g} for n, g in found.items()}
    if command == "two-sided":
        found = {}
        for row in rows:
            if row and row[0].startswith("n="):
                table = found[int(row[0][2:])] = []
            elif row and row[0] != "i\\j":
                assert int(row[0]) == len(table) + 1
                table.append(tuple(map(int, row[1:])))
        return {n: {"A": tuple(t)} for n, t in found.items()}
    header, *body = rows
    assert header == ["n\\i"] + [str(i) for i in range(1, len(header))]
    found = {}
    for n, *cells in body:
        values = tuple(int(c) for c in cells if c)
        assert len(cells) == len(header) - 1 and not any(cells[len(values):])
        found[int(n)] = {"gamma" if command == "gamma" else "A": values}
    return found


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(["eulerian", "two-sided", "gamma", "gessel"]),
    size=st.integers(1, 30),
    single=st.booleans(),
)
def test_json_and_csv_decode_to_the_library_ints(command, size, single):
    n = size if command in ("eulerian", "gamma") else 1 + size % 12
    ns = [n] if single else range(1, n + 1)
    want = {m: library_fields(command, m) for m in ns}
    argv = (command, "--n" if single else "--n-max", str(n), "--format")
    code, out, _ = run_cli(*argv, "json")
    assert code == 0
    assert decode_json(command, out) == want
    code, out, _ = run_cli(*argv, "csv")
    assert code == 0
    carried = "gamma" if command in ("gamma", "gessel") else "A"
    assert decode_csv(command, out, ns) == {m: {carried: want[m][carried]} for m in ns}
