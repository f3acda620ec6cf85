"""The command-line surface: formats, exit codes, cache, determinism."""

import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import resource
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
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


def test_series_bivariate():
    code, out, _ = run_cli(
        "series", "--n", "2", "--terms", "3", "--bivariate", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "grid"
    assert obj["grid"][2][3] == "21"  # binomial(2*3 + 1, 2)
    assert obj["matches_closed_form"] is True


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

    for module, name in ((eulerian, "table_from_recurrence"), (eulerian, "brute_force_rows"),
                         (twosided, "two_sided_from_recurrence"), (twosided, "brute_force_tables")):
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

    for module, name in ((eulerian, "table_from_recurrence"), (eulerian, "brute_force_rows"),
                         (twosided, "two_sided_from_recurrence"), (twosided, "brute_force_tables")):
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
                                 (twosided, "two_sided_from_recurrence"),
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
# cache behavior


def test_cache_store_and_hit(tmp_path):
    cache = str(tmp_path / "cache")
    code, first, err = run_cli(
        "eulerian", "--n", "7", "--cache", cache, "--format", "json"
    )
    assert code == 0
    assert (tmp_path / "cache" / "eulerian-n7.json").exists()
    code, second, err = run_cli(
        "eulerian", "--n", "7", "--cache", cache, "--format", "json"
    )
    assert second == first
    assert err == ""


def _entry(payload) -> bytes:
    """payload as a cache entry: canonical JSON and a newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def test_cache_rejects_corruption(tmp_path):
    cache = tmp_path / "cache"
    run_cli("two-sided", "--n", "5", "--cache", str(cache), "--format", "json")
    path = cache / "twosided-n5.json"
    body = json.loads(path.read_text())
    body["A"][1][1] = "999"
    path.write_text(json.dumps(body))
    code, out, err = run_cli(
        "two-sided", "--n", "5", "--cache", str(cache), "--format", "json"
    )
    assert code == 0
    assert "rejected (not the recomputed table)" in err
    got = tuple(tuple(int(c) for c in row) for row in json.loads(out)["A"])
    assert got == TABLE2[5]


def test_cache_entry_layout(tmp_path):
    cache = tmp_path / "cache"
    run_cli("eulerian", "--n-max", "3", "--cache", str(cache))
    assert sorted(p.name for p in cache.iterdir()) == [
        "eulerian-n1.json", "eulerian-n2.json", "eulerian-n3.json"
    ]
    umask = os.umask(0)
    os.umask(umask)
    assert (cache / "eulerian-n3.json").stat().st_mode & 0o777 == 0o666 & ~umask
    assert (cache / "eulerian-n3.json").read_bytes() == b'{"A":["1","4","1"],"n":"3"}\n'


def test_concurrent_cache_writers_never_share_a_temporary_file(tmp_path):
    cache = tmp_path / "cache"
    line = _entry({"n": "6", "A": ["1", "57", "302", "302", "57", "1"]})
    errors = []

    def store():
        try:
            for _ in range(25):
                cli.cache_store(cache, "eulerian", 6, line)
        except Exception as exc:  # collected and asserted below
            errors.append(exc)

    writers = [threading.Thread(target=store) for _ in range(8)]
    for w in writers:
        w.start()
    for w in writers:
        w.join(timeout=30)
    assert not any(w.is_alive() for w in writers)
    assert errors == []
    assert [p.name for p in cache.iterdir()] == ["eulerian-n6.json"]
    assert cli.cache_load(cache, "eulerian", 6) == line
    assert run_cli("eulerian", "--n", "6", "--cache", str(cache))[2] == ""


def test_cache_rejects_forged_row_with_valid_checksum(tmp_path):
    cache = tmp_path / "cache"
    # sums to 5! but is neither palindromic nor unimodal
    cli.cache_store(cache, "eulerian", 5, _entry({"n": "5", "A": ["2", "25", "66", "26", "1"]}))
    code, out, err = run_cli("eulerian", "--n", "5", "--cache", str(cache), "--format", "csv")
    assert code == 0
    assert "rejected (not the recomputed table)" in err
    assert out.splitlines()[1] == "5,1,26,66,26,1"


def _forged_row_9():
    # the true row 9 moved by +1, -2, +1 in its middle: still summing to 9!,
    # palindromic and unimodal
    row = list(eulerian.table_from_recurrence(9).row(9))
    assert row[3:6] == [88234, 156190, 88234]
    row[3:6] = [88235, 156188, 88235]
    return [str(a) for a in row]


def _forged_array_8():
    # +1 on the diagonal at 3..6 and -1 at (3,4), (4,3), (5,6), (6,5) keeps
    # the total, the marginals and both symmetries of the true array n = 8
    entries = [list(row) for row in twosided.two_sided_from_recurrence(8)[7].entries]
    for i in (3, 4, 5, 6):
        entries[i - 1][i - 1] += 1
    for i, j in ((3, 4), (4, 3), (5, 6), (6, 5)):
        entries[i - 1][j - 1] -= 1
    return [[str(a) for a in row] for row in entries]


def _old_layouts():
    # the layouts before the bare payload line: a checksummed object, then a
    # line with a schema header, whatever its version
    payload = {"n": "4", "A": ["1", "11", "11", "1"]}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    old = json.dumps({"payload": payload, "sha256": digest}, indent=2) + "\n"
    headed = [f'{{"schema": {v}, "sha256": "{digest}", "payload": {canonical}}}\n' for v in (2, 3)]
    return [pytest.param("eulerian", 4, text.encode(), id=f"layout-{name}")
            for name, text in zip(("checksummed", "schema-2", "schema-3"), [old] + headed)]


def _row_4(forged, name):
    return pytest.param("eulerian", 4, _entry({"n": "4", "A": forged}), id=name)


# an entry per forgery: every one differs from the line the recurrence's table
# renders to, whatever int() or a row's invariants would make of it
FORGED_ENTRIES = [
    # text that is not decimal
    _row_4(["1", "+11", "11", "1"], "decimal-plus"),
    _row_4(["1", "011", "11", "1"], "decimal-leading-zero"),
    _row_4(["1", " 11", "11", "1"], "decimal-space"),
    # palindromic text that int() reads as 11
    *(_row_4(["1", forged, forged, "1"], f"palindromic-{name}") for forged, name in (
        ("1_1", "underscore"), (" 11", "space"), ("011", "leading-zero"), ("", "empty"),
        ("\u0661\u0661", "arabic-indic"), ("\uff11\uff11", "fullwidth"), ("11\n", "newline"),
    )),
    # the true row 6 is 1 57 302 302 57 1: a second half that differs from
    # the first, or is short
    *(pytest.param("eulerian", 6, _entry({"n": "6", "A": ["1", "57", "302"] + second}),
                   id=f"second-half-{name}")
      for second, name in ((["302", "58", "1"], "58"), (["302", "057", "1"], "057"),
                           (["302", "57", "+1"], "plus"), (["302", "57"], "short"))),
    *_old_layouts(),
    _row_4(["1", "11", "12", "1"], "row-sum"),
    # the true array with a 3-cycle minus the identity added to its middle
    # block: total and marginals unchanged, symmetry broken
    pytest.param("twosided", 4, _entry({"n": "4", "A": [
        ["1", "0", "0", "0"], ["0", "9", "2", "0"], ["0", "1", "9", "1"], ["0", "1", "0", "0"],
    ]}), id="array-asymmetric"),
    pytest.param("eulerian", 9, _entry({"n": "9", "A": _forged_row_9()}), id="row-9-middle"),
    pytest.param("twosided", 8, _entry({"n": "8", "A": _forged_array_8()}), id="array-8-diagonal"),
]


def _assert_rejected_then_rewritten(argv, cache):
    """The forged entry in cache prints what no cache does, with one warning,
    and the entry written in its place loads silently."""
    _, want, _ = run_cli(*argv)
    code, out, err = run_cli(*argv, "--cache", str(cache))
    assert (code, out) == (0, want)
    assert err.count("\n") == 1 and "rejected" in err
    assert run_cli(*argv, "--cache", str(cache)) == (0, want, "")


@pytest.mark.parametrize("kind,n,data", FORGED_ENTRIES)
def test_cache_rejects_forged_entry(tmp_path, kind, n, data):
    (tmp_path / f"{kind}-n{n}.json").write_bytes(data)
    command = "eulerian" if kind == "eulerian" else "two-sided"
    _assert_rejected_then_rewritten((command, "--n", str(n), "--format", "json"), tmp_path)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cache_survives_any_single_byte_mutation(tmp_path_factory, data):
    command, n = data.draw(st.sampled_from([("eulerian", 5), ("eulerian", 9), ("two-sided", 3)]))
    kind = "eulerian" if command == "eulerian" else "twosided"
    argv = (command, "--n", str(n), "--format", "json")
    cache = tmp_path_factory.mktemp("cache")
    run_cli(*argv, "--cache", str(cache))
    path = cache / f"{kind}-n{n}.json"
    stored = path.read_bytes()
    at = data.draw(st.integers(0, len(stored) - 1))
    byte = data.draw(st.none() | st.integers(0, 255).filter(lambda b: b != stored[at]))
    mutated = stored[:at] + (b"" if byte is None else bytes([byte])) + stored[at + 1:]
    path.write_bytes(mutated)
    # every mutation changes the bytes, so every one is rejected once
    _assert_rejected_then_rewritten(argv, cache)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cache_rejects_any_row_moved_by_mirrored_pairs(tmp_path_factory, data):
    # a mirrored pair, or the middle of an odd row, moved one way and another
    # the other way, weighted so that the row keeps its sum and palindromy
    n = data.draw(st.integers(3, 12))
    row = list(eulerian.table_from_recurrence(n).row(n))
    up, down = data.draw(st.lists(st.integers(0, (n - 1) // 2), min_size=2, max_size=2, unique=True))

    def size(i):  # entries in the mirrored pair of position i
        return 1 if 2 * i == n - 1 else 2

    assume(row[down] >= size(up))  # no entry goes negative
    d = data.draw(st.integers(1, row[down] // size(up)))
    for i, step in ((up, d * size(down)), (down, -d * size(up))):
        row[i] += step
        row[n - 1 - i] = row[i]
    assert sum(row) == math.factorial(n) and row == row[::-1]
    cache = tmp_path_factory.mktemp("cache")
    cli.cache_store(cache, "eulerian", n, _entry({"n": str(n), "A": [str(a) for a in row]}))
    _assert_rejected_then_rewritten(("eulerian", "--n", str(n)), cache)


def _run_child(argv, limit_bytes=None, timeout=20):
    """The CLI in a child process, under an address-space cap if given; a
    run past timeout raises, so a read that blocks fails the test."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "eulerian_workbench.cli", *argv], capture_output=True,
        text=True, env=env, timeout=timeout, preexec_fn=cap if limit_bytes else None,
    )


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_cache_entry_that_is_not_a_regular_file_is_rejected_unread(tmp_path):
    # a FIFO with no writer blocks a plain open or read; /dev/zero never ends
    os.mkfifo(tmp_path / "eulerian-n3.json")
    os.symlink("/dev/zero", tmp_path / "eulerian-n4.json")
    argv = ["eulerian", "--n-max", "4"]
    want = _run_child(argv).stdout
    run = _run_child(argv + ["--cache", str(tmp_path)], limit_bytes=600 * 2**20)
    assert (run.returncode, run.stdout) == (0, want)
    assert run.stderr.count("rejected") == 2 and run.stderr.count("\n") == 2
    # the names now hold regular files, and /dev/zero is untouched
    assert all((tmp_path / f"eulerian-n{n}.json").is_file() for n in (3, 4))
    assert not (tmp_path / "eulerian-n4.json").is_symlink()
    assert _run_child(argv + ["--cache", str(tmp_path)]).stderr == ""


def test_cache_entry_that_is_a_directory_warns_and_prints_as_uncached(tmp_path):
    # rejected unread, then the rename onto it fails like an unwritable cache
    (tmp_path / "eulerian-n2.json").mkdir()
    argv = ("eulerian", "--n-max", "3")
    _, want, _ = run_cli(*argv)
    code, out, err = run_cli(*argv, "--cache", str(tmp_path))
    assert (code, out) == (0, want)
    assert err.count("\n") == 2 and "rejected" in err and "cannot be written" in err


@pytest.mark.parametrize("command", ["eulerian", "two-sided"])
def test_warm_run_stores_nothing_and_cold_run_stores_each_n_once(tmp_path, monkeypatch, command):
    stored = []

    def counted(cache_dir, kind, n, line, store=cli.cache_store):
        stored.append(n)
        store(cache_dir, kind, n, line)

    monkeypatch.setattr(cli, "cache_store", counted)
    argv = (command, "--n-max", "5", "--cache", str(tmp_path))
    assert run_cli(*argv)[0] == 0
    assert stored == [1, 2, 3, 4, 5]
    stored.clear()
    assert run_cli(*argv) == run_cli(command, "--n-max", "5")
    assert stored == []


@pytest.mark.parametrize("under", ["", "c"])
def test_unwritable_cache_path_warns_once_and_prints_as_uncached(tmp_path, under):
    # a path at or under a regular file cannot be a directory, even for root
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ("eulerian", "--n-max", "4")
    _, want, _ = run_cli(*argv)
    code, out, err = run_cli(*argv, "--cache", str(blocker / under))
    assert (code, out) == (0, want)
    assert err.count("\n") == 1 and err.startswith("warning: ") and "cannot be written" in err


@pytest.mark.parametrize("command", ["eulerian", "gamma", "two-sided", "gessel"])
def test_table_command_runs_one_recurrence_cold_or_warm(tmp_path, monkeypatch, command):
    calls = []
    for module, name in ((eulerian, "table_from_recurrence"), (twosided, "two_sided_from_recurrence")):
        def counted(n_max, build=getattr(module, name)):
            calls.append(n_max)
            return build(n_max)

        monkeypatch.setattr(module, name, counted)
    argv = (command, "--n-max", "6")
    for cache in ((), ("--cache", str(tmp_path)), ("--cache", str(tmp_path))):
        calls.clear()
        assert run_cli(*argv, *cache)[0] == 0
        assert calls == [6]


def test_cache_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "envcache"))
    code, _, _ = run_cli("gamma", "--n", "6")
    assert code == 0
    assert (tmp_path / "envcache" / "eulerian-n6.json").exists()


def test_brute_source_bypasses_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "envcache"))
    code, _, _ = run_cli("eulerian", "--n", "5", "--source", "brute")
    assert code == 0
    assert not (tmp_path / "envcache").exists()


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


def test_shards_past_the_budget_exit_3():
    for command in ("eulerian", "two-sided"):
        brute = (command, "--n-max", "2", "--source", "brute")
        _, serial, _ = run_cli(*brute)
        for shards in (perm.SHARD_BUDGET // 2 + 1, 10**12):
            code, out, err = run_cli(*brute, "--shards", str(shards))
            assert code == 3
            assert out == ""
            assert "shard blocks" in err and "--force" in err
        code, out, _ = run_cli(*brute, "--shards", str(perm.SHARD_BUDGET // 2 + 1), "--force")
        assert code == 0
        assert out == serial


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
def test_table_stdout_is_pinned_uncached_cold_and_warm(tmp_path, command, fmt):
    argv = (command, "--n-max", TABLE_N_MAX[command], "--format", fmt)
    runs = [run_cli(*argv)] + [run_cli(*argv, "--cache", str(tmp_path)) for _ in range(2)]
    for code, out, err in runs:
        assert code == 0
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS[command, fmt]


# the same pins at the sizes the bench's cli-cache workload runs, frozen from
# the release before the half-row text path
LARGE_TABLE_DIGESTS = {
    ("eulerian", "text"): "e068423a111f696f64f86bca28d4378fa5548dd90a23a1fc7dc70bf4056a90b2",
    ("eulerian", "json"): "2978061a770d9fac6c2b668838410c8edb2897ec5f657c89418ff872d00becae",
    ("eulerian", "csv"): "5dd594e9ed7085708216854c5837726959f22d71c3998e7e1ea77d23b0df6753",
    ("two-sided", "text"): "9268b720fe58a6794a1ee24a84acd3b0e9c103d4692c8fc44d78679a141a61d4",
    ("two-sided", "json"): "3c101b7d91812403c0b6a9c3d543c4dd784b7ec37321950f7213709c002342cb",
    ("two-sided", "csv"): "8eb1869fcbf3d762831c70a36937419ae473f436f9d2eb9bb3e3af5c93435c8a",
}
LARGE_TABLE_N_MAX = {"eulerian": "300", "two-sided": "40"}


@pytest.mark.parametrize("command,fmt", sorted(LARGE_TABLE_DIGESTS))
def test_large_table_stdout_is_pinned_uncached_cold_and_warm(tmp_path, command, fmt):
    argv = (command, "--n-max", LARGE_TABLE_N_MAX[command], "--format", fmt)
    runs = [run_cli(*argv)] + [run_cli(*argv, "--cache", str(tmp_path)) for _ in range(2)]
    for code, out, err in runs:
        assert code == 0
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == LARGE_TABLE_DIGESTS[command, fmt]


def test_cache_file_bytes_are_pinned(tmp_path):
    # sha256 of the stored entries: each is the payload frozen from the
    # release before the writer, and a newline
    run_cli("eulerian", "--n-max", "300", "--cache", str(tmp_path))
    run_cli("two-sided", "--n", "12", "--cache", str(tmp_path))
    for name, size, digest in (
        ("eulerian-n300.json", 156090, "e8acec63106d4de44cac62c42ab98459d14a90e9696612bcd37bdb81a09da6ed"),
        ("twosided-n12.json", 961, "b0617b0f99b8d2128720af5ddeb5d317f41c4ab3b4e46ee06720fd456d5aec52"),
    ):
        data = (tmp_path / name).read_bytes()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest


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
    assert cli._json_text(value, indent=2) == json.dumps(value, indent=2)
    assert cli._json_text(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))


def test_json_writer_on_table_payloads():
    rows = eulerian.table_from_recurrence(30).rows
    payloads = [eulerian.row_to_obj(n, row) for n, row in enumerate(rows, start=1)]
    payloads += [twosided.table_to_obj(t) for t in twosided.two_sided_from_recurrence(9)]
    for value in (payloads, payloads[-1], {"n": "1", "A": [[]]}, [[], {}, [[]]]):
        assert cli._json_text(value, indent=2) == json.dumps(value, indent=2)
        assert cli._json_text(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))


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
