"""The verify suites: each builds the tables it checks once, within one run,
and a broken table or a builder that raises is a failed check in a full
report, never a crash. A table command given a broken table exits 1 with
nothing on stdout."""

import ast
import dataclasses
import io
import re
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest

from eulerian_workbench import cli, eulerian, hopping, twosided, verify
from eulerian_workbench.common import ConsistencyError, GuardRailError
from eulerian_workbench.exactnum import UniPoly

BUILDERS = (
    (eulerian, "table_from_recurrence"),
    (eulerian, "brute_force_rows"),
    (twosided, "two_sided_from_recurrence"),
    (twosided, "brute_force_tables"),
)


def test_each_suite_builds_each_table_once(monkeypatch):
    calls: Counter = Counter()
    running = [None]
    for module, name in BUILDERS:

        def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls[running[0], _name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    for suite, fn in list(verify.SUITES.items()):

        def tagged(bounds, _suite=suite, _fn=fn):
            running[0] = _suite
            return _fn(bounds)

        monkeypatch.setitem(verify.SUITES, suite, tagged)

    checks = verify.run_suite("all", verify.SuiteBounds())

    assert all(c.ok for c in checks)
    assert set(calls.values()) == {1}, calls
    assert set(calls) == {
        ("eulerian", "table_from_recurrence"),
        ("eulerian", "brute_force_rows"),
        ("twosided", "two_sided_from_recurrence"),
        ("twosided", "table_from_recurrence"),
        ("twosided", "brute_force_tables"),
        ("hopping", "table_from_recurrence"),
        ("hopping", "two_sided_from_recurrence"),
        ("gessel", "two_sided_from_recurrence"),
    }


@pytest.mark.parametrize("name", ["n_max", "k_max", "l_max", "terms"])
@pytest.mark.parametrize("value", [-3, 0])
def test_bounds_below_one_are_refused(name, value):
    # the parser's wording: a library caller gets no silently raised bound
    with pytest.raises(ValueError, match=f"{name} must be at least 1, got {value}"):
        verify.SuiteBounds(**{name: value})
    assert getattr(verify.SuiteBounds(**{name: 1}), name) == 1


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


CLEAN_CHECK_COUNTS = {"eulerian": 9, "twosided": 7, "boxes": 5, "hopping": 6, "gessel": 1, "all": 28}


def bump_triangle(monkeypatch, n, deltas):
    """Every row n the recurrence yields, in ints for a table or in Decimal
    for the eulerian command, has A(n, i) + delta in place of A(n, i), for
    each i: delta in deltas; the rows after it are built from the true row."""
    generate = eulerian.recurrence_rows

    def corrupted(row):
        for out in generate(row):
            if len(out) == n:
                out = list(out)
                for i, delta in deltas.items():
                    out[i - 1] += delta
                out = tuple(out)
            yield out

    monkeypatch.setattr(eulerian, "recurrence_rows", corrupted)


def bumped(table, deltas):
    """table with entry (i, j) + delta in place of entry (i, j), for each
    (i, j): delta in deltas."""
    entries = [list(row) for row in table.entries]
    for (i, j), delta in deltas.items():
        entries[i - 1][j - 1] += delta
    return dataclasses.replace(table, entries=tuple(map(tuple, entries)))


def bump_array(monkeypatch, n, deltas):
    """Every array n the recurrence yields is bumped by deltas; the arrays
    after it are built from the true array."""
    generate = twosided.recurrence_arrays

    def corrupted(table):
        for out in generate(table):
            yield bumped(out, deltas) if out.n == n else out

    monkeypatch.setattr(twosided, "recurrence_arrays", corrupted)


def bump_brute_triangle(monkeypatch, n, deltas):
    """Every row n brute force counts has A(n, i) + delta in place of
    A(n, i), for each i: delta in deltas."""
    count = eulerian.brute_force_rows

    def corrupted(ns, *args, **kwargs):
        rows = count(ns, *args, **kwargs)
        if n in rows:
            rows[n] = tuple(c + deltas.get(i, 0) for i, c in enumerate(rows[n], start=1))
        return rows

    monkeypatch.setattr(eulerian, "brute_force_rows", corrupted)


def bump_brute_array(monkeypatch, n, deltas):
    """Every array n brute force counts is bumped by deltas."""
    count = twosided.brute_force_tables

    def corrupted(ns, *args, **kwargs):
        tables = count(ns, *args, **kwargs)
        if n in tables:
            tables[n] = bumped(tables[n], deltas)
        return tables

    monkeypatch.setattr(twosided, "brute_force_tables", corrupted)


CORRUPTIONS = {
    "A(5,2)": (bump_triangle, 5, {2: 1}),
    "A(4,2)": (bump_triangle, 4, {2: 1}),
    "array6(2,3)": (bump_array, 6, {(2, 3): 1}),
    # these keep every symmetry: of a table command's checks, only the exact
    # sums catch them; the brute ones bump what --source brute counts, and an
    # array's marginals still come from the recurrence
    "A(5,2)A(5,4)": (bump_triangle, 5, {2: 1, 4: 1}),
    "array6(2,3)(3,2)(5,4)(4,5)": (bump_array, 6, {(2, 3): 1, (3, 2): 1, (5, 4): 1, (4, 5): 1}),
    "brute A(5,2)A(5,4)": (bump_brute_triangle, 5, {2: 1, 4: 1}),
    "brute array6(2,3)(3,2)(5,4)(4,5)": (
        bump_brute_array, 6, {(2, 3): 1, (3, 2): 1, (5, 4): 1, (4, 5): 1}
    ),
    # these two keep every sum, and the array keeps its marginals and its
    # transpose: only the palindromy checks catch them, the row's in
    # eulerian and gamma and the array's in two-sided and gessel (the array
    # commands also catch the row by its marginals)
    "A(6,2)+1A(6,3)-1": (bump_triangle, 6, {2: 1, 3: -1}),
    "array6(2,2)(3,3)+1(2,3)(3,2)-1": (bump_array, 6, {(2, 2): 1, (3, 3): 1, (2, 3): -1, (3, 2): -1}),
    # the 3-cycle (1,2), (2,3), (3,1) in place of the diagonal, with its
    # antipodal image: every sum, both marginals and the antipodal symmetry
    # hold, and only the transpose check catches it in two-sided (gessel's
    # solve refuses the asymmetric polynomial too)
    "array6(1,2)(2,3)(3,1)+1(1,1)(2,2)(3,3)-1": (
        bump_array, 6,
        {**dict.fromkeys([(1, 2), (2, 3), (3, 1), (6, 5), (5, 4), (4, 6)], 1),
         **dict.fromkeys([(1, 1), (2, 2), (3, 3), (6, 6), (5, 5), (4, 4)], -1)},
    ),
}


# each of these once raised out of a check (a gamma or Gessel expansion of an
# asymmetric polynomial, the Worpitzky spot value) and printed no report
@pytest.mark.parametrize(
    "corruption,suite",
    [
        ("A(5,2)", "eulerian"),
        ("A(5,2)", "hopping"),
        ("A(5,2)", "all"),
        ("A(4,2)", "eulerian"),
        ("A(4,2)", "all"),
        ("array6(2,3)", "gessel"),
        ("array6(2,3)", "all"),
        ("array6(1,2)(2,3)(3,1)+1(1,1)(2,2)(3,3)-1", "twosided"),
    ],
)
def test_a_broken_table_is_reported_not_crashed(monkeypatch, corruption, suite):
    bump, n, deltas = CORRUPTIONS[corruption]
    bump(monkeypatch, n, deltas)
    code, out, _ = run_cli("verify", "--suite", suite)
    assert code == 1
    lines = out.splitlines()
    assert any(line.startswith("[FAIL] ") for line in lines)
    summary = re.fullmatch(rf"suite {suite}: (\d+)/(\d+) checks passed", lines[-1])
    assert summary is not None, lines[-1]
    assert int(summary[2]) == CLEAN_CHECK_COUNTS[suite] == len(lines) - 1
    assert int(summary[1]) < int(summary[2])


# gamma and gessel once exited 2 here, as if the input were bad, and
# two-sided printed the broken array with exit 0; the symmetric corruptions
# once printed with exit 0 from every table command they reach (an array's
# marginals are checked against the one-sided rows); the palindromic
# corruptions sit in row and array 6, so a check made as each table is
# written would print the tables for n <= 5 first; a single --n names the
# corrupted n, which the row stream that gamma and the array marginals share
# with eulerian, or the array stream, yields; a brute corruption runs with
# --source brute
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("shape", ["--n-max", "--n"], ids=["n-max", "n"])
@pytest.mark.parametrize(
    "command,corruption",
    [
        ("eulerian", "A(5,2)"),
        ("eulerian", "A(4,2)"),
        ("gamma", "A(5,2)"),
        ("gamma", "A(4,2)"),
        ("two-sided", "array6(2,3)"),
        ("gessel", "array6(2,3)"),
        ("eulerian", "A(5,2)A(5,4)"),
        ("gamma", "A(5,2)A(5,4)"),
        ("two-sided", "A(5,2)A(5,4)"),
        ("gessel", "A(5,2)A(5,4)"),
        ("two-sided", "array6(2,3)(3,2)(5,4)(4,5)"),
        ("gessel", "array6(2,3)(3,2)(5,4)(4,5)"),
        ("eulerian", "brute A(5,2)A(5,4)"),
        ("gamma", "brute A(5,2)A(5,4)"),
        ("two-sided", "brute array6(2,3)(3,2)(5,4)(4,5)"),
        ("gessel", "brute array6(2,3)(3,2)(5,4)(4,5)"),
        ("eulerian", "A(6,2)+1A(6,3)-1"),
        ("gamma", "A(6,2)+1A(6,3)-1"),
        ("two-sided", "A(6,2)+1A(6,3)-1"),
        ("gessel", "A(6,2)+1A(6,3)-1"),
        ("two-sided", "array6(2,2)(3,3)+1(2,3)(3,2)-1"),
        ("gessel", "array6(2,2)(3,3)+1(2,3)(3,2)-1"),
        ("two-sided", "array6(1,2)(2,3)(3,1)+1(1,1)(2,2)(3,3)-1"),
        ("gessel", "array6(1,2)(2,3)(3,1)+1(1,1)(2,2)(3,3)-1"),
    ],
)
def test_a_table_command_on_a_broken_table_exits_one(monkeypatch, command, corruption, shape, fmt):
    bump, n, deltas = CORRUPTIONS[corruption]
    bump(monkeypatch, n, deltas)
    source = ("--source", "brute") if corruption.startswith("brute") else ()
    argv = (shape, "6" if shape == "--n-max" else str(n), *source, "--format", fmt)
    code, out, err = run_cli(command, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("verification failure: ") and err.count("\n") == 1


def test_a_check_that_raises_fails_with_its_message():
    def odd(n):
        if n % 2:
            raise ConsistencyError(f"n={n} is odd")

    assert verify._check("evens", range(1, 6), odd) == verify.CheckReport(
        False, "evens", "n=1 is odd; n=3 is odd; n=5 is odd"
    )
    assert verify._check("evens", [2, 4], odd, "two evens").ok


def test_a_check_that_returns_a_value_fails():
    report = verify._check("returns", [1], lambda n: n == 1)
    assert report == verify.CheckReport(False, "returns", "the check returned bool, not None")


def test_a_generator_check_fails_though_it_runs_only_when_iterated():
    # its body would yield a failure at every item, but a generator that no
    # one iterates runs none of it
    def lazy(n):
        yield f"n={n}"

    report = verify._check("lazy", [1], lazy)
    assert report == verify.CheckReport(False, "lazy", "the check returned generator, not None")


def test_verify_has_one_failure_path_and_no_generators():
    # no check yields its failures or returns an empty tuple of them
    tree = ast.parse(open(verify.__file__).read())
    assert not [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.Yield, ast.YieldFrom))
        or isinstance(node, ast.Return) and node.value is not None
        and ast.unparse(node.value) == "()"
    ]


def test_a_raise_fails_its_item_and_the_check_goes_on(monkeypatch):
    bump_triangle(monkeypatch, 5, {2: 1})
    _, out, _ = run_cli("verify", "--suite", "eulerian")
    line = next(line for line in out.splitlines() if "Worpitzky" in line)
    assert line.endswith(
        ":: Worpitzky sum at n=5, k=2 gave 33, expected 32; "
        "Worpitzky sum at n=5, k=3 gave 249, expected 243; "
        "Worpitzky sum at n=5, k=4 gave 1045, expected 1024"
    )


def test_a_guard_rail_inside_a_check_still_exits_three(monkeypatch):
    def refused(n):
        raise GuardRailError("orbit census refused")

    monkeypatch.setattr(hopping, "orbit_census", refused)
    code, out, err = run_cli("verify", "--suite", "hopping")
    assert (code, out) == (3, "")
    assert err == "error: orbit census refused\n"


def test_brute_force_checks_run_up_to_the_guard():
    # the three walks over S_n stop at perm.BRUTE_FORCE_GUARD, not below it
    code, out, _ = run_cli("verify", "--suite", "all", "--n-max", "11")
    assert code == 0
    lines = out.splitlines()
    for check in (
        "brute force and recurrence rows agree",
        "brute force and recurrence arrays agree",
        "orbit census by peak count equals the gamma vector",
    ):
        assert f"[PASS] {check} for n <= 11" in lines
    assert lines[-1] == "suite all: 28/28 checks passed"


@pytest.mark.parametrize("n_max", [1, 5, 7, 8])
def test_the_monotonicity_line_names_the_range_it_checked(n_max):
    # the documented first break is at n = 8; a smaller bound checks only
    # n <= n_max and claims no more
    code, out, _ = run_cli("verify", "--suite", "twosided", "--n-max", str(n_max))
    assert code == 0
    line = next(line for line in out.splitlines() if "diagonal monotonicity" in line)
    if n_max < 8:
        assert line == f"[PASS] diagonal monotonicity holds for n <= {n_max}"
    else:
        assert line == (
            "[PASS] diagonal monotonicity holds through n=7 and first breaks at n=8 "
            "as documented :: first violations at n=8: 126 > 84 and 1980 > 1773"
        )


ORBIT_SUMS = "orbit generating functions sum to the full distributions for n <= 7"


def hopping_failures():
    code, out, _ = run_cli("verify", "--suite", "hopping")
    return code, [line for line in out.splitlines() if line.startswith("[FAIL] ")]


def test_orbit_sums_hold_each_orbit_to_its_class_polynomial(monkeypatch):
    # a wrong shape for two peaks: every sum over S_n still holds, so only
    # the per-orbit comparison with class_polynomial can catch it
    shape = hopping.class_polynomial

    def wrong(n, peaks):
        return shape(n, peaks) + UniPoly.monomial(0) if peaks == 2 else shape(n, peaks)

    monkeypatch.setattr(hopping, "class_polynomial", wrong)
    code, failures = hopping_failures()
    assert code == 1
    # n = 5, 6 and 7 each fail at their first orbit with two peaks
    assert failures == [
        f"[FAIL] {ORBIT_SUMS} :: "
        "orbit of (1, 3, 2, 5, 4) has descent polynomial t^3, expected 1 + t^3; "
        "orbit of (1, 2, 4, 3, 6, 5) has descent polynomial t^3 + t^4, expected 1 + t^3 + t^4; "
        "orbit of (1, 2, 3, 5, 4, 7, 6) has descent polynomial t^3 + 2t^4 + t^5, "
        "expected 1 + t^3 + 2t^4 + t^5"
    ]


def test_orbit_sums_catch_a_wrong_inverse_at_one_member(monkeypatch):
    # 1234's inverse read as 2134: its ides moves from 0 to 1 and its des
    # stays, so every orbit keeps its t-marginal and only the bivariate sum
    # over S_4 can catch it
    wrong = verify.inverse
    monkeypatch.setattr(
        verify, "inverse", lambda u: (2, 1, 3, 4) if u == (1, 2, 3, 4) else wrong(u)
    )
    code, failures = hopping_failures()
    assert code == 1
    assert failures == [f"[FAIL] {ORBIT_SUMS} :: bivariate orbit sum fails at n=4"]


HOP_LAWS = "hops are involutions, move descents by one, and commute for n <= 6"
LETTER_CLASSES = (
    "descents split into peaks plus double descents and valleys exceed peaks by one for n <= 7"
)
INVARIANTS = "peak, valley, and free sets are orbit invariants for n <= 6"


def test_a_hop_that_breaks_the_involution_fails_the_checks_that_read_hops(monkeypatch):
    # 12345 hopped at 5 lands on 12354, where 5 is a peak: the hop laws and
    # both checks that read the hop classes of S_5 fail, and nothing else
    hop = hopping.hop

    def broken(w, x):
        return (1, 2, 3, 5, 4) if (w, x) == ((1, 2, 3, 4, 5), 5) else hop(w, x)

    monkeypatch.setattr(hopping, "hop", broken)
    code, failures = hopping_failures()
    assert code == 1
    closure = "orbit of (1, 2, 3, 4, 5) reaches (1, 2, 3, 5, 4), whose free letters differ"
    assert failures == [
        f"[FAIL] {HOP_LAWS} :: involution fails at (1, 2, 3, 4, 5), x=5",
        f"[FAIL] {INVARIANTS} :: {closure}",
        f"[FAIL] {ORBIT_SUMS} :: {closure}",
    ]


def test_a_free_letter_lost_on_both_sides_fails_the_commutation_law(monkeypatch):
    # 213 loses its free 3 and 312 its free 2: every hop from 123 comes back,
    # but neither hop can be followed by the other, so only the commutation
    # law (and the classes it breaks) can catch it
    free_values = hopping.free_values
    lost = {(2, 1, 3): 3, (3, 1, 2): 2}
    monkeypatch.setattr(
        hopping, "free_values", lambda w: tuple(x for x in free_values(w) if x != lost.get(w))
    )
    code, failures = hopping_failures()
    assert code == 1
    closure = "orbit of (1, 2, 3) reaches (2, 1, 3), whose free letters differ"
    assert failures == [
        f"[FAIL] {HOP_LAWS} :: commutation fails at (1, 2, 3), x=2, y=3",
        f"[FAIL] {INVARIANTS} :: {closure}",
        f"[FAIL] {ORBIT_SUMS} :: {closure}",
    ]


def miscount_one_descent(monkeypatch):
    # 21345 has one descent and is counted with two
    count = verify.descent_count
    monkeypatch.setattr(verify, "descent_count", lambda w: count(w) + (w == (2, 1, 3, 4, 5)))


def test_a_descent_miscount_fails_the_checks_that_read_descents(monkeypatch):
    miscount_one_descent(monkeypatch)
    code, failures = hopping_failures()
    assert code == 1
    assert failures == [
        f"[FAIL] {HOP_LAWS} :: descent step at (1, 2, 3, 4, 5), x=2",
        f"[FAIL] {LETTER_CLASSES} :: descent split fails at (2, 1, 3, 4, 5)",
        f"[FAIL] {ORBIT_SUMS} :: orbit of (1, 2, 3, 4, 5) has descent polynomial "
        "t + 3t^2 + 7t^3 + 4t^4 + t^5, expected t + 4t^2 + 6t^3 + 4t^4 + t^5",
    ]


def test_two_runs_in_one_process_share_no_table(monkeypatch):
    assert hopping_failures() == (0, [])
    miscount_one_descent(monkeypatch)
    code, failures = hopping_failures()
    assert code == 1
    assert len(failures) == 3


# The checks of the default `verify` that read each builder's table, by the
# opening words of their descriptions, in report order.
READERS = {
    (eulerian, "table_from_recurrence"): [
        "brute force and recurrence rows", "row sums", "rows are palindromic",
        "rows are unimodal", "Worpitzky identity", "series window",
        "derivative recurrence", "gamma vectors", "A_n(t)/t has n-1",
        "marginals match", "orbit generating functions", "orbit census",
    ],
    (eulerian, "brute_force_rows"): ["brute force and recurrence rows"],
    (twosided, "two_sided_from_recurrence"): [
        "brute force and recurrence arrays", "marginals match", "transpose and antipodal",
        "grid series", "two-sided Worpitzky", "bivariate derivative recurrence",
        "diagonal monotonicity", "orbit generating functions", "Gessel expansions",
    ],
    (twosided, "brute_force_tables"): ["brute force and recurrence arrays"],
    (verify, "_orbits"): ["peak, valley, and free sets", "orbit generating functions"],
    (verify, "_descents"): [
        "hops are involutions", "descents split", "orbit generating functions",
    ],
    (verify, "_hops"): ["hops are involutions"],
}


@pytest.mark.parametrize("builder", READERS, ids=lambda builder: builder[1])
def test_a_builder_that_raises_fails_exactly_the_checks_that_read_its_table(monkeypatch, builder):
    module, name = builder

    def broken(*args, **kwargs):
        raise ConsistencyError(f"{name} broke")

    monkeypatch.setattr(module, name, broken)
    code, out, _ = run_cli("verify")
    assert code == 1
    lines = out.splitlines()
    readers = READERS[builder]
    assert len(lines) == 29
    assert lines[-1] == f"suite all: {28 - len(readers)}/28 checks passed"
    failures = [line for line in lines if line.startswith("[FAIL] ")]
    assert len(failures) == len(readers)
    for line, opening in zip(failures, readers):
        assert line.startswith(f"[FAIL] {opening}"), line
        # read at every n, and reported once
        assert line.endswith(f" :: {name} broke"), line
