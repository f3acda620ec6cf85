"""The acceptance gate: eleven criteria, one recorded verdict each.

Every criterion recomputes its values from scratch inside the stated time
budget and compares exactly (integer equality, byte equality for the
determinism check). Verdicts are printed as a block at the end of the
pytest run by the conftest summary hook.
"""

import io
import itertools
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from math import comb

from eulerian_workbench import cli
from eulerian_workbench.boxes import (
    count_barred,
    count_two_sided,
    oracle_barred_census,
    oracle_two_sided_census,
    standardize_grid_placement,
)
from eulerian_workbench.eulerian import (
    brute_force_rows,
    eulerian_polynomial,
    gamma_extract,
    table_from_recurrence,
    worpitzky_identity,
)
from eulerian_workbench.exactnum import (
    BiPoly,
    UniPoly,
    geometric_power_window,
    series_product,
    series_product_bivariate,
    sturm_negative_root_count,
)
from eulerian_workbench.hopping import (
    factored_bivariate,
    orbit_census,
    orbit_descent_polynomial,
    orbit_of,
    orbit_two_sided_polynomial,
)
from eulerian_workbench.twosided import (
    brute_force_tables,
    check_symmetries,
    diagonal_monotonicity_probe,
    gessel_solve,
    polynomial_from_table,
    two_sided_from_recurrence,
    two_sided_polynomial,
)

from conftest import record_acceptance
from reference_tables import (
    GAMMA_ROW_4,
    GAMMA_ROW_5,
    GESSEL_4,
    GESSEL_5,
    TABLE1,
    TABLE2,
)


def _run_cli(*argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue()


def test_criterion_1_eulerian_table_reproduction():
    start = time.monotonic()
    code, out = _run_cli("eulerian", "--n-max", "8", "--format", "json")
    via_cli = {
        int(o["n"]): tuple(int(c) for c in o["A"]) for o in json.loads(out)
    }
    brute = brute_force_rows(list(range(1, 9)))
    elapsed = time.monotonic() - start
    ok = (
        code == 0
        and via_cli == TABLE1
        and via_cli[8][3] == 15619
        and all(brute[n] == TABLE1[n] for n in TABLE1)
        and elapsed < 5.0
    )
    record_acceptance(
        1, ok, f"Table 1 by CLI, brute force, and recurrence in {elapsed:.2f}s"
    )
    assert ok


def test_criterion_2_two_sided_table_reproduction():
    start = time.monotonic()
    code, out = _run_cli("two-sided", "--n-max", "8", "--format", "json")
    via_cli = {
        int(o["n"]): tuple(tuple(int(c) for c in row) for row in o["A"])
        for o in json.loads(out)
    }
    brute = brute_force_tables(list(range(1, 9)))
    elapsed = time.monotonic() - start
    ok = (
        code == 0
        and via_cli == TABLE2
        and via_cli[8][3][4] == 4761
        and via_cli[7][3][3] == 1520
        and all(brute[n].entries == TABLE2[n] for n in TABLE2)
        and elapsed < 30.0
    )
    record_acceptance(
        2, ok, f"Table 2 by CLI, brute force, and recurrence in {elapsed:.2f}s"
    )
    assert ok


def test_criterion_3_power_sum_window():
    window = series_product(eulerian_polynomial(3), geometric_power_window(4, 5))
    ok = window.coeffs == (0, 1, 8, 27, 64, 125)
    record_acceptance(3, ok, "n=3 window gives the cubes 1,8,27,64,125 exactly")
    assert ok


def test_criterion_4_worpitzky():
    ok = worpitzky_identity(4, 3) == 81
    table = table_from_recurrence(8)
    for n in range(1, 9):
        row = table.row(n)
        for k in range(9):
            ok = ok and worpitzky_identity(n, k, row) == k**n
    record_acceptance(4, ok, "spot value 3^4=81 plus the full n,k <= 8 grid")
    assert ok


def test_criterion_5_grid_window():
    ok = True
    for n in range(1, 7):
        window = geometric_power_window(n + 1, 5)
        grid = series_product_bivariate(two_sided_polynomial(n), window, window)
        for k in range(6):
            for l in range(6):
                ok = ok and grid.coeffs[k][l] == comb(k * l + n - 1, n)
    record_acceptance(5, ok, "grid windows equal binom(kl+n-1,n) for n <= 6")
    assert ok


def test_criterion_6_gamma_vectors():
    ok = gamma_extract(eulerian_polynomial(4), 4).gammas == GAMMA_ROW_4
    ok = ok and gamma_extract(eulerian_polynomial(5), 5).gammas == GAMMA_ROW_5
    for n in range(1, 10):
        census = orbit_census(n)
        gammas = gamma_extract(eulerian_polynomial(n), n).gammas
        ok = ok and census == {i - 1: g for i, g in enumerate(gammas, 1) if g}
    record_acceptance(
        6, ok, "gamma rows (1,8) and (1,22,16); orbit census agrees to n=9"
    )
    assert ok


def test_criterion_7_gessel_expansions():
    start = time.monotonic()
    tables = two_sided_from_recurrence(12)
    e4 = gessel_solve(polynomial_from_table(tables[3]), 4)
    e5 = gessel_solve(polynomial_from_table(tables[4]), 5)
    ok = e4.gammas == GESSEL_4 and e5.gammas == GESSEL_5
    smallest = None
    for n in range(1, 13):
        expansion = gessel_solve(polynomial_from_table(tables[n - 1]), n)
        low = min(expansion.gammas.values())
        smallest = low if smallest is None else min(smallest, low)
        ok = ok and expansion.nonnegative
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    record_acceptance(
        7,
        ok,
        f"worked expansions exact; verdict NONNEGATIVE for n <= 12 "
        f"(smallest coefficient {smallest}) in {elapsed:.2f}s",
    )
    assert ok


def test_criterion_8_golden_orbit():
    orbit = orbit_of((8, 6, 3, 2, 4, 7, 1, 5, 9))
    uni = orbit_descent_polynomial(orbit)
    bi = orbit_two_sided_polynomial(orbit)
    one = BiPoly.one()
    expected_bi = (
        BiPoly.monomial(3, 2)
        * (one + BiPoly.monomial(0, 1)) ** 2
        * (one + BiPoly.monomial(1, 1)) ** 4
    )
    ok = (
        orbit.size == 64
        and uni == UniPoly.monomial(2) * UniPoly.from_coeffs([1, 1]) ** 6
        and bi == expected_bi
        and factored_bivariate(bi) == (3, 2, 0, 2, 4)
    )
    code, out = _run_cli("orbit", "863247159", "--format", "json")
    obj = json.loads(out)
    ok = ok and code == 0 and obj["uni"] == "t^2(1+t)^6"
    ok = ok and obj["bi"] == "s^3 t^2 (1+t)^2 (1+st)^4"
    record_acceptance(8, ok, "orbit of 863247159: 64 members, both polynomials")
    assert ok


def test_criterion_9_oracle_equivalence():
    start = time.monotonic()
    ok = True
    for n in range(1, 6):
        for k in range(6):
            census = oracle_barred_census(n, k)
            for w in itertools.permutations(range(1, n + 1)):
                ok = ok and census.get(w, 0) == count_barred(w, k)
    for n in range(1, 5):
        for c in range(1, 4):
            for r in range(1, 4):
                census = oracle_two_sided_census(n, c, r)
                for w in itertools.permutations(range(1, n + 1)):
                    ok = ok and census.get(w, 0) == count_two_sided(w, c, r)
    # cells (1, 1), (1, 4), (2, 1), (3, 1) twice, (3, 3), (5, 1) of a 5x4
    # grid, cell (c, r) at index (c - 1) * 4 + (r - 1)
    worked, _, _ = standardize_grid_placement((0, 3, 4, 8, 8, 10, 16), 5, 4)
    ok = ok and worked == (1, 7, 2, 3, 4, 6, 5)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    record_acceptance(
        9, ok, f"censuses match closed forms; worked grid standardizes "
        f"to 1723465 in {elapsed:.2f}s",
    )
    assert ok


def test_criterion_10_symmetry_and_structure():
    ok = True
    for table in two_sided_from_recurrence(20):
        check_symmetries(table)  # raises at an array that breaks one
    tables = two_sided_from_recurrence(8)
    for n in range(1, 8):
        ok = ok and diagonal_monotonicity_probe(tables[n - 1]) == []
    found = {
        (v.value, v.toward_value)
        for v in diagonal_monotonicity_probe(tables[7])
    }
    ok = ok and found == {(126, 84), (1980, 1773)}
    for n in range(1, 11):
        p = eulerian_polynomial(n)
        shifted = UniPoly.from_coeffs(p.coeffs[1:])
        ok = ok and sturm_negative_root_count(shifted) == (n - 1, True)
    record_acceptance(
        10, ok, "symmetries to n=20; first probe hits at n=8; Sturm to n=10"
    )
    assert ok


def test_criterion_11_shard_determinism():
    ok = True
    for command in ("eulerian", "two-sided"):
        runs = []
        for shards in ("1", "8"):
            code, out = _run_cli(
                command, "--n-max", "8", "--source", "brute", "--shards", shards
            )
            ok = ok and code == 0
            runs.append(out)
        ok = ok and runs[0] == runs[1]
    record_acceptance(11, ok, "shards 1 and 8 produce byte-identical tables")
    assert ok
