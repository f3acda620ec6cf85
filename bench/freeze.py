"""Freeze the digests of outputs that no closed form covers into digests.json.

    python3 bench/freeze.py

Run it only on a commit whose outputs are trusted. Before writing, each output
is cross-checked by routes the package does not use: JSON payloads against
the closed forms in workloads.py, larger two-sided arrays through their
marginals, totals and symmetries, and Gessel expansions through their value
at s = t = 1.
"""

from __future__ import annotations

import json
import sys
from math import factorial

import run
from workloads import (
    CLI_COMMANDS, CLOSED_FORM_TWO_SIDED_MAX, DIGESTS, FORMATS, canonical, cli_call,
    eulerian_row, gamma_ok, gessel_text, sha256, two_sided_array,
)


def array_plausible(n: int, entries) -> bool:
    row = eulerian_row(n)
    rows = tuple(sum(r) for r in entries)
    cols = tuple(sum(c) for c in zip(*entries))
    swap = all(entries[i][j] == entries[j][i] for i in range(n) for j in range(n))
    flip = all(entries[i][j] == entries[n - 1 - i][n - 1 - j] for i in range(n) for j in range(n))
    return rows == row and cols == row and swap and flip


def gessel_plausible(n: int, gammas: dict) -> bool:
    value = sum(c * 2 ** (n + 1 - j - 2 * i) * 2**j for (i, j), c in gammas.items())
    return value == factorial(n) and all(c > 0 for c in gammas.values())


def main() -> int:
    pkg = run.import_package()
    cli, two = pkg.cli, pkg.twosided
    digests: dict[str, str] = {}
    problems: list[str] = []

    result = cli_call(cli, ["verify", "--suite", "all"])
    if result.code != 0 or "FAIL" in result.stdout:
        problems.append("verify --suite all did not pass")
    digests["verify-all"] = sha256(result.stdout)

    arrays = [t.entries for t in two.two_sided_from_recurrence(60)]
    small = CLOSED_FORM_TWO_SIDED_MAX
    if any(arrays[n - 1] != two_sided_array(n) for n in range(1, small + 1)):
        problems.append("two-sided recurrence disagrees with the closed form")
    if not all(array_plausible(n, arrays[n - 1]) for n in range(small + 1, 61)):
        problems.append("two-sided recurrence fails marginals or symmetries")
    digests[f"twosided-recurrence-{small + 1}-60"] = sha256(canonical(arrays[small:]))

    for n in (12, 14, 16):
        poly = two.polynomial_from_table(two.TwoSidedTable(n, two_sided_array(n)))
        expansion = two.gessel_solve(poly, n)
        if not gessel_plausible(n, expansion.gammas):
            problems.append(f"Gessel expansion at n={n} fails its value at s=t=1")
        digests[f"gessel-n{n}"] = sha256(gessel_text(expansion))

    for label, argv in CLI_COMMANDS.items():
        for fmt in FORMATS:
            result = cli_call(cli, argv + ["--format", fmt])
            if result.code != 0:
                problems.append(f"{label} {fmt} exited {result.code}")
            if fmt == "json":
                problems.extend(check_json(label, json.loads(result.stdout)))
            digests[f"cli/{label}/{fmt}"] = sha256(result.stdout)

    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    return 0


def check_json(label: str, payload: list[dict]) -> list[str]:
    bad = []
    for obj in payload:
        n = int(obj["n"])
        if label in ("eulerian-300", "gamma-60") and tuple(map(int, obj["A"])) != eulerian_row(n):
            bad.append(f"{label}: row {n}")
        if label == "gamma-60" and not gamma_ok(n, tuple(map(int, obj["gamma"]))):
            bad.append(f"{label}: gamma {n}")
        if label in ("two-sided-40", "gessel-10"):
            entries = tuple(tuple(map(int, r)) for r in obj["A"])
            closed = n <= CLOSED_FORM_TWO_SIDED_MAX and entries == two_sided_array(n)
            if not (closed or n > CLOSED_FORM_TWO_SIDED_MAX and array_plausible(n, entries)):
                bad.append(f"{label}: array {n}")
        if label == "gessel-10":
            gammas = {tuple(map(int, k.strip("()").split(","))): int(v) for k, v in obj["gamma"].items()}
            if not gessel_plausible(n, gammas):
                bad.append(f"{label}: expansion {n}")
    return bad


if __name__ == "__main__":
    sys.exit(main())
