"""The package names the benchmark harness binds still exist.

bench/spans.py wraps package functions by name for a traced run. Entering
its Instrumentation fails on any name the package no longer binds, so a
deletion shows up here as well as in the harness's own tests.
"""

from pathlib import Path

import eulerian_workbench
from eulerian_workbench import boxes, cli, eulerian, exactnum, hopping, perm, twosided, verify

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = (boxes, cli, eulerian, exactnum, hopping, perm, twosided, verify)


def _bindings():
    """Every name each package module binds, plus the patched class slots."""
    out = {m.__name__: dict(vars(m)) for m in (eulerian_workbench,) + MODULES}
    for cls in (exactnum.UniPoly, exactnum.BiPoly):
        out[cls.__name__] = dict(vars(cls))
    out["SUITES"] = dict(verify.SUITES)
    return out


def test_instrumentation_binds_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    before = _bindings()
    tracer = spans.Tracer()
    with spans.Instrumentation(tracer, eulerian_workbench):
        assert eulerian.table_brute_force(5) == (1, 26, 66, 26, 1)
    assert tracer.counts["perm.perms"] == 120
    assert "eulerian.brute_force_rows" in {span[0] for span in tracer.spans}
    after = _bindings()
    assert after.keys() == before.keys()
    for owner in before:
        assert after[owner] == before[owner], owner
