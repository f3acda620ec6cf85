"""The verify suites: each builds the tables it checks once."""

from collections import Counter

import pytest

from eulerian_workbench import eulerian, twosided, verify

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
