"""Routes that exist to be independent share no code: no route's closure of
package references reaches another route's entry points. And the package
holds only what runs: every definition is reached from a command or the
public API.

The closure is read from the package source with ast. A definition is a
top-level function, class or assignment. Inside one, a reference to package
code is one of three kinds of name: a definition of the same module, a name
bound by `from .x import y`, or `x.attr` with x a package module bound by
`from . import x`. A name imported from another package module resolves to
its definition there. A function passed as a value is a reference too, so a
kernel handed to perm.histogram counts. Only verify and cli join routes, so
no route may reach them. A getattr or vars on a package module would hide a
reference from this reading, so it is banned everywhere in the package.
"""

import ast
import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

import eulerian_workbench

PACKAGE = Path(eulerian_workbench.__file__).parent


def _package_module(node: ast.ImportFrom) -> str | None:
    """The package-relative module of a from-import ("" for the package), or None."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == PACKAGE.name:
        return node.module.partition(".")[2]
    return None


class Package:
    """Top-level definitions and import bindings of every package module."""

    def __init__(self, root: Path):
        self.trees: dict[str, ast.Module] = {}
        self.defs: dict[tuple[str, str], ast.AST] = {}
        self.imported: dict[str, dict[str, tuple[str, str]]] = {}
        self.modules: dict[str, dict[str, str]] = {}
        names = {path.stem for path in root.glob("*.py")}
        for path in sorted(root.glob("*.py")):
            module = path.stem
            tree = self.trees[module] = ast.parse(path.read_text(), filename=str(path))
            imported = self.imported[module] = {}
            modules = self.modules[module] = {}
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    self.defs[module, node.name] = node
                elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        for name in ast.walk(target):
                            if isinstance(name, ast.Name):
                                self.defs[module, name.id] = node
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        head, _, rest = alias.name.partition(".")
                        if head == root.name and rest and alias.asname:
                            modules[alias.asname] = rest
                elif isinstance(node, ast.ImportFrom):
                    source = _package_module(node)
                    if source is None:
                        continue
                    for alias in node.names:
                        local = alias.asname or alias.name
                        if source == "" and alias.name in names:
                            modules[local] = alias.name
                        else:
                            imported[local] = (source or "__init__", alias.name)

    def resolve(self, module: str, name: str) -> tuple[str, str] | None:
        """The definition a module-level name stands for, following imports."""
        seen = set()
        while (module, name) not in self.defs:
            if (module, name) in seen or name not in self.imported.get(module, {}):
                return None
            seen.add((module, name))
            module, name = self.imported[module][name]
        return module, name

    def references(self, key: tuple[str, str]) -> set[tuple[str, str]]:
        """The package definitions one definition names."""
        module = key[0]
        modules = self.modules[module]
        out = set()
        for node in ast.walk(self.defs[key]):
            target = None
            if isinstance(node, ast.Name):
                target = self.resolve(module, node.id)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                target = self.resolve(modules[node.value.id], node.attr)
            if target is not None and target != key:
                out.add(target)
        return out

    def closure(self, entries) -> dict[tuple[str, str], tuple[str, str] | None]:
        """Every definition reachable from entries, each with the one that reached it."""
        parent = {entry: None for entry in entries}
        queue = deque(entries)
        while queue:
            key = queue.popleft()
            for target in self.references(key):
                if target not in parent:
                    parent[target] = key
                    queue.append(target)
        return parent


PKG = Package(PACKAGE)

ROUTES = {
    "brute force": [
        ("eulerian", "brute_force_rows"),
        ("twosided", "brute_force_tables"),
        ("hopping", "orbit_census"),
    ],
    "oracles": sorted(key for key in PKG.defs if key[0] == "boxes" and key[1].startswith("oracle_")),
    "recurrences": [
        ("eulerian", "recurrence_rows"),
        ("eulerian", "table_from_recurrence"),
        ("twosided", "recurrence_arrays"),
        ("twosided", "two_sided_from_recurrence"),
    ],
    "gamma extraction": [("eulerian", "gamma_extract")],
    "Gessel peel": [("twosided", "gessel_solve")],
    "Sturm": [("exactnum", "sturm_negative_root_count")],
    "exact sums": [("eulerian", "check_row_sum"), ("twosided", "check_array_sums")],
}

JOINERS = ("verify", "cli")


def chain(parent, key) -> str:
    path = []
    while key is not None:
        path.append(".".join(key))
        key = parent[key]
    return " <- ".join(path)


def test_every_route_entry_point_is_defined():
    assert len(ROUTES["oracles"]) == 2
    for entries in ROUTES.values():
        for key in entries:
            assert key in PKG.defs, key


def test_the_closure_follows_each_kind_of_reference():
    # histogram by `from .perm import`, descent_kernel passed as a value,
    # UniPoly by name in the same module, verify's calls through `from . import`
    reached = PKG.closure([("eulerian", "brute_force_rows")])
    assert {("perm", "histogram"), ("perm", "descent_kernel"), ("perm", "enumerate_sn")} <= set(reached)
    assert ("exactnum", "UniPoly") in PKG.closure([("exactnum", "sturm_negative_root_count")])
    assert ("eulerian", "table_from_recurrence") in PKG.references(("verify", "suite_eulerian"))
    # module-level assignments: a constant by attribute, a dict of functions by name
    assert ("hopping", "PEAK") in PKG.references(("verify", "suite_hopping"))
    assert ("verify", "suite_gessel") in PKG.references(("verify", "SUITES"))


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_no_route_reaches_another_route_or_a_joiner(route):
    reached = PKG.closure(ROUTES[route])
    others = {key for name, entries in ROUTES.items() if name != route for key in entries}
    crossings = [chain(reached, key) for key in reached if key in others or key[0] in JOINERS]
    assert crossings == []


def test_no_getattr_or_vars_on_a_package_module():
    found = []
    for module, tree in PKG.trees.items():
        modules = PKG.modules[module]
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "vars")
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in modules
            ):
                found.append(f"{module}.py:{node.lineno}")
    assert found == []


# The entries: what a command runs and what the package exports.
ENTRIES = [("cli", "main"), ("cli", "run"), ("__init__", "__all__")] + [
    PKG.resolve("__init__", name) for name in eulerian_workbench.__all__
]

# Definitions no entry reaches, each bound only for the benchmark harness,
# which looks them up by name; they go when the harness stops binding them.
BENCH_ONLY = {
    ("cli", "cache_load"): "bench/spans.py wraps it to count cache reads; no command calls it",
    ("cli", "cache_store"): "bench/spans.py wraps it to count cache writes; no command calls it",
    ("exactnum", "solve_exact_linear"): "bench/spans.py wraps it to count Gessel unknowns; "
    "a stub that raises, since nothing calls it",
    ("eulerian", "ProcessPoolExecutor"): "bench/spans.py swaps its process-counting pool in here",
    ("twosided", "ProcessPoolExecutor"): "bench/spans.py swaps its process-counting pool in here",
}


def test_every_definition_is_reached_from_a_command_or_the_public_api():
    assert None not in ENTRIES
    reached = PKG.closure(ENTRIES)
    unreached = [".".join(key) for key in sorted(PKG.defs) if key not in reached]
    assert unreached == sorted(".".join(key) for key in BENCH_ONLY)


def test_importing_the_cli_loads_no_pool_no_rational_arithmetic_no_verify_and_no_boxes():
    # a fresh interpreter without site, whose imports may include typing:
    # what importing the CLI adds to sys.modules, then what running stats
    # adds to that; only the eulerian command imports decimal
    code = (
        "import sys; before = set(sys.modules); import eulerian_workbench.cli as cli; "
        "print(*sorted(set(sys.modules) - before)); cli.run(['stats', '123']); "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    imported, profile, after_stats = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    loaded = imported.split()
    assert "eulerian_workbench.cli" in loaded
    banned = ("concurrent.futures", "multiprocessing", "fractions", "decimal",
              "eulerian_workbench.verify", "eulerian_workbench.boxes")
    assert [m for m in loaded if any(m == b or m.startswith(b + ".") for b in banned)] == []
    assert profile == "des=0 ides=0 inv=0 asc=2 exc=0 run=1"
    loaded = after_stats.split()
    assert "eulerian_workbench.perm" in loaded
    assert [m for m in loaded if m in ("eulerian_workbench.verify", "eulerian_workbench.boxes",
                                       "decimal", "_decimal")] == []
    assert "typing" not in loaded
