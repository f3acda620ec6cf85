"""tools/bench_summary.py on synthetic result files: it summarises one
correct run set of one tree, and refuses mixed trees, failed runs and a
checkout that changed since its runs.

The tool is not a package module, so it is loaded by path.
"""

import importlib.util
import json
import os
import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_summary", Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
)
bench_summary = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_summary)


def result(workload, seed, trace=False, src_sha256=None, git_sha="a" * 40, correct=True, failed=0,
           wall_s=0.25):
    """One result file's content as bench/run.py writes it, cut to what the tool reads."""
    run = {
        "meta": {"workload": workload, "seed": seed, "seconds": 3.0, "trace": trace, "python": "3.11.7",
                 "nproc": 2, "git_sha": git_sha, "src_sha256": src_sha256, "src_lines": 4},
        "correct": correct, "attempted": 50, "failed": failed,
        "end_to_end": {"wall_s": wall_s, "setup_s": 0.13, "peak_rss_mib": 110.0},
    }
    if trace:
        run["layers"] = {"cli.calls": 10 + seed, "eulerian.self_s": 0.01}
    return run


@pytest.fixture
def tree(tmp_path):
    """A checkout with a one-module package and an empty bench/out; returns
    (root, its src_sha256, a function that writes one result file)."""
    package = tmp_path / "src" / "eulerian_workbench"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("X = 1\n")
    (package / "cli.py").write_text("Y = 2\n")
    (tmp_path / "bench" / "out").mkdir(parents=True)
    digest = bench_summary.src_digest(tmp_path / "src")

    def write(workload, seed, trace=False, **fields):
        fields.setdefault("src_sha256", digest)
        run = result(workload, seed, trace, **fields)
        path = tmp_path / "bench" / "out" / f"{workload}-seed{seed}-trace{int(trace)}.json"
        path.write_text(json.dumps(run))

    return tmp_path, digest, write


def test_summarises_the_untraced_seeds_and_the_traced_layers(tree):
    root, digest, write = tree
    for seed, wall in ((1, 0.30), (2, 0.20), (3, 0.25), (4, 0.40)):
        write("cli-cache", seed, wall_s=wall)
    write("cli-cache", 7, trace=True)
    write("cli-cache", 8, trace=True)
    write("algebra", 1, wall_s=0.04)
    (root / "bench" / "out" / "cli-cache-seed7-trace1.spans.jsonl").write_text("{}\n")
    assert bench_summary.main(["--root", str(root), "--label", "x"]) == 0
    summary = json.loads((root / "BENCH_x.json").read_text())
    assert summary["label"] == "x"
    assert summary["meta"] == {"git_sha": "a" * 40, "src_sha256": digest, "src_lines": 4,
                               "python": "3.11.7", "nproc": 2}
    cli_cache = summary["workloads"]["cli-cache"]
    wall = cli_cache["end_to_end"]["wall_s"]
    assert (wall["median"], wall["n"]) == (0.275, 4)
    assert wall["q1"] < wall["median"] < wall["q3"]
    assert wall["values"] == {"1": 0.30, "2": 0.20, "3": 0.25, "4": 0.40}
    assert cli_cache["traced_runs"] == 2
    assert cli_cache["layers"] == {"cli.calls": 17.5, "eulerian.self_s": 0.01}
    algebra = summary["workloads"]["algebra"]
    assert algebra["end_to_end"]["wall_s"]["median"] == 0.04
    assert (algebra["traced_runs"], algebra["layers"]) == (0, {})


def test_reads_whether_each_module_has_valid_bytecode(tree):
    root, _, write = tree
    write("algebra", 1)
    package = root / "src" / "eulerian_workbench"
    py_compile.compile(str(package / "cli.py"), doraise=True)

    def states():
        assert bench_summary.main(["--root", str(root), "--label", "x"]) == 0
        return json.loads((root / "BENCH_x.json").read_text())["bytecode"]["modules"]

    assert states() == {"__init__.py": "missing", "cli.py": "valid"}
    # a source edit that keeps the size, dated a minute later: the
    # timestamped bytecode no longer matches the source
    (package / "cli.py").write_text("Y = 3\n")
    stat = (package / "cli.py").stat()
    os.utime(package / "cli.py", (stat.st_atime, stat.st_mtime + 60))
    for run in (root / "bench" / "out").glob("*.json"):
        run.unlink()
    write("algebra", 1, src_sha256=bench_summary.src_digest(root / "src"))
    assert states()["cli.py"] == "stale"
    # hash-based bytecode that checks its source is valid again
    py_compile.compile(str(package / "cli.py"), doraise=True,
                       invalidation_mode=py_compile.PycInvalidationMode.CHECKED_HASH)
    assert states()["cli.py"] == "valid"


@pytest.mark.parametrize("fault, message", [
    ({"src_sha256": "0" * 64}, "mix src_sha256"),
    ({"git_sha": "b" * 40}, "mix git_sha"),
    ({"correct": False, "failed": 1}, "not correct: 1 failed"),
    ({"failed": 2}, "not correct: 2 failed"),
])
def test_refuses_mixed_trees_and_failed_runs(tree, capsys, fault, message):
    root, _, write = tree
    write("cli-cache", 1)
    write("cli-cache", 2, **fault)
    assert bench_summary.main(["--root", str(root), "--label", "x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and message in err and err.count("\n") == 1
    assert not (root / "BENCH_x.json").exists()


def test_refuses_a_checkout_that_changed_since_its_runs_and_a_set_with_no_untraced_run(tree, capsys):
    root, _, write = tree
    assert bench_summary.main(["--root", str(root), "--label", "x"]) == 1
    assert "no result files" in capsys.readouterr().err
    write("verify-all", 1, trace=True)
    assert bench_summary.main(["--root", str(root), "--label", "x"]) == 1
    assert "no untraced run" in capsys.readouterr().err
    write("verify-all", 2)
    (root / "src" / "eulerian_workbench" / "cli.py").write_text("Y = 4\n")
    assert bench_summary.main(["--root", str(root), "--label", "x"]) == 1
    assert "changed since the runs" in capsys.readouterr().err


def test_labels_by_the_runs_git_sha_and_needs_a_label_outside_git(tree, capsys):
    root, _, write = tree
    write("algebra", 1, git_sha=None)
    assert bench_summary.main(["--root", str(root)]) == 1
    assert "no git sha" in capsys.readouterr().err
    write("algebra", 1)
    assert bench_summary.main(["--root", str(root)]) == 1
    assert "not a git checkout" in capsys.readouterr().err


def test_compares_two_summaries_seed_by_seed(tree, capsys):
    root, _, write = tree
    for seed in range(1, 11):
        write("cli-cache", seed, wall_s=0.28 + seed / 1000)
    assert bench_summary.main(["--root", str(root), "--out", str(root / "base.json"), "--label", "b"]) == 0
    for seed in range(1, 11):
        write("cli-cache", seed, wall_s=0.22 + seed / 1000)
    assert bench_summary.main(["--root", str(root), "--out", str(root / "new.json"), "--label", "n"]) == 0
    capsys.readouterr()
    assert bench_summary.main(["--compare", str(root / "base.json"), str(root / "new.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["base: b (src 4 lines)", "new:  n (src 4 lines)"]
    wall = next(line for line in lines if " wall_s " in line)
    assert wall.split()[-2:] == ["10/10", "improved"]
    setup = next(line for line in lines if " setup_s " in line)
    assert setup.split()[-2:] == ["0/10", "unchanged"]


def test_gives_no_verdict_on_summaries_that_share_no_seed(tree, capsys):
    root, _, write = tree
    for seed in range(1, 11):
        write("cli-cache", seed, wall_s=0.28 + seed / 1000)
    assert bench_summary.main(["--root", str(root), "--out", str(root / "base.json"), "--label", "b"]) == 0
    for run in (root / "bench" / "out").glob("*.json"):
        run.unlink()
    for seed in range(101, 111):
        write("cli-cache", seed, wall_s=0.22 + seed / 100000)
    assert bench_summary.main(["--root", str(root), "--out", str(root / "new.json"), "--label", "n"]) == 0
    capsys.readouterr()
    assert bench_summary.main(["--compare", str(root / "base.json"), str(root / "new.json")]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[1] for row in rows] == ["peak_rss_mib", "setup_s", "wall_s"]
    for row in rows:
        assert row.endswith("  no shared seed")
        assert not any(word in row for word in ("improved", "regressed", "unresolved", "unchanged", "/"))


def test_compare_ends_quietly_when_its_reader_closes_stdout(tmp_path):
    summary = {"label": "x", "meta": {"src_lines": 4}, "workloads": {}}
    (tmp_path / "x.json").write_text(json.dumps(summary))
    child = subprocess.Popen(
        [sys.executable, bench_summary.__file__, "--compare", str(tmp_path / "x.json"), str(tmp_path / "x.json")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    child.stdout.close()  # before the child writes its first line
    assert child.stderr.read() == b""
    child.wait()
