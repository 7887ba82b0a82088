"""Every command under the benchmark's tracer: the plain run's exit code and bytes.

perfbench/traced.py wraps each function that a loaded module's __all__
names, looked up with getattr, and attaches its probes by qualified
name. A stale __all__ entry, or a renamed function that a probe still
reads, therefore breaks only traced runs. Each command runs once plainly
and once traced, on a small instance, with perfbench/run.py's module
list for that command.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

COMMANDS = {
    "predict": ["--n", "16", "--k-max", "20"],  # off the ladder at k = 15: exit 4
    "compare": ["--n", "64", "--k-max", "4", "--seed", "1", "--bins", "8"],
    "spiral": ["--n", "1000", "--omega-max", "1", "--steps", "200"],
    "bulk": ["--n", "64", "--alpha", "0.5", "--realizations", "2", "--density", "--grid-points", "5"],
    "coarsegrain": ["--n", "100", "--b", "10", "--partition", "random", "--seed", "2"],
}


def bench_imports() -> dict[str, tuple[str, ...]]:
    """run.py's IMPORTS table, read from its source without importing the benchmark."""
    for node in ast.parse((PERFBENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "IMPORTS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py assigns no IMPORTS table")


def run(prefix: list[str], argv: list[str], cwd: Path) -> tuple[int, bytes, dict[str, bytes]]:
    """Exit code, stdout and the files written into cwd by one command."""
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        prefix + argv, cwd=cwd, env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=300
    )
    return proc.returncode, proc.stdout, {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_traced_run_matches_plain_run(command, tmp_path):
    argv = [command, *COMMANDS[command], "--threads", "1", "--out", "run"]
    spans = tmp_path / "spans.npz"
    modules = ",".join(bench_imports()[command])
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = run([sys.executable, "-m", "msmlab.cli"], argv, tmp_path / "plain")
    traced = run([sys.executable, str(PERFBENCH / "traced.py"), str(spans), modules, "--"], argv, tmp_path / "traced")
    assert plain[2], "the plain run wrote no files"
    assert traced == plain
    assert spans.exists()
