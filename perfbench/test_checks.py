"""The benchmark's checks pass real outputs and fail corrupted ones.

    python3 -m pytest perfbench -q

Each case runs one small CLI command, checks its outputs, then corrupts
one value in one file and checks again: the corruption must be reported,
so that it would count as a failed command in the benchmark.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from checks import Command
from run import Runner


def _edit_csv(path: Path, row: int, column: str, value: str) -> None:
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    rows[row][column] = value
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, header, lineterminator="\r\n")
        writer.writeheader()
        writer.writerows(rows)


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _scale_csv(path: Path, row: int, column: str, factor: float) -> None:
    with path.open(newline="") as fh:
        old = float(list(csv.DictReader(fh))[row][column])
    _edit_csv(path, row, column, repr(old * factor))


CASES = {
    "predict-residual": (
        Command("predict", {"alpha": 0.5, "n": 1000, "k_max": 4}, "p"),
        lambda d: _edit_csv(d / "p.csv", 2, "residual", "1e-6"),
    ),
    "predict-json-rows": (
        Command("predict", {"alpha": 0.8, "n": 1000, "k_max": 4, "format": "json"}, "pj"),
        lambda d: _edit_json(d / "pj.json", lambda doc: doc["predictions"].pop()),
    ),
    "compare-eigenvector": (
        Command("compare", {"alpha": 0.5, "n": 256, "k_max": 4, "deterministic": False, "seed": 7}, "c"),
        lambda d: _scale_csv(d / "c_eigenvectors.csv", 300, "numerical_P", 1.001),
    ),
    "compare-lambda-pred": (
        Command("compare", {"alpha": 0.2, "n": 256, "k_max": 4, "deterministic": True, "seed": 7}, "c"),
        lambda d: _scale_csv(d / "c_report.csv", 1, "lambda_pred", 1.0 + 1e-9),
    ),
    "bulk-density": (
        Command("bulk", {"alpha": 0.5, "n": 256, "realizations": 2, "density": True, "grid_points": 5, "seed": 3}, "b"),
        lambda d: _edit_csv(next(d.glob("b_density_*.csv")), 2, "rho_H", "-1e-3"),
    ),
    "bulk-edge": (
        Command("bulk", {"alpha": 0.8, "n": 256, "realizations": 2, "density": True, "grid_points": 5, "seed": 3}, "b"),
        lambda d: _edit_csv(d / "b_edge_sweep.csv", 0, "mean_edge", "1.0"),
    ),
    "spiral-crossing": (
        Command("spiral", {"alpha": 0.5, "n": 1000, "omega_max": 3, "steps": 2000}, "s"),
        lambda d: _scale_csv(d / "s_spiral_crossings.csv", 1, "omega", 1.0 + 1e-6),
    ),
    "coarsegrain-passed": (
        Command("coarsegrain", {"alpha": 0.5, "n": 100, "b": 10, "partition": "random", "seed": 5}, "g"),
        lambda d: _edit_json(d / "g.json", lambda doc: doc["report"].update(passed=False)),
    ),
    "missing-file": (
        Command("coarsegrain", {"alpha": 0.2, "n": 100, "b": 10, "partition": "contiguous", "seed": 5}, "g"),
        lambda d: (d / "g.json").unlink(),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_corrupted_output_fails_the_check(case: str, tmp_path: Path) -> None:
    cmd, corrupt = CASES[case]
    runner = Runner(tmp_path, tmp_path / "stderr.log")
    cwd = runner.fresh_dir("cmd")
    code = runner.cli(cmd, cwd)[0]
    assert runner.checker.check(cmd, code, cwd) == []
    corrupt(cwd)
    assert runner.checker.check(cmd, code, cwd) != []


def test_nonzero_exit_fails_the_check(tmp_path: Path) -> None:
    cmd = Command("coarsegrain", {"alpha": 0.5, "n": 100, "b": 7}, "g")  # 7 does not divide 100
    runner = Runner(tmp_path, tmp_path / "stderr.log")
    cwd = runner.fresh_dir("cmd")
    code = runner.cli(cmd, cwd)[0]
    assert code == 2
    assert runner.checker.check(cmd, code, cwd) == ["exit code 2"]


def test_traced_run_matches_plain_run(tmp_path: Path) -> None:
    cmd = Command("predict", {"alpha": 0.5, "n": 1000, "k_max": 4}, "p")
    runner = Runner(tmp_path, tmp_path / "stderr.log")
    plain, traced = runner.fresh_dir("plain"), runner.fresh_dir("traced")
    assert runner.cli(cmd, plain)[0] == 0
    code, _, doc = runner.traced(cmd, traced)
    assert code == 0
    assert (plain / "p.csv").read_bytes() == (traced / "p.csv").read_bytes()
    calls = doc["spans"][:, 0].astype(int)
    assert (calls == doc["names"].index("spectrum.solve_omega_k")).sum() == 4
    root = doc["spans"][0]
    assert doc["names"][int(root[0])] == "cli.main" and root[3] == -1
    assert doc["unwrapped_modules"] == []
