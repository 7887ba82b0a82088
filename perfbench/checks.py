"""Tolerance checks on the files one msmlab CLI command wrote.

Each check reads the command's outputs from its working directory and
returns a list of problems; an empty list means the command passed. The
checks compare against stated tolerances, never byte digests, so an
algorithm change that keeps the numbers within tolerance still passes.

Reference values are rebuilt here from the model's formulas (the kernel
P for compare and bulk) or taken from the CLI's own `predict` ladder, so a
check never trusts the command it is checking.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

# bound of numeric.residual_tolerances: ||Pv - lv|| <= 1e-8 (||P||_F/sqrt(n) + |l|)
EIG_RESIDUAL_FACTOR = 1e-8
ROOT_RESIDUAL_MAX = 1e-9
CROSSING_TOL = 1e-9
LADDER_REL_TOL = 1e-12
COARSE_VIOLATION_MAX = 1e-12
# the delta of bulk.norm_lower_bound_check: the edge must reach sqrt(1 - delta) sigma
EDGE_DELTA = 0.5
# spiral crossings are checked against this many ladder rungs, the k_max of
# the workload's predict commands, so their ladder is reused
SPIRAL_LADDER_K = 8


@dataclass(frozen=True)
class Command:
    """One CLI invocation: subcommand, its flags, and its --out prefix."""

    kind: str
    opts: dict[str, Any]
    out: str

    def argv(self, threads: int) -> list[str]:
        args = [self.kind]
        for key, value in self.opts.items():
            flag = "--" + key.replace("_", "-")
            if value is True:
                args.append(flag)
            elif value is False:
                args.append("--no-" + flag[2:])
            else:
                args += [flag, str(value)]
        return args + ["--threads", str(threads), "--out", self.out]


def _path(workdir: Path, cmd: Command, suffix: str) -> Path:
    return workdir / (cmd.out + suffix)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text: str) -> float:
    return math.nan if text == "" else float(text)


def _weights(n: int, alpha: float, deterministic: bool, seed: int) -> np.ndarray:
    """Fitness weights as the model defines them, sorted descending.

    iid draws use the model's fitness stream: Philox seeded by
    SeedSequence(seed, spawn_key=(0,)).
    """
    if deterministic:
        return (n / np.arange(1, n + 1, dtype=float)) ** (1.0 / alpha)
    stream = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0,))))
    return np.sort(stream.random(n) ** (-1.0 / alpha))[::-1]


def _kernel(x: np.ndarray, alpha: float, rows: slice = slice(None)) -> np.ndarray:
    """Rows of P_ij = 1 - exp(-n^(-1/alpha) x_i x_j) with P_ii = 0."""
    eps = float(x.size) ** (-1.0 / alpha)
    p = -np.expm1(-eps * np.outer(x[rows], x))
    start = rows.start or 0
    idx = np.arange(p.shape[0])
    p[idx, idx + start] = 0.0
    return p


@dataclass
class Checker:
    """Checks outputs; caches reference ladders and noise profiles per run.

    run_reference(command) must run a CLI command and return its exit code
    and the directory it wrote to; it is called only for a `predict`
    ladder that no checked command has supplied yet.
    """

    run_reference: Callable[[Command], tuple[int, Path]]
    ladders: dict[tuple[int, float, int], list[dict[str, float]]] = field(default_factory=dict)
    sigmas: dict[tuple[int, float], float] = field(default_factory=dict)

    def check(self, cmd: Command, exit_code: int, workdir: Path) -> list[str]:
        """Problems with the outputs `cmd` wrote to workdir; empty if none."""
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        try:
            return getattr(self, "_check_" + cmd.kind)(cmd, workdir)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    # -- predict ladder ------------------------------------------------

    def _ladder_rows(self, rows: list[dict[str, Any]], k_max: int) -> list[str]:
        problems = []
        if [int(r["k"]) for r in rows] != list(range(1, k_max + 1)):
            problems.append(f"ladder rows {[r['k'] for r in rows]} are not k = 1..{k_max}")
        for r in rows:
            res = r["residual"]
            if res is None or not abs(float(res)) < ROOT_RESIDUAL_MAX:
                problems.append(f"k={r['k']}: root residual {res} not below {ROOT_RESIDUAL_MAX}")
        return problems

    def _remember(self, cmd: Command, rows: list[dict[str, Any]]) -> None:
        key = (cmd.opts["n"], cmd.opts["alpha"], cmd.opts["k_max"])
        self.ladders[key] = [
            {"k": int(r["k"]), "omega_k": float(r["omega_k"]), "lambda_k": float(r["lambda_k"])}
            for r in rows
        ]

    def _check_predict(self, cmd: Command, workdir: Path) -> list[str]:
        if cmd.opts.get("format") == "json":
            doc = json.loads(_path(workdir, cmd, ".json").read_text())
            rows = doc["predictions"]
            problems = [] if doc["truncated"] is False else ["ladder truncated"]
        else:
            rows = _read_csv(_path(workdir, cmd, ".csv"))
            for r in rows:
                r["residual"] = _num(r["residual"])
            problems = []
        problems += self._ladder_rows(rows, cmd.opts["k_max"])
        if not problems:
            self._remember(cmd, rows)
        return problems

    def ladder(self, n: int, alpha: float, k_max: int) -> list[dict[str, float]]:
        """The predict ladder for (n, alpha), running `predict` if needed."""
        key = (n, alpha, k_max)
        if key not in self.ladders:
            ref = Command("predict", {"alpha": alpha, "n": n, "k_max": k_max}, f"ladder{n}")
            problems = self.check(ref, *self.run_reference(ref))
            if problems:
                raise ValueError(f"reference ladder failed: {problems}")
        return self.ladders[key]

    # -- compare -------------------------------------------------------

    def _check_compare(self, cmd: Command, workdir: Path) -> list[str]:
        o = cmd.opts
        n, alpha, k_max = o["n"], o["alpha"], o["k_max"]
        report = _read_csv(_path(workdir, cmd, "_report.csv"))
        json.loads(_path(workdir, cmd, "_report.json").read_text())
        problems = []
        if [int(r["k"]) for r in report] != list(range(1, k_max + 1)):
            return [f"report rows are not k = 1..{k_max}"]

        for r, ref in zip(report, self.ladder(n, alpha, k_max)):
            pred, want = _num(r["lambda_pred"]), ref["lambda_k"]
            if not abs(pred - want) <= LADDER_REL_TOL * abs(want):
                problems.append(f"k={r['k']}: lambda_pred {pred} != predict ladder {want}")

        vec = np.full((n, k_max), np.nan)
        for r in _read_csv(_path(workdir, cmd, "_eigenvectors.csv")):
            vec[int(r["j"]) - 1, int(r["k"]) - 1] = float(r["numerical_P"])
        if not np.all(np.isfinite(vec)):
            return problems + ["eigenvector table incomplete or non-finite"]
        vec /= np.linalg.norm(vec, axis=0)
        P = _kernel(_weights(n, alpha, o["deterministic"], o["seed"]), alpha)
        lam = np.array([_num(r["lambda_P"]) for r in report])
        resid = np.linalg.norm(P @ vec - vec * lam, axis=0)
        tol = EIG_RESIDUAL_FACTOR * (np.linalg.norm(P, "fro") / math.sqrt(n) + np.abs(lam))
        for k in np.flatnonzero(~(resid <= tol)):
            problems.append(f"k={k + 1}: ||Pv - lv|| = {resid[k]:.3g} exceeds {tol[k]:.3g}")

        hist = _read_csv(_path(workdir, cmd, "_hist.csv"))
        for kind in ("expected_P", "adjacency_A"):
            total = sum(int(h["count"]) for h in hist if h["source_kind"] == kind)
            if total != n:
                problems.append(f"{kind} histogram holds {total} eigenvalues, not {n}")
        return problems

    # -- bulk ----------------------------------------------------------

    def sigma(self, n: int, alpha: float) -> float:
        """max_i sqrt(sum_j p_ij (1 - p_ij)) for the deterministic weights."""
        key = (n, alpha)
        if key not in self.sigmas:
            x = _weights(n, alpha, True, 0)
            best = 0.0
            for start in range(0, n, 512):
                p = _kernel(x, alpha, slice(start, min(start + 512, n)))
                best = max(best, float((p * (1.0 - p)).sum(axis=1).max()))
            self.sigmas[key] = math.sqrt(best)
        return self.sigmas[key]

    def _check_bulk(self, cmd: Command, workdir: Path) -> list[str]:
        o = cmd.opts
        n, alpha, points = o["n"], o["alpha"], o["grid_points"]
        problems = []
        grids = json.loads(_path(workdir, cmd, "_convergence.json").read_text())["grids"]
        if len(grids) != 1:
            problems.append(f"{len(grids)} convergence records, expected 1")
        for g in grids:
            if not (g["all_converged"] is True and g["converged_points"] == g["grid_points"] == points):
                problems.append(f"grid converged {g['converged_points']}/{points} points")

        density = list(workdir.glob(cmd.out + "_density_*.csv"))
        if len(density) != 1:
            return problems + [f"{len(density)} density files, expected 1"]
        rho = np.array([_num(r["rho_H"]) for r in _read_csv(density[0])])
        if rho.size != points or not np.all(rho >= 0.0):
            problems.append(f"density has {rho.size} points, min {rho.min() if rho.size else None}")

        sweep = _read_csv(_path(workdir, cmd, "_edge_sweep.csv"))
        if len(sweep) != 1:
            return problems + [f"{len(sweep)} edge-sweep rows, expected 1"]
        edge = _num(sweep[0]["mean_edge"])
        crude = math.sqrt(n) / 2.0 + math.sqrt(math.log(n)) / 4.0
        if not math.isclose(_num(sweep[0]["crude_bound"]), crude, rel_tol=1e-12):
            problems.append(f"crude bound {sweep[0]['crude_bound']} != {crude}")
        low = math.sqrt(1.0 - EDGE_DELTA) * self.sigma(n, alpha)
        if not low <= edge <= crude:
            problems.append(f"mean edge {edge} outside [{low}, {crude}]")
        return problems

    # -- spiral and coarsegrain -----------------------------------------

    def _check_spiral(self, cmd: Command, workdir: Path) -> list[str]:
        o = cmd.opts
        problems = []
        locus = _read_csv(_path(workdir, cmd, "_spiral.csv"))
        if len(locus) != 2 * o["steps"]:
            problems.append(f"locus has {len(locus)} rows, expected {2 * o['steps']}")
        rows = _read_csv(_path(workdir, cmd, "_spiral_crossings.csv"))
        crossings = {int(r["k"]): float(r["omega"]) for r in rows}
        for ref in self.ladder(o["n"], o["alpha"], SPIRAL_LADDER_K):
            k, want = ref["k"], ref["omega_k"]
            if k < 2 or want >= o["omega_max"]:
                continue
            got = crossings.get(k)
            if got is None or not abs(got - want) <= CROSSING_TOL:
                problems.append(f"k={k}: crossing {got} != predict omega_k {want}")
        return problems

    def _check_coarsegrain(self, cmd: Command, workdir: Path) -> list[str]:
        report = json.loads(_path(workdir, cmd, ".json").read_text())["report"]
        problems = []
        if report["passed"] is not True:
            problems.append("coarsegrain did not report passed")
        if not report["max_identity_violation"] < COARSE_VIOLATION_MAX:
            problems.append(f"identity violation {report['max_identity_violation']}")
        if report["supernodes"] != cmd.opts["n"] // cmd.opts["b"]:
            problems.append(f"{report['supernodes']} supernodes")
        return problems
