"""Command-line front end tying the modules into reproducible runs.

Every command is pure given its resolved configuration: the same flags
and seed produce byte-identical outputs. A JSON config file can supply
any long-form flag value; explicit flags win over the file. The only
environment variable honored is MSMLAB_THREADS (same meaning as
--threads), which caps the BLAS worker pool and must therefore be
applied before the numerical modules are imported — keep heavy imports
inside the command handlers.

Exit codes: 0 success, 2 usage error, 3 numerical non-convergence,
4 no-root truncation (partial output is still written).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Sequence

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NON_CONVERGENCE = 3
EXIT_TRUNCATED = 4

# largest n allowed without the --paper-scale acknowledgment; dense
# decompositions beyond this take minutes, not seconds
CI_SCALE_LIMIT = 4096


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _alpha_value(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"alpha must lie in (0,1), got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msmlab",
        description="Spectra of rank-heavy random graphs: predictions, "
        "dense comparisons, and bulk diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seed: bool = True) -> None:
        p.add_argument("--config", type=Path, help="JSON file supplying flag defaults")
        p.add_argument("--out", type=Path, help="output path prefix")
        p.add_argument("--threads", type=int, help="cap the BLAS worker pool")
        if seed:
            p.add_argument("--seed", type=int)

    p = sub.add_parser("predict", help="analytic eigenvalue ladder")
    common(p, seed=False)
    p.add_argument("--alpha", type=_alpha_value)
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--k-max", type=_positive_int)
    p.add_argument("--format", choices=("csv", "json"))

    p = sub.add_parser("compare", help="predictions vs dense spectra of P and A")
    common(p)
    p.add_argument("--alpha", type=_alpha_value)
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--k-max", type=_positive_int)
    p.add_argument("--deterministic", action=argparse.BooleanOptionalAction)
    p.add_argument("--bins", type=_positive_int, help="histogram bin count")
    p.add_argument("--paper-scale", action=argparse.BooleanOptionalAction)

    p = sub.add_parser("spiral", help="eigenvalue locus and real-axis crossings")
    common(p, seed=False)
    p.add_argument("--alpha", type=_alpha_value)
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--omega-max", type=float)
    p.add_argument("--steps", type=_positive_int)

    p = sub.add_parser("bulk", help="noise-edge sweep and cavity densities")
    common(p)
    p.add_argument("--alpha", type=_alpha_value, nargs="+")
    p.add_argument("--n", type=_positive_int, nargs="+")
    p.add_argument("--realizations", type=_positive_int)
    p.add_argument("--eta", type=float)
    p.add_argument("--density", action=argparse.BooleanOptionalAction)
    p.add_argument("--grid-points", type=_positive_int)
    p.add_argument("--grid-span", type=float)
    p.add_argument("--damping", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--paper-scale", action=argparse.BooleanOptionalAction)

    p = sub.add_parser("coarsegrain", help="supernode aggregation identity check")
    common(p)
    p.add_argument("--alpha", type=_alpha_value)
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--b", type=_positive_int, help="block size, must divide n")
    p.add_argument("--partition", choices=("contiguous", "random"))

    return parser


def _resolve(args: argparse.Namespace, defaults: dict[str, Any]) -> dict[str, Any]:
    """Flag value if given, else config-file value, else hard default."""
    config: dict[str, Any] = {}
    if getattr(args, "config", None) is not None:
        config = json.loads(Path(args.config).read_text())
        unknown = set(config) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for key, default in defaults.items():
        value = getattr(args, key, None)
        if value is None:
            value = config.get(key, default)
        resolved[key] = value
    return resolved


def _apply_threads(threads: int | None) -> None:
    if threads is None and os.environ.get("MSMLAB_THREADS"):
        threads = int(os.environ["MSMLAB_THREADS"])
    if threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(max(1, threads))


def _usage(message: str) -> int:
    print(f"msmlab: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def cmd_predict(args: argparse.Namespace) -> int:
    cfg = _resolve(
        args,
        {"alpha": 0.5, "n": 10_000, "k_max": 8, "format": "csv", "out": None, "threads": None},
    )
    _apply_threads(cfg["threads"])
    from .output import csv_lines, json_document, write_csv, write_json
    from .spectrum import NoRootError, omega_k_approx, solve_omega_k

    rows = []
    truncated = False
    for k in range(1, cfg["k_max"] + 1):
        try:
            pred = solve_omega_k(k, cfg["n"], cfg["alpha"])
        except NoRootError:
            truncated = True
            break
        approx = math.nan if k < 2 else omega_k_approx(k, cfg["n"], cfg["alpha"])
        rows.append((k, pred.omega_k, approx, pred.lambda_k, pred.method, pred.residual))

    header = ("k", "omega_k", "omega_k_approx", "lambda_k", "method", "residual")
    config = {k: v for k, v in cfg.items() if k not in ("out", "threads")}
    config["out"] = None if cfg["out"] is None else str(cfg["out"])
    if cfg["format"] == "json":
        table = [dict(zip(header, row)) for row in rows]
        if cfg["out"] is None:
            print(json_document(config, predictions=table, truncated=truncated), end="")
        else:
            write_json(
                Path(cfg["out"]).with_suffix(".json"),
                config,
                predictions=table,
                truncated=truncated,
            )
    else:
        if cfg["out"] is None:
            print(csv_lines(header, rows), end="")
        else:
            write_csv(Path(cfg["out"]).with_suffix(".csv"), header, rows)
    return EXIT_TRUNCATED if truncated else EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _resolve(
        args,
        {
            "alpha": 0.5,
            "n": 2048,
            "seed": 0,
            "k_max": 8,
            "deterministic": True,
            "bins": 64,
            "paper_scale": False,
            "out": None,
            "threads": None,
        },
    )
    if cfg["out"] is None:
        return _usage("compare writes several files; --out is required")
    if cfg["n"] > CI_SCALE_LIMIT and not cfg["paper_scale"]:
        return _usage(
            f"n={cfg['n']} exceeds the desk-scale limit {CI_SCALE_LIMIT}; "
            "pass --paper-scale to acknowledge the runtime"
        )
    _apply_threads(cfg["threads"])
    import numpy as np

    from .eigenvectors import l1_normalize
    from .model import ModelParams
    from .numeric import compare_with_vectors
    from .output import write_csv, write_json

    params = ModelParams(
        n=cfg["n"],
        alpha=cfg["alpha"],
        seed=cfg["seed"],
        weight_mode="deterministic" if cfg["deterministic"] else "iid_pareto",
    )
    report, artifacts = compare_with_vectors(params, cfg["k_max"])

    base = Path(cfg["out"])
    config = {k: (str(v) if isinstance(v, Path) else v) for k, v in cfg.items() if k != "threads"}
    header = (
        "k",
        "lambda_pred",
        "lambda_P",
        "lambda_A",
        "rel_err_pred_vs_P",
        "rel_err_P_vs_A",
        "cosine_sim_pred_vs_P",
        "cosine_sim_P_vs_A",
        "sign_ok",
    )
    rows = [
        (
            r.k,
            r.lambda_pred,
            r.lambda_P,
            r.lambda_A,
            r.rel_err_pred_vs_P,
            r.rel_err_P_vs_A,
            r.cosine_sim_pred_vs_P,
            r.cosine_sim_P_vs_A,
            r.sign_ok,
        )
        for r in report.rows
    ]
    write_csv(base.parent / (base.name + "_report.csv"), header, rows)
    write_json(
        base.parent / (base.name + "_report.json"),
        config,
        rows=[dict(zip(header, row)) for row in rows],
        bulk_edge_measured=report.bulk_edge_measured,
        k_break=report.k_break,
        pred_truncated_at=report.pred_truncated_at,
    )

    # eigenvector table: all three columns l1-normalized, numerical signs
    # aligned to the prediction where one exists
    vec_rows = []
    for m in artifacts.vectors:
        v_p = l1_normalize(m.numerical_P)
        v_a = l1_normalize(m.numerical_A)
        if m.predicted is not None:
            pred = l1_normalize(m.predicted)
            if float(pred @ v_p) < 0.0:
                v_p = -v_p
            if float(pred @ v_a) < 0.0:
                v_a = -v_a
        for j in range(params.n):
            vec_rows.append(
                (
                    m.k,
                    j + 1,
                    None if m.predicted is None else pred[j],
                    v_p[j],
                    v_a[j],
                )
            )
    write_csv(
        base.parent / (base.name + "_eigenvectors.csv"),
        ("k", "j", "predicted", "numerical_P", "numerical_A"),
        vec_rows,
    )

    lo = min(artifacts.eigenvalues_P.min(), artifacts.eigenvalues_A.min())
    hi = max(artifacts.eigenvalues_P.max(), artifacts.eigenvalues_A.max())
    edges = np.linspace(lo, hi, cfg["bins"] + 1)
    hist_rows = []
    for kind, vals in (("expected_P", artifacts.eigenvalues_P), ("adjacency_A", artifacts.eigenvalues_A)):
        counts, _ = np.histogram(vals, bins=edges)
        for b in range(cfg["bins"]):
            hist_rows.append((edges[b], edges[b + 1], int(counts[b]), kind))
    write_csv(
        base.parent / (base.name + "_hist.csv"),
        ("bin_left", "bin_right", "count", "source_kind"),
        hist_rows,
    )
    return EXIT_TRUNCATED if report.pred_truncated_at is not None else EXIT_OK


def cmd_spiral(args: argparse.Namespace) -> int:
    cfg = _resolve(
        args,
        {
            "alpha": 0.5,
            "n": 10_000,
            "omega_max": 1.0,
            "steps": 2000,
            "out": None,
            "threads": None,
        },
    )
    if cfg["out"] is None:
        return _usage("spiral writes two files; --out is required")
    _apply_threads(cfg["threads"])
    from .output import write_csv
    from .spectrum import lambda_k_from_omega, spiral, spiral_crossings

    base = Path(cfg["out"])
    locus_rows = []
    for branch in ("plus", "minus"):
        locus = spiral(cfg["alpha"], cfg["n"], cfg["omega_max"], cfg["steps"], branch=branch)
        for omega, re, im in locus.samples:
            locus_rows.append((omega, re, im, branch))
    write_csv(base.parent / (base.name + "_spiral.csv"), ("omega", "re", "im", "branch"), locus_rows)

    crossings = spiral_crossings(cfg["alpha"], cfg["n"], cfg["omega_max"], cfg["steps"])
    cross_rows = []
    for i, omega in enumerate(crossings):
        k = i + 2  # the k = 1 crossing sits at omega = 0, outside the scan
        cross_rows.append((k, omega, lambda_k_from_omega(k, omega, cfg["n"], cfg["alpha"])))
    write_csv(
        base.parent / (base.name + "_spiral_crossings.csv"),
        ("k", "omega", "lambda"),
        cross_rows,
    )
    return EXIT_OK


def cmd_bulk(args: argparse.Namespace) -> int:
    cfg = _resolve(
        args,
        {
            "alpha": [0.2, 0.5, 0.8],
            "n": [512, 1024, 2048],
            "realizations": 10,
            "seed": 0,
            "eta": 0.05,
            "density": False,
            "grid_points": 61,
            "grid_span": 0.75,
            "damping": 0.5,
            "tol": 1e-9,
            "paper_scale": False,
            "out": None,
            "threads": None,
        },
    )
    if cfg["out"] is None:
        return _usage("bulk writes sweep files; --out is required")
    biggest = max(cfg["n"])
    if biggest > CI_SCALE_LIMIT and not cfg["paper_scale"]:
        return _usage(
            f"n={biggest} exceeds the desk-scale limit {CI_SCALE_LIMIT}; "
            "pass --paper-scale to acknowledge the runtime"
        )
    _apply_threads(cfg["threads"])
    import numpy as np

    from .bulk import cavity_solve, measure_bulk_edge
    from .model import ModelParams, gen_fitness
    from .output import write_csv, write_json

    base = Path(cfg["out"])
    config = {k: (str(v) if isinstance(v, Path) else v) for k, v in cfg.items() if k != "threads"}
    sweep_rows = []
    convergence: list[dict[str, Any]] = []
    all_converged = True
    for n in cfg["n"]:
        for alpha in cfg["alpha"]:
            params = ModelParams(n=n, alpha=alpha, seed=cfg["seed"])
            mean, stderr = measure_bulk_edge(params, cfg["realizations"])
            crude = math.sqrt(n) / 2 + math.sqrt(math.log(n)) / 4
            sweep_rows.append((n, alpha, mean, stderr, crude))
            if cfg["density"]:
                grid = np.linspace(-cfg["grid_span"], cfg["grid_span"], cfg["grid_points"])
                sol = cavity_solve(
                    gen_fitness(params),
                    params.epsilon_n,
                    grid,
                    eta=cfg["eta"],
                    damping=cfg["damping"],
                    tol=cfg["tol"],
                )
                name = f"_density_n{n}_a{alpha}.csv"
                write_csv(
                    base.parent / (base.name + name),
                    ("lambda", "rho_H"),
                    zip(sol.z_grid.real, sol.density),
                )
                ok = bool(sol.converged.all())
                all_converged = all_converged and ok
                convergence.append(
                    {
                        "n": n,
                        "alpha": alpha,
                        "converged_points": int(sol.converged.sum()),
                        "grid_points": int(sol.converged.size),
                        "max_iterations": int(sol.iterations.max()),
                        "all_converged": ok,
                    }
                )
    write_csv(
        base.parent / (base.name + "_edge_sweep.csv"),
        ("n", "alpha", "mean_edge", "stderr", "crude_bound"),
        sweep_rows,
    )
    if cfg["density"]:
        write_json(base.parent / (base.name + "_convergence.json"), config, grids=convergence)
        if not all_converged:
            return EXIT_NON_CONVERGENCE
    return EXIT_OK


def cmd_coarsegrain(args: argparse.Namespace) -> int:
    cfg = _resolve(
        args,
        {
            "alpha": 0.5,
            "n": 100,
            "b": 10,
            "partition": "contiguous",
            "seed": 0,
            "out": None,
            "threads": None,
        },
    )
    if cfg["n"] % cfg["b"] != 0:
        return _usage(f"block size {cfg['b']} does not divide n = {cfg['n']}")
    _apply_threads(cfg["threads"])
    import numpy as np

    from .model import ModelParams, coarse_grain, gen_fitness
    from .output import json_document, write_json

    params = ModelParams(n=cfg["n"], alpha=cfg["alpha"], seed=cfg["seed"])
    fv = gen_fitness(params)
    big_x, coarse = coarse_grain(
        fv, params.epsilon_n, cfg["b"], partition=cfg["partition"], seed=cfg["seed"]
    )
    closed = -np.expm1(-params.epsilon_n * np.outer(big_x.x, big_x.x))
    off = ~np.eye(coarse.n, dtype=bool)
    violation = float(np.abs(coarse.entries - closed)[off].max()) if coarse.n > 1 else 0.0
    config = {k: (str(v) if isinstance(v, Path) else v) for k, v in cfg.items() if k != "threads"}
    payload = {
        "supernodes": coarse.n,
        "max_identity_violation": violation,
        "passed": violation < 1e-12,
    }
    if cfg["out"] is None:
        print(json_document(config, report=payload), end="")
    else:
        write_json(Path(cfg["out"]).with_suffix(".json"), config, report=payload)
    return EXIT_OK if violation < 1e-12 else EXIT_NON_CONVERGENCE


_HANDLERS = {
    "predict": cmd_predict,
    "compare": cmd_compare,
    "spiral": cmd_spiral,
    "bulk": cmd_bulk,
    "coarsegrain": cmd_coarsegrain,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors by exiting
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        return _usage(str(exc))
    except RuntimeError as exc:
        # Imported here, not at the top: --threads must act before numpy loads.
        from scipy.sparse.linalg import ArpackNoConvergence

        if not isinstance(exc, ArpackNoConvergence):
            raise
        print(f"msmlab: error: {exc}", file=sys.stderr)
        return EXIT_NON_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
