"""Command-line front end tying the modules into reproducible runs.

_COMMANDS declares each subcommand once: its help text, its handler, the
files that make --out required, and a (key, converter, default) row per
option. The parser, the config-file reader and the defaults all come
from those rows. A JSON --config file may set any option by its key;
its values go through the flag's converter, so a value the flag rejects
exits 2. Explicit flags win over the file, the file over the defaults.

Every command is pure given its resolved configuration and the BLAS
thread count. The only environment variable honored is MSMLAB_THREADS
(same meaning as --threads), which caps the BLAS worker pool and must
therefore be applied before the numerical modules are imported — keep
heavy imports inside the command handlers.

Exit codes: 0 success, 2 usage error or a failed allocation, 3 numerical
non-convergence, 4 no-root truncation (partial output is still written).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, NoReturn, Sequence

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NON_CONVERGENCE = 3
EXIT_TRUNCATED = 4

# largest n allowed without the --paper-scale acknowledgment; beyond it
# compare's dense spectra take over a minute (at 2 BLAS threads on 2
# cores, n = 4096: 5.1 s and 346 MB peak RSS; n = 10^4: 67 s and 1.6 GB,
# one n x n matrix and eigvalsh's copy of it held at a time), and bulk's
# adjacency sampling, which tests all n(n-1)/2 pairs, grows quadratically
CI_SCALE_LIMIT = 4096

# largest |closed form - aggregated kernel| that coarsegrain accepts
_IDENTITY_TOL = 1e-12


def _number(kind: Callable[[str], Any], text: str) -> Any:
    """int(text) or float(text), with text that is no number reported as for a plain option."""
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _number(int, text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed_value(text: str) -> int:
    value = _number(int, text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = _number(float, text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _above_zero(key: str) -> Callable[[str], float]:
    """_finite_float that also rejects values <= 0, worded as the solvers word it."""

    def convert(text: str) -> float:
        value = _finite_float(text)
        if not value > 0.0:
            raise argparse.ArgumentTypeError(f"{key} must be > 0, got {value}")
        return value

    return convert


def _damping_value(text: str) -> float:
    value = _finite_float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"damping must lie in (0,1], got {value}")
    return value


def _alpha_value(text: str) -> float:
    value = _number(float, text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"alpha must lie in (0,1), got {value}")
    return value


def _out_prefix(text: str) -> Path:
    """The --out prefix, whose last component the output file names extend."""
    if os.path.basename(text) in ("", ".", ".."):
        raise argparse.ArgumentTypeError(f"must end in a file name prefix, got {text!r}")
    return Path(text)


def _apply_threads(threads: int | None) -> None:
    if threads is None and os.environ.get("MSMLAB_THREADS"):
        try:
            threads = _positive_int(os.environ["MSMLAB_THREADS"])
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"environment variable MSMLAB_THREADS: {exc}") from None
    if threads is not None:
        # more BLAS workers than cores only oversubscribe them
        threads = min(threads, os.cpu_count() or threads)
        blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        if "numpy" in sys.modules and any(os.environ.get(var) != str(threads) for var in blas_vars):
            print(
                f"msmlab: warning: numpy is already loaded, so the BLAS pool keeps its size, not {threads} threads",
                file=sys.stderr,
            )
        for var in blas_vars:
            os.environ[var] = str(threads)


def _usage(message: str) -> int:
    print(f"msmlab: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _out_file(cfg: dict[str, Any], suffix: str) -> Path:
    """The --out prefix with suffix appended to its last component, dots and all."""
    base = Path(cfg["out"])
    return base.parent / (base.name + suffix)


def cmd_predict(cfg: dict[str, Any]) -> int:
    from .output import csv_lines, json_document
    from .spectrum import ladder, omega_k_approx

    n, alpha = cfg["n"], cfg["alpha"]
    preds = ladder(cfg["k_max"], n, alpha)
    truncated = len(preds) < cfg["k_max"]
    # every rung is a solved root, which the constant method column records
    rows = [
        (p.k, p.omega_k, omega_k_approx(p.k, n, alpha) if p.k > 1 else math.nan, p.lambda_k, "exact_root", p.residual)
        for p in preds
    ]

    header = ("k", "omega_k", "omega_k_approx", "lambda_k", "method", "residual")
    if cfg["format"] == "json":
        table = [dict(zip(header, row)) for row in rows]
        text = json_document(cfg, predictions=table, truncated=truncated)
    else:
        text = csv_lines(header, rows)
    if cfg["out"] is None:
        print(text, end="")
    else:
        _out_file(cfg, "." + cfg["format"]).write_text(text, newline="")
    return EXIT_TRUNCATED if truncated else EXIT_OK


def cmd_compare(cfg: dict[str, Any]) -> int:
    import numpy as np

    from .eigenvectors import l1_normalize
    from .model import ModelParams
    from .numeric import ComparisonRow, compare
    from .output import write_csv, write_json

    params = ModelParams(
        n=cfg["n"],
        alpha=cfg["alpha"],
        seed=cfg["seed"],
        weight_mode="deterministic" if cfg["deterministic"] else "iid_pareto",
    )
    report = compare(params, cfg["k_max"])

    header = tuple(f.name for f in dataclasses.fields(ComparisonRow))
    rows = [dataclasses.astuple(r) for r in report.rows]
    write_csv(_out_file(cfg, "_report.csv"), header, rows)
    write_json(
        _out_file(cfg, "_report.json"),
        cfg,
        rows=[dict(zip(header, row)) for row in rows],
        bulk_edge_measured=report.bulk_edge_measured,
        k_break=report.k_break,
        pred_truncated_at=report.pred_truncated_at,
    )

    # eigenvector table: all three columns l1-normalized, numerical signs
    # aligned to the prediction where one exists
    vec_rows = []
    for i, row in enumerate(report.rows):
        v_p = l1_normalize(report.vectors_P[i])
        v_a = l1_normalize(report.vectors_A[i])
        pred = [None] * params.n
        if i < len(report.vectors_pred):
            pred = l1_normalize(report.vectors_pred[i])
            if float(pred @ v_p) < 0.0:
                v_p = -v_p
            if float(pred @ v_a) < 0.0:
                v_a = -v_a
        vec_rows.extend((row.k, j + 1, pred[j], v_p[j], v_a[j]) for j in range(params.n))
    write_csv(
        _out_file(cfg, "_eigenvectors.csv"),
        ("k", "j", "predicted", "numerical_P", "numerical_A"),
        vec_rows,
    )

    lo = min(report.eigenvalues_P.min(), report.eigenvalues_A.min())
    hi = max(report.eigenvalues_P.max(), report.eigenvalues_A.max())
    edges = np.linspace(lo, hi, cfg["bins"] + 1)
    hist_rows = []
    for kind, vals in (("expected_P", report.eigenvalues_P), ("adjacency_A", report.eigenvalues_A)):
        counts, _ = np.histogram(vals, bins=edges)
        for b in range(cfg["bins"]):
            hist_rows.append((edges[b], edges[b + 1], int(counts[b]), kind))
    write_csv(
        _out_file(cfg, "_hist.csv"),
        ("bin_left", "bin_right", "count", "source_kind"),
        hist_rows,
    )
    return EXIT_TRUNCATED if report.pred_truncated_at is not None else EXIT_OK


def cmd_spiral(cfg: dict[str, Any]) -> int:
    from .output import write_csv
    from .spectrum import lambda_k_from_omega, spiral, spiral_crossings

    # the minus branch is the plus branch's complex conjugate
    locus = spiral(cfg["alpha"], cfg["n"], cfg["omega_max"], cfg["steps"])
    locus_rows = [(omega, re, im, "plus") for omega, re, im in locus]
    locus_rows += [(omega, re, -im, "minus") for omega, re, im in locus]
    write_csv(_out_file(cfg, "_spiral.csv"), ("omega", "re", "im", "branch"), locus_rows)

    crossings = spiral_crossings(cfg["alpha"], cfg["n"], locus)
    cross_rows = []
    for i, omega in enumerate(crossings):
        k = i + 2  # the k = 1 crossing sits at omega = 0, outside the scan
        cross_rows.append((k, omega, lambda_k_from_omega(k, omega, cfg["n"], cfg["alpha"])))
    write_csv(
        _out_file(cfg, "_spiral_crossings.csv"),
        ("k", "omega", "lambda"),
        cross_rows,
    )
    return EXIT_OK


def cmd_bulk(cfg: dict[str, Any]) -> int:
    import numpy as np

    from .bulk import cavity_solve, measure_bulk_edge
    from .model import KernelOperator, ModelParams, gen_fitness
    from .output import write_csv, write_json

    sweep_rows = []
    convergence: list[dict[str, Any]] = []
    all_converged = True
    for n in cfg["n"]:
        for alpha in cfg["alpha"]:
            params = ModelParams(n=n, alpha=alpha, seed=cfg["seed"])
            P = KernelOperator(gen_fitness(params), params.epsilon_n)
            mean, stderr = measure_bulk_edge(P, cfg["realizations"], params.seed)
            crude = math.sqrt(n) / 2 + math.sqrt(math.log(n)) / 4
            sweep_rows.append((n, alpha, mean, stderr, crude))
            if cfg["density"]:
                grid = np.linspace(-cfg["grid_span"], cfg["grid_span"], cfg["grid_points"])
                sol = cavity_solve(P, grid, eta=cfg["eta"], damping=cfg["damping"], tol=cfg["tol"])
                write_csv(
                    _out_file(cfg, f"_density_n{n}_a{alpha}.csv"),
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
        _out_file(cfg, "_edge_sweep.csv"),
        ("n", "alpha", "mean_edge", "stderr", "crude_bound"),
        sweep_rows,
    )
    if cfg["density"]:
        write_json(_out_file(cfg, "_convergence.json"), cfg, grids=convergence)
        if not all_converged:
            return EXIT_NON_CONVERGENCE
    return EXIT_OK


def cmd_coarsegrain(cfg: dict[str, Any]) -> int:
    import numpy as np

    from .model import ModelParams, coarse_grain, expected_matrix, gen_fitness
    from .output import json_document

    params = ModelParams(n=cfg["n"], alpha=cfg["alpha"], seed=cfg["seed"])
    fv = gen_fitness(params)
    # coarse_grain rejects a block size that does not divide n (exit 2)
    big_x, coarse = coarse_grain(
        fv, params.epsilon_n, cfg["b"], partition=cfg["partition"], seed=cfg["seed"]
    )
    closed = expected_matrix(big_x, params.epsilon_n).entries
    # both diagonals are exactly 0, so they cannot raise the maximum
    violation = float(np.abs(coarse.entries - closed).max())
    passed = violation < _IDENTITY_TOL
    text = json_document(
        cfg, report={"supernodes": coarse.n, "max_identity_violation": violation, "passed": passed}
    )
    if cfg["out"] is None:
        print(text, end="")
    else:
        _out_file(cfg, ".json").write_text(text)
    return EXIT_OK if passed else EXIT_NON_CONVERGENCE


@dataclasses.dataclass(frozen=True)
class _Command:
    """A subcommand; `writes` names its files when --out is required.

    Each option is a row (key, converter, default[, help]). A tuple
    converter lists the accepted strings, a list default takes one or
    more values, and a bool default makes a --key/--no-key pair.
    """

    help: str
    handler: Callable[[dict[str, Any]], int]
    writes: str | None
    options: tuple[tuple[Any, ...], ...]


# every command takes these, from a flag or from a config file
_COMMON = (("out", _out_prefix, None, "output path prefix"), ("threads", _positive_int, None, "cap the BLAS worker pool"))
# rows several commands share
_SEED = ("seed", _seed_value, 0)
_ALPHA = ("alpha", _alpha_value, 0.5)
_K_MAX = ("k_max", _positive_int, 8)
_PAPER_SCALE = ("paper_scale", bool, False)

_COMMANDS = {
    "predict": _Command("analytic eigenvalue ladder", cmd_predict, None, (
        _ALPHA,
        ("n", _positive_int, 10_000),
        _K_MAX,
        ("format", ("csv", "json"), "csv"),
    )),
    "compare": _Command("predictions vs dense spectra of P and A", cmd_compare, "several files", (
        _SEED,
        _ALPHA,
        ("n", _positive_int, 2048),
        _K_MAX,
        ("deterministic", bool, True),
        ("bins", _positive_int, 64, "histogram bin count"),
        _PAPER_SCALE,
    )),
    "spiral": _Command("eigenvalue locus and real-axis crossings", cmd_spiral, "two files", (
        _ALPHA,
        ("n", _positive_int, 10_000),
        ("omega_max", _finite_float, 1.0),
        ("steps", _positive_int, 2000),
    )),
    "bulk": _Command("noise-edge sweep and cavity densities", cmd_bulk, "sweep files", (
        _SEED,
        ("alpha", _alpha_value, [0.2, 0.5, 0.8]),
        ("n", _positive_int, [512, 1024, 2048]),
        ("realizations", _positive_int, 10),
        ("eta", _above_zero("eta"), 0.05),
        ("density", bool, False),
        ("grid_points", _positive_int, 61),
        ("grid_span", _finite_float, 0.75),
        ("damping", _damping_value, 0.5, "cavity mixing parameter in (0, 1]"),
        ("tol", _above_zero("tol"), 1e-9),
        _PAPER_SCALE,
    )),
    "coarsegrain": _Command("supernode aggregation identity check", cmd_coarsegrain, None, (
        _SEED,
        _ALPHA,
        ("n", _positive_int, 100),
        ("b", _positive_int, 10, "block size, must divide n"),
        ("partition", ("contiguous", "random"), "contiguous"),
    )),
}


class _Parser(argparse.ArgumentParser):
    """Reports a rejected flag in the one-line format of every other usage error."""

    def error(self, message: str) -> NoReturn:
        sys.exit(_usage(message))


def _build_parser() -> argparse.ArgumentParser:
    # add_subparsers makes the subcommand parsers of the same class
    parser = _Parser(
        prog="msmlab",
        description="Spectra of rank-heavy random graphs: predictions, "
        "dense comparisons, and bulk diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", type=Path, help="JSON file supplying flag defaults")
        for key, convert, default, *help_text in _COMMON + command.options:
            kwargs: dict[str, Any] = {"help": help_text[0] if help_text else None}
            if isinstance(default, bool):
                kwargs["action"] = argparse.BooleanOptionalAction
            elif isinstance(convert, tuple):
                kwargs["choices"] = convert
            else:
                kwargs["type"] = convert
            if isinstance(default, list):
                kwargs["nargs"] = "+"
            p.add_argument("--" + key.replace("_", "-"), **kwargs)
    return parser


def _from_config(key: str, convert: Any, default: Any, value: Any) -> Any:
    """A config-file value, checked and converted as its flag would be."""
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ValueError(f"config key {key!r}: expected true or false, got {value!r}")
        return value
    if isinstance(default, list):
        values = value if isinstance(value, list) else [value]
        if not values:
            raise ValueError(f"config key {key!r}: expected one or more values")
        return [_from_config(key, convert, None, v) for v in values]
    text = str(value)  # the flag's converter is handed text too
    if isinstance(convert, tuple):
        if text not in convert:
            raise ValueError(f"config key {key!r}: expected one of {list(convert)}, got {value!r}")
        return text
    try:
        return convert(text)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None


def _resolve(args: argparse.Namespace, rows: tuple[tuple[Any, ...], ...]) -> dict[str, Any]:
    """Flag value if given, else config-file value, else the table default.

    A JSON null counts as absent, so a saved document whose "out" is
    null reads back as a run that prints to stdout.
    """
    config: dict[str, Any] = {}
    if args.config is not None:
        config = json.loads(args.config.read_text())
        if not isinstance(config, dict):
            raise ValueError(f"config file must hold a JSON object, got {type(config).__name__}")
        unknown = set(config) - {row[0] for row in rows}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for key, convert, default, *_ in rows:
        value = getattr(args, key)
        if value is None:
            value = config.get(key)
            value = default if value is None else _from_config(key, convert, default, value)
        resolved[key] = value
    return resolved


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors by exiting
        return int(exc.code or 0)
    command = _COMMANDS[args.command]
    try:
        cfg = _resolve(args, _COMMON + command.options)
        if command.writes is not None and cfg["out"] is None:
            return _usage(f"{args.command} writes {command.writes}; --out is required")
        if cfg["out"] is not None and not cfg["out"].parent.is_dir():
            return _usage(f"--out directory {cfg['out'].parent} does not exist")
        biggest = max(cfg["n"]) if isinstance(cfg["n"], list) else cfg["n"]
        if "paper_scale" in cfg and biggest > CI_SCALE_LIMIT and not cfg["paper_scale"]:
            return _usage(
                f"n={biggest} exceeds the desk-scale limit {CI_SCALE_LIMIT}; "
                "pass --paper-scale to acknowledge the runtime"
            )
        _apply_threads(cfg.pop("threads"))
        # the configuration documents record; threads is not in it, so a
        # document reproduces its run only at the same BLAS thread count
        return command.handler({k: (str(v) if isinstance(v, Path) else v) for k, v in cfg.items()})
    except (ValueError, OSError) as exc:
        return _usage(str(exc))
    except MemoryError as exc:
        # numpy names the array it could not allocate; a bare MemoryError says nothing
        return _usage(str(exc) or "out of memory")
    except RuntimeError as exc:
        # Imported here, not at the top: --threads must act before numpy loads.
        from scipy.sparse.linalg import ArpackNoConvergence

        if not isinstance(exc, ArpackNoConvergence):
            raise
        print(f"msmlab: error: {exc}", file=sys.stderr)
        return EXIT_NON_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
