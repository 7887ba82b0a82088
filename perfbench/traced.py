"""Run one msmlab CLI command with every public msmlab function timed.

    python traced.py SPANS_NPZ MODULES -- CLI_ARGS...

MODULES is a comma-separated list of the msmlab modules the command
loads; importing them is timed as the import phase. Every function named
in a loaded module's __all__ is then rebound, in every msmlab namespace
that holds it, to a wrapper that records a span (name, start, end, parent
index), and msmlab.cli.main(CLI_ARGS) runs as the root span "cli.main".
A few wrappers also record counts from the values the function returned;
the time those probes take is a span of its own ("trace.probe"), so it
never lands in a layer's self time.

The spans and counts are written to SPANS_NPZ when the command ends:
`spans` holds one row (name id, start, end, parent row) per span and
`meta` a JSON string with the span names, counts and phase times. The
process exits with the command's exit code. Start times come from
time.perf_counter, which on Linux is the system-wide monotonic clock, so
the caller can relate them to when it spawned this process.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

_T0 = time.perf_counter()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def wrap(self, name: str, fn, probe=None):
        spans, stack = self.spans, self.stack
        nid, probe_id = self.name_id(name), self.name_id("trace.probe")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if probe is not None:
                pstart = time.perf_counter()
                probe(self, result)
                spans.append((probe_id, pstart, time.perf_counter(), parent))
            return result

        return wrapper


def _probe_matrix(tracer: Tracer, matrix) -> None:
    tracer.count("model.dense_bytes", float(matrix.entries.nbytes))


def _probe_coarse_grain(tracer: Tracer, result) -> None:
    _probe_matrix(tracer, result[1])


def _probe_adjacency(tracer: Tracer, result) -> None:
    import numpy as np

    _probe_matrix(tracer, result)
    entries = result.entries
    tracer.count("model.adjacency_nonzeros", float(np.count_nonzero(entries)))
    tracer.count("model.adjacency_stored", float(entries.size))


def _probe_eig_sym(tracer: Tracer, result) -> None:
    if result.eigenvectors is not None:
        tracer.count("numeric.eigvecs_computed", float(result.eigenvectors.shape[1]))


def _probe_compare(tracer: Tracer, result) -> None:
    tracer.count("numeric.eigvecs_used", 2.0 * len(result[1].vectors))


def _probe_cavity(tracer: Tracer, result) -> None:
    sol = result[0] if isinstance(result, tuple) else result
    n = sol.g_per_node.shape[0]
    sweeps = float(sol.iterations.max())
    tracer.count("bulk.cavity_iterations", sweeps)
    tracer.count("bulk.cavity_points", float(sol.converged.size))
    tracer.count("bulk.cavity_converged", float(sol.converged.sum()))
    # one pass over the dense n x n float64 kernel per sweep
    tracer.count("bulk.cavity_bytes", 8.0 * n * n * sweeps)


def _probe_edge_samples(tracer: Tracer, result) -> None:
    tracer.count("bulk.realizations", float(len(result)))


def _probe_csv_lines(tracer: Tracer, result) -> None:
    tracer.count("output.rows", float(result.count("\r\n") - 1))


def _probe_written(tracer: Tracer, result) -> None:
    tracer.count("output.bytes", float(os.path.getsize(result)))


PROBES = {
    "model.expected_matrix": _probe_matrix,
    "model.noise_matrix": _probe_matrix,
    "model.sample_adjacency": _probe_adjacency,
    "model.coarse_grain": _probe_coarse_grain,
    "numeric.eig_sym": _probe_eig_sym,
    "numeric.compare_with_vectors": _probe_compare,
    "bulk.cavity_solve": _probe_cavity,
    "bulk.edge_samples": _probe_edge_samples,
    "output.csv_lines": _probe_csv_lines,
    "output.write_csv": _probe_written,
    "output.write_json": _probe_written,
}


def instrument(tracer: Tracer) -> None:
    """Rebind each public msmlab function to its wrapper in every namespace."""
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "msmlab"]
    wrapped = {}
    for module in modules:
        layer = module.__name__.rpartition(".")[2]
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                wrapped[id(fn)] = tracer.wrap(name, fn, PROBES.get(name))
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped and inspect.isfunction(value):
                setattr(module, attr, wrapped[id(value)])


def main() -> int:
    spans_path, module_list, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_NPZ MODULES -- CLI_ARGS...")
    # the CLI applies --threads before numpy loads; the import below loads it first
    if "--threads" in argv:
        threads = argv[argv.index("--threads") + 1]
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = threads
    for name in module_list.split(","):
        importlib.import_module(name)
    t_imported = time.perf_counter()
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "msmlab")

    tracer = Tracer()
    instrument(tracer)
    cli = sys.modules["msmlab.cli"]
    rc = tracer.wrap("cli.main", cli.main)(argv)
    t_done = time.perf_counter()

    import numpy as np

    meta = {
        "t0": _T0,
        "t_imported": t_imported,
        "t_done": t_done,
        "exit_code": rc,
        "unwrapped_modules": sorted(m for m in sys.modules if m.split(".")[0] == "msmlab" and m not in loaded),
        "names": tracer.names,
        "counts": tracer.counts,
    }
    spans = np.array(tracer.spans, dtype=float).reshape(-1, 4)
    np.savez(spans_path, spans=spans, meta=np.array(json.dumps(meta)))
    return rc


if __name__ == "__main__":
    sys.exit(main())
