"""Benchmark of the msmlab command line, run from the root of a source tree.

    python3 perfbench/run.py --workload compare --seed 1 --seconds 45 --trace 0

Each CLI command runs in its own process as `python -m msmlab.cli ...`
with PYTHONPATH=src, one at a time in a closed loop from this process,
with the BLAS pool fixed by `--threads 2`. A workload is a fixed list of
commands (a pass) whose flags come from the workload seed; passes repeat
while another one still fits in --seconds, and at least one always runs.
Every command's outputs are checked against tolerances (checks.py).

--trace 0 prints the end-to-end metrics. --trace 1 runs one pass twice,
plain and under traced.py, which times every public msmlab function from
outside the package, and prints the per-layer metrics. The last stdout
line is the result object; the line before it is the environment block.
README.md in this directory says why each workload and metric exists.
"""
from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import Checker, Command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
THREADS = 2
SETUP_REPEATS = 3
ALPHAS = (0.2, 0.5, 0.8)

# modules each CLI handler loads, mirrored from msmlab.cli; setup_s imports
# a workload's union of them, and traced.py imports the command's set
IMPORTS = {
    "predict": ("msmlab.cli", "msmlab.output", "msmlab.spectrum"),
    "spiral": ("msmlab.cli", "msmlab.output", "msmlab.spectrum"),
    "coarsegrain": ("msmlab.cli", "msmlab.model", "msmlab.output"),
    "compare": ("msmlab.cli", "msmlab.eigenvectors", "msmlab.model", "msmlab.numeric", "msmlab.output"),
    "bulk": ("msmlab.cli", "msmlab.bulk", "msmlab.model", "msmlab.output"),
}


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


def compare_pass(rng: random.Random) -> list[Command]:
    """Default-size compare, cycling alpha and the weight mode."""
    return [
        Command(
            "compare",
            {"alpha": ALPHAS[i % 3], "n": 2048, "k_max": 8, "deterministic": i % 2 == 0, "seed": _seed(rng)},
            f"compare{i}",
        )
        for i in range(6)
    ]


def bulk_pass(rng: random.Random) -> list[Command]:
    """Noise edges plus cavity density at the desk-scale limit n = 4096.

    Only the two extreme alphas run: a third ~15 s command would not fit
    the run-time budget the three workloads share.
    """
    return [
        Command(
            "bulk",
            {"alpha": a, "n": 4096, "realizations": 2, "density": True, "grid_points": 15, "seed": _seed(rng)},
            f"bulk{i}",
        )
        for i, a in enumerate((ALPHAS[0], ALPHAS[-1]))
    ]


def analytic_pass(rng: random.Random) -> list[Command]:
    """Scalar ladder, locus and aggregation commands: no n x n eigensolve.

    predict at n = 10000 precedes spiral at the same (n, alpha), so the
    crossing check reuses that ladder instead of running predict again.
    """
    cmds = []
    for i, a in enumerate(ALPHAS):
        cmds += [
            Command("predict", {"alpha": a, "n": 10_000, "k_max": 8}, f"predict{i}"),
            Command("predict", {"alpha": a, "n": 100_000, "k_max": 8, "format": "json"}, f"predictjson{i}"),
            Command("spiral", {"alpha": a, "n": 10_000, "omega_max": 3, "steps": 20_000}, f"spiral{i}"),
            Command(
                "coarsegrain",
                {"alpha": a, "n": 1000, "b": 10, "partition": "random", "seed": _seed(rng)},
                f"coarsegrain{i}",
            ),
        ]
    return cmds


WORKLOADS = {"compare": compare_pass, "bulk": bulk_pass, "analytic": analytic_pass}


def thread_probe(rng: random.Random) -> Command:
    """The compare command timed at --threads 1 and 2 for numeric.thread_speedup."""
    opts = {"alpha": 0.5, "n": 2048, "k_max": 8, "deterministic": True, "seed": _seed(rng)}
    return Command("compare", opts, "threadprobe")


class Runner:
    """Spawns CLI commands one at a time in fresh directories under `work`.

    Every child's stderr is appended to `log`.
    """

    def __init__(self, work: Path, log: Path) -> None:
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.log = log
        self.checker = Checker(self.reference)

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def spawn(self, argv: list[str], cwd: Path) -> tuple[int, float, float, float]:
        """(exit code, wall seconds, peak RSS in MB, spawn time) of one child."""
        with open(self.log, "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, start

    def cli(self, cmd: Command, cwd: Path, threads: int = THREADS) -> tuple[int, float, float, float]:
        return self.spawn([sys.executable, "-m", "msmlab.cli", *cmd.argv(threads)], cwd)

    def traced(self, cmd: Command, cwd: Path, threads: int = THREADS) -> tuple[int, float, dict | None]:
        """(exit code, wall seconds, spans document) of one traced command."""
        spans = cwd / "spans.npz"
        argv = [sys.executable, str(HERE / "traced.py"), str(spans), ",".join(IMPORTS[cmd.kind]), "--"]
        code, wall, _, start = self.spawn(argv + cmd.argv(threads), cwd)
        if not spans.exists():
            return code, wall, None
        with np.load(spans) as npz:
            doc = json.loads(str(npz["meta"]))
            doc["spans"] = npz["spans"]
        spans.unlink()
        doc["spawn"], doc["exit"] = start, start + wall
        return code, wall, doc

    def reference(self, cmd: Command) -> tuple[int, Path]:
        cwd = self.fresh_dir("reference")
        return self.cli(cmd, cwd)[0], cwd

    def setup_once(self, modules: list[str]) -> float:
        """Wall time of a process that starts the interpreter and imports modules."""
        code, wall, _, _ = self.spawn([sys.executable, "-c", "import " + ", ".join(modules)], self.work)
        if code != 0:
            raise SystemExit(f"perfbench: importing {modules} failed, see {self.log}")
        return wall


def report_failure(cmd: Command, problems: list[str], threads: int = THREADS) -> None:
    print(f"perfbench: FAILED {' '.join(cmd.argv(threads))}: {'; '.join(problems)}", file=sys.stderr)


def run_untraced(runner: Runner, make_pass, rng: random.Random, seconds: float) -> tuple[dict, int, int]:
    """Passes while another one fits in `seconds`; set-up samples spread over the first."""
    modules = sorted({m for cmd in make_pass(random.Random(0)) for m in IMPORTS[cmd.kind]})
    runner.setup_once(modules)  # warm the page cache and bytecode cache, untimed
    setup: list[float] = []

    pass_walls, cmd_walls, rss = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        cmds = make_pass(rng)
        every = max(1, len(cmds) // SETUP_REPEATS)
        total = 0.0
        for i, cmd in enumerate(cmds):
            if len(setup) < SETUP_REPEATS and i % every == 0:
                setup.append(runner.setup_once(modules))
            cwd = runner.fresh_dir("cmd")
            code, wall, peak, _ = runner.cli(cmd, cwd)
            problems = runner.checker.check(cmd, code, cwd)
            attempted += 1
            if problems:
                failed += 1
                report_failure(cmd, problems)
            total += wall
            cmd_walls.append(wall)
            rss.append(peak)
        pass_walls.append(total)
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(runner.setup_once(modules))
    metrics = {
        "wall_s": statistics.median(pass_walls),
        "cmd_p50_s": statistics.median(cmd_walls),
        "peak_rss_mb": max(rss),
        "setup_s": statistics.median(setup),
        "pass_ratio": (attempted - failed) / attempted,
    }
    return metrics, attempted, failed


class SpanStats:
    """Self and inclusive times, call counts and probe counts over commands.

    A span's self time is its duration minus its children's durations;
    a function's inclusive time sums its outermost calls only, so
    recursion is not counted twice.
    """

    def __init__(self) -> None:
        self.layer_self: dict[str, float] = {}
        self.inclusive: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.dense_bytes_max = 0.0
        self.import_s: list[float] = []
        self.accounted = 0.0
        self.exit_s = 0.0
        self.names: list[str] = []
        self.rows: list[np.ndarray] = []  # (command id, name id, start, end, parent row)

    def add(self, cmd_id: int, doc: dict) -> None:
        spans = doc["spans"]
        name = spans[:, 0].astype(int)
        dur = spans[:, 2] - spans[:, 1]
        parent = spans[:, 3].astype(int)
        has_parent = parent >= 0
        own = dur.copy()
        np.subtract.at(own, parent[has_parent], dur[has_parent])

        nested = np.zeros(len(spans), dtype=bool)
        up = parent.copy()
        while (up >= 0).any():
            live = up >= 0
            nested[live] |= name[up[live]] == name[live]
            up[live] = parent[up[live]]

        for i, label in enumerate(doc["names"]):
            mine = name == i
            layer = label.partition(".")[0]
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + float(own[mine].sum())
            self.calls[label] = self.calls.get(label, 0) + int(mine.sum())
            self.inclusive[label] = self.inclusive.get(label, 0.0) + float(dur[mine & ~nested].sum())
        for key, value in doc["counts"].items():
            self.counts[key] = self.counts.get(key, 0.0) + value
        self.dense_bytes_max = max(self.dense_bytes_max, doc["counts"].get("model.dense_bytes", 0.0))
        import_s = doc["t_imported"] - doc["spawn"]
        self.import_s.append(import_s)
        self.accounted += import_s + float(own.sum())
        self.exit_s += doc["exit"] - doc["t_done"]

        ids = np.array([self._name_id(label) for label in doc["names"]])
        rows = np.column_stack([np.full(len(spans), cmd_id), ids[name], spans[:, 1:]])
        self.rows.append(rows)

    def _name_id(self, label: str) -> int:
        if label not in self.names:
            self.names.append(label)
        return self.names.index(label)

    def save(self, path: Path, environment: dict) -> None:
        rows = np.concatenate(self.rows) if self.rows else np.empty((0, 5))
        meta = {"environment": environment, "names": self.names, "columns": ["command", "name", "start", "end", "parent"]}
        np.savez(path, spans=rows, meta=np.array(json.dumps(meta)))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: SpanStats, traced_wall: float, plain_wall: float, speedup: float) -> dict:
    c, inc, calls, own = stats.counts, stats.inclusive, stats.calls, stats.layer_self
    special_calls = sum(v for k, v in calls.items() if k.startswith("special."))
    cavity_s = inc.get("bulk.cavity_solve", 0.0)
    return {
        "cli.import_s": statistics.median(stats.import_s),
        "cli.self_s": own.get("cli", 0.0),
        "special.calls": special_calls,
        "special.self_s": own.get("special", 0.0),
        "spectrum.self_s": own.get("spectrum", 0.0),
        "spectrum.solve_omega_k.calls": calls.get("spectrum.solve_omega_k", 0),
        "spectrum.stationary_point.calls": calls.get("spectrum.stationary_point", 0),
        "eigenvectors.self_s": own.get("eigenvectors", 0.0),
        "model.self_s": own.get("model", 0.0),
        "model.expected_matrix_s": inc.get("model.expected_matrix", 0.0),
        "model.sample_adjacency_s": inc.get("model.sample_adjacency", 0.0),
        "model.noise_matrix_s": inc.get("model.noise_matrix", 0.0),
        "model.coarse_grain_s": inc.get("model.coarse_grain", 0.0),
        "model.stream_rng.calls": calls.get("model.stream_rng", 0),
        "model.dense_mb": stats.dense_bytes_max / 2**20,
        "model.adjacency_fill": _ratio(c.get("model.adjacency_nonzeros", 0.0), c.get("model.adjacency_stored", 0.0)),
        "numeric.self_s": own.get("numeric", 0.0),
        "numeric.eig_sym_s": inc.get("numeric.eig_sym", 0.0),
        "numeric.eig_sym.calls": calls.get("numeric.eig_sym", 0),
        "numeric.eigvec_yield": _ratio(c.get("numeric.eigvecs_used", 0.0), c.get("numeric.eigvecs_computed", 0.0)),
        "numeric.spectral_norm_s": inc.get("numeric.spectral_norm", 0.0),
        "numeric.spectral_norm.calls": calls.get("numeric.spectral_norm", 0),
        "numeric.thread_speedup": speedup,
        "bulk.self_s": own.get("bulk", 0.0),
        "bulk.cavity_solve_s": cavity_s,
        "bulk.cavity_iterations": c.get("bulk.cavity_iterations", 0.0),
        "bulk.cavity_s_per_iter": _ratio(cavity_s, c.get("bulk.cavity_iterations", 0.0)),
        "bulk.cavity_converged_ratio": _ratio(c.get("bulk.cavity_converged", 0.0), c.get("bulk.cavity_points", 0.0)),
        "bulk.cavity_gb_computed": c.get("bulk.cavity_bytes", 0.0) / 1e9,
        "bulk.edge_samples_s": inc.get("bulk.edge_samples", 0.0),
        "bulk.realizations": c.get("bulk.realizations", 0.0),
        "output.self_s": own.get("output", 0.0),
        "output.mb_written": c.get("output.bytes", 0.0) / 1e6,
        "output.rows": c.get("output.rows", 0.0),
        "trace.probe_s": own.get("trace", 0.0),
        "trace.wall_s": traced_wall,
        "trace.accounted_ratio": stats.accounted / traced_wall,
        "trace.exit_s": stats.exit_s,
        "trace.overhead_ratio": traced_wall / plain_wall - 1.0,
    }


def _outputs(path: Path) -> list[str]:
    return sorted(p.name for p in path.iterdir() if p.name != "spans.npz")


def run_traced(runner: Runner, make_pass, rng: random.Random) -> tuple[dict, int, int, SpanStats]:
    """One pass plain and traced, checked and compared byte for byte."""
    stats = SpanStats()
    attempted = failed = 0
    traced_wall = plain_wall = 0.0
    for i, cmd in enumerate(make_pass(rng)):
        plain_dir, traced_dir = runner.fresh_dir("plain"), runner.fresh_dir("traced")
        # alternate which side runs first so warm caches favour neither
        if i % 2 == 0:
            code, wall, _, _ = runner.cli(cmd, plain_dir)
            tcode, twall, doc = runner.traced(cmd, traced_dir)
        else:
            tcode, twall, doc = runner.traced(cmd, traced_dir)
            code, wall, _, _ = runner.cli(cmd, plain_dir)
        problems = runner.checker.check(cmd, code, plain_dir)
        if tcode != code or doc is None:
            problems.append(f"traced run exited {tcode}, plain run {code}")
        names = _outputs(plain_dir)
        if names != _outputs(traced_dir):
            problems.append(f"traced outputs {_outputs(traced_dir)} differ from {names}")
        else:
            _, mismatch, errors = filecmp.cmpfiles(plain_dir, traced_dir, names, shallow=False)
            if mismatch or errors:
                problems.append(f"traced outputs differ in bytes: {mismatch + errors}")
        if doc is not None:
            if doc["unwrapped_modules"]:
                problems.append(f"modules loaded after instrumenting: {doc['unwrapped_modules']}")
            stats.add(i, doc)
        attempted += 2
        if problems:
            failed += 2
            report_failure(cmd, problems)
        plain_wall += wall
        traced_wall += twall

    probe = thread_probe(rng)
    eig = {}
    for threads in (1, THREADS):
        cwd = runner.fresh_dir("probe")
        code, _, doc = runner.traced(probe, cwd, threads)
        problems = runner.checker.check(probe, code, cwd)
        attempted += 1
        if problems or doc is None:
            failed += 1
            report_failure(probe, problems or ["no spans written"], threads)
            eig[threads] = 0.0
            continue
        probe_stats = SpanStats()
        probe_stats.add(-threads, doc)
        eig[threads] = probe_stats.inclusive.get("numeric.eig_sym", 0.0)
    speedup = _ratio(eig[1], eig[THREADS])
    return layer_metrics(stats, traced_wall, plain_wall, speedup), attempted, failed, stats


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREADS,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "msmlab" / "cli.py").is_file():
        print(f"perfbench: no msmlab source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    log = WORK / f"{args.workload}-seed{args.seed}.stderr.log"
    log.unlink(missing_ok=True)
    runner = Runner(run_dir, log)
    env = environment(args.workload, args.seed)
    rng = random.Random(f"{args.workload}:{args.seed}")
    make_pass = WORKLOADS[args.workload]
    try:
        if args.trace:
            values, attempted, failed, stats = run_traced(runner, make_pass, rng)
            stats.save(WORK / f"trace-{args.workload}-seed{args.seed}.npz", env)
        else:
            values, attempted, failed = run_untraced(runner, make_pass, rng, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if set(values) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    print(json.dumps({"environment": env}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
