"""Benchmark of the ``tvsource bench`` CLI: end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk --seed 0 --seconds 60 --trace 0

Every run is one child process at a time (a closed loop with one client),
with BLAS and OpenMP pinned to one thread.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics of two
traced runs (see ``traced_cli.py``).  Every full run's ``table.csv`` is
checked against the committed reference in ``reference/``.  The last line
of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
those BENCHMARK.json declares.  See README.md for why each workload exists
and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# CLI arguments of each workload, after ``bench``.
WORKLOADS = {
    "desk": [],
    "fine64": ["--include-64", "--format", "vtk"],
}
# The benchmark seed picks one of these CLI seeds, so that every run has a
# committed reference table: the default seed and one held-out seed.
REFERENCE_SEEDS = (0, 1)
SETUP_RUNS = 7
# Child runs made with ``--max-iter 1``; a warm-up run is checked, not timed.
SETUP_KINDS = ("setup", "warmup")
# Children are killed this many seconds after the start, so that one
# invocation always ends within 180 s.  A killed run is discarded, not failed.
DEADLINE_S = 170.0
TRACED_RUNS = 2
REL_TOL = 1e-8
# Levels with a per-level PD time: those both workloads run.
LEVELS = (4, 8, 16, 32)
# Below this share of the traced wall in wrapped layer calls, a wrapped name
# is no longer reached (renamed or rebound), and the traced run fails.
MIN_COVERAGE = 0.95

# Per-layer metrics that are work counts; they must repeat exactly.
COUNTS = ["fem_assembly.assemble_calls", "fem_assembly.grad_div_calls",
          "sparse_linalg.cg_calls", "sparse_linalg.cg_calls_cold",
          "sparse_linalg.cg_iters", "sparse_linalg.cg_iters_warm",
          "sparse_linalg.cg_iters_cold", "pde_solvers.state_solves",
          "pde_solvers.adjoint_solves", "pde_solvers.aux_solves",
          "pde_solvers.dirichlet_solves", "primal_dual.iterations",
          "experiment.export_bytes", "trace.spans"]
LAYERS = ["mesh", "fem_assembly", "sparse_linalg", "pde_solvers",
          "tv_calculus", "primal_dual", "experiment", "cli"]

ASSEMBLY = ["fem_assembly.assemble_stiffness", "fem_assembly.assemble_mass",
            "fem_assembly.assemble_boundary_mass", "fem_assembly.neumann_load"]
GRAD_DIV = ["fem_assembly.elem_gradient", "fem_assembly.div_adjoint"]
SOLVES = {"state_solves": ["pde_solvers.solve_state"],
          "adjoint_solves": ["pde_solvers.solve_adjoint"],
          "aux_solves": ["pde_solvers.solve_source_part",
                         "pde_solvers.solve_gamma_loaded"],
          "dirichlet_solves": ["pde_solvers.solve_dirichlet"]}


@dataclass
class Run:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    spawn_epoch: float
    out_dir: str
    killed: bool
    error: str | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + extra if extra else "")
    return env


def spawn(argv: list[str], out_dir: str, env: dict, timeout: float) -> Run:
    """Run one child to completion and take its own resource usage.

    ``os.wait4`` returns the rusage of that child alone, so the peak RSS is
    per run (``RUSAGE_CHILDREN`` would be the maximum over all children).
    A child still running after ``timeout`` seconds is killed.
    """
    os.makedirs(out_dir)
    with open(os.path.join(out_dir, "log.txt"), "wb") as log:
        epoch = time.time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([pidfd], [], [], max(timeout, 0))[0]
            if timed_out:
                proc.kill()
        except BaseException:  # SIGTERM or Ctrl-C: stop the child first
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss / 1024.0, epoch, out_dir, killed=timed_out)


def read_table(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def compare_tables(path: str, ref_path: str) -> str | None:
    """None if the table matches the reference, else the first difference.

    ``level`` and ``iterations`` must be equal; every other column must
    agree to REL_TOL relative.
    """
    if not os.path.exists(path):
        return "no table.csv written"
    header, rows = read_table(path)
    ref_header, ref_rows = read_table(ref_path)
    if header != ref_header or len(rows) != len(ref_rows):
        return "table shape differs from the reference"
    for row, ref in zip(rows, ref_rows):
        for col, a, b in zip(header, row, ref):
            if col in ("level", "iterations"):
                if a != b:
                    return f"level {ref[0]}: {col} {a} != reference {b}"
            elif abs(float(a) - float(b)) > REL_TOL * max(abs(float(a)),
                                                          abs(float(b))):
                return f"level {ref[0]}: {col} {a} != reference {b}"
    return None


def check_setup_table(path: str, ref_path: str) -> str | None:
    """The ``--max-iter 1`` table has the reference levels, one step each."""
    if not os.path.exists(path):
        return "no table.csv written"
    header, rows = read_table(path)
    _, ref_rows = read_table(ref_path)
    it = header.index("iterations")
    if [r[0] for r in rows] != [r[0] for r in ref_rows]:
        return "levels differ from the reference"
    if any(r[it] != "1" for r in rows):
        return "a level did not take exactly one iteration"
    return None


def table_iterations(path: str) -> int:
    header, rows = read_table(path)
    it = header.index("iterations")
    return sum(int(r[it]) for r in rows)


# -- per-layer metrics from the spans of one traced run ----------------------

def layer_metrics(doc: dict, run: Run) -> dict:
    names, parents, extras = doc["names"], doc["parents"], doc["extras"]
    dur = [end - start for start, end in zip(doc["starts"], doc["ends"])]
    covered = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += dur[i]
    incl, self_t, calls = (defaultdict(float), defaultdict(float),
                           defaultdict(int))
    layer_self = defaultdict(float)
    for i, name in enumerate(names):
        incl[name] += dur[i]
        self_t[name] += dur[i] - covered[i]
        calls[name] += 1
        layer_self[name.split(".")[0]] += dur[i] - covered[i]

    def total(table, keys):
        return sum(table[k] for k in keys)

    def spans_of(name):
        return [i for i, n in enumerate(names) if n == name]

    cg = [extras[i] for i in spans_of("sparse_linalg.cg_solve")]
    runs = [extras[i] for i in spans_of("primal_dual.run")]
    wall = dur[names.index("cli.main")]
    errors_s = (doc["ends"][spans_of("experiment.run_benchmark")[-1]]
                - doc["ends"][spans_of("primal_dual.multilevel_run")[-1]])
    solve_names = [n for group in SOLVES.values() for n in group]

    return {
        "mesh.build_s": incl["mesh.build_structured"],
        "mesh.prolong_s": total(incl, ["mesh.prolong_p1", "mesh.prolong_p0"]),
        "fem_assembly.assemble_s": total(incl, ASSEMBLY),
        "fem_assembly.assemble_calls": total(calls, ASSEMBLY),
        "fem_assembly.grad_div_s": total(incl, GRAD_DIV),
        "fem_assembly.grad_div_calls": total(calls, GRAD_DIV),
        "sparse_linalg.cg_s": self_t["sparse_linalg.cg_solve"],
        "sparse_linalg.cg_calls": len(cg),
        "sparse_linalg.cg_calls_cold": sum(1 for _, warm in cg if not warm),
        "sparse_linalg.cg_iters": sum(it for it, _ in cg),
        "sparse_linalg.cg_iters_warm": sum(it for it, warm in cg if warm),
        "sparse_linalg.cg_iters_cold": sum(it for it, warm in cg if not warm),
        "sparse_linalg.grad_norm_s": incl["sparse_linalg.grad_operator_norm"],
        "pde_solvers.discretize_s": incl["pde_solvers.DiscreteProblem"],
        **{f"pde_solvers.{k}": total(calls, v) for k, v in SOLVES.items()},
        "pde_solvers.solve_s": total(incl, solve_names),
        "pde_solvers.solve_self_s": total(self_t, solve_names),
        "tv_calculus.tv_value_s": incl["tv_calculus.tv_value"],
        "tv_calculus.project_s": total(incl, [
            "tv_calculus.project_dual_ball",
            "tv_calculus.project_dual_ball_isotropic"]),
        "primal_dual.certify_s": total(incl, [
            "primal_dual.certify_steps", "primal_dual.certify_steps_empirical"]),
        "primal_dual.smooth_norm_s": incl["primal_dual.smooth_operator_norm"],
        "primal_dual.run_s": incl["primal_dual.run"],
        **{f"primal_dual.run_s.level{lv}": sum(
            dur[i] for i in spans_of("primal_dual.run") if extras[i][0] == lv)
           for lv in LEVELS},
        "primal_dual.step_s": total(incl, ["primal_dual.primal_step",
                                           "primal_dual.dual_step"]),
        "primal_dual.objective_s": incl["primal_dual.objective"],
        "primal_dual.iterations": sum(n for _, n in runs),
        "experiment.build_problem_s":
            incl["experiment.build_benchmark_problem"],
        "experiment.synthesize_s": incl["experiment.synthesize_observation"],
        "experiment.errors_s": errors_s,
        "experiment.export_s": incl["experiment.export_benchmark"],
        "experiment.export_bytes": export_bytes(run.out_dir),
        "cli.import_s": doc["main_start_epoch"] - run.spawn_epoch,
        **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
        "trace.spans": len(names),
        "trace.wall_s": wall,
        "trace.coverage": (wall - layer_self["cli"]) / wall,
        "trace.overhead_s": len(names) * doc["span_cost_s"],
    }


def export_bytes(out_dir: str) -> int:
    """Bytes the CLI exported: every file in its output directory."""
    return sum(os.path.getsize(os.path.join(out_dir, n))
               for n in os.listdir(out_dir) if n not in ("log.txt",
                                                         "spans.json"))


# -- the two modes -----------------------------------------------------------

class Session:
    """The child runs of one invocation, with their checks."""

    def __init__(self, workload: str, seed: int, work: str):
        self.args = WORKLOADS[workload]
        self.seed = REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]
        self.ref = os.path.join(HERE, "reference", workload,
                                f"seed{self.seed}.csv")
        self.work = work
        self.env = child_env()
        self.runs: list[Run] = []  # completed runs; killed ones are dropped
        self.killed = 0
        self.problems: list[str] = []  # failed checks not tied to one run
        self.deadline = time.perf_counter() + DEADLINE_S

    def cli_argv(self, out_dir: str, extra=()) -> list[str]:
        return ["bench", *self.args, "--seed", str(self.seed),
                "--out", out_dir, *extra]

    def execute(self, kind: str) -> Run | None:
        """One child run, checked; None if it was killed at the deadline."""
        n = len(self.runs) + self.killed
        out_dir = os.path.join(self.work, f"run{n}-{kind}")
        if kind == "traced":
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                    os.path.join(out_dir, "spans.json"), "--",
                    *self.cli_argv(out_dir)]
        else:
            # argparse keeps the last --max-iter, so setup overrides it
            extra = ["--max-iter", "1"] if kind in SETUP_KINDS else []
            argv = [sys.executable, "-m", "tvsource.cli",
                    *self.cli_argv(out_dir, extra)]
        run = spawn(argv, out_dir, self.env,
                    self.deadline - time.perf_counter())
        if run.killed:
            self.killed += 1
            print(f"run {kind:6s} seed={self.seed} killed at the deadline "
                  f"after {run.wall_s:.3f}s; discarded", flush=True)
            return None
        table = os.path.join(out_dir, "table.csv")
        if run.code != 0:
            run.error = f"exit code {run.code}"
        else:
            check = (check_setup_table if kind in SETUP_KINDS
                     else compare_tables)
            run.error = check(table, self.ref)
        self.runs.append(run)
        print(f"run {kind:6s} seed={self.seed} wall={run.wall_s:.3f}s "
              f"cpu={run.cpu_s:.3f}s rss={run.rss_mb:.1f}MB "
              f"{'ok' if run.error is None else 'FAILED: ' + run.error}",
              flush=True)
        return run

    def failed(self) -> int:
        return sum(r.error is not None for r in self.runs)

    def end_to_end(self, seconds: float) -> dict:
        """One warm-up set-up run, then pairs of one set-up and one full
        run while the next pair is expected to end within ``seconds`` (at
        least one pair), then the remaining set-up runs.  The first child of
        an invocation can run slower than the rest, so the warm-up is
        checked but not timed.  Interleaving spreads the set-up samples over
        the whole window."""
        setups, fulls = [], []
        start = time.perf_counter()
        self.execute("warmup")
        while not self.killed:
            pair_start = time.perf_counter()
            setups.append(self.execute("setup"))
            fulls.append(self.execute("full"))
            now = time.perf_counter()
            if now + (now - pair_start) - start > seconds:
                break
        while len(setups) < SETUP_RUNS and not self.killed:
            setups.append(self.execute("setup"))
        fulls = [r for r in fulls if r is not None and r.code == 0]
        setups = [r for r in setups if r is not None and r.code == 0]
        if not fulls or not setups:
            return {}
        wall = statistics.median(r.wall_s for r in fulls)
        setup = statistics.median(r.wall_s for r in setups)
        return {
            "wall_s": wall,
            "cpu_s": statistics.median(r.cpu_s for r in fulls),
            "setup_s": setup,
            "iter_ms": 1e3 * (wall - setup) / table_iterations(self.ref),
            "peak_rss_mb": statistics.median(r.rss_mb for r in fulls),
        }

    def per_layer(self) -> dict:
        traced = [self.execute("traced") for _ in range(TRACED_RUNS)]
        if any(r is None or r.code != 0 for r in traced):
            return {}
        per_run = []
        for run in traced:
            with open(os.path.join(run.out_dir, "spans.json")) as fh:
                per_run.append(layer_metrics(json.load(fh), run))
        for name in COUNTS:
            values = [m[name] for m in per_run]
            if len(set(values)) != 1:
                self.problems.append(
                    f"work count {name} differs between traced runs: {values}")
        if per_run[0]["primal_dual.iterations"] != table_iterations(self.ref):
            self.problems.append(
                "traced primal-dual iterations disagree with the table")
        for m in per_run:
            if m["trace.coverage"] < MIN_COVERAGE:
                self.problems.append(
                    f"wrapped layers cover only {m['trace.coverage']:.1%} "
                    f"of the traced wall (at least {MIN_COVERAGE:.0%})")
        return {name: statistics.median(m[name] for m in per_run)
                for name in per_run[0]}


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "tvsource", "cli.py")):
        print(f"error: no tvsource package under {SRC}", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[
            "per_layer" if args.trace else "end_to_end"]}
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    session = Session(args.workload, args.seed, work)
    try:
        print("environment " + json.dumps(environment()), flush=True)
        metrics = (session.per_layer() if args.trace
                   else session.end_to_end(args.seconds))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = len(session.runs), session.failed()
    if attempted:
        print(f"metric failed_frac = {failed / attempted:.4f} fraction "
              f"({failed} of {attempted} runs)")
    for problem in session.problems:
        print(f"check failed: {problem}")
    if not metrics:
        print(f"error: no usable run ({session.killed} killed at the "
              "deadline); no metrics to report", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print("error: computed metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not session.problems,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
