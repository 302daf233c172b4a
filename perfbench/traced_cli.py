"""Run the tvsource CLI with spans recorded around each layer's public calls.

Usage: python3 perfbench/traced_cli.py SPANS_JSON -- bench [options...]

The package source is not modified.  Before ``cli.main`` runs, every
function listed in ``WRAPPED`` is replaced by a timing wrapper at every
binding inside the package, not only where it is defined: ``from .x import
y`` copies the name into the importing module, so e.g. ``pde_solvers.cg_solve``
and ``cli.run_benchmark`` are rebound as well.  Methods are patched on their
class.  Each call records a span (name, parent index, start, end, extra)
in memory; the spans are written to SPANS_JSON after ``main`` returns,
together with the measured cost of one span (``span_cost_s``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# (module, attribute path, span name).  The span name's prefix is the layer.
WRAPPED = [
    ("mesh", "build_structured", "mesh.build_structured"),
    ("mesh", "prolong_p1", "mesh.prolong_p1"),
    ("mesh", "prolong_p0", "mesh.prolong_p0"),
    ("fem_assembly", "assemble_stiffness", "fem_assembly.assemble_stiffness"),
    ("fem_assembly", "assemble_mass", "fem_assembly.assemble_mass"),
    ("fem_assembly", "assemble_boundary_mass",
     "fem_assembly.assemble_boundary_mass"),
    ("fem_assembly", "neumann_load", "fem_assembly.neumann_load"),
    ("fem_assembly", "elem_gradient", "fem_assembly.elem_gradient"),
    ("fem_assembly", "div_adjoint", "fem_assembly.div_adjoint"),
    ("sparse_linalg", "cg_solve", "sparse_linalg.cg_solve"),
    ("sparse_linalg", "grad_operator_norm", "sparse_linalg.grad_operator_norm"),
    ("pde_solvers", "DiscreteProblem.__init__", "pde_solvers.DiscreteProblem"),
    ("pde_solvers", "DiscreteProblem.solve_state", "pde_solvers.solve_state"),
    ("pde_solvers", "DiscreteProblem.solve_adjoint",
     "pde_solvers.solve_adjoint"),
    ("pde_solvers", "DiscreteProblem.solve_source_part",
     "pde_solvers.solve_source_part"),
    ("pde_solvers", "DiscreteProblem.solve_gamma_loaded",
     "pde_solvers.solve_gamma_loaded"),
    ("pde_solvers", "DiscreteProblem.solve_dirichlet",
     "pde_solvers.solve_dirichlet"),
    ("tv_calculus", "tv_value", "tv_calculus.tv_value"),
    ("tv_calculus", "project_dual_ball", "tv_calculus.project_dual_ball"),
    ("tv_calculus", "project_dual_ball_isotropic",
     "tv_calculus.project_dual_ball_isotropic"),
    ("primal_dual", "certify_steps", "primal_dual.certify_steps"),
    ("primal_dual", "certify_steps_empirical",
     "primal_dual.certify_steps_empirical"),
    ("primal_dual", "smooth_operator_norm", "primal_dual.smooth_operator_norm"),
    ("primal_dual", "multilevel_run", "primal_dual.multilevel_run"),
    ("primal_dual", "run", "primal_dual.run"),
    ("primal_dual", "PdDriver.primal_step", "primal_dual.primal_step"),
    ("primal_dual", "PdDriver.dual_step", "primal_dual.dual_step"),
    ("primal_dual", "PdDriver.objective", "primal_dual.objective"),
    ("experiment", "run_benchmark", "experiment.run_benchmark"),
    ("experiment", "build_benchmark_problem",
     "experiment.build_benchmark_problem"),
    ("experiment", "synthesize_observation",
     "experiment.synthesize_observation"),
    ("experiment", "export_benchmark", "experiment.export_benchmark"),
    ("cli", "cmd_bench", "cli.cmd_bench"),
]

# Names whose rebinding in a calling module is required, not just likely.
REQUIRED_BINDINGS = ["pde_solvers.cg_solve", "primal_dual.grad_operator_norm",
                     "cli.run_benchmark"]


class Tracer:
    """Span recorder, one entry per call in each of five parallel lists.

    Flat lists of numbers and strings keep the recorder invisible to the
    cyclic garbage collector, whose passes would otherwise grow with the
    number of spans and slow the traced program.
    """

    FIELDS = ("names", "parents", "starts", "ends", "extras")

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.extras: list = []
        self._stack: list[int] = [-1]

    def wrap(self, name: str, fn, extra=None):
        names, parents, starts, ends, extras = (
            getattr(self, f) for f in self.FIELDS)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            extras.append(None)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if extra is not None:
                extras[idx] = extra(args, kwargs, out)
            return out

        return wrapper

    def to_json(self) -> dict:
        return {f: getattr(self, f) for f in self.FIELDS}


def _cg_extra(fn):
    """Iterations of the returned SolveReport, and whether x0 was passed."""
    x0_pos = list(inspect.signature(fn).parameters).index("x0")

    def extra(args, kwargs, out):
        x0 = kwargs.get("x0", args[x0_pos] if len(args) > x0_pos else None)
        return (out[1].iterations, x0 is not None)

    return extra


def _run_extra(args, kwargs, state):
    """Level and primal-dual iteration count of one ``primal_dual.run``."""
    return (args[0].mesh.level, state.n)


def install(tracer: Tracer) -> list[str]:
    """Patch every WRAPPED name; return the bindings replaced."""
    importlib.import_module("tvsource.cli")  # the package does not import it
    modules = {name: m for name, m in sys.modules.items()
               if name == "tvsource" or name.startswith("tvsource.")}
    patched = []
    for mod_name, path, span in WRAPPED:
        owner = importlib.import_module(f"tvsource.{mod_name}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        orig = getattr(owner, attr)
        extra = (_cg_extra(orig) if span == "sparse_linalg.cg_solve"
                 else _run_extra if span == "primal_dual.run" else None)
        wrapper = tracer.wrap(span, orig, extra)
        if cls_path:
            setattr(owner, attr, wrapper)
            patched.append(f"{mod_name}.{path}")
            continue
        for name, module in modules.items():
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapper)
                    patched.append(f"{name.removeprefix('tvsource.')}.{key}")
    missing = [b for b in REQUIRED_BINDINGS if b not in patched]
    if missing:
        raise RuntimeError(f"caller bindings not patched: {missing}")
    return patched


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one.

    The best of ``repeats`` batches is taken for each, as ``timeit`` does.
    """
    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    clock = time.perf_counter

    def best(fn):
        times = []
        for _ in range(repeats):
            t0 = clock()
            for _ in range(calls):
                fn()
            times.append(clock() - t0)
        return min(times) / calls

    return best(wrapped) - best(noop)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    patched = install(tracer)
    from tvsource import cli

    main_start_epoch = time.time()
    rc = tracer.wrap("cli.main", cli.main)(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"main_start_epoch": main_start_epoch, "patched": patched,
                   "span_cost_s": span_cost(), **tracer.to_json()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
