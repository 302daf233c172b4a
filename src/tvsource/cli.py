"""Command line front end.

Subcommands:
  bench   multilevel benchmark run writing the error table and field files
  solve   single-level reconstruction from an observation CSV
  check   quick self-test of the core numerical invariants
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import re
import sys

import numpy as np

from . import experiment, primal_dual
from .experiment import (ExperimentConfig, build_benchmark_problem,
                         export_field, read_observation_csv, run_benchmark)
from .fem_assembly import assemble_mass
from .mesh import TriMesh, build_structured
from .pde_solvers import DiscreteProblem
from .primal_dual import certify_steps
from .sparse_linalg import (CgConvergenceError, FactorizationError,
                            grad_operator_norm)
from .tv_calculus import gradient_pairing, subgradient_witness, tv_value


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads a negative number in exponent form, such as
    ``--box -1e0 3``, as a value.  argparse's own pattern (Python 3.11)
    takes only forms like -1 and -1.5 for numbers and -1e0 for an unknown
    option.  The subcommand parsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")


def _parse_levels(text: str):
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"levels must be integers separated by commas, such as 4,8,16; "
            f"got {text!r}") from None


def _add_common(p: argparse.ArgumentParser):
    """Flags shared by bench and solve; each dest is an ExperimentConfig field."""
    p.add_argument("--gamma", choices=sorted(experiment.GAMMA_CASES),
                   dest="gamma_case", default=None,
                   help="observed boundary sides")
    p.add_argument("--tau", type=float, default=None, help="primal step size")
    p.add_argument("--theta", type=float, default=None, help="dual weight")
    p.add_argument("--rho-coef", type=float, default=None,
                   help="regularization: rho = rho_coef * sqrt(h)")
    p.add_argument("--box", nargs=2, type=float, default=None,
                   metavar=("LO", "HI"), help="pointwise source bounds")
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--out", dest="out_dir", metavar="OUT", default=None,
                   help="output directory")
    p.add_argument("--format", choices=experiment.EXPORT_FORMATS,
                   dest="export_format", default=None,
                   help="field export format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tvsource",
        description="TV-regularized reconstruction of elliptic source terms "
                    "from partial boundary observations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="run the multilevel benchmark")
    p_bench.add_argument("--config", default=None,
                         help="JSON config file (flags override it)")
    p_bench.add_argument("--levels", type=_parse_levels, default=None,
                         metavar="L1,L2,...", help="levels, doubling from 4")
    p_bench.add_argument("--include-64", action="store_true",
                         help="extend the default levels up to 64")
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--noise-coef", type=float, default=None,
                         help="noise scale: theta_l = c * h_l * sqrt(rho_l)")
    p_bench.add_argument("--truth-refine", action="store_true", default=None,
                         help="synthesize data on a once-refined mesh")
    _add_common(p_bench)

    p_solve = sub.add_parser("solve", help="reconstruct from an observation file")
    p_solve.add_argument("observation", help="CSV with node_x1,node_x2,z_value")
    p_solve.add_argument("--level", type=int, required=True)
    _add_common(p_solve)

    sub.add_parser("check", help="run the numerical invariant self-test")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    """The ExperimentConfig defaults, then the --config file, then the flags.

    A flag sets the config field named by its argparse dest; flags left
    unset are None and change nothing.  ``--include-64`` sets the levels
    4..64 and is rejected next to any other setting of the levels.
    """
    config_file = getattr(args, "config", None)
    fields = experiment.read_config_file(config_file) if config_file else {}
    if getattr(args, "include_64", False):
        if args.levels is not None or "levels" in fields:
            raise ValueError("--include-64 cannot be combined with --levels "
                             "or with the levels of a --config file")
        fields["levels"] = (4, 8, 16, 32, 64)
    for f in dataclasses.fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            fields[f.name] = tuple(value) if type(value) is list else value
    return ExperimentConfig(**fields)


def cmd_bench(args) -> int:
    """The input is known to be valid before run_benchmark creates the
    output directory and sets up a level: the config checked its fields,
    the gamma case and the box, the coarsest level's parameters check
    rho < 1 (on the coarsest level rho is largest)."""
    config = _config_from_args(args)
    config.level_params(TriMesh(config.levels[0]).mesh_size)
    try:
        records = run_benchmark(config)
    except primal_dual.MultilevelError as exc:
        print(f"tvsource: error: benchmark aborted: {exc}; partial table "
              f"written to {config.out_dir}/table.csv", file=sys.stderr)
        return 1
    print(experiment.RunRecord.CSV_HEADER)
    for rec in records:
        print(rec.csv_row())
    print(f"table and fields written to {config.out_dir}/")
    return 0


def cmd_solve(args) -> int:
    """Set-up (nothing factored), the observation file, the driver's
    step-size certificate and the run come before the output directory: a
    rejected file, tau or run writes nothing, and a malformed file costs no
    factorization."""
    config = _config_from_args(args)
    dp, _, params = config.setup_level(args.level)
    z = read_observation_csv(args.observation, dp.mesh, dp.gamma_nodes)
    state = primal_dual.PdDriver(dp, params).run(z)
    os.makedirs(config.out_dir, exist_ok=True)
    fmt = config.export_format
    if fmt != "none":
        export_field(dp.mesh, state.f,
                     os.path.join(config.out_dir,
                                  f"solve_level{args.level}_f.{fmt}"),
                     fmt, name="reconstruction")
    print(f"stopped after {state.n} iterations, "
          f"final tolerance {state.final_tolerance:.4e}, "
          f"objective {state.objective:.6e}")
    return 0


def cmd_check(_args) -> int:
    """Fast invariant battery; prints one line per check."""
    failures = 0

    def report(name, ok, detail=""):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" +
              (f"  ({detail})" if detail else ""))
        failures += 0 if ok else 1

    mesh = build_structured(4)
    report("lumped weights sum to the domain volume",
           abs(assemble_mass(mesh)[1].sum() - 4.0) < 1e-12)

    rng = np.random.default_rng(7)
    f = rng.standard_normal(mesh.n_vertices)
    p = np.sign(rng.standard_normal((mesh.n_triangles, 2)))
    tv = tv_value(mesh, f)
    witness = gradient_pairing(mesh, f, subgradient_witness(mesh, f))
    report("duality witness attains the total variation",
           abs(tv - witness) <= 1e-12 * max(tv, 1.0))
    report("feasible pairings stay below the total variation",
           gradient_pairing(mesh, f, p) <= tv + 1e-12)

    prob, f_truth = build_benchmark_problem(4)
    dp = DiscreteProblem(prob, cg_tol=1e-12)
    params = ExperimentConfig(tau=2e-4).level_params(dp.mesh.mesh_size)
    cert = certify_steps(params, dp)
    report("step-size certificate holds at level 4",
           cert.valid, f"lhs={cert.lhs:.4g} rhs={cert.rhs:.4g}")
    report("coercivity and trace constants",
           abs(cert.c1 - 0.025) < 1e-12
           and abs(cert.c_gamma - math.sqrt(3.0)) < 1e-12)
    # the eigensolver is loaded here only: bench and solve certify s by
    # Cholesky factorizations
    s = primal_dual.smooth_operator_norm(dp)
    K = primal_dual.smooth_operator_matrix(dp)
    lam = float(np.linalg.eigvalsh(K)[-1])
    report("smooth bound certified at level 4",
           lam <= s <= lam * (1.0 + 1e-10),
           f"s/lambda_max-1={s / lam - 1:.1e}")

    xi = rng.standard_normal(dp.mesh.n_vertices)
    z = experiment.synthesize_observation(dp, f_truth, 0.0, 0)
    # the trace and the adjoint state through G, as PdDriver.run reads
    # them, against an independent solve
    bmap = dp.boundary_map
    r = bmap.trace(dp.w * f) - z.values
    u_a = bmap.matvec(dp.M_gamma @ r)
    u_bar = dp.solve_source_part(xi)[dp.gamma_nodes]
    lhs = float(r @ (dp.M_gamma @ u_bar))
    rhs = dp.lumped_inner(xi, u_a)
    report("adjoint gradient identity", abs(lhs - rhs) <= 1e-8 * abs(lhs),
           f"|lhs-rhs|={abs(lhs - rhs):.2e}")
    # the state's trace through G against an independent solve, reported
    # last
    trace, ref = bmap.trace(dp.w * f), dp.solve_state(f)[dp.gamma_nodes]
    trace_error = float(np.abs(trace - ref).max() / np.abs(ref).max())

    gn8 = grad_operator_norm(build_structured(8).grid.inverse_spacing)
    report("gradient norm scales like 1/h", 1.9 <= gn8 / cert.grad_norm <= 2.1,
           f"ratio={gn8 / cert.grad_norm:.3f}")

    # the loop's kernels, through its steps, on the level-4 benchmark
    # driver: from f = u_a = 0 the primal step is -(tau*rho/w) D^T q, from
    # p = 0 the dual step is sigma D g, both too small to be clipped, and
    # <sigma D g, q>_|T| = <g, (tau*rho/w) D^T q>_w / theta; D^T q against
    # the sum over the elements of |T| q . grad(phi_i), from the grid's
    # basis gradients, not its stencil kernels
    driver = primal_dual.PdDriver(
        dp, ExperimentConfig().level_params(dp.mesh.mesh_size))
    grid, zeros = driver.grid, np.zeros(dp.mesh.n_vertices)
    q = 1e-3 * rng.uniform(-1.0, 1.0, (dp.mesh.n_triangles, 2))
    g = 1e-3 * rng.standard_normal(dp.mesh.n_vertices)
    div = -driver.primal_step(zeros, grid.to_grid(q), zeros)
    grad = grid.from_grid(driver.dual_step(grid.to_grid(0.0 * q), g))
    terms = grid.area * grad * q
    lhs = float(terms.sum())
    adjoint = abs(lhs - dp.lumped_inner(g, div) / driver.params.theta)
    adjoint /= float(np.abs(terms).sum())
    elements = grid.area * np.einsum("aic,kac->kai", grid.basis_gradients,
                                     q.reshape(-1, 2, 2))
    ref = (driver.params.tau * driver.params.rho / dp.w
           * np.bincount(dp.mesh.triangles.ravel(), elements.ravel(),
                         dp.mesh.n_vertices))
    mismatch = float(np.abs(div - ref).max() / np.abs(ref).max())
    report("loop kernels are adjoint and match the element sum at level 4",
           adjoint <= 1e-12 and mismatch <= 1e-12,
           f"adjoint {adjoint:.1e}, element sum {mismatch:.1e}")

    # level 64 as bench runs it: building its driver compresses the boundary
    # map in place, and both products on a fixed load stay within the
    # map's bound of the dense map's, taken before
    dp = DiscreteProblem(build_benchmark_problem(64)[0])
    bmap = dp.boundary_map
    x, y = np.cos(np.arange(bmap.shape[0])), np.sin(np.arange(bmap.shape[1]))
    dense = bmap.rmatvec(x), bmap.matvec(y)
    primal_dual.PdDriver(dp, ExperimentConfig().level_params(
        dp.mesh.mesh_size))
    error = max(np.linalg.norm(bmap.rmatvec(x) - dense[0]) / np.linalg.norm(x),
                np.linalg.norm(bmap.matvec(y) - dense[1]) / np.linalg.norm(y))
    ranks = " ".join(str(us.shape[1]) for _, us in bmap.factors)
    report("level-64 boundary map compressed within its bound",
           bool(bmap.factors) and error <= bmap.error_bound,
           f"{bmap.dense.shape[0]} dense rows, strip ranks {ranks}, "
           f"error {error:.1e} <= bound {bmap.error_bound:.1e}")
    report("boundary map's trace matches a state solve at level 4",
           trace_error <= 1e-10, f"error {trace_error:.1e}")

    print(f"{failures} failure(s)")
    return 1 if failures else 0


def main(argv=None) -> int:
    """Run one subcommand; invalid input ends it with one line and code 2,
    a solve that does not converge or factor, or an allocation that fails,
    with one line and code 1."""
    args = build_parser().parse_args(argv)
    handlers = {"bench": cmd_bench, "solve": cmd_solve, "check": cmd_check}
    try:
        return handlers[args.command](args)
    except (CgConvergenceError, FactorizationError) as exc:
        print(f"tvsource: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"tvsource: error: out of memory: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"tvsource: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
