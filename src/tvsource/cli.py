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
import sys

import numpy as np

from . import experiment, primal_dual
from .experiment import (ExperimentConfig, build_benchmark_problem,
                         export_field, read_observation_csv, run_benchmark)
from .mesh import build_structured, structured_mesh_size
from .pde_solvers import DiscreteProblem
from .primal_dual import certify_steps
from .sparse_linalg import (CgConvergenceError, FactorizationError,
                            grad_operator_norm)
from .tv_calculus import gradient_pairing, subgradient_witness, tv_value


def _parse_levels(text: str):
    return tuple(int(tok) for tok in text.split(","))


def _parse_box(text: str):
    return tuple(float(tok) for tok in text.split(","))


def _add_common(p: argparse.ArgumentParser):
    """Flags shared by bench and solve; each dest is an ExperimentConfig field."""
    p.add_argument("--gamma", choices=sorted(experiment.GAMMA_CASES),
                   dest="gamma_case", default=None,
                   help="observed boundary sides")
    p.add_argument("--tau", type=float, default=None, help="primal step size")
    p.add_argument("--theta", type=float, default=None, help="dual weight")
    p.add_argument("--rho-coef", type=float, default=None,
                   help="regularization: rho = rho_coef * sqrt(h)")
    p.add_argument("--box", type=_parse_box, default=None,
                   metavar="LO,HI", help="pointwise source bounds")
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--out", dest="out_dir", metavar="OUT", default=None,
                   help="output directory")
    p.add_argument("--format", choices=experiment.EXPORT_FORMATS,
                   dest="export_format", default=None,
                   help="field export format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_bench.add_argument("--record-b-norms", action="store_true",
                         default=None,
                         help="check every step's preconditioner norm (no "
                              "extra solves; not written out)")
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
        if getattr(args, f.name, None) is not None:
            fields[f.name] = getattr(args, f.name)
    return ExperimentConfig(**fields)


def cmd_bench(args) -> int:
    """The output directory is created once the input is known to be valid
    and before any level is set up: the config checked its fields, the
    gamma case and the box, the coarsest level's parameters check rho < 1
    (on the coarsest level rho is largest)."""
    config = _config_from_args(args)
    config.level_params(structured_mesh_size(config.levels[0]))
    os.makedirs(config.out_dir, exist_ok=True)
    try:
        records, runs = run_benchmark(config)
    except experiment.BenchmarkError as exc:
        experiment.write_table(exc.records,
                               os.path.join(config.out_dir, "table.csv"),
                               incomplete=str(exc))
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        print(f"partial table written to {config.out_dir}/table.csv",
              file=sys.stderr)
        return 1
    experiment.export_benchmark(config, records, runs)
    print(experiment.RunRecord.CSV_HEADER)
    for rec in records:
        print(rec.csv_row())
    print(f"table and fields written to {config.out_dir}/")
    return 0


def cmd_solve(args) -> int:
    """The level is set up once and the observation file read before the
    output directory is created, so invalid input writes nothing."""
    config = _config_from_args(args)
    dp, _, params, certificate = config.setup_level(args.level)
    z = read_observation_csv(args.observation, dp.mesh, dp.prob.gamma)
    os.makedirs(config.out_dir, exist_ok=True)
    state = primal_dual.run(dp, z, params, certificate=certificate)
    fmt = config.export_format
    if fmt != "none":
        export_field(dp.mesh, state.f,
                     os.path.join(config.out_dir,
                                  f"solve_level{args.level}_f.{fmt}"),
                     fmt, name="reconstruction")
    print(f"stopped after {state.n} iterations, "
          f"final tolerance {state.final_tolerance:.4e}, "
          f"objective {state.history[-1].objective:.6e}")
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
    report("mesh areas sum to the domain volume",
           abs(mesh.areas.sum() - 4.0) < 1e-12)

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

    xi = rng.standard_normal(dp.mesh.n_vertices)
    z = experiment.synthesize_observation(dp, f_truth, 0.0, 0)
    u = dp.solve_state(f)
    u_a = dp.solve_adjoint(u, z)
    u_bar = dp.solve_source_part(xi)
    nodes = dp.gamma_nodes
    lhs = float((u[nodes] - z.values) @ (dp.M_gamma @ u_bar)[nodes])
    rhs = dp.lumped_inner(xi, u_a)
    report("adjoint gradient identity",
           abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0),
           f"|lhs-rhs|={abs(lhs - rhs):.2e}")

    dp8 = DiscreteProblem(build_benchmark_problem(8)[0])
    gn8 = grad_operator_norm(dp8.K_unit, dp8.w)
    report("gradient norm scales like 1/h", 1.9 <= gn8 / cert.grad_norm <= 2.1,
           f"ratio={gn8 / cert.grad_norm:.3f}")

    print(f"{failures} failure(s)")
    return 1 if failures else 0


def main(argv=None) -> int:
    """Run one subcommand; invalid input ends it with one line and code 2,
    a solve that does not converge or factor with one line and code 1."""
    args = build_parser().parse_args(argv)
    handlers = {"bench": cmd_bench, "solve": cmd_solve, "check": cmd_check}
    try:
        return handlers[args.command](args)
    except (CgConvergenceError, FactorizationError) as exc:
        print(f"tvsource: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"tvsource: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
