"""End-to-end benchmark: desk-scale reconstruction study on (-1,1)^2.

Builds the piecewise-constant diffusion matrix and the discontinuous truth
source on nested structured meshes, synthesizes noisy boundary data,
reconstructs level by level with warm starts, and reports the error table
together with optional field exports.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .fem_assembly import CoefficientSet, NeumannData, P1Field
from .mesh import GammaSpec, TriMesh, build_structured
from .pde_solvers import DiscreteProblem, Observation, ProblemDef
from .primal_dual import (LevelRun, MultilevelError, PdParams,
                          certify_steps_empirical, multilevel_run)

GAMMA_CASES = {
    "bottom": ("bottom",),
    "bottom_left": ("bottom", "left"),
}
EXPORT_FORMATS = ("csv", "vtk", "none")

# truth source: high value inside the disk of radius 1/2, low outside,
# scaled so the exact volume integral vanishes
F_HIGH = 2.0 - math.pi / 8.0
F_LOW = -math.pi / 8.0


def in_square(x) -> np.ndarray:
    return (np.abs(x[..., 0]) <= 0.5) & (np.abs(x[..., 1]) <= 0.5)


def in_disk(x) -> np.ndarray:
    return x[..., 0] ** 2 + x[..., 1] ** 2 <= 0.25


def in_diamond(x) -> np.ndarray:
    return np.abs(x[..., 0]) + np.abs(x[..., 1]) <= 0.5


def benchmark_alpha(x) -> np.ndarray:
    """Symmetric diffusion matrices of the benchmark at points x (..., 2)."""
    a11 = np.where(in_square(x), 3.0, 1.0)
    a12 = np.where(in_diamond(x), 1.0, 0.0)
    a22 = np.where(in_disk(x), 4.0, 2.0)
    return np.stack([np.stack([a11, a12], axis=-1),
                     np.stack([a12, a22], axis=-1)], axis=-2)


def benchmark_truth(mesh: TriMesh) -> P1Field:
    """Nodal interpolant of the discontinuous truth source."""
    return np.where(in_disk(mesh.vertices), F_HIGH, F_LOW)


def benchmark_flux(mesh: TriMesh) -> NeumannData:
    """Piecewise-constant boundary flux, evaluated at edge midpoints."""
    mids = 0.5 * (mesh.vertices[mesh.boundary_edges[:, 0]]
                  + mesh.vertices[mesh.boundary_edges[:, 1]])
    mx, my = mids[:, 0], mids[:, 1]
    side = mesh.edge_sides
    values = np.select(
        [side == "bottom", side == "top", side == "left"],
        [np.where(mx > 0, 1.0, -2.0), np.where(mx > 0, 2.0, -1.0),
         np.where(my <= 0, 3.0, -4.0)],
        np.where(my > 0, -3.0, 4.0))  # right
    return NeumannData(values)


def gamma_sides(gamma_case: str) -> tuple:
    """The observed sides of a named gamma case."""
    if gamma_case not in GAMMA_CASES:
        raise ValueError(f"unknown gamma case {gamma_case!r}; "
                         f"choose from {sorted(GAMMA_CASES)}")
    return GAMMA_CASES[gamma_case]


def build_benchmark_problem(level: int, gamma_case: str = "bottom",
                            box=(-1.0, 3.0)):
    """Benchmark problem plus the interpolated truth source.

    Coefficients are sampled at triangle centroids, the flux at edge
    midpoints; the operator is pure Neumann (no reaction, no boundary term).
    """
    mesh = build_structured(level)
    alpha = benchmark_alpha(mesh.centroids)
    coeffs = CoefficientSet(alpha, np.zeros(mesh.n_triangles),
                            np.zeros(len(mesh.boundary_edges)),
                            alpha_lower=0.1)
    prob = ProblemDef(mesh, coeffs, benchmark_flux(mesh),
                      GammaSpec(frozenset(gamma_sides(gamma_case))), box)
    return prob, benchmark_truth(mesh)


def synthesize_observation(dp: DiscreteProblem, f_truth: P1Field,
                           theta_level: float, seed,
                           u_gamma: np.ndarray | None = None) -> Observation:
    """Trace of the truth state on the observed sides plus uniform noise.

    ``u_gamma`` is that trace, one value per observed node; when None it is
    read from the boundary map at ``f_truth``.  Noise stream: PCG64 seeded
    with ``seed``, one uniform(-1,1) draw per observation node in
    increasing node order, scaled by ``theta_level``.  The recorded noise
    level is the boundary L2 norm of the perturbation.
    """
    if u_gamma is None:
        u_gamma = dp.boundary_map.trace(dp.w * f_truth)
    nodes = dp.gamma_nodes
    rng = np.random.default_rng(seed)
    noise = theta_level * rng.uniform(-1.0, 1.0, size=nodes.shape[0])
    diff = np.zeros(dp.mesh.n_vertices)
    diff[nodes] = noise
    delta = dp.gamma_norm(diff)
    return Observation(nodes, u_gamma + noise, delta)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of a full benchmark run (all overridable from the CLI).

    The primal step defaults to tau = 5 under the computed (empirical)
    step-size certificate; the analytic worst-case certificate caps tau
    near 2e-4, which stalls the iteration at desk scale (see README).
    """

    levels: tuple = (4, 8, 16, 32)
    gamma_case: str = "bottom"
    seed: int = 0
    noise_coef: float = 1.0        # theta_l = noise_coef * h_l * sqrt(rho_l)
    rho_coef: float = 1e-3         # rho_l = rho_coef * sqrt(h_l)
    tau: float = 5.0
    theta: float = 5e-2
    max_iter: int = 600
    box: tuple = (-1.0, 3.0)
    record_b_norms: bool = False
    truth_refine: bool = False     # synthesize data on a once-refined mesh
    out_dir: str = "results"
    export_format: str = "csv"     # csv | vtk | none

    def __post_init__(self):
        """Reject a field of the wrong type or range, naming the field, an
        unknown gamma case and box bounds that do not increase."""
        def real(v):  # bool is a subclass of int, so compare types exactly
            return type(v) in (int, float) and -math.inf < v < math.inf

        positive = (lambda v: real(v) and v > 0, "a positive number")
        flag = (lambda v: type(v) is bool, "true or false")
        text = (lambda v: type(v) is str, "a string")
        rules = {
            "levels": (lambda v: type(v) is tuple and v[:1] == (4,)
                       and all(type(k) is int for k in v)
                       and all(b == 2 * a for a, b in zip(v, v[1:])),
                       "a list of integers that starts at 4 and doubles"),
            "box": (lambda v: type(v) is tuple and len(v) == 2
                    and all(map(real, v)), "a pair of finite numbers"),
            "seed": (lambda v: type(v) is int and v >= 0,
                     "a non-negative integer"),
            "max_iter": (lambda v: type(v) is int and v > 0,
                         "a positive integer"),
            "noise_coef": (lambda v: real(v) and v >= 0,
                           "a non-negative number"),
            "rho_coef": positive, "tau": positive, "theta": positive,
            "record_b_norms": flag,
            "truth_refine": flag, "gamma_case": text, "out_dir": text,
            "export_format": (EXPORT_FORMATS.__contains__,
                              f"one of {list(EXPORT_FORMATS)}"),
        }
        for name, (ok, what) in rules.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        gamma_sides(self.gamma_case)
        if not self.box[0] < self.box[1]:
            raise ValueError(f"invalid box bounds {self.box}")

    def level_params(self, h: float) -> PdParams:
        """Iteration parameters on a mesh of size h, with the mesh-coupled
        regularization rho = rho_coef * sqrt(h)."""
        return PdParams(rho=self.rho_coef * math.sqrt(h), tau=self.tau,
                        theta=self.theta, max_iter=self.max_iter,
                        record_b_norms=self.record_b_norms)

    def setup_level(self, level: int):
        """The level's assembled problem, truth source, iteration parameters
        and step-size certificate (the computed, empirical one)."""
        prob, f_truth = build_benchmark_problem(level, self.gamma_case,
                                                self.box)
        dp = DiscreteProblem(prob)
        params = self.level_params(dp.mesh.mesh_size)
        return dp, f_truth, params, certify_steps_empirical(params, dp)


def read_config_file(path: str) -> dict:
    """The ExperimentConfig field values in the JSON config file at
    ``path``, its lists made tuples; raises ValueError naming the file
    unless it holds valid JSON, an object whose keys are field names."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"config file {path} is not valid JSON: {exc}") from exc
    if type(data) is not dict:
        raise ValueError(f"config file {path} must hold a JSON object, "
                         f"got {json.dumps(data)[:40]}")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown keys in config file {path}: "
                         f"{', '.join(unknown)}")
    return {k: tuple(v) if k in ("levels", "box")
            and isinstance(v, list) else v for k, v in data.items()}


@dataclass
class RunRecord:
    """One row of the benchmark table."""

    level: int
    h: float
    rho: float
    delta: float
    iterations: int
    tolerance: float
    err_f_L2: float
    err_u_L2: float
    err_u_H1: float

    CSV_HEADER = ("level,h,rho,delta,iterations,tolerance,"
                  "err_f_L2,err_u_L2,err_u_H1")

    def csv_row(self) -> str:
        floats = (self.h, self.rho, self.delta, self.tolerance,
                  self.err_f_L2, self.err_u_L2, self.err_u_H1)
        h, rho, delta, tol, ef, eu, eh = (f"{v:.10e}" for v in floats)
        return (f"{self.level},{h},{rho},{delta},{self.iterations},"
                f"{tol},{ef},{eu},{eh}")


class BenchmarkError(RuntimeError):
    """A benchmark level failed; carries the records of completed levels."""

    def __init__(self, message: str, records: list):
        super().__init__(message)
        self.records = records


def _level_errors(run: LevelRun, truth: tuple[P1Field, np.ndarray]):
    """Source error and the two constrained-state errors against the level's
    (truth source, truth trace on Gamma).

    The truth and the reconstructed constrained states solve Dirichlet
    problems that differ only in their source and their data on Gamma, so
    their difference solves one: source f_truth - f, data the difference
    of the traces on Gamma and 0 on the rest of the boundary.
    """
    dp = run.problem
    f_truth, truth_trace = truth
    bvals = np.zeros(dp.mesh.n_vertices)
    bvals[dp.gamma_nodes] = truth_trace - run.state.u_gamma
    diff = dp.solve_dirichlet(f_truth - run.state.f, bvals)
    return (dp.l2_norm(f_truth - run.state.f),
            dp.l2_norm(diff), dp.h1_norm(diff))


def run_benchmark(config: ExperimentConfig):
    """Multilevel reconstruction over config.levels; returns records + runs."""
    # level -> (truth source, its state's trace on Gamma)
    truths: dict[int, tuple[P1Field, np.ndarray]] = {}

    def make_level(level):
        dp, f_truth, params, certificate = config.setup_level(level)
        truth_trace = dp.boundary_map.trace(dp.w * f_truth)
        truths[level] = (f_truth, truth_trace)
        theta_l = config.noise_coef * dp.mesh.mesh_size * math.sqrt(params.rho)
        observed = truth_trace
        if config.truth_refine:
            fine_prob, fine_truth = build_benchmark_problem(
                2 * level, config.gamma_case, config.box)
            u_fine = DiscreteProblem(fine_prob).solve_state(fine_truth)
            observed = u_fine[fine_prob.mesh.nearest_nodes(
                dp.mesh.vertices[dp.gamma_nodes])]
        z = synthesize_observation(dp, f_truth, theta_l, [config.seed, level],
                                   u_gamma=observed)
        return dp, z, params, certificate

    try:
        runs = multilevel_run(config.levels, make_level)
    except MultilevelError as exc:
        records = _records_for(exc.completed, truths)
        raise BenchmarkError(str(exc), records) from exc
    return _records_for(runs, truths), runs


def _records_for(runs, truths):
    records = []
    for run_ in runs:
        err_f, err_u, err_u_h1 = _level_errors(run_, truths[run_.level])
        records.append(RunRecord(
            level=run_.level, h=run_.problem.mesh.mesh_size,
            rho=run_.params.rho, delta=run_.observation.noise_level,
            iterations=run_.state.n, tolerance=run_.state.final_tolerance,
            err_f_L2=err_f, err_u_L2=err_u, err_u_H1=err_u_h1))
    return records


def write_table(records, path: str, incomplete: str | None = None):
    lines = [RunRecord.CSV_HEADER] + [r.csv_row() for r in records]
    if incomplete is not None:
        lines.append(f"# incomplete: {incomplete}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def export_benchmark(config: ExperimentConfig, records, runs):
    """Write the results table and per-level field files into out_dir."""
    os.makedirs(config.out_dir, exist_ok=True)
    write_table(records, os.path.join(config.out_dir, "table.csv"))
    if config.export_format == "none":
        return
    ext = config.export_format
    for run_ in runs:
        mesh = run_.problem.mesh
        base = os.path.join(config.out_dir, f"level{run_.level}")
        export_field(mesh, run_.state.f, f"{base}_f.{ext}", ext,
                     name="reconstruction")
        export_field(mesh, run_.state.p, f"{base}_p.{ext}", ext, name="dual")
        write_observation_csv(mesh, run_.observation,
                              f"{base}_observation.csv")


def export_field(mesh: TriMesh, values: np.ndarray, path: str,
                 fmt: str = "csv", name: str = "value"):
    """Write a nodal or per-triangle field as CSV or legacy ASCII VTK.

    CSV: one row per node (nodal fields) or per centroid (element fields),
    vector components expanded into extra columns.  Output is byte-stable
    for identical inputs.
    """
    values = np.asarray(values, dtype=float)
    nodal = values.shape[0] == mesh.n_vertices
    if not nodal and values.shape[0] != mesh.n_triangles:
        raise ValueError("field length matches neither nodes nor triangles")
    comps = values.reshape(values.shape[0], -1)
    try:
        if fmt == "csv":
            _write_csv_field(mesh, comps, nodal, path)
        elif fmt == "vtk":
            _write_vtk_field(mesh, comps, nodal, path, name)
        else:
            raise ValueError(f"unknown export format {fmt!r}")
    except OSError as exc:
        raise OSError(f"cannot write field to {path}: {exc}") from exc


def _write_csv_field(mesh, comps, nodal, path):
    points = mesh.vertices if nodal else mesh.centroids
    k = comps.shape[1]
    names = ["value"] if k == 1 else [f"value_{j + 1}" for j in range(k)]
    np.savetxt(path, np.column_stack([points, comps]), delimiter=",",
               fmt=["%.10e", "%.10e"] + ["%.17g"] * k, comments="",
               header=",".join(["x1", "x2"] + names))


def _write_vtk_field(mesh, comps, nodal, path, name):
    nt = mesh.n_triangles
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 2.0\n")
        fh.write(f"{name}\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_vertices} float\n")
        np.savetxt(fh, mesh.vertices, fmt="%.10e %.10e 0.0")
        fh.write(f"CELLS {nt} {4 * nt}\n")
        np.savetxt(fh, mesh.triangles, fmt="3 %d %d %d")
        fh.write(f"CELL_TYPES {nt}\n")
        fh.write("5\n" * nt)
        fh.write(f"{'POINT_DATA' if nodal else 'CELL_DATA'} "
                 f"{mesh.n_vertices if nodal else nt}\n")
        if comps.shape[1] == 1:
            fh.write(f"SCALARS {name} float 1\nLOOKUP_TABLE default\n")
        else:
            fh.write(f"VECTORS {name} float\n")
            # VTK vectors have three components
            comps = np.pad(comps, ((0, 0), (0, max(0, 3 - comps.shape[1]))))
        np.savetxt(fh, comps, fmt="%.10e")


def write_observation_csv(mesh: TriMesh, z: Observation, path: str):
    np.savetxt(path, np.column_stack([mesh.vertices[z.nodes], z.values]),
               fmt=["%.10e", "%.10e", "%.17g"], delimiter=",", comments="",
               header="node_x1,node_x2,z_value")


def read_observation_csv(path: str, mesh: TriMesh,
                         gamma: GammaSpec) -> Observation:
    """Match observation rows to mesh nodes on the observed sides.

    Each row's point is rounded to its structured-grid node, which must lie
    on the observed sides within 1e-8 h; every such node must appear exactly
    once, and every entry must be finite.
    """
    nodes = mesh.side_nodes(gamma.sides)
    with warnings.catch_warnings():
        # a file without data rows is reported below, not by numpy
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.size == 0:
        raise ValueError(f"observation file {path} holds no data rows")
    if data.shape != (nodes.shape[0], 3):
        raise ValueError(
            f"observation file has {data.shape[0]} rows of {data.shape[1]} "
            f"columns, expected {nodes.shape[0]} boundary nodes of 3")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"observation file {path} holds non-finite entries")
    idx = mesh.nearest_nodes(data[:, :2])
    pos = np.minimum(np.searchsorted(nodes, idx), nodes.shape[0] - 1)
    dist = np.hypot(*(mesh.vertices[idx] - data[:, :2]).T)
    unmatched = (nodes[pos] != idx) | (dist > 1e-8 * mesh.mesh_size)
    if np.any(unmatched):
        x, y = data[np.argmax(unmatched), :2]
        raise ValueError(f"observation point ({x}, {y}) matches no "
                         "node on the observed boundary")
    counts = np.bincount(pos, minlength=nodes.shape[0])
    if np.any(counts > 1):
        x, y = mesh.vertices[nodes[np.argmax(counts > 1)]]
        raise ValueError(f"observation file lists node ({x}, {y}) "
                         "more than once")
    values = np.empty(nodes.shape[0])
    values[pos] = data[:, 2]
    return Observation(nodes, values)
