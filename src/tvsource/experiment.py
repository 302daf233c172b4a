"""End-to-end benchmark: desk-scale reconstruction study on (-1,1)^2.

Builds the piecewise-constant diffusion matrix and the discontinuous truth
source on nested structured meshes, synthesizes noisy boundary data,
reconstructs level by level with warm starts, and reports the error table
together with optional field exports.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .fem_assembly import CoefficientSet, NeumannData, P1Field
from .mesh import GammaSpec, TriMesh, build_structured
from .pde_solvers import DiscreteProblem, Observation, ProblemDef
from .primal_dual import LevelRun, PdParams, multilevel_run

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


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _uniform_noise(seed, k: int) -> list[float]:
    """The first k draws of ``np.random.default_rng(seed).uniform(-1.0,
    1.0, k)``, bit for bit, without importing numpy.random.

    ``seed`` is a non-negative int or a sequence of them, as SeedSequence
    takes it (NumPy NEP 19): a negative entry raises ValueError and a
    non-integer TypeError.  PCG64 is O'Neill's XSL-RR 128/64 generator
    (HMC-CS-2014-0905).
    """
    try:
        entries = [operator.index(seed)]
    except TypeError:
        entries = [operator.index(v) for v in seed]
    words = []  # SeedSequence's entropy: each int's 32-bit words, low first
    for n in entries:
        if n < 0:
            raise ValueError(f"seed entries must be non-negative, got {n}")
        words += [n >> s & _M32 for s in range(0, max(n.bit_length(), 1), 32)]

    def hasher(const, mult):  # SeedSequence's hashmix, own running constant
        def hashmix(value):
            nonlocal const
            value ^= const
            const = const * mult & _M32
            value = value * const & _M32
            return value ^ value >> 16
        return hashmix

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    generate = hasher(0x8B51F9DD, 0x58F38DED)  # generate_state(4, uint64)
    state32 = [generate(pool[i % 4]) for i in range(8)]
    s0, s1, i0, i1 = (state32[j] | state32[j + 1] << 32 for j in (0, 2, 4, 6))

    # PCG64's seeding: from state 0, one step, add the seed, one step
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    state = ((inc + (s0 << 64 | s1)) * mult + inc) & _M128
    draws = []
    for _ in range(k):
        state = (state * mult + inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        draws.append(-1.0 + 2.0 * ((x >> 11) * 2.0 ** -53))
    return draws


def synthesize_observation(dp: DiscreteProblem, f_truth: P1Field,
                           theta_level: float, seed,
                           u_gamma: np.ndarray | None = None) -> Observation:
    """Trace of the truth state on the observed sides plus uniform noise.

    ``u_gamma`` is that trace, one value per observed node; when None it is
    read from the boundary map at ``f_truth``.  Noise: one draw per
    observation node in increasing node order, the draws of
    ``np.random.default_rng(seed).uniform(-1.0, 1.0, k)`` bit for bit,
    scaled by ``theta_level``; that is SeedSequence(seed) (NumPy NEP 19)
    seeding PCG64 (XSL-RR 128/64) through ``generate_state(4, uint64)``,
    and draw j is -1 + 2 (x_j >> 11) 2^-53 for the j-th 64-bit output x_j.
    The draws are computed with integer arithmetic, so numpy.random is not
    imported.  ``seed`` is a non-negative int or a sequence of them.  The
    recorded noise level is the boundary L2 norm of the perturbation;
    raises ValueError when it is not finite.
    """
    if u_gamma is None:
        u_gamma = dp.boundary_map.trace(dp.w * f_truth)
    nodes = dp.gamma_nodes
    noise = theta_level * np.array(_uniform_noise(seed, nodes.shape[0]))
    with np.errstate(over="ignore"):  # an overflow fails the check below
        noise_level = dp.gamma_norm(noise)
    if not math.isfinite(noise_level):
        raise ValueError(f"the noise level is {noise_level}: the noise scale "
                         f"{theta_level:.3g} is out of range")
    return Observation(nodes, u_gamma + noise, noise_level)


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
    truth_refine: bool = False     # synthesize data on a once-refined mesh
    out_dir: str = "results"
    export_format: str = "csv"     # csv | vtk | none

    def __post_init__(self):
        """Reject a field of the wrong type or range, naming the field, an
        unknown gamma case and box bounds that do not increase."""
        def real(v):  # bool is a subclass of int, so compare types exactly
            return type(v) in (int, float) and -math.inf < v < math.inf

        positive = (lambda v: real(v) and v > 0, "a positive number")
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
            "truth_refine": (lambda v: type(v) is bool, "true or false"),
            "gamma_case": text, "out_dir": text,
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
                        theta=self.theta, max_iter=self.max_iter)

    def setup_level(self, level: int):
        """The level's assembled problem, truth source and iteration
        parameters; nothing is factored."""
        prob, f_truth = build_benchmark_problem(level, self.gamma_case,
                                                self.box)
        dp = DiscreteProblem(prob)
        return dp, f_truth, self.level_params(dp.mesh.mesh_size)


def read_config_file(path: str) -> dict:
    """The ExperimentConfig field values in the JSON config file at
    ``path``, its lists made tuples; raises ValueError naming the file
    unless it holds UTF-8 JSON text, an object whose keys are field names.
    ``json`` is imported here, its one use, so a run without a config
    file does not load it."""
    import json

    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # RecursionError: the decoder recurses once per nesting level
        except (json.JSONDecodeError, UnicodeDecodeError,
                RecursionError) as exc:
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


def _level_record(run: LevelRun, f_truth: P1Field,
                  truth_trace: np.ndarray) -> RunRecord:
    """The table row of a finished level, against its truth source and the
    truth state's trace on Gamma.

    The truth and the reconstructed constrained states solve Dirichlet
    problems that differ only in their source and their data on Gamma, so
    their difference solves one: source f_truth - f, data the difference
    of the traces on Gamma and 0 on the rest of the boundary.
    """
    dp, state = run.problem, run.state
    bvals = np.zeros(dp.mesh.n_vertices)
    bvals[dp.gamma_nodes] = truth_trace - state.u_gamma
    diff = dp.solve_dirichlet(f_truth - state.f, bvals)
    return RunRecord(
        level=run.level, h=dp.mesh.mesh_size, rho=run.params.rho,
        delta=run.observation.noise_level, iterations=state.n,
        tolerance=state.final_tolerance,
        err_f_L2=dp.l2_norm(f_truth - state.f),
        err_u_L2=dp.l2_norm(diff), err_u_H1=dp.h1_norm(diff))


def run_benchmark(config: ExperimentConfig) -> list[RunRecord]:
    """Multilevel reconstruction over config.levels; returns the table rows.

    out_dir is created before the first level is set up.  Each level, once
    its run has ended, appends its row to out_dir/table.csv and exports its
    fields before the next level is set up.  A failure ends the table with
    an ``# incomplete:`` line naming it, and is raised again.
    """
    truth = None  # the running level's truth source and its trace on Gamma

    def make_level(level):
        nonlocal truth
        dp, f_truth, params = config.setup_level(level)
        truth = f_truth, dp.boundary_map.trace(dp.w * f_truth)
        theta_l = config.noise_coef * dp.mesh.mesh_size * math.sqrt(params.rho)
        observed = truth[1]
        if config.truth_refine:
            fine_prob, fine_truth = build_benchmark_problem(
                2 * level, config.gamma_case, config.box)
            u_fine = DiscreteProblem(fine_prob).solve_state(fine_truth)
            observed = u_fine[fine_prob.mesh.nearest_nodes(
                dp.mesh.vertices[dp.gamma_nodes])]
        z = synthesize_observation(dp, f_truth, theta_l, [config.seed, level],
                                   u_gamma=observed)
        return dp, z, params

    os.makedirs(config.out_dir, exist_ok=True)
    records = []
    with open(os.path.join(config.out_dir, "table.csv"), "w") as table:
        table.write(RunRecord.CSV_HEADER + "\n")
        try:
            for run_ in multilevel_run(config.levels, make_level):
                records.append(_level_record(run_, *truth))
                table.write(records[-1].csv_row() + "\n")
                table.flush()
                export_benchmark(config, run_)
        except Exception as exc:
            table.write(f"# incomplete: {exc}\n")
            raise
    return records


def export_benchmark(config: ExperimentConfig, run: LevelRun):
    """Write a finished level's reconstruction, dual field and observation
    into out_dir, in config.export_format."""
    ext = config.export_format
    if ext == "none":
        return
    mesh = run.problem.mesh
    base = os.path.join(config.out_dir, f"level{run.level}")
    export_field(mesh, run.state.f, f"{base}_f.{ext}", ext, "reconstruction")
    export_field(mesh, run.state.p, f"{base}_p.{ext}", ext, "dual")
    write_observation_csv(mesh, run.observation, f"{base}_observation.csv")


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


# rows per formatting pass: the text of a whole field at once would raise
# the peak memory of an export
_BLOCK_ROWS = 256


def _write_rows(fh, fmt: str, rows: np.ndarray):
    """Write ``fmt % tuple(row)`` and a newline for each row of a 2-D array,
    the bytes np.savetxt writes, formatted one block of rows per %."""
    for start in range(0, rows.shape[0], _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        fh.write(((fmt + "\n") * block.shape[0])
                 % tuple(block.ravel().tolist()))


def _write_csv_field(mesh, comps, nodal, path):
    """One CSV file of the field ``comps``, a row per node or per triangle
    at its point, on the grid's axes or on each triangle type's: each axis
    is formatted once, and a grid row's values by one %."""
    n = mesh.level + 1
    x, y = mesh.vertices[:n, 0], mesh.vertices[::n, 1]
    # the centroids of cell (ix, iy)'s lower (bl, br, tr) and upper (bl, tr,
    # tl) triangle, in the bits of the mean of their vertices
    axes = [(x, y)] if nodal else [
        (((x[:-1] + x[1:]) + x[1:]) / 3, ((y[:-1] + y[:-1]) + y[1:]) / 3),
        (((x[:-1] + x[1:]) + x[:-1]) / 3, ((y[:-1] + y[1:]) + y[1:]) / 3)]
    k = comps.shape[1]
    names = ["value"] if k == 1 else [f"value_{j + 1}" for j in range(k)]
    # a grid row's format, a mark per triangle type in place of its y text
    tail = "," + ",".join(["%.17g"] * k) + "\n"
    row = "".join(f"{v:.10e},{mark}{tail}" for vs in zip(
        *(a.tolist() for a, _ in axes)) for v, mark in zip(vs, "\0\1"))
    y_text = zip(*([f"{v:.10e}" for v in b.tolist()] for _, b in axes))
    with open(path, "w") as fh:
        fh.write(",".join(["x1", "x2"] + names) + "\n")
        for ys, values in zip(y_text, comps.reshape(len(axes[0][1]), -1)):
            fmt = row
            for mark, text in zip("\0\1", ys):
                fmt = fmt.replace(mark, text)
            fh.write(fmt % tuple(values.tolist()))


def _write_vtk_field(mesh, comps, nodal, path, name):
    """One legacy ASCII VTK file of the field ``comps``.  Vertex (ix, iy)
    is (x[ix], y[iy]), so the POINTS text is that of each grid axis,
    formatted once and joined grid row by grid row."""
    nt, n = mesh.n_triangles, mesh.level + 1
    x, y = ([f"{v:.10e}" for v in axis.tolist()]
            for axis in (mesh.vertices[:n, 0], mesh.vertices[::n, 1]))
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 2.0\n")
        fh.write(f"{name}\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_vertices} float\n")
        for y_text in y:
            tail = f" {y_text} 0.0\n"
            fh.write(tail.join(x) + tail)
        fh.write(f"CELLS {nt} {4 * nt}\n")
        _write_rows(fh, "3 %d %d %d", mesh.triangles)
        fh.write(f"CELL_TYPES {nt}\n" + "5\n" * nt)
        fh.write(f"{'POINT_DATA' if nodal else 'CELL_DATA'} "
                 f"{mesh.n_vertices if nodal else nt}\n")
        k = comps.shape[1]
        if k == 1:
            fh.write(f"SCALARS {name} float 1\nLOOKUP_TABLE default\n")
            fmt = "%.10e"
        else:
            fh.write(f"VECTORS {name} float\n")
            # VTK vectors have three components: the missing ones are
            # written as the text of a formatted 0.0
            fmt = " ".join(["%.10e"] * k + [f"{0.0:.10e}"] * (3 - k))
        _write_rows(fh, fmt, comps)


def write_observation_csv(mesh: TriMesh, z: Observation, path: str):
    with open(path, "w") as fh:
        fh.write("node_x1,node_x2,z_value\n")
        _write_rows(fh, "%.10e,%.10e,%.17g",
                    np.column_stack([mesh.vertices[z.nodes], z.values]))


def read_observation_csv(path: str, mesh: TriMesh,
                         nodes: np.ndarray) -> Observation:
    """Match observation rows to the sorted observed nodes ``nodes``.

    Each row's point is rounded to its structured-grid node, which must be
    one of ``nodes`` within 1e-8 h; every such node must appear exactly
    once, and every entry must be finite.  Each error names the file.
    """
    with warnings.catch_warnings():
        # a file without data rows is reported below, not by numpy
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:  # an entry or a row numpy cannot parse
            raise ValueError(f"observation file {path}: {exc}") from exc
    if data.size == 0:
        raise ValueError(f"observation file {path} holds no data rows")
    if data.shape != (nodes.shape[0], 3):
        raise ValueError(
            f"observation file {path} has {data.shape[0]} rows of "
            f"{data.shape[1]} columns, expected {nodes.shape[0]} boundary "
            "nodes of 3")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"observation file {path} holds non-finite entries")
    idx = mesh.nearest_nodes(data[:, :2])
    pos = np.minimum(np.searchsorted(nodes, idx), nodes.shape[0] - 1)
    dist = np.hypot(*(mesh.vertices[idx] - data[:, :2]).T)
    unmatched = (nodes[pos] != idx) | (dist > 1e-8 * mesh.mesh_size)
    if np.any(unmatched):
        x, y = data[np.argmax(unmatched), :2]
        raise ValueError(f"observation point ({x}, {y}) in {path} matches "
                         "no node on the observed boundary")
    counts = np.bincount(pos, minlength=nodes.shape[0])
    if np.any(counts > 1):
        x, y = mesh.vertices[nodes[np.argmax(counts > 1)]]
        raise ValueError(f"observation file {path} lists node ({x}, {y}) "
                         "more than once")
    values = np.empty(nodes.shape[0])
    values[pos] = data[:, 2]
    return Observation(nodes, values)
