"""Linearized primal-dual iteration for the TV-regularized reconstruction.

One iteration from (f_n, p_n):

    f_{n+1} = clamp_box( f_n - tau * (u_a(f_n) - rho * div_rep(p_n)) )
    f~      = 2 f_{n+1} - f_n
    p_{n+1} = project_ball( p_n + (tau*rho/theta) * grad f~ )

where u_a is the adjoint state of the data misfit and div_rep is the
weighted nodal representer of the divergence.  Both updates solve their
proximal subproblems exactly in the lumped metric.  A step-size certificate
(coercivity constant, trace constant, discrete gradient norm) is checked
before a run; under it the iterate differences are monotone in the induced
preconditioner norm and decay like O(1/n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fem_assembly import P0VecField, P1Field, div_adjoint, elem_gradient
from .mesh import prolong_p0, prolong_p1
from .pde_solvers import DiscreteProblem, Observation
from .sparse_linalg import grad_operator_norm
from .tv_calculus import gradient_pairing, project_dual_ball, tv_value


@dataclass(frozen=True)
class PdParams:
    """Step sizes and run controls."""

    rho: float
    tau: float = 2e-4
    theta: float = 5e-2
    max_iter: int = 600
    record_b_norms: bool = False

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0):
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        if self.tau <= 0 or self.theta <= 0:
            raise ValueError("tau and theta must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")

    def stopping_offsets(self, h: float) -> tuple[float, float]:
        """Offsets t1, t2 of the stopping rule on a mesh of size h."""
        return 1e-5 * math.sqrt(h), 1e-4 * math.sqrt(h)


@dataclass(frozen=True)
class StepCertificate:
    """Evaluated step-size condition (1/tau - s)*(theta/tau) > rho^2*|grad|^2.

    ``smooth_bound`` is the bound s on the norm of the smooth-part operator
    (source difference to adjoint-state difference): the analytic variant
    uses the worst case c_gamma^2/c1^2, the empirical variant a computed
    sharp value.
    """

    c1: float
    c_gamma: float
    grad_norm: float
    smooth_bound: float
    lhs: float
    rhs: float
    valid: bool


def coercivity_c1(alpha_lower: float, d: int = 2,
                  domain_volume: float = 4.0) -> float:
    """Coercivity constant of the bilinear form over mean-free functions."""
    if alpha_lower <= 0 or domain_volume <= 0 or d < 1:
        raise ValueError("alpha_lower, dimension and volume must be positive")
    return alpha_lower / (1.0 + 1.5 ** ((d + 2) / 4.0)
                          * domain_volume ** (1.0 / d))


def trace_constant(box_bounds) -> float:
    """Boundary-trace constant sqrt((d + hbar^2)/hlow) of a box containing 0."""
    box = [tuple(map(float, ab)) for ab in box_bounds]
    if not box:
        raise ValueError("empty box")
    for a, b in box:
        if not (a < 0.0 < b):
            raise ValueError("the box must contain 0 in its interior")
    ends = np.abs(np.asarray(box)).ravel()
    hlow, hbar = ends.min(), ends.max()
    return math.sqrt((len(box) + hbar**2) / hlow)


def _certificate(params: PdParams, dp: DiscreteProblem,
                 smooth_bound=None) -> StepCertificate:
    """Evaluate the step-size condition on the problem's domain box.

    ``smooth_bound`` maps the problem to s; None takes the analytic worst
    case c_gamma^2/c1^2.  It is called after the gradient norm, so that
    the unit stiffness is assembled before the first solve factors A and
    the assembly's temporaries do not add to the factor's memory peak.
    """
    c1 = coercivity_c1(dp.prob.coeffs.alpha_lower, len(dp.mesh.box),
                       dp.domain_volume)
    cg = trace_constant(dp.mesh.box)
    gnorm = grad_operator_norm(dp.K_unit, dp.w)
    s = cg**2 / c1**2 if smooth_bound is None else smooth_bound(dp)
    lhs = (1.0 / params.tau - s) * (params.theta / params.tau)
    rhs = params.rho**2 * gnorm**2
    return StepCertificate(c1, cg, gnorm, s, lhs, rhs, lhs > rhs)


def certify_steps(params: PdParams, dp: DiscreteProblem) -> StepCertificate:
    """Evaluate the step-size condition with the analytic worst-case bound."""
    return _certificate(params, dp, None)


def smooth_operator_norm(dp) -> float:
    """Norm of the source-to-adjoint-difference operator, exactly.

    The operator maps a source increment v through the state and the
    boundary-loaded adjoint solve, v -> G M G^T W v in the terms of
    ``BoundaryMap`` (W the lumped weights, M = R R^T).  It is symmetric
    positive semi-definite in the weighted nodal product, and its norm is
    the largest eigenvalue of the m x m matrix R^T G^T W G R, which has the
    same nonzero spectrum.  This is the sharp value the analytic
    certificate bounds by c_gamma^2/c1^2.
    """
    bmap = dp.boundary_map
    G, w = bmap.G, dp.w[:, None]
    # G^T W G eight columns at a time: no n x m temporary next to G
    gwg = np.hstack([G.T @ (w * G[:, j:j + 8])
                     for j in range(0, G.shape[1], 8)])
    return float(np.linalg.eigvalsh(bmap.R.T @ gwg @ bmap.R)[-1])


def certify_steps_empirical(params: PdParams,
                            dp: DiscreteProblem) -> StepCertificate:
    """Step-size certificate using the computed smooth-operator norm.

    The analytic constants are pessimistic by orders of magnitude here, so
    they force uselessly small steps; the computed norm, exact up to
    rounding, certifies practical step sizes while keeping every
    monotonicity guarantee of the iteration.
    """
    return _certificate(params, dp, smooth_operator_norm)


@dataclass
class IterationRecord:
    n: int
    objective: float
    tolerance: float
    step_b_norm_sq: float | None = None


@dataclass
class PdState:
    """Iterate pair plus run history."""

    f: P1Field
    p: P0VecField
    n: int
    history: list = field(default_factory=list)
    stopped_by_tolerance: bool = False
    u_gamma: np.ndarray | None = None  # trace on Gamma of the state at f

    @property
    def final_tolerance(self) -> float:
        return self.history[-1].tolerance if self.history else float("nan")


def compatible_start(dp: DiscreteProblem):
    """Constant source on the flux-compatible slice, clamped to the box,
    and the dual start p = 0.5.

    The deflated forward map cannot see the source mean, so the iteration
    keeps it: only a start whose mean is minus the total flux over the
    volume can end with the right mean.
    """
    c = -dp.b_flux.sum() / dp.domain_volume
    f0 = np.full(dp.mesh.n_vertices, float(np.clip(c, *dp.prob.box)))
    p0 = np.full((dp.mesh.n_triangles, 2), 0.5)
    return f0, p0


def extrapolate(f_new: P1Field, f_old: P1Field) -> P1Field:
    """Over-relaxed point 2*f_new - f_old (may leave the box on purpose)."""
    return 2.0 * f_new - f_old


class PdDriver:
    """Primal-dual iteration bound to one assembled problem."""

    def __init__(self, dp: DiscreteProblem, params: PdParams,
                 certificate: StepCertificate | None = None):
        self.dp = dp
        self.params = params
        self.box = self.dp.prob.box
        if certificate is None:
            certificate = certify_steps(params, dp)
        self.certificate = certificate
        if not certificate.valid:
            raise ValueError(
                f"step-size condition violated: lhs {certificate.lhs:.6g} "
                f"<= rhs {certificate.rhs:.6g}; decrease tau or rho")
        self._t1, self._t2 = params.stopping_offsets(self.dp.mesh.mesh_size)

    # -- single updates ------------------------------------------------------

    def div_rep(self, p: P0VecField) -> np.ndarray:
        """Nodal representer of div p in the lumped metric."""
        return -div_adjoint(self.dp.mesh, p) / self.dp.w

    def primal_step(self, f: P1Field, p: P0VecField,
                    u_adjoint: P1Field) -> P1Field:
        """Exact solution of the box-constrained primal proximal subproblem."""
        lo, hi = self.box
        step = f - self.params.tau * (u_adjoint
                                      - self.params.rho * self.div_rep(p))
        return np.clip(step, lo, hi)

    def dual_step(self, p: P0VecField, f_tilde: P1Field) -> P0VecField:
        """Exact solution of the ball-constrained dual proximal subproblem."""
        scale = self.params.tau * self.params.rho / self.params.theta
        return project_dual_ball(p + scale * elem_gradient(self.dp.mesh,
                                                           f_tilde))

    def stopping_value(self, f: P1Field, f_next: P1Field,
                       g0_norm: float | None = None) -> tuple[float, float]:
        """Stopping functional at f, given its primal step f_next.

        The lumped norm of the fixed-point residual (f - f_next) / tau minus
        the offsets t1 and t2 * g0_norm, where g0_norm is that norm at the
        run's first iterate (this one, when None).  Returns the value and
        g0_norm.
        """
        g_norm = self.dp.lumped_norm((f - f_next) / self.params.tau)
        if g0_norm is None:
            g0_norm = g_norm
        return g_norm - self._t1 - self._t2 * g0_norm, g0_norm

    def objective(self, f: P1Field, misfit: float) -> float:
        """Data misfit plus rho times the total variation of f."""
        return misfit + self.params.rho * tv_value(self.dp.mesh, f)

    def b_norm_sq(self, delta_f: P1Field, delta_p: P0VecField) -> float:
        """Squared preconditioner norm of an iterate difference.

        Combines the two proximal metrics with the smooth coupling term; a
        negative value beyond round-off means the certificate is violated.
        """
        dp, prm = self.dp, self.params
        bmap = dp.boundary_map
        v = bmap.R.T @ (bmap.G.T @ (dp.w * delta_f))
        t_f = dp.lumped_inner(delta_f, delta_f) / prm.tau
        t_smooth = float(v @ v)  # <delta_f, adjoint of its state>_w
        t_cross = 2.0 * prm.rho * gradient_pairing(dp.mesh, delta_f, delta_p)
        q = np.ravel(delta_p) ** 2
        q *= dp.mesh.gradient_table.weights
        t_p = prm.theta / prm.tau * float(np.sum(q))
        value = t_f - t_smooth - t_cross + t_p
        scale = abs(t_f) + abs(t_smooth) + abs(t_cross) + abs(t_p)
        if value < -1e-10 * max(scale, 1e-300):
            raise RuntimeError(
                f"preconditioner norm came out negative ({value:.3e}); "
                "the step-size certificate does not hold")
        return value

    # -- full run --------------------------------------------------------------

    def run(self, z: Observation, f0: P1Field | None = None,
            p0: P0VecField | None = None, on_iteration=None) -> PdState:
        """Iterate until the stopping functional is nonpositive or max_iter.

        The history carries the objective and stopping value at every
        visited iterate, and (when enabled) the preconditioner norm of each
        step taken.  A start not given is taken from compatible_start.

        The iteration reads the state only on the observed boundary, through
        the problem's BoundaryMap, and makes no PDE solve; the last
        iterate's trace is ``PdState.u_gamma``.  ``on_iteration(n, f, p,
        u_gamma, u_a)`` is called at every iterate with the state's trace
        on Gamma (one value per observed node) and the adjoint state u_a.
        Raises ValueError unless ``z`` holds one value at each of the
        problem's observed nodes.
        """
        dp, prm = self.dp, self.params
        lo, hi = self.box
        default_f, default_p = compatible_start(dp)
        f = np.clip(np.asarray(default_f if f0 is None else f0, dtype=float),
                    lo, hi)
        p = project_dual_ball(
            np.asarray(default_p if p0 is None else p0, dtype=float))
        state = PdState(f=f, p=p, n=0)
        z_gamma = dp.observed_values(z)
        bmap = dp.boundary_map

        g0_norm = None
        for n in range(prm.max_iter + 1):
            u_gamma = bmap.trace(dp.w * f)
            r = u_gamma - z_gamma
            m_r = bmap.M @ r
            u_a = bmap.G @ m_r
            f_next = self.primal_step(f, p, u_a)
            tol_val, g0_norm = self.stopping_value(f, f_next, g0_norm)
            misfit = 0.5 * float(r @ m_r)
            record = IterationRecord(n, self.objective(f, misfit), tol_val)
            state.history.append(record)
            if on_iteration is not None:
                on_iteration(n, f, p, u_gamma, u_a)
            if tol_val <= 0.0 or n == prm.max_iter:
                break

            f_tilde = extrapolate(f_next, f)
            p_next = self.dual_step(p, f_tilde)
            if not (np.all(f_next >= lo) and np.all(f_next <= hi)):
                raise RuntimeError(
                    f"primal iterate left the box at iteration {n + 1}")
            if not np.max(np.abs(p_next)) <= 1.0 + 1e-15:
                raise RuntimeError(
                    f"dual iterate left the unit ball at iteration {n + 1}")
            if prm.record_b_norms:
                record.step_b_norm_sq = self.b_norm_sq(f_next - f, p_next - p)
            f, p = f_next, p_next
        state.f, state.p, state.n, state.u_gamma = f, p, n, u_gamma
        state.stopped_by_tolerance = tol_val <= 0.0
        return state


def run(dp: DiscreteProblem, z: Observation, params: PdParams, f0=None,
        p0=None, certificate: StepCertificate | None = None,
        on_iteration=None) -> PdState:
    return PdDriver(dp, params, certificate).run(z, f0, p0, on_iteration)


@dataclass
class LevelRun:
    level: int
    problem: DiscreteProblem
    observation: Observation
    params: PdParams
    state: PdState


class MultilevelError(RuntimeError):
    """A level of a multilevel run failed; carries the completed levels."""

    def __init__(self, level: int, completed: list, cause: Exception):
        super().__init__(f"level {level} failed: {cause}")
        self.level = level
        self.completed = completed
        self.cause = cause


def multilevel_run(levels, make_level, on_iteration=None) -> list[LevelRun]:
    """Run the iteration level by level with warm-started iterates.

    ``levels`` must start at 4 and double at every step.  ``make_level``
    maps a level to its (problem, observation, params, certificate); the
    first level starts from compatible_start, and the final iterate pair of
    each level is interpolated onto the next mesh as its starting point.
    A level's boundary map and gradient table are released once its run
    has ended.
    """
    levels = list(levels)
    if not levels or levels[0] != 4 or any(
            b != 2 * a for a, b in zip(levels, levels[1:])):
        raise ValueError(
            f"levels must start at 4 and double at each step, got {levels}")
    results: list[LevelRun] = []
    prev = None
    for level in levels:
        try:
            dp, z, params, certificate = make_level(level)
            f0 = p0 = None
            if prev is not None:
                f0 = prolong_p1(prev.state.f, prev.problem.mesh, dp.mesh)
                p0 = prolong_p0(prev.state.p, prev.problem.mesh, dp.mesh)
            state = run(dp, z, params, f0=f0, p0=p0, certificate=certificate,
                        on_iteration=on_iteration)
        except Exception as exc:
            raise MultilevelError(level, results, exc) from exc
        dp.release_loop_arrays()
        prev = LevelRun(level, dp, z, params, state)
        results.append(prev)
    return results
