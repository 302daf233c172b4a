"""Linearized primal-dual iteration for the TV-regularized reconstruction.

One iteration from (f_n, p_n):

    f_{n+1} = clamp_box( f_n - tau * (u_a(f_n) - rho * div_rep(p_n)) )
    f~      = 2 f_{n+1} - f_n
    p_{n+1} = project_ball( p_n + (tau*rho/theta) * grad f~ )

where u_a is the adjoint state of the data misfit and div_rep = -D^T p / w
is the weighted nodal representer of the divergence (D the element
gradient, w the lumped weights).  Both updates solve their proximal
subproblems exactly in the lumped metric.  A step-size certificate
(coercivity constant, trace constant, discrete gradient norm) is checked
before a run; under it the iterate differences are monotone in the induced
preconditioner norm and decay like O(1/n).

The driver folds the step constants into the two stencil kernels of the
mesh's cell grid once, so that a step is a few array operations: the
primal step is clamp_box(f - tau * u_a - (tau*rho/w) D^T p) and the dual
step project_ball(p + (tau*rho/theta) D f~).  Only the rounding differs
from the formulas above.  Inside a run the dual lives on the mesh's cell
grid (``mesh.DualGrid``), where D is one product and one subtraction of
fixed shifted views, and D^T two copies into shifted views, one gemv and
one product, which sum a node's terms before scaling them: the kernels of
``elem_gradient`` and ``div_adjoint``, with the steps' constants folded in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem_assembly import P0VecField, P1Field
from .mesh import prolong_p0, prolong_p1
from .pde_solvers import DiscreteProblem, Observation
from .sparse_linalg import grad_operator_norm
from .tv_calculus import gradient_pairing, project_dual_ball, tv_value


@dataclass(frozen=True)
class PdParams:
    """Step sizes and run controls; ExperimentConfig holds their defaults."""

    rho: float
    tau: float
    theta: float
    max_iter: int

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
    uses the worst case c_gamma^2/c1^2, the empirical variant the sharp
    value certified from above by a Cholesky factorization, with a stated
    rounding margin (``smooth_operator_norm``).
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
                 s: float | None = None) -> StepCertificate:
    """Evaluate the step-size condition on the problem's domain box with
    the smooth bound ``s``; None takes the analytic worst case
    c_gamma^2/c1^2."""
    c1 = coercivity_c1(dp.prob.coeffs.alpha_lower, len(dp.mesh.box),
                       dp.domain_volume)
    cg = trace_constant(dp.mesh.box)
    gnorm = grad_operator_norm(dp.mesh.grid.inverse_spacing)
    s = cg**2 / c1**2 if s is None else s
    lhs = (1.0 / params.tau - s) * (params.theta / params.tau)
    rhs = params.rho**2 * gnorm**2
    return StepCertificate(c1, cg, gnorm, s, lhs, rhs, lhs > rhs)


def certify_steps(params: PdParams, dp: DiscreteProblem) -> StepCertificate:
    """Evaluate the step-size condition with the analytic worst-case bound."""
    return _certificate(params, dp)


def smooth_operator_matrix(dp) -> np.ndarray:
    """The m x m matrix K = R^T G^T W G R of the smooth-part operator.

    The operator maps a source increment v through the state and the
    boundary-loaded adjoint solve, v -> G M G^T W v in the terms of
    ``BoundaryMap`` (W the lumped weights, M = R R^T the boundary mass
    ``dp.M_gamma``).  It is symmetric positive semi-definite in the
    weighted nodal product, and K has the same nonzero spectrum, so its
    norm is the largest eigenvalue of K, which is returned exactly
    symmetric.  G is the operator the boundary map's products apply, and
    G^T W G is read from its strips (``BoundaryMap.gram``), so the
    certificate certifies the loop that runs.
    """
    R = np.linalg.cholesky(dp.M_gamma)
    K = R.T @ dp.boundary_map.gram(dp.w) @ R
    return 0.5 * (K + K.T)  # exactly symmetric, as the two products are not


def _cholesky_admits(K: np.ndarray, mu: float) -> bool:
    """Whether ``np.linalg.cholesky`` factors mu*I - K, as rounded, to
    completion."""
    a = np.negative(K)
    a.flat[::a.shape[0] + 1] += mu
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def smooth_operator_norm(dp) -> float:
    """A certified upper bound s on the norm of the smooth-part operator,
    the largest eigenvalue of ``smooth_operator_matrix(dp)``, within about
    1e-12 relative of it.

    A power iteration of 64 steps on K from the constant vector, made by
    six squarings of K / trace(K), gives the Rayleigh quotient
    rho <= lambda_max; on the benchmark levels, where lambda_2 / lambda_1
    is at most 0.65, it is lambda_max up to rounding.  mu = rho * (1 +
    2^-40) is admitted when the Cholesky factorization of mu*I - K runs
    to completion.  If it does not, the gap doubles until one is
    admitted, and mu is bisected between the last refused and the
    admitted value to 1e-12 relative.

    A factorization that completes in floating point is exact for a
    perturbed matrix: R^T R = A + dA with |dA| <= gamma_{m+1} |R^T| |R|
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    Thm 10.3, whose proof needs only that the factorization ran to
    completion, and holds for any order of the inner products, so for
    blocked factorizations too), gamma_k = k u / (1 - k u), u = 2^-53.
    With |R^T| |R| <= d d^T, d_i^2 = a_ii / (1 - gamma_{m+1}), the
    2-norm of dA is at most gamma_{m+1} trace(A) / (1 - gamma_{m+1}), and
    the rounding of the diagonal mu - k_ii adds at most u trace(A) / (1 -
    u).  So lambda_max(K) <= mu + 2 gamma_{m+2} trace(A), the factor 2
    also covering the rounding of the trace and of the margin, and s is
    that sum rounded up.  The certificate is thus proven for K as built,
    with no eigensolver.
    """
    K = smooth_operator_matrix(dp)
    m = K.shape[0]
    # the eigenvalues of K / trace(K) lie in [0, 1], the largest at least
    # 1/m: its 64th power cannot overflow, nor underflow below m = 60,000
    P = K / K.trace()
    for _ in range(6):
        P = P @ P
    x = P.sum(axis=1)
    rho = float(x @ (K @ x)) / float(x @ x)
    if not 0.0 < rho < math.inf:  # also a NaN: no mu could be admitted
        raise ValueError(f"the smooth-part operator has Rayleigh quotient "
                         f"{rho}; it must be positive and finite")
    lo, gap = rho, 2.0**-40
    while not _cholesky_admits(K, rho * (1.0 + gap)):
        lo, gap = rho * (1.0 + gap), 2.0 * gap
    hi = rho * (1.0 + gap)
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if _cholesky_admits(K, mid):
            hi = mid
        else:
            lo = mid
    gamma = (m + 2) * 2.0**-53 / (1.0 - (m + 2) * 2.0**-53)
    trace = float((hi - K.diagonal()).sum())  # of hi*I - K as factored
    return math.nextafter(hi + 2.0 * gamma * trace, math.inf)


def certify_steps_empirical(params: PdParams,
                            dp: DiscreteProblem) -> StepCertificate:
    """Step-size certificate using the computed smooth-operator norm.

    The analytic constants are pessimistic by orders of magnitude here, so
    they force uselessly small steps; the computed norm, a proven upper
    bound within about 1e-12 relative of the sharp value, certifies
    practical step sizes while keeping every monotonicity guarantee of
    the iteration.
    """
    return _certificate(params, dp, smooth_operator_norm(dp))


@dataclass
class PdState:
    """The last iterate pair of a run, its index n, and its stopping
    value, trace on Gamma and objective."""

    f: P1Field
    p: P0VecField
    n: int
    final_tolerance: float  # stopping value at f
    u_gamma: np.ndarray  # trace on Gamma of the state at f
    objective: float  # misfit + rho * TV at f

    @property
    def stopped_by_tolerance(self) -> bool:
        return self.final_tolerance <= 0.0


def _frozen(value) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array.

    A step's scalar operand that is already an array skips the conversion a
    Python float pays on every numpy call; the ufunc and its float64
    arithmetic, and so the bits, stay the same.
    """
    a = np.array(value, dtype=np.float64)
    a.flags.writeable = False
    return a


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


class PdDriver:
    """Primal-dual iteration bound to one assembled problem; raises
    ValueError unless ``certify_steps_empirical`` admits its steps there.

    Next to the certificate it builds the two step kernels on the mesh's
    cell grid (``grid``, ``TriMesh.grid``): the dual step's gradient,
    ``gradient_kernel`` with s_c = sigma / h_c, sigma = tau*rho/theta and
    h_c the grid spacing; and the primal step's divergence,
    ``divergence_kernel`` with weights (1, h_x/h_y) and the nodal scale
    |T| * tau*rho / (h_x * w), which sums the terms before it scales
    them.  It also builds the weights w / tau^2 of the stopping
    norm; raises ValueError, before the certificate, when tau is so small
    that these weights overflow (a tau so large that tau^2 overflows makes
    them 0, and the certificate refuses it).  tau and the problem's box
    (``box``) are kept as read-only 0-d arrays, the primal step's
    operands.

    Before the certificate it compresses the problem's boundary map
    (``BoundaryMap.compress``) when G is larger than 2 MiB, a per-core
    L2 cache of common hosts, beyond which the loop's two products with G
    stream it from further out on every iteration, and the run may make
    at least 2m iterations; so the certificate certifies the operator the
    loop applies.  The strip SVDs cost O(n m^2) and save a share of the
    2 n m of each iteration's products, so the iterations that repay them
    grow like m: at level 64, driver build plus run broke even at 1.7m to
    1.9m iterations on both Gamma cases (m = 65: 5.8 ms of SVDs against
    49-51 us saved per iteration; m = 129: 23 ms against 100-104 us).
    The rule reads G's size and max_iter only, nothing of the host, and
    keeps every other map one dense strip: that of every level up to 32
    of the benchmark, and of every run of fewer than 2m iterations.

    ``primal_step`` and ``dual_step`` take and give the dual as a grid;
    ``grid.to_grid`` and ``grid.from_grid`` map it to and from the
    (n_triangles, 2) layout of ``run``'s arguments, hook and result.  Each
    kernel writes to a buffer of the driver, so one driver runs one step
    at a time.
    """

    def __init__(self, dp: DiscreteProblem, params: PdParams):
        self.dp = dp
        self.params = params
        self.box = tuple(map(_frozen, dp.prob.box))
        self._tau = _frozen(params.tau)
        with np.errstate(divide="ignore", over="ignore"):
            # numpy's scalar power calls C pow, as Python's float power does,
            # but gives inf where that raises OverflowError
            self._w_tau2 = dp.w / np.float64(params.tau) ** 2
        if not np.isfinite(self._w_tau2).all():
            raise ValueError(
                f"tau {params.tau:.6g} is too small: the weights w / tau^2 "
                "of the stopping norm overflow")
        bmap = dp.boundary_map
        n, m = bmap.shape
        if 8 * n * m > 2**21 and params.max_iter >= 2 * m:
            bmap.compress()
        self.certificate = cert = certify_steps_empirical(params, dp)
        if not cert.valid:
            raise ValueError(
                f"step-size condition violated: lhs {cert.lhs:.6g} "
                f"<= rhs {cert.rhs:.6g}; decrease tau or rho")
        self._t1, self._t2 = params.stopping_offsets(self.dp.mesh.mesh_size)
        self.grid = grid = dp.mesh.grid
        tau_rho, (c_x, c_y) = params.tau * params.rho, grid.inverse_spacing
        sigma = tau_rho / params.theta
        self._gradient = grid.gradient_kernel((c_x * sigma, c_y * sigma))
        self._divergence = grid.divergence_kernel(
            (1.0, c_y / c_x), c_x * grid.area * tau_rho / dp.w)

    # -- single updates ------------------------------------------------------

    def primal_step(self, f: P1Field, p: P0VecField,
                    u_adjoint: P1Field) -> P1Field:
        """Exact solution of the box-constrained primal proximal subproblem,
        clamp_box(f - tau * u_adjoint - (tau*rho/w) D^T p), for a dual p on
        the grid."""
        step = u_adjoint * self._tau
        np.subtract(f, step, out=step)
        step -= self._divergence(p)
        # clip keeps a -0.0 at a zero bound, as np.maximum would not; the
        # method skips np.clip's dispatch
        return step.clip(*self.box, out=step)

    def dual_step(self, p: P0VecField, f_tilde: P1Field) -> P0VecField:
        """Exact solution of the ball-constrained dual proximal subproblem,
        project_ball(p + (tau*rho/theta) * grad f_tilde), for a dual p on
        the grid; its padding cells are set to +0.0."""
        step = self._gradient(f_tilde)
        step += p
        step = project_dual_ball(step)
        step[self.grid.padding] = 0.0
        return step

    def stopping_value(self, residual: P1Field,
                       g0_norm: float | None = None) -> tuple[float, float]:
        """Stopping functional at f, given the residual f - f_next of its
        primal step.

        The lumped norm of the fixed-point residual (f - f_next) / tau minus
        the offsets t1 and t2 * g0_norm, where g0_norm is that norm at the
        run's first iterate (this one, when None).  Returns the value and
        g0_norm; a NaN in f_next makes the value NaN.
        """
        g_norm = math.sqrt((self._w_tau2 * residual).dot(residual))
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
        u = dp.boundary_map.rmatvec(dp.w * delta_f)  # its state's trace
        t_f = dp.lumped_inner(delta_f, delta_f) / prm.tau
        t_smooth = float(u @ (dp.M_gamma @ u))  # <delta_f, its adjoint>_w
        t_cross = 2.0 * prm.rho * gradient_pairing(dp.mesh, delta_f, delta_p)
        t_p = (prm.theta / prm.tau * self.grid.area
               * float(np.square(delta_p).sum()))
        value = t_f - t_smooth - t_cross + t_p
        scale = abs(t_f) + abs(t_smooth) + abs(t_cross) + abs(t_p)
        if value < -1e-10 * max(scale, 1e-300):
            raise RuntimeError(
                f"preconditioner norm came out negative ({value:.3e}); "
                "the step-size certificate does not hold")
        return value

    # -- full run --------------------------------------------------------------

    @np.errstate(over="ignore")  # an overflow fails the finiteness checks
    def run(self, z: Observation, f0: P1Field | None = None,
            p0: P0VecField | None = None, on_iteration=None) -> PdState:
        """Iterate until the stopping functional is nonpositive or max_iter.

        ``PdState`` holds the last iterate with its stopping value and its
        objective (``objective``: the misfit plus rho times the total
        variation), evaluated there only.  A start not given is taken from
        compatible_start.

        The iteration reads the state only on the observed boundary, through
        the problem's BoundaryMap, and makes no PDE solve; the last
        iterate's trace is ``PdState.u_gamma``.  ``on_iteration(n, f, p,
        u_gamma, u_a, stop)`` is called at every iterate with the state's
        trace on Gamma (one value per observed node), the adjoint state u_a
        and the iterate's stopping value; the run never writes to an array
        it has handed over, so a hook may keep them.  A hook that wants
        every iterate's objective computes it there, as
        ``objective(f, pde_solvers.misfit(dp, u_gamma, z))``, and one that
        checks the preconditioner norm of each step as ``b_norm_sq`` of
        the differences of consecutive iterates.
        Raises ValueError unless ``z`` holds one value at each of the
        problem's observed nodes, and when the misfit of an iterate is not
        finite, before any step from it: a NaN in f makes it NaN, and the
        total variation of an f clipped to its finite box is finite.
        """
        dp = self.dp
        default_f, default_p = compatible_start(dp)
        f = np.clip(np.asarray(default_f if f0 is None else f0, dtype=float),
                    *self.box)
        grid = self.grid
        p = grid.to_grid(project_dual_ball(
            np.asarray(default_p if p0 is None else p0, dtype=float)))
        z_gamma = dp.observed_values(z)
        w, M_gamma, bmap = dp.w, dp.M_gamma, dp.boundary_map
        trace, matvec = bmap.trace, bmap.matvec
        primal_step, dual_step = self.primal_step, self.dual_step
        stopping_value, max_iter = self.stopping_value, self.params.max_iter
        f_tilde = np.empty_like(f)

        g0_norm = None
        for n in range(max_iter + 1):
            u_gamma = trace(w * f)
            r = u_gamma - z_gamma
            m_r = M_gamma.dot(r)
            misfit = 0.5 * float(r.dot(m_r))
            if not math.isfinite(misfit):  # before a step from this iterate
                raise ValueError(
                    f"data misfit {misfit} at iteration {n}: the "
                    "observation values are out of range")
            u_a = matvec(m_r)
            f_next = primal_step(f, p, u_a)
            residual = f - f_next
            tol_val, g0_norm = stopping_value(residual, g0_norm)
            if on_iteration is not None:
                on_iteration(n, f, grid.from_grid(p), u_gamma, u_a, tol_val)
            if tol_val <= 0.0 or n == max_iter:
                break

            # after the clip only a NaN leaves the box, and a NaN in f_next
            # makes its stopping value NaN
            if math.isnan(tol_val):
                raise RuntimeError(
                    f"primal iterate left the box at iteration {n + 1}")
            # the extrapolated point f~ = f_next - (f - f_next)
            p_next = dual_step(p, np.subtract(f_next, residual, out=f_tilde))
            # NaN fails it too
            if not (-1.0 - 1e-15 <= p_next.min()
                    and p_next.max() <= 1.0 + 1e-15):
                raise RuntimeError(
                    f"dual iterate left the unit ball at iteration {n + 1}")
            f, p = f_next, p_next
        return PdState(f, grid.from_grid(p), n, tol_val, u_gamma,
                       self.objective(f, misfit))


def run(dp: DiscreteProblem, z: Observation, params: PdParams, f0=None,
        p0=None, on_iteration=None) -> PdState:
    return PdDriver(dp, params).run(z, f0, p0, on_iteration)


@dataclass
class LevelRun:
    level: int
    problem: DiscreteProblem
    observation: Observation
    params: PdParams
    state: PdState


class MultilevelError(RuntimeError):
    """A level of a multilevel run failed; every level before it has been
    yielded."""

    def __init__(self, level: int, cause: Exception):
        super().__init__(f"level {level} failed: {cause}")
        self.level = level
        self.cause = cause


def multilevel_run(levels, make_level, on_iteration=None):
    """Run the iteration level by level with warm-started iterates,
    yielding each level's LevelRun once its run has ended.

    ``levels`` must start at 4 and double at every step; the check is made
    when the first level is asked for.  ``make_level`` maps a level to its
    (problem, observation, params) and is called for a level only once the
    level before it has been consumed.  The first level starts from
    compatible_start, and the final iterate pair of each level is
    interpolated onto the next mesh as its starting point; only the level
    before is held.  A level's boundary map is released before it is
    yielded.
    """
    levels = list(levels)
    if not levels or levels[0] != 4 or any(
            b != 2 * a for a, b in zip(levels, levels[1:])):
        raise ValueError(
            f"levels must start at 4 and double at each step, got {levels}")
    prev = None
    for level in levels:
        try:
            dp, z, params = make_level(level)
            f0 = p0 = None
            if prev is not None:
                f0 = prolong_p1(prev.state.f, prev.problem.mesh, dp.mesh)
                p0 = prolong_p0(prev.state.p, prev.problem.mesh, dp.mesh)
            state = run(dp, z, params, f0=f0, p0=p0, on_iteration=on_iteration)
        except Exception as exc:
            raise MultilevelError(level, exc) from exc
        dp.release_loop_arrays()
        prev = LevelRun(level, dp, z, params, state)
        yield prev
