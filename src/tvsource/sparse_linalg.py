"""Sparse symmetric solves: Jacobi-preconditioned CG and a power iteration.

The conjugate gradient solver handles the singular pure-Neumann case by
mean deflation: the load is projected onto the range of the operator and
the result is re-centered to the zero-weighted-mean representative, so
the returned solution lives in the discrete mean-free space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix


@dataclass
class SolveReport:
    iterations: int
    relative_residual: float
    converged: bool


class CgConvergenceError(RuntimeError):
    """CG or the power iteration did not converge; carries the report."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


def cg_solve(A: csr_matrix, b: np.ndarray, tol: float = 1e-10,
             max_iter: int | None = None,
             mean_weights: np.ndarray | None = None,
             x0: np.ndarray | None = None):
    """Solve the SPD (or mean-deflated semi-definite) system A x = b.

    Parameters
    ----------
    A : symmetric positive (semi-)definite sparse matrix.
    b : right-hand side.
    tol : relative residual target ||Ax-b|| / ||b||.
    max_iter : iteration cap, defaults to max(200, 10n).
    mean_weights : positive weights w; when given, the constant vector is
        treated as the kernel of A.  The load is shifted into the compatible
        range and the returned x has zero weighted mean, sum(w*x) = 0.
    x0 : optional initial guess.

    Returns
    -------
    (x, SolveReport)

    Raises
    ------
    CgConvergenceError if the tolerance is not met within max_iter.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if max_iter is None:
        max_iter = max(200, 10 * n)

    w = None
    if mean_weights is not None:
        w = np.asarray(mean_weights, dtype=float)
        # shift the load into range(A): subtract its weighted-mean source
        b = b - (b.sum() / w.sum()) * w

    def recenter(x):
        if w is not None:
            x = x - (w @ x) / w.sum()
        return x

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)

    diag = A.diagonal().copy()
    diag[diag <= 0] = 1.0  # guard; assembled operators have positive diagonals
    inv_diag = 1.0 / diag

    # A annihilates constants, so the iterates' mean never enters the
    # residual recursion: centring the start and the result is enough
    x = np.zeros(n) if x0 is None else recenter(np.array(x0, dtype=float))
    total_iter = 0
    for _ in range(3):  # restarts if the recursive residual drifted
        r = b - A @ x
        z = inv_diag * r
        p = z.copy()
        rz = r @ z
        while total_iter < max_iter:
            if np.linalg.norm(r) <= tol * bnorm:
                break
            Ap = A @ p
            alpha = rz / (p @ Ap)
            x = x + alpha * p
            r = r - alpha * Ap
            z = inv_diag * r
            rz_new = r @ z
            p = z + (rz_new / rz) * p
            rz = rz_new
            total_iter += 1
        true_rel = np.linalg.norm(b - A @ x) / bnorm
        if true_rel <= tol or total_iter >= max_iter:
            break
    report = SolveReport(total_iter, float(true_rel), true_rel <= tol)
    if not report.converged:
        raise CgConvergenceError(
            f"CG stalled at relative residual {true_rel:.3e} "
            f"after {total_iter} iterations (target {tol:.1e})", report)
    return recenter(x), report


def weighted_power_iteration(apply, w: np.ndarray, seed: int, tol: float,
                             max_iter: int) -> float:
    """Largest eigenvalue of an operator that is self-adjoint and positive
    semi-definite in the weighted product <u, v>_w = sum(w*u*v).

    Power iteration from a seeded random start; stops when the Rayleigh
    quotient changes by at most ``tol`` relative.  Raises
    CgConvergenceError if that does not happen within ``max_iter`` steps.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(w.shape[0])
    v /= np.sqrt(w @ v**2)
    lam_prev = 0.0
    for _ in range(max_iter):
        u = apply(v)
        lam = v @ (w * u)  # Rayleigh quotient, ||v||_w = 1
        u_norm = np.sqrt(w @ u**2)
        if u_norm == 0.0:
            return 0.0
        v = u / u_norm
        if abs(lam - lam_prev) <= tol * abs(lam):
            return float(lam)
        lam_prev = lam
    raise CgConvergenceError(
        f"power iteration did not converge in {max_iter} steps",
        SolveReport(max_iter, float("nan"), False))


def grad_operator_norm(K: csr_matrix, w: np.ndarray) -> float:
    """Estimate from below of the largest ratio ||grad v|| / ||v|| over the
    piecewise-linear space, by power iteration (tolerance 1e-6, at most
    20000 steps; a Rayleigh quotient never exceeds the largest eigenvalue)
    on the generalized eigenproblem pairing the unit-diffusion stiffness
    matrix K with the lumped mass weights w, the inner product of the
    proximal steps.  Scales like 1/h on quasi-uniform meshes.
    """
    return float(np.sqrt(weighted_power_iteration(
        lambda v: (K @ v) / w, w, 12345, 1e-6, 20000)))
