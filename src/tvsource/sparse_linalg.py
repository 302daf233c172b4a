"""Sparse symmetric solves: Jacobi-preconditioned CG and a gradient norm.

The conjugate gradient solver handles the singular pure-Neumann case by
mean deflation: the load is projected onto the range of the operator and
every iterate is re-centered to the zero-weighted-mean representative, so
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
    """CG failed to reach the requested tolerance; carries the report."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


def cg_solve(A: csr_matrix, b: np.ndarray, tol: float = 1e-10,
             max_iter: int | None = None, deflate_mean: bool = False,
             lumped_weights: np.ndarray | None = None,
             x0: np.ndarray | None = None):
    """Solve the SPD (or mean-deflated semi-definite) system A x = b.

    Parameters
    ----------
    A : symmetric positive (semi-)definite sparse matrix.
    b : right-hand side.
    tol : relative residual target ||Ax-b|| / ||b||.
    max_iter : iteration cap, defaults to max(200, 10n).
    deflate_mean : treat the constant vector as the kernel of A.  The load
        is shifted into the compatible range and iterates are re-centered
        so the solution has zero weighted mean.
    lumped_weights : positive weights defining the mean (required when
        deflating); the returned x satisfies sum(w*x) = 0.
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
    if deflate_mean:
        if lumped_weights is None:
            raise ValueError("deflate_mean requires lumped_weights")
        w = np.asarray(lumped_weights, dtype=float)
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

    x = np.zeros(n) if x0 is None else recenter(np.asarray(x0, dtype=float).copy())
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
            x = recenter(x + alpha * p)
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
    return x, report


def grad_operator_norm(mesh, tol: float = 1e-6, max_iter: int = 20000) -> float:
    """Largest ratio ||grad v|| / ||v|| over the piecewise-linear space.

    Computed by power iteration on the generalized eigenproblem pairing the
    unit-diffusion stiffness matrix with the lumped mass matrix (the same
    weighted inner product used by the proximal steps).  Scales like 1/h on
    quasi-uniform meshes.
    """
    from .fem_assembly import assemble_mass, assemble_stiffness, unit_coefficients

    K = assemble_stiffness(mesh, unit_coefficients(mesh))
    _, w = assemble_mass(mesh)
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(mesh.n_vertices)
    v /= np.sqrt(w @ v**2)
    lam = 0.0
    for it in range(max_iter):
        u = (K @ v) / w
        lam_new = v @ (w * u)  # Rayleigh quotient v^T K v with ||v||_w = 1
        u_norm = np.sqrt(w @ u**2)
        v = u / u_norm
        if it > 0 and abs(lam_new - lam) <= tol * abs(lam_new):
            lam = lam_new
            break
        lam = lam_new
    else:
        raise CgConvergenceError(
            "power iteration did not converge",
            SolveReport(max_iter, float("nan"), False))
    return float(np.sqrt(lam))
