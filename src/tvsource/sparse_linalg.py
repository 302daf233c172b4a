"""Sparse symmetric operators and solves: a diagonal-storage operator
type, a block-tridiagonal factorization, Jacobi-preconditioned CG, and a
bound on the norm of the discrete gradient.

Every operator assembled on a mesh from ``build_structured`` couples a
vertex only to its neighbours in its own and the adjacent grid rows, so its
nonzero entries lie on seven diagonals, 0 and +-offset for the offsets
1, level+1 and level+2 (TriMesh.stencil_offsets), which SymmetricStencil
stores, and it is block tridiagonal in the row-major vertex numbering, with
level+1 blocks of size level+1; BlockTridiagonalFactor solves such systems
directly, in plain numpy, so the runtime needs no scipy.  The conjugate
gradient solver polishes a solution that misses a relative residual
target; a singular system (the constants as kernel) is solved for a load
in its range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class SymmetricStencil:
    """Symmetric n x n matrix stored by its main diagonal and its upper
    diagonals at a few fixed offsets.

    ``diags[k, i]`` is the entry (i, i + offsets[k]), and by symmetry the
    entry (i + offsets[k], i); the last offsets[k] entries of row k lie
    outside the matrix and are ignored.  ``offsets`` is strictly increasing
    and starts with 0.  A product is one shifted-slice update per stored
    diagonal and side, for one vector of shape (n,) or a block (n, k).
    """

    def __init__(self, offsets, diags):
        self.offsets = tuple(int(d) for d in offsets)
        self.diags = np.asarray(diags, dtype=float)
        steps = np.diff(self.offsets)
        if (self.offsets[:1] != (0,) or np.any(steps <= 0)
                or self.diags.ndim != 2
                or self.diags.shape[0] != len(self.offsets)):
            raise ValueError(f"offsets {self.offsets} must increase from 0, "
                             f"one row of diags each")

    @property
    def shape(self) -> tuple[int, int]:
        n = self.diags.shape[1]
        return n, n

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        d = self.diags if x.ndim == 1 else self.diags[:, :, None]
        y = d[0] * x
        for k, off in enumerate(self.offsets[1:], 1):
            band = d[k, :-off]
            y[:-off] += band * x[off:]
            y[off:] += band * x[:-off]
        return y


@dataclass
class SolveReport:
    iterations: int
    relative_residual: float
    converged: bool


class CgConvergenceError(RuntimeError):
    """CG did not converge; carries the report."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


class FactorizationError(RuntimeError):
    """A block factorization met a block that is not positive definite."""


def _couple(diag, sub, v, transpose=False):
    """E v, or E^T v, for the lower-bidiagonal coupling E with diagonal
    ``diag`` and subdiagonal ``sub`` (E[r + 1, r] = sub[r]), both given as
    columns, and a block v of columns."""
    out = diag * v
    if transpose:
        out[:-1] += sub * v[1:]
    else:
        out[1:] += sub * v[:-1]
    return out


class BlockTridiagonalFactor:
    """Block LDL^T factorization of a SymmetricStencil on a grid of rows of
    m nodes, numbered row by row, whose offsets are a subset of (0, 1, m,
    m + 1): an operator assembled on a mesh from build_structured, with
    m = level + 1, or its part on the interior nodes, with m = level - 1.

    Such a matrix has square blocks of size m (one grid row each):
    tridiagonal diagonal blocks D_i (offsets 0 and 1) and lower-bidiagonal
    couplings E_i of block row i+1 to row i (diagonal from offset m,
    subdiagonal from offset m + 1), all read by reshaping the stored
    diagonals.  The Schur complements are S_0 = D_0 and S_{i+1} =
    D_{i+1} - E_i S_i^{-1} E_i^T; one dense S_i^{-1} is kept per block row,
    and a solve is one forward and one backward sweep of dense products
    (Golub & Van Loan, Matrix Computations, 4.5).

    ``ground`` adds 1 to the first diagonal entry, which makes an operator
    whose kernel is the constants definite; for a load whose entries sum to
    0, the grounded solution solves the singular system itself.

    Raises ValueError for a block size m below 1 or one that does not
    divide n, for any other offset or for a coupling from a grid row's
    last node to the next row (offsets 1 and m + 1; with m = 1, any
    offset-1 coupling), and FactorizationError if a Schur complement is
    not positive definite.
    """

    def __init__(self, A: SymmetricStencil, m: int, ground: bool = False):
        n = A.shape[0]
        if m < 1 or n % m:
            raise ValueError(f"a {A.shape} matrix is not made of square "
                             f"blocks of size {m}")
        bands = dict(zip(A.offsets, A.diags))
        d0, d1, e0, e1 = (bands.get(off, np.zeros(n)).reshape(-1, m, 1)
                          for off in (0, 1, m, m + 1))
        # only entries inside the matrix: the last `off` ones are ignored
        if (set(bands) - {0, 1, m, m + 1} or np.any(d1[:-1, -1])
                or np.any(e1[:-2, -1])):
            raise ValueError("the matrix has a coupling outside the block-"
                             f"tridiagonal band of {m}x{m} blocks")
        nb, c = n // m, np.arange(m)
        self.inv = inv = np.zeros((nb, m, m))
        inv[:, c, c] = d0[..., 0]
        inv[:, c[1:], c[:-1]] = inv[:, c[:-1], c[1:]] = d1[:, :-1, 0]
        inv[:1, 0, 0] += ground
        self.low = low = list(zip(e0[:-1], e1[:-1, :-1]))
        for i in range(nb):  # inv[i] holds D_i, then S_i, then S_i^{-1}
            if i:
                e_sinv = _couple(*low[i - 1], inv[i - 1])
                inv[i] -= _couple(*low[i - 1], e_sinv.T).T
            try:
                np.linalg.cholesky(inv[i])  # the definiteness check
                inv[i] = np.linalg.inv(inv[i])
            except np.linalg.LinAlgError as exc:
                raise FactorizationError(
                    f"block factorization failed at block row {i} of {nb}: "
                    f"{exc}") from exc

    def solve(self, b: np.ndarray, out: np.ndarray | None = None
              ) -> np.ndarray:
        """Solution of A x = b, for one right-hand side b of shape (n,) or
        an (n, k) block of k of them.  With ``out``, a C-contiguous float
        array of b's shape (b itself, for a solve in place), the sweeps work
        on an (n_blocks, m, k) view of it and ``out`` is returned; an
        ``out`` of another shape, type or layout raises ValueError."""
        inv, low = self.inv, self.low
        if out is None:
            out = np.array(b, dtype=float, order="C")
        elif (out.shape != np.shape(b) or out.dtype != float
              or not out.flags.c_contiguous):
            raise ValueError(f"out must be a C-contiguous float array of the "
                             f"load's shape {np.shape(b)}, not {out.dtype} "
                             f"{out.shape}")
        elif out is not b:
            out[...] = b
        # a view, as out is contiguous; explicit, as n may be 0
        x = out.reshape(*inv.shape[:2], out.shape[1] if out.ndim == 2 else 1)
        for i in range(len(x)):  # forward: row i becomes S_i^{-1} y_i
            if i:
                x[i] -= _couple(*low[i - 1], x[i - 1])
            x[i] = inv[i] @ x[i]
        for i in range(len(x) - 2, -1, -1):  # backward
            x[i] -= inv[i] @ _couple(*low[i], x[i + 1], transpose=True)
        return out


def cg_solve(A: SymmetricStencil, b: np.ndarray, tol: float = 1e-10,
             max_iter: int | None = None, x0: np.ndarray | None = None):
    """Solve the SPD (or semi-definite, constants as kernel) system A x = b.

    The true residual of the start is checked first: a start that meets
    the target is returned after zero iterations, and one that falls short
    (a factored solution passed as ``x0``) is polished.

    Parameters
    ----------
    A : symmetric positive (semi-)definite operator.
    b : right-hand side; for a singular A it must lie in the range of A
        (the caller deflates it), and the mean of the result is the
        caller's to fix.
    tol : relative residual target ||Ax-b|| / ||b||.
    max_iter : iteration cap, defaults to max(200, 10n).
    x0 : optional initial guess.

    Returns
    -------
    (x, SolveReport)

    Raises
    ------
    CgConvergenceError if the start's residual is not finite (a NaN in
    b or x0), or if the tolerance is not met within max_iter.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if max_iter is None:
        max_iter = max(200, 10 * n)

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - A @ x
    true_rel = np.linalg.norm(r) / bnorm
    if not math.isfinite(true_rel):  # no iteration can repair it
        raise CgConvergenceError(
            f"CG start is not finite: relative residual {true_rel:.3e} "
            f"(target {tol:.1e})", SolveReport(0, float(true_rel), False))
    total_iter = passes = 0
    # a further pass restarts from the true residual if the recursive one
    # drifted
    while true_rel > tol and total_iter < max_iter and passes < 3:
        passes += 1
        diag = A.diags[0].copy()
        diag[diag <= 0] = 1.0  # guard; assembled operators have positive diagonals
        inv_diag = 1.0 / diag
        z = inv_diag * r
        p = z.copy()
        rz = r @ z
        while total_iter < max_iter and np.linalg.norm(r) > tol * bnorm:
            Ap = A @ p
            alpha = rz / (p @ Ap)
            x = x + alpha * p
            r = r - alpha * Ap
            z = inv_diag * r
            rz_new = r @ z
            p = z + (rz_new / rz) * p
            rz = rz_new
            total_iter += 1
        r = b - A @ x
        true_rel = np.linalg.norm(r) / bnorm
    report = SolveReport(total_iter, float(true_rel), true_rel <= tol)
    if not report.converged:
        raise CgConvergenceError(
            f"CG stalled at relative residual {true_rel:.3e} "
            f"after {total_iter} iterations (target {tol:.1e})", report)
    return x, report


def grad_operator_norm(inverse_spacing) -> float:
    """Bound from above of the largest ratio ||grad v|| / ||v||_w over the
    piecewise-linear space, in the lumped-weight norm of the proximal
    steps, on a structured mesh whose grid has ``inverse_spacing``
    (c_x, c_y) (``DualGrid``).

    With G_T a triangle's basis gradients and v_T its three nodal values,
    ||grad v||^2 = sum_T |T| |G_T^T v_T|^2 <= sum_T 3 lam (|T|/3) |v_T|^2
    <= 3 lam ||v||_w^2, lam the largest eigenvalue of G_T^T G_T, since the
    shares |T|/3 sum to the lumped weights (Fried, J. Sound Vib. 1972).
    Both triangle types of the grid have G_T^T G_T = [[2 c_x^2, -c_x c_y],
    [-c_x c_y, 2 c_y^2]], so lam = c_x^2 + c_y^2 + hypot(c_x^2 - c_y^2,
    c_x c_y): the bound of the stencil the primal-dual loop runs, in
    closed form, and like 1/h.  On (-1, 1)^2 it lies 2-4 % above the exact
    norm (a dense eigensolver's) at levels 2-16 and equals it at level 1,
    which costs 1-3 % of the largest certified tau (14.09 against 14.28 at
    level 8); the default tau = 5 stays certified at every level up to
    128.
    """
    c_x, c_y = inverse_spacing
    lam = c_x**2 + c_y**2 + math.hypot(c_x**2 - c_y**2, c_x * c_y)
    return math.sqrt(3.0 * lam)
