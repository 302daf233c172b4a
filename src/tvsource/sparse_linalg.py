"""Sparse symmetric operators and solves: a diagonal-storage operator
type, a block-tridiagonal factorization, Jacobi-preconditioned CG and a
power iteration.

Every operator assembled on a mesh from ``build_structured`` has its
nonzero entries on a few fixed diagonals (TriMesh.stencil_offsets), which
SymmetricStencil stores, and is block tridiagonal in its row-major vertex
numbering; BlockTridiagonalFactor solves such systems directly.  The
conjugate gradient solver checks (and, if needed, polishes) a solution to
a relative residual target.  In the singular pure-Neumann case it treats
the constants as the kernel and returns the zero-weighted-mean
representative.
"""

from __future__ import annotations

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

    def diagonal(self) -> np.ndarray:
        return self.diags[0].copy()

    def toarray(self) -> np.ndarray:
        """The dense n x n matrix (for tests and small problems)."""
        n = self.shape[0]
        out = np.zeros((n, n))
        for off, diag in zip(self.offsets, self.diags):
            i = np.arange(max(n - off, 0))
            out[i, i + off] = out[i + off, i] = diag[:i.shape[0]]
        return out

    def pinned(self, nodes) -> SymmetricStencil:
        """The operator with the rows and columns of ``nodes`` replaced by
        those of the identity: the matrix of the system for the other
        unknowns, with the ones at ``nodes`` fixed (and kept by a zero
        load there)."""
        n = self.shape[0]
        fixed = np.zeros(n, dtype=bool)
        fixed[nodes] = True
        diags = self.diags.copy()
        diags[0, fixed] = 1.0
        for k, off in enumerate(self.offsets[1:], 1):
            diags[k, :-off][fixed[:-off] | fixed[off:]] = 0.0
        return SymmetricStencil(self.offsets, diags)


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


class FactorizationError(RuntimeError):
    """A block factorization met a block that is not positive definite."""


def _band_apply(t: np.ndarray, xp: np.ndarray) -> np.ndarray:
    """Product T x for the tridiagonal matrix T whose entry T[r, r + d] is
    t[d + 1, r] (d = -1, 0, 1), given x padded with one zero row at each
    end, xp = (0, x, 0)."""
    if xp.ndim == 2:
        t = t[:, :, None]
    return t[0] * xp[:-2] + t[1] * xp[1:-1] + t[2] * xp[2:]


class BlockTridiagonalFactor:
    """Block LDL^T factorization of a symmetric positive definite matrix
    made of square blocks of size m, block tridiagonal with tridiagonal
    off-diagonal blocks.

    This is the shape of every P1 operator on a mesh from build_structured
    (m = level + 1): a node couples only to its own grid row and, in the
    adjacent rows, to the nodes at most one column away.  With D_i the
    diagonal blocks and E_i the coupling of block row i+1 to row i, the
    Schur complements are S_0 = D_0 and S_{i+1} = D_{i+1} - E_i S_i^{-1}
    E_i^T; one dense S_i^{-1} is kept per block row, the couplings as three
    diagonals, and a solve is one forward and one backward sweep of dense
    products (Golub & Van Loan, Matrix Computations, 4.5).  The blocks are
    read straight from the stored diagonals of A.

    ``ground`` adds 1 to the first diagonal entry, which makes an operator
    whose kernel is the constants definite; for a load whose entries sum to
    0, the grounded solution solves the singular system itself.

    Raises ValueError if A has a coupling outside that band and
    FactorizationError if a Schur complement is not positive definite.
    """

    def __init__(self, A: SymmetricStencil, m: int, ground: bool = False):
        n = A.shape[0]
        nb = n // m if m else 0
        if nb * m != n:
            raise ValueError(f"a {A.shape} matrix is not made of square "
                             f"blocks of size {m}")
        inv = np.zeros((nb, m, m))
        # E_i as diagonals: low[i, d + 1, r] = E_i[r, r + d]
        low = np.zeros((max(nb - 1, 0), 3, m))
        for off, diag in zip(A.offsets, A.diags):
            # the nonzero entries (j + off, j) of the lower triangle: row r
            # of block row bt, column c of block row i
            j = np.flatnonzero(diag[:max(n - off, 0)])
            val = diag[j]
            i, c = np.divmod(j, m)
            bt, r = np.divmod(j + off, m)
            same = bt == i
            inv[i[same], c[same], r[same]] = val[same]
            inv[i[same], r[same], c[same]] = val[same]
            i, c, bt, r, val = (a[~same] for a in (i, c, bt, r, val))
            if np.any(bt - i > 1) or np.any(np.abs(c - r) > 1):
                raise ValueError("the matrix has a coupling outside the block-"
                                 f"tridiagonal band of {m}x{m} blocks")
            low[i, c - r + 1, r] = val  # E_i[r, c]
        if ground and nb:
            inv[0, 0, 0] += 1.0
        pad = ((1, 1), (0, 0))
        for i in range(nb):  # inv[i] holds D_i, then S_i, then S_i^{-1}
            if i:
                e_sinv = _band_apply(low[i - 1], np.pad(inv[i - 1], pad))
                inv[i] -= _band_apply(low[i - 1], np.pad(e_sinv.T, pad)).T
            try:
                np.linalg.cholesky(inv[i])  # the definiteness check
                inv[i] = np.linalg.inv(inv[i])
            except np.linalg.LinAlgError as exc:
                raise FactorizationError(
                    f"block factorization failed at block row {i} of {nb}: "
                    f"{exc}") from exc
        # E_i^T as diagonals: up[i, d + 1, c] = E_i[c + d, c]
        up = np.zeros_like(low)
        up[:, 0, 1:] = low[:, 2, :-1]
        up[:, 1] = low[:, 1]
        up[:, 2, :-1] = low[:, 0, 1:]
        self.inv, self.low, self.up = inv, low, up

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solution of A x = b, for one right-hand side b of shape (n,) or
        an (n, k) block of k of them."""
        inv, low, up = self.inv, self.low, self.up
        nb, m = inv.shape[:2]
        k = np.shape(b)[1:]
        # one zero entry padded at each end of a block row lets a coupling
        # act on it as three shifted products
        y = np.zeros((nb, m + 2, *k))
        y[:, 1:-1] = np.reshape(b, (nb, m, *k))
        x = y[:, 1:-1]
        for i in range(nb):  # forward: row i becomes S_i^{-1} y_i
            if i:
                x[i] -= _band_apply(low[i - 1], y[i - 1])
            x[i] = inv[i] @ x[i]
        for i in range(nb - 2, -1, -1):  # backward
            x[i] -= inv[i] @ _band_apply(up[i], y[i + 1])
        return x.reshape(np.shape(b))


def cg_solve(A: SymmetricStencil, b: np.ndarray, tol: float = 1e-10,
             max_iter: int | None = None,
             mean_weights: np.ndarray | None = None,
             x0: np.ndarray | None = None):
    """Solve the SPD (or semi-definite, constants as kernel) system A x = b.

    The true residual of the start is checked first: a start that meets
    the target is returned after zero iterations, so a direct solution
    passed as ``x0`` is verified, and polished only if it falls short.

    Parameters
    ----------
    A : symmetric positive (semi-)definite operator.
    b : right-hand side; with ``mean_weights`` it must lie in the range of
        A, i.e. sum to zero (the caller deflates it).
    tol : relative residual target ||Ax-b|| / ||b||.
    max_iter : iteration cap, defaults to max(200, 10n).
    mean_weights : positive weights w; when given, the constant vector is
        treated as the kernel of A and the returned x has zero weighted
        mean, sum(w*x) = 0.
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
    w = None if mean_weights is None else np.asarray(mean_weights, float)

    def recenter(x):
        if w is not None:
            x = x - (w @ x) / w.sum()
        return x

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)

    # A annihilates constants, so the iterates' mean never enters the
    # residual recursion: centring the start and the result is enough
    x = np.zeros(n) if x0 is None else recenter(np.array(x0, dtype=float))
    r = b - A @ x
    true_rel = np.linalg.norm(r) / bnorm
    total_iter = passes = 0
    # a further pass restarts from the true residual if the recursive one
    # drifted
    while true_rel > tol and total_iter < max_iter and passes < 3:
        passes += 1
        diag = A.diagonal()
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


def grad_operator_norm(K: SymmetricStencil, w: np.ndarray) -> float:
    """Estimate from below of the largest ratio ||grad v|| / ||v|| over the
    piecewise-linear space, by power iteration (tolerance 1e-6, at most
    20000 steps; a Rayleigh quotient never exceeds the largest eigenvalue)
    on the generalized eigenproblem pairing the unit-diffusion stiffness
    matrix K with the lumped mass weights w, the inner product of the
    proximal steps.  Scales like 1/h on quasi-uniform meshes.
    """
    return float(np.sqrt(weighted_power_iteration(
        lambda v: (K @ v) / w, w, 12345, 1e-6, 20000)))
