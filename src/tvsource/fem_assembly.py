"""Assembly of the discrete operators on a triangulation.

Conventions: the diffusion term is integrated exactly (gradients are
constant per triangle); the reaction and boundary coefficient terms use the
vertex rule, matching the lumped metric of the proximal steps.  Piecewise
linear fields are plain nodal vectors, piecewise constant vector fields are
(n_triangles, 2) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

from .mesh import GammaSpec, TriMesh

# nodal coefficient vector of a continuous piecewise-linear function
P1Field = np.ndarray
# per-triangle constant 2-vectors (dual variables, element gradients)
P0VecField = np.ndarray

_MASS_BLOCK = np.array([[2.0, 1.0, 1.0],
                        [1.0, 2.0, 1.0],
                        [1.0, 1.0, 2.0]]) / 12.0
_EDGE_BLOCK = np.array([[2.0, 1.0],
                        [1.0, 2.0]]) / 6.0


@dataclass(frozen=True)
class CoefficientSet:
    """Piecewise-constant PDE coefficients with an ellipticity certificate.

    alpha: (n_triangles, 2, 2) symmetric diffusion matrices.
    beta: (n_triangles,) nonnegative reaction coefficients.
    sigma: (n_boundary_edges,) nonnegative boundary coefficients.
    alpha_lower: claimed uniform lower bound on the eigenvalues of alpha.
    """

    alpha: np.ndarray
    beta: np.ndarray
    sigma: np.ndarray
    alpha_lower: float

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        if self.alpha_lower <= 0:
            raise ValueError("alpha_lower must be positive")
        if np.max(np.abs(a[:, 0, 1] - a[:, 1, 0])) > 1e-12:
            raise ValueError("diffusion matrices must be symmetric")
        tr = a[:, 0, 0] + a[:, 1, 1]
        det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
        lam_min = 0.5 * (tr - np.sqrt(np.maximum(tr**2 - 4.0 * det, 0.0)))
        if np.min(lam_min) < self.alpha_lower - 1e-12:
            raise ValueError(
                f"ellipticity violated: min eigenvalue {np.min(lam_min):.6g} "
                f"< alpha_lower {self.alpha_lower:.6g}")
        if np.min(self.beta) < 0 or (self.sigma.size and np.min(self.sigma) < 0):
            raise ValueError("beta and sigma must be nonnegative")

    @property
    def is_pure_neumann(self) -> bool:
        return not (np.any(self.beta > 0) or np.any(self.sigma > 0))


@dataclass(frozen=True)
class NeumannData:
    """Constant flux value per boundary edge."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError("flux data must be finite")
        object.__setattr__(self, "values", v)


def unit_coefficients(mesh: TriMesh) -> CoefficientSet:
    """alpha = identity, beta = 0, sigma = 0."""
    alpha = np.broadcast_to(np.eye(2), (mesh.n_triangles, 2, 2)).copy()
    return CoefficientSet(alpha, np.zeros(mesh.n_triangles),
                          np.zeros(len(mesh.boundary_edges)), 1.0)


def _assemble_from_blocks(n, conn, blocks) -> csr_matrix:
    k = conn.shape[1]
    rows = np.repeat(conn, k, axis=1).ravel()
    cols = np.tile(conn, (1, k)).ravel()
    return coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def assemble_stiffness(mesh: TriMesh, coeffs: CoefficientSet) -> csr_matrix:
    """Matrix of the bilinear form: diffusion + reaction + boundary term."""
    blocks = np.einsum("t,tia,tab,tjb->tij",
                       mesh.areas, mesh.grads, coeffs.alpha, mesh.grads)
    A = _assemble_from_blocks(mesh.n_vertices, mesh.triangles, blocks)
    n = mesh.n_vertices
    diag = np.zeros(n)
    if np.any(coeffs.beta > 0):
        np.add.at(diag, mesh.triangles.ravel(),
                  np.repeat(coeffs.beta * mesh.areas / 3.0, 3))
    if coeffs.sigma.size and np.any(coeffs.sigma > 0):
        np.add.at(diag, mesh.boundary_edges.ravel(),
                  np.repeat(coeffs.sigma * mesh.edge_lengths / 2.0, 2))
    if np.any(diag != 0):
        A = (A + coo_matrix((diag[diag != 0],
                             (np.nonzero(diag)[0], np.nonzero(diag)[0])),
                            shape=(n, n))).tocsr()
    return A


def assemble_mass(mesh: TriMesh):
    """Consistent mass matrix and its lumped (row-sum) diagonal."""
    blocks = mesh.areas[:, None, None] * _MASS_BLOCK
    M = _assemble_from_blocks(mesh.n_vertices, mesh.triangles, blocks)
    lumped = np.asarray(M.sum(axis=1)).ravel()
    return M, lumped


def assemble_boundary_mass(mesh: TriMesh, gamma: GammaSpec) -> csr_matrix:
    """Mass matrix of the observation boundary, supported on its nodes."""
    mask = np.isin(mesh.edge_sides, list(gamma.sides))
    if not np.any(mask):
        raise ValueError("observation boundary matches no mesh edges")
    edges = mesh.boundary_edges[mask]
    blocks = mesh.edge_lengths[mask][:, None, None] * _EDGE_BLOCK
    return _assemble_from_blocks(mesh.n_vertices, edges, blocks)


def neumann_load(mesh: TriMesh, j: NeumannData) -> np.ndarray:
    """Load vector of the boundary flux: half the edge integral per endpoint."""
    if j.values.shape[0] != len(mesh.boundary_edges):
        raise ValueError("flux data length does not match boundary edges")
    b = np.zeros(mesh.n_vertices)
    contrib = j.values * mesh.edge_lengths / 2.0
    np.add.at(b, mesh.boundary_edges.ravel(), np.repeat(contrib, 2))
    return b


def elem_gradient(mesh: TriMesh, f: P1Field) -> P0VecField:
    """Exact per-triangle gradient of a piecewise-linear field."""
    return np.einsum("tia,ti->ta", mesh.grads, f[mesh.triangles])


def div_adjoint(mesh: TriMesh, p: P0VecField) -> np.ndarray:
    """Coefficients of the functional g -> (grad g, p) over nodal vectors.

    The i-th entry is the pairing of grad(phi_i) with p, so dotting the
    result with any nodal vector reproduces the gradient pairing exactly.
    """
    contrib = np.einsum("t,tia,ta->ti", mesh.areas, mesh.grads, p)
    v = np.zeros(mesh.n_vertices)
    np.add.at(v, mesh.triangles.ravel(), contrib.ravel())
    return v
