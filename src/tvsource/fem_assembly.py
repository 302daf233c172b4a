"""Assembly of the discrete operators on a triangulation.

Conventions: the diffusion term is integrated exactly (gradients are
constant per triangle); the reaction and boundary coefficient terms use the
vertex rule, matching the lumped metric of the proximal steps.  Piecewise
linear fields are plain nodal vectors, piecewise constant vector fields are
(n_triangles, 2) arrays, boundary data (4, level) arrays, a row per side
(``TriMesh.side``).  Volume operators are SymmetricStencil matrices on the
mesh's stencil offsets, the boundary mass a dense matrix on the observed
nodes.  Element blocks are summed onto the diagonals by the mesh's cell
grid (``DualGrid.place_blocks``), nodal loads by ``np.bincount`` in element
order and boundary terms side by side.

The triangle geometry is that of the mesh's cell grid (``mesh.DualGrid``,
cached as ``TriMesh.grid``): one area and the basis gradients of the lower
and the upper triangle of a cell, from the grid's constants
level / (b - a).  On the default box at the levels that are powers of two,
where these and the vertices are exact, A, M and w are bit for bit the
sums over the vertex geometry; elsewhere the two may differ in their last
digits.  The element gradient and its adjoint are the grid's stencil
kernels, the kernels the primal-dual loop runs, with the padding cells of
the grid left out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import SIDE_TAGS, GammaSpec, TriMesh
from .sparse_linalg import SymmetricStencil

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
    sigma: (4, level) nonnegative boundary coefficients.
    alpha_lower: claimed uniform lower bound on the eigenvalues of alpha.
    All are finite; ProblemDef checks the shapes against its mesh.
    """

    alpha: np.ndarray
    beta: np.ndarray
    sigma: np.ndarray
    alpha_lower: float

    def __post_init__(self):
        for name in ("alpha", "beta", "sigma", "alpha_lower"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
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
        if np.any(self.beta < 0) or np.any(self.sigma < 0):
            raise ValueError("beta and sigma must be nonnegative")

    @property
    def is_pure_neumann(self) -> bool:
        return not (np.any(self.beta > 0) or np.any(self.sigma > 0))


@dataclass(frozen=True)
class NeumannData:
    """Constant flux value per boundary edge, a (4, level) array."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError("flux data must be finite")
        object.__setattr__(self, "values", v)


def assemble_stiffness(mesh: TriMesh,
                       coeffs: CoefficientSet) -> SymmetricStencil:
    """Matrix of the bilinear form: diffusion + reaction + boundary term."""
    grid, grads = mesh.grid, mesh.grid.basis_gradients
    # alpha[s, a, b, k]: cell k's lower (s = 0) and upper triangle, cells
    # last so that each product runs over contiguous cells
    alpha = coeffs.alpha.reshape(-1, 2, 2, 2).transpose(1, 2, 3, 0)
    # blocks[s, i, j, k] sums area*grads[s, i, a]*alpha[s, a, b, k]*
    # grads[s, j, b] from 0.0 over (a, b) in order, each product associated
    # from the left: np.einsum's order over these four factors, so its bits
    blocks = np.zeros((2, 3, 3, alpha.shape[-1]))
    for a, b in np.ndindex(2, 2):
        blocks += ((grid.area * grads[:, :, a, None] * alpha[:, None, a, b])
                   [:, :, None] * grads[:, None, :, b, None])
    A = SymmetricStencil(mesh.stencil_offsets,
                         grid.place_blocks(blocks.transpose(3, 0, 1, 2)))
    # the reaction, then the boundary term, by the vertex rule
    A.diags[0] += _add_edge_halves(mesh, coeffs.sigma, np.bincount(
        mesh.triangles.ravel(), np.repeat(coeffs.beta * grid.area / 3.0, 3),
        mesh.n_vertices))
    return A


def _add_edge_halves(mesh: TriMesh, per_side, load: np.ndarray):
    """``load`` plus half of value * length of each boundary edge at its two
    nodes (the vertex rule), for the (4, level) values ``per_side``."""
    for tag, values in zip(SIDE_TAGS, per_side):
        nodes, lengths = mesh.side(tag)
        half = values * lengths / 2.0
        load[nodes[1:]] += half
        load[nodes[:-1]] += half
    return load


def assemble_mass(mesh: TriMesh):
    """Consistent mass matrix and its lumped (row-sum) diagonal."""
    blocks = np.broadcast_to(mesh.grid.area * _MASS_BLOCK,
                             (mesh.n_triangles, 3, 3))
    M = SymmetricStencil(mesh.stencil_offsets, mesh.grid.place_blocks(blocks))
    return M, M @ np.ones(mesh.n_vertices)


def assemble_boundary_mass(mesh: TriMesh, gamma: GammaSpec):
    """The sorted nodes of the observation boundary and its mass matrix on
    them, a dense (m, m) array in the order of the nodes: the only block
    of the boundary mass that is not zero."""
    nodes = mesh.side_nodes(gamma.sides)
    M = np.zeros((nodes.shape[0],) * 2)
    for tag in gamma.sides:
        side, lengths = mesh.side(tag)
        ends = (np.searchsorted(nodes, side[:-1]),
                np.searchsorted(nodes, side[1:]))  # each edge's two nodes
        for i, j in np.ndindex(2, 2):
            M[ends[i], ends[j]] += lengths * _EDGE_BLOCK[i, j]
    return nodes, M


def neumann_load(mesh: TriMesh, j: NeumannData) -> np.ndarray:
    """Load vector of the boundary flux: half the edge integral per endpoint."""
    return _add_edge_halves(mesh, j.values, np.zeros(mesh.n_vertices))


def elem_gradient(mesh: TriMesh, f: P1Field) -> P0VecField:
    """Exact per-triangle gradient of a piecewise-linear field: the
    stencil of ``mesh.grid``, with each component the difference of its
    two nodes' values scaled by the inverse grid spacing.

    On the default box at the levels that are powers of two these are the
    bits of the element-by-element sum over the basis gradients computed
    from the vertices; elsewhere those basis gradients differ from
    level / (b - a) in their last digits (at most 1.6e-15 relative at
    levels 1-16), and the gradient is still the loop's stencil.  A -0.0
    comes out as +0.0."""
    grid = mesh.grid
    g = grid.from_grid(grid.gradient_kernel(grid.inverse_spacing)(
        np.asarray(f, dtype=float)))
    g += 0.0  # -0.0, from a difference of signed zeros, to +0.0
    return g


def div_adjoint(mesh: TriMesh, p: P0VecField) -> np.ndarray:
    """Coefficients of the functional g -> (grad g, p) over nodal vectors.

    The i-th entry is the pairing of grad(phi_i) with p, so dotting the
    result with any nodal vector reproduces the gradient pairing up to
    rounding: the adjoint stencil of ``mesh.grid`` times the triangle area.
    """
    grid = mesh.grid
    return grid.divergence_kernel(grid.inverse_spacing, grid.area)(
        grid.to_grid(p))
