"""Assembly of the discrete operators on a triangulation.

Conventions: the diffusion term is integrated exactly (gradients are
constant per triangle); the reaction and boundary coefficient terms use the
vertex rule, matching the lumped metric of the proximal steps.  Piecewise
linear fields are plain nodal vectors, piecewise constant vector fields are
(n_triangles, 2) arrays.  Volume operators are SymmetricStencil matrices
on the mesh's stencil offsets, the boundary mass a dense matrix on the
observed nodes; element blocks and nodal loads are summed with
``np.bincount``, in element order.

The element gradient and its adjoint read the mesh's ``gradient_table``:
contiguous flat arrays built once per mesh, holding the two nonzero
basis-gradient terms of each (triangle, component) entry.  Both go
through one pair of kernels that take a two-term coefficient table:
``table_gather`` (one gather, one product, one add) and ``table_scatter``
(one product and one ``np.bincount``).  The gradient passes the mesh's
coefficients and gives the bits of the element-by-element sum; the
adjoint passes them times the triangle areas.

The primal-dual loop keeps its dual on the cell grid instead (``DualGrid``),
where the gradient is a fixed stencil and its kernels read fixed shifted
views of small buffers, with no index or coefficient table: the gradient
is one broadcast product and one subtraction of two strided views, with
the bits of the table kernel given the same coefficients, and its adjoint
two copies into shifted views, one BLAS gemv and one product, which sums
each node's terms before it scales them, so its last bits differ from
``table_scatter``'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import GammaSpec, TriMesh, _structured_grid
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


def _assemble_from_blocks(mesh: TriMesh, conn, blocks) -> SymmetricStencil:
    """Sum symmetric element blocks, one (k, k) block per row of the (N, k)
    vertex array ``conn``, into the diagonals at ``mesh.stencil_offsets``.
    Only the block entries in the lower triangle of the assembled matrix
    are read.  Raises ValueError for an entry at any other offset."""
    n, offsets = mesh.n_vertices, np.asarray(mesh.stencil_offsets)
    row, col = conn[:, :, None], conn[:, None, :]
    lower = row >= col
    off = (row - col)[lower]
    col = np.broadcast_to(col, lower.shape)[lower]
    k = np.minimum(np.searchsorted(offsets, off), offsets.shape[0] - 1)
    if np.any(offsets[k] != off):
        raise ValueError(
            f"an element couples vertices {np.max(off[offsets[k] != off])} "
            f"apart, outside the stencil offsets {mesh.stencil_offsets}")
    diags = np.bincount(k * n + col, weights=blocks[lower],
                        minlength=offsets.shape[0] * n)
    return SymmetricStencil(offsets, diags.reshape(-1, n))


def assemble_stiffness(mesh: TriMesh,
                       coeffs: CoefficientSet) -> SymmetricStencil:
    """Matrix of the bilinear form: diffusion + reaction + boundary term."""
    blocks = np.einsum("t,tia,tab,tjb->tij",
                       mesh.areas, mesh.grads, coeffs.alpha, mesh.grads)
    A = _assemble_from_blocks(mesh, mesh.triangles, blocks)
    # the reaction, then the boundary term, by the vertex rule
    A.diags[0] += np.bincount(
        np.concatenate([mesh.triangles.ravel(), mesh.boundary_edges.ravel()]),
        np.concatenate([np.repeat(coeffs.beta * mesh.areas / 3.0, 3),
                        np.repeat(coeffs.sigma * mesh.edge_lengths / 2.0, 2)]),
        mesh.n_vertices)
    return A


def assemble_mass(mesh: TriMesh):
    """Consistent mass matrix and its lumped (row-sum) diagonal."""
    blocks = mesh.areas[:, None, None] * _MASS_BLOCK
    M = _assemble_from_blocks(mesh, mesh.triangles, blocks)
    return M, M @ np.ones(mesh.n_vertices)


def assemble_boundary_mass(mesh: TriMesh, gamma: GammaSpec):
    """The sorted nodes of the observation boundary and its mass matrix on
    them, a dense (m, m) array in the order of the nodes: the only block
    of the boundary mass that is not zero."""
    mask = np.isin(mesh.edge_sides, list(gamma.sides))
    if not np.any(mask):
        raise ValueError("observation boundary matches no mesh edges")
    nodes = mesh.side_nodes(gamma.sides)
    m = nodes.shape[0]
    local = np.searchsorted(nodes, mesh.boundary_edges[mask])
    blocks = mesh.edge_lengths[mask][:, None, None] * _EDGE_BLOCK
    M = np.bincount((local[:, :, None] * m + local[:, None, :]).ravel(),
                    blocks.ravel(), m * m)
    return nodes, M.reshape(m, m)


def neumann_load(mesh: TriMesh, j: NeumannData) -> np.ndarray:
    """Load vector of the boundary flux: half the edge integral per endpoint."""
    if j.values.shape[0] != len(mesh.boundary_edges):
        raise ValueError("flux data length does not match boundary edges")
    contrib = j.values * mesh.edge_lengths / 2.0
    return np.bincount(mesh.boundary_edges.ravel(), np.repeat(contrib, 2),
                       mesh.n_vertices)


def table_gather(nodes: np.ndarray, coefs: np.ndarray,
                 f: np.ndarray) -> np.ndarray:
    """``coefs[0] * f[nodes[0]] + coefs[1] * f[nodes[1]]``, a flat array.

    ``nodes`` and ``coefs`` are (2, k) arrays, a two-term coefficient
    table such as the mesh's ``gradient_table``; ``f`` is a float array.
    """
    g = f.take(nodes)
    g *= coefs
    return g[0] + g[1]


def table_scatter(nodes: np.ndarray, coefs: np.ndarray, q: np.ndarray,
                  n: int) -> np.ndarray:
    """Nodal sums of ``coefs[j, k] * q[k]`` at node ``nodes[j, k]``: the
    adjoint of ``table_gather``, summed in the order of the flat (2, k)
    table, row 0 first.  ``q`` holds k values in C order."""
    terms = coefs * q.reshape(-1)
    return np.bincount(nodes.ravel(), terms.ravel(), n)


class DualGrid:
    """The cell-grid layout of a piecewise-constant vector field on a mesh
    from build_structured, and the stencil kernels of the element gradient
    and its adjoint on it.

    The field is held as four flat planes, lower-x, lower-y, upper-y and
    upper-x, a (2, 2, size) array indexed (a, b): a = 1 for the upper
    triangle of a cell, b = a xor c for component c.  Cell (ix, iy) sits at
    index iy*(level+1) + ix of each plane, the index of its bottom-left
    vertex, and size = level*(level+1) - 1: column ix = level is padding
    (``padding``, an index of the grid), held at +0.0, and the last padding
    cell is left out.  Component c of the gradient on plane (a, b) is
    (1 - 2a) * (f[v2] - f[v1]) / h_c, with v1 and v2 at the corner shifts
    a*(level+1) + b and 1 - a + b*(level+1) from the cell and h_c the grid
    spacing; ``inverse_spacing`` holds level / (b - a) of each side of the
    box.  The mesh's basis-gradient coefficients are these up to the
    rounding of its vertices, and equal them on the default box at the
    levels that are powers of two.

    ``to_grid`` and ``from_grid`` map to and from the (n_triangles, 2)
    layout; ``cells`` holds the flat grid index of each entry of that
    layout.  Raises ValueError unless the mesh has the vertices and
    triangles of build_structured.
    """

    def __init__(self, mesh: TriMesh):
        l = mesh.level
        vertices, triangles = _structured_grid(l, mesh.box)
        if not (np.array_equal(mesh.triangles, triangles)
                and np.array_equal(mesh.vertices, vertices)):
            raise ValueError(
                "the dual grid needs the vertex and triangle numbering of "
                "build_structured")
        self.level, self.size = l, l * (l + 1) - 1
        self.inverse_spacing = tuple(l / (b - a) for a, b in mesh.box)
        self.padding = (..., slice(l, None, l + 1))
        # entry (iy, ix, a, c): component c of triangle a of cell (ix, iy),
        # in plane (a, a xor c) at the cell's corner vertex
        corner = np.arange(0, l * (l + 1), l + 1)[:, None] + np.arange(l)
        a, c = np.arange(2)[:, None], np.arange(2)
        self.cells = ((2 * a + (a ^ c)) * self.size
                      + corner[:, :, None, None]).ravel()

    def to_grid(self, p: P0VecField) -> np.ndarray:
        """The (2, 2, size) grid of an (n_triangles, 2) field."""
        q = np.zeros(4 * self.size)
        q[self.cells] = np.ravel(p)
        return q.reshape(2, 2, self.size)

    def from_grid(self, q: np.ndarray) -> P0VecField:
        """The (n_triangles, 2) field of a (2, 2, size) grid."""
        return q.take(self.cells).reshape(-1, 2)

    def gradient_kernel(self, s):
        """The kernel f -> the grid of s_c times component c of the element
        gradient of the flat float nodal array f, for s = (s_x, s_y) the
        products of a scale and ``inverse_spacing``; it returns a new grid.

        One broadcast product writes (1 - 2a) * s_c * f into a buffer, one
        row per distinct value of (1 - 2a) * s_c: (s_x, -s_x) when s_x ==
        s_y, else (s_x, s_y, -s_y, -s_x) indexed 2a + b.  One subtraction
        of two fixed read-only strided views of the buffer, which read
        plane (a, b)'s row at its two corner shifts, gives entry (a, b) as
        (1 - 2a) * (fl(s_c*f[v2]) - fl(s_c*f[v1])), exactly, as rounding
        commutes with a sign: the bits of the two-term sum with the
        coefficients -(1 - 2a) s_c at v1 and (1 - 2a) s_c at v2.  Padding
        cells hold a difference of two unrelated nodes.  A kernel runs one
        call at a time.

        The four-row buffer alone would give the same bits on a square
        cell, but it doubles the product and the buffer the subtraction
        reads: on square cells it measured 9 % slower per loop iteration at
        level 32 and raised the benchmark's ``iter_ms`` by 3-5 %.
        """
        l, (s_x, s_y) = self.level, s
        rows = [s_x, -s_x] if s_x == s_y else [s_x, s_y, -s_y, -s_x]
        rows = np.array(rows)[:, None]
        ra, rb = (1, 0) if s_x == s_y else (2, 1)  # row a*ra + b*rb
        buf = np.empty((rows.shape[0], (l + 1) ** 2))
        row, e = buf.strides
        shape = (2, 2, self.size)
        v1 = np.lib.stride_tricks.as_strided(
            buf, shape, (ra * row + (l + 1) * e, rb * row + e, e),
            writeable=False)
        v2 = np.lib.stride_tricks.as_strided(
            buf[:, 1:], shape, (ra * row - e, rb * row + (l + 1) * e, e),
            writeable=False)

        def gradient(f: np.ndarray) -> np.ndarray:
            np.multiply(rows, f, out=buf)
            return np.subtract(v2, v1)

        return gradient

    def divergence_kernel(self, weights, scale: np.ndarray):
        """The kernel q -> scale * (the adjoint of ``gradient_kernel(
        weights)``) q of a grid q with zero padding, for a nodal array
        ``scale``; it returns a new nodal array.

        Two copies write the planes of q into fixed shifted views of a
        zero (8, n) buffer, each plane once at each of its two corner
        shifts (rows lower-x, lower-y, upper-y, upper-x at shifts 0,
        level+2, 0, level+2, then at 1, 1, level+1, level+1), so that row
        k holds the k-th term of every node, or 0.0 where it has none.  One
        gemv against the terms' signed weights (-w_x, w_y, -w_y, w_x, w_x,
        -w_y, w_y, -w_x) sums the rows, in the BLAS's order, and one
        product scales the sums.  A kernel runs one call at a time.
        """
        l, (w_x, w_y) = self.level, weights
        n = (l + 1) ** 2
        buf = np.zeros((8, n))
        row, e = buf.strides
        shape = (2, 2, self.size)
        at_first = np.lib.stride_tricks.as_strided(
            buf, shape, (2 * row, row + (l + 2) * e, e))
        at_second = np.lib.stride_tricks.as_strided(
            buf[4, 1:], shape, (2 * row + l * e, row, e))
        signs = np.array([-w_x, w_y, -w_y, w_x, w_x, -w_y, w_y, -w_x])

        def divergence(q: np.ndarray) -> np.ndarray:
            np.copyto(at_first, q)
            np.copyto(at_second, q)
            d = signs.dot(buf)
            d *= scale
            return d

        return divergence


def elem_gradient(mesh: TriMesh, f: P1Field) -> P0VecField:
    """Exact per-triangle gradient of a piecewise-linear field.

    Each component is the sum of the two nonzero terms of the mesh's
    ``gradient_table``; for finite f this equals the full three-term sum
    bit for bit.
    """
    tab = mesh.gradient_table
    g = table_gather(tab.nodes, tab.coefs, np.asarray(f, dtype=float))
    g += 0.0  # a zero sums to +0.0, as the dropped term 0.0 * f makes it
    return g.reshape(-1, 2)


def div_adjoint(mesh: TriMesh, p: P0VecField) -> np.ndarray:
    """Coefficients of the functional g -> (grad g, p) over nodal vectors.

    The i-th entry is the pairing of grad(phi_i) with p, so dotting the
    result with any nodal vector reproduces the gradient pairing exactly.
    It scatters the gradient table's two terms times the triangle areas.
    """
    tab = mesh.gradient_table
    return table_scatter(tab.nodes, tab.coefs * tab.weights,
                         np.asarray(p, dtype=float), mesh.n_vertices)
