"""Structured triangulations of axis-aligned rectangles.

The level-``l`` mesh of (-1,1)^2 splits each coordinate interval into ``l``
equal segments and every resulting cell along its bottom-left/top-right
diagonal, giving 2*l^2 triangles and (l+1)^2 vertices.  Meshes are immutable
after construction and safe to share between threads; the one cache a mesh
holds, its cell grid, is built on first use (see TriMesh and DualGrid).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

SIDE_TAGS = ("bottom", "top", "left", "right")


@dataclass(frozen=True)
class TriMesh:
    """Triangulation of an axis-aligned rectangle with boundary markers.

    Every mesh in the package comes from build_structured, which numbers
    vertex (ix, iy) as iy*(level+1) + ix, grid row by grid row.
    nearest_nodes, the prolongations, the assembled operators and their
    block-tridiagonal factorization rely on this ordering.  In it, two
    vertices of a triangle differ in index by 1, level+1 or level+2 (the
    next vertex in the grid row, the one above, or the one above and to
    the right), so every assembled operator is stored by its main diagonal
    and the diagonals at these offsets (``stencil_offsets``), and an
    element coupling at any other offset is an error.

    The element gradient and its adjoint are the stencil kernels of
    ``grid``, the cell grid of the mesh (DualGrid), built on first use and
    cached on the mesh.  The mesh is immutable; a concurrent first use may
    build the grid twice, which is harmless, as both builds are equal.

    Attributes
    ----------
    vertices : (n_vertices, 2) float array of node coordinates.
    triangles : (n_triangles, 3) int array, counterclockwise vertex indices.
    areas : (n_triangles,) positive triangle areas.
    grads : (n_triangles, 3, 2) constant gradients of the three nodal basis
        functions on each triangle.
    boundary_edges : (n_edges, 2) int array of vertex pairs on the boundary.
    edge_lengths : (n_edges,) edge lengths.
    edge_sides : (n_edges,) side tag per boundary edge (one of SIDE_TAGS).
    level : refinement level l.
    box : ((ax, bx), (ay, by)) domain extents.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    areas: np.ndarray
    grads: np.ndarray
    boundary_edges: np.ndarray
    edge_lengths: np.ndarray
    edge_sides: np.ndarray
    level: int
    box: tuple = ((-1.0, 1.0), (-1.0, 1.0))

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def stencil_offsets(self) -> tuple[int, int, int, int]:
        """Index differences of the vertex pairs a triangle couples."""
        return 0, 1, self.level + 1, self.level + 2

    @property
    def mesh_size(self) -> float:
        """Triangle diameter h = sqrt(8)/l on the default domain."""
        return structured_mesh_size(self.level, self.box)

    @property
    def centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)

    @functools.cached_property
    def grid(self) -> DualGrid:
        """The cell grid of piecewise-constant vector fields on this mesh and
        the stencil kernels of the element gradient and its adjoint, built
        on first use; see DualGrid."""
        return DualGrid(self)

    def nearest_nodes(self, points) -> np.ndarray:
        """Index of the grid node nearest to each point (n, 2) of a mesh from
        build_structured, whose vertex (ix, iy) has index iy*(level+1) + ix."""
        ix, iy = (np.clip(np.rint((points[:, k] - a) / (b - a) * self.level),
                          0, self.level).astype(np.int64)
                  for k, (a, b) in enumerate(self.box))
        return iy * (self.level + 1) + ix

    def boundary_nodes(self) -> np.ndarray:
        """Sorted indices of all nodes on the boundary."""
        return self._nodes_of(self.boundary_edges)

    def side_nodes(self, sides) -> np.ndarray:
        """Sorted indices of nodes lying on any of the given sides."""
        mask = np.isin(self.edge_sides, list(sides))
        return self._nodes_of(self.boundary_edges[mask])

    def _nodes_of(self, edges) -> np.ndarray:
        """Sorted distinct vertices of ``edges``: np.unique without its
        first-use import of numpy.ma (about 15 ms)."""
        return np.flatnonzero(np.bincount(edges.ravel(),
                                          minlength=self.n_vertices))


@dataclass(frozen=True)
class GammaSpec:
    """Observation boundary: a nonempty set of rectangle side tags."""

    sides: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        sides = frozenset(self.sides)
        if not sides:
            raise ValueError("observation boundary must contain at least one side")
        unknown = sides - set(SIDE_TAGS)
        if unknown:
            raise ValueError(f"unknown side tags: {sorted(unknown)}")
        object.__setattr__(self, "sides", sides)


def structured_mesh_size(level: int,
                         box=((-1.0, 1.0), (-1.0, 1.0))) -> float:
    """Triangle diameter of the mesh build_structured(level, box) makes,
    without building it."""
    hx = (box[0][1] - box[0][0]) / level
    hy = (box[1][1] - box[1][0]) / level
    return float(np.hypot(hx, hy))


def _triangle_geometry(vertices, triangles):
    """Areas and nodal basis gradients for all triangles at once."""
    p = vertices[triangles]  # (nt, 3, 2)
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    areas = 0.5 * det
    # grad phi_i = rot90(edge opposite i) / (2A), rows i=0,1,2
    grads = np.empty((triangles.shape[0], 3, 2))
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        grads[:, i, 0] = (p[:, j, 1] - p[:, k, 1]) / det
        grads[:, i, 1] = (p[:, k, 0] - p[:, j, 0]) / det
    return areas, grads


def _structured_grid(level: int, box) -> tuple[np.ndarray, np.ndarray]:
    """The vertices and triangles of build_structured(level, box): vertex
    (ix, iy) has index iy*(level+1) + ix, the cells run row by row, and
    each is split into its lower triangle, then its upper one."""
    (ax, bx), (ay, by) = box
    n = level + 1
    xx, yy = np.meshgrid(np.linspace(ax, bx, n), np.linspace(ay, by, n))
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    iy, ix = np.divmod(np.arange(level * level, dtype=np.int64), level)
    bl = iy * n + ix
    br, tl, tr = bl + 1, bl + n, bl + n + 1
    triangles = np.stack([bl, br, tr, bl, tr, tl], axis=1).reshape(-1, 3)
    return vertices, triangles


class DualGrid:
    """The cell-grid layout of a piecewise-constant vector field on a mesh
    from build_structured, and the stencil kernels of the element gradient
    and its adjoint on it, the package's only ones.

    The field is held as four flat planes, lower-x, lower-y, upper-y and
    upper-x, a (2, 2, size) array indexed (a, b): a = 1 for the upper
    triangle of a cell, b = a xor c for component c.  Cell (ix, iy) sits at
    index iy*(level+1) + ix of each plane, the index of its bottom-left
    vertex, and size = level*(level+1) - 1: column ix = level is padding
    (``padding``, an index of the grid), held at +0.0, and the last padding
    cell is left out.  Component c of the gradient on plane (a, b) is
    (1 - 2a) * (f[v2] - f[v1]) / h_c, with v1 and v2 at the corner shifts
    a*(level+1) + b and 1 - a + b*(level+1) from the cell and h_c the grid
    spacing; ``inverse_spacing`` holds c = level / (b - a) of each side of
    the box, and ``area`` the area 0.5 / (c_x * c_y) of every triangle.
    The mesh's ``grads`` and ``areas`` are these up to the rounding of its
    vertices, and equal them on the default box at the levels that are
    powers of two.

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
        self.inverse_spacing = c_x, c_y = tuple(l / (b - a)
                                                for a, b in mesh.box)
        self.area = 0.5 / (c_x * c_y)
        self.padding = (..., slice(l, None, l + 1))
        # entry (iy, ix, a, c): component c of triangle a of cell (ix, iy),
        # in plane (a, a xor c) at the cell's corner vertex
        corner = np.arange(0, l * (l + 1), l + 1)[:, None] + np.arange(l)
        a, c = np.arange(2)[:, None], np.arange(2)
        self.cells = ((2 * a + (a ^ c)) * self.size
                      + corner[:, :, None, None]).ravel()

    def to_grid(self, p: np.ndarray) -> np.ndarray:
        """The (2, 2, size) grid of an (n_triangles, 2) field."""
        q = np.zeros(4 * self.size)
        q[self.cells] = np.ravel(p)
        return q.reshape(2, 2, self.size)

    def from_grid(self, q: np.ndarray) -> np.ndarray:
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
        weights)``) q of a grid q with zero padding, for a nodal array or a
        scalar ``scale``; it returns a new nodal array.

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


def build_structured(level: int, box=((-1.0, 1.0), (-1.0, 1.0))) -> TriMesh:
    """Build the level-``level`` structured triangulation of a rectangle.

    Every cell is split along its bottom-left/top-right diagonal, so nested
    refinements (level doubling) line up node-over-node.
    """
    if not isinstance(level, (int, np.integer)) or level < 1:
        raise ValueError(f"level must be a positive integer, got {level!r}")
    (ax, bx), (ay, by) = box
    if not (-np.inf < ax < bx < np.inf and -np.inf < ay < by < np.inf):
        raise ValueError(f"box {box} needs finite bounds a < b on each axis")
    n = level + 1
    vertices, triangles = _structured_grid(level, box)

    # edge i of each side, in the order SIDE_TAGS, for i = 0 .. level-1
    i = np.arange(level, dtype=np.int64)
    top = level * n
    boundary_edges = np.stack([i, i + 1, top + i, top + i + 1,
                               i * n, (i + 1) * n,
                               i * n + level, (i + 1) * n + level],
                              axis=1).reshape(-1, 2)
    evec = vertices[boundary_edges[:, 1]] - vertices[boundary_edges[:, 0]]
    edge_lengths = np.hypot(evec[:, 0], evec[:, 1])
    edge_sides = np.tile(np.asarray(SIDE_TAGS), level)

    areas, grads = _triangle_geometry(vertices, triangles)
    if not np.all(areas > 0):
        raise ValueError(f"box {box} gives triangles of non-positive area")
    return TriMesh(vertices, triangles, areas, grads, boundary_edges,
                   edge_lengths, edge_sides, int(level), box)


def _check_nested(coarse_mesh: TriMesh, fine_mesh: TriMesh):
    if fine_mesh.level != 2 * coarse_mesh.level:
        raise ValueError(
            f"fine level {fine_mesh.level} is not twice coarse level "
            f"{coarse_mesh.level}")
    if fine_mesh.box != coarse_mesh.box:
        raise ValueError("meshes cover different domains")


def prolong_p1(coarse: np.ndarray, coarse_mesh: TriMesh,
               fine_mesh: TriMesh) -> np.ndarray:
    """Nodal interpolation of a piecewise-linear field onto the refined mesh.

    Shared nodes copy their coarse value; new nodes sit at midpoints of
    coarse edges (including the cell diagonals) and average the two ends.
    Exact on globally affine functions and preserves pointwise bounds.
    """
    _check_nested(coarse_mesh, fine_mesh)
    coarse = np.asarray(coarse, dtype=float)
    if coarse.shape != (coarse_mesh.n_vertices,):
        raise ValueError("field length does not match coarse mesh")
    lc = coarse_mesh.level
    nc, nf = lc + 1, 2 * lc + 1
    cv = coarse.reshape(nc, nc)  # [iy, ix]
    fv = np.empty((nf, nf))
    fv[0::2, 0::2] = cv
    fv[0::2, 1::2] = 0.5 * (cv[:, :-1] + cv[:, 1:])
    fv[1::2, 0::2] = 0.5 * (cv[:-1, :] + cv[1:, :])
    # cell centers lie on the bottom-left/top-right diagonal edge
    fv[1::2, 1::2] = 0.5 * (cv[:-1, :-1] + cv[1:, 1:])
    return fv.ravel()


def prolong_p0(coarse: np.ndarray, coarse_mesh: TriMesh,
               fine_mesh: TriMesh) -> np.ndarray:
    """Inject per-triangle values onto the refined mesh.

    Each fine triangle takes the value of the coarse triangle containing
    it, so componentwise bounds are preserved exactly.  Triangle
    2*(iy*level + ix) + upper is the lower (0) or upper (1) half of cell
    (ix, iy); each coarse cell holds 2 x 2 fine cells.
    """
    _check_nested(coarse_mesh, fine_mesh)
    coarse = np.asarray(coarse, dtype=float)
    if coarse.shape[0] != coarse_mesh.n_triangles:
        raise ValueError("field length does not match coarse mesh")
    lc, comps = coarse_mesh.level, coarse.shape[1:]
    cv = coarse.reshape(lc, lc, 2, *comps)  # [cy, cx, upper]
    fv = np.empty((lc, 2, lc, 2, 2) + comps)  # [cy, dy, cx, dx, upper]
    # the two fine cells on the coarse diagonal are split along it too
    fv[:, 0, :, 0] = fv[:, 1, :, 1] = cv
    fv[:, 0, :, 1] = cv[:, :, :1]  # below the diagonal: the lower half
    fv[:, 1, :, 0] = cv[:, :, 1:]  # above it: the upper half
    return fv.reshape(4 * coarse.shape[0], *comps)
