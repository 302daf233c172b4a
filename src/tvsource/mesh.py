"""Structured triangulations of axis-aligned rectangles.

The level-``l`` mesh of (-1,1)^2 splits each coordinate interval into ``l``
equal segments and every resulting cell along its bottom-left/top-right
diagonal, giving 2*l^2 triangles and (l+1)^2 vertices.  A mesh is the value
of its level and box, from which it derives its arrays and its cell grid on
first use (see TriMesh and DualGrid); it is safe to share between threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

SIDE_TAGS = ("bottom", "top", "left", "right")


@dataclass(frozen=True)
class TriMesh:
    """The level-``level`` structured triangulation of the rectangle
    ``box``, ((ax, bx), (ay, by)), with boundary markers: the value of
    these two fields, a positive integer level and finite bounds a < b
    whose grid spacing is nonzero and finite, checked when it is made.

    Vertex (ix, iy) has index iy*(level+1) + ix, grid row by grid row, and
    cell iy*level + ix is split into its lower triangle (bottom-left,
    bottom-right, top-right), then its upper one (bottom-left, top-right,
    top-left).  nearest_nodes, the prolongations, the assembled operators
    and their block-tridiagonal factorization rely on this ordering.  In
    it, two vertices of a triangle differ in index by 1, level+1 or
    level+2, so every assembled operator is stored by its main diagonal and
    the diagonals at these offsets (``stencil_offsets``).

    The arrays below and ``grid``, the mesh's cell grid (DualGrid), which
    holds its geometry, are derived from the two fields on first use and
    cached; a concurrent first use may build one twice, which is harmless.

    Attributes
    ----------
    vertices : (n_vertices, 2) float array of node coordinates.
    triangles : (n_triangles, 3) int array, counterclockwise vertex indices.
    boundary_edges : (n_edges, 2) int array of vertex pairs on the boundary,
        edge i of each side in the order SIDE_TAGS, i = 0 .. level-1.
    edge_lengths : (n_edges,) edge lengths.
    edge_sides : (n_edges,) side tag per boundary edge (one of SIDE_TAGS).
    """

    level: int
    box: tuple = ((-1.0, 1.0), (-1.0, 1.0))

    def __post_init__(self):
        level, box = self.level, self.box
        if not isinstance(level, (int, np.integer)) or level < 1:
            raise ValueError(f"level must be a positive integer, got {level!r}")
        (ax, bx), (ay, by) = box
        if not (-np.inf < ax < bx < np.inf and -np.inf < ay < by < np.inf):
            raise ValueError(f"box {box} needs finite bounds a < b on each axis")
        sides = (float(ax), float(bx)), (float(ay), float(by))
        c_x, c_y = (level / (b - a) for a, b in sides)
        if not (0.0 < c_x and 0.0 < c_y and c_x * c_y < np.inf):
            raise ValueError(f"box {box} gives triangles of zero or infinite "
                             f"area at level {level}")
        object.__setattr__(self, "level", int(level))
        object.__setattr__(self, "box", sides)

    @property
    def n_vertices(self) -> int:
        return (self.level + 1) ** 2

    @property
    def n_triangles(self) -> int:
        return 2 * self.level ** 2

    @property
    def stencil_offsets(self) -> tuple[int, int, int, int]:
        """Index differences of the vertex pairs a triangle couples."""
        return 0, 1, self.level + 1, self.level + 2

    @property
    def mesh_size(self) -> float:
        """Triangle diameter h = sqrt(8)/l on the default domain."""
        hx, hy = ((b - a) / self.level for a, b in self.box)
        return float(np.hypot(hx, hy))

    @functools.cached_property
    def vertices(self) -> np.ndarray:
        (ax, bx), (ay, by) = self.box
        n = self.level + 1
        xx, yy = np.meshgrid(np.linspace(ax, bx, n), np.linspace(ay, by, n))
        return np.column_stack([xx.ravel(), yy.ravel()])

    @functools.cached_property
    def triangles(self) -> np.ndarray:
        l, n = self.level, self.level + 1
        iy, ix = np.divmod(np.arange(l * l, dtype=np.int64), l)
        bl = iy * n + ix  # each cell's bottom-left corner
        tr = bl + n + 1
        return np.stack([bl, bl + 1, tr, bl, tr, bl + n],
                        axis=1).reshape(-1, 3)

    @functools.cached_property
    def boundary_edges(self) -> np.ndarray:
        l, n = self.level, self.level + 1
        i, top = np.arange(l, dtype=np.int64), l * n
        return np.stack([i, i + 1, top + i, top + i + 1, i * n, (i + 1) * n,
                         i * n + l, (i + 1) * n + l], axis=1).reshape(-1, 2)

    @functools.cached_property
    def edge_lengths(self) -> np.ndarray:
        ends = self.vertices[self.boundary_edges]
        return np.hypot(*(ends[:, 1] - ends[:, 0]).T)

    @functools.cached_property
    def edge_sides(self) -> np.ndarray:
        return np.tile(np.asarray(SIDE_TAGS), self.level)

    @property
    def centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)

    @functools.cached_property
    def grid(self) -> DualGrid:
        """The cell grid of piecewise-constant vector fields on this mesh,
        its geometry and the stencil kernels of the element gradient and
        its adjoint, built on first use; see DualGrid."""
        return DualGrid(self)

    def nearest_nodes(self, points) -> np.ndarray:
        """Index of the grid node nearest to each point (n, 2); vertex
        (ix, iy) has index iy*(level+1) + ix."""
        ix, iy = (np.clip(np.rint((points[:, k] - a) / (b - a) * self.level),
                          0, self.level).astype(np.int64)
                  for k, (a, b) in enumerate(self.box))
        return iy * (self.level + 1) + ix

    def side_nodes(self, sides) -> np.ndarray:
        """Sorted indices of nodes lying on any of the given sides: the
        distinct vertices of their edges, without np.unique's first-use
        import of numpy.ma (about 15 ms)."""
        edges = self.boundary_edges[np.isin(self.edge_sides, list(sides))]
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


class DualGrid:
    """The geometry of a mesh's cell grid, the cell-grid layout of a
    piecewise-constant vector field on it, and the stencil kernels of the
    element gradient and its adjoint on it, the package's only ones.

    Every triangle of the mesh is one of two types, the lower and the upper
    half of a cell, and the grid holds the geometry of both: with
    ``inverse_spacing`` c = level / (b - a) of each side of the box, every
    triangle has ``area`` 0.5 / (c_x * c_y), and ``basis_gradients`` is
    the (2, 3, 2) array of the gradients of the three nodal basis functions
    on the lower (0) and the upper (1) triangle, in the vertex order of
    ``TriMesh.triangles``: (-c_x, 0), (c_x, -c_y), (0, c_y) and (0, -c_y),
    (c_x, 0), (-c_x, c_y).

    The field is held as four flat planes, lower-x, lower-y, upper-y and
    upper-x, a (2, 2, size) array indexed (a, b): a = 1 for the upper
    triangle of a cell, b = a xor c for component c.  Cell (ix, iy) sits at
    index iy*(level+1) + ix of each plane, the index of its bottom-left
    vertex, and size = level*(level+1) - 1: column ix = level is padding
    (``padding``, an index of the grid), held at +0.0, and the last padding
    cell is left out.  Component c of the gradient on plane (a, b) is
    (1 - 2a) * (f[v2] - f[v1]) * c_c, with v1 and v2 at the corner shifts
    a*(level+1) + b and 1 - a + b*(level+1) from the cell.

    ``to_grid`` and ``from_grid`` map to and from the (n_triangles, 2)
    layout; ``cells`` holds the flat grid index of each entry of that
    layout.  ``place_blocks`` sums element blocks onto the mesh's stencil
    diagonals.
    """

    # (diagonal, corner (dy, dx) of an entry's column vertex in the cell,
    # triangle, block row, block column), in element order: a vertex is the
    # tr, tl, br and bl corner of cells in increasing index
    _PLACEMENT = ((0, 1, 1, 0, 2, 2), (0, 1, 1, 1, 1, 1), (0, 1, 0, 1, 2, 2),
                  (0, 0, 1, 0, 1, 1), (0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0),
                  (1, 1, 0, 1, 1, 2), (1, 0, 0, 0, 1, 0),
                  (2, 0, 1, 0, 2, 1), (2, 0, 0, 1, 2, 0),
                  (3, 0, 0, 0, 2, 0), (3, 0, 0, 1, 1, 0))

    def __init__(self, mesh: TriMesh):
        l = mesh.level
        self.level, self.size = l, l * (l + 1) - 1
        self.inverse_spacing = c_x, c_y = tuple(l / (b - a)
                                                for a, b in mesh.box)
        self.area = 0.5 / (c_x * c_y)
        self.basis_gradients = np.array(
            [[[-c_x, 0.0], [c_x, -c_y], [0.0, c_y]],
             [[0.0, -c_y], [c_x, 0.0], [-c_x, c_y]]])
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

    def place_blocks(self, blocks) -> np.ndarray:
        """The (4, n_vertices) diagonals at ``TriMesh.stencil_offsets`` of
        the sum of one (3, 3) element block per triangle, in the order and
        the vertex order of ``TriMesh.triangles`` (an (n_triangles, 3, 3)
        array or one that reshapes to it).  Entry (v + offset, v) sums, from
        +0.0 and in element order, the block entries in the row of vertex
        v + offset and the column of v: the bits of an element-by-element
        sum.
        """
        l = self.level
        b = np.reshape(blocks, (l, l, 2, 3, 3))
        d = np.zeros((4, l + 1, l + 1))
        for k, dy, dx, s, i, j in self._PLACEMENT:
            d[k, dy:dy + l, dx:dx + l] += b[:, :, s, i, j]
        return d.reshape(4, -1)

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
    """The level-``level`` structured triangulation of a rectangle.

    Every cell is split along its bottom-left/top-right diagonal, so nested
    refinements (level doubling) line up node-over-node.  Raises ValueError
    for a level or a box that TriMesh refuses.
    """
    return TriMesh(level, box)


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
