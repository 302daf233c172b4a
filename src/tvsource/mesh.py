"""Structured triangulations of axis-aligned rectangles.

The level-``l`` mesh of (-1,1)^2 splits each coordinate interval into ``l``
equal segments and every resulting cell along its bottom-left/top-right
diagonal, giving 2*l^2 triangles and (l+1)^2 vertices.  Meshes are immutable
after construction and safe to share between threads; the one cache a mesh
holds, its gradient table, is built on first use (see TriMesh).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

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

    The element gradient and its adjoint read ``gradient_table``, flat
    arrays built from triangles, grads and areas on first use and cached
    on the mesh.  The mesh is immutable; a concurrent first use may build
    the table twice, which is harmless, as both builds are equal.

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
    def gradient_table(self) -> GradientTable:
        """Flat per-mesh tables of the element gradient, its adjoint and
        the area weights, built on first use; see GradientTable."""
        return _gradient_table(self.triangles, self.areas, self.grads)

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


class GradientTable(NamedTuple):
    """Contiguous flat arrays for the gradient kernels of one mesh.

    Entry k = 2*t + c of a 2*n_triangles array belongs to component c of
    triangle t, the order of a C-contiguous (n_triangles, 2) field.  On an
    axis-aligned right triangle one basis-gradient coefficient of each
    component is exactly 0.0, so component c of the gradient of f on t is
    ``coefs[0, k] * f[nodes[0, k]] + coefs[1, k] * f[nodes[1, k]]``.
    """

    nodes: np.ndarray    # (2, 2 n_t) int: the two vertices of entry k
    coefs: np.ndarray    # (2, 2 n_t): their basis-gradient coefficients
    weights: np.ndarray  # (2 n_t,): the area of triangle t at entry k


def _gradient_table(triangles, areas, grads) -> GradientTable:
    """Build the GradientTable; raises ValueError where a component has
    three nonzero basis-gradient coefficients (a triangle that is not an
    axis-aligned right triangle)."""
    n_t = triangles.shape[0]
    nodes = np.empty((2, n_t, 2), dtype=triangles.dtype)
    coefs = np.empty((2, n_t, 2))
    # one component at a time, so that every operation runs along the
    # triangles instead of broadcasting over a trailing axis of length 2
    for c in range(2):
        g = grads[:, :, c]
        first, middle, last = (g[:, i] != 0.0 for i in range(3))
        bad = np.flatnonzero(first & middle & last)
        if bad.size:
            raise ValueError(
                f"triangle {bad[0]} has three nonzero basis-gradient "
                "coefficients in one component; the gradient tables need "
                "axis-aligned right triangles")
        # the first nonzero coefficient sits at local vertex 0 or 1, the
        # last at 2 or 1
        nodes[0, :, c] = np.where(first, triangles[:, 0], triangles[:, 1])
        nodes[1, :, c] = np.where(last, triangles[:, 2], triangles[:, 1])
        coefs[0, :, c] = np.where(first, g[:, 0], g[:, 1])
        coefs[1, :, c] = np.where(last, g[:, 2], g[:, 1])
    return GradientTable(nodes.reshape(2, -1), coefs.reshape(2, -1),
                         np.repeat(areas, 2))


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
    xs = np.linspace(ax, bx, n)
    ys = np.linspace(ay, by, n)
    xx, yy = np.meshgrid(xs, ys)
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # vertex (ix, iy) has index iy * n + ix; cells run row by row
    iy, ix = np.divmod(np.arange(level * level, dtype=np.int64), level)
    bl = iy * n + ix
    br, tl, tr = bl + 1, bl + n, bl + n + 1
    # lower triangle of the cell, then the upper one
    triangles = np.stack([bl, br, tr, bl, tr, tl], axis=1).reshape(-1, 3)

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
