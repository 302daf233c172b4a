"""Structured triangulations of axis-aligned rectangles.

The level-``l`` mesh of (-1,1)^2 splits each coordinate interval into ``l``
equal segments and every resulting cell along its bottom-left/top-right
diagonal, giving 2*l^2 triangles and (l+1)^2 vertices.  Meshes are immutable
after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SIDE_TAGS = ("bottom", "top", "left", "right")


@dataclass(frozen=True)
class TriMesh:
    """Triangulation of an axis-aligned rectangle with boundary markers.

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
    def mesh_size(self) -> float:
        """Triangle diameter h = sqrt(8)/l on the default domain."""
        hx = (self.box[0][1] - self.box[0][0]) / self.level
        hy = (self.box[1][1] - self.box[1][0]) / self.level
        return float(np.hypot(hx, hy))

    @property
    def centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)

    def nearest_nodes(self, points) -> np.ndarray:
        """Index of the grid node nearest to each point (n, 2) of a mesh from
        build_structured, whose vertex (ix, iy) has index iy*(level+1) + ix."""
        ix, iy = (np.clip(np.rint((points[:, k] - a) / (b - a) * self.level),
                          0, self.level).astype(np.int64)
                  for k, (a, b) in enumerate(self.box))
        return iy * (self.level + 1) + ix

    def boundary_nodes(self) -> np.ndarray:
        """Sorted indices of all nodes on the boundary."""
        return np.unique(self.boundary_edges)

    def side_nodes(self, sides) -> np.ndarray:
        """Sorted indices of nodes lying on any of the given sides."""
        mask = np.isin(self.edge_sides, list(sides))
        return np.unique(self.boundary_edges[mask])


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
    if np.any(areas <= 0):
        raise AssertionError("non-positive triangle area in structured mesh")
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
    """Inject per-triangle values onto the refined mesh by centroid lookup.

    Each fine triangle takes the value of the coarse triangle containing its
    centroid, so componentwise bounds are preserved exactly.
    """
    _check_nested(coarse_mesh, fine_mesh)
    coarse = np.asarray(coarse, dtype=float)
    if coarse.shape[0] != coarse_mesh.n_triangles:
        raise ValueError("field length does not match coarse mesh")
    (ax, _), (ay, _) = coarse_mesh.box
    lc = coarse_mesh.level
    hx = (coarse_mesh.box[0][1] - ax) / lc
    hy = (coarse_mesh.box[1][1] - ay) / lc
    cen = fine_mesh.centroids
    ix = np.clip(((cen[:, 0] - ax) / hx).astype(int), 0, lc - 1)
    iy = np.clip(((cen[:, 1] - ay) / hy).astype(int), 0, lc - 1)
    # local coordinates decide lower (eta < xi) vs upper coarse triangle
    xi = (cen[:, 0] - ax) / hx - ix
    eta = (cen[:, 1] - ay) / hy - iy
    upper = (eta > xi).astype(int)
    parent = 2 * (iy * lc + ix) + upper
    return coarse[parent]
