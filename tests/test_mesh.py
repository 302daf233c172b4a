import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvsource.mesh import (SIDE_TAGS, GammaSpec, TriMesh, build_structured,
                           prolong_p0, prolong_p1)

from conftest import centroids, edge_list, triangle_geometry


def test_counts_and_mesh_size():
    m = build_structured(4)
    assert m.n_triangles == 32
    assert m.n_vertices == 25
    assert round(m.mesh_size, 4) == 0.7071

    m1 = build_structured(1)
    assert m1.n_triangles == 2
    assert m1.n_vertices == 4
    assert abs(m1.n_triangles * m1.grid.area - 4.0) < 1e-12

    m8 = build_structured(8)
    assert m8.n_triangles == 2 * 8**2 == 128
    assert m8.n_vertices == (8 + 1) ** 2 == 81


@pytest.mark.parametrize("level", [0, -1])
def test_rejects_bad_level(level):
    with pytest.raises(ValueError):
        build_structured(level)


@pytest.mark.parametrize("box", [((1.0, -1.0), (-1.0, 1.0)),
                                 ((-1.0, 1.0), (1.0, -1.0)),
                                 ((0.0, 0.0), (-1.0, 1.0)),
                                 ((-1.0, np.inf), (-1.0, 1.0)),
                                 ((-1.0, 1.0), (np.nan, 1.0))])
def test_rejects_a_reversed_or_degenerate_box(box):
    # a ValueError that names the box, raised before any geometry (and
    # so before a numpy warning, which the test settings make an error)
    with pytest.raises(ValueError, match=r"box \(\(") as excinfo:
        build_structured(4, box)
    assert str(box) in str(excinfo.value)


@pytest.mark.parametrize("box", [((0.0, 5e-324), (-1.0, 1.0)),
                                 ((-1e308, 1e308), (-1.0, 1.0)),
                                 ((0.0, 1e-200), (0.0, 1e-200))])
def test_rejects_a_box_without_a_grid_spacing(box):
    # finite bounds a < b whose spacing (b - a) / level or whose area
    # rounds to zero or overflows
    with pytest.raises(ValueError, match="zero or infinite area"):
        build_structured(2, box)


def test_mesh_is_its_level_and_box():
    # two fields, the box held as floats, and arrays derived on first use:
    # equal meshes are equal values, whatever they have cached
    mesh = build_structured(np.int64(3), ((-1, 2), (0, 1)))
    assert [f.name for f in dataclasses.fields(mesh)] == ["level", "box"]
    assert type(mesh.level) is int
    assert mesh.box == ((-1.0, 2.0), (0.0, 1.0))
    assert all(type(v) is float for side in mesh.box for v in side)
    assert vars(mesh) == {"level": 3, "box": mesh.box}
    other = TriMesh(3, ((-1.0, 2.0), (0.0, 1.0)))
    _ = other.grid, other.vertices  # caches that take no part in equality
    assert mesh == other and hash(mesh) == hash(other)
    assert mesh.n_vertices == mesh.vertices.shape[0] == 16
    assert mesh.n_triangles == mesh.triangles.shape[0] == 18


@pytest.mark.parametrize("level", [1, 2, 3, 5, 8, 16])
def test_areas_positive_and_sum(level):
    m = build_structured(level)
    areas, _ = triangle_geometry(m)
    assert np.all(areas > 0)
    assert abs(areas.sum() - 4.0) <= 1e-12 * 4.0
    assert abs(m.n_triangles * m.grid.area - 4.0) <= 1e-12 * 4.0


def test_boundary_edges(rng):
    m = build_structured(5)
    (ax, bx), (ay, by) = m.box
    x, y = m.vertices.T
    on_side = {"bottom": y == ay, "top": y == by, "left": x == ax,
               "right": x == bx}
    # every side edge is a facet of exactly one triangle
    tri_edges = {}
    for tri in m.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            tri_edges[key] = tri_edges.get(key, 0) + 1
    for side in SIDE_TAGS:
        nodes, lengths = m.side(side)
        assert np.array_equal(nodes, np.flatnonzero(on_side[side]))
        assert lengths.shape == (5,)
        assert abs(lengths.sum() - 2.0) < 1e-12
        for a, b in zip(nodes[:-1], nodes[1:]):
            assert tri_edges[(a, b)] == 1
    # the rectangle corners are mesh nodes
    for corner in ((-1, -1), (1, -1), (-1, 1), (1, 1)):
        dist = np.hypot(m.vertices[:, 0] - corner[0],
                        m.vertices[:, 1] - corner[1])
        assert dist.min() < 1e-14


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 16), st.floats(-5.0, 5.0), st.floats(0.1, 10.0),
       st.floats(-5.0, 5.0), st.floats(0.1, 10.0))
def test_sides_axes_and_centroids_match_the_references(level, ax, wx, ay,
                                                       wy):
    # each side's edges and lengths are those of conftest's edge list,
    # bit for bit; the axes are the vertices' coordinates, and the centroid
    # axes give the bits of the mean of each triangle's vertices
    m = build_structured(level, ((ax, ax + wx), (ay, ay + wy)))
    edges, lengths, tags = edge_list(m)
    for k, tag in enumerate(SIDE_TAGS):
        nodes, side_lengths = m.side(tag)
        assert np.array_equal(edges[k::4],
                              np.stack([nodes[:-1], nodes[1:]], axis=1))
        assert side_lengths.tobytes() == lengths[k::4].tobytes()
        assert set(tags[k::4]) == {tag}
    x, y = m.axes
    assert m.vertices.tobytes() == np.column_stack(
        [np.tile(x, level + 1), np.repeat(y, level + 1)]).tobytes()
    cx, cy = m.centroid_axes()
    ref = centroids(m).reshape(level, level, 2, 2)  # [iy, ix, type, coord]
    for axes, coord in ((np.broadcast_to(cx.T, ref.shape[:3]), 0),
                        (np.broadcast_to(cy.T[:, None], ref.shape[:3]), 1)):
        assert (np.ascontiguousarray(axes).tobytes()
                == np.ascontiguousarray(ref[..., coord]).tobytes())


def test_gradients_exact_on_affine(rng):
    m = build_structured(3)
    a, b, c = rng.standard_normal(3)
    f = a + b * m.vertices[:, 0] + c * m.vertices[:, 1]
    basis = m.grid.basis_gradients[np.arange(m.n_triangles) % 2]
    grads = np.einsum("tia,ti->ta", basis, f[m.triangles])
    assert np.max(np.abs(grads[:, 0] - b)) < 1e-12
    assert np.max(np.abs(grads[:, 1] - c)) < 1e-12


def test_gamma_spec_validation():
    with pytest.raises(ValueError):
        GammaSpec(frozenset())
    with pytest.raises(ValueError):
        GammaSpec(frozenset({"north"}))
    g = GammaSpec(frozenset({"bottom", "left"}))
    assert g.sides == {"bottom", "left"}


# coarse levels, affine coefficients, value bounds lo < hi and noise seeds
levels = st.integers(1, 16)
coef = st.floats(-4.0, 4.0)
bounds = st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)).map(
    lambda t: (t[0], t[0] + t[1]))
seeds = st.integers(0, 2**32 - 1)


class TestProlongP1:
    def test_constant(self):
        coarse, fine = build_structured(4), build_structured(8)
        out = prolong_p1(np.full(coarse.n_vertices, 3.25), coarse, fine)
        assert np.max(np.abs(out - 3.25)) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(levels, coef, coef, coef)
    def test_affine_reproduced_exactly(self, level, a, b, c):
        coarse, fine = build_structured(level), build_structured(2 * level)
        f = a * coarse.vertices[:, 0] + b * coarse.vertices[:, 1] + c
        out = prolong_p1(f, coarse, fine)
        expected = a * fine.vertices[:, 0] + b * fine.vertices[:, 1] + c
        assert np.max(np.abs(out - expected)) < 1e-14

    def test_edge_midpoint_average(self):
        coarse, fine = build_structured(1), build_structured(2)
        f = np.zeros(coarse.n_vertices)
        f[1] = 1.0  # bottom-right corner
        out = prolong_p1(f, coarse, fine)
        # new node halfway along the bottom edge averages the two ends
        mid = np.argmin(np.hypot(fine.vertices[:, 0] - 0.0,
                                 fine.vertices[:, 1] + 1.0))
        assert out[mid] == pytest.approx(0.5, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(levels, bounds, seeds)
    def test_preserves_bounds(self, level, box, seed):
        coarse, fine = build_structured(level), build_structured(2 * level)
        f = np.random.default_rng(seed).uniform(*box, coarse.n_vertices)
        out = prolong_p1(f, coarse, fine)
        assert out.min() >= f.min() - 1e-15
        assert out.max() <= f.max() + 1e-15

    def test_level_mismatch_rejected(self):
        with pytest.raises(ValueError):
            prolong_p1(np.zeros(25), build_structured(4), build_structured(12))


def _containing_coarse_triangle(coarse: TriMesh, point):
    """Reference point location by barycentric coordinates."""
    p = coarse.vertices[coarse.triangles]
    for t in range(coarse.n_triangles):
        a, b, c = p[t]
        m = np.column_stack([b - a, c - a])
        lam = np.linalg.solve(m, point - a)
        if lam[0] >= -1e-12 and lam[1] >= -1e-12 and lam.sum() <= 1 + 1e-12:
            return t
    raise AssertionError("point not located")


class TestProlongP0:
    def test_constant_vector(self):
        coarse, fine = build_structured(2), build_structured(4)
        p = np.full((coarse.n_triangles, 2), 0.5)
        out = prolong_p0(p, coarse, fine)
        assert np.max(np.abs(out - 0.5)) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(levels, bounds, seeds)
    def test_sup_norm_preserved(self, level, box, seed):
        coarse, fine = build_structured(level), build_structured(2 * level)
        p = np.random.default_rng(seed).uniform(*box, (coarse.n_triangles, 2))
        out = prolong_p0(p, coarse, fine)
        assert np.max(np.abs(out)) == np.max(np.abs(p))

    def test_checkerboard_matches_centroid_parent(self, rng):
        # each fine triangle copies the coarse one holding its centroid,
        # for scalar and 2-vector fields
        for level, comps in ((1, (2,)), (2, (2,)), (3, ()), (3, (2,))):
            coarse, fine = build_structured(level), build_structured(2 * level)
            p = rng.standard_normal((coarse.n_triangles, *comps))
            out = prolong_p0(p, coarse, fine)
            assert out.shape == (fine.n_triangles, *comps)
            for t, cen in enumerate(centroids(fine)):
                parent = _containing_coarse_triangle(coarse, cen)
                assert np.array_equal(out[t], p[parent])

    def test_level_mismatch_rejected(self):
        with pytest.raises(ValueError):
            prolong_p0(np.zeros((8, 2)), build_structured(2),
                       build_structured(6))
