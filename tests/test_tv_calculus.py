import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tvsource.mesh import build_structured

from conftest import triangle_geometry
from tvsource.tv_calculus import (gradient_pairing, project_dual_ball,
                                  project_dual_ball_isotropic,
                                  subgradient_witness, tv_value)


@pytest.fixture(scope="module")
def mesh():
    return build_structured(4)


def test_values_on_simple_fields(mesh):
    x1, x2 = mesh.vertices[:, 0], mesh.vertices[:, 1]
    assert tv_value(mesh, np.full(mesh.n_vertices, 7.0)) == 0.0
    assert tv_value(mesh, x1) == pytest.approx(4.0, abs=1e-12)
    assert tv_value(mesh, x1 + x2) == pytest.approx(8.0, abs=1e-12)


def test_witness_on_linear_fields(mesh):
    x1, x2 = mesh.vertices[:, 0], mesh.vertices[:, 1]
    assert np.allclose(subgradient_witness(mesh, x1), [1.0, 0.0])
    assert np.allclose(subgradient_witness(mesh, -x2), [0.0, -1.0])


def test_witness_attains_value(mesh, rng):
    for _ in range(20):
        f = rng.standard_normal(mesh.n_vertices)
        tv = tv_value(mesh, f)
        attained = gradient_pairing(mesh, f, subgradient_witness(mesh, f))
        assert abs(tv - attained) <= 1e-12 * max(tv, 1.0)


def test_duality_upper_bound(mesh, rng):
    # every feasible dual field pairs below the total variation
    for _ in range(100):
        f = rng.standard_normal(mesh.n_vertices)
        tv = tv_value(mesh, f)
        q = rng.uniform(-1.0, 1.0, (1000, mesh.n_triangles, 2))
        areas, grads = triangle_geometry(mesh)
        g = np.einsum("tia,ti->ta", grads, f[mesh.triangles])
        pairings = np.einsum("t,nta,ta->n", areas, q, g)
        assert np.max(pairings) <= tv + 1e-12


def test_first_order_condition_of_witness(mesh, rng):
    f = rng.standard_normal(mesh.n_vertices)
    p_star = subgradient_witness(mesh, f)
    q = rng.uniform(-1.0, 1.0, (500, mesh.n_triangles, 2))
    areas, grads = triangle_geometry(mesh)
    g = np.einsum("tia,ti->ta", grads, f[mesh.triangles])
    diffs = np.einsum("t,nta,ta->n", areas, q - p_star, g)
    assert np.max(diffs) <= 1e-12


def test_homogeneity_and_triangle_inequality(mesh, rng):
    for _ in range(20):
        f = rng.standard_normal(mesh.n_vertices)
        g = rng.standard_normal(mesh.n_vertices)
        c = rng.standard_normal()
        assert tv_value(mesh, c * f) == pytest.approx(
            abs(c) * tv_value(mesh, f), rel=1e-12)
        assert (tv_value(mesh, f + g)
                <= tv_value(mesh, f) + tv_value(mesh, g) + 1e-12)


class TestProjection:
    def test_idempotent_inside_ball(self, rng):
        p = rng.uniform(-1.0, 1.0, (32, 2))
        assert np.array_equal(project_dual_ball(p), p)

    def test_clamps_outliers(self):
        p = np.array([[2.5, -7.0], [0.25, 1.0]])
        out = project_dual_ball(p)
        assert np.array_equal(out, [[1.0, -1.0], [0.25, 1.0]])

    def test_nearest_point_against_separable_oracle(self, mesh, rng):
        # per component, the projection minimizes the area-weighted
        # quadratic distance over [-1, 1]; reconstruct each 1d objective
        # by quadratic interpolation and minimize it directly
        p = 3.0 * rng.standard_normal((mesh.n_triangles, 2))
        proj = project_dual_ball(p)
        areas, _ = triangle_geometry(mesh)
        for t in rng.integers(0, mesh.n_triangles, size=12):
            for j in (0, 1):
                def obj(q):
                    return areas[t] * (q - p[t, j]) ** 2
                samples = np.array([-1.0, 0.0, 1.0])
                coef = np.polyfit(samples, [obj(s) for s in samples], 2)
                vertex = -coef[1] / (2.0 * coef[0])
                best = min((obj(c), c) for c in
                           (np.clip(vertex, -1.0, 1.0), -1.0, 1.0))[1]
                assert abs(proj[t, j] - best) <= 1e-10

    def test_isotropic_variant(self, rng):
        p = 4.0 * rng.standard_normal((64, 2))
        out = project_dual_ball_isotropic(p)
        norms = np.linalg.norm(out, axis=1)
        assert np.max(norms) <= 1.0 + 1e-14
        inside = np.linalg.norm(p, axis=1) <= 1.0
        assert np.allclose(out[inside], p[inside])


finite = st.floats(-1e6, 1e6, allow_nan=False)
unit = st.floats(-1.0, 1.0)
weights = arrays(np.float64, 6, elements=st.floats(1e-3, 1e3))


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, (6, 2), elements=finite),
       arrays(np.float64, (6, 2), elements=unit), weights)
def test_clamp_is_nearest_point_of_the_ball(p, q, w):
    # the componentwise ball is a product of intervals, so the nearest
    # point is nearest in every component and for any elementwise weight
    proj = project_dual_ball(p)
    assert np.all(np.abs(proj) <= 1.0)
    assert np.all(w[:, None] * (p - proj) ** 2 <= w[:, None] * (p - q) ** 2)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, (6, 2), elements=finite),
       arrays(np.float64, 6, elements=st.floats(0.0, 1.0)),
       arrays(np.float64, 6, elements=st.floats(0.0, 2.0 * np.pi)), weights)
def test_isotropic_projection_is_nearest_point_of_the_disks(p, r, phi, w):
    q = r[:, None] * np.column_stack([np.cos(phi), np.sin(phi)])
    proj = project_dual_ball_isotropic(p)
    assert np.all(np.linalg.norm(proj, axis=1) <= 1.0 + 1e-15)
    d_proj = w * np.sum((p - proj) ** 2, axis=1)
    d_q = w * np.sum((p - q) ** 2, axis=1)
    assert np.all(d_proj <= d_q + 1e-12 * w * (1.0 + np.sum(p**2, axis=1)))
