import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tvsource import primal_dual
from tvsource.fem_assembly import (CoefficientSet, NeumannData,
                                   assemble_boundary_mass, assemble_mass,
                                   assemble_stiffness, div_adjoint,
                                   elem_gradient, neumann_load,
                                   unit_coefficients)
from tvsource.mesh import (GammaSpec, TriMesh, _triangle_geometry,
                           build_structured)
from tvsource.experiment import (ExperimentConfig, benchmark_flux,
                                 synthesize_observation)
from tvsource.tv_calculus import gradient_pairing, tv_value

from conftest import benchmark_dp, dense, random_dp

# two-triangle unit-level mesh of (-1,1)^2, nodes ordered
# (-1,-1), (1,-1), (-1,1), (1,1); assembled by hand from the
# element matrices of the two diagonal-split triangles
HAND_STIFFNESS = np.array([
    [1.0, -0.5, -0.5, 0.0],
    [-0.5, 1.0, 0.0, -0.5],
    [-0.5, 0.0, 1.0, -0.5],
    [0.0, -0.5, -0.5, 1.0],
])
HAND_MASS = np.array([
    [2 / 3, 1 / 6, 1 / 6, 1 / 3],
    [1 / 6, 1 / 3, 0.0, 1 / 6],
    [1 / 6, 0.0, 1 / 3, 1 / 6],
    [1 / 3, 1 / 6, 1 / 6, 2 / 3],
])
# consistent mass matrix of a triangle of unit area
UNIT_ELEMENT_MASS = np.array([[2.0, 1.0, 1.0],
                              [1.0, 2.0, 1.0],
                              [1.0, 1.0, 2.0]]) / 12.0


def _random_coeffs(mesh, rng, beta_scale=0.0, sigma_scale=0.0):
    g = rng.standard_normal((mesh.n_triangles, 2, 2))
    alpha = np.einsum("tab,tcb->tac", g, g) + 0.5 * np.eye(2)
    beta = beta_scale * rng.uniform(0, 1, mesh.n_triangles)
    sigma = sigma_scale * rng.uniform(0, 1, len(mesh.boundary_edges))
    return CoefficientSet(alpha, beta, sigma, alpha_lower=0.5)


def test_stiffness_matches_hand_assembly():
    mesh = build_structured(1)
    A = dense(assemble_stiffness(mesh, unit_coefficients(mesh)))
    assert np.allclose(A, HAND_STIFFNESS, atol=1e-14)


def test_stiffness_symmetric_and_constants_in_kernel(rng):
    for level in (2, 3, 5):
        mesh = build_structured(level)
        A = dense(assemble_stiffness(mesh, _random_coeffs(mesh, rng)))
        assert abs(A - A.T).max() <= 1e-12
        assert np.max(np.abs(A @ np.ones(mesh.n_vertices))) <= 1e-12


def test_stiffness_definite_with_reaction(rng):
    mesh = build_structured(3)
    coeffs = _random_coeffs(mesh, rng, beta_scale=1.0)
    coeffs = CoefficientSet(coeffs.alpha, coeffs.beta + 0.1, coeffs.sigma, 0.5)
    A = dense(assemble_stiffness(mesh, coeffs))
    lam = np.linalg.eigvalsh(A)
    assert lam.min() > 0


def test_assembly_needs_structured_numbering(rng):
    # renumbered vertices couple at offsets outside the stencil
    mesh = build_structured(3)
    sigma = rng.permutation(mesh.n_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[sigma] = mesh.vertices
    permuted = TriMesh(vertices, sigma[mesh.triangles], mesh.areas,
                       mesh.grads, sigma[mesh.boundary_edges],
                       mesh.edge_lengths, mesh.edge_sides, mesh.level)
    with pytest.raises(ValueError, match="outside the stencil offsets"):
        assemble_stiffness(permuted, unit_coefficients(permuted))


def _dense_assembly(n, conn, blocks):
    """Element blocks summed into a dense n x n matrix, element by element."""
    D = np.zeros((n, n))
    for nodes, block in zip(conn, blocks):
        np.add.at(D, np.ix_(nodes, nodes), block)
    return D


def _dense_references(dp):
    """Dense stiffness, unit stiffness, mass and boundary mass of a problem,
    from per-element blocks."""
    mesh, coeffs = dp.mesh, dp.prob.coeffs
    n = mesh.n_vertices
    A, K = (_dense_assembly(n, mesh.triangles, [
        area * G @ alpha @ G.T
        for area, G, alpha in zip(mesh.areas, mesh.grads, alphas)])
        for alphas in (coeffs.alpha, np.broadcast_to(np.eye(2),
                                                     coeffs.alpha.shape)))
    diag = np.zeros(n)
    np.add.at(diag, mesh.triangles, (coeffs.beta * mesh.areas / 3.0)[:, None])
    np.add.at(diag, mesh.boundary_edges,
              (coeffs.sigma * mesh.edge_lengths / 2.0)[:, None])
    A += np.diag(diag)
    M = _dense_assembly(n, mesh.triangles,
                        [area * UNIT_ELEMENT_MASS for area in mesh.areas])
    on_gamma = np.isin(mesh.edge_sides, list(dp.prob.gamma.sides))
    M_gamma = _dense_assembly(n, mesh.boundary_edges[on_gamma], [
        length / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
        for length in mesh.edge_lengths[on_gamma]])
    return {"A": (dp.A, A), "K_unit": (dp.K_unit, K), "M": (dp.M, M),
            "M_gamma": (dp.M_gamma, M_gamma)}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2**32 - 1), st.booleans(),
       st.booleans(), st.sampled_from([("bottom",), ("bottom", "left")]))
def test_operators_match_dense_element_assembly(level, seed, reaction,
                                                boundary_term, gamma):
    # random SPD diffusion with beta > 0, sigma > 0 or pure Neumann: every
    # stored operator is the dense element-by-element sum, and its products
    # with one vector and with a block of vectors are the dense products
    dp, rng = random_dp(level, seed, reaction, boundary_term, gamma)
    n = dp.mesh.n_vertices
    refs = _dense_references(dp)
    for name, (op, ref) in refs.items():
        scale = np.abs(ref).max()
        np.testing.assert_allclose(dense(op), ref, rtol=0,
                                   atol=1e-13 * scale, err_msg=name)
        for X in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            np.testing.assert_allclose(
                op @ X, dense(op) @ X, rtol=0,
                atol=1e-13 * np.max(np.abs(ref) @ np.abs(X)), err_msg=name)
    M = refs["M"][1]
    np.testing.assert_allclose(dp.w, M.sum(axis=1), rtol=1e-13)
    nodes = dp.gamma_nodes
    np.testing.assert_allclose(
        dp.boundary_map.M,
        refs["M_gamma"][1][np.ix_(nodes, nodes)], rtol=0,
        atol=1e-14 * dp.mesh.edge_lengths.max())


def test_ellipticity_violation_rejected():
    mesh = build_structured(2)
    alpha = np.broadcast_to(np.diag([1e-3, 1.0]), (mesh.n_triangles, 2, 2))
    with pytest.raises(ValueError, match="ellipticity"):
        CoefficientSet(alpha.copy(), np.zeros(mesh.n_triangles),
                       np.zeros(len(mesh.boundary_edges)), alpha_lower=0.5)
    with pytest.raises(ValueError, match="symmetric"):
        skew = np.broadcast_to(np.array([[1.0, 0.5], [-0.5, 1.0]]),
                               (mesh.n_triangles, 2, 2))
        CoefficientSet(skew.copy(), np.zeros(mesh.n_triangles),
                       np.zeros(len(mesh.boundary_edges)), alpha_lower=0.1)


def test_coercivity_with_benchmark_coefficients(rng):
    # a(u,u) >= c1 * |u|_{H1}^2 over mean-free fields, c1 from the formula
    dp, _ = benchmark_dp(8)
    c1 = 0.025
    for _ in range(100):
        u = rng.standard_normal(dp.mesh.n_vertices)
        u -= (dp.w @ u) / dp.w.sum()
        a_uu = u @ (dp.A @ u)
        assert a_uu >= c1 * dp.h1_norm(u) ** 2


def test_trace_bound(rng):
    dp, _ = benchmark_dp(8)
    gamma_all = GammaSpec(frozenset({"bottom", "top", "left", "right"}))
    M_bnd = assemble_boundary_mass(dp.mesh, gamma_all)
    c_gamma = np.sqrt(3.0)
    for _ in range(100):
        u = rng.standard_normal(dp.mesh.n_vertices)
        trace_norm = np.sqrt(u @ (M_bnd @ u))
        assert trace_norm <= c_gamma * dp.h1_norm(u) * (1 + 1e-12)


class TestMass:
    def test_hand_matrix_and_partition_of_unity(self):
        mesh = build_structured(1)
        M, lumped = assemble_mass(mesh)
        assert np.allclose(dense(M), HAND_MASS, atol=1e-14)
        ones = np.ones(mesh.n_vertices)
        assert abs(ones @ (M @ ones) - 4.0) <= 1e-12
        assert abs(lumped.sum() - 4.0) <= 1e-12
        assert np.allclose(lumped, dense(M).sum(axis=1))

    def test_quadrature_oracle(self, rng):
        # f^T M g equals the exact integral of the product, computed
        # independently with the degree-2 edge-midpoint rule
        mesh = build_structured(2)
        M, _ = assemble_mass(mesh)
        f = rng.standard_normal(mesh.n_vertices)
        g = rng.standard_normal(mesh.n_vertices)
        total = 0.0
        for t, tri in enumerate(mesh.triangles):
            vals_f, vals_g = f[tri], g[tri]
            for i, j in ((0, 1), (1, 2), (2, 0)):
                fm = 0.5 * (vals_f[i] + vals_f[j])
                gm = 0.5 * (vals_g[i] + vals_g[j])
                total += mesh.areas[t] / 3.0 * fm * gm
        assert abs(f @ (M @ g) - total) <= 1e-12 * max(abs(total), 1.0)


class TestBoundaryMass:
    def test_side_measures(self):
        mesh = build_structured(4)
        ones = np.ones(mesh.n_vertices)
        M_b = assemble_boundary_mass(mesh, GammaSpec(frozenset({"bottom"})))
        assert abs(ones @ (M_b @ ones) - 2.0) <= 1e-12
        M_bl = assemble_boundary_mass(
            mesh, GammaSpec(frozenset({"bottom", "left"})))
        assert abs(ones @ (M_bl @ ones) - 4.0) <= 1e-12

    def test_single_edge_block(self):
        mesh = build_structured(1)  # one bottom edge of length 2
        M_b = dense(assemble_boundary_mass(mesh,
                                           GammaSpec(frozenset({"bottom"}))))
        block = M_b[np.ix_([0, 1], [0, 1])]
        assert np.allclose(block, 2.0 / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]]),
                           atol=1e-14)
        assert np.max(np.abs(M_b[2:, :])) == 0.0

    def test_supported_only_on_marked_nodes(self):
        mesh = build_structured(4)
        M_b = assemble_boundary_mass(mesh, GammaSpec(frozenset({"top"})))
        nodes = np.unique(np.nonzero(dense(M_b))[0])
        top = mesh.side_nodes({"top"})
        assert np.array_equal(nodes, top)


class TestNeumannLoad:
    def test_zero_flux(self):
        mesh = build_structured(3)
        j = NeumannData(np.zeros(len(mesh.boundary_edges)))
        assert np.max(np.abs(neumann_load(mesh, j))) == 0.0

    def test_unit_flux_one_side(self):
        mesh = build_structured(4)
        vals = np.where(mesh.edge_sides == "bottom", 1.0, 0.0)
        b = neumann_load(mesh, NeumannData(vals))
        assert abs(b.sum() - 2.0) <= 1e-12

    def test_benchmark_flux_is_compatible(self):
        mesh = build_structured(8)
        b = neumann_load(mesh, benchmark_flux(mesh))
        assert abs(b.sum()) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2**32 - 1))
def test_scatters_equal_add_at_references(level, seed):
    # the divergence and the flux load sum the same terms in the same order
    # as np.einsum and np.add.at would, so the results are equal bit for bit
    mesh = build_structured(level)
    rng = np.random.default_rng(seed)
    n = mesh.n_vertices
    p = rng.standard_normal((mesh.n_triangles, 2))
    ref = np.zeros(n)
    np.add.at(ref, mesh.triangles.ravel(),
              np.einsum("t,tia,ta->ti", mesh.areas, mesh.grads, p).ravel())
    assert np.array_equal(div_adjoint(mesh, p), ref)
    flux = NeumannData(rng.standard_normal(len(mesh.boundary_edges)))
    ref = np.zeros(n)
    np.add.at(ref, mesh.boundary_edges.ravel(),
              np.repeat(flux.values * mesh.edge_lengths / 2.0, 2))
    assert np.array_equal(neumann_load(mesh, flux), ref)


class TestGradientAndDivergence:
    def test_elem_gradient_affine(self):
        mesh = build_structured(3)
        x1, x2 = mesh.vertices[:, 0], mesh.vertices[:, 1]
        assert np.allclose(elem_gradient(mesh, x1), [1.0, 0.0], atol=1e-13)
        assert np.max(np.abs(elem_gradient(mesh, np.full(16, 2.5)))) == 0.0
        g = elem_gradient(mesh, 2.0 * x1 + 3.0 * x2 - 1.0)
        assert np.allclose(g, [2.0, 3.0], atol=1e-12)

    def test_div_adjoint_zero(self):
        mesh = build_structured(2)
        assert np.max(np.abs(div_adjoint(mesh, np.zeros((8, 2))))) == 0.0

    def test_div_adjoint_hand_value(self):
        mesh = build_structured(1)
        p = np.tile([1.0, 0.0], (2, 1))
        assert np.allclose(div_adjoint(mesh, p), [-1.0, 1.0, -1.0, 1.0],
                           atol=1e-14)

    def test_adjointness_identity(self, rng):
        mesh = build_structured(4)
        for _ in range(10):
            p = rng.standard_normal((mesh.n_triangles, 2))
            g = rng.standard_normal(mesh.n_vertices)
            lhs = div_adjoint(mesh, p) @ g
            rhs = float(np.sum(mesh.areas[:, None] * elem_gradient(mesh, g) * p))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


# element-by-element references of the gradient kernels: the flat-table
# kernels must reproduce them bit for bit
def _ref_elem_gradient(mesh, f):
    return np.einsum("tia,ti->ta", mesh.grads, f[mesh.triangles])


def _ref_div_adjoint(mesh, p):
    ref = np.zeros(mesh.n_vertices)
    np.add.at(ref, mesh.triangles.ravel(),
              np.einsum("t,tia,ta->ti", mesh.areas, mesh.grads, p).ravel())
    return ref


def _ref_tv_value(mesh, f):
    return float(np.sum(mesh.areas[:, None]
                        * np.abs(_ref_elem_gradient(mesh, f))))


class TestKernelsMatchReference:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 16),
           st.sampled_from([((-1.0, 1.0), (-1.0, 1.0)),
                            ((-1.0, 2.0), (0.0, 1.0))]))
    def test_gradient_and_tv_bytes(self, data, level, box):
        mesh = build_structured(level, box)
        values = st.floats(-1e6, 1e6, allow_nan=False)
        f = data.draw(arrays(np.float64, mesh.n_vertices, elements=values))
        p = data.draw(arrays(np.float64, (mesh.n_triangles, 2),
                             elements=values))
        ref = _ref_elem_gradient(mesh, f)
        assert elem_gradient(mesh, f).tobytes() == ref.tobytes()
        # signed zeros: the reference never gives -0.0
        zeros = np.where(data.draw(arrays(bool, mesh.n_vertices)), -0.0, 0.0)
        assert (elem_gradient(mesh, zeros).tobytes()
                == _ref_elem_gradient(mesh, zeros).tobytes())
        assert (np.float64(tv_value(mesh, f)).tobytes()
                == np.float64(_ref_tv_value(mesh, f)).tobytes())
        pairing = float(np.sum(mesh.areas[:, None] * ref * p))
        assert (np.float64(gradient_pairing(mesh, f, p)).tobytes()
                == np.float64(pairing).tobytes())

    def test_skewed_triangle_is_rejected(self):
        # a moved interior vertex leaves three nonzero coefficients in a
        # component, which the two-term tables cannot hold
        mesh = build_structured(4)
        vertices = mesh.vertices.copy()
        vertices[6] += (0.05, 0.03)
        areas, grads = _triangle_geometry(vertices, mesh.triangles)
        skewed = TriMesh(vertices, mesh.triangles, areas, grads,
                         mesh.boundary_edges, mesh.edge_lengths,
                         mesh.edge_sides, mesh.level, mesh.box)
        with pytest.raises(ValueError, match="axis-aligned right triangles"):
            elem_gradient(skewed, np.zeros(mesh.n_vertices))
        with pytest.raises(ValueError, match="axis-aligned right triangles"):
            div_adjoint(skewed, np.zeros((mesh.n_triangles, 2)))

    def test_loop_matches_reference_kernels(self, monkeypatch):
        # 40 primal-dual iterations at level 8 end on the same bits with
        # the element-by-element kernels
        dp, f_truth = benchmark_dp(8)
        z = synthesize_observation(dp, f_truth, 0.0, 0)
        params = primal_dual.PdParams(
            rho=ExperimentConfig().level_params(dp.mesh.mesh_size).rho,
            tau=5.0, theta=5e-2, max_iter=40)
        cert = primal_dual.certify_steps_empirical(params, dp)

        def run():
            state = primal_dual.run(dp, z, params, certificate=cert)
            assert state.n == 40
            return state, np.array([r.objective for r in state.history])

        state, objectives = run()
        monkeypatch.setattr(primal_dual, "elem_gradient", _ref_elem_gradient)
        monkeypatch.setattr(primal_dual, "div_adjoint", _ref_div_adjoint)
        monkeypatch.setattr(primal_dual, "tv_value", _ref_tv_value)
        ref_state, ref_objectives = run()
        assert state.f.tobytes() == ref_state.f.tobytes()
        assert state.p.tobytes() == ref_state.p.tobytes()
        assert objectives.tobytes() == ref_objectives.tobytes()
