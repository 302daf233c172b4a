import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tvsource import primal_dual
from tvsource.fem_assembly import (CoefficientSet, DualGrid, NeumannData,
                                   assemble_boundary_mass, assemble_mass,
                                   assemble_stiffness, corner_gather,
                                   div_adjoint, elem_gradient, neumann_load,
                                   node_sum, table_gather, table_scatter)
from tvsource.mesh import (GammaSpec, TriMesh, _triangle_geometry,
                           build_structured)
from tvsource.experiment import (ExperimentConfig, benchmark_flux,
                                 synthesize_observation)
from tvsource.tv_calculus import gradient_pairing, tv_value

from conftest import (benchmark_dp, dense, dense_boundary_mass, random_dp,
                      step_tables, unit_coefficients)

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
    """Dense stiffness, unit stiffness and mass of a problem, from
    per-element blocks."""
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
    K_unit = assemble_stiffness(mesh, unit_coefficients(mesh))
    return {"A": (dp.A, A), "K_unit": (K_unit, K), "M": (dp.M, M)}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2**32 - 1), st.booleans(),
       st.booleans(), st.sampled_from([("bottom",), ("bottom", "left")]))
def test_operators_match_dense_element_assembly(level, seed, reaction,
                                                boundary_term, gamma):
    # random SPD diffusion with beta > 0, sigma > 0 or pure Neumann: every
    # stored operator is the dense element-by-element sum, and its products
    # with one vector and with a block of vectors are the dense products;
    # the boundary mass is the block on the observed nodes of its dense
    # n x n sum, which vanishes outside that block
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
    nodes, M_full = dp.gamma_nodes, dense_boundary_mass(dp)
    block = M_full[np.ix_(nodes, nodes)]
    np.testing.assert_allclose(dp.M_gamma, block, rtol=0,
                               atol=1e-14 * dp.mesh.edge_lengths.max())
    M_full[np.ix_(nodes, nodes)] = 0.0
    assert not np.any(M_full)


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
    nodes, M_bnd = assemble_boundary_mass(dp.mesh, gamma_all)
    c_gamma = np.sqrt(3.0)
    for _ in range(100):
        u = rng.standard_normal(dp.mesh.n_vertices)
        trace_norm = np.sqrt(u[nodes] @ (M_bnd @ u[nodes]))
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
        for sides, measure in ((("bottom",), 2.0), (("bottom", "left"), 4.0)):
            nodes, M = assemble_boundary_mass(mesh, GammaSpec(frozenset(sides)))
            ones = np.ones(nodes.shape[0])
            assert abs(ones @ (M @ ones) - measure) <= 1e-12

    def test_single_edge_block(self):
        mesh = build_structured(1)  # one bottom edge of length 2
        nodes, M_b = assemble_boundary_mass(mesh,
                                            GammaSpec(frozenset({"bottom"})))
        assert np.array_equal(nodes, [0, 1])
        assert np.allclose(M_b, 2.0 / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]]),
                           atol=1e-14)

    def test_supported_only_on_marked_nodes(self):
        # the matrix is on the marked side's nodes, in their order, and
        # couples each node with itself and its neighbours on the side only
        mesh = build_structured(4)
        nodes, M_b = assemble_boundary_mass(mesh,
                                            GammaSpec(frozenset({"top"})))
        assert np.array_equal(nodes, mesh.side_nodes({"top"}))
        i, j = np.nonzero(M_b)
        assert np.all(np.abs(i - j) <= 1) and np.all(np.diag(M_b) > 0)


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
    # as np.add.at would, so the results are equal bit for bit; the
    # divergence sums the gradient table's two terms row by row, and is
    # the three-term element sum up to rounding
    mesh = build_structured(level)
    rng = np.random.default_rng(seed)
    n = mesh.n_vertices
    p = rng.standard_normal((mesh.n_triangles, 2))
    tab = mesh.gradient_table
    ref = np.zeros(n)
    np.add.at(ref, tab.nodes.ravel(),
              (tab.coefs * tab.weights * p.ravel()).ravel())
    div = div_adjoint(mesh, p)
    assert np.array_equal(div, ref)
    terms = np.einsum("t,tia,ta->tia", mesh.areas, mesh.grads, p)
    bound = np.bincount(mesh.triangles.ravel(),
                        np.abs(terms).sum(axis=2).ravel(), n)
    assert np.all(np.abs(div - _ref_div_adjoint(mesh, p)) <= 1e-14 * bound)
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
        # the steps' kernels written as fancy indexing and np.add.at over
        # step tables built in the test, on the (n_triangles, 2) layout
        # that the driver's grid maps convert to and from, and the
        # element-by-element total variation
        dp, f_truth = benchmark_dp(8)
        z = synthesize_observation(dp, f_truth, 0.0, 0)
        params = primal_dual.PdParams(
            rho=ExperimentConfig().level_params(dp.mesh.mesh_size).rho,
            tau=5.0, theta=5e-2, max_iter=40)

        def run():
            stops = []
            state = primal_dual.run(dp, z, params, on_iteration=lambda *a:
                                    stops.append(a[-1]))
            assert state.n == 40
            return state, np.array(stops)

        nodes, grad, div = step_tables(dp, params)
        calls = []

        def ref_dual_step(driver, p, f):  # with the step's gradient
            calls.append("gather")
            q = driver.grid.from_grid(p).ravel()
            q += grad[0] * f[nodes[0]] + grad[1] * f[nodes[1]]
            return driver.grid.to_grid(np.clip(q, -1.0, 1.0))

        def ref_primal_step(driver, f, p, u_a):  # with the step's div
            calls.append("scatter")
            d = np.zeros(f.shape[0])
            np.add.at(d, nodes.ravel(),
                      (div * driver.grid.from_grid(p).ravel()).ravel())
            return np.clip(f - driver.params.tau * u_a - d, *driver.box)

        state, stops = run()
        monkeypatch.setattr(primal_dual.PdDriver, "dual_step", ref_dual_step)
        monkeypatch.setattr(primal_dual.PdDriver, "primal_step",
                            ref_primal_step)
        monkeypatch.setattr(primal_dual, "tv_value", _ref_tv_value)
        ref_state, ref_stops = run()
        # every step ran on the reference kernels
        assert calls.count("gather") == 40 and calls.count("scatter") == 41
        assert state.f.tobytes() == ref_state.f.tobytes()
        assert state.p.tobytes() == ref_state.p.tobytes()
        assert stops.tobytes() == ref_stops.tobytes()
        assert (np.float64(state.objective).tobytes()
                == np.float64(ref_state.objective).tobytes())


class TestDualGrid:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 16))
    def test_grid_kernels_match_table_kernels(self, data, level):
        # on random two-term coefficient tables, with signed zeros and +-1
        # in the dual, the grid kernels give the table kernels' bits
        mesh = build_structured(level)
        grid, tab = DualGrid(mesh), mesh.gradient_table
        n, k = mesh.n_vertices, tab.nodes.shape[1]
        values = st.floats(-1e3, 1e3) | st.sampled_from([-0.0, 0.0])
        coefs = data.draw(arrays(np.float64, (2, k), elements=values))
        f = data.draw(arrays(np.float64, n, elements=values))
        p = data.draw(arrays(np.float64, (mesh.n_triangles, 2),
                             elements=st.sampled_from([-1.0, -0.0, 0.0, 1.0])
                             | st.floats(-1.0, 1.0)))
        q = grid.to_grid(p)
        assert q.shape == (2, 2, level * (level + 1) - 1)
        assert grid.from_grid(q).tobytes() == p.tobytes()
        padding = np.ones(q.size, bool)
        padding[grid.cells] = False
        assert np.all(q.ravel()[padding] == 0.0)
        assert not np.signbit(q.ravel()[padding]).any()

        g = corner_gather(grid.corner_table(coefs), grid.corner_views(f))
        assert (grid.from_grid(g).tobytes()
                == table_gather(tab.nodes, coefs, f).tobytes())
        # a dual step's sum, p + gradient, keeps the padding at +0.0
        g += q
        assert g.ravel()[padding].tobytes() == bytes(8 * padding.sum())

        div = node_sum(grid.node_cells, grid.node_table(coefs), q)
        assert (div.tobytes()
                == table_scatter(tab.nodes, coefs, p, n).tobytes())

    def test_node_table_rows(self):
        # a node has at most eight terms; every node of the level-1 mesh
        # has two, so its table has no empty slot to fill from padding
        for level, rows in ((1, 2), (2, 8), (5, 8)):
            mesh = build_structured(level)
            grid = DualGrid(mesh)
            coefs = grid.node_table(np.ones_like(mesh.gradient_table.coefs))
            assert grid.node_cells.shape == coefs.shape == (
                rows, mesh.n_vertices)
            assert coefs.sum() == 2 * mesh.gradient_table.nodes.shape[1]
            assert (coefs.sum(axis=0) == np.bincount(
                mesh.gradient_table.nodes.ravel())).all()

    def test_other_numbering_is_rejected(self):
        # the corner views rely on build_structured's numbering; a mesh
        # whose triangles are listed in another order is refused
        mesh = build_structured(3)
        flipped = TriMesh(mesh.vertices, mesh.triangles[::-1].copy(),
                          mesh.areas[::-1].copy(), mesh.grads[::-1].copy(),
                          mesh.boundary_edges, mesh.edge_lengths,
                          mesh.edge_sides, mesh.level, mesh.box)
        with pytest.raises(ValueError, match="numbering of build_structured"):
            DualGrid(flipped)
