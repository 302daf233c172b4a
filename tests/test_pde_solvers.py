import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tvsource import pde_solvers
from tvsource.experiment import build_benchmark_problem, synthesize_observation
from tvsource.fem_assembly import (CoefficientSet, NeumannData,
                                   assemble_stiffness)
from tvsource.mesh import GammaSpec, build_structured
from tvsource.pde_solvers import DiscreteProblem, Observation, ProblemDef, misfit
from tvsource.sparse_linalg import cg_solve

from conftest import (benchmark_dp, boundary_nodes, chunked_boundary_map,
                      dense, dense_boundary_mass, random_dp,
                      triangle_geometry, unit_coefficients)


def _problem(level, beta=0.0, flux=None, gamma=("bottom",)):
    mesh = build_structured(level)
    base = unit_coefficients(mesh)
    coeffs = CoefficientSet(base.alpha, np.full(mesh.n_triangles, beta),
                            base.sigma, 1.0)
    if flux is None:
        flux = NeumannData(np.zeros(len(mesh.boundary_edges)))
    return ProblemDef(mesh, coeffs, flux, GammaSpec(frozenset(gamma)))


def test_constant_solution_with_reaction():
    dp = DiscreteProblem(_problem(4, beta=1.0), cg_tol=1e-13)
    u = dp.solve_state(np.ones(dp.mesh.n_vertices))
    assert np.max(np.abs(u - 1.0)) <= 1e-10


def test_pure_neumann_zero_data():
    dp = DiscreteProblem(_problem(4), cg_tol=1e-13)
    u = dp.solve_state(np.zeros(dp.mesh.n_vertices))
    assert np.max(np.abs(u)) <= 1e-12


def test_pure_neumann_affine_manufactured():
    # flux of u* = x1 is +-1 on the vertical sides; the solution is exactly
    # representable and mean free, so it is reproduced to solver tolerance
    mesh = build_structured(8)
    vals = np.where(mesh.edge_sides == "right", 1.0,
                    np.where(mesh.edge_sides == "left", -1.0, 0.0))
    dp = DiscreteProblem(_problem(8, flux=NeumannData(vals)), cg_tol=1e-13)
    u = dp.solve_state(np.zeros(dp.mesh.n_vertices))
    assert np.max(np.abs(u - mesh.vertices[:, 0])) <= 1e-9


def test_adjoint_vanishes_on_matched_data():
    dp, f_truth = benchmark_dp(4)
    u_gamma = dp.solve_state(f_truth)[dp.gamma_nodes]
    u_a = dp.solve_adjoint(u_gamma, Observation(dp.gamma_nodes, u_gamma))
    assert np.max(np.abs(u_a)) <= 1e-10


def test_misfit_and_adjoint_reject_an_observation_of_other_nodes():
    # exact data moved onto the left side's nodes, or with the last node
    # dropped, read as misfits of 1.10 and 0.30 when embedded; both refuse it
    dp, f_truth = benchmark_dp(8)
    nodes = dp.gamma_nodes
    u_gamma = dp.solve_state(f_truth)[nodes]
    z = Observation(nodes, u_gamma)
    assert misfit(dp, u_gamma, z) <= 1e-20
    left = dp.mesh.side_nodes(("left",))
    assert left.shape == nodes.shape and not np.array_equal(left, nodes)
    for bad in (Observation(left, z.values),
                Observation(nodes[:-1], z.values[:-1])):
        with pytest.raises(ValueError, match="observed boundary nodes"):
            misfit(dp, u_gamma, bad)
        with pytest.raises(ValueError, match="observed boundary nodes"):
            dp.solve_adjoint(u_gamma, bad)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_adjoint_gradient_identity(seed, reaction, boundary_term):
    # pairing the data residual with the linearized state equals pairing
    # the direction with the adjoint state, for random sources/directions
    # and random SPD diffusion, with or without beta > 0 and sigma > 0
    # (pure Neumann, deflated, when both are off)
    rng = np.random.default_rng(seed)
    mesh = build_structured(4)
    L = rng.standard_normal((mesh.n_triangles, 2, 2))
    alpha = L @ L.transpose(0, 2, 1) + 0.1 * np.eye(2)
    n_edges = len(mesh.boundary_edges)
    beta = rng.uniform(0.0, 2.0, mesh.n_triangles) * reaction
    sigma = rng.uniform(0.0, 2.0, n_edges) * boundary_term
    prob = ProblemDef(mesh, CoefficientSet(alpha, beta, sigma, 0.1),
                      NeumannData(rng.standard_normal(n_edges)),
                      GammaSpec(frozenset(("bottom", "left"))))
    dp = DiscreteProblem(prob, cg_tol=1e-13)
    z = Observation(dp.gamma_nodes, rng.standard_normal(len(dp.gamma_nodes)))
    nodes = dp.gamma_nodes
    for _ in range(3):
        f = rng.uniform(-1.0, 3.0, dp.mesh.n_vertices)
        xi = rng.standard_normal(dp.mesh.n_vertices)
        u_gamma = dp.solve_state(f)[nodes]
        u_a = dp.solve_adjoint(u_gamma, z)
        u_bar = dp.solve_source_part(xi)[nodes]
        lhs = float((u_gamma - z.values) @ (dp.M_gamma @ u_bar))
        rhs = dp.lumped_inner(xi, u_a)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1e-12)


def test_gradient_matches_central_differences(rng):
    # the misfit is quadratic in the source, so central differences agree
    # with the adjoint pairing to solver accuracy for any step; if the
    # differences ever left the noise floor they would have to shrink at
    # second order
    dp, f_truth = benchmark_dp(4)
    z = synthesize_observation(dp, f_truth, 1e-2, 11)

    def trace(f):
        return dp.solve_state(f)[dp.gamma_nodes]

    def L(f):
        return misfit(dp, trace(f), z)

    f = rng.uniform(-1.0, 3.0, dp.mesh.n_vertices)
    xi = rng.standard_normal(dp.mesh.n_vertices)
    u_a = dp.solve_adjoint(trace(f), z)
    deriv = dp.lumped_inner(xi, u_a)
    errs = []
    for eps in (1e-3, 1e-4):
        fd = (L(f + eps * xi) - L(f - eps * xi)) / (2.0 * eps)
        errs.append(abs(fd - deriv))
    scale = max(abs(deriv), 1e-12)
    if max(errs) > 1e-8 * scale:
        order = math.log(errs[0] / errs[1]) / math.log(10.0)
        assert order >= 1.9
    assert max(errs) <= 1e-6 * scale


class TestDirichlet:
    def test_affine_boundary_data(self):
        dp = DiscreteProblem(_problem(6), cg_tol=1e-13)
        g = dp.mesh.vertices[:, 0].copy()
        u = dp.solve_dirichlet(np.zeros(dp.mesh.n_vertices), g)
        assert np.max(np.abs(u - g)) <= 1e-10

    def test_constant_boundary_data(self):
        dp = DiscreteProblem(_problem(5), cg_tol=1e-13)
        u = dp.solve_dirichlet(np.zeros(dp.mesh.n_vertices),
                               np.full(dp.mesh.n_vertices, 2.5))
        assert np.max(np.abs(u - 2.5)) <= 1e-10


def _compatibility_residual(dp, f):
    """Volume integral of the source plus the total boundary flux."""
    return float(dp.w @ f + dp.b_flux.sum())


def test_compatibility_residual_values():
    dp, f_truth = benchmark_dp(32)
    n = dp.mesh.n_vertices
    assert _compatibility_residual(dp, np.zeros(n)) == pytest.approx(
        0.0, abs=1e-12)
    assert _compatibility_residual(dp, np.ones(n)) == pytest.approx(
        4.0, abs=1e-10)
    # the sampled truth is compatible up to the interface quadrature error
    assert abs(_compatibility_residual(dp, f_truth)) <= 0.05


def _smooth_errors(level):
    """L2 and H1 errors against u* = cos(pi x1) cos(pi x2), beta = 1."""
    dp = DiscreteProblem(_problem(level, beta=1.0), cg_tol=1e-13)
    mesh = dp.mesh
    x = mesh.vertices

    def exact(pts):
        return np.cos(np.pi * pts[..., 0]) * np.cos(np.pi * pts[..., 1])

    def exact_grad(pts):
        gx = -np.pi * np.sin(np.pi * pts[..., 0]) * np.cos(np.pi * pts[..., 1])
        gy = -np.pi * np.cos(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1])
        return np.stack([gx, gy], axis=-1)

    f = (2.0 * np.pi**2 + 1.0) * exact(x)
    u = dp.solve_state(f)

    p = mesh.vertices[mesh.triangles]            # (nt, 3, 2)
    mids = 0.5 * (p + np.roll(p, -1, axis=1))    # edge midpoints, degree-2 rule
    uh_nodes = u[mesh.triangles]
    uh_mids = 0.5 * (uh_nodes + np.roll(uh_nodes, -1, axis=1))
    areas, grads = triangle_geometry(mesh)
    w = areas[:, None] / 3.0
    err_sq = np.sum(w * (uh_mids - exact(mids)) ** 2)
    grad_uh = np.einsum("tia,ti->ta", grads, uh_nodes)
    gerr = grad_uh[:, None, :] - exact_grad(mids)
    gerr_sq = np.sum(w[..., None] * gerr**2)
    return np.sqrt(err_sq), np.sqrt(err_sq + gerr_sq), mesh.mesh_size


def test_manufactured_convergence_orders():
    data = [_smooth_errors(lv) for lv in (4, 8, 16, 32)]
    l2 = np.log([d[0] for d in data])
    h1 = np.log([d[1] for d in data])
    hs = np.log([d[2] for d in data])
    order_l2 = np.polyfit(hs, l2, 1)[0]
    order_h1 = np.polyfit(hs, h1, 1)[0]
    assert order_l2 >= 1.8
    assert order_h1 >= 0.9


@pytest.mark.parametrize("level", [4, 8, 16, 32])
def test_h1_norm_matches_the_assembled_unit_stiffness(level, rng):
    # the element-gradient seminorm is the quadratic form of the assembled
    # unit-diffusion stiffness, for rough fields and for the benchmark truth
    dp, f_truth = benchmark_dp(level)
    K = assemble_stiffness(dp.mesh, unit_coefficients(dp.mesh))
    for u in (rng.standard_normal(dp.mesh.n_vertices), f_truth):
        ref = u @ (K @ u) + u @ (dp.M @ u)
        assert dp.h1_norm(u) ** 2 == pytest.approx(ref, rel=1e-13, abs=0)


def test_quadratic_form_of_linearized_misfit_nonnegative(rng):
    # the second derivative in a direction equals the squared boundary
    # norm of the linearized state, evaluated through two full state solves
    dp, f_truth = benchmark_dp(4)
    f = rng.uniform(-1.0, 3.0, dp.mesh.n_vertices)
    u_f = dp.solve_state(f)
    for _ in range(100):
        xi = rng.standard_normal(dp.mesh.n_vertices)
        u_shift = dp.solve_state(f + xi)
        u_bar = u_shift - u_f
        value = dp.gamma_norm(u_bar[dp.gamma_nodes]) ** 2
        assert value >= 0.0
        direct = dp.solve_source_part(xi)
        assert np.max(np.abs(u_bar - direct)) <= 1e-8 * max(
            1.0, np.max(np.abs(direct)))


FACTOR_CASES = (st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans(),
                st.booleans())


@settings(max_examples=60, deadline=None)
@given(*FACTOR_CASES)
def test_factored_solves_match_dense_reference(level, seed, reaction,
                                               boundary_term):
    dp, rng = random_dp(level, seed, reaction, boundary_term)
    A, w, n = dense(dp.A), dp.w, dp.mesh.n_vertices
    f = rng.standard_normal(n)
    u = dp.solve_state(f)
    rhs = w * f + dp.b_flux
    if dp.pure_neumann:
        ref = np.linalg.lstsq(A, rhs - rhs.sum() / w.sum() * w, rcond=None)[0]
        ref -= (w @ ref) / w.sum()
        assert abs(w @ u) <= 1e-12 * w.sum() * np.max(np.abs(u))
    else:
        ref = np.linalg.solve(A, rhs)
    assert np.linalg.norm(u - ref) <= 1e-9 * np.linalg.norm(ref)

    g = rng.standard_normal(n)
    u_d = dp.solve_dirichlet(f, g)
    bnodes = boundary_nodes(dp.mesh)
    inner = np.setdiff1d(np.arange(n), bnodes)
    ref_d = g.copy()
    ref_d[inner] = np.linalg.solve(
        A[np.ix_(inner, inner)],
        (w * f)[inner] - A[np.ix_(inner, bnodes)] @ g[bnodes])
    assert np.linalg.norm(u_d - ref_d) <= 1e-9 * np.linalg.norm(ref_d)


DIRICHLET_BOXES = (((-1.0, 1.0), (-1.0, 1.0)), ((-1.0, 2.0), (0.0, 1.0)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from(DIRICHLET_BOXES))
@example(1, 0, False, DIRICHLET_BOXES[1])  # no interior node
@example(2, 1, True, DIRICHLET_BOXES[1])   # one interior node
def test_dirichlet_solve_is_the_dense_interior_solve(level, seed, reaction,
                                                     box):
    # the interior unknowns solve A's dense interior block, loaded by w f
    # less A's coupling to the boundary data, to the forward error of a
    # backward-stable solve, cond * eps (2^-45 is 128 eps; at most 3e-15
    # times cond was seen); the boundary nodes keep their data bit for bit
    dp, rng = random_dp(level, seed, reaction, False, box=box)
    A, n = dense(dp.A), dp.mesh.n_vertices
    f, g = rng.standard_normal((2, n))
    u = dp.solve_dirichlet(f, g)
    bnodes = boundary_nodes(dp.mesh)
    inner = np.setdiff1d(np.arange(n), bnodes)
    assert u.shape == (n,) and u[bnodes].tobytes() == g[bnodes].tobytes()
    if inner.size:
        A_inner = A[np.ix_(inner, inner)]
        ref = np.linalg.solve(A_inner, (dp.w * f)[inner]
                              - A[np.ix_(inner, bnodes)] @ g[bnodes])
        assert (np.linalg.norm(u[inner] - ref) <= 2.0**-45
                * np.linalg.cond(A_inner) * np.linalg.norm(ref))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_pure_neumann_compatibility_still_enforced(level, seed):
    dp, rng = random_dp(level, seed, False, False)
    # the solve deflates the load onto the compatible range: a source that
    # breaks the compatibility condition by a constant has the same state
    f = rng.standard_normal(dp.mesh.n_vertices)
    f_ok = f - _compatibility_residual(dp, f) / dp.domain_volume
    u = dp.solve_state(f_ok)
    assert abs(dp.w @ u) <= 1e-12 * dp.domain_volume * np.max(np.abs(u))
    u_off = dp.solve_state(f_ok + 1.0)
    assert np.max(np.abs(u_off - u)) <= 1e-10 * max(np.max(np.abs(u)), 1.0)


def _meets(res, rhs, tol):
    """Whether each column's residual is within ``tol`` of its load."""
    n = rhs.shape[0]
    return np.all(np.linalg.norm(np.reshape(res, (n, -1)), axis=0)
                  <= tol * np.linalg.norm(np.reshape(rhs, (n, -1)), axis=0))


@settings(max_examples=30, deadline=None)
@given(*FACTOR_CASES)
def test_every_solve_meets_the_tolerance_without_cg(level, seed, reaction,
                                                    boundary_term):
    # one load, a block of loads and a Dirichlet problem: each factored
    # solution meets cg_tol as it is, so CG is never called
    dp, rng = random_dp(level, seed, reaction, boundary_term)
    A, w, n = dp.A, dp.w, dp.mesh.n_vertices
    f, loads, g = (rng.standard_normal(shape) for shape in (n, (n, 3), n))

    def deflated(b):
        if not dp.pure_neumann:
            return b
        return b - np.multiply.outer(w, b.sum(axis=0) / dp.domain_volume)

    with mock.patch.object(pde_solvers, "cg_solve") as cg:
        u = dp.solve_state(f)
        U = dp._solve(loads)
        u_d = dp.solve_dirichlet(loads[:, 0], g)
    cg.assert_not_called()
    rhs = deflated(w * f + dp.b_flux)
    assert _meets(A @ u - rhs, rhs, dp.cg_tol)
    rhs = deflated(loads)
    assert _meets(A @ U - rhs, rhs, dp.cg_tol)
    bnodes = boundary_nodes(dp.mesh)
    assert np.array_equal(u_d[bnodes], g[bnodes])
    u_b = np.zeros_like(g)
    u_b[bnodes] = g[bnodes]
    rhs = w * loads[:, 0] - A @ u_b
    res = A @ u_d - w * loads[:, 0]
    rhs[bnodes] = res[bnodes] = 0.0
    assert _meets(res, rhs, dp.cg_tol)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 16), *FACTOR_CASES[1:],
       st.sampled_from([("bottom",), ("bottom", "left")]))
def test_boundary_map_matches_full_solves(level, seed, reaction,
                                          boundary_term, gamma):
    # the trace and the adjoint state read through G = L[:, Gamma] equal
    # those of full state and adjoint solves; the truth data of a level
    # are read from G, so its trace agrees to rounding
    dp, rng = random_dp(level, seed, reaction, boundary_term, gamma)
    bmap, nodes, n = dp.boundary_map, dp.gamma_nodes, dp.mesh.n_vertices
    z = Observation(nodes, rng.standard_normal(nodes.shape[0]))
    for _ in range(3):
        f = rng.uniform(-1.0, 3.0, n)
        u = dp.solve_state(f)
        u_gamma = bmap.trace(dp.w * f)
        assert (np.linalg.norm(u_gamma - u[nodes])
                <= 1e-12 * np.linalg.norm(u[nodes]))
        u_a = dp.solve_adjoint(u[nodes], z)
        u_a_map = bmap.matvec(dp.M_gamma @ (u_gamma - z.values))
        assert np.linalg.norm(u_a_map - u_a) <= 1e-10 * np.linalg.norm(u_a)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 16), *FACTOR_CASES[1:],
       st.sampled_from([("bottom",), ("bottom", "left")]))
def test_one_block_boundary_map_matches_the_chunked_build(level, seed,
                                                          reaction,
                                                          boundary_term,
                                                          gamma):
    # one block solve in place on G gives the G of four-column chunks to
    # rounding, for pure-Neumann (grounded factor, deflated loads) and
    # definite problems, and its flux trace is read from that G, which the
    # map holds as its one dense strip
    dp, _ = random_dp(level, seed, reaction, boundary_term, gamma)
    ref = chunked_boundary_map(dp)
    bmap = dp.boundary_map
    assert bmap.dense.shape == ref.shape and not bmap.factors
    assert np.max(np.abs(bmap.dense - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert np.array_equal(bmap.flux_trace, bmap.dense.T @ dp.b_flux)


@pytest.mark.parametrize("gamma_case", ["bottom", "bottom_left"])
def test_benchmark_boundary_map_matches_the_chunked_build(gamma_case):
    dp = DiscreteProblem(build_benchmark_problem(32, gamma_case)[0])
    ref = chunked_boundary_map(dp)
    assert np.max(np.abs(dp.boundary_map.dense - ref)) <= 1e-14 * np.max(
        np.abs(ref))


@pytest.mark.parametrize("gamma_case", ["bottom", "bottom_left"])
def test_boundary_map_build_holds_g_and_a_few_columns(gamma_case):
    # the traced peak of the build is at most G, the factor's inverses
    # (one block per grid row) and four column chunks of n x 4: the check
    # runs after the factorization is freed, and a load block next to G,
    # a second n x m array, exceeds the bound
    dp = DiscreteProblem(build_benchmark_problem(32, gamma_case)[0])
    n, m_rows = dp.mesh.n_vertices, dp.mesh.level + 1
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        G = dp.boundary_map.dense
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= G.nbytes + n * m_rows * 8 + 4 * (n * 4 * 8)


def _address(a) -> int:
    return a.__array_interface__["data"][0]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([8, 16, 32]),
       st.sampled_from(["bottom", "bottom_left"]), st.integers(2, 8),
       st.integers(0, 2**32 - 1))
def test_compressed_boundary_map_stays_within_its_bound(level, gamma_case,
                                                        strips, seed):
    # the compressor itself, on a copy of the benchmark's G: both products
    # stay within the map's stated bound of the dense G's; the factored
    # strips are the trailing strips that shrink, each with the rank of
    # its truncated SVD and its factor US inside its own rows of G's
    # buffer; the strips before them, the first that would not shrink
    # among them, stay dense, their bytes unchanged; the truncation is the
    # root sum of squares of the first dropped singular values; and the
    # certificate's G^T W G is that of the strips
    dp, _ = benchmark_dp(level, gamma_case)
    G = dp.boundary_map.dense
    (n, m), norm = G.shape, np.linalg.norm(G)
    bmap = pde_solvers.BoundaryMap(G.copy(), dp.boundary_map.flux_trace)
    buffer = _address(bmap.dense)
    bmap.compress(strips)
    rng = np.random.default_rng(seed)
    x, c = rng.standard_normal(n), rng.standard_normal(m)
    assert (np.linalg.norm(bmap.rmatvec(x) - G.T @ x)
            <= bmap.error_bound * np.linalg.norm(x))
    assert (np.linalg.norm(bmap.matvec(c) - G @ c)
            <= bmap.error_bound * np.linalg.norm(c))
    assert (np.linalg.norm(bmap.trace(x) - G.T @ x - bmap.flux_trace)
            <= bmap.error_bound * np.linalg.norm(x) + 1e-15 * norm)

    edges = [n * i // strips for i in range(strips + 1)]
    # the compressor's call: without vectors LAPACK takes another route,
    # whose singular values may fall on the other side of the threshold
    svds = [np.linalg.svd(G[a:b], full_matrices=False)[1]
            for a, b in zip(edges, edges[1:])]
    ranks = [int(np.count_nonzero(s > 1e-15 * norm)) for s in svds]
    shrinks = [(b - a + m) * k < (b - a) * m
               for a, b, k in zip(edges, edges[1:], ranks)]
    first = strips
    while first > 0 and shrinks[first - 1]:
        first -= 1
    head = edges[first]
    assert bmap.dense.shape == (head, m)
    assert _address(bmap.dense) == buffer
    assert bmap.dense.tobytes() == G[:head].tobytes()
    assert [(rows.start, rows.stop, us.shape)
            for rows, us in bmap.factors] == [
        (a, b, (b - a, k))
        for a, b, k in zip(edges[first:], edges[first + 1:], ranks[first:])]
    assert bmap.vt.shape == (sum(ranks[first:]), m)
    for rows, us in bmap.factors:
        assert us.flags.f_contiguous
        assert buffer + rows.start * m * 8 == _address(us)
        assert _address(us) + us.nbytes <= buffer + rows.stop * m * 8
    assert bmap.truncation == math.hypot(*(
        s[k] for s, k in zip(svds[first:], ranks[first:])))
    assert bmap.error_bound == (bmap.truncation + m * 2.0**-52 * norm
                                if bmap.factors else 0.0)
    ends = np.cumsum([0] + ranks[first:])
    held = np.concatenate([bmap.dense] + [
        us @ bmap.vt[a:b] for (_, us), a, b in zip(bmap.factors, ends,
                                                   ends[1:])])
    gram = held.T @ (dp.w[:, None] * held)
    assert np.abs(bmap.gram(dp.w) - gram).max() <= 1e-12 * np.abs(gram).max()


def test_compressing_level_64_allocates_no_array_as_large_as_g():
    # the factors overwrite G's buffer: the traced peak of the compression,
    # each SVD's copy of one strip and its factors, stays below G's size,
    # and compressing again changes nothing; the pages of a factored strip
    # past its factor are handed back, and read as zeros (where the C
    # library has madvise); the compressed map's products hold no
    # reference to it, so a released map is freed at once, with no cycle
    # for the collector to find
    dp = DiscreteProblem(build_benchmark_problem(64)[0])
    bmap = dp.boundary_map
    G = bmap.dense
    g_bytes = G.nbytes
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        bmap.compress()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert [us.shape[1] for _, us in bmap.factors] == [42, 29, 23, 19, 16]
    assert peak < g_bytes
    factors = bmap.factors
    bmap.compress()
    assert bmap.factors is factors
    if pde_solvers._madvise() is not None:
        page = pde_solvers._madvise()[0] // 8
        for rows, us in bmap.factors:
            freed = G[rows].reshape(-1)[us.size:]
            assert freed.size > 2 * page
            assert np.count_nonzero(freed) < 2 * page
    released = weakref.ref(bmap)
    del bmap
    dp.release_loop_arrays()
    assert released() is None


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 16), *FACTOR_CASES[1:],
       st.sampled_from([("bottom",), ("bottom", "left")]))
def test_gamma_vector_forms_match_the_nodal_forms(level, seed, reaction,
                                                 boundary_term, gamma):
    # the boundary norm, the misfit and the adjoint load read on the
    # observed nodes equal their n-space forms with the dense n x n
    # boundary mass, whatever the nodal vector holds off Gamma
    dp, rng = random_dp(level, seed, reaction, boundary_term, gamma)
    nodes, n = dp.gamma_nodes, dp.mesh.n_vertices
    M_full = dense_boundary_mass(dp)
    u = rng.standard_normal(n)
    z = Observation(nodes, rng.standard_normal(nodes.shape[0]))
    r = u.copy()
    r[nodes] -= z.values
    assert dp.gamma_norm(u[nodes]) == pytest.approx(
        math.sqrt(u @ M_full @ u), rel=1e-13)
    assert misfit(dp, u[nodes], z) == pytest.approx(0.5 * r @ M_full @ r,
                                                    rel=1e-13)
    loads = []
    with mock.patch.object(dp, "_solve", loads.append):
        dp.solve_adjoint(u[nodes], z)
    assert np.all(np.abs(loads[0] - M_full @ r)
                  <= 1e-13 * (np.abs(M_full) @ np.abs(r)))


class _SpoiledFactor(pde_solvers.BlockTridiagonalFactor):
    """A factorization whose solutions miss any solve tolerance in their
    last column."""

    def solve(self, b, out=None):
        x = super().solve(b, out)
        last = x[:, -1] if x.ndim == 2 else x
        last *= 1.0 + 1e-6
        return x


def test_boundary_map_column_missing_the_tolerance_is_polished():
    # on every solve path, the boundary map's included, a factored column
    # that misses cg_tol is handed to CG, so it carries the guarantee of
    # every other column
    prob = build_benchmark_problem(16)[0]
    f, g = np.random.default_rng(5).standard_normal((2, prob.mesh.n_vertices,
                                                     2))
    paths = {  # name -> (the path's solution, the columns it polishes)
        "boundary map": (lambda dp: dp.boundary_map.dense, 1),  # one block
        "one load": (lambda dp: dp.solve_state(f[:, 0]), 1),
        "block of loads": (lambda dp: dp._solve(f), 1),
        "Dirichlet": (lambda dp: dp.solve_dirichlet(f[:, 0], g[:, 0]), 1),
    }
    for name, (path, polished) in paths.items():
        ref = path(DiscreteProblem(prob, cg_tol=1e-12))
        calls = []

        def recording_cg(*args, **kwargs):
            calls.append(kwargs["x0"])
            return cg_solve(*args, **kwargs)

        with mock.patch.object(pde_solvers, "BlockTridiagonalFactor",
                               _SpoiledFactor), \
                mock.patch.object(pde_solvers, "cg_solve", recording_cg):
            x = path(DiscreteProblem(prob, cg_tol=1e-12))
        assert len(calls) == polished, name
        assert np.all(np.linalg.norm(x - ref, axis=0)
                      <= 1e-9 * np.linalg.norm(ref, axis=0)), name
