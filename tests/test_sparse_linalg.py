import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tvsource.fem_assembly import (CoefficientSet, NeumannData, assemble_mass,
                                   assemble_stiffness)
from tvsource.mesh import GammaSpec, build_structured
from tvsource.pde_solvers import DiscreteProblem, ProblemDef
from tvsource.primal_dual import PdDriver, PdParams
from tvsource.sparse_linalg import (BlockTridiagonalFactor, CgConvergenceError,
                                    FactorizationError, SymmetricStencil,
                                    cg_solve, grad_operator_norm)

from conftest import (boundary_nodes, dense, random_dp, stencil,
                      triangle_geometry, unit_coefficients)


def test_identity_converges_in_one_iteration(rng):
    b = rng.standard_normal(10)
    x, report = cg_solve(stencil(np.eye(10)), b, tol=1e-12)
    assert report.iterations == 1
    assert report.converged
    assert np.allclose(x, b, atol=1e-14)


def test_two_by_two_hand_solution():
    A = stencil(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    x, report = cg_solve(A, np.array([1.0, 0.0]), tol=1e-14)
    assert np.allclose(x, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    assert report.converged


def test_random_spd_matches_dense_solve(rng):
    for _ in range(5):
        q = rng.standard_normal((20, 20))
        A = q @ q.T + 20.0 * np.eye(20)
        b = rng.standard_normal(20)
        x, _ = cg_solve(stencil(A), b, tol=1e-12)
        x_ref = np.linalg.solve(A, b)
        assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)


def test_nonconvergence_raises_with_report(rng):
    q = rng.standard_normal((30, 30))
    A = stencil(q @ q.T + 1e-6 * np.eye(30))
    b = rng.standard_normal(30)
    with pytest.raises(CgConvergenceError) as excinfo:
        cg_solve(A, b, tol=1e-14, max_iter=2)
    assert excinfo.value.report.iterations == 2
    assert not excinfo.value.report.converged


@pytest.mark.parametrize("start", ["x0", "b"])
def test_a_start_that_is_not_finite_is_refused_as_such(start):
    # a NaN start is reported as one, before any iteration, not as a stall
    A, b, x0 = stencil(np.eye(3)), np.ones(3), np.zeros(3)
    (x0 if start == "x0" else b)[1] = np.nan
    with pytest.raises(CgConvergenceError,
                       match="start is not finite: relative residual nan"
                       ) as excinfo:
        cg_solve(A, b, x0=x0)
    assert excinfo.value.report.iterations == 0
    assert not excinfo.value.report.converged


def _structured_operator(level, seed, kind):
    """A random SPD operator on the structured offsets (0, 1, m, m + 1) of
    a level-``level`` mesh, with its block size m, its ``ground`` flag and
    its dense matrix: the grounded pure-Neumann stiffness or the stiffness
    with reaction or boundary term, with m = level + 1, or the stiffness's
    block on the interior nodes, the Dirichlet solve's system, in blocks of
    m = level - 1 (of 1 at level 1, which has no interior node), read from
    its dense matrix."""
    dp, _ = random_dp(level, seed, kind == "reaction",
                      kind == "boundary term")
    A, m, ground = dp.A, level + 1, kind == "grounded"
    if kind == "interior":
        inner = np.setdiff1d(np.arange(dp.mesh.n_vertices),
                             boundary_nodes(dp.mesh))
        A, m = stencil(dense(A)[np.ix_(inner, inner)]), max(level - 1, 1)
    A_dense = dense(A)
    A_dense[:1, :1] += ground
    return A, m, ground, A_dense


OPERATOR_CASES = (st.integers(1, 6), st.integers(0, 2**32 - 1),
                  st.sampled_from(["grounded", "reaction", "boundary term",
                                   "interior"]))


class TestBlockTridiagonalFactor:
    @settings(max_examples=40, deadline=None)
    @given(*OPERATOR_CASES)
    def test_matches_dense_solve(self, level, seed, kind):
        A, m, ground, A_dense = _structured_operator(level, seed, kind)
        b = np.random.default_rng(seed).standard_normal(A.shape[0])
        x = BlockTridiagonalFactor(A, m, ground).solve(b)
        x_ref = np.linalg.solve(A_dense, b)
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    @settings(max_examples=40, deadline=None)
    @given(*OPERATOR_CASES, st.integers(1, 9))
    def test_block_of_right_hand_sides_matches_column_solves(self, level,
                                                             seed, kind, k):
        A, m, ground, _ = _structured_operator(level, seed, kind)
        factor = BlockTridiagonalFactor(A, m, ground)
        b = np.random.default_rng(seed).standard_normal((A.shape[0], k))
        x = factor.solve(b)
        assert x.shape == b.shape
        for j in range(k):
            col = factor.solve(b[:, j])
            assert np.linalg.norm(x[:, j] - col) <= 1e-13 * np.linalg.norm(col)

    @settings(max_examples=30, deadline=None)
    @given(*OPERATOR_CASES, st.sampled_from([None, 1, 4, 9]))
    def test_solve_in_place_equals_solve(self, level, seed, kind, k):
        # the sweeps on a view of `out` give the bits of a solve on a copy,
        # for one load and for a block, and `out` is what is returned; a
        # column-major load is solved as its row-major copy
        A, m, ground, _ = _structured_operator(level, seed, kind)
        factor = BlockTridiagonalFactor(A, m, ground)
        shape = (A.shape[0],) if k is None else (A.shape[0], k)
        b = np.random.default_rng(seed).standard_normal(shape)
        x = factor.solve(b)
        assert factor.solve(np.asfortranarray(b)).tobytes() == x.tobytes()
        out = np.empty(shape)
        assert factor.solve(b, out=out) is out
        assert out.tobytes() == x.tobytes()
        assert factor.solve(b, out=b) is b
        assert b.tobytes() == x.tobytes()

    def test_solve_rejects_an_out_it_cannot_fill(self):
        A, m, ground, _ = _structured_operator(3, 0, "grounded")
        factor = BlockTridiagonalFactor(A, m, ground)
        b = np.ones((16, 3))
        for out in (np.empty(16), np.empty((16, 2)), np.empty((3, 16)).T,
                    np.empty((16, 3), dtype=np.float32)):
            with pytest.raises(ValueError, match="out must be"):
                factor.solve(b, out=out)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.data())
    def test_coupling_outside_the_band_raises(self, level, data):
        # row r of block row i couples to a node two block rows up, or to
        # one in the adjacent block row two or more columns away
        m = level + 1
        mesh = build_structured(level)
        A = dense(assemble_stiffness(mesh, unit_coefficients(mesh)))
        i = data.draw(st.integers(1, level))
        r = data.draw(st.integers(0, level - 2))
        c = data.draw(st.integers(r + 2, level))
        if data.draw(st.booleans()):
            r, c = c, r
        two_rows_up = i >= 2 and data.draw(st.booleans())
        j = (i - 1 - two_rows_up) * m + c
        A[i * m + r, j] = A[j, i * m + r] = -0.5
        with pytest.raises(ValueError, match="outside the block-tridiagonal"):
            BlockTridiagonalFactor(stencil(A), m)

    @pytest.mark.parametrize("two_rows", [False, True])
    def test_coupling_from_a_row_end_raises(self, two_rows):
        # the last node of a grid row couples to the first node of the next
        # row (offset 1) or of the row after it (offset m + 1); the stored
        # entries past the end of the matrix are ignored
        mesh, m = build_structured(4), 5
        A = assemble_stiffness(mesh, unit_coefficients(mesh))
        off = m + 1 if two_rows else 1
        k = A.offsets.index(off)
        diags = A.diags.copy()
        diags[k, -off:] = 7.0
        BlockTridiagonalFactor(SymmetricStencil(A.offsets, diags), m, True)
        diags[k, m - 1] = -0.5
        with pytest.raises(ValueError, match="outside the block-tridiagonal"):
            BlockTridiagonalFactor(SymmetricStencil(A.offsets, diags), m, True)

    def test_dense_diagonal_blocks_raise(self, rng):
        # every node couples to every node of its own grid row
        m = 4
        B = rng.standard_normal((m, m))
        A = np.kron(np.eye(3), B + B.T + 4 * m * np.eye(m))
        with pytest.raises(ValueError, match="outside the block-tridiagonal"):
            BlockTridiagonalFactor(stencil(A), m)

    def test_indefinite_matrix_raises_factorization_error(self):
        mesh = build_structured(4)
        A = assemble_stiffness(mesh, unit_coefficients(mesh))
        with pytest.raises(FactorizationError, match="block row 0 of 5"):
            BlockTridiagonalFactor(SymmetricStencil(A.offsets, -A.diags), 5)
        with pytest.raises(FactorizationError):  # singular without grounding
            BlockTridiagonalFactor(A, 5)

    def test_blocks_must_tile_the_matrix(self):
        with pytest.raises(ValueError, match="blocks of size 3"):
            BlockTridiagonalFactor(stencil(np.eye(10)), 3)


def _dense_grad_norm(mesh):
    """Square root of the largest generalized eigenvalue of the unit
    stiffness and the lumped weights, from a dense eigensolve."""
    K = dense(assemble_stiffness(mesh, unit_coefficients(mesh)))
    _, w = assemble_mass(mesh)
    return np.sqrt(scipy.linalg.eigh(K, np.diag(w), eigvals_only=True)[-1])


def _element_bound(grads):
    """Fried's element bound sqrt(3 max_T lam_T) from per-triangle basis
    gradients (n_t, 3, 2), lam_T the largest eigenvalue of G_T^T G_T."""
    return np.sqrt(3.0 * np.linalg.eigvalsh(
        np.einsum("tia,tib->tab", grads, grads))[:, -1].max())


def _loop_gradient_norm(mesh, w):
    """Norm of the loop's D, the grid's gradient kernel taken to the
    (n_triangles, 2) layout, from the lumped-weight nodal product to the
    area-weighted one: from the kernel's dense matrix, column by column,
    and a dense generalized eigensolve."""
    grid = mesh.grid
    kernel = grid.gradient_kernel(grid.inverse_spacing)
    D = np.column_stack([grid.from_grid(kernel(e)).ravel()
                         for e in np.eye(mesh.n_vertices)])
    return np.sqrt(scipy.linalg.eigh(grid.area * D.T @ D, np.diag(w),
                                     eigvals_only=True)[-1])


def _driver_on(mesh):
    """A PdDriver on a problem with unit diffusion and reaction on
    ``mesh``, observed on its bottom side."""
    coeffs = unit_coefficients(mesh)
    coeffs = CoefficientSet(coeffs.alpha, np.ones(mesh.n_triangles),
                            coeffs.sigma, 1.0)
    prob = ProblemDef(mesh, coeffs,
                      NeumannData(np.zeros((4, mesh.level))),
                      GammaSpec(frozenset({"bottom"})))
    return PdDriver(DiscreteProblem(prob),
                    PdParams(rho=1e-3, tau=1e-4, theta=5e-2, max_iter=10))


class TestGradOperatorNorm:
    def test_matches_dense_eigensolve_on_coarsest_mesh(self):
        mesh = build_structured(1)
        ref = _dense_grad_norm(mesh)
        bound = grad_operator_norm(mesh.grid.inverse_spacing)
        assert abs(bound - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("level", [4, 8, 16])
    def test_bounds_dense_eigenvalue_from_above(self, level):
        mesh = build_structured(level)
        ref = _dense_grad_norm(mesh)
        assert ref <= grad_operator_norm(mesh.grid.inverse_spacing) <= ref * 1.05

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.floats(0.05, 20.0), st.floats(0.05, 20.0),
           st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_is_a_bound_on_any_structured_mesh(self, level, width, height,
                                               x0, y0):
        # the square of the program, then a random rectangle: the closed
        # form is the element bound of the vertex basis gradients up to
        # the rounding of the vertices, relative |x| / h_c, and bounds the
        # dense eigenvalue
        for box in (((-1.0, 1.0), (-1.0, 1.0)),
                    ((x0, x0 + width), (y0, y0 + height))):
            mesh = build_structured(level, box)
            bound = grad_operator_norm(mesh.grid.inverse_spacing)
            ref = _element_bound(triangle_geometry(mesh)[1])
            spread = np.abs(box).max() * max(mesh.grid.inverse_spacing)
            assert abs(bound - ref) <= 2e-15 * (1.0 + spread) * ref
            assert bound**2 >= _dense_grad_norm(mesh)**2 * (1.0 - 1e-13)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([3, 6, 12]), st.floats(0.05, 0.95),
           st.floats(0.05, 0.95), st.floats(0.05, 20.0),
           st.floats(0.05, 20.0))
    def test_certificate_bounds_the_loops_gradient(self, level, u, v, width,
                                                   height):
        # the certificate's norm bounds that of the D the loop runs, on
        # the default square and on a random box holding 0 inside (the
        # certificate's trace constant needs it), rounding aside
        for box in (((-1.0, 1.0), (-1.0, 1.0)),
                    ((-u * width, (1.0 - u) * width),
                     (-v * height, (1.0 - v) * height))):
            driver = _driver_on(build_structured(level, box))
            norm = _loop_gradient_norm(driver.dp.mesh, driver.dp.w)
            assert norm <= driver.certificate.grad_norm * (1.0 + 1e-13)

    def test_scales_like_inverse_mesh_size(self):
        norms = {lv: grad_operator_norm(build_structured(lv).grid
                                        .inverse_spacing)
                 for lv in (4, 8, 16)}
        assert 1.9 <= norms[8] / norms[4] <= 2.1
        assert 1.9 <= norms[16] / norms[8] <= 2.1
        # bounded multiple of 1/h across levels
        for lv, val in norms.items():
            h = build_structured(lv).mesh_size
            assert val * h <= 10.0
