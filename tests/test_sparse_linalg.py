import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tvsource.fem_assembly import assemble_mass, assemble_stiffness, unit_coefficients
from tvsource.mesh import build_structured
from tvsource.sparse_linalg import (BlockTridiagonalFactor, CgConvergenceError,
                                    FactorizationError, SymmetricStencil,
                                    cg_solve, grad_operator_norm,
                                    weighted_power_iteration)

from conftest import dense, random_dp, stencil


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


def _structured_operator(level, seed, kind):
    """A random SPD operator on the structured offsets (0, 1, m, m + 1) of
    a level-``level`` mesh, with its ``ground`` flag and its dense matrix:
    the grounded pure-Neumann stiffness, the stiffness with reaction or
    boundary term, or a stiffness pinned at the boundary nodes."""
    dp, _ = random_dp(level, seed, kind == "reaction",
                      kind == "boundary term")
    A = dp.A.pinned(dp.mesh.boundary_nodes()) if kind == "pinned" else dp.A
    ground = kind == "grounded"
    A_dense = dense(A)
    A_dense[0, 0] += ground
    return A, ground, A_dense


OPERATOR_CASES = (st.integers(1, 6), st.integers(0, 2**32 - 1),
                  st.sampled_from(["grounded", "reaction", "boundary term",
                                   "pinned"]))


class TestBlockTridiagonalFactor:
    @settings(max_examples=40, deadline=None)
    @given(*OPERATOR_CASES)
    def test_matches_dense_solve(self, level, seed, kind):
        A, ground, A_dense = _structured_operator(level, seed, kind)
        b = np.random.default_rng(seed).standard_normal(A.shape[0])
        x = BlockTridiagonalFactor(A, level + 1, ground).solve(b)
        x_ref = np.linalg.solve(A_dense, b)
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    @settings(max_examples=40, deadline=None)
    @given(*OPERATOR_CASES, st.integers(1, 9))
    def test_block_of_right_hand_sides_matches_column_solves(self, level,
                                                             seed, kind, k):
        A, ground, _ = _structured_operator(level, seed, kind)
        factor = BlockTridiagonalFactor(A, level + 1, ground)
        b = np.random.default_rng(seed).standard_normal((A.shape[0], k))
        x = factor.solve(b)
        assert x.shape == b.shape
        for j in range(k):
            col = factor.solve(b[:, j])
            assert np.linalg.norm(x[:, j] - col) <= 1e-13 * np.linalg.norm(col)

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


def _grad_norm(mesh):
    """grad_operator_norm of the mesh's unit stiffness and lumped weights."""
    _, w = assemble_mass(mesh)
    return grad_operator_norm(
        assemble_stiffness(mesh, unit_coefficients(mesh)), w)


def test_unconverged_power_iteration_raises():
    w = np.ones(10)
    d = np.linspace(1.0, 2.0, 10)
    with pytest.raises(CgConvergenceError, match="power iteration"):
        weighted_power_iteration(lambda v: d * v, w, 0, 1e-12, 1)


class TestGradOperatorNorm:
    def test_matches_dense_eigensolve_on_coarsest_mesh(self):
        mesh = build_structured(1)
        K = dense(assemble_stiffness(mesh, unit_coefficients(mesh)))
        _, w = assemble_mass(mesh)
        lam = scipy.linalg.eigh(K, np.diag(w), eigvals_only=True)
        ref = np.sqrt(lam[-1])
        val = _grad_norm(mesh)
        assert abs(val - ref) <= 1e-5 * ref

    @pytest.mark.parametrize("level", [4, 8, 16])
    def test_estimates_dense_eigenvalue_from_below(self, level):
        mesh = build_structured(level)
        K = dense(assemble_stiffness(mesh, unit_coefficients(mesh)))
        _, w = assemble_mass(mesh)
        lam = scipy.linalg.eigh(K, np.diag(w), eigvals_only=True)
        ref = np.sqrt(lam[-1])
        val = _grad_norm(mesh)
        # a Rayleigh quotient never exceeds the largest eigenvalue
        assert ref * (1.0 - 1e-3) <= val <= ref * (1.0 + 1e-12)

    def test_scales_like_inverse_mesh_size(self):
        norms = {lv: _grad_norm(build_structured(lv))
                 for lv in (4, 8, 16)}
        assert 1.9 <= norms[8] / norms[4] <= 2.1
        assert 1.9 <= norms[16] / norms[8] <= 2.1
        # bounded multiple of 1/h across levels
        for lv, val in norms.items():
            h = build_structured(lv).mesh_size
            assert val * h <= 10.0

    def test_invariant_under_vertex_reordering(self, rng):
        # the operators of a renumbered mesh, permuted from the assembled
        # ones: assembly itself needs build_structured's numbering
        mesh = build_structured(3)
        sigma = rng.permutation(mesh.n_vertices)
        K = dense(assemble_stiffness(mesh, unit_coefficients(mesh)))
        _, w = assemble_mass(mesh)
        K_perm = np.empty_like(K)
        K_perm[np.ix_(sigma, sigma)] = K
        w_perm = np.empty_like(w)
        w_perm[sigma] = w
        a = _grad_norm(mesh)
        b = grad_operator_norm(stencil(K_perm), w_perm)
        assert abs(a - b) <= 1e-6 * a
