import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from tvsource.fem_assembly import assemble_mass, assemble_stiffness, unit_coefficients
from tvsource.mesh import TriMesh, build_structured
from tvsource.sparse_linalg import CgConvergenceError, cg_solve, grad_operator_norm


def test_identity_converges_in_one_iteration(rng):
    b = rng.standard_normal(10)
    x, report = cg_solve(sp.identity(10, format="csr"), b, tol=1e-12)
    assert report.iterations == 1
    assert report.converged
    assert np.allclose(x, b, atol=1e-14)


def test_two_by_two_hand_solution():
    A = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    x, report = cg_solve(A, np.array([1.0, 0.0]), tol=1e-14)
    assert np.allclose(x, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    assert report.converged


def test_random_spd_matches_dense_solve(rng):
    for _ in range(5):
        q = rng.standard_normal((20, 20))
        A = q @ q.T + 20.0 * np.eye(20)
        b = rng.standard_normal(20)
        x, _ = cg_solve(sp.csr_matrix(A), b, tol=1e-12)
        x_ref = np.linalg.solve(A, b)
        assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)


def _neumann_system(level=4):
    mesh = build_structured(level)
    A = assemble_stiffness(mesh, unit_coefficients(mesh))
    _, w = assemble_mass(mesh)
    return mesh, A, w


def test_deflated_solution_has_zero_weighted_mean(rng):
    _, A, w = _neumann_system()
    b = rng.standard_normal(A.shape[0])
    b -= b.sum() / len(b)  # compatible load
    x, report = cg_solve(A, b, tol=1e-12, mean_weights=w)
    assert report.converged
    assert abs(w @ x) <= 1e-10
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_deflated_solution_ignores_initial_mean(rng):
    _, A, w = _neumann_system()
    b = rng.standard_normal(A.shape[0])
    b -= b.sum() / len(b)
    x0 = rng.standard_normal(A.shape[0])
    x1, _ = cg_solve(A, b, tol=1e-13, mean_weights=w, x0=x0)
    x2, _ = cg_solve(A, b, tol=1e-13, mean_weights=w, x0=x0 + 17.0)
    assert np.linalg.norm(x1 - x2) <= 1e-8 * max(np.linalg.norm(x1), 1.0)


def test_nonconvergence_raises_with_report(rng):
    q = rng.standard_normal((30, 30))
    A = sp.csr_matrix(q @ q.T + 1e-6 * np.eye(30))
    b = rng.standard_normal(30)
    with pytest.raises(CgConvergenceError) as excinfo:
        cg_solve(A, b, tol=1e-14, max_iter=2)
    assert excinfo.value.report.iterations == 2
    assert not excinfo.value.report.converged


class TestGradOperatorNorm:
    def test_matches_dense_eigensolve_on_coarsest_mesh(self):
        mesh = build_structured(1)
        K = assemble_stiffness(mesh, unit_coefficients(mesh)).toarray()
        _, w = assemble_mass(mesh)
        lam = scipy.linalg.eigh(K, np.diag(w), eigvals_only=True)
        ref = np.sqrt(lam[-1])
        val = grad_operator_norm(mesh)
        assert abs(val - ref) <= 1e-5 * ref

    @pytest.mark.parametrize("level", [4, 8, 16])
    def test_estimates_dense_eigenvalue_from_below(self, level):
        mesh = build_structured(level)
        K = assemble_stiffness(mesh, unit_coefficients(mesh)).toarray()
        _, w = assemble_mass(mesh)
        lam = scipy.linalg.eigh(K, np.diag(w), eigvals_only=True)
        ref = np.sqrt(lam[-1])
        val = grad_operator_norm(mesh)
        # a Rayleigh quotient never exceeds the largest eigenvalue
        assert ref * (1.0 - 1e-3) <= val <= ref * (1.0 + 1e-12)

    def test_scales_like_inverse_mesh_size(self):
        norms = {lv: grad_operator_norm(build_structured(lv))
                 for lv in (4, 8, 16)}
        assert 1.9 <= norms[8] / norms[4] <= 2.1
        assert 1.9 <= norms[16] / norms[8] <= 2.1
        # bounded multiple of 1/h across levels
        for lv, val in norms.items():
            h = build_structured(lv).mesh_size
            assert val * h <= 10.0

    def test_invariant_under_vertex_reordering(self, rng):
        mesh = build_structured(3)
        sigma = rng.permutation(mesh.n_vertices)
        vertices = np.empty_like(mesh.vertices)
        vertices[sigma] = mesh.vertices
        permuted = TriMesh(vertices, sigma[mesh.triangles], mesh.areas,
                           mesh.grads, sigma[mesh.boundary_edges],
                           mesh.edge_lengths, mesh.edge_sides, mesh.level)
        a = grad_operator_norm(mesh)
        b = grad_operator_norm(permuted)
        assert abs(a - b) <= 1e-6 * a
