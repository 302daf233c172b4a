import functools

import numpy as np
import pytest

from tvsource.experiment import build_benchmark_problem
from tvsource.fem_assembly import CoefficientSet, NeumannData
from tvsource.mesh import GammaSpec, build_structured
from tvsource.pde_solvers import DiscreteProblem, ProblemDef
from tvsource.sparse_linalg import SymmetricStencil


@functools.lru_cache(maxsize=None)
def benchmark_dp(level: int, gamma_case: str = "bottom",
                 cg_tol: float = 1e-12):
    """Assembled benchmark problem, cached across tests (treated read-only)."""
    prob, f_truth = build_benchmark_problem(level, gamma_case)
    dp = DiscreteProblem(prob, cg_tol=cg_tol)
    return dp, f_truth


def random_dp(level, seed, reaction, boundary_term, gamma=("bottom",)):
    """Problem with random SPD diffusion and flux; pure Neumann when neither
    beta > 0 nor sigma > 0 is drawn.  Returns it with the generator."""
    rng = np.random.default_rng(seed)
    mesh = build_structured(level)
    L = rng.standard_normal((mesh.n_triangles, 2, 2))
    alpha = L @ L.transpose(0, 2, 1) + 0.1 * np.eye(2)
    n_edges = len(mesh.boundary_edges)
    beta = rng.uniform(0.0, 2.0, mesh.n_triangles) * reaction
    sigma = rng.uniform(0.0, 2.0, n_edges) * boundary_term
    prob = ProblemDef(mesh, CoefficientSet(alpha, beta, sigma, 0.1),
                      NeumannData(rng.standard_normal(n_edges)),
                      GammaSpec(frozenset(gamma)))
    return DiscreteProblem(prob), rng


def stencil(A: np.ndarray) -> SymmetricStencil:
    """A dense symmetric matrix as a SymmetricStencil: its upper diagonals
    that hold a nonzero entry."""
    n = A.shape[0]
    offsets = [0] + [d for d in range(1, n) if np.any(np.diagonal(A, d))]
    diags = np.zeros((len(offsets), n))
    for k, d in enumerate(offsets):
        diags[k, :n - d] = np.diagonal(A, d)
    return SymmetricStencil(offsets, diags)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
