import functools

import numpy as np
import pytest

from tvsource.experiment import build_benchmark_problem
from tvsource.fem_assembly import CoefficientSet, NeumannData, div_adjoint
from tvsource.mesh import GammaSpec, build_structured
from tvsource.pde_solvers import DiscreteProblem, ProblemDef
from tvsource.sparse_linalg import SymmetricStencil
from tvsource.tv_calculus import tv_value


@functools.lru_cache(maxsize=None)
def benchmark_dp(level: int, gamma_case: str = "bottom",
                 cg_tol: float = 1e-12, box=(-1.0, 3.0)):
    """Assembled benchmark problem, cached across tests (treated read-only)."""
    prob, f_truth = build_benchmark_problem(level, gamma_case, box)
    dp = DiscreteProblem(prob, cg_tol=cg_tol)
    return dp, f_truth


def unit_coefficients(mesh) -> CoefficientSet:
    """alpha = identity, beta = 0, sigma = 0: the unit-diffusion stiffness."""
    alpha = np.broadcast_to(np.eye(2), (mesh.n_triangles, 2, 2)).copy()
    return CoefficientSet(alpha, np.zeros(mesh.n_triangles),
                          np.zeros(len(mesh.boundary_edges)), 1.0)


def b_norm_hook(driver):
    """An ``on_iteration`` hook for ``driver.run`` and the list it fills:
    the squared preconditioner norm ``driver.b_norm_sq`` of every step
    taken, from consecutive iterates, which the hook may keep."""
    norms, prev = [], []

    def hook(n, f, p, *_):
        if prev:
            norms.append(driver.b_norm_sq(f - prev[0], p - prev[1]))
        prev[:] = f, p

    return hook, norms


def chunked_boundary_map(dp):
    """G = L[:, Gamma] solved four columns at a time by one factorization:
    each chunk's unit loads at the observed nodes deflated, solved and
    re-centred as ``DiscreteProblem._solve`` does it.  The reference for
    the one-block build of ``dp.boundary_map``."""
    nodes, n = dp.gamma_nodes, dp.mesh.n_vertices
    factor = dp._factor()
    G = np.empty((n, nodes.shape[0]))
    for start in range(0, nodes.shape[0], 4):
        cols = nodes[start:start + 4]
        unit = np.zeros((n, cols.shape[0]))
        unit[cols, np.arange(cols.shape[0])] = 1.0
        if dp.pure_neumann:
            unit -= np.multiply.outer(dp.w, unit.sum(axis=0)
                                      / dp.domain_volume)
        x = factor.solve(unit)
        if dp.pure_neumann:
            x -= (dp.w @ x) / dp.domain_volume
        G[:, start:start + cols.shape[0]] = x
    return G


def div_rep(driver, p):
    """Nodal representer -D^T p / w of the divergence, as the textbook
    primal step writes it."""
    return -div_adjoint(driver.dp.mesh, p) / driver.dp.w


def step_tables(dp, params):
    """The nodes and the folded coefficient tables of a driver's dual and
    primal steps, built here from the mesh: sigma * coefs, with sigma =
    tau*rho/theta, and coefs * |T| * tau*rho / w[node]."""
    tab = dp.mesh.gradient_table
    tau_rho = params.tau * params.rho
    return (tab.nodes, tab.coefs * (tau_rho / params.theta),
            tab.coefs * tab.weights * tau_rho / dp.w[tab.nodes])


def reference_primal_step(driver, f, p, u_a):
    """The primal step as one expression, clip(f - tau*u_a - (tau*rho/w)
    D^T p): new arrays at every operation, np.add.at for the divergence
    and np.clip onto the box."""
    prm, (lo, hi) = driver.params, driver.box
    nodes, _, div = step_tables(driver.dp, prm)
    d = np.zeros(driver.dp.mesh.n_vertices)
    np.add.at(d, nodes.ravel(), (div * np.ravel(p)).ravel())
    return np.clip(f - prm.tau * u_a - d, lo, hi)


def reference_run(driver, z, f0, p0):
    """``driver.run(z, f0, p0)`` written one expression per update, with
    np.clip, and the objective (misfit plus rho * TV) evaluated
    at every iterate: the reference for the run's bits.  Returns the visited (f, p)
    pairs and the misfit, stopping-value and objective histories."""
    dp, prm = driver.dp, driver.params
    mesh, (lo, hi) = dp.mesh, driver.box
    G, flux_trace = dp.boundary_map.G, dp.boundary_map.flux_trace
    nodes, grad, _ = step_tables(dp, prm)
    t1, t2 = prm.stopping_offsets(mesh.mesh_size)
    f = np.clip(np.asarray(f0, dtype=float), lo, hi)
    p = np.clip(np.asarray(p0, dtype=float), -1.0, 1.0)
    iterates, misfits, tolerances, objectives = [], [], [], []
    g0_norm = None
    for n in range(prm.max_iter + 1):
        r = G.T @ (dp.w * f) + flux_trace - z.values
        m_r = dp.M_gamma @ r
        f_next = reference_primal_step(driver, f, p, G @ m_r)
        residual = f - f_next
        g_norm = float(np.sqrt(dp.w / prm.tau**2 * residual @ residual))
        g0_norm = g_norm if g0_norm is None else g0_norm
        misfit = 0.5 * float(r @ m_r)
        iterates.append((f, p))
        misfits.append(misfit)
        tolerances.append(g_norm - t1 - t2 * g0_norm)
        objectives.append(misfit + prm.rho * tv_value(mesh, f))
        if tolerances[-1] <= 0.0 or n == prm.max_iter:
            break
        f_tilde = f_next - (f - f_next)
        step = grad[0] * f_tilde[nodes[0]] + grad[1] * f_tilde[nodes[1]]
        p = np.clip(p + step.reshape(p.shape), -1.0, 1.0)
        f = f_next
    return iterates, misfits, tolerances, objectives


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


def dense(A: SymmetricStencil) -> np.ndarray:
    """The dense n x n matrix of a SymmetricStencil."""
    n = A.shape[0]
    out = np.zeros((n, n))
    for off, diag in zip(A.offsets, A.diags):
        i = np.arange(max(n - off, 0))
        out[i, i + off] = out[i + off, i] = diag[:i.shape[0]]
    return out


def dense_boundary_mass(dp) -> np.ndarray:
    """The n x n boundary mass of a problem's observed sides, summed edge
    by edge into a dense matrix."""
    mesh, n = dp.mesh, dp.mesh.n_vertices
    on_gamma = np.isin(mesh.edge_sides, list(dp.prob.gamma.sides))
    out = np.zeros((n, n))
    for edge, length in zip(mesh.boundary_edges[on_gamma],
                            mesh.edge_lengths[on_gamma]):
        np.add.at(out, np.ix_(edge, edge),
                  length / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]]))
    return out


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
