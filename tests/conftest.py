import functools

import numpy as np
import pytest

from tvsource.experiment import build_benchmark_problem
from tvsource.fem_assembly import CoefficientSet, NeumannData, div_adjoint
from tvsource.mesh import SIDE_TAGS, GammaSpec, build_structured
from tvsource.pde_solvers import DiscreteProblem, ProblemDef
from tvsource.sparse_linalg import BlockTridiagonalFactor, SymmetricStencil
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
                          np.zeros((4, mesh.level)), 1.0)


def edge_list(mesh):
    """The boundary of a mesh as one list of edges, the reference for
    ``TriMesh.side``: the (4 level, 2) vertex pairs, edge i of each side
    in the order SIDE_TAGS at entry 4 i + k for side k, their lengths,
    from the vertices, and their side tags."""
    l, n = mesh.level, mesh.level + 1
    i, top = np.arange(l, dtype=np.int64), l * n
    edges = np.stack([i, i + 1, top + i, top + i + 1, i * n, (i + 1) * n,
                      i * n + l, (i + 1) * n + l], axis=1).reshape(-1, 2)
    ends = mesh.vertices[edges]
    return (edges, np.hypot(*(ends[:, 1] - ends[:, 0]).T),
            np.tile(np.asarray(SIDE_TAGS), l))


def centroids(mesh) -> np.ndarray:
    """The (n_triangles, 2) centroids of a mesh's triangles, the mean of
    their vertices: the reference for ``TriMesh.centroid_axes``."""
    return mesh.vertices[mesh.triangles].mean(axis=1)


def per_side(values) -> np.ndarray:
    """Values in the edge order of ``edge_list`` as the (4, level) array of
    boundary data, one row per side."""
    return np.reshape(values, (-1, 4)).T


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
    factor = BlockTridiagonalFactor(dp.A, dp.mesh.level + 1, dp.pure_neumann)
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


def triangle_geometry(mesh):
    """Areas (n_triangles,) and nodal basis gradients (n_triangles, 3, 2)
    of every triangle of a mesh, from its vertices: grad phi_i is the edge
    opposite vertex i turned by 90 degrees over twice the area.  The
    reference for the grid's ``area`` and ``basis_gradients``."""
    p = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    grads = np.empty((mesh.n_triangles, 3, 2))
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        grads[:, i, 0] = (p[:, j, 1] - p[:, k, 1]) / det
        grads[:, i, 1] = (p[:, k, 0] - p[:, j, 0]) / det
    return 0.5 * det, grads


def gradient_terms(mesh):
    """The two nonzero terms of each component of the element gradient,
    read from ``mesh.triangles`` and the basis gradients of
    ``triangle_geometry`` of a mesh of axis-aligned right triangles:
    (2, 2 n_triangles) arrays of nodes and basis-gradient coefficients,
    entry k = 2t + c for component c of triangle t and row 0 the term of
    the lower local vertex, and the area of triangle t at entry k.
    Component c of the gradient of f on t is ``coefs[0, k] * f[nodes[0,
    k]] + coefs[1, k] * f[nodes[1, k]]``."""
    areas, grads = triangle_geometry(mesh)
    g = grads.transpose(0, 2, 1).reshape(-1, 3)  # [2t + c, vertex]
    # the two nonzero coefficients first, each in its local vertex order
    local = np.argsort(g == 0.0, axis=1, kind="stable")[:, :2]
    nodes = np.repeat(mesh.triangles, 2, axis=0)
    return (np.take_along_axis(nodes, local, 1).T,
            np.take_along_axis(g, local, 1).T, np.repeat(areas, 2))


def step_tables(dp, params):
    """The nodes and the folded coefficient tables of the dual and the
    primal step, built from the vertex basis gradients (``gradient_terms``):
    sigma * coefs, with sigma = tau*rho/theta, and coefs * |T| * tau*rho /
    w[node]."""
    nodes, coefs, areas = gradient_terms(dp.mesh)
    tau_rho = params.tau * params.rho
    return (nodes, coefs * (tau_rho / params.theta),
            coefs * areas * tau_rho / dp.w[nodes])


def stencil_gradient(level, s, f):
    """(s_x * df/dx, s_y * df/dy) of the nodal array f on each triangle of
    build_structured(level), in the (n_triangles, 2) layout, as differences
    of shifted slices of the (level+1) x (level+1) node grid of s_c * f."""
    (s_x, s_y), F = s, np.reshape(f, (level + 1, level + 1))  # [iy, ix]
    X, Y = s_x * F, s_y * F
    g = np.empty((level, level, 2, 2))  # [iy, ix, upper, component]
    g[:, :, 0, 0] = X[:-1, 1:] - X[:-1, :-1]  # bottom-right - bottom-left
    g[:, :, 0, 1] = Y[1:, 1:] - Y[:-1, 1:]    # top-right - bottom-right
    g[:, :, 1, 0] = X[1:, 1:] - X[1:, :-1]    # top-right - top-left
    g[:, :, 1, 1] = Y[1:, :-1] - Y[:-1, :-1]  # top-left - bottom-left
    return g.reshape(-1, 2)


def stencil_divergence(level, weights, scale, p):
    """scale * D_w^T p: the adjoint of ``stencil_gradient(level, weights,
    .)`` applied to the (n_triangles, 2) field p, times the nodal array
    ``scale``.  Each entry of p is placed at the two corners of its
    difference by shifted slices of the node grid, in eight rows, and the
    rows are summed by the same BLAS product as the driver's kernel, so
    that the order of the sum, which is the BLAS's, is the same."""
    (w_x, w_y), P = weights, np.reshape(p, (level, level, 2, 2))
    T = np.zeros((8, level + 1, level + 1))
    T[0, :-1, :-1] = T[4, :-1, 1:] = P[:, :, 0, 0]  # lower x: -w_x, +w_x
    T[1, 1:, 1:] = T[5, :-1, 1:] = P[:, :, 0, 1]    # lower y: +w_y, -w_y
    T[2, :-1, :-1] = T[6, 1:, :-1] = P[:, :, 1, 1]  # upper y: -w_y, +w_y
    T[3, 1:, 1:] = T[7, 1:, :-1] = P[:, :, 1, 0]    # upper x: +w_x, -w_x
    signs = np.array([-w_x, w_y, -w_y, w_x, w_x, -w_y, w_y, -w_x])
    return (signs @ T.reshape(8, -1)) * scale


def stencil_steps(driver):
    """The scales s of the dual step's gradient and the weights and the
    nodal scale of the primal step's divergence, from the grid spacing of
    the driver's mesh: s_c = (level / side_c) * tau*rho/theta, and
    (1, h_x/h_y) with |T| * tau*rho / (h_x * w)."""
    dp, prm = driver.dp, driver.params
    c_x, c_y = (dp.mesh.level / (b - a) for a, b in dp.mesh.box)
    tau_rho = prm.tau * prm.rho
    sigma = tau_rho / prm.theta
    area = 0.5 / (c_x * c_y)
    return ((c_x * sigma, c_y * sigma), (1.0, c_y / c_x),
            c_x * area * tau_rho / dp.w)


def reference_primal_step(driver, f, p, u_a):
    """The primal step as one expression, clip(f - tau*u_a - (tau*rho/w)
    D^T p): new arrays at every operation, ``stencil_divergence`` and
    np.clip onto the box."""
    _, weights, scale = stencil_steps(driver)
    d = stencil_divergence(driver.dp.mesh.level, weights, scale, p)
    return np.clip(f - driver.params.tau * u_a - d, *driver.box)


def table_primal_step(driver, f, p, u_a):
    """The primal step with the divergence summed over the vertex basis
    gradients by np.add.at (``step_tables``)."""
    nodes, _, div = step_tables(driver.dp, driver.params)
    d = np.zeros(driver.dp.mesh.n_vertices)
    np.add.at(d, nodes.ravel(), (div * np.ravel(p)).ravel())
    return np.clip(f - driver.params.tau * u_a - d, *driver.box)


def strip_products(bmap):
    """G^T x and G c of a boundary map, each written as one expression
    over its strips with the @ operator: the dense rows, each factored
    strip's US and the stacked V^T, in the order of the map's products,
    which they give bit for bit."""
    dense, factors, vt = bmap.dense, bmap.factors, bmap.vt
    rows = dense.shape[0]
    ends = np.cumsum([0] + [us.shape[1] for _, us in factors])

    def rmatvec(x):
        u = dense.T @ x[:rows]
        if factors:
            u = u + vt.T @ np.concatenate([us.T @ x[strip]
                                           for strip, us in factors])
        return u

    def matvec(c):
        t = vt @ c
        return np.concatenate([dense @ c] + [
            us @ t[a:b] for (_, us), a, b in zip(factors, ends, ends[1:])])

    return rmatvec, matvec


def reference_run(driver, z, f0, p0, tables=False, products=None):
    """``driver.run(z, f0, p0)`` written one expression per update, with
    np.clip, and the objective (misfit plus rho * TV) evaluated at every
    iterate: with the stencil kernels (``stencil_gradient`` and
    ``reference_primal_step``), the reference for the run's bits, and with
    ``tables``, the vertex basis gradients (``step_tables``), which sum the
    divergence in another order.  G^T x and G c are ``products``, by
    default the boundary map's ``strip_products``.  Returns the visited
    (f, p) pairs and the misfit, stopping-value and objective
    histories."""
    dp, prm = driver.dp, driver.params
    mesh, (lo, hi) = dp.mesh, driver.box
    rmatvec, matvec = products or strip_products(dp.boundary_map)
    flux_trace = dp.boundary_map.flux_trace
    nodes, grad, _ = step_tables(dp, prm)
    s, _, _ = stencil_steps(driver)
    primal_step = table_primal_step if tables else reference_primal_step
    t1, t2 = prm.stopping_offsets(mesh.mesh_size)
    f = np.clip(np.asarray(f0, dtype=float), lo, hi)
    p = np.clip(np.asarray(p0, dtype=float), -1.0, 1.0)
    iterates, misfits, tolerances, objectives = [], [], [], []
    g0_norm = None
    for n in range(prm.max_iter + 1):
        r = rmatvec(dp.w * f) + flux_trace - z.values
        m_r = dp.M_gamma @ r
        f_next = primal_step(driver, f, p, matvec(m_r))
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
        if tables:
            step = grad[0] * f_tilde[nodes[0]] + grad[1] * f_tilde[nodes[1]]
        else:
            step = stencil_gradient(mesh.level, s, f_tilde)
        p = np.clip(p + step.reshape(p.shape), -1.0, 1.0)
        f = f_next
    return iterates, misfits, tolerances, objectives


def random_dp(level, seed, reaction, boundary_term, gamma=("bottom",),
              box=((-1.0, 1.0), (-1.0, 1.0))):
    """Problem with random SPD diffusion and flux on the mesh of ``box``;
    pure Neumann when neither beta > 0 nor sigma > 0 is drawn.  Returns it
    with the generator."""
    rng = np.random.default_rng(seed)
    mesh = build_structured(level, box)
    L = rng.standard_normal((mesh.n_triangles, 2, 2))
    alpha = L @ L.transpose(0, 2, 1) + 0.1 * np.eye(2)
    n_edges = 4 * level
    beta = rng.uniform(0.0, 2.0, mesh.n_triangles) * reaction
    sigma = rng.uniform(0.0, 2.0, n_edges) * boundary_term
    prob = ProblemDef(mesh, CoefficientSet(alpha, beta, per_side(sigma), 0.1),
                      NeumannData(per_side(rng.standard_normal(n_edges))),
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


def boundary_nodes(mesh) -> np.ndarray:
    """Sorted indices of the nodes on the boundary of a mesh: those in the
    first or last row or column of its node grid."""
    on = np.zeros((mesh.level + 1,) * 2, dtype=bool)
    on[[0, -1]] = on[:, [0, -1]] = True
    return np.flatnonzero(on)


def dense_boundary_mass(dp) -> np.ndarray:
    """The n x n boundary mass of a problem's observed sides, summed edge
    by edge (``edge_list``) into a dense matrix."""
    n = dp.mesh.n_vertices
    edges, lengths, sides = edge_list(dp.mesh)
    on_gamma = np.isin(sides, list(dp.prob.gamma.sides))
    out = np.zeros((n, n))
    for edge, length in zip(edges[on_gamma], lengths[on_gamma]):
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
