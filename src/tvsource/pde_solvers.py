"""State, adjoint and Dirichlet solves for the source-identification problem.

All volume load pairings use the vertex rule (lumped weights), the same
inner product the proximal steps of the optimizer are taken in; with this
choice the reduced-gradient identity

    d/df [misfit](f) applied to xi  ==  <xi, adjoint_state(f)>_w

holds exactly up to solver tolerance, also in the pure-Neumann case
(``DiscreteProblem._solve``), and so do the monotonicity and the O(1/n)
decay of the iterate differences.  Boundary pairings use the exact
boundary mass (``M_gamma``), and the error norms the consistent mass.

Every solve is a direct solve with a block-tridiagonal factorization
whose residual is checked against the problem's ``cg_tol``
(``_checked_solve``).  No factorization is kept: each solve factors its
operator for itself, A or, for a Dirichlet solve, A's part on the
interior nodes.  The data misfit reads the state only on the observed
boundary Gamma, so the optimizer works with the solution map restricted
to Gamma (BoundaryMap), built once per problem from one factorization,
and needs no solve per iteration or after it; ``PdDriver`` decides when a
map is compressed (``BoundaryMap.compress``).  Boundary quantities are
Gamma-vectors: one value per node of ``gamma_nodes``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fem_assembly import (CoefficientSet, NeumannData, P1Field,
                           assemble_boundary_mass, assemble_mass,
                           assemble_stiffness, elem_gradient, neumann_load)
from .mesh import GammaSpec, TriMesh
from .sparse_linalg import BlockTridiagonalFactor, SymmetricStencil, cg_solve

DEFAULT_CG_TOL = 1e-10


@dataclass(frozen=True)
class ProblemDef:
    """Problem data: geometry, coefficients, flux, observation boundary, box.

    Raises ValueError for box bounds that are not finite and increasing,
    and for alpha, beta, sigma or the flux of another shape than its mesh
    gives: (n_triangles, 2, 2), (n_triangles,), (4, level) and (4, level).
    """

    mesh: TriMesh
    coeffs: CoefficientSet
    neumann: NeumannData
    gamma: GammaSpec
    box: tuple = (-1.0, 3.0)

    def __post_init__(self):
        lo, hi = self.box
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"invalid box bounds {self.box}")
        c, j = self.coeffs, self.neumann.values
        nt, l = self.mesh.n_triangles, self.mesh.level
        for name, value, shape in (
                ("alpha", c.alpha, (nt, 2, 2)), ("beta", c.beta, (nt,)),
                ("sigma", c.sigma, (4, l)), ("flux", j, (4, l))):
            if np.shape(value) != shape:
                raise ValueError(f"{name} has shape {np.shape(value)}, not "
                                 f"{shape}, on a mesh of level {l}")


@dataclass(frozen=True)
class Observation:
    """Measured trace values on the observation-boundary nodes."""

    nodes: np.ndarray          # sorted node indices on the observed sides
    values: np.ndarray         # one value per node
    noise_level: float = 0.0   # L2 norm of the added noise


class BoundaryMap:
    """The solution map of a DiscreteProblem, read and loaded on Gamma only.

    With L the solution map of ``DiscreteProblem._solve`` (load to state;
    symmetric, also when deflated: L = C A^+ C^T with C the re-centring)
    and Gamma the m observed nodes, G = L[:, Gamma] is an (n, m) matrix of
    ``shape`` (n, m).  By symmetry the trace on Gamma of the state with
    volume load b is G^T b + G^T b_flux, and the adjoint state loaded by a
    boundary residual r on Gamma is G M r, with M the boundary mass
    ``DiscreteProblem.M_gamma``.

    G is held as row strips in the buffer it was built in.  ``dense`` is a
    view of its leading rows, the strips kept dense; as built it is all of
    G.  ``compress`` factors trailing strips in place: each of ``factors``
    is (rows, US) for one strip, with US the (rows, k) factor U S of its
    truncated SVD, written column-major over the strip's own rows, and
    ``vt`` stacks the strips' k rows of V^T in the same order.  Every
    reader of G goes through ``rmatvec(x)`` (G^T x), ``matvec(c)`` (G c),
    ``trace`` and ``gram``: they read the operator G~ the strips hold,
    within ``error_bound`` of G in the 2-norm.  While no
    strip is factored the two products are G's own gemvs, ``G.T.dot`` and
    ``G.dot``, at no cost over a bare array (ndarray.dot skips matmul's
    dispatch); once strips are factored they are ``_strip_products``.
    """

    def __init__(self, G: np.ndarray, flux_trace: np.ndarray):
        self.shape = G.shape
        self.flux_trace = flux_trace  # (m,) trace of the zero-source state
        self.dense = G
        self.factors = ()
        self.vt = np.empty((0, G.shape[1]))
        self.truncation = self.error_bound = 0.0
        self.rmatvec, self.matvec = G.T.dot, G.dot

    def trace(self, load: np.ndarray) -> np.ndarray:
        """Trace on Gamma of the state with volume load ``load`` (w * f)
        and the flux data."""
        u = self.rmatvec(load)
        u += self.flux_trace
        return u

    def gram(self, w: np.ndarray) -> np.ndarray:
        """G~^T W G~ with W the diagonal of the nodal weights ``w``, summed
        over G's rows with no n x m temporary next to G: Y^T Y over chunks
        Y = W^(1/2) G[chunk] of 512 dense rows, which numpy hands to BLAS
        syrk, so that each is exactly symmetric, and V (Y^T Y) V^T with
        Y = W^(1/2) US for each factored strip."""
        sw = np.sqrt(w)[:, None]
        dense, m = self.dense, self.shape[1]
        gram, sw_dense = np.zeros((m, m)), sw[:dense.shape[0]]
        for i in range(0, dense.shape[0], 512):
            y = sw_dense[i:i + 512] * dense[i:i + 512]
            gram += y.T @ y
        k0 = 0
        for rows, us in self.factors:
            y, vt = sw[rows] * us, self.vt[k0:k0 + us.shape[1]]
            gram += vt.T @ (y.T @ y) @ vt
            k0 += us.shape[1]
        return gram

    def compress(self, strips: int = 8):
        """Split G into ``strips`` row strips of equal size (to a row) and
        factor the trailing ones in place; a map with factored strips is
        left as it is.

        Far from Gamma the columns of G are discrete harmonic extensions,
        so its strips there have low numerical rank: they are the
        admissible blocks of hierarchical matrices (Hackbusch, Computing
        1999) and of block low-rank solvers (Amestoy et al., SIAM J. Sci.
        Comput. 2015).  From the last strip on, each strip's SVD, truncated
        to the singular values above 1e-15 ||G||_F, replaces it while its
        rank k makes the factors smaller than the strip, (rows + m) k <
        rows m: U S is written column-major over the strip's leading rows k
        entries, so that both products with it run along its columns, and
        its k rows of V^T are stacked in ``vt``, which is therefore smaller
        than the entries the factored strips free.  The pages those
        entries fill wholly are handed back to the system, so that the
        loop's working set shrinks with the map.  The first strip that
        would not shrink ends the scan; it and the strips before it stay
        ``dense``, their bytes unchanged.  No n x m array is allocated: each
        SVD works on a copy of one strip.

        ``truncation`` is then the root sum of squares of the factored
        strips' first dropped singular values, which bounds ||G~ - G||_2 in
        exact arithmetic (the strips stack G's rows), and ``error_bound``
        adds m 2^-52 ||G||_F for the rounding of the SVDs, which LAPACK
        computes backward stably, and of the products.
        """
        if self.factors:
            return
        G = self.dense
        n, m = self.shape
        norm = float(np.linalg.norm(G))
        edges = [n * i // strips for i in range(strips + 1)]
        factors, vts, dropped = [], [], []
        for start, stop in reversed(list(zip(edges, edges[1:]))):
            rows = stop - start
            u, s, vt = np.linalg.svd(G[start:stop], full_matrices=False)
            k = int(np.count_nonzero(s > 1e-15 * norm))
            if (rows + m) * k >= rows * m:
                break
            # a view of the strip's rows, which the SVD no longer reads
            us = G[start:stop].reshape(-1)[:rows * k].reshape(k, rows).T
            np.multiply(u[:, :k], s[:k], out=us)
            _release(G, (start * m + rows * k) * 8, stop * m * 8)
            factors.append((slice(start, stop), us))
            vts.append(vt[:k])
            dropped.append(s[k])
        if not factors:
            return
        self.factors = tuple(reversed(factors))
        self.dense = G[:self.factors[0][0].start]
        self.vt = np.concatenate(vts[::-1])
        self.truncation = math.hypot(*dropped)
        self.error_bound = self.truncation + m * 2.0**-52 * norm
        self.rmatvec, self.matvec = _strip_products(n, self.dense, self.vt,
                                                    self.factors)


def _release(a: np.ndarray, start: int, stop: int):
    """Hand back to the system the whole pages between bytes ``start`` and
    ``stop`` of ``a``'s data, which hold nothing any more; they read as
    zeros if touched again.  Where the C library has no madvise, keep
    them."""
    madvise = _madvise()
    if madvise is None:
        return
    page, dontneed = madvise
    first = -(-(a.ctypes.data + start) // page) * page
    last = (a.ctypes.data + stop) // page * page
    if first < last:
        dontneed(first, last - first)


@functools.cache
def _madvise():
    """The page size and madvise(address, length, MADV_DONTNEED) of the C
    library, or None.  Imported on first use, so that a process that
    compresses no map loads nothing for it."""
    import ctypes
    import mmap
    try:
        madvise = ctypes.CDLL(None).madvise
        advice = mmap.MADV_DONTNEED
    except (AttributeError, OSError, TypeError):
        return None
    madvise.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
    return mmap.PAGESIZE, lambda address, length: madvise(address, length,
                                                           advice)


def _strip_products(n, dense, vt, factors):
    """G~^T x and G~ c of a map held as ``dense`` rows and ``factors``
    (rows, US), their V^T stacked in ``vt``.

    G~^T x is a gemv with the dense rows, one with each strip's US^T into
    its rows of the coefficients c and one with the stacked V^T; G~ c a
    gemv with the dense rows, one with the stacked V^T into c and one with
    each strip's US, each into its rows of the result.  The two share c,
    so they make one product at a time; they close over the arrays, not
    the map, so the map holds no reference cycle and is freed as soon as
    it is released."""
    c = np.empty(vt.shape[0])
    plan, k0 = [], 0
    for rows, us in factors:
        plan.append((rows, us.T, us, c[k0:k0 + us.shape[1]]))
        k0 += us.shape[1]
    dense_t, head = dense.T, dense.shape[0]

    def rmatvec(load):
        u = dense_t.dot(load[:head])
        for rows, us_t, _, c_k in plan:
            us_t.dot(load[rows], out=c_k)
        u += vt.T.dot(c)
        return u

    def matvec(coef):
        out = np.empty(n)
        dense.dot(coef, out=out[:head])
        vt.dot(coef, out=c)
        for rows, _, us, c_k in plan:
            us.dot(c_k, out=out[rows])
        return out

    return rmatvec, matvec


class DiscreteProblem:
    """Assembled operators for one ProblemDef, reusable across many solves."""

    def __init__(self, prob: ProblemDef, cg_tol: float = DEFAULT_CG_TOL):
        self.prob = prob
        self.mesh = prob.mesh
        self.cg_tol = cg_tol
        self.A = assemble_stiffness(prob.mesh, prob.coeffs)
        self.M, self.w = assemble_mass(prob.mesh)
        self.gamma_nodes, self.M_gamma = assemble_boundary_mass(prob.mesh,
                                                                prob.gamma)
        self.b_flux = neumann_load(prob.mesh, prob.neumann)
        self.pure_neumann = prob.coeffs.is_pure_neumann
        self.domain_volume = float(self.w.sum())

    @functools.cached_property
    def boundary_map(self) -> BoundaryMap:
        """The solution map restricted to the observed nodes, built on first
        use by one checked block solve in place on G, which holds the unit
        loads at the observed nodes (deflated in the pure-Neumann case) on
        entry: G is the only n x m array of the build.  The factorization
        is freed after its sweeps, so neither the residual check nor the
        loop holds it."""
        nodes, n = self.gamma_nodes, self.mesh.n_vertices
        cols = np.arange(nodes.shape[0])
        # the deflation -w/|Omega| of every unit load, bit for bit _solve's
        shift = self.w * (-1.0 / self.domain_volume if self.pure_neumann
                          else 0.0)

        def unit_loads(chunk, out=None):
            """Columns ``chunk`` (a slice) of the loads, in ``out`` if
            given."""
            j = cols[chunk]
            b = np.empty((n, j.shape[0]), order="F") if out is None else out
            b[:] = shift[:, None]
            b[nodes[j], np.arange(j.shape[0])] += 1.0
            return b

        G = unit_loads(slice(None), np.empty((n, nodes.shape[0])))
        G = self._recentred(_checked_solve(
            self.A, self.mesh.level + 1, self.pure_neumann, unit_loads,
            self.cg_tol, out=G))
        return BoundaryMap(G, G.T @ self.b_flux)

    def release_loop_arrays(self):
        """Free the boundary map, the one n x m array a primal-dual run
        reads; the next use builds it again."""
        self.__dict__.pop("boundary_map", None)

    # -- inner products ----------------------------------------------------

    def lumped_inner(self, u, v) -> float:
        return float(np.sum(self.w * u * v))

    def l2_norm(self, u) -> float:
        return float(np.sqrt(u @ (self.M @ u)))

    def h1_norm(self, u) -> float:
        """The H1 norm of a P1 field: its L2 norm and the seminorm
        sum_T |T| |grad u_T|^2, exact for P1, read from its element
        gradients."""
        g = elem_gradient(self.mesh, u)
        g *= g
        return float(np.sqrt(self.mesh.grid.area * g.sum()
                             + u @ (self.M @ u)))

    def gamma_norm(self, r) -> float:
        """L2 norm over the observation boundary of a Gamma-vector."""
        return float(np.sqrt(r @ (self.M_gamma @ r)))

    # -- solves ------------------------------------------------------------

    def _solve(self, rhs):
        """Checked factored solution for one load (n,) or for each column of
        an (n, k) block of loads, with a factorization made for this call.

        With beta = sigma = 0 the operator has the constants as kernel.
        This is the one place where such a load is deflated onto the range
        of A, b - w sum(b) / |Omega|, and where its solution is re-centred
        to zero weighted mean.  The factorization is grounded
        (``BlockTridiagonalFactor``): for a deflated load the grounded
        solution solves the singular system itself, so its residual meets
        the tolerance like any other, and CG polishes it only if it misses
        (no benchmark solve does).  The deflation removes the source's mean
        from the load (``primal_dual.compatible_start``)."""
        if self.pure_neumann:
            rhs = rhs - np.multiply.outer(
                self.w, rhs.sum(axis=0) / self.domain_volume)
        return self._recentred(_checked_solve(
            self.A, self.mesh.level + 1, self.pure_neumann, rhs, self.cg_tol))

    def _recentred(self, x):
        """``x``, in the pure-Neumann case shifted in place to zero weighted
        mean (each column of a block)."""
        if self.pure_neumann:
            x -= (self.w @ x) / self.domain_volume
        return x

    def solve_state(self, f: P1Field) -> P1Field:
        """Solution of the variational problem with source f and the flux
        data, by ``_solve``."""
        return self._solve(self.w * f + self.b_flux)

    def solve_source_part(self, f: P1Field) -> P1Field:
        """State with source f and zero flux (the linear part of the map)."""
        return self._solve(self.w * f)

    def observed_values(self, z: Observation) -> np.ndarray:
        """``z.values``, once ``z`` is checked to hold one value at each of
        the observed nodes; raises ValueError otherwise."""
        nodes = self.gamma_nodes
        if not (np.array_equal(z.nodes, nodes)
                and np.shape(z.values) == nodes.shape):
            raise ValueError("the observation's nodes are not the problem's "
                             f"{nodes.shape[0]} observed boundary nodes")
        return z.values

    def solve_adjoint(self, u_gamma: np.ndarray, z: Observation) -> P1Field:
        """Adjoint state loaded by the data misfit of the state's trace
        ``u_gamma`` on the observed boundary."""
        return self._solve(self._gamma_load(u_gamma - self.observed_values(z)))

    def solve_gamma_loaded(self, g: np.ndarray) -> P1Field:
        """Solve with boundary load (g, .) over Gamma, g a Gamma-vector."""
        return self._solve(self._gamma_load(g))

    def _gamma_load(self, g: np.ndarray) -> np.ndarray:
        """The nodal load (g, .) over Gamma of a Gamma-vector g."""
        load = np.zeros(self.mesh.n_vertices)
        load[self.gamma_nodes] = self.M_gamma @ g
        return load

    def solve_dirichlet(self, f: P1Field,
                        boundary_values: np.ndarray) -> P1Field:
        """Constrained solve: boundary nodes pinned to the given values.

        ``boundary_values`` is a full nodal vector whose entries at boundary
        nodes supply the data (interior entries are ignored).  The (level -
        1)^2 interior nodes solve A's diagonals there, in grid rows of level
        - 1 and without the couplings that leave a row's last node, loaded
        by w f - A u_b for the boundary data u_b.  The factorization is not
        kept.
        """
        n = self.mesh.level + 1  # nodes per grid row
        u = np.array(boundary_values, dtype=float).reshape(n, n)
        u[1:-1, 1:-1] = 0.0
        load = (self.w * f - self.A @ u.ravel()).reshape(n, n)[1:-1, 1:-1]
        diags = self.A.diags.reshape(-1, n, n)[:, 1:-1, 1:-1].copy()
        diags[[1, 3], :, -1:] = 0.0  # A's offsets 1 and level + 2
        # a grid of at most one node has no coupling, and at level 1 no
        # block row: any block size tiles it
        m, k = max(n - 2, 1), (4 if n > 3 else 1)
        A_inner = SymmetricStencil((0, 1, m, m + 1)[:k],
                                   diags[:k].reshape(k, -1))
        u[1:-1, 1:-1] = _checked_solve(A_inner, m, False, load.ravel(),
                                       self.cg_tol).reshape(load.shape)
        return u.ravel()


def _checked_solve(A, m: int, ground: bool, rhs, tol: float, out=None):
    """Solution of A x = b for one load b (n,) or for each column of an
    (n, k) block, by a BlockTridiagonalFactor of A in blocks of m, grounded
    if ``ground``, made for the call and freed after its solve.  ``rhs`` is
    b; or, for a solve in place on ``out``, which holds b on entry, a
    function that returns the columns of b in a slice.  The residuals are
    checked four columns at a time, so the check holds a few columns next
    to x and never the factorization; a column that misses the relative
    target ``tol`` or is not finite is polished by CG, which fails on NaN."""
    x = BlockTridiagonalFactor(A, m, ground).solve(
        rhs if out is None else out, out=out)
    cols = x if x.ndim == 2 else x[:, None]  # a view of x
    for start in range(0, cols.shape[1], 4):
        chunk = slice(start, start + 4)
        # column-major copies: the stencil product runs along whole columns
        x_c = np.asfortranarray(cols[:, chunk])
        b = np.asfortranarray(rhs(chunk) if out is not None else np.reshape(
            rhs, cols.shape)[:, chunk])
        res = A @ x_c
        res -= b
        for j in np.flatnonzero(~(np.linalg.norm(res, axis=0)
                                  <= tol * np.linalg.norm(b, axis=0))):
            cols[:, start + j], _ = cg_solve(A, b[:, j], tol=tol,
                                             x0=x_c[:, j])
    return x


def misfit(dp: DiscreteProblem, u_gamma: np.ndarray, z: Observation) -> float:
    """Half the squared observation-boundary distance between the state's
    trace ``u_gamma`` and the data."""
    r = u_gamma - dp.observed_values(z)
    return 0.5 * float(r @ (dp.M_gamma @ r))
