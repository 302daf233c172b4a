"""State, adjoint and Dirichlet solves for the source-identification problem.

All volume load pairings use the vertex rule (lumped weights), the same
inner product the proximal steps of the optimizer are taken in; with this
choice the reduced-gradient identity

    d/df [misfit](f) applied to xi  ==  <xi, adjoint_state(f)>_w

holds exactly up to solver tolerance, also in the pure-Neumann case, where
loads are deflated onto the compatible range and solutions are returned as
zero-weighted-mean representatives.

Every solve is a direct solve with a block-tridiagonal factorization
whose residual is checked against the problem's ``cg_tol``; a solution
that misses it is polished by CG.  No factorization is kept: each solve
factors A for itself.  The data misfit reads the state only on the
observed boundary Gamma, so the optimizer works with the solution map
restricted to Gamma (BoundaryMap), built once per problem from one
factorization, and needs no solve per iteration or after it.  Boundary
quantities are Gamma-vectors: one value per node of ``gamma_nodes``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fem_assembly import (CoefficientSet, NeumannData, P1Field,
                           assemble_boundary_mass, assemble_mass,
                           assemble_stiffness, neumann_load)
from .mesh import GammaSpec, TriMesh
from .sparse_linalg import BlockTridiagonalFactor, cg_solve

DEFAULT_CG_TOL = 1e-10


@dataclass(frozen=True)
class ProblemDef:
    """Problem data: geometry, coefficients, flux, observation boundary, box."""

    mesh: TriMesh
    coeffs: CoefficientSet
    neumann: NeumannData
    gamma: GammaSpec
    box: tuple = (-1.0, 3.0)

    def __post_init__(self):
        lo, hi = self.box
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"invalid box bounds {self.box}")


@dataclass(frozen=True)
class Observation:
    """Measured trace values on the observation-boundary nodes."""

    nodes: np.ndarray          # sorted node indices on the observed sides
    values: np.ndarray         # one value per node
    noise_level: float = 0.0   # L2 norm of the added noise


@dataclass(frozen=True)
class BoundaryMap:
    """The solution map of a DiscreteProblem, read and loaded on Gamma only.

    With L the solution map of ``DiscreteProblem._solve`` (load to state;
    symmetric, also when deflated: L = C A^+ C^T with C the re-centring)
    and Gamma the m observed nodes, G = L[:, Gamma] is an (n, m) matrix.
    By symmetry the trace on Gamma of the state with volume load b is
    G^T b + G^T b_flux, and the adjoint state loaded by a boundary residual
    r on Gamma is G M r, with M the boundary mass ``DiscreteProblem.M_gamma``.
    """

    G: np.ndarray           # (n, m)
    flux_trace: np.ndarray  # (m,) trace on Gamma of the zero-source state

    def trace(self, load: np.ndarray) -> np.ndarray:
        """Trace on Gamma of the state with volume load ``load`` (w * f)
        and the flux data."""
        u = self.G.T.dot(load)  # the loop's product: skips matmul's dispatch
        u += self.flux_trace
        return u


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

    def _factor(self) -> BlockTridiagonalFactor:
        """A new factorization of A; in the pure-Neumann case of A grounded
        at one node, which solves A x = b for deflated b."""
        return BlockTridiagonalFactor(self.A, self.mesh.level + 1,
                                      ground=self.pure_neumann)

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
        G = self._recentred(_checked_solve(self.A, self._factor, unit_loads,
                                           self.cg_tol, out=G))
        return BoundaryMap(G, G.T @ self.b_flux)

    def release_loop_arrays(self):
        """Free the arrays a primal-dual run reads: the boundary map and
        the mesh's gradient table, which its last objective builds; the
        next use builds them again."""
        self.__dict__.pop("boundary_map", None)
        self.mesh.__dict__.pop("gradient_table", None)

    # -- inner products ----------------------------------------------------

    def lumped_inner(self, u, v) -> float:
        return float(np.sum(self.w * u * v))

    def l2_norm(self, u) -> float:
        return float(np.sqrt(u @ (self.M @ u)))

    def h1_norm(self, u) -> float:
        """The H1 norm of a P1 field: its L2 norm and the seminorm
        sum_T |T| |grad u_T|^2, exact for P1, read from the mesh's
        per-element gradients."""
        mesh = self.mesh
        g = np.einsum("tia,ti->ta", mesh.grads, u[mesh.triangles])
        g *= g
        return float(np.sqrt(mesh.areas @ g.sum(axis=1) + u @ (self.M @ u)))

    def gamma_norm(self, r) -> float:
        """L2 norm over the observation boundary of a Gamma-vector."""
        return float(np.sqrt(r @ (self.M_gamma @ r)))

    # -- solves ------------------------------------------------------------

    def _solve(self, rhs):
        """Checked factored solution for one load (n,) or for each column of
        an (n, k) block of loads, with a factorization made for this call;
        a pure-Neumann load is first deflated onto the range of A and its
        solution re-centred to zero weighted mean."""
        if self.pure_neumann:
            rhs = rhs - np.multiply.outer(
                self.w, rhs.sum(axis=0) / self.domain_volume)
        return self._recentred(
            _checked_solve(self.A, self._factor, rhs, self.cg_tol))

    def _recentred(self, x):
        """``x``, in the pure-Neumann case shifted in place to zero weighted
        mean (each column of a block)."""
        if self.pure_neumann:
            x -= (self.w @ x) / self.domain_volume
        return x

    def solve_state(self, f: P1Field) -> P1Field:
        """Solution of the variational problem with source f and the flux
        data; in the pure-Neumann case the load is deflated and the
        zero-mean representative is returned."""
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
        nodes supply the data (interior entries are ignored).  The interior
        system is solved as A with its boundary rows and columns pinned to
        the identity and a zero load there.  The factorization is not kept.
        """
        bnodes = self.mesh.boundary_nodes()
        u = np.zeros(self.mesh.n_vertices)
        u[bnodes] = boundary_values[bnodes]
        rhs = self.w * f - self.A @ u
        rhs[bnodes] = 0.0
        A_pin = self.A.pinned(bnodes)
        x = _checked_solve(A_pin, functools.partial(
            BlockTridiagonalFactor, A_pin, self.mesh.level + 1), rhs,
            self.cg_tol)
        x[bnodes] = u[bnodes]
        return x


def _checked_solve(A, make_factor, rhs, tol: float, out=None):
    """Solution of A x = b for one load b (n,) or for each column of an
    (n, k) block, by a factorization from ``make_factor()`` that is freed
    after its solve.  ``rhs`` is b; or, for a solve in place on ``out``,
    which holds b on entry, a function that returns the columns of b in a
    slice.  The residuals are checked four columns at a time, so the check
    holds a few columns next to x and never the factorization; a column
    that misses the relative target ``tol`` is polished by CG."""
    x = make_factor().solve(rhs if out is None else out, out=out)
    cols = np.reshape(x, (x.shape[0], -1))
    for start in range(0, cols.shape[1], 4):
        chunk = slice(start, start + 4)
        # column-major copies: the stencil product runs along whole columns
        x_c = np.asfortranarray(cols[:, chunk])
        b = np.asfortranarray(rhs(chunk) if out is not None else np.reshape(
            rhs, cols.shape)[:, chunk])
        res = A @ x_c
        res -= b
        for j in np.flatnonzero(np.linalg.norm(res, axis=0)
                                > tol * np.linalg.norm(b, axis=0)):
            cols[:, start + j], _ = cg_solve(A, b[:, j], tol=tol,
                                             x0=x_c[:, j])
    return x


def misfit(dp: DiscreteProblem, u_gamma: np.ndarray, z: Observation) -> float:
    """Half the squared observation-boundary distance between the state's
    trace ``u_gamma`` and the data."""
    r = u_gamma - dp.observed_values(z)
    return 0.5 * float(r @ (dp.M_gamma @ r))
