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
factorization, and needs no solve per iteration or after it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fem_assembly import (CoefficientSet, NeumannData, P1Field,
                           assemble_boundary_mass, assemble_mass,
                           assemble_stiffness, neumann_load,
                           unit_coefficients)
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
    r on Gamma is G M r, with M the boundary mass matrix on Gamma.
    """

    G: np.ndarray           # (n, m)
    flux_trace: np.ndarray  # (m,) trace on Gamma of the zero-source state
    M: np.ndarray           # (m, m) dense boundary mass on Gamma
    R: np.ndarray           # lower Cholesky factor of M, M = R R^T

    def trace(self, load: np.ndarray) -> np.ndarray:
        """Trace on Gamma of the state with volume load ``load`` (w * f)
        and the flux data."""
        return self.G.T @ load + self.flux_trace


class DiscreteProblem:
    """Assembled operators for one ProblemDef, reusable across many solves."""

    def __init__(self, prob: ProblemDef, cg_tol: float = DEFAULT_CG_TOL):
        self.prob = prob
        self.mesh = prob.mesh
        self.cg_tol = cg_tol
        self.A = assemble_stiffness(prob.mesh, prob.coeffs)
        self.M, self.w = assemble_mass(prob.mesh)
        self.M_gamma = assemble_boundary_mass(prob.mesh, prob.gamma)
        self.gamma_nodes = prob.mesh.side_nodes(prob.gamma.sides)
        self.b_flux = neumann_load(prob.mesh, prob.neumann)
        self.pure_neumann = prob.coeffs.is_pure_neumann
        self.domain_volume = float(self.w.sum())

    @functools.cached_property
    def K_unit(self):
        """Unit-diffusion stiffness matrix: the H1 seminorm and the discrete
        gradient norm of the step-size certificate."""
        return assemble_stiffness(self.mesh, unit_coefficients(self.mesh))

    def _factor(self) -> BlockTridiagonalFactor:
        """A new factorization of A; in the pure-Neumann case of A grounded
        at one node, which solves A x = b for deflated b."""
        return BlockTridiagonalFactor(self.A, self.mesh.level + 1,
                                      ground=self.pure_neumann)

    @functools.cached_property
    def boundary_map(self) -> BoundaryMap:
        """The solution map restricted to the observed nodes, built on first
        use from one factorization of A, four columns at a time; the
        factorization is dropped once G is built, so the loop holds G alone.
        The work arrays of a block solve next to G and the factorization
        set the peak memory of the build (at level 64, 0.6 MB lower than
        with eight columns, for 25 ms more).  The boundary mass on Gamma
        is read from ``M_gamma`` in the same chunks."""
        nodes, n = self.gamma_nodes, self.mesh.n_vertices
        m = nodes.shape[0]
        G, M = np.empty((n, m)), np.empty((m, m))
        factor = self._factor()
        for start in range(0, m, 4):
            cols = nodes[start:start + 4]
            unit = np.zeros((n, cols.shape[0]))
            unit[cols, np.arange(cols.shape[0])] = 1.0
            G[:, start:start + cols.shape[0]] = self._solve(unit, factor)
            M[:, start:start + cols.shape[0]] = (self.M_gamma @ unit)[nodes]
        return BoundaryMap(G, G.T @ self.b_flux, M, np.linalg.cholesky(M))

    def release_loop_arrays(self):
        """Free the arrays the primal-dual loop reads: the boundary map and
        the mesh's gradient table; the next use builds them again."""
        self.__dict__.pop("boundary_map", None)
        self.mesh.__dict__.pop("gradient_table", None)

    # -- inner products ----------------------------------------------------

    def lumped_inner(self, u, v) -> float:
        return float(np.sum(self.w * u * v))

    def lumped_norm(self, u) -> float:
        return float(np.sqrt(np.sum(self.w * u * u)))

    def l2_norm(self, u) -> float:
        return float(np.sqrt(u @ (self.M @ u)))

    def h1_norm(self, u) -> float:
        return float(np.sqrt(u @ (self.K_unit @ u) + u @ (self.M @ u)))

    def gamma_norm(self, r) -> float:
        """L2 norm over the observation boundary of a nodal vector."""
        return float(np.sqrt(r @ (self.M_gamma @ r)))

    # -- solves ------------------------------------------------------------

    def _solve(self, rhs, factor: BlockTridiagonalFactor | None = None):
        """Checked factored solution for one load (n,) or for each column of
        an (n, k) block of loads, with ``factor`` (from ``_factor``) or, when
        None, a factorization made for this call; a pure-Neumann load is
        first deflated onto the range of A and its solution re-centred to
        zero weighted mean."""
        if self.pure_neumann:
            rhs = rhs - np.multiply.outer(
                self.w, rhs.sum(axis=0) / self.domain_volume)
        if factor is None:
            factor = self._factor()
        x = _checked_solve(self.A, factor, rhs, self.cg_tol)
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

    def solve_adjoint(self, u_state: P1Field, z: Observation) -> P1Field:
        """Adjoint state loaded by the data misfit on the observed boundary."""
        return self._solve(self.M_gamma @ _residual(self, u_state, z))

    def solve_gamma_loaded(self, g: P1Field) -> P1Field:
        """Solve with boundary load (g, .) over the observed sides."""
        return self._solve(self.M_gamma @ g)

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
        factor = BlockTridiagonalFactor(A_pin, self.mesh.level + 1)
        x = _checked_solve(A_pin, factor, rhs, self.cg_tol)
        x[bnodes] = u[bnodes]
        return x


def _checked_solve(A, factor: BlockTridiagonalFactor, rhs, tol: float):
    """Factored solution of A x = rhs for one load (n,) or for each column
    of an (n, k) block.  Every column's residual is checked in one block
    product; a column that misses the relative target ``tol`` is polished
    by CG."""
    x = factor.solve(rhs)
    res = A @ x
    res -= rhs
    shape, n = x.shape, x.shape[0]
    x, res, rhs = (np.reshape(a, (n, -1)) for a in (x, res, rhs))
    for j in np.flatnonzero(np.linalg.norm(res, axis=0)
                            > tol * np.linalg.norm(rhs, axis=0)):
        x[:, j], _ = cg_solve(A, rhs[:, j], tol=tol, x0=x[:, j])
    return x.reshape(shape)


def misfit(dp: DiscreteProblem, u_state: P1Field, z: Observation) -> float:
    """Half the squared observation-boundary distance between trace and data."""
    r = _residual(dp, u_state, z)
    return 0.5 * float(r @ (dp.M_gamma @ r))


def _residual(dp: DiscreteProblem, u_state: P1Field,
              z: Observation) -> P1Field:
    """Nodal vector of the state minus the data on the observed nodes."""
    r = np.array(u_state, dtype=float)
    r[dp.gamma_nodes] -= dp.observed_values(z)
    return r
