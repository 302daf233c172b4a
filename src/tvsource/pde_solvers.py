"""State, adjoint and Dirichlet solves for the source-identification problem.

All volume load pairings use the vertex rule (lumped weights), the same
inner product the proximal steps of the optimizer are taken in; with this
choice the reduced-gradient identity

    d/df [misfit](f) applied to xi  ==  <xi, adjoint_state(f)>_w

holds exactly up to solver tolerance, also in the pure-Neumann case, where
loads are deflated onto the compatible range and solutions are returned as
zero-weighted-mean representatives.

Every solve is a direct solve with a block-tridiagonal factorization,
checked (and polished if needed) by CG to the problem's ``cg_tol``.
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

    def embed(self, n_vertices: int) -> np.ndarray:
        """Nodal vector with the observed values and zeros elsewhere."""
        z = np.zeros(n_vertices)
        z[self.nodes] = self.values
        return z


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

    @functools.cached_property
    def factor(self) -> BlockTridiagonalFactor:
        """Factorization of A, built on first use; in the pure-Neumann case
        of A grounded at one node, which solves A x = b for deflated b."""
        return BlockTridiagonalFactor(self.A, self.mesh.level + 1,
                                      ground=self.pure_neumann)

    def release_factor(self):
        """Free the factorization of A; the next solve builds it again."""
        self.__dict__.pop("factor", None)

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

    def _solve(self, rhs):
        """Factored solution, checked by CG; a pure-Neumann load is first
        deflated onto the range of A, and CG re-centres the solution."""
        w = None
        if self.pure_neumann:
            w = self.w
            rhs = rhs - (rhs.sum() / self.domain_volume) * w
        x, _ = cg_solve(self.A, rhs, tol=self.cg_tol, mean_weights=w,
                        x0=self.factor.solve(rhs))
        return x

    def compatibility_residual(self, f: P1Field) -> float:
        """Volume integral of the source plus the total boundary flux."""
        return float(self.w @ f + self.b_flux.sum())

    def solve_state(self, f: P1Field,
                    require_compatible: bool = False) -> P1Field:
        """Solution of the variational problem with source f and the flux data.

        In the pure-Neumann case the load is deflated and the zero-mean
        representative is returned; with ``require_compatible`` the solve is
        rejected instead when the compatibility residual exceeds 1e-8 of the
        load norm.
        """
        rhs = self.w * f + self.b_flux
        if require_compatible and self.pure_neumann:
            defect = abs(self.compatibility_residual(f))
            if defect > 1e-8 * max(np.linalg.norm(rhs), 1e-300):
                raise ValueError(
                    f"incompatible source/flux pair: defect {defect:.3e}")
        return self._solve(rhs)

    def solve_source_part(self, f: P1Field) -> P1Field:
        """State with source f and zero flux (the linear part of the map)."""
        return self._solve(self.w * f)

    def solve_adjoint(self, u_state: P1Field, z: Observation) -> P1Field:
        """Adjoint state loaded by the data misfit on the observed boundary."""
        rhs = self.M_gamma @ (u_state - z.embed(self.mesh.n_vertices))
        return self._solve(rhs)

    def solve_gamma_loaded(self, g: P1Field) -> P1Field:
        """Solve with boundary load (g, .) over the observed sides."""
        return self._solve(self.M_gamma @ g)

    def solve_dirichlet(self, f: P1Field,
                        boundary_values: np.ndarray) -> P1Field:
        """Constrained solve: boundary nodes pinned to the given values.

        ``boundary_values`` is a full nodal vector whose entries at boundary
        nodes supply the data (interior entries are ignored).  The interior
        block is factored here and not kept.
        """
        bnodes = self.mesh.boundary_nodes()
        n = self.mesh.n_vertices
        interior = np.setdiff1d(np.arange(n), bnodes)
        u = np.zeros(n)
        u[bnodes] = boundary_values[bnodes]
        rhs = self.w * f - self.A @ u
        A_ii = self.A[interior][:, interior].tocsr()
        b = rhs[interior]
        x0 = BlockTridiagonalFactor(A_ii, self.mesh.level - 1).solve(b)
        x, _ = cg_solve(A_ii, b, tol=self.cg_tol, x0=x0)
        u[interior] = x
        return u


def misfit(dp: DiscreteProblem, u_state: P1Field, z: Observation) -> float:
    """Half the squared observation-boundary distance between trace and data."""
    r = u_state - z.embed(dp.mesh.n_vertices)
    return 0.5 * float(r @ (dp.M_gamma @ r))
