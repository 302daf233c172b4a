"""Discrete total variation of piecewise-linear fields and its dual side.

The committed definition is the anisotropic one: the integral of the
componentwise l1-norm of the element gradients.  It is the exact support
function of the componentwise unit ball of piecewise-constant vector
fields, so the dual-ball projection is a plain clamp.  The isotropic
(per-triangle Euclidean) projection has no caller in the program; it is
kept only because perfbench's layer tracer wraps it by name.
"""

from __future__ import annotations

import numpy as np

from .fem_assembly import P0VecField, P1Field, elem_gradient
from .mesh import TriMesh


def tv_value(mesh: TriMesh, f: P1Field) -> float:
    """Anisotropic total variation: sum_T |T| * (|df/dx1| + |df/dx2|)."""
    g = elem_gradient(mesh, f)
    np.abs(g, out=g)
    g *= mesh.grid.area
    return float(g.sum())


def gradient_pairing(mesh: TriMesh, f: P1Field, p: P0VecField) -> float:
    """(grad f, p) integrated over the domain, each term scaled by the
    area before the sum, so that no subnormal term is lost."""
    g = elem_gradient(mesh, f)
    g *= mesh.grid.area
    g *= p
    return float(g.sum())


def subgradient_witness(mesh: TriMesh, f: P1Field) -> P0VecField:
    """Componentwise sign field of the element gradients.

    Pairs with grad f to exactly the total variation, certifying membership
    in the subdifferential.
    """
    return np.sign(elem_gradient(mesh, f))


# the clamp's bounds as read-only 0-d arrays: an array operand skips the
# conversion a Python float pays on every call, with the same bits
_MINUS_ONE, _ONE = np.array(-1.0), np.array(1.0)
_MINUS_ONE.flags.writeable = _ONE.flags.writeable = False


def project_dual_ball(p: P0VecField) -> P0VecField:
    """Componentwise clamp onto [-1, 1]: the exact nearest point of the
    componentwise unit ball in any weighted elementwise metric."""
    return p.clip(_MINUS_ONE, _ONE)


def project_dual_ball_isotropic(p: P0VecField) -> P0VecField:
    """Per-triangle Euclidean normalization p / max(1, |p|)."""
    norms = np.linalg.norm(p, axis=1, keepdims=True)
    return p / np.maximum(1.0, norms)
