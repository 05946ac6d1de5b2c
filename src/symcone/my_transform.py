"""The involutive cone map psi(x, y) = ((x+y)^-1, x^-1 - (x+y)^-1).

The map sends pairs of open-cone points to pairs of open-cone points and is
its own inverse.  :func:`batch_my_map` is the one batched form of the map,
and :func:`_my_map` its core from the two inverses: the finite-difference
Jacobian and the checks of :mod:`symcone.verification` call the core where
they already hold an inverse, and the batched form elsewhere.  This module
also provides the nested-inverse rewrite of its second component (Hua's
identity) and the change-of-variables Jacobian of the map, in closed form
and as a finite-difference oracle.
:func:`batch_log_jacobian_det` is the one closed form; it and the oracle
:func:`batch_log_jacobian_det_numeric` give logs, so they stay finite where
the Jacobian leaves the double range.  The element-level
:func:`jacobian_det_formula` and :func:`jacobian_det_numeric` are their
exps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    Element,
    NotInConeError,
    _factor,
    _require_same,
    batch_det,
    batch_in_cone,
    batch_inverse,
    in_cone,
    inverse,
    quad_apply,
)


@dataclass(frozen=True, eq=False)
class ConePair:
    """Two elements of the same algebra, both in the open cone."""

    first: Element
    second: Element

    def __post_init__(self):
        _require_same(self.first, self.second)
        if not in_cone(self.first) or not in_cone(self.second):
            raise NotInConeError("both members of a ConePair must be in the open cone")


def my_map(x: Element, y: Element) -> ConePair:
    """Map (x, y) to (u, v) = ((x+y)^-1, x^-1 - (x+y)^-1).

    Both inputs must lie in the open cone; the outputs then do as well, and
    applying the map twice returns the original pair.
    """
    if not in_cone(x) or not in_cone(y):
        raise NotInConeError("my_map requires open-cone inputs")
    u = inverse(x + y)
    v = inverse(x) - u
    return ConePair(u, v)


def batch_my_map(alg: AlgebraDescriptor, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Map stacked coordinates x, y of shape (..., dim) to (u, v) =
    ((x+y)^-1, x^-1 - (x+y)^-1).

    Like the other ``batch_*`` kernels it does not check cone membership.
    """
    return _my_map(batch_inverse(alg, x + y), batch_inverse(alg, x))


def _my_map(inv_sum, inv_x):
    """The map from the inverses (x+y)^-1 and x^-1, which a caller holding
    them passes in place of x and y."""
    return inv_sum, inv_x - inv_sum


def hua_rhs(a: Element, b: Element) -> Element:
    """Evaluate (a + P(a) b^-1)^-1, the single-inversion form of a^-1 - (a+b)^-1."""
    if not in_cone(a):
        raise NotInConeError("hua_rhs requires a in the open cone")
    return inverse(a + quad_apply(a, inverse(b)))


def jacobian_det_formula(u: Element, v: Element) -> float:
    """Closed-form Jacobian of the map at (u, v): (det u * det(u+v))^(-2 dim / rank),
    the exp of :func:`batch_log_jacobian_det` (inf or 0 outside the double range)."""
    if not in_cone(u) or not in_cone(v):
        raise NotInConeError("jacobian requires open-cone inputs")
    with np.errstate(over="ignore"):  # inf outside the double range, as documented
        return float(np.exp(batch_log_jacobian_det(u.algebra, u.coords, v.coords)))


def batch_log_jacobian_det(alg: AlgebraDescriptor, u, v) -> np.ndarray:
    """Log of the closed-form Jacobian at stacked cone points u, v of shape
    (..., dim): -2 (dim/rank) (log det u + log det(u+v)).

    It stays finite where the Jacobian itself overflows or underflows.  Like
    the other ``batch_*`` kernels it does not check cone membership.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return _log_jacobian_det(alg, np.log(batch_det(alg, u)), np.log(batch_det(alg, u + v)))


def _log_jacobian_det(alg: AlgebraDescriptor, log_det_u, log_det_sum) -> np.ndarray:
    """:func:`batch_log_jacobian_det` from log det u and log det(u+v), which a
    caller holding them passes in place of u and v."""
    return -2.0 * alg.dim_over_rank * (log_det_u + log_det_sum)


def _psi_coords(alg: AlgebraDescriptor, z: np.ndarray) -> np.ndarray:
    """Apply the map to stacked coordinates z = (u, v), shape (..., 2*dim),
    which must lie in the open cone; u's membership and inverse come from
    one factorization."""
    d = alg.dim
    u, v = z[..., :d], z[..., d:]
    inside, inv_u = _factor(alg, u, "in_cone", "inverse")
    if not (np.all(inside) and np.all(batch_in_cone(alg, v))):
        raise NotInConeError("perturbed point left the open cone; reduce the step")
    return np.concatenate(_my_map(batch_inverse(alg, u + v), inv_u), axis=-1)


def batch_jacobian_fd_matrix(alg: AlgebraDescriptor, u, v, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference matrices of the map at stacked points (u, v).

    ``u`` and ``v`` have shape (..., dim); the result has shape
    (..., 2 dim, 2 dim).  The step for coordinate k of z = (u, v) is
    step * (1 + |z_k|).  All 2 * 2 dim perturbed points of every input go
    through the map in one call, so a NotInConeError from any of them
    rejects the whole batch; callers should then retry with a smaller step.
    Raises ValueError unless ``step`` is finite and positive.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"finite-difference step must be finite and > 0, got {step}")
    z = np.concatenate([np.asarray(u, dtype=float), np.asarray(v, dtype=float)], axis=-1)
    h = step * (1.0 + np.abs(z))
    # row k of dz perturbs coordinate k only
    dz = h[..., :, None] * np.eye(z.shape[-1])
    fp = _psi_coords(alg, z[..., None, :] + dz)
    fm = _psi_coords(alg, z[..., None, :] - dz)
    # column k of the Jacobian = d(psi)/d(z_k)
    return (fp - fm).swapaxes(-1, -2) / (2.0 * h)[..., None, :]


def batch_log_jacobian_det_numeric(
    alg: AlgebraDescriptor,
    u,
    v,
    step: float = 1e-5,
    richardson: bool = False,
) -> np.ndarray:
    """log |det| of the finite-difference Jacobian matrices at stacked points (u, v).

    With ``richardson=True`` the central-difference matrices at steps h and
    h/2 are combined as (4 A_{h/2} - A_h) / 3 before taking the determinant,
    buying two extra orders of accuracy when the plain estimate is too
    coarse.
    """
    a = batch_jacobian_fd_matrix(alg, u, v, step)
    if richardson:
        a = (4.0 * batch_jacobian_fd_matrix(alg, u, v, step / 2.0) - a) / 3.0
    return np.linalg.slogdet(a)[1]


def jacobian_fd_matrix(u: Element, v: Element, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference matrix of the map at (u, v), shape (2 dim, 2 dim).

    The step for coordinate k is scaled by (1 + |z_k|).  Raises
    NotInConeError when a perturbed point exits the cone; callers should
    then retry with a smaller step.
    """
    alg = _require_same(u, v)
    return batch_jacobian_fd_matrix(alg, u.coords, v.coords, step)


def jacobian_det_numeric(
    u: Element,
    v: Element,
    step: float = 1e-5,
    richardson: bool = False,
) -> float:
    """|det| of the finite-difference Jacobian matrix of the map at (u, v), the
    exp of :func:`batch_log_jacobian_det_numeric`, with ``richardson`` as there."""
    alg = _require_same(u, v)
    log_det = batch_log_jacobian_det_numeric(alg, u.coords, v.coords, step, richardson)
    with np.errstate(over="ignore"):  # inf outside the double range, as documented
        return float(np.exp(log_det))
