"""Wishart and generalized-inverse-Gaussian distributions on the cones.

Densities, Laplace transforms and the rank-1 GIG normalizer (a Bessel K
function) are evaluated in closed form.  The density range p > dim/rank - 1
is stated once, in :func:`require_density_range`, which every operation
that needs it calls.  The unnormalized Wishart and GIG log densities are
written once, as :func:`batch_wishart_log_unnorm` and
:func:`batch_gig_log_unnorm` over stacked points; the element-level
densities add their cone checks and normalizers to them, and the
Metropolis target above rank 2 calls them.  (At rank 2 the
target keeps its own closed form, whose bits the seeded chains depend
on.)  Sampling uses the fastest exact route available for each family:

* matrix-kind Wishart: a triangular-factor (Bartlett) construction for the
  standard scale, transported to scale ``a`` through the quadratic operator
  of a^(-1/2), which the batch kernels give at every open-cone scale.  For
  real symmetric matrices this realizes the identification of the cone
  Wishart with shape p and scale a as the classical Wishart
  W_r(2p, (2a)^-1), which the unit tests pin via moments;
* rank-1 GIG: an exact rejection sampler (Devroye's two-sided exponential
  envelope on the log scale), one set of closed forms for every (p, a, b)
  whose law a double can resolve (:func:`_gig_rejection_rank1`);
* everything else (Lorentz Wishart, higher-rank GIG): multi-chain
  random-walk Metropolis on the coordinates, with scale adaptation during
  burn-in and thinning afterwards.  Each chain consumes an independent
  stream spawned from its law's seed, so batches are reproducible and
  chains can be compared.  Several laws drawn together run in one step
  loop, each in its own block of chains, with one target call per step
  for all of them; a chain's acceptance uniforms are drawn per block of
  steps.  At rank 2 the target is evaluated in closed form: the log
  density needs only tr x, det x and two inner products, and det x =
  ((tr x)^2 - <x, x>) / 2 is one quadratic form of the kernel table's
  ``trace`` and ``inner`` on every kind.  Higher ranks take cone
  membership from the L D L* pivots and the target from
  :func:`batch_wishart_log_unnorm` and :func:`batch_gig_log_unnorm` at
  every step.  The step's squared norms add the coordinate rows in turn.
  :func:`_metropolis_cone` describes the step loop.

The rank-1 GIG sampler, its quadrature CDF and every Metropolis chain work
on the law of 2^-k X, with k the exponent of a start point (for the GIG
sqrt(<b, e> / <a, e>) e), and scale back by 2^k exactly, so the samplers
hold from 1e-160 to 1e160.

Every route ends in one function, :func:`_sampled`, the only place where
a law's draws become a :class:`SampleBatch`: it scales them back by 2^k
(k = 0 for Bartlett) and raises MassPastDoublesError, naming the law, when
a draw lies past the largest double, as it can for any family at a scale
near the smallest normal double.

Each family and kind has one sampling route, chosen from the algebra in
one place, :func:`sample_laws`, which draws a list of laws on one algebra
at one n; :func:`sample_wishart` and :func:`sample_gig` are its one-law
calls, and a law's batch is the same alone or among others.  The
Metropolis settings (burn-in, thinning, chains, proposal scale, target
acceptance rate and acceptance band) are the module constants below, not
parameters: every caller uses the same values, and the batch's ``mcmc``
record states them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    Element,
    NotInConeError,
    _require_same,
    batch_det,
    batch_in_cone,
    batch_inner,
    batch_inverse,
    batch_sqrt,
    coords_to_matrices,
    det,
    identity,
    in_cone,
    inner,
    kernels,
    matrices_to_coords,
)

_LOG_2PI = math.log(2.0 * math.pi)

# Random-walk Metropolis settings, read at every call.  The proposal
# standard deviation is PROPOSAL_SCALE times the RMS coordinate of the
# current point, times a per-chain factor adapted during the BURN_IN steps
# towards TARGET_ACCEPT (BURN_IN = 0 leaves every factor at 1); every THIN-th
# later state is kept, and a batch whose acceptance rate leaves ACCEPT_BAND
# is flagged as diverged.
BURN_IN = 5000
THIN = 10
CHAINS = 50
PROPOSAL_SCALE = 0.15
TARGET_ACCEPT = 0.3
ACCEPT_BAND = (0.1, 0.7)

# Points of the log-spaced trapezoid grid behind gig_cdf_rank1.
GIG_CDF_GRID = 50001


class ShapeOutOfRangeError(ValueError):
    """Shape parameter outside the range supported by the operation."""


class MassPastDoublesError(ValueError):
    """A law with mass past the largest double, which no batch of doubles holds."""


def require_density_range(p: float, alg: AlgebraDescriptor) -> None:
    """Raise ShapeOutOfRangeError unless p > dim/rank - 1 (a NaN p is outside):
    the shapes at which the cone Wishart and GIG laws have densities and the
    forward independence property and its converse hold."""
    bound = alg.dim_over_rank - 1.0
    if not p > bound:
        raise ShapeOutOfRangeError(f"shape p must be > dim/rank - 1 = {bound:.6g}, got {p}")


def _require_finite(p: float, **elements: Element) -> None:
    # NaN passes every range guard (all comparisons are false) and an
    # infinite coordinate passes the cone test, so both are rejected first
    if not math.isfinite(p):
        raise ValueError(f"shape p must be finite, got {p}")
    for name, el in elements.items():
        if not np.all(np.isfinite(el.coords)):
            raise ValueError(f"parameter {name} must have finite coordinates")


@dataclass(frozen=True)
class WishartParams:
    """Shape p and open-cone scale a of a cone Wishart distribution."""

    p: float
    a: Element

    def __post_init__(self):
        _require_finite(self.p, a=self.a)
        if not in_cone(self.a):
            raise NotInConeError("Wishart scale must lie in the open cone")

    @property
    def algebra(self) -> AlgebraDescriptor:
        return self.a.algebra

    def record(self) -> dict:
        """The parameters as a sample batch records them."""
        return {"p": self.p, "a": self.a.coords.tolist()}


@dataclass(frozen=True)
class GigParams:
    """Shape p and open-cone parameters a, b of a cone GIG distribution."""

    p: float
    a: Element
    b: Element

    def __post_init__(self):
        _require_same(self.a, self.b)
        _require_finite(self.p, a=self.a, b=self.b)
        if not in_cone(self.a) or not in_cone(self.b):
            raise NotInConeError("GIG parameters must lie in the open cone")

    @property
    def algebra(self) -> AlgebraDescriptor:
        return self.a.algebra

    def record(self) -> dict:
        """The parameters as a sample batch records them."""
        return {"p": self.p, "a": self.a.coords.tolist(), "b": self.b.coords.tolist()}


@dataclass(eq=False)
class SampleBatch:
    """A batch of cone samples plus the metadata needed to reproduce it."""

    algebra: AlgebraDescriptor
    params: dict
    coords: np.ndarray
    seed: int
    method: str
    mcmc: dict | None = None

    def __post_init__(self):
        if not np.all(np.isfinite(self.coords)):
            raise ValueError("sample coordinates must be finite")

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @cached_property
    def elements(self) -> list[Element]:
        return [Element(self.algebra, row) for row in self.coords]

    def all_in_cone(self) -> bool:
        return bool(np.all(batch_in_cone(self.algebra, self.coords)))


# ---------------------------------------------------------------------------
# Densities and transforms
# ---------------------------------------------------------------------------

def log_gamma_cone(p: float, alg: AlgebraDescriptor) -> float:
    """log of the cone Gamma function at p; requires p > dim/rank - 1."""
    require_density_range(p, alg)
    total = 0.5 * (alg.dim - alg.rank) * _LOG_2PI
    for j in range(alg.rank):
        total += math.lgamma(p - 0.5 * j * alg.peirce)
    return total


def gamma_cone(p: float, alg: AlgebraDescriptor) -> float:
    """Gamma function of the cone: (2 pi)^((dim-r)/2) prod_j Gamma(p - j d/2)."""
    return math.exp(log_gamma_cone(p, alg))


def batch_wishart_log_unnorm(alg: AlgebraDescriptor, p: float, a, x) -> np.ndarray:
    """Unnormalized Wishart log density (p - dim/r) log det x - <a, x> at
    stacked points x of shape (..., dim), with a the scale's coordinates.

    Like the other ``batch_*`` kernels it does not check cone membership.
    """
    return _wishart_log_unnorm(alg, p, a, x, np.log(batch_det(alg, x)))


def _wishart_log_unnorm(alg: AlgebraDescriptor, p: float, a, x, log_det) -> np.ndarray:
    """:func:`batch_wishart_log_unnorm` from x and its ``log_det``, which a
    caller holding it passes in place of computing it again."""
    return (p - alg.dim_over_rank) * log_det - batch_inner(alg, a, x)


def batch_gig_log_unnorm(alg: AlgebraDescriptor, p: float, a, b, x) -> np.ndarray:
    """Unnormalized GIG log density (p - dim/r) log det x - <a, x> - <b, x^-1>
    at stacked points x, with a and b as coordinates; no cone check."""
    return _gig_log_unnorm(alg, p, a, b, x, np.log(batch_det(alg, x)), batch_inverse(alg, x))


def _gig_log_unnorm(alg: AlgebraDescriptor, p: float, a, b, x, log_det, inv) -> np.ndarray:
    """:func:`batch_gig_log_unnorm` from x, its ``log_det`` and its inverse
    ``inv``, which a caller holding them passes in place of computing them
    again."""
    return _wishart_log_unnorm(alg, p, a, x, log_det) - batch_inner(alg, b, inv)


def wishart_log_density(params: WishartParams, x: Element) -> float:
    """Log density of the Wishart at an open-cone point.

    Only defined on the absolutely continuous range p > dim/rank - 1.
    """
    alg = params.algebra
    log_norm = params.p * math.log(det(params.a)) - log_gamma_cone(params.p, alg)
    if not in_cone(x):
        raise NotInConeError("Wishart density lives on the open cone")
    return log_norm + float(batch_wishart_log_unnorm(alg, params.p, params.a.coords, x.coords))


def wishart_laplace(params: WishartParams, sigma: Element) -> float:
    """Laplace transform (det a / det(a + sigma))^p; needs a + sigma in the cone."""
    shifted = params.a + sigma
    if not in_cone(shifted):
        raise NotInConeError("Laplace transform requires a + sigma in the open cone")
    return float((det(params.a) / det(shifted)) ** params.p)


def gig_log_density_unnorm(params: GigParams, x: Element) -> float:
    """Unnormalized GIG log density (p - dim/r) log det x - <a,x> - <b,x^-1>."""
    if not in_cone(x):
        raise NotInConeError("GIG density lives on the open cone")
    return float(batch_gig_log_unnorm(
        params.algebra, params.p, params.a.coords, params.b.coords, x.coords))


def _log_bessel_k(q: float, z: float) -> float:
    """log K_q(z), for q >= 0 and 0 < z < 2^30, also where K_q(z) is past
    the largest double.

    Where scipy's exponentially scaled ``kve`` is finite this is its log
    minus z.  Where it overflows, either z^2/4 is below (q - 1)/2, or q <= 1
    and z is below 1e-308.  Then K_q(z) is Gamma(q) (2/z)^q / 2 times the
    series sum_k (z^2/4)^k / (k! (1-q)_k) over k < q, whose terms each fall
    to at most half the one before, so the sum keeps every digit; the I_q
    part that series leaves out is then below double resolution.  Otherwise
    (q above about 300 and z from about sqrt(2q) up) the ratio
    K_(m+1)/K_m = K_(m-1)/K_m + 2m/z is carried up from order q - floor(q),
    a sum of two positive terms at each of floor(q) steps.
    """
    from scipy.special import kve  # imported here: scipy dominates import time

    k = kve(q, z)
    if not math.isinf(k):
        return math.log(k) - z
    x = z * z / 4.0
    if q <= 1.0 or 2.0 * x <= q - 1.0:
        total, term, j = 1.0, 1.0, 1
        while j < q and abs(term) > 2.0**-53 * total:
            term *= x / (j * (j - q))
            total += term
            j += 1
        return math.lgamma(q) + q * (math.log(2.0) - math.log(z)) - math.log(2.0) + math.log(total)
    order = q - math.floor(q)
    log_k = math.log(kve(order, z)) - z
    ratio = kve(order, z) / kve(1.0 - order, z)  # K_order / K_(order-1), as K_-v = K_v
    for _ in range(int(math.floor(q))):
        ratio = 1.0 / ratio + 2.0 * order / z
        log_k += math.log(ratio)
        order += 1.0
    return log_k


def gig_norm_constant_rank1(params: GigParams) -> float:
    """Normalizing constant of the rank-1 GIG in closed form.

    The integral of x^(p-1) exp(-a x - b / x) over (0, inf) is
    2 (b/a)^(p/2) K_p(z) at z = 2 sqrt(a) sqrt(b), with K_p = K_|p| the
    modified Bessel function of the second kind.  The constant is one
    exponent of logs, log 2 + (p/2)(log b - log a) + log K_|p|(z) with the
    last from :func:`_log_bessel_k`, so neither a * b, b / a nor K_p itself
    overflows on the way: the result is 0.0 where the constant underflows
    and inf where it exceeds every double.  From z = 2^30 on, where scipy's
    ``kve`` is nan, the constant is 0 for every |p| below about 1e6.  Only
    rank 1 is supported.
    """
    if params.algebra.rank != 1:
        raise ValueError("normalizing constant is implemented for rank 1 only")
    p = params.p
    a = float(params.a.coords[0])
    b = float(params.b.coords[0])
    z = 2.0 * math.sqrt(a) * math.sqrt(b)
    if z >= 2.0**30:
        return 0.0
    log_scale = math.log(2.0) + 0.5 * p * (math.log(b) - math.log(a))
    with np.errstate(over="ignore"):
        return float(np.exp(log_scale + _log_bessel_k(abs(p), z)))


def gig_cdf_rank1(params: GigParams):
    """Quadrature CDF of the rank-1 GIG, returned as a vectorized callable.

    Builds the density of 2^-k X, as :func:`sample_gig` does, on a dense
    log-spaced grid spanning everything within 80 nats of the log-density
    maximum over every double, integrates it with the trapezoid rule, and
    interpolates.  The grid is bracketed twice, so a law concentrated far
    below the first grid's step gets the same number of points.  Accurate
    to far below Kolmogorov-Smirnov resolution at any feasible sample size
    for omega = 2 sqrt(ab) up to about 1e14, where log f's own rounding
    (omega times the unit roundoff) begins to show.
    """
    alg = params.algebra
    if alg.rank != 1:
        raise ValueError("quadrature CDF is implemented for rank 1 only")
    p = params.p
    k, a, b = _pow2_scales(params, _gig_start(params))
    a, b = float(a[0]), float(b[0])

    def log_f(t):
        return p * t - a * np.exp(t) - b * np.exp(-t)

    t = np.linspace(-745.0, 745.0, 5961)  # steps of 0.25 over log x for every double x
    for _ in range(2):  # bracket the mass on that grid, then on the first fine grid,
        with np.errstate(over="ignore"):  # which a peak narrower than 0.25 needs
            lt = log_f(t)
        keep = np.flatnonzero(lt >= lt.max() - 80.0)
        t = np.linspace(t[max(keep[0] - 1, 0)], t[min(keep[-1] + 1, t.size - 1)], GIG_CDF_GRID)
    lt = log_f(t)
    dens = np.exp(lt - lt.max())
    cdf_grid = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(t))])
    cdf_grid /= cdf_grid[-1]
    xs = np.ldexp(np.exp(t), k)

    def cdf(x):
        return np.interp(np.asarray(x, float), xs, cdf_grid, left=0.0, right=1.0)

    return cdf


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def _bartlett(alg: AlgebraDescriptor, p: float, a: Element, seed: int, n: int) -> np.ndarray:
    """Exact Wishart draws on the matrix kinds via triangular factors.

    The standard-scale draws are moved to scale a through P(a^(-1/2)), with
    a^(-1/2) from the batch kernels, which hold at every open-cone scale
    (the element-level ``inverse`` refuses a condition number past 1e12).
    A draw past the largest double comes back inf, or nan where an
    overflowed product meets one of the other sign, without a warning, for
    :func:`_sampled` to refuse.
    """
    rng = np.random.default_rng(seed)
    r = alg.rank
    shapes = p - 0.5 * alg.peirce * np.arange(r)
    field = kernels(alg).field
    t = np.zeros((n, r, r), dtype=field)
    for i in range(r):
        t[:, i, i] = np.sqrt(rng.gamma(shapes[i], 1.0, size=n))
    idx = np.tril_indices(r, k=-1)
    n_off = idx[0].size
    if n_off:
        off = rng.normal(0.0, math.sqrt(0.5), size=(n, n_off))
        if field is complex:
            off = off + 1j * rng.normal(0.0, math.sqrt(0.5), size=(n, n_off))
        t[:, idx[0], idx[1]] = off
    with np.errstate(over="ignore", invalid="ignore"):
        x = t @ t.conj().swapaxes(-1, -2)
        if not np.array_equal(a.coords, identity(alg).coords):
            # transport standard-scale draws to scale a through P(a^(-1/2))
            root = coords_to_matrices(alg, batch_sqrt(alg, batch_inverse(alg, a.coords)))
            x = root @ x @ root
        return matrices_to_coords(alg, x)


def _gig_rejection_rank1(p: float, a: float, b: float, seed: int, n: int) -> np.ndarray:
    """Exact rank-1 GIG draws, density proportional to x^(p-1) e^(-a x - b/x),
    by Devroye's (2014) exponential envelope on the log scale.

    With lam = |p| and omega = 2 sqrt(a) sqrt(b), the log u of a draw over
    sqrt(b/a) (negated for p < 0) has log-density lam u - omega cosh u, whose
    mode is asinh(lam / omega).  About it, x = u - asinh(lam / omega) has
    log-density psi(x) = -alpha (cosh x - 1) - lam (e^x - 1 - x), with
    alpha = hypot(omega, lam) - lam.  One set of closed forms holds at
    every scale:

    * alpha = c^2 with c = omega / sqrt(hypot(omega, lam) + lam): the
      difference cancels where omega is far below lam, and c neither
      cancels nor underflows, so the s rule takes log alpha as 2 log c;
    * alpha (cosh x - 1) is 2 (c sinh(x/2))^2 and alpha sinh x is
      2 (c sinh(x/2)) (c cosh(x/2)): cosh x - 1 loses every digit at the
      law's width 1/sqrt(omega) once omega nears 1e15, and c sinh(x/2)
      stays finite where alpha underflows and sinh x overflows;
    * lam (e^x - 1 - x) is exp(x + log lam) - lam (1 + x) past x = 709.78,
      where expm1 overflows: at a subnormal lam the law keeps its weight
      there instead of reading -inf;
    * the mode is added to the log-draws, before the one exp, so no
      factor of it under- or overflows.

    The draws follow the law for a and b normal doubles up to the omega at
    which its relative spread 1/sqrt(omega) falls below double resolution,
    about 1e24 to 1e28; beyond it they gather on the doubles next to the
    mode.  A draw past the largest double is returned as inf, without a
    warning, for the caller to reject: a law with a and b near the smallest
    normal double has mass there, at a subnormal |p| too.
    """
    rng = np.random.default_rng(seed)
    lam = abs(float(p))
    omega = 2.0 * math.sqrt(a) * math.sqrt(b)
    c = omega / math.sqrt(math.hypot(omega, lam) + lam)
    alpha = c * c  # hypot(omega, lam) - lam, without its cancellation
    log_lam = math.log(lam) if lam else -math.inf

    def psi(x):
        # past x = 709.78 expm1 overflows, and lam (e^x - 1 - x) is taken as
        # exp(x + log lam) - lam (1 + x): finite where lam e^x is, as at a
        # subnormal lam, and 0 at lam = 0, where lam * inf would be NaN
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.expm1(x)
            tilt = np.where(np.isinf(e), np.exp(x + log_lam) - lam * (1.0 + x), lam * (e - x))
        return -2.0 * (c * np.sinh(x / 2.0)) ** 2 - tilt

    def dpsi(x):
        return -2.0 * (c * np.sinh(x / 2.0)) * (c * np.cosh(x / 2.0)) - lam * np.expm1(x)

    v = -psi(1.0)
    if 0.5 <= v <= 2.0:
        t = 1.0
    elif v > 2.0:
        t = math.sqrt(2.0 / (alpha + lam))
    else:
        t = math.log(4.0 / (alpha + 2.0 * lam))
    v = -psi(-1.0)
    if 0.5 <= v <= 2.0:
        s = 1.0
    elif v > 2.0:
        s = math.sqrt(4.0 / (alpha * math.cosh(1.0) + lam))
    else:
        s_cap = 1.0 / lam if lam > 0 else np.inf
        s = min(s_cap, math.log(1.0 + alpha + math.sqrt(1.0 + 2.0 * alpha)) - 2.0 * math.log(c))

    eta, zeta = -psi(t), -dpsi(t)
    theta, xi = -psi(-s), dpsi(-s)
    p_w = 1.0 / xi
    r_w = 1.0 / zeta
    t_d = t - r_w * eta
    s_d = s - p_w * theta
    q_w = t_d + s_d

    out = np.empty(n)
    filled = 0
    total = p_w + q_w + r_w
    while filled < n:
        k = n - filled
        u = rng.uniform(size=k)
        v1 = rng.uniform(size=k)
        w = rng.uniform(size=k)
        cand = np.where(
            u < q_w / total,
            -s_d + q_w * v1,
            np.where(u < (q_w + r_w) / total, t_d - r_w * np.log(v1), -s_d + p_w * np.log(v1)),
        )
        # 1 on [-s_d, t_d] and the tangents of psi at t and -s outside it:
        # their exponents cross 0 at t_d and -s_d, so it is the least of the three
        tangents = np.minimum(-eta - zeta * (cand - t), -theta + xi * (cand + s))
        envelope = np.exp(np.minimum(tangents, 0.0))
        # past x = 1420 sinh overflows, and psi is -inf: such a candidate is
        # rejected
        with np.errstate(over="ignore", invalid="ignore"):
            accepted = cand[w * envelope <= np.exp(psi(cand))]
        m = accepted.size
        out[filled : filled + m] = accepted
        filled += m
    out += math.asinh(lam / omega)
    if p < 0:
        np.negative(out, out=out)
    with np.errstate(over="ignore"):  # the caller rejects a draw past the largest double
        return np.exp(out, out=out) * math.sqrt(b / a)


def _metropolis_cone(alg, laws, n):
    """Vectorized multi-chain random-walk Metropolis on cone coordinates,
    for several laws in one step loop.

    ``laws`` lists each law as (p, a, b, seed, init) at the scale its chains
    run at, with b None for a Wishart; every law gets n draws, and its
    (coords, meta) come back in list order.  Each law runs its own chains
    (the same number for every law, as it depends on n alone), which sit in
    one block of rows, in law order, and the target of
    :func:`_log_pdf_batch` evaluates every law in one call per step.  Every
    step operation is row-wise, so a law's draws, ``mcmc`` record and
    divergence warning are those it gives alone.

    The proposal standard deviation tracks the RMS coordinate of the current
    point, which keeps mixing uniform across the cone but makes the proposal
    state-dependent, so the acceptance ratio carries the corresponding
    Hastings correction.  Each chain draws its proposal noise and then its
    acceptance uniforms from its own stream spawned off its law's seed, so
    the merged batch (chain-major order) is reproducible and independent of
    how chains would be scheduled.  The noise is drawn up front; the
    uniforms, which come after it in the stream, and half the squared norm
    of each noise row are formed per block of steps, so the loop holds one
    noise array and no per-step table of the whole run.

    A step is 30 to 40 numpy calls on arrays of one row per chain, so their
    dispatch is its cost, and the loop is laid out for few calls:

    * every array is coordinate-major, one chain per column.  The state is
      one (dim + 2, chains) buffer, the coordinates followed by the log
      target and the RMS coordinate, and the proposal a second one; the
      noise is (steps, dim, chains).  A row is then a contiguous slice, and
      an elementwise operation on a coordinate costs one call for every
      chain;
    * every view of the two buffers is bound before the loop, and every step
      operation but the pick of the burn-in factors writes into a
      preallocated buffer with ``out=``;
    * the target marks the proposals off the open cone in a mask, which is
      and-ed into the accept mask, so no -inf is written; an off-cone
      proposal is never accepted, whatever its target and Hastings term;
    * accepted chains take their proposal's coordinates, log target and RMS
      in one ``np.copyto(state, proposal, where=acc)``.

    The squared norms of the proposal (for its RMS) and of the noise rows
    are ``np.add.reduce`` over the coordinate axis, which adds the
    coordinate rows in turn: x0^2 + x1^2, then + x2^2, and so on.  numpy
    does so on rows of two or more columns; a single column it sums as one
    contiguous row, in another order from dim 8 on.  So each array summed
    this way has at least two columns, a zero one beside a lone chain (a
    law alone at n = 1 or ``CHAINS = 1``), which then keeps the bits it has
    among other laws' chains.  The whole loop runs under one
    ``np.errstate``, so the target sets none of its own.
    The burn-in update factors exp(gain (0 - target)) and exp(gain (1 -
    target)) are tabulated with ``np.exp`` (``math.exp`` rounds
    differently), so a burn-in step picks one per chain, with the accept
    mask as the index; the adapted factor times the proposal scale is formed
    once per burn-in step and once for all later steps.

    A target of +inf is accepted; the rank-2 target gives one only where
    det x overflows (coordinates beyond about 1e154, at p > dim/rank), and
    the caller runs every chain near scale 1 (:func:`_metropolis_batches`).

    The settings are the module constants, read here at every call.
    """
    chains = max(1, min(CHAINS, n))
    per_chain = -(-n // chains)
    burn_in, thin, scale, target = BURN_IN, THIN, PROPOSAL_SCALE, TARGET_ACCEPT
    steps = burn_in + per_chain * thin
    p, a, b, seeds, inits = zip(*laws)
    # a Wishart's b is 0 where a GIG shares the loop, so its target subtracts 0
    b = None if all(x is None for x in b) else np.stack(
        [np.zeros(alg.dim) if x is None else x for x in b])
    gens = [np.random.default_rng(ss)
            for seed in seeds for ss in np.random.SeedSequence(seed).spawn(chains)]
    # Python's float power: numpy's vectorized one can differ in the last bit,
    # and the gains set the proposal scale
    gains = np.fromiter((0.5 / (1.0 + step) ** 0.6 for step in range(burn_in)), float, burn_in)
    # a chain's factor after burn-in step s is multiplied by updates[s, acc];
    # tabulated before the noise exists, so its temporaries never sit beside it
    updates = np.exp(np.stack([gains * (0 - target), gains * (1 - target)], axis=1))
    rows, dim = len(gens), alg.dim
    noise = np.empty((steps, dim, rows))
    for c, gen in enumerate(gens):
        noise[:, :, c] = gen.standard_normal((steps, dim))

    state, prop = np.empty((dim + 2, rows)), np.empty((dim + 2, rows))
    x, lp, rms = state[:dim], state[dim], state[dim + 1]
    x_prop, lp_prop, rms_prop = prop[:dim], prop[dim], prop[dim + 1]
    # the proposal's squares and their sums, two columns or more (see above)
    width = max(rows, 2)
    sq, sum_sq = np.zeros((dim, width)), np.empty(width)
    sq_chains, sum_sq_chains = sq[:, :rows], sum_sq[:rows]
    ok, acc = np.empty(rows, bool), np.empty(rows, bool)
    std, ratio_sq, hastings, log_alpha = (np.empty(rows) for _ in range(4))
    # the loop's scalars as 0-d arrays, which a ufunc takes faster than floats
    sqrt_dim, half_dim, one, scale_0d = map(np.array, (math.sqrt(dim), dim * 0.5, 1.0, scale))
    acc_index = acc.view(np.uint8)
    log_pdf = _log_pdf_batch(alg, p, np.stack(a), b, x_prop, lp_prop, ok)

    def evaluate():
        # the RMS coordinate, log target and cone mask of the proposal
        np.multiply(x_prop, x_prop, out=sq_chains)
        np.add.reduce(sq, axis=0, out=sum_sq)
        np.sqrt(sum_sq_chains, out=rms_prop)
        np.divide(rms_prop, sqrt_dim, out=rms_prop)
        log_pdf()

    factors = np.ones(rows)
    scaled = factors * scale
    accepted_post = np.zeros(rows)
    kept = np.empty((per_chain, dim, rows))
    block_steps = 256  # the steps whose uniforms are drawn at a time
    with np.errstate(divide="ignore", invalid="ignore"):
        x_prop[...] = np.repeat(np.stack(inits), chains, axis=0).T  # the starts, in the cone
        evaluate()
        np.copyto(state, prop)
        for start in range(0, steps, block_steps):
            block = noise[start : start + block_steps]
            z_sq = np.zeros((len(block), dim, width))
            np.square(block, out=z_sq[..., :rows])
            half_z_sq = np.add.reduce(z_sq, axis=1)[:, :rows] * 0.5
            log_u = np.log(np.stack([gen.uniform(size=len(block)) for gen in gens], axis=1))
            for step, z, half_z_sq_row, log_u_row in zip(
                    range(start, steps), block, half_z_sq, log_u):
                np.multiply(scaled, rms, out=std)
                np.multiply(z, std, out=x_prop)
                np.add(x_prop, x, out=x_prop)
                evaluate()
                np.divide(rms, rms_prop, out=ratio_sq)
                np.multiply(ratio_sq, ratio_sq, out=ratio_sq)
                np.log(ratio_sq, out=hastings)
                np.multiply(hastings, half_dim, out=hastings)
                np.subtract(one, ratio_sq, out=ratio_sq)
                np.multiply(ratio_sq, half_z_sq_row, out=ratio_sq)
                np.add(hastings, ratio_sq, out=hastings)
                np.subtract(lp_prop, lp, out=log_alpha)
                np.add(log_alpha, hastings, out=log_alpha)
                np.less(log_u_row, log_alpha, out=acc)
                np.logical_and(acc, ok, out=acc)
                np.copyto(state, prop, where=acc)
                if step < burn_in:
                    np.multiply(factors, updates[step].take(acc_index), out=factors)
                    np.multiply(factors, scale_0d, out=scaled)
                else:
                    np.add(accepted_post, acc, out=accepted_post)
                    if (step - burn_in) % thin == thin - 1:
                        np.copyto(kept[(step - burn_in) // thin], x)
    rate_per_chain = accepted_post / (steps - burn_in)
    lo, hi = ACCEPT_BAND
    out = []
    for first in range(0, rows, chains):
        own = slice(first, first + chains)
        rate = float(rate_per_chain[own].mean())
        diverged = not (lo <= rate <= hi)
        if diverged:
            warnings.warn(
                f"MCMC acceptance rate {rate:.3f} outside [{lo}, {hi}] after adaptation",
                RuntimeWarning,
            )
        coords = kept[:, :, own].transpose(2, 0, 1).reshape(chains * per_chain, dim)[:n]
        meta = {
            "burn_in": burn_in,
            "thin": thin,
            "chains": chains,
            "per_chain": per_chain,
            "acceptance_rate": rate,
            "acceptance_per_chain": [float(x) for x in rate_per_chain[own]],
            "proposal_scale": scale,
            "adapted_factors": [float(x) for x in factors[own]],
            "diverged": diverged,
        }
        out.append((coords, meta))
    return out


def _log_pdf_batch(alg: AlgebraDescriptor, p, a_coords, b_coords, x, lp, ok):
    """The Metropolis target (p - dim/r) log det x - <a, x> - <b, x^-1> of
    several laws, as a function of no arguments bound to its buffers.

    ``p`` holds one shape per law, ``a_coords`` and ``b_coords`` one row per
    law, and the points x hold an equal block of chains of each law in turn:
    every chain takes its law's exponent, ``a`` and ``b``.  Without ``b``
    (None) every law is a Wishart, whose log density this is up to its
    constant; with ``b`` the GIG one, and a Wishart among GIG laws has the
    row b = 0.

    x is a C-contiguous coordinate-major (dim, chains) buffer, as
    :func:`_metropolis_cone` keeps its points.  The function writes the
    target of every chain to ``lp`` and whether it lies in the open cone to
    ``ok``.  The target of a chain off the cone is left unspecified, as the
    caller masks it with ``ok``; the log and division warnings it raises are
    left to the caller's ``np.errstate`` (:func:`_metropolis_cone` runs
    every call under one).

    Rank 2 is evaluated in closed form.  In every rank-2 algebra det x =
    ((tr x)^2 - <x, x>) / 2, the quadratic form <x, Q x> with Q = (t t^T -
    G) / 2, where t is the kernel table's ``trace`` and G the Gram matrix
    of its ``inner`` on the coordinate basis; the cone is tr x > 0, det x
    > 0; and by Cayley-Hamilton (x^2 - tr(x) x + det(x) e = 0) <b, x^-1>
    is (tr x tr b - <b, x>) / det x, whose numerator is linear in x.  A
    law's weights ``w``, built once, are t, a applied through ``inner``,
    that numerator and the dim rows of Q, so one stacked ``@`` forms tr x,
    <a, x>, the numerator and Q x of every law's chains; det x is then the
    sum of x * Q x over the coordinate axis, which ``np.add.reduce`` adds
    row by row in turn, on a buffer of two columns or more as
    :func:`_metropolis_cone` describes.  Each row of Q has one nonzero
    entry, 1/2 or 1 in magnitude, so Q x is exact on finite normal points,
    and det x has the accuracy of ``rank2_det``: its bits on sym-real rank
    2, its terms subtracted in another order on the other kinds.  On
    finite points tr x keeps its bits too (its row holds ones or a two, and
    zeros).  The cone mask is tr x > 0 and det x > 0 by these closed forms.
    :func:`batch_in_cone` decides by another rule, the L D L* pivots on the
    matrix kinds and x0 - |xbar| > 0 on the spin factor; the two agree
    except within rounding of the boundary, where det x is a difference of
    nearly equal terms.  The inner products may round differently from the
    kernels' sums, which moves only the target's last bits, and those
    decide an accept only through a comparison with a uniform.  A law's
    product is the one it would form alone, so its target keeps its bits
    whichever laws share the call.

    Higher ranks take cone membership from :func:`batch_in_cone`, on a
    (chains, dim) copy of x, and the target from the library's densities
    :func:`batch_wishart_log_unnorm` and :func:`batch_gig_log_unnorm` on
    the cone rows alone, with each chain's p, a and b.
    """
    laws, dim = len(p), alg.dim
    rows = x.shape[1] // laws
    law = np.repeat(np.arange(laws), rows)  # the law of each chain
    p_chain = np.asarray(p, float)[law]

    if alg.rank == 2:
        exponent = p_chain - alg.dim_over_rank
        k = kernels(alg)  # looked up once, not at every step
        basis = np.eye(dim)
        trace = k.trace(alg, basis)
        w = [np.broadcast_to(trace, (laws, dim)), k.inner(alg, a_coords[:, None, :], basis)]
        if b_coords is not None:
            w.append(k.trace(alg, b_coords)[:, None] * trace
                     - k.inner(alg, b_coords[:, None, :], basis))
        quad = 0.5 * (np.outer(trace, trace) - k.inner(alg, basis[:, None, :], basis))  # Q
        w = np.concatenate([np.stack(w, axis=1), np.broadcast_to(quad, (laws, dim, dim))],
                           axis=1)  # (laws, terms + dim, dim)
        # two columns or more, for the sum of x * Q x (see _metropolis_cone)
        width = max(laws * rows, 2)
        lin, det = np.zeros((w.shape[1], width)), np.empty(width)
        chains = lin[:, : laws * rows]
        lin_by_law = chains.reshape(-1, laws, rows).transpose(1, 0, 2)
        tr, a_x, qx, x_qx, dt = chains[0], chains[1], chains[-dim:], lin[-dim:], det[: laws * rows]
        b_num = None if b_coords is None else chains[2]
        x_by_law = x.reshape(dim, laws, rows).transpose(1, 0, 2)  # a view, as x is contiguous
        low, zero = np.empty(laws * rows), np.array(0.0)

        def log_pdf():
            np.matmul(w, x_by_law, out=lin_by_law)
            np.multiply(x, qx, out=qx)
            np.add.reduce(x_qx, axis=0, out=det)
            np.greater(np.minimum(tr, dt, out=low), zero, out=ok)
            np.multiply(np.log(dt, out=lp), exponent, out=lp)
            np.subtract(lp, a_x, out=lp)
            if b_num is not None:
                np.subtract(lp, np.divide(b_num, dt, out=b_num), out=lp)

        return log_pdf

    def log_pdf():
        rows_major = np.ascontiguousarray(x.T)
        ok[...] = batch_in_cone(alg, rows_major)
        if np.any(ok):
            xo, own = rows_major[ok], law[ok]
            if b_coords is None:
                lp[ok] = batch_wishart_log_unnorm(alg, p_chain[ok], a_coords[own], xo)
            else:
                lp[ok] = batch_gig_log_unnorm(alg, p_chain[ok], a_coords[own], b_coords[own], xo)

    return log_pdf


def _sqrt_ratio(num: float, den: float) -> float:
    """sqrt(num / den) for positive floats, from their mantissas and exponents.

    It is finite wherever the root is, also where the ratio itself overflows
    or underflows, and it has the bits of ``math.sqrt(num / den)`` wherever
    that ratio is a normal float: both round the same mantissa quotient, and
    the powers of two (an even one under the root) are exact.
    """
    m_num, e_num = math.frexp(num)
    m_den, e_den = math.frexp(den)
    shift = e_num - e_den
    return math.ldexp(math.sqrt(m_num / m_den * (2.0 if shift % 2 else 1.0)), shift // 2)


def _gig_start(params: GigParams) -> np.ndarray:
    """sqrt(<b, e> / <a, e>) e, about where the GIG's mass lies."""
    e = identity(params.algebra)
    return e.coords * _sqrt_ratio(inner(params.b, e), inner(params.a, e))


def _pow2_scales(params, init: np.ndarray) -> tuple:
    """k, which brings the largest coordinate of ``init`` into [1, 2) at 2^-k,
    and the scales a 2^k and b 2^-k (b None for a Wishart) that the law of
    2^-k X has when X has a and b.  Every scaling by 2^k is exact."""
    k = math.frexp(float(np.max(np.abs(init))))[1] - 1
    b = None if isinstance(params, WishartParams) else np.ldexp(params.b.coords, -k)
    return k, np.ldexp(params.a.coords, k), b


def _wishart_start(params: WishartParams) -> np.ndarray:
    """A multiple of the identity near the Wishart mean."""
    alg = params.algebra
    e = identity(alg)
    return e.coords * (alg.rank * max(params.p - alg.dim_over_rank, 0.5) / inner(params.a, e))


def _metropolis_batches(laws, n: int) -> list[SampleBatch]:
    """Metropolis draws of each (params, seed) law in ``laws``, in one
    :func:`_metropolis_cone` loop.

    A Wishart's chains start at :func:`_wishart_start`, a GIG's at
    :func:`_gig_start`.  Each law's chains run on 2^-k X
    (:func:`_pow2_scales`), and :func:`_sampled` multiplies its draws back
    by 2^k.  The proposal rule is scale-free, so a chain at scale 2^-k
    takes the same steps wherever its target rounds alike.  What changes is that det x,
    whose closed form overflows for coordinates beyond about 1e154, is
    evaluated near 1.
    """
    chained, powers = [], []
    for params, seed in laws:
        init = _gig_start(params) if isinstance(params, GigParams) else _wishart_start(params)
        k, a, b = _pow2_scales(params, init)
        chained.append((params.p, a, b, seed, np.ldexp(init, -k)))
        powers.append(k)
    drawn = _metropolis_cone(laws[0][0].algebra, chained, n)
    return [_sampled(params, seed, "mcmc", coords, k, meta)
            for (params, seed), k, (coords, meta) in zip(laws, powers, drawn)]


def _sampled(params, seed: int, method: str, draws: np.ndarray, k: int = 0,
             mcmc: dict | None = None) -> SampleBatch:
    """The one place where a law's draws become a :class:`SampleBatch`.

    ``draws`` are those of 2^-k X (k = 0 for Bartlett), as rows of
    coordinates; they are multiplied back by 2^k in place, exactly.  A
    draw that is then not finite lies past the largest double, where no
    batch of doubles holds the law's mass, and MassPastDoublesError names
    the law: GIG(p=0.0, a=2.3e-308, b=2.3e-308) at dim 1, and with
    coordinate lists above it, as in Wishart(p=3.0, a=[1e-307, 1e-307, 0.0]).
    """
    record = params.record()
    with np.errstate(over="ignore"):
        np.ldexp(draws, k, out=draws)
    if not np.all(np.isfinite(draws)):
        family = "GIG" if isinstance(params, GigParams) else "Wishart"
        scales = ", ".join(f"{name}={c[0] if len(c) == 1 else c}"
                           for name, c in record.items() if name != "p")
        raise MassPastDoublesError(f"{family}(p={params.p}, {scales}) has mass above the "
                                   f"largest double, and a draw fell there")
    return SampleBatch(params.algebra, record, draws, seed, method, mcmc)


def sample_laws(laws, n: int) -> list[SampleBatch]:
    """Draw n samples of each (params, seed) law in ``laws``, all on one
    algebra; a law's params are :class:`WishartParams` or
    :class:`GigParams`, and its batch is the one it gives alone.

    This is the one place a sampling route is chosen.  A Wishart on a matrix
    kind takes the exact Bartlett construction and a rank-1 GIG exact
    rejection; every other law (the Lorentz Wishart, which has no triangular
    factorization, and the GIG at rank 2 and above) is Metropolis, and all
    of them run in one :func:`_metropolis_cone` loop, whose batches record
    burn-in, thinning and the realized acceptance rate.  An acceptance rate
    outside ``ACCEPT_BAND`` is flagged in the batch's ``mcmc`` record (and
    warned about), never hidden.

    A Wishart shape outside the density range p > dim/rank - 1 raises
    ShapeOutOfRangeError before anything is drawn (the discrete shapes below
    it have no density and are not sampled).  Every route ends in
    :func:`_sampled`, so a draw of any law beyond the largest double raises
    MassPastDoublesError naming the law.
    """
    laws = list(laws)
    for params, _ in laws:
        _require_same(laws[0][0].a, params.a)
        if isinstance(params, WishartParams):
            require_density_range(params.p, params.algebra)
    batches, chained = {}, []
    for i, (params, seed) in enumerate(laws):
        alg = params.algebra
        if isinstance(params, WishartParams) and kernels(alg).field is not None:
            batches[i] = _sampled(params, seed, "bartlett",
                                  _bartlett(alg, params.p, params.a, seed, n))
        elif isinstance(params, GigParams) and alg.rank == 1:
            k, a, b = _pow2_scales(params, _gig_start(params))
            draws = _gig_rejection_rank1(params.p, float(a[0]), float(b[0]), seed, n)
            batches[i] = _sampled(params, seed, "rejection", draws[:, None], k)
        else:
            chained.append(i)
    if chained:
        batches.update(zip(chained, _metropolis_batches([laws[i] for i in chained], n)))
    return [batches[i] for i in range(len(laws))]


def sample_wishart(params: WishartParams, seed: int, n: int) -> SampleBatch:
    """Draw n Wishart samples: :func:`sample_laws` of the one law."""
    return sample_laws([(params, seed)], n)[0]


def sample_gig(params: GigParams, seed: int, n: int) -> SampleBatch:
    """Draw n GIG samples: :func:`sample_laws` of the one law."""
    return sample_laws([(params, seed)], n)[0]
