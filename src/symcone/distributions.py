"""Wishart and generalized-inverse-Gaussian distributions on the cones.

Densities, Laplace transforms and the rank-1 GIG normalizer (a Bessel K
function) are evaluated in closed form.  The density range p > dim/rank - 1
is stated once, in :func:`require_density_range`, which every operation
that needs it calls.  The unnormalized Wishart and GIG log densities are
written once, as :func:`batch_wishart_log_unnorm` and
:func:`batch_gig_log_unnorm` over stacked points; the element-level
densities add their cone checks and normalizers to them.  (The Metropolis target keeps its own closed form,
whose bits the seeded chains depend on.)  Sampling uses the fastest exact
route available for each family:

* matrix-kind Wishart: a triangular-factor (Bartlett) construction for the
  standard scale, transported to scale ``a`` through the quadratic operator
  of a^(-1/2).  For real symmetric matrices this realizes the
  identification of the cone Wishart with shape p and scale a as the
  classical Wishart W_r(2p, (2a)^-1), which the unit tests pin via moments;
* rank-1 GIG: an exact rejection sampler (Devroye's two-sided exponential
  envelope on the log scale);
* everything else (Lorentz Wishart, higher-rank GIG): multi-chain
  random-walk Metropolis on the coordinates, with scale adaptation during
  burn-in and thinning afterwards.  Each chain consumes an independent
  stream spawned from the master seed, so batches are reproducible and
  chains can be compared.  At rank 2 the target is evaluated in closed
  form (every rank-2 algebra is a spin factor, so the log density needs
  only tr x, det x and two inner products); higher ranks take eigenvalues
  and inverses from LAPACK at every step.  :func:`_metropolis_cone`
  describes the step loop.

The rank-1 GIG sampler, its quadrature CDF and every Metropolis chain work
on the law of 2^-k X, with k the exponent of a start point (for the GIG
sqrt(<b, e> / <a, e>) e), and scale back by 2^k exactly, so the samplers
hold from 1e-160 to 1e160.

Each family and kind has one sampling route, chosen from the algebra.  The
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
    batch_eigenvalues,
    batch_in_cone,
    batch_inner,
    batch_inverse,
    batch_trace,
    coords_to_matrices,
    det,
    identity,
    in_cone,
    inner,
    inverse,
    kernels,
    matrices_to_coords,
    sqrt as cone_sqrt,
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
    return (p - alg.dim_over_rank) * np.log(batch_det(alg, x)) - batch_inner(alg, a, x)


def batch_gig_log_unnorm(alg: AlgebraDescriptor, p: float, a, b, x) -> np.ndarray:
    """Unnormalized GIG log density (p - dim/r) log det x - <a, x> - <b, x^-1>
    at stacked points x, with a and b as coordinates; no cone check."""
    return batch_wishart_log_unnorm(alg, p, a, x) - batch_inner(alg, b, batch_inverse(alg, x))


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


def gig_norm_constant_rank1(params: GigParams) -> float:
    """Normalizing constant of the rank-1 GIG in closed form.

    The integral of x^(p-1) exp(-a x - b / x) over (0, inf) is
    2 (b/a)^(p/2) K_p(z) at z = 2 sqrt(ab), with K_p the modified Bessel
    function of the second kind, taken as the exponentially scaled ``kve``
    times e^(-z).  Only rank 1 is supported.
    """
    from scipy.special import kve  # imported here: scipy dominates import time

    if params.algebra.rank != 1:
        raise ValueError("normalizing constant is implemented for rank 1 only")
    p = params.p
    a = float(params.a.coords[0])
    b = float(params.b.coords[0])
    z = 2.0 * math.sqrt(a * b)
    return float(2.0 * (b / a) ** (0.5 * p) * kve(p, z) * math.exp(-z))


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
    """Exact Wishart draws on the matrix kinds via triangular factors."""
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
    x = t @ t.conj().swapaxes(-1, -2)
    if not np.array_equal(a.coords, identity(alg).coords):
        # transport standard-scale draws to scale a through P(a^(-1/2))
        root = coords_to_matrices(alg, cone_sqrt(inverse(a)).coords)
        x = root @ x @ root
    return matrices_to_coords(alg, x)


def _gig_rejection_rank1(p: float, a: float, b: float, seed: int, n: int) -> np.ndarray:
    """Exact rank-1 GIG draws, density proportional to x^(p-1) e^(-a x - b/x),
    by Devroye's (2014) exponential envelope on the log scale."""
    rng = np.random.default_rng(seed)
    lam = float(p)
    ab = a * b  # below the normal range (2^-1022) it loses bits, above it overflows
    omega = 2.0 * (math.sqrt(ab) if 2.0**-1022 <= ab < math.inf else math.sqrt(a) * math.sqrt(b))
    swap = lam < 0
    lam = abs(lam)
    alpha = math.hypot(omega, lam) - lam

    def psi(x):
        return -alpha * (np.cosh(x) - 1.0) - lam * (np.expm1(x) - x)

    def dpsi(x):
        return -alpha * np.sinh(x) - lam * np.expm1(x)

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
    elif alpha == 0:
        # omega below about 1e-8 lam rounds alpha to 0 (so lam > 0); at this
        # small lam psi needs it, and the s rule's log(2 / alpha) comes from omega
        alpha = omega * (omega / (2.0 * lam))
        s = min(1.0 / lam, math.log(4.0 * lam) - 2.0 * math.log(omega))
    else:
        s_cap = 1.0 / lam if lam > 0 else np.inf
        s = min(s_cap, math.log(1.0 + 1.0 / alpha + math.sqrt(1.0 / alpha**2 + 2.0 / alpha)))

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
        f1 = np.exp(-eta - zeta * (cand - t))
        f2 = np.exp(-theta + xi * (cand + s))
        envelope = np.where((cand >= -s_d) & (cand <= t_d), 1.0, np.where(cand > t_d, f1, f2))
        accepted = cand[w * envelope <= np.exp(psi(cand))]
        m = accepted.size
        out[filled : filled + m] = accepted
        filled += m
    r = lam / omega  # r^2 overflows past 1.3e154; from 1e150 on the factor is 2r
    z = np.exp(out) * (r + math.sqrt(1.0 + r**2) if r < 1e150 else 2.0 * r)
    if swap:
        z = 1.0 / z
    return z * math.sqrt(b / a)


def _row_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, as ``np.linalg.norm(x, axis=1)`` computes it."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


def _metropolis_cone(alg, log_pdf, seed, n, init: np.ndarray):
    """Vectorized multi-chain random-walk Metropolis on cone coordinates.

    ``log_pdf`` maps a coordinate array (m, dim) to log densities (m,), with
    -inf outside the cone.  The proposal standard deviation tracks the RMS
    coordinate of the current point, which keeps mixing uniform across the
    cone but makes the proposal state-dependent, so the acceptance ratio
    carries the corresponding Hastings correction.  Each chain pre-draws its
    proposal noise and acceptance uniforms from its own stream spawned off
    the master seed, so the merged batch (chain-major order) is reproducible
    and independent of how chains would be scheduled.

    A step costs a handful of small array operations.  The whole loop, and
    the first ``log_pdf`` call before it, run under one ``np.errstate``, so
    the target sets none of its own; each chain's RMS is carried from step
    to step (an accepted chain takes its proposal's) instead of being
    recomputed, with the row norm summed as ``np.linalg.norm`` sums it,
    because its bits set the proposal scale; half the squared norm of each
    noise row is tabulated when the chain's noise is drawn; the proposal is
    built in one buffer; and accepted chains are updated in place with
    ``np.copyto(..., where=acc)``.  The burn-in update factors
    exp(gain (1 - target)) and exp(gain (0 - target)) are tabulated with
    ``np.exp`` (``math.exp`` rounds differently), so a burn-in step picks
    one per chain with ``np.where``; the adapted factor times the proposal
    scale is formed once per burn-in step and once for all later steps.

    A proposal off the cone needs no guard of its own: its target is -inf,
    so the log acceptance ratio is -inf, or NaN where the Hastings term is
    +inf or NaN, and a log uniform is below it in neither case.  A target
    of +inf is accepted; the rank-2 target gives one only where det x
    overflows (coordinates beyond about 1e154, at p > dim/rank), and the
    callers run every chain near scale 1 (:func:`_scaled_metropolis`).

    The settings are the module constants, read here at every call.
    """
    chains = max(1, min(CHAINS, n))
    per_chain = -(-n // chains)
    burn_in, thin, scale, target = BURN_IN, THIN, PROPOSAL_SCALE, TARGET_ACCEPT
    steps = burn_in + per_chain * thin
    streams = np.random.SeedSequence(seed).spawn(chains)
    noise = np.empty((steps, chains, alg.dim))
    half_z_sq = np.empty((steps, chains))
    log_u = np.empty((steps, chains))
    for c, ss in enumerate(streams):
        gen = np.random.default_rng(ss)
        z = gen.standard_normal((steps, alg.dim))
        noise[:, c, :] = z
        half_z_sq[:, c] = 0.5 * np.add.reduce(z * z, axis=1)
        log_u[:, c] = np.log(gen.uniform(size=steps))
    # Python's float power: numpy's vectorized one can differ in the last bit,
    # and the gains set the proposal scale
    gains = np.fromiter((0.5 / (1.0 + step) ** 0.6 for step in range(burn_in)), float, burn_in)
    grow = np.exp(gains * (1 - target))
    shrink = np.exp(gains * (0 - target))

    sqrt_dim = math.sqrt(alg.dim)
    half_dim = alg.dim * 0.5
    cur = np.tile(init, (chains, 1))
    prop = np.empty_like(cur)
    rms = _row_norm(cur) / sqrt_dim
    factors = np.ones(chains)
    scaled = factors * scale
    accepted_post = np.zeros(chains)
    kept = np.empty((per_chain, chains, alg.dim))
    with np.errstate(divide="ignore", invalid="ignore"):
        lp_cur = log_pdf(cur)
        for step in range(steps):
            np.multiply((scaled * rms)[:, None], noise[step], out=prop)
            prop += cur
            lp_prop = log_pdf(prop)
            rms_prop = _row_norm(prop) / sqrt_dim
            ratio_sq = (rms / rms_prop) ** 2
            hastings = half_dim * np.log(ratio_sq) + half_z_sq[step] * (1.0 - ratio_sq)
            acc = log_u[step] < lp_prop - lp_cur + hastings
            np.copyto(cur, prop, where=acc[:, None])
            np.copyto(lp_cur, lp_prop, where=acc)
            np.copyto(rms, rms_prop, where=acc)
            if step < burn_in:
                factors *= np.where(acc, grow[step], shrink[step])
                scaled = factors * scale
            else:
                accepted_post += acc
                if (step - burn_in) % thin == thin - 1:
                    kept[(step - burn_in) // thin] = cur
    rate_per_chain = accepted_post / (steps - burn_in)
    rate = float(rate_per_chain.mean())
    lo, hi = ACCEPT_BAND
    diverged = not (lo <= rate <= hi)
    if diverged:
        warnings.warn(
            f"MCMC acceptance rate {rate:.3f} outside [{lo}, {hi}] after adaptation",
            RuntimeWarning,
        )
    coords = kept.transpose(1, 0, 2).reshape(chains * per_chain, alg.dim)[:n]
    meta = {
        "burn_in": burn_in,
        "thin": thin,
        "chains": chains,
        "per_chain": per_chain,
        "acceptance_rate": rate,
        "acceptance_per_chain": [float(x) for x in rate_per_chain],
        "proposal_scale": scale,
        "adapted_factors": [float(x) for x in factors],
        "diverged": diverged,
    }
    return coords, meta


def _log_pdf_batch(alg: AlgebraDescriptor, p: float, a_coords, b_coords=None):
    """Metropolis target (p - dim/r) log det x - <a, x> - <b, x^-1>, -inf off the cone.

    Without ``b`` this is the Wishart log density up to its constant, with
    ``b`` the GIG one.  Rank 2 is evaluated in closed form: every rank-2
    algebra is a spin factor, so the kernel table's ``rank2_det`` gives
    det x without a matrix, the cone is tr x > 0, det x > 0, and by
    Cayley-Hamilton (x^2 - tr(x) x + det(x) e = 0)
    <b, x^-1> = (tr x tr b - <b, x>) / det x.  The linear terms tr x, <a, x>
    and <b, x> come from one product ``x @ w``, whose columns are the
    kernel table's ``trace`` and ``inner`` applied to the coordinate basis,
    built once.  On finite rows tr x keeps its bits (its column holds ones
    or a two, and zeros), so the cone mask is unchanged; the inner products
    may round differently from the kernels' sums, which moves only the
    target's last bits, and those decide an accept only through a
    comparison with a uniform.  The target is computed on every row,
    off-cone rows included, and ``np.where`` puts -inf on the off-cone rows;
    their log and division warnings are left to the caller's ``np.errstate``
    (:func:`_metropolis_cone` runs every call under one).  Higher ranks take
    the eigenvalues and the inverse from LAPACK.
    """
    exponent = p - alg.dim_over_rank

    if alg.rank == 2:
        tr_b = None if b_coords is None else float(batch_trace(alg, b_coords))
        k = kernels(alg)  # looked up once, not at every step
        basis = np.eye(alg.dim)
        inners = [k.inner(alg, c, basis) for c in (a_coords, b_coords) if c is not None]
        w = np.stack([k.trace(alg, basis), *inners], axis=1)

        def log_pdf(x):
            lin = x @ w
            tr = lin[..., 0]
            dt = k.rank2_det(alg, x)
            ok = (tr > 0.0) & (dt > 0.0)
            val = exponent * np.log(dt) - lin[..., 1]
            if b_coords is not None:
                val -= (tr * tr_b - lin[..., 2]) / dt
            return np.where(ok, val, -np.inf)

        return log_pdf

    def log_pdf(x):
        lam = batch_eigenvalues(alg, x)
        ok = lam[..., -1] > 0.0
        out = np.full(x.shape[:-1], -np.inf)
        if np.any(ok):
            xo = x[ok]
            log_det = np.sum(np.log(lam[ok]), axis=-1)
            val = exponent * log_det - batch_inner(alg, a_coords, xo)
            if b_coords is not None:
                val -= batch_inner(alg, b_coords, batch_inverse(alg, xo))
            out[ok] = val
        return out

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


def _scaled_metropolis(params, seed: int, n: int, init: np.ndarray) -> SampleBatch:
    """Metropolis draws of ``params``' law, with the chain run on 2^-k X
    (:func:`_pow2_scales`) and the draws multiplied back by 2^k.  The
    proposal rule is scale-free, so a chain at scale 2^-k takes the same
    steps wherever its target rounds alike.  What changes is that det x,
    whose closed form overflows for coordinates beyond about 1e154, is
    evaluated near 1.
    """
    alg = params.algebra
    k, a, b = _pow2_scales(params, init)
    log_pdf = _log_pdf_batch(alg, params.p, a, b)
    coords, meta = _metropolis_cone(alg, log_pdf, seed, n, np.ldexp(init, -k))
    np.ldexp(coords, k, out=coords)
    return SampleBatch(alg, params.record(), coords, seed, "mcmc", meta)


def _wishart_mcmc(params: WishartParams, seed: int, n: int) -> SampleBatch:
    """Metropolis Wishart draws, started at a multiple of the identity near the mean."""
    alg = params.algebra
    e = identity(alg)
    init = e.coords * (alg.rank * max(params.p - alg.dim_over_rank, 0.5) / inner(params.a, e))
    return _scaled_metropolis(params, seed, n, init)


def _gig_mcmc(params: GigParams, seed: int, n: int) -> SampleBatch:
    """Metropolis GIG draws, started at sqrt(<b, e> / <a, e>) e."""
    return _scaled_metropolis(params, seed, n, _gig_start(params))


def sample_wishart(params: WishartParams, seed: int, n: int) -> SampleBatch:
    """Draw n Wishart samples.

    Matrix kinds use the exact Bartlett construction; the Lorentz family has
    no triangular factorization, so it is sampled by Metropolis against the
    closed-form density (tr x and det x of the spin factor, no eigenvalue
    call) and should be validated through Laplace-transform probes.
    Requires the absolutely continuous range p > dim/rank - 1 (the discrete
    shapes below it have no density and are not sampled).
    """
    alg = params.algebra
    require_density_range(params.p, alg)
    if kernels(alg).field is None:
        return _wishart_mcmc(params, seed, n)
    coords = _bartlett(alg, params.p, params.a, seed, n)
    return SampleBatch(alg, params.record(), coords, seed, "bartlett")


def sample_gig(params: GigParams, seed: int, n: int) -> SampleBatch:
    """Draw n GIG samples: exact rejection at rank 1, Metropolis otherwise.

    The Metropolis path records burn-in, thinning, and the realized
    acceptance rate in the batch; an acceptance rate outside
    ``ACCEPT_BAND`` is flagged in the metadata (and warned about), never
    hidden.
    """
    alg = params.algebra
    if alg.rank != 1:
        return _gig_mcmc(params, seed, n)
    k, a, b = _pow2_scales(params, _gig_start(params))
    draws = np.ldexp(_gig_rejection_rank1(params.p, float(a[0]), float(b[0]), seed, n), k)
    return SampleBatch(alg, params.record(), draws[:, None], seed, "rejection")
