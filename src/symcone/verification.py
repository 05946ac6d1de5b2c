"""Executable checks for the algebra identities, the functional-equation
solution families, and the forward independence property of the cone map.

Every residual check draws seeded random cone points, evaluates both sides
of its identity, and returns a :class:`CheckReport` of what it computed,
whose ``passed`` field is ``max_residual <= tolerance``; a check's ``tol``
default is its tolerance, and the CLI passes ``tol`` only when it is set.
Checks run one after another at one (algebra, n, integer seed) share their
cone points, drawn once, and what two or more of them derive from those
points (dets, inverses and the map image), computed once and kept with the
points (:func:`_cone_pairs`); a point set whose det and inverse are both
read is factored once for the two (:func:`symcone.algebra._factor`).  The
checks map points with
:func:`symcone.my_transform.batch_my_map`, take the Jacobian of the map as
a log from :mod:`symcone.my_transform`, and evaluate densities with the log
densities of :mod:`symcone.distributions`; where the shared record already
holds a det or an inverse, they call the private core of that library
function with it.  This module writes out none of these formulas.  Logs
keep the Jacobian and density checks finite where the Jacobian itself
leaves the double range.  The independence test returns an
:class:`IndependenceReport` whose ``passed`` field requires every p-value
to clear ``BONFERRONI_GATE``, the significance level shared among the tests
named by ``DCOR_FUNCTIONALS`` and ``KS_LABELS``.  The density-factorization
check and the independence test need a shape p > dim/rank - 1 and raise
:class:`~symcone.distributions.ShapeOutOfRangeError` below it, before any
draw.  Reports are plain dataclasses whose ``to_dict`` follows the field
order; given the same seed and configuration they are reproducible bit for
bit.  The CLI takes its defaults from the signatures here.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import stats
from .algebra import (
    AlgebraDescriptor,
    Element,
    _factor,
    batch_det,
    batch_inner,
    batch_inverse,
    batch_jordan,
    batch_quad_apply,
    batch_quad_rep,
    batch_sqrt,
    batch_trace,
    identity,
    random_cone_points_banded,
    random_element,
)
from .distributions import (
    GigParams,
    WishartParams,
    _gig_log_unnorm,
    _wishart_log_unnorm,
    require_density_range,
    sample_laws,
)
from .my_transform import (
    _log_jacobian_det,
    _my_map,
    batch_log_jacobian_det,
    batch_log_jacobian_det_numeric,
    batch_my_map,
)

SIGNIFICANCE = 0.01

# The p-values that my_property_test gates together: one permutation dCor
# test per functional of (U, V), and one two-sample KS test of the trace or
# det of U or V against fresh draws, labelled <side>_<functional>.
DCOR_FUNCTIONALS = ("trace", "det", "inner")
KS_LABELS = ("u_trace", "u_det", "v_trace", "v_det")

# Each p-value must exceed this Bonferroni-corrected level for a pass.
BONFERRONI_GATE = SIGNIFICANCE / (len(DCOR_FUNCTIONALS) + len(KS_LABELS))

# Trials per stacked call in the checks that build one operator per trial.
BLOCK_TRIALS = 512


@dataclass
class CheckReport:
    """Machine-readable outcome of one verification run."""

    check: str
    algebra: dict | None
    trials: int
    max_residual: float
    mean_residual: float
    passed: bool
    seed: int
    tolerance: float
    error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class FeSolutionConstants:
    """Constants of the cone functional-equation solution family."""

    q: float
    f: Element
    g: Element
    gamma1: float
    gamma2: float
    gamma3: float


@dataclass(frozen=True)
class Fe1dConstants:
    """Constants of the univariate four-function solution family.

    The family only solves its equation when c1 + c2 = c3 + c4, so the
    constraint is enforced at construction.
    """

    p: float
    f: float
    g: float
    c1: float
    c2: float
    c3: float
    c4: float

    def __post_init__(self):
        lhs, rhs = self.c1 + self.c2, self.c3 + self.c4
        if abs(lhs - rhs) > 1e-12 * (1.0 + abs(lhs) + abs(rhs)):
            raise ValueError(f"constraint c1 + c2 = c3 + c4 violated: {lhs} != {rhs}")

    @classmethod
    def from_free(cls, p, f, g, c1, c2, c3) -> "Fe1dConstants":
        return cls(p, f, g, c1, c2, c3, c1 + c2 - c3)


@dataclass
class IndependenceReport:
    """Outcome of the empirical forward-map independence test."""

    algebra: dict
    p: float
    n: int
    seed: int
    functionals: list[str]
    dcor: list[float]
    dcor_p_values: list[float]
    ks_labels: list[str]
    ks_stats: list[float]
    ks_p_values: list[float]
    correlation_matrix: list[list[float]]
    significance: float
    n_permutations: int
    subsample: int | None
    passed: bool
    inconclusive: bool
    negative_control: bool
    check: str = "my-property"

    def to_dict(self) -> dict:
        return {"check": self.check, **asdict(self)}  # the check name leads


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _report(check, alg, residuals, tol, seed) -> CheckReport:
    residuals = np.asarray(residuals, float)
    max_r = float(np.max(residuals))
    return CheckReport(
        check=check,
        algebra=alg.to_dict() if alg is not None else None,
        trials=residuals.size,
        max_residual=max_r,
        mean_residual=float(np.mean(residuals)),
        passed=bool(max_r <= tol),
        seed=seed,
        tolerance=tol,
    )


def _norms(alg, coords) -> np.ndarray:
    return np.sqrt(batch_inner(alg, coords, coords))


def _read_only(a):
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class _SharedPair:
    """Read-only cone points x and y, n rows each, and the arrays derived
    from them that two or more checks read.

    Each derived array is computed on first use by the library's batch
    kernels and then kept, read-only, as long as the record.  Every kernel
    is row-wise, so a check that reads an array here, or a slice of it, gets
    the bits it would compute itself.  Each of x, y, x + y and u = (x+y)^-1
    is factored once, for its det and its inverse together
    (:func:`symcone.algebra._factor`); v, whose inverse no check reads, for
    its det alone.  (u, v) = psi(x, y) comes from the inverses of x + y and
    x (:func:`symcone.my_transform._my_map`).  y^-1 is read by Hua's check
    alone, but it comes with det y, which four checks read, at the cost of
    its back substitution.
    """

    alg: AlgebraDescriptor
    x: np.ndarray
    y: np.ndarray

    def _det_inverse(self, z):
        return tuple(map(_read_only, _factor(self.alg, z, "det", "inverse")))

    @cached_property
    def _at_x(self):
        return self._det_inverse(self.x)

    @cached_property
    def _at_y(self):
        return self._det_inverse(self.y)

    @cached_property
    def _at_sum(self):
        """det(x + y) and (x + y)^-1."""
        return self._det_inverse(self.x + self.y)

    @cached_property
    def _at_u(self):
        return self._det_inverse(self.psi[0])

    det_x = property(lambda self: self._at_x[0])
    inv_x = property(lambda self: self._at_x[1])
    det_y = property(lambda self: self._at_y[0])
    inv_y = property(lambda self: self._at_y[1])
    det_sum = property(lambda self: self._at_sum[0])
    det_u = property(lambda self: self._at_u[0])
    inv_u = property(lambda self: self._at_u[1])

    @cached_property
    def psi(self):
        """(u, v) = ((x+y)^-1, x^-1 - (x+y)^-1)."""
        return tuple(map(_read_only, _my_map(self._at_sum[1], self.inv_x)))

    @cached_property
    def det_v(self):
        return _read_only(batch_det(self.alg, self.psi[1]))


@lru_cache(maxsize=2)
def _seeded_cone_pairs(alg, n, seed):
    return _cone_pairs(alg, n, np.random.default_rng(seed))


def _cone_pairs(alg, n, seed) -> _SharedPair:
    """The record (:class:`_SharedPair`) of two read-only arrays of n banded
    cone points, drawn in turn from one seeded stream.

    An ``int`` seed keeps the last two records (:func:`_seeded_cone_pairs`),
    so the checks run one after another at one (algebra, n, seed), as
    ``symcone suite`` runs them, draw their points once and share them and
    every array derived from them, also when a check at a smaller n, such as
    :func:`check_jacobian`, runs between them.  The derived arrays live
    exactly as long as their points.  A seed of ``None`` or a Generator
    draws fresh points, in a fresh record, on every call.
    """
    if isinstance(seed, int):
        return _seeded_cone_pairs(alg, n, seed)
    rng = np.random.default_rng(seed)
    x = random_cone_points_banded(alg, rng, n)
    return _SharedPair(alg, _read_only(x), _read_only(random_cone_points_banded(alg, rng, n)))


def random_fe_constants(alg: AlgebraDescriptor, rng: np.random.Generator) -> FeSolutionConstants:
    """Random solution constants, bounded to keep residuals well conditioned
    (|q| <= 3, |f|, |g| <= 1, |gamma_i| <= 5)."""
    f = random_element(alg, rng)
    f = (rng.uniform(0, 1) / max(np.sqrt(batch_inner(alg, f.coords, f.coords)), 1e-12)) * f
    g = random_element(alg, rng)
    g = (rng.uniform(0, 1) / max(np.sqrt(batch_inner(alg, g.coords, g.coords)), 1e-12)) * g
    return FeSolutionConstants(
        q=rng.uniform(-3, 3),
        f=f,
        g=g,
        gamma1=rng.uniform(-5, 5),
        gamma2=rng.uniform(-5, 5),
        gamma3=rng.uniform(-5, 5),
    )


def random_fe1d_constants(rng: np.random.Generator) -> Fe1dConstants:
    return Fe1dConstants.from_free(
        p=rng.uniform(-3, 3),
        f=rng.uniform(-1, 1),
        g=rng.uniform(-1, 1),
        c1=rng.uniform(-5, 5),
        c2=rng.uniform(-5, 5),
        c3=rng.uniform(-5, 5),
    )


# ---------------------------------------------------------------------------
# Algebra identity checks
# ---------------------------------------------------------------------------

def check_jordan_axioms(alg, n=1000, tol=1e-10, seed=0) -> CheckReport:
    """Scaled residuals of the four defining axioms on random triples."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, alg.dim))
    y = rng.standard_normal((n, alg.dim))
    z = rng.standard_normal((n, alg.dim))
    e = identity(alg).coords
    nx, ny, nz = _norms(alg, x), _norms(alg, y), _norms(alg, z)
    xy = batch_jordan(alg, x, y)
    commut = _norms(alg, xy - batch_jordan(alg, y, x))
    commut /= (1.0 + nx) * (1.0 + ny)
    x2 = batch_jordan(alg, x, x)
    jid = _norms(alg, batch_jordan(alg, x, batch_jordan(alg, x2, y)) - batch_jordan(alg, x2, xy))
    jid /= (1.0 + nx) ** 3 * (1.0 + ny)
    unit = _norms(alg, batch_jordan(alg, x, e) - x) / (1.0 + nx)
    assoc = np.abs(
        batch_inner(alg, x, batch_jordan(alg, y, z)) - batch_inner(alg, xy, z)
    ) / ((1.0 + nx) * (1.0 + ny) * (1.0 + nz))
    residuals = np.max(np.stack([commut, jid, unit, assoc]), axis=0)
    return _report("jordan-axioms", alg, residuals, tol, seed)


def check_det_product_rule(alg, n=1000, tol=1e-8, seed=0) -> CheckReport:
    """Relative residual of det(P(x) y) = (det x)^2 det y on cone pairs."""
    pts = _cone_pairs(alg, n, seed)
    lhs = batch_det(alg, batch_quad_apply(alg, pts.x, pts.y))
    rhs = pts.det_x ** 2 * pts.det_y
    return _report("det-product-rule", alg, np.abs(lhs - rhs) / np.abs(rhs), tol, seed)


def check_det_operator_power(alg, n=1000, tol=1e-8, seed=0) -> CheckReport:
    """Relative residual of Det P(x) = (det x)^(2 dim / rank) on cone points.

    The points x are the first array of :func:`_cone_pairs`, the stream's
    first draw, so they are the x of the other checks at the same seed.
    Batched: the operators P(x) of a block of at most BLOCK_TRIALS trials are
    built and their determinants taken in one stacked call; the block bounds
    the memory of the stacked operators.
    """
    pts = _cone_pairs(alg, n, seed)
    power = 2.0 * alg.dim / alg.rank
    residuals = []
    for start in range(0, n, BLOCK_TRIALS):
        block = slice(start, start + BLOCK_TRIALS)
        op_det = np.linalg.det(batch_quad_rep(alg, pts.x[block]))
        target = pts.det_x[block] ** power
        residuals.append(np.abs(op_det - target) / np.abs(target))
    return _report("det-operator-power", alg, np.concatenate(residuals), tol, seed)


def check_hua(alg, n=1000, tol=1e-8, seed=0) -> CheckReport:
    """Residual of a^-1 - (a+b)^-1 = (a + P(a) b^-1)^-1 on cone pairs."""
    pts = _cone_pairs(alg, n, seed)
    a = pts.x
    lhs = pts.psi[1]  # the map's second component
    rhs = batch_inverse(alg, a + batch_quad_apply(alg, a, pts.inv_y))
    return _report("hua-identity", alg, _norms(alg, lhs - rhs), tol, seed)


def check_involution(alg, n=1000, tol=1e-9, seed=0) -> CheckReport:
    """Residual of applying the cone map twice on random cone pairs: the
    second map reads u^-1 from the shared record."""
    pts = _cone_pairs(alg, n, seed)
    u, v = pts.psi
    x2, y2 = _my_map(batch_inverse(alg, u + v), pts.inv_u)
    residuals = np.maximum(_norms(alg, x2 - pts.x), _norms(alg, y2 - pts.y))
    return _report("involution", alg, residuals, tol, seed)


def check_jacobian(alg, n=100, tol=1e-4, seed=0, step=1e-5) -> CheckReport:
    """Relative disagreement |expm1(log numeric - log formula)| between the
    finite-difference Jacobian and the closed form, compared as logs, with
    one Richardson refinement when the plain estimate misses the tolerance.

    Batched: the finite-difference matrices of a block of at most
    BLOCK_TRIALS trials are built in one stacked call, and only the trials
    that miss the tolerance are refined.
    """
    pts = _cone_pairs(alg, n, seed)
    u, v = pts.x, pts.y
    residuals = []
    for start in range(0, n, BLOCK_TRIALS):
        ub, vb = u[start : start + BLOCK_TRIALS], v[start : start + BLOCK_TRIALS]
        formula = batch_log_jacobian_det(alg, ub, vb)
        rel = np.abs(np.expm1(batch_log_jacobian_det_numeric(alg, ub, vb, step) - formula))
        redo = rel > tol
        if np.any(redo):
            numeric = batch_log_jacobian_det_numeric(alg, ub[redo], vb[redo], step,
                                                     richardson=True)
            rel[redo] = np.abs(np.expm1(numeric - formula[redo]))
        residuals.append(rel)
    return _report("jacobian-closed-form", alg, np.concatenate(residuals), tol, seed)


# ---------------------------------------------------------------------------
# Functional-equation solution families
# ---------------------------------------------------------------------------

def check_cauchy_additive(alg, f_vec: Element, n=1000, tol=1e-8, seed=0) -> CheckReport:
    """f(x) = <f_vec, x> solves f(x) + f(y) = f(x + y) on cone pairs."""
    pts = _cone_pairs(alg, n, seed)
    x, y = pts.x, pts.y
    fv = f_vec.coords
    residuals = np.abs(
        batch_inner(alg, fv, x) + batch_inner(alg, fv, y) - batch_inner(alg, fv, x + y)
    )
    return _report("cauchy-additive", alg, residuals, tol, seed)


def check_pexider_log(alg, q, gamma1, gamma2, n=1000, tol=1e-8, seed=0) -> CheckReport:
    """The family f_i = q log det + gamma_i solves the multiplicative-type
    equation f1(x) + f2(y) = f3(P(x^(1/2)) y) on cone pairs."""
    pts = _cone_pairs(alg, n, seed)
    z = batch_quad_apply(alg, batch_sqrt(alg, pts.x), pts.y)
    lhs = q * np.log(pts.det_x) + gamma1
    lhs += q * np.log(pts.det_y) + gamma2
    rhs = q * np.log(batch_det(alg, z)) + gamma1 + gamma2
    return _report("pexider-log", alg, np.abs(lhs - rhs), tol, seed)


def check_fe_univariate_g_alpha(constants: dict, n=1000, tol=1e-8, seed=0) -> CheckReport:
    """g(x) = Ax + B log x + C and alpha(x) = Ax^2 + B log x + D solve
    g(x(x+y)) - g(y(x+y)) = alpha(x) - alpha(y) on positive pairs."""
    a_c, b_c = float(constants["A"]), float(constants["B"])
    c_c, d_c = float(constants["C"]), float(constants["D"])
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.2, 5.0, size=n)
    y = rng.uniform(0.2, 5.0, size=n)

    def g(t):
        return a_c * t + b_c * np.log(t) + c_c

    def alpha(t):
        return a_c * t * t + b_c * np.log(t) + d_c

    s = x + y
    residuals = np.abs(g(x * s) - g(y * s) - alpha(x) + alpha(y))
    return _report("fe-univariate-g-alpha", None, residuals, tol, seed)


def check_fe_univariate_abcd(constants: Fe1dConstants, n=1000, tol=1e-8, seed=0) -> CheckReport:
    """The four-function family with p, f, g and constrained constants solves
    A(x) + B(y) = C((x+y)^-1) + D(x^-1 - (x+y)^-1) on positive pairs."""
    k = constants
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.2, 5.0, size=n)
    y = rng.uniform(0.2, 5.0, size=n)
    u = 1.0 / (x + y)
    w = 1.0 / x - u
    lhs = (-k.p * np.log(x) + k.f * x + k.g / x + k.c1) + (k.p * np.log(y) + k.f * y + k.c2)
    rhs = (-k.p * np.log(u) + k.g * u + k.f / u + k.c3) + (k.p * np.log(w) + k.g * w + k.c4)
    return _report("fe-univariate-abcd", None, np.abs(lhs - rhs), tol, seed)


def _fe_cone_residuals(alg, k: FeSolutionConstants, pts: _SharedPair, perturbation=0.0):
    x, y = pts.x, pts.y
    u, w = pts.psi
    fc, gc = k.f.coords, k.g.coords
    a_side = (
        k.q * np.log(pts.det_x)
        + batch_inner(alg, fc, x)
        + batch_inner(alg, gc, pts.inv_x)
        + k.gamma1
        + k.gamma3
    )
    if perturbation:
        a_side = a_side + perturbation * np.sqrt(pts.det_x)
    b_side = -k.q * np.log(pts.det_y) + batch_inner(alg, fc, y) + k.gamma2
    c_side = (
        k.q * np.log(pts.det_u)
        + batch_inner(alg, gc, u)
        + batch_inner(alg, fc, pts.inv_u)
        + k.gamma3
    )
    d_side = (
        -k.q * np.log(pts.det_v)
        + batch_inner(alg, gc, w)
        + k.gamma1
        + k.gamma2
    )
    return np.abs(a_side + b_side - c_side - d_side)


def check_fe_cone(alg, constants: FeSolutionConstants, n=1000, tol=1e-8, seed=0) -> CheckReport:
    """The cone solution family (log det, linear, and inverse-linear terms)
    solves a(x) + b(y) = c((x+y)^-1) + d(x^-1 - (x+y)^-1) on cone pairs."""
    residuals = _fe_cone_residuals(alg, constants, _cone_pairs(alg, n, seed))
    return _report("fe-cone", alg, residuals, tol, seed)


def check_perturbed_fe_rejects(
    alg, constants: FeSolutionConstants, perturbation: float, n=1000, seed=0, tol=1e-8
) -> CheckReport:
    """Negative control: a non-family term of size ``perturbation`` is added
    to one side, and the report must show the residual blowing past the
    tolerance (``passed`` keeps its usual max_residual <= tol meaning)."""
    residuals = _fe_cone_residuals(alg, constants, _cone_pairs(alg, n, seed),
                                   perturbation=perturbation)
    return _report("fe-cone-perturbed", alg, residuals, tol, seed)


# ---------------------------------------------------------------------------
# Density factorization and the independence property
# ---------------------------------------------------------------------------

def density_factorization_check(
    alg, p, a: Element, b: Element, n=1000, tol=1e-10, seed=0, negative_control=False,
) -> CheckReport:
    """Constancy of the log ratio between the two factorized density sides.

    Evaluates, at random cone pairs (x, y), the unnormalized log densities
    of U ~ GIG(-p, b, a) at x and V ~ W(p, b) at y against the
    Jacobian-weighted densities of X ~ GIG(-p, a, b) and Y ~ W(p, a) at the
    mapped pair (u, v) = psi(x, y), which the involutive map sends back to
    (x, y); the difference must be the same constant everywhere.  The
    residual per pair is the deviation of the difference from its batch
    mean, divided by max(1, |lhs| + |rhs|) of that pair: relative to the
    log densities, which grow as <a, x>, once they pass 1, and absolute
    below, so it reads rounding at every scale of a and b.  When every
    coordinate of a and b is below 1/2, the pairs are the shared banded
    ones times the power of two 2^k just above 1 / max |coordinate|, and
    their dets, inverses and images scale exactly with them; otherwise the
    terms in a and b, on which the negative control acts, would fall below
    the rounding of the log dets at unit points.
    ``negative_control=True`` swaps a and b on the left side only, which
    must destroy constancy.  The log densities and the log Jacobian are the
    library's own formulas (the private cores of
    :func:`~symcone.distributions.batch_gig_log_unnorm`,
    :func:`~symcone.distributions.batch_wishart_log_unnorm` and
    :func:`~symcone.my_transform.batch_log_jacobian_det`), evaluated on the
    dets and inverses that the shared record (:func:`_cone_pairs`) holds.
    """
    require_density_range(p, alg)
    pts = _cone_pairs(alg, n, seed)
    ac, bc = a.coords, b.coords
    k = max(0, -int(np.frexp(max(np.max(np.abs(ac)), np.max(np.abs(bc))))[1]))
    shift = alg.rank * k * math.log(2.0)  # log det of 2^k e

    def moved(z, sign):
        """z times 2^(sign k), exactly: x and y move up, u and v down."""
        return np.ldexp(z, sign * k) if k else z

    u, v = (moved(w, -1) for w in pts.psi)
    x, log_det_x = moved(pts.x, 1), np.log(pts.det_x) + shift
    left_a, left_b = (bc, ac) if negative_control else (ac, bc)
    lhs = (_gig_log_unnorm(alg, -p, left_b, left_a, x, log_det_x, moved(pts.inv_x, -1))
           + _wishart_log_unnorm(alg, p, left_b, moved(pts.y, 1), np.log(pts.det_y) + shift))
    rhs = (_log_jacobian_det(alg, log_det_x, np.log(pts.det_sum) + shift)
           + _gig_log_unnorm(alg, -p, ac, bc, u, np.log(pts.det_u) - shift, moved(pts.inv_u, 1))
           + _wishart_log_unnorm(alg, p, ac, v, np.log(pts.det_v) - shift))
    diff = lhs - rhs
    residuals = np.abs(diff - diff.mean()) / np.maximum(1.0, np.abs(lhs) + np.abs(rhs))
    return _report("density-factorization", alg, residuals, tol, seed)


def _det_exponent(*samples) -> int:
    """The exponent m of the power of two 2^m just above the largest
    |coordinate| of the stacked points ``samples``.

    det(2^-m z) = 2^-rm det z exactly wherever det z is a normal double,
    and neither dCor nor KS sees a factor common to the samples they read,
    while det z itself leaves the double range at scales a point can hold
    (rank 4 from about 2^256).
    """
    top = max(max(np.max(z), -np.min(z)) for z in samples)  # no copy, as np.abs would make
    return int(np.frexp(top)[1])


def _scaled_det(alg, z, m) -> np.ndarray:
    """det of stacked points z times 2^-m (:func:`_det_exponent`)."""
    return batch_det(alg, np.ldexp(z, -m))


def _functionals(alg, z, c, m) -> dict:
    """trace z, det z and <c, z> at stacked points z, det taken at z times
    2^-m (:func:`_scaled_det`)."""
    return {"trace": batch_trace(alg, z), "det": _scaled_det(alg, z, m),
            "inner": batch_inner(alg, c, z)}


def _unit_scaled(samples):
    """Each sample (the last axis of ``samples``) divided by the power of
    two at its largest |value|, so that it lies in (-1, 1): exact, unless
    the sample spans more than the double range; an inf or nan sample is
    left as it is."""
    _, k = np.frexp(np.max(np.abs(samples), axis=-1, keepdims=True))
    return np.ldexp(samples, -k)


def my_property_test(
    alg,
    p: float,
    a: Element,
    b: Element,
    n: int,
    seed: int = 0,
    n_permutations: int = 1000,
    subsample: int | None = 1000,
    negative_control: bool = False,
) -> IndependenceReport:
    """Empirical test of the forward independence property.

    Samples X from the GIG with shape -p and Y from the Wishart with shape
    p (both with scale-side parameter a), maps them through the involutive
    cone map to (U, V), and then

    1. tests independence of U and V by a permutation distance-correlation
       test on the functional pairs (trace, trace), (det, det), and
       (<a, U>, <b, V>);
    2. compares the marginal of V against fresh Wishart draws with scale b,
       and the marginal of U against fresh GIG draws with swapped
       parameters, by two-sample Kolmogorov-Smirnov tests on the trace and
       determinant functionals.

    The dCor tests and the report's correlation matrix read each functional
    sample divided by the power of two at its largest |value|.  That
    division is exact and both statistics are scale-invariant, so they give
    the bits of the unscaled sample wherever those are finite, and their
    squared distances and products neither overflow nor underflow at any
    scale a double holds.  The det functional of each side and of the fresh
    draws it is compared with is taken at both samples times one common
    power of two (:func:`_det_exponent`), so that det stays in the double
    range and every statistic keeps the bits of the unscaled dets wherever
    those are normal doubles.

    ``negative_control=True`` replaces Y with X plus cone noise, which makes
    U and V strongly dependent and must drive the permutation p-values below
    the significance level.

    All four samples (X, Y, the fresh V and the fresh U; three under the
    negative control) are drawn up front in one
    :func:`~symcone.distributions.sample_laws` call, so their Metropolis
    laws share one step loop.  Each has its own child seed of ``seed``, and
    its batch is the one it would give alone.

    The report's ``passed`` field applies a Bonferroni correction across
    the listed tests; it is ``False`` whenever any p-value falls to
    ``BONFERRONI_GATE`` or below, and ``inconclusive`` is flagged if an MCMC
    sampler finished outside its acceptance band.  A dCor p-value is at
    least 1/(n_permutations + 1), below the gate from 700 permutations on.
    A shape p outside the density range raises ShapeOutOfRangeError before
    anything is drawn.
    """
    require_density_range(p, alg)
    child = [int(s) for s in np.random.SeedSequence(seed).generate_state(6, np.uint64)]
    laws = {"x": (GigParams(-p, a, b), child[0]), "y": (WishartParams(p, a), child[1]),
            "v": (WishartParams(p, b), child[3]), "u": (GigParams(-p, b, a), child[4])}
    if negative_control:
        del laws["y"]
    batches = dict(zip(laws, sample_laws(laws.values(), n)))
    x = batches["x"].coords
    if negative_control:
        rng_noise = np.random.default_rng(child[1])
        g = rng_noise.standard_normal((n, alg.dim))
        y = x + 0.25 * batch_jordan(alg, g, g)
    else:
        y = batches["y"].coords
    u, v = batch_my_map(alg, x, y)
    fresh = {"u": batches["u"].coords, "v": batches["v"].coords}
    m = {"u": _det_exponent(u, fresh["u"]), "v": _det_exponent(v, fresh["v"])}
    mapped = {"u": _functionals(alg, u, a.coords, m["u"]),
              "v": _functionals(alg, v, b.coords, m["v"])}
    rng_perm = np.random.default_rng(child[2])
    dcors, dcor_ps = [], []
    for name in DCOR_FUNCTIONALS:
        r, pv = stats.permutation_dcor_test(
            _unit_scaled(mapped["u"][name]), _unit_scaled(mapped["v"][name]), n_permutations,
            rng_perm, subsample,
        )
        dcors.append(r)
        dcor_ps.append(pv)

    ks_stats, ks_ps = [], []
    for label in KS_LABELS:
        side, name = label.split("_")
        z = fresh[side]  # its det at the power of two of the mapped sample's
        s, pv = stats.ks_2sample(mapped[side][name], batch_trace(alg, z) if name == "trace"
                                 else _scaled_det(alg, z, m[side]))
        ks_stats.append(s)
        ks_ps.append(pv)

    corr = np.corrcoef(_unit_scaled(
        np.stack([mapped[side][name] for side in "uv" for name in DCOR_FUNCTIONALS])
    ))

    inconclusive = any(bb.mcmc is not None and bb.mcmc.get("diverged")
                       for bb in batches.values())
    passed = bool(all(pv > BONFERRONI_GATE for pv in dcor_ps + ks_ps)) and not inconclusive
    return IndependenceReport(
        algebra=alg.to_dict(),
        p=float(p),
        n=int(n),
        seed=seed,
        functionals=list(DCOR_FUNCTIONALS),
        dcor=[float(t) for t in dcors],
        dcor_p_values=[float(t) for t in dcor_ps],
        ks_labels=list(KS_LABELS),
        ks_stats=[float(t) for t in ks_stats],
        ks_p_values=[float(t) for t in ks_ps],
        correlation_matrix=[[float(c) for c in row] for row in corr],
        significance=SIGNIFICANCE,
        n_permutations=n_permutations,
        subsample=subsample,
        passed=passed,
        inconclusive=bool(inconclusive),
        negative_control=negative_control,
    )
