"""Executable checks for the algebra identities, the functional-equation
solution families, and the forward independence property of the cone map.

Every residual check draws seeded random cone points, evaluates both sides
of its identity, and returns a :class:`CheckReport` of what it computed,
whose ``passed`` field is ``max_residual <= tolerance``; a check's ``tol``
default is its tolerance, and the CLI passes ``tol`` only when it is set.
Checks run one after another at one (algebra, n, integer seed) share their
cone points, drawn once (:func:`_cone_pairs`).
The checks map points with :func:`symcone.my_transform.batch_my_map`, take
the Jacobian of the map as a log from :mod:`symcone.my_transform`, and
evaluate densities with the batch log densities of
:mod:`symcone.distributions`; this module writes out none of them.  Logs keep the Jacobian and density checks finite where the
Jacobian itself leaves the double range.  The independence test returns an
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

from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import stats
from .algebra import (
    AlgebraDescriptor,
    Element,
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
    batch_gig_log_unnorm,
    batch_wishart_log_unnorm,
    require_density_range,
    sample_laws,
)
from .my_transform import batch_log_jacobian_det, batch_log_jacobian_det_numeric, batch_my_map

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


@lru_cache(maxsize=2)
def _seeded_cone_pairs(alg, n, seed):
    return _cone_pairs(alg, n, np.random.default_rng(seed))


def _cone_pairs(alg, n, seed):
    """Two read-only arrays of n banded cone points, drawn in turn from one
    seeded stream.

    An ``int`` seed keeps the last two pairs drawn
    (:func:`_seeded_cone_pairs`), so the checks run one after another at one
    (algebra, n, seed), as ``symcone suite`` runs them, draw their points
    once and share them, also when a check at a smaller n, such as
    :func:`check_jacobian`, runs between them.  A seed of ``None`` or a
    Generator draws fresh points on every call.
    """
    if isinstance(seed, int):
        return _seeded_cone_pairs(alg, n, seed)
    rng = np.random.default_rng(seed)
    pair = random_cone_points_banded(alg, rng, n), random_cone_points_banded(alg, rng, n)
    for points in pair:
        points.setflags(write=False)
    return pair


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
    commut = _norms(alg, batch_jordan(alg, x, y) - batch_jordan(alg, y, x))
    commut /= (1.0 + nx) * (1.0 + ny)
    x2 = batch_jordan(alg, x, x)
    jid = _norms(
        alg,
        batch_jordan(alg, x, batch_jordan(alg, x2, y))
        - batch_jordan(alg, x2, batch_jordan(alg, x, y)),
    )
    jid /= (1.0 + nx) ** 3 * (1.0 + ny)
    unit = _norms(alg, batch_jordan(alg, x, e) - x) / (1.0 + nx)
    assoc = np.abs(
        batch_inner(alg, x, batch_jordan(alg, y, z))
        - batch_inner(alg, batch_jordan(alg, x, y), z)
    ) / ((1.0 + nx) * (1.0 + ny) * (1.0 + nz))
    residuals = np.max(np.stack([commut, jid, unit, assoc]), axis=0)
    return _report("jordan-axioms", alg, residuals, tol, seed)


def check_det_product_rule(alg, n=1000, tol=1e-8, seed=0) -> CheckReport:
    """Relative residual of det(P(x) y) = (det x)^2 det y on cone pairs."""
    x, y = _cone_pairs(alg, n, seed)
    lhs = batch_det(alg, batch_quad_apply(alg, x, y))
    rhs = batch_det(alg, x) ** 2 * batch_det(alg, y)
    return _report("det-product-rule", alg, np.abs(lhs - rhs) / np.abs(rhs), tol, seed)


def check_det_operator_power(alg, n=1000, tol=1e-8, seed=0) -> CheckReport:
    """Relative residual of Det P(x) = (det x)^(2 dim / rank) on cone points.

    The points x are the first array of :func:`_cone_pairs`, the stream's
    first draw, so they are the x of the other checks at the same seed.
    Batched: the operators P(x) of a block of at most BLOCK_TRIALS trials are
    built and their determinants taken in one stacked call; the block bounds
    the memory of the stacked operators.
    """
    x = _cone_pairs(alg, n, seed)[0]
    power = 2.0 * alg.dim / alg.rank
    residuals = []
    for start in range(0, n, BLOCK_TRIALS):
        xs = x[start : start + BLOCK_TRIALS]
        op_det = np.linalg.det(batch_quad_rep(alg, xs))
        target = batch_det(alg, xs) ** power
        residuals.append(np.abs(op_det - target) / np.abs(target))
    return _report("det-operator-power", alg, np.concatenate(residuals), tol, seed)


def check_hua(alg, n=1000, tol=1e-8, seed=0) -> CheckReport:
    """Residual of a^-1 - (a+b)^-1 = (a + P(a) b^-1)^-1 on cone pairs."""
    a, b = _cone_pairs(alg, n, seed)
    lhs = batch_my_map(alg, a, b)[1]  # the map's second component
    rhs = batch_inverse(alg, a + batch_quad_apply(alg, a, batch_inverse(alg, b)))
    return _report("hua-identity", alg, _norms(alg, lhs - rhs), tol, seed)


def check_involution(alg, n=1000, tol=1e-9, seed=0) -> CheckReport:
    """Residual of applying the cone map twice on random cone pairs."""
    x, y = _cone_pairs(alg, n, seed)
    x2, y2 = batch_my_map(alg, *batch_my_map(alg, x, y))
    residuals = np.maximum(_norms(alg, x2 - x), _norms(alg, y2 - y))
    return _report("involution", alg, residuals, tol, seed)


def check_jacobian(alg, n=100, tol=1e-4, seed=0, step=1e-5) -> CheckReport:
    """Relative disagreement |expm1(log numeric - log formula)| between the
    finite-difference Jacobian and the closed form, compared as logs, with
    one Richardson refinement when the plain estimate misses the tolerance.

    Batched: the finite-difference matrices of a block of at most
    BLOCK_TRIALS trials are built in one stacked call, and only the trials
    that miss the tolerance are refined.
    """
    u, v = _cone_pairs(alg, n, seed)
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
    x, y = _cone_pairs(alg, n, seed)
    fv = f_vec.coords
    residuals = np.abs(
        batch_inner(alg, fv, x) + batch_inner(alg, fv, y) - batch_inner(alg, fv, x + y)
    )
    return _report("cauchy-additive", alg, residuals, tol, seed)


def check_pexider_log(alg, q, gamma1, gamma2, n=1000, tol=1e-8, seed=0) -> CheckReport:
    """The family f_i = q log det + gamma_i solves the multiplicative-type
    equation f1(x) + f2(y) = f3(P(x^(1/2)) y) on cone pairs."""
    x, y = _cone_pairs(alg, n, seed)
    z = batch_quad_apply(alg, batch_sqrt(alg, x), y)
    lhs = q * np.log(batch_det(alg, x)) + gamma1
    lhs += q * np.log(batch_det(alg, y)) + gamma2
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


def _fe_cone_residuals(alg, k: FeSolutionConstants, x, y, perturbation=0.0):
    log_det_x = np.log(batch_det(alg, x))
    log_det_y = np.log(batch_det(alg, y))
    inv_x = batch_inverse(alg, x)
    u, w = batch_my_map(alg, x, y)
    fc, gc = k.f.coords, k.g.coords
    a_side = (
        k.q * log_det_x
        + batch_inner(alg, fc, x)
        + batch_inner(alg, gc, inv_x)
        + k.gamma1
        + k.gamma3
    )
    if perturbation:
        a_side = a_side + perturbation * np.sqrt(batch_det(alg, x))
    b_side = -k.q * log_det_y + batch_inner(alg, fc, y) + k.gamma2
    c_side = (
        k.q * np.log(batch_det(alg, u))
        + batch_inner(alg, gc, u)
        + batch_inner(alg, fc, batch_inverse(alg, u))
        + k.gamma3
    )
    d_side = (
        -k.q * np.log(batch_det(alg, w))
        + batch_inner(alg, gc, w)
        + k.gamma1
        + k.gamma2
    )
    return np.abs(a_side + b_side - c_side - d_side)


def check_fe_cone(alg, constants: FeSolutionConstants, n=1000, tol=1e-8, seed=0) -> CheckReport:
    """The cone solution family (log det, linear, and inverse-linear terms)
    solves a(x) + b(y) = c((x+y)^-1) + d(x^-1 - (x+y)^-1) on cone pairs."""
    x, y = _cone_pairs(alg, n, seed)
    return _report("fe-cone", alg, _fe_cone_residuals(alg, constants, x, y), tol, seed)


def check_perturbed_fe_rejects(
    alg, constants: FeSolutionConstants, perturbation: float, n=1000, seed=0, tol=1e-8
) -> CheckReport:
    """Negative control: a non-family term of size ``perturbation`` is added
    to one side, and the report must show the residual blowing past the
    tolerance (``passed`` keeps its usual max_residual <= tol meaning)."""
    x, y = _cone_pairs(alg, n, seed)
    residuals = _fe_cone_residuals(alg, constants, x, y, perturbation=perturbation)
    return _report("fe-cone-perturbed", alg, residuals, tol, seed)


# ---------------------------------------------------------------------------
# Density factorization and the independence property
# ---------------------------------------------------------------------------

def density_factorization_check(
    alg, p, a: Element, b: Element, n=1000, tol=1e-10, seed=0, negative_control=False,
) -> CheckReport:
    """Constancy of the log ratio between the two factorized density sides.

    Evaluates, at random cone pairs (u, v), the unnormalized log densities
    of the mapped pair against the Jacobian-weighted originals; the
    difference must be the same constant everywhere, so the residual per
    pair is the deviation from the batch mean.  ``negative_control=True``
    swaps a and b on the left side only, which must destroy constancy.
    """
    require_density_range(p, alg)
    u, v = _cone_pairs(alg, n, seed)
    ac, bc = a.coords, b.coords
    left_a, left_b = (bc, ac) if negative_control else (ac, bc)
    lhs = (batch_gig_log_unnorm(alg, -p, left_b, left_a, u)
           + batch_wishart_log_unnorm(alg, p, left_b, v))
    x, y = batch_my_map(alg, u, v)
    rhs = (batch_log_jacobian_det(alg, u, v)
           + batch_gig_log_unnorm(alg, -p, ac, bc, x) + batch_wishart_log_unnorm(alg, p, ac, y))
    diff = lhs - rhs
    residuals = np.abs(diff - diff.mean())
    return _report("density-factorization", alg, residuals, tol, seed)


def _functionals(alg, z, c) -> dict:
    """trace z, det z and <c, z> at stacked points z."""
    return {"trace": batch_trace(alg, z), "det": batch_det(alg, z),
            "inner": batch_inner(alg, c, z)}


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
    mapped = {"u": _functionals(alg, u, a.coords), "v": _functionals(alg, v, b.coords)}
    rng_perm = np.random.default_rng(child[2])
    dcors, dcor_ps = [], []
    for name in DCOR_FUNCTIONALS:
        r, pv = stats.permutation_dcor_test(
            mapped["u"][name], mapped["v"][name], n_permutations, rng_perm, subsample
        )
        dcors.append(r)
        dcor_ps.append(pv)

    fresh = {"u": batches["u"].coords, "v": batches["v"].coords}
    ks_stats, ks_ps = [], []
    for label in KS_LABELS:
        side, name = label.split("_")
        functional = batch_trace if name == "trace" else batch_det
        s, pv = stats.ks_2sample(mapped[side][name], functional(alg, fresh[side]))
        ks_stats.append(s)
        ks_ps.append(pv)

    corr = np.corrcoef(
        np.stack([mapped[side][name] for side in "uv" for name in DCOR_FUNCTIONALS])
    )

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
