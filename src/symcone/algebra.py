"""Euclidean Jordan algebra arithmetic for three symmetric-cone families.

Implements element arithmetic, the multiplication and quadratic operators,
spectral decomposition, and spectral functional calculus (inverse, square
root) for

* ``sym-real``     -- real symmetric r x r matrices, dimension r(r+1)/2,
* ``herm-complex`` -- complex Hermitian r x r matrices realified to r^2
  coordinates,
* ``lorentz``      -- the second-order cone algebra on R^(n+1), rank 2.

Every element is a real coordinate vector in a fixed canonical basis.  For
the matrix families the basis is orthonormal for the trace inner product
(diagonal units first, then scaled off-diagonal units in column-major
order), so the inner product of two elements is the plain dot product of
their coordinates and all operators are plain real matrices.  For the
Lorentz family the coordinates are the natural components (x0, ..., xn) and
the trace inner product is twice the dot product.

Only the Jordan-algebra data differs between the families, so one table
maps each :class:`Kind` to its kernels: the spin-factor formulas for
``lorentz``, and one matrix kernel set whose scalar field is a parameter
(``float`` for ``sym-real``, ``complex`` for ``herm-complex``).  The public
functions look their kernel up in that table and hold no per-kind branch;
:func:`kernels` gives other modules the same entry.

On every kind x = sum_j lam_j c_j over a Jordan frame, and f(x) = sum_j
f(lam_j) c_j (Faraut & Koranyi, ch. III).  A kind supplies two spectral
methods: ``eigen``, the eigenvalues of rows rescaled by a power of two
and its frame data, and ``combine``, the coordinates of sum_j w_j c_j for
given weights.  The eigenvalues, the square root, the spectral
decomposition and the matrix kinds' det and inverse off the open cone
are written once, on those two.  The matrix kinds' ``eigen`` is one
batched cyclic Jacobi routine at every rank, which leaves a row that has
converged, and so a row alone or in any batch, with the same bits; the
spin factor's is x0 -+ |xbar| and the unit vector of xbar.

Determinants and inverses are closed forms on the spin factor.  The matrix
kinds take both from one L D L* elimination at every rank, complex entries
multiplied out in real arithmetic: det is the product of the pivots, and
the error of both stays within a small multiple of eps times the condition
number.  The same pivots decide open-cone membership (Sylvester's
criterion), with no LAPACK call.  A caller that needs two of membership,
det and inverse of one point set takes them from one rescaling and one
elimination (:func:`_factor`), which keeps nothing past the call.  Finite
rows with a non-positive pivot lie off the open cone and take det from
their eigenvalues and the inverse from the spectral calculus; on every
kind a row with an inf or nan coordinate gives a nan det and inverse.  Eigenvalues, determinants,
inverses and square roots run on rows rescaled by a power of two (an even
one for the root) and scale the result back, so an inverse holds from
1e-300 to 1e300 and the determinant of a finite row outside the double
range is inf or 0, never nan.  Banded cone points come from Gram-Schmidt,
with no LAPACK call.
The matrix kinds' Jordan product is one matrix product P = XY, as x o y =
(P + P*) / 2, and P(x)y is XYX; both run as real matrix products in each
algebra's real form, herm-complex through its real 2r x 2r embedding,
where numpy's stacked complex product takes several times longer.  They
run over blocks of rows whose R x R temporaries stay within a fixed byte
budget (``_BLOCK_BYTES``), small enough to stay in the cache and to be
reused by the allocator instead of being page-faulted afresh on every
call; every step is row-wise, so a row has the same bits in any block.
The multiplication operators L(a) are contracted from each algebra's
structure tensor, the operators of its basis elements.

All functions are pure.  The ``batch_*`` variants accept coordinate arrays
with arbitrary leading axes and operate elementwise over them; the
element-level API is a thin wrapper around them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

_SQRT2 = math.sqrt(2.0)
_EPS = np.finfo(float).eps

# Relative singularity cutoff: |eigenvalue| <= SINGULAR_RTOL * max|eig|.
SINGULAR_RTOL = 1e-12

# Hermitian defect (and, for sym-real, imaginary part) that from_matrix
# accepts, relative to 1 + max |entry|.
HERMITIAN_ATOL = 1e-10


class AlgebraMismatchError(ValueError):
    """Operands belong to different algebras."""


class SingularElementError(ValueError):
    """An eigenvalue is below the singularity threshold."""


class NotInConeError(ValueError):
    """The element is outside the open symmetric cone."""


class Kind(enum.Enum):
    SYM_REAL = "sym-real"
    HERM_COMPLEX = "herm-complex"
    LORENTZ = "lorentz"


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Cone family plus rank, Peirce constant, and ambient real dimension.

    The fields always satisfy dim = rank + peirce * rank * (rank - 1) / 2.
    Use :func:`sym_real`, :func:`herm_complex`, or :func:`lorentz` instead of
    constructing descriptors directly.
    """

    kind: Kind
    rank: int
    peirce: int
    dim: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.peirce < 0:
            raise ValueError(f"Peirce constant must be >= 0, got {self.peirce}")
        expected = self.rank + self.peirce * self.rank * (self.rank - 1) // 2
        if self.dim != expected:
            raise ValueError(
                f"dim {self.dim} inconsistent with rank {self.rank}, "
                f"Peirce constant {self.peirce} (expected {expected})"
            )
        if self.kind is Kind.SYM_REAL and self.peirce != 1:
            raise ValueError("sym-real requires Peirce constant 1")
        if self.kind is Kind.HERM_COMPLEX and self.peirce != 2:
            raise ValueError("herm-complex requires Peirce constant 2")
        if self.kind is Kind.LORENTZ and (self.rank != 2 or self.peirce < 1):
            raise ValueError("lorentz requires rank 2 and ambient dimension >= 3")

    @property
    def dim_over_rank(self) -> float:
        return self.dim / self.rank

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "rank": self.rank, "dim": self.dim}


def sym_real(rank: int) -> AlgebraDescriptor:
    """Algebra of real symmetric ``rank x rank`` matrices."""
    return AlgebraDescriptor(Kind.SYM_REAL, rank, 1, rank * (rank + 1) // 2)


def herm_complex(rank: int) -> AlgebraDescriptor:
    """Algebra of complex Hermitian ``rank x rank`` matrices."""
    return AlgebraDescriptor(Kind.HERM_COMPLEX, rank, 2, rank * rank)


def lorentz(n: int) -> AlgebraDescriptor:
    """Second-order cone algebra on R^(n+1), n >= 2."""
    if n < 2:
        raise ValueError(
            f"lorentz requires ambient dimension n + 1 >= 3, got dimension {n + 1} (n = {n})")
    return AlgebraDescriptor(Kind.LORENTZ, 2, n - 1, n + 1)


def descriptor_of_kind(kind: str, rank, dim) -> AlgebraDescriptor:
    """The algebra of ``kind`` from the one field that kind reads: ``rank``
    for the matrix kinds, ``dim`` for lorentz.  The other is not checked."""
    return _KERNELS[Kind(kind)].descriptor(int(rank), int(dim))


def descriptor_from_dict(d: dict) -> AlgebraDescriptor:
    """The algebra that ``AlgebraDescriptor.to_dict`` wrote.  It is built
    from the field its kind reads (:func:`descriptor_of_kind`), and a
    ``rank`` or ``dim`` that contradicts it raises ValueError naming that
    field; a written algebra is never silently changed."""
    alg = descriptor_of_kind(d["kind"], d["rank"], d["dim"])
    for field in ("rank", "dim"):
        if int(d[field]) != getattr(alg, field):
            raise ValueError(f"{field} {d[field]} contradicts {alg.kind.value} with "
                             f"rank {alg.rank} and dim {alg.dim}")
    return alg


@dataclass(frozen=True, eq=False)
class Element:
    """A point of the algebra: a coordinate vector in the canonical basis."""

    algebra: AlgebraDescriptor
    coords: np.ndarray

    def __post_init__(self):
        c = np.array(self.coords, dtype=float)
        if c.shape != (self.algebra.dim,):
            raise ValueError(
                f"coords shape {c.shape} does not match dim {self.algebra.dim}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    def __add__(self, other: "Element") -> "Element":
        alg = _require_same(self, other)
        return Element(alg, self.coords + other.coords)

    def __sub__(self, other: "Element") -> "Element":
        alg = _require_same(self, other)
        return Element(alg, self.coords - other.coords)

    def __neg__(self) -> "Element":
        return Element(self.algebra, -self.coords)

    def __mul__(self, scalar: float) -> "Element":
        return Element(self.algebra, self.coords * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"Element({self.algebra.kind.value}, {self.coords!r})"


def _require_same(x: Element, y: Element) -> AlgebraDescriptor:
    if x.algebra != y.algebra:
        raise AlgebraMismatchError(
            f"elements from different algebras: {x.algebra} vs {y.algebra}"
        )
    return x.algebra


# ---------------------------------------------------------------------------
# The kernel table: one entry per cone kind
# ---------------------------------------------------------------------------

def _positive_sqrt(lam):
    """sqrt(lam); NotInConeError if any eigenvalue is <= 0.  The nan
    eigenvalues of a nan row neither raise nor hide another row's."""
    if np.any(lam <= 0):
        raise NotInConeError("square root requires strictly positive eigenvalues")
    return np.sqrt(lam)


def _pow2_rows(a, even=False):
    """Rows of ``a`` divided by 2^k, with 2^k the power of two just above
    their largest |coordinate|, and the exponents k; with ``even``, k is
    rounded up to even, so that a square root scales back by 2^(k/2).

    Dividing by a power of two is exact, so a kernel homogeneous in its row
    that runs on the scaled rows and scales its result back gives the same
    bits as on the raw rows, while its squares can neither overflow nor
    turn subnormal.
    """
    # one np.maximum per coordinate: a max over the short last axis takes
    # several times longer on a batch
    top = np.abs(a[..., 0])
    for j in range(1, a.shape[-1]):
        top = np.maximum(top, np.abs(a[..., j]))
    _, k = np.frexp(top)  # inf and nan rows get k = 0
    if even:
        k += k & 1
    return np.ldexp(a, -k[..., None]), k


def _row_sum(a):
    """Sum of ``a`` over its last axis, with the bits ``np.add.reduce``
    gives.

    numpy sums a row of fewer than 8 doubles from left to right, as adding
    the columns in turn does, which on a batch of short rows is several
    times faster.  From 8 on it sums in 8 unrolled accumulators, so those
    rows, and a single column, are summed by numpy itself.  So is a batch
    of fewer than 32 rows per column, where the call per column costs more
    than numpy's pass over the rows.
    """
    d = a.shape[-1]
    if not 2 <= d < 8 or a.size < 32 * d * d:
        return np.add.reduce(a, axis=-1)
    total = a[..., 0] + a[..., 1]
    for j in range(2, d):
        total += a[..., j]
    return total


class _SpinFactor:
    """Kernels of the spin factor R^(n+1), with x o y = (<x, y>, x0 ybar + y0 xbar).

    Every method takes the descriptor first and float coordinate arrays
    (..., dim) after it, as do those of :class:`_MatrixForm`.  The two
    spectral methods are :meth:`eigen`, the eigenvalues x0 -+ |xbar| with
    the spatial part xbar and its norm, and :meth:`combine`, the element
    with given weights on the Jordan frame (1, -+unit) / 2, unit = xbar /
    |xbar|; the module's spectral functions are written on them.  The
    determinant, the inverse and cone membership (from :meth:`eigen`'s
    eigenvalues) are closed forms on rows rescaled by :func:`_pow2_rows`,
    once for all three (:meth:`factor`), so they hold from the smallest to
    the largest doubles; a determinant outside the double range gives inf
    or 0, and a row with an inf or nan coordinate gives a nan determinant
    and inverse.
    ``rank2_det`` is the unscaled determinant.
    """

    field = None  # no matrix form

    def descriptor(self, rank: int, dim: int) -> AlgebraDescriptor:
        return lorentz(dim - 1)

    def names(self, alg):
        return [f"x{k}" for k in range(alg.dim)]

    def to_matrices(self, alg, coords):
        raise ValueError("the Lorentz family has no matrix form")

    from_matrices = to_matrices

    def identity(self, alg):
        c = np.zeros(alg.dim)
        c[0] = 1.0
        return c

    def jordan(self, alg, a, b):
        a, b = np.broadcast_arrays(a, b)
        out = np.empty(a.shape)
        out[..., 0] = _row_sum(a * b)
        with np.errstate(invalid="ignore"):  # inf - inf on a row with an inf coordinate
            out[..., 1:] = a[..., :1] * b[..., 1:] + b[..., :1] * a[..., 1:]
        return out

    def inner(self, alg, a, b):
        return 2.0 * _row_sum(a * b)

    def trace(self, alg, a):
        return 2.0 * a[..., 0]

    def rank2_det(self, alg, a):
        return a[..., 0] ** 2 - _row_sum(a[..., 1:] ** 2)

    def _det(self, alg, s):
        """``rank2_det`` of rows ``s`` rescaled by :func:`_pow2_rows`, and nan
        on a row with an inf or nan coordinate, the only rows where it is
        not finite."""
        with np.errstate(invalid="ignore"):  # inf - inf on a row with two inf coordinates
            d = self.rank2_det(alg, s)
        return np.where(np.isfinite(d), d, np.nan)

    def eigen(self, alg, s):
        """The eigenvalues x0 - |xbar| and x0 + |xbar| of rows ``s``, rescaled
        by :func:`_pow2_rows`, in that order, and the frame data (xbar,
        |xbar|), from which :meth:`combine` forms the unit vector.

        The smaller eigenvalue comes first: the descending sort of
        :func:`_sorted_eigen` reverses a tie, so (1, +unit) / 2 is then the
        first idempotent of the spectral decomposition.
        """
        spatial = s[..., 1:]
        nrm = np.linalg.norm(spatial, axis=-1)
        with np.errstate(invalid="ignore"):  # inf - inf on a row with two inf coordinates
            return [s[..., 0] - nrm, s[..., 0] + nrm], (spatial, nrm)

    def combine(self, alg, weights, frame):
        """Coordinates of w- c- + w+ c+ = ((w+ + w-) / 2, (w+ - w-) / 2 unit),
        with c-+ = (1, -+unit) / 2 the idempotents of :meth:`eigen`'s
        eigenvalues, ``weights`` the pair (w-, w+) in their order, and unit
        = xbar / |xbar| from the frame (xbar, |xbar|), or the first spatial
        axis where |xbar| is not positive."""
        spatial, nrm = frame
        low, high = weights
        out = np.empty(spatial.shape[:-1] + (alg.dim,))
        with np.errstate(invalid="ignore"):  # inf / inf, inf - inf on a row with an inf entry
            if nrm.min() > 0:  # false on a nan norm too
                unit = spatial / nrm[..., None]
            else:
                unit = np.zeros_like(spatial)
                unit[..., 0] = 1.0
                np.divide(spatial, nrm[..., None], out=unit, where=nrm[..., None] > 0)
            out[..., 0] = (high + low) / 2.0
            out[..., 1:] = ((high - low) / 2.0)[..., None] * unit
        return out

    def factor(self, alg, a, want):
        """The arrays of rows ``a`` that ``want`` names, by name, from one
        rescaling by :func:`_pow2_rows`.

        "det" and "inverse" are closed forms on one :meth:`_det` of the
        rescaled rows.  "in_cone" is open-cone membership: the smaller
        eigenvalue x0 - |xbar| of the rescaled row, as :meth:`eigen` gives
        it, scaled back, is positive, and the row is finite, which the
        larger eigenvalue of its rescaled row is exactly when the row is.
        """
        s, k = _pow2_rows(a)
        got = {}
        if "in_cone" in want:
            (low, high), _ = self.eigen(alg, s)
            got["in_cone"] = (np.ldexp(low, k) > 0) & np.isfinite(high)
        if "det" in want or "inverse" in want:
            d = self._det(alg, s)
        if "det" in want:
            got["det"] = np.ldexp(d, 2 * k)
        if "inverse" in want:
            out = np.concatenate([s[..., :1], -s[..., 1:]], axis=-1)
            with np.errstate(invalid="ignore"):  # 0 / 0 at a zero coordinate of a row with det 0
                got["inverse"] = np.ldexp(out / d[..., None], -k[..., None])
        return got

    def quad_apply(self, alg, a, b):
        ab = self.jordan(alg, a, b)
        with np.errstate(invalid="ignore"):  # inf - inf on a row with an inf coordinate
            return 2.0 * self.jordan(alg, a, ab) - self.jordan(alg, self.jordan(alg, a, a), b)

    def norm(self, alg, c) -> float:
        return _SQRT2 * math.hypot(*c)

    def banded(self, alg, rng, n, lo, hi):
        lam = rng.uniform(lo, hi, size=(n, 2))
        g = rng.standard_normal((n, alg.dim - 1))
        return self.combine(alg, [lam[:, 1], lam[:, 0]], (g, np.linalg.norm(g, axis=-1)))


@lru_cache(maxsize=None)
def _offdiag_pairs(rank: int):
    """Column-major (i < j) off-diagonal index pairs, as two int arrays."""
    rows, cols = [], []
    for j in range(1, rank):
        for i in range(j):
            rows.append(i)
            cols.append(j)
    return np.array(rows, dtype=int), np.array(cols, dtype=int)


def _entry_dot(x, y):
    """Re(x conj(y)) of two off-diagonal entries, each a tuple of its real
    part and, over the complex field, its imaginary part."""
    return x[0] * y[0] if len(x) == 1 else x[0] * y[0] + x[1] * y[1]


def _entry_mul(x, y, conj=False):
    """x y, or x conj(y) with ``conj``, of two entries as :func:`_entry_dot`
    takes them, multiplied out in real arithmetic."""
    if len(x) == 1:
        return (x[0] * y[0],)
    if conj:
        return (x[0] * y[0] + x[1] * y[1], x[1] * y[0] - x[0] * y[1])
    return (x[0] * y[0] - x[1] * y[1], x[1] * y[0] + x[0] * y[1])


def _entry_sub(z, pairs, conj=False):
    """z minus the sum of x y, or of x conj(y) with ``conj``, over the
    pairs (x, y), all entries as :func:`_entry_dot` takes them."""
    for x, y in pairs:
        z = tuple(c - d for c, d in zip(z, _entry_mul(x, y, conj)))
    return z


def _entry_conj(x):
    """conj(x) of an entry as :func:`_entry_dot` takes it."""
    return x if len(x) == 1 else (x[0], -x[1])


# Cyclic Jacobi sweeps after which the loop stops, whether or not a row
# still rotates.  On 4000 banded, P(c)-conditioned or Gaussian (indefinite)
# rows the last rotation came in sweep 1 at rank 2, 4 at rank 3, 5 at rank 4
# and 5 or 6 at rank 5, so the cap is twice what rank 5 needs
_JACOBI_SWEEPS = 12


def _jacobi(r, w, diag, up):
    """Eigenvalues and eigenvectors of Hermitian r x r matrices by cyclic
    Jacobi rotations, vectorised over the batch.

    ``diag`` holds the r diagonal entries and ``up`` the entries (i, j),
    i < j, as :func:`_entry_dot` takes them, with w real parts per entry:
    coordinate-major arrays, as :meth:`_MatrixForm._eliminate` reads them.
    Returns the eigenvalues, a list of r arrays in no set order, and the
    eigenvector entries v[i, k], row i of eigenvector k, as entries.

    Rotation (p, q) takes the phase u = a_pq / |a_pq| into column q and
    then zeroes the entry by the real rotation of the smaller angle, t =
    tan theta = sign(tau) / (|tau| + sqrt(1 + tau^2)) with tau = (a_qq -
    a_pp) / (2 |a_pq|), which is 0 where tau^2 overflows.  A row is
    rotated only while |a_pq| > eps sqrt|a_pp| sqrt|a_qq|, the relative
    threshold with which Jacobi's eigenvalues of a positive definite matrix
    hold, each relative to itself, to eps times the condition number of the
    matrix scaled to unit diagonal, which can be far below its own (Demmel
    & Veselic 1992).  A row that is not rotated keeps every entry, bit for
    bit, so a row gives the same bits alone as inside a batch, where other
    rows may rotate longer.  At rank 2 one rotation diagonalises a row; the
    loop stops when a sweep rotates no row, or after ``_JACOBI_SWEEPS``
    sweeps.  A nan row never rotates, and a row with an inf entry comes
    back non-finite.  Every step is elementwise, so the caller sets the
    floating-point error state: the rows that do not rotate divide by 0.
    """
    shape = np.shape(diag[0])
    vec = {(i, k): (np.full(shape, float(i == k)),) + (np.zeros(shape),) * (w - 1)
           for i in range(r) for k in range(r)}

    def entry(i, j):
        return up[i, j] if i < j else _entry_conj(up[j, i])

    def store(i, j, x):
        if i < j:
            up[i, j] = x
        else:
            up[j, i] = _entry_conj(x)

    for _ in range(_JACOBI_SWEEPS):
        moved = False
        for p, q in zip(*_offdiag_pairs(r)):
            apq = up[p, q]
            size = np.abs(apq[0]) if w == 1 else np.sqrt(_entry_dot(apq, apq))
            rotate = size > _EPS * np.sqrt(np.abs(diag[p])) * np.sqrt(np.abs(diag[q]))
            if not rotate.any():
                continue
            moved = True
            every = rotate.all()

            def keep(new, old):
                """``new`` on the rotated rows, ``old`` on the others."""
                if every:
                    return new
                return tuple(np.where(rotate, a, b) for a, b in zip(new, old))

            tau = (diag[q] - diag[p]) / (2.0 * size)
            t = np.copysign(1.0 / (np.abs(tau) + np.sqrt(1.0 + tau * tau)), tau)
            cos = 1.0 / np.sqrt(1.0 + t * t)
            sin = t * cos
            phase = _entry_conj(tuple(x / size for x in apq))

            def turn(xp, xq):
                """x_kp' = cos x_kp - sin y and x_kq' = sin x_kp + cos y,
                with y = conj(u) x_kq, on row k of the matrix or of the
                eigenvectors."""
                y = _entry_mul(phase, xq)
                return (keep(tuple(cos * a - sin * b for a, b in zip(xp, y)), xp),
                        keep(tuple(sin * a + cos * b for a, b in zip(xp, y)), xq))

            for k in range(r):
                if k not in (p, q):
                    new_p, new_q = turn(entry(k, p), entry(k, q))
                    store(k, p, new_p)
                    store(k, q, new_q)
                vec[k, p], vec[k, q] = turn(vec[k, p], vec[k, q])
            shift = t * size
            diag[p], diag[q] = keep((diag[p] - shift, diag[q] + shift), (diag[p], diag[q]))
            up[p, q] = keep((np.zeros(shape),) * w, apq)
        if not moved:
            break
    return diag, vec


def _inside(piv):
    """Whether every pivot (:meth:`_MatrixForm._eliminate`) of a row is
    positive and finite: the open-cone test of :meth:`_MatrixForm.factor`,
    which also sends the rows outside to the spectral calculus.  A nan
    pivot, as one past a zero pivot may be, is neither, so its row is
    outside."""
    return reduce(np.logical_and, [(p > 0) & (p < np.inf) for p in piv])


class _MatrixForm:
    """Kernels of the Hermitian r x r matrices over ``field`` (float or
    complex).  A complex off-diagonal entry takes two coordinates, real part
    first.

    Open-cone membership, the determinant and the inverse of a point set
    come from one elimination, s = L D L* (:meth:`factor`), written once for
    every rank, on the coordinates with no matrix built: det is the product
    of the pivots and s^-1 = M* D^-1 M with M = L^-1.  Complex entries are
    multiplied out in real and imaginary parts, so a row gives the same
    bits alone as inside a batch.  On the
    open cone every pivot is positive and the elimination is backward
    stable, so the error of both is within a small multiple of eps times
    the condition number.  A finite row with a non-positive pivot takes
    det from its eigenvalues and the inverse U diag(1/w) U* from the
    spectral calculus that the square root uses; a row with an inf or nan
    coordinate gives nan.  Both run on rows rescaled by :func:`_pow2_rows`
    and scale the result back, so an inverse holds from 1e-300 to 1e300
    and a determinant outside the double range is inf or 0.  An exactly
    singular row gives det 0 and a non-finite inverse row, as on the spin
    factor.  Open-cone membership reads the same pivots.

    The two spectral methods are :meth:`eigen`, the eigenvalues and
    eigenvectors U from :func:`_jacobi`, cyclic Jacobi rotations on the
    entries that the elimination reads, at every rank, and :meth:`combine`,
    U diag(w) U* for weights w; the module's spectral functions are written
    on them.  The Jordan product and P(x)y are real matrix products in the
    real form (:func:`_real_form`), run over blocks of rows whose R x R
    temporaries stay within ``_BLOCK_BYTES`` (:meth:`_RealForm.product`):
    the temporaries of a whole batch are fresh memory that page-faults on
    every call and leaves the cache.
    """

    def __init__(self, field, make):
        self.field = field
        self._make = make  # the descriptor constructor, from the rank

    def descriptor(self, rank: int, dim: int) -> AlgebraDescriptor:
        return self._make(rank)

    def names(self, alg):
        names = [f"d{i + 1}" for i in range(alg.rank)]
        for i, j in zip(*_offdiag_pairs(alg.rank)):
            names.append(f"s{i + 1}_{j + 1}")
            if self.field is complex:
                names.append(f"a{i + 1}_{j + 1}")
        return names

    def to_matrices(self, alg, coords):
        coords = np.asarray(coords, dtype=float)
        r = alg.rank
        diag = np.arange(r)
        m = np.zeros(coords.shape[:-1] + (r, r), dtype=self.field)
        m[..., diag, diag] = coords[..., :r]
        if r > 1:
            rows, cols = _offdiag_pairs(r)
            if self.field is complex:
                off = (coords[..., r::2] + 1j * coords[..., r + 1 :: 2]) / _SQRT2
            else:
                off = coords[..., r:] / _SQRT2
            m[..., rows, cols] = off
            m[..., cols, rows] = off.conj()
        return m

    def from_matrices(self, alg, mats):
        """Coordinates of Hermitian matrices, read from the diagonal and the
        upper triangle."""
        mats = np.asarray(mats)
        r = alg.rank
        out = np.empty(mats.shape[:-2] + (alg.dim,))
        out[..., :r] = np.diagonal(mats, axis1=-2, axis2=-1).real  # a view, not a copy
        rows, cols = _offdiag_pairs(r)
        upper = mats[..., rows, cols]
        if self.field is complex:
            out[..., r::2] = _SQRT2 * upper.real
            out[..., r + 1 :: 2] = _SQRT2 * upper.imag
        else:
            out[..., r:] = _SQRT2 * upper.real
        return out

    def identity(self, alg):
        c = np.zeros(alg.dim)
        c[: alg.rank] = 1.0
        return c

    def jordan(self, alg, a, b):
        """x o y = (P + P*) / 2 with P = XY, as YX = (XY)* for Hermitian X
        and Y: one real matrix product in the real form (:func:`_real_form`)."""
        return _real_form(alg).product(np.matmul, a, b)

    def inner(self, alg, a, b):
        return _row_sum(a * b)

    def trace(self, alg, a):
        return _row_sum(a[..., : alg.rank])

    def _entries(self, alg, s):
        """The diagonal entries, a list, and the upper entries (i, j), a dict,
        of the matrices of rows ``s``, as coordinate-major arrays; each upper
        entry is a tuple as :func:`_entry_dot` takes it."""
        r, w, c = alg.rank, alg.peirce, np.moveaxis(s, -1, 0)
        # an off-diagonal entry has w coordinates, each sqrt 2 times its part
        off = [x / _SQRT2 for x in c[r:]]
        return list(c[:r]), {ij: tuple(off[w * n:w * n + w])
                             for n, ij in enumerate(zip(*_offdiag_pairs(r)))}

    def _eliminate(self, alg, s):
        """The pivots and the upper entries of L* of rows ``s``.

        The factor is s = L D L*, the elimination without pivoting, with L
        unit lower triangular and D the diagonal of the pivots.  Step i
        divides row i of what is left of s by its pivot, which gives row i
        of L*, and subtracts the outer product of the two rows from the rows
        below.  The upper entries (i, j) of L* come as :func:`_entry_dot`
        takes them.  The caller sets the floating-point error state.
        """
        r = alg.rank
        piv, up = self._entries(alg, s)
        for i in range(r):
            for j in range(i + 1, r):
                lt = tuple(x / piv[i] for x in up[i, j])
                piv[j] = piv[j] - _entry_dot(lt, up[i, j])
                for m in range(j + 1, r):
                    up[j, m] = _entry_sub(up[j, m], [(up[i, m], lt)], conj=True)
                up[i, j] = lt
        return piv, up

    def factor(self, alg, a, want):
        """The arrays of rows ``a`` that ``want`` names, by name, from one
        rescaling by :func:`_pow2_rows` and one elimination
        (:meth:`_eliminate`) of the rescaled rows: "in_cone", "det" and
        "inverse".

        "in_cone" is open-cone membership, every pivot positive and finite
        (:func:`_inside`).  On a finite row that is Sylvester's criterion; a
        finite row on the open cone has finite pivots, as each is at most
        its diagonal entry.  A non-finite coordinate makes a pivot
        non-finite or negative: an inf or nan diagonal entry stays in its
        pivot, and an off-diagonal one (i, j) subtracts inf or nan from
        pivot j at step i.  So a row with an inf coordinate, whose other
        pivots may all be positive, is outside, as is a nan row.

        On the open cone the elimination is backward stable: "det" is the
        product of the pivots, and "inverse" is M* D^-1 M
        (:meth:`_ldl_inverse`), which runs only when it is wanted.  A row
        outside takes det from its eigenvalues and the inverse from the
        spectral calculus if it is finite, and nan if it has an inf or nan
        coordinate.
        """
        s, k = _pow2_rows(a)
        with np.errstate(all="ignore"):  # a row off the cone may overflow or divide by 0
            piv, up = self._eliminate(alg, s)
            inside = _inside(piv)
            got = {"in_cone": inside}
            if "det" in want:  # one row gives a numpy scalar, at rank 1 a view of s
                got["det"] = np.asarray(reduce(np.multiply, piv))
            if "inverse" in want:
                got["inverse"] = self._ldl_inverse(alg, piv, up)
        replaced = [name for name in ("det", "inverse") if name in want]
        if replaced and not inside.all():
            finite = np.isfinite(s).all(axis=-1)
            # one eigen of these rows for both, read before a det that views s
            # is set; they are rescaled already, so det and inverse have the
            # bits of _sorted_eigen and _spectral_map on them
            w, vec = self.eigen(alg, s[~inside & finite])
            spectral = {"det": lambda: np.prod(np.sort(np.stack(w, axis=-1))[..., ::-1], axis=-1),
                        "inverse": lambda: self.combine(alg, [np.reciprocal(x) for x in w], vec)}
            for name in replaced:
                got[name][~inside & ~finite] = np.nan
                got[name][~inside & finite] = spectral[name]()
        if "det" in want:
            got["det"] = np.ldexp(got["det"], alg.rank * k)
        if "inverse" in want:
            got["inverse"] = np.ldexp(got["inverse"], -k[..., None])
        return got

    def _ldl_inverse(self, alg, piv, up):
        """Coordinates of s^-1 = M* D^-1 M, with M = L^-1, from the pivots
        and the entries of L* that :meth:`_eliminate` gives."""
        r = alg.rank
        # p: minus the upper entries of M* = (L*)^-1 by back substitution,
        # column by column; q: those entries divided by the pivot of their column
        p = {}
        for k in range(r):
            for j in reversed(range(k)):
                p[j, k] = _entry_sub(up[j, k], [(up[j, i], p[i, k]) for i in range(j + 1, k)])
        q = {(j, k): tuple(c / piv[k] for c in e) for (j, k), e in p.items()}
        coords = [sum((_entry_dot(q[j, i], p[j, i]) for i in range(j + 1, r)), 1.0 / piv[j])
                  for j in range(r)]
        for j, k in zip(*_offdiag_pairs(r)):
            e = _entry_sub(q[j, k], [(q[j, i], p[k, i]) for i in range(k + 1, r)], conj=True)
            coords += [-_SQRT2 * c for c in e]
        return np.stack(coords, axis=-1)

    def rank2_det(self, alg, a):
        """Closed-form determinant at rank 2: d1 d2 - |off|^2 / 2."""
        return a[..., 0] * a[..., 1] - 0.5 * _row_sum(a[..., 2:] ** 2)

    def quad_apply(self, alg, a, b):
        """P(x)y = XYX: two real matrix products in the real form."""
        return _real_form(alg).product(lambda ea, eb: ea @ eb @ ea, a, b)

    def eigen(self, alg, s):
        """The eigenvalues, a list of r arrays in no set order, and the
        eigenvectors of rows ``s``, rescaled by :func:`_pow2_rows`, from
        :func:`_jacobi`."""
        with np.errstate(all="ignore"):  # tau^2 may overflow, to t = 0; see _jacobi
            return _jacobi(alg.rank, alg.peirce, *self._entries(alg, s))

    def combine(self, alg, weights, vec):
        """Coordinates of U diag(weights) U*, with ``vec`` the entries of U
        as :meth:`eigen` gives them and ``weights`` r arrays in its order."""
        r = alg.rank
        with np.errstate(invalid="ignore"):  # inf times 0 on a row with an inf eigenvalue
            scaled = {(i, k): tuple(weights[k] * x for x in vec[i, k])
                      for i in range(r) for k in range(r)}
            coords = [reduce(np.add, [_entry_dot(scaled[i, k], vec[i, k]) for k in range(r)])
                      for i in range(r)]
            for i, j in zip(*_offdiag_pairs(r)):
                terms = [_entry_mul(scaled[i, k], vec[j, k], conj=True) for k in range(r)]
                coords += [_SQRT2 * reduce(np.add, part) for part in zip(*terms)]
        return np.stack(coords, axis=-1)

    def norm(self, alg, c) -> float:
        return math.hypot(*c)

    def banded(self, alg, rng, n, lo, hi):
        """lam_r e + sum_{j<r} (lam_j - lam_r) q_j q_j*, with q_j the columns
        that modified Gram-Schmidt makes of a Gaussian matrix g.  They equal
        the QR columns of g up to a phase each, which q_j q_j* does not see."""
        r = alg.rank
        g = rng.standard_normal((n, r, r))
        if self.field is complex:
            g = g + 1j * rng.standard_normal((n, r, r))
        lam = rng.uniform(lo, hi, size=(n, r))
        x = lam[:, -1:] * self.identity(alg)
        q = []
        for j in range(r - 1):
            v = g[:, :, j]
            for u in q:
                v = v - np.sum(u.conj() * v, axis=-1, keepdims=True) * u
            v = v / np.sqrt(np.sum(v.real ** 2 + v.imag ** 2, axis=-1, keepdims=True))
            q.append(v)
            outer = v[:, :, None] * v[:, None, :].conj()
            x += (lam[:, j] - lam[:, -1])[:, None] * self.from_matrices(alg, outer)
        return x


_KERNELS = {
    Kind.SYM_REAL: _MatrixForm(float, sym_real),
    Kind.HERM_COMPLEX: _MatrixForm(complex, herm_complex),
    Kind.LORENTZ: _SpinFactor(),
}


def kernels(alg: AlgebraDescriptor):
    """The kernel-table entry of ``alg``'s kind.

    Its ``field`` is the scalar type of the matrix form (``float`` or
    ``complex``), or ``None`` for the spin factor, which has none.
    """
    return _KERNELS[alg.kind]


# ---------------------------------------------------------------------------
# Spectral calculus: x = sum_j lam_j c_j and f(x) = sum_j f(lam_j) c_j on
# every kind, from its two spectral methods, eigen and combine
# ---------------------------------------------------------------------------

def _sorted_eigen(alg: AlgebraDescriptor, a):
    """The eigenvalues of rows ``a``, descending, an array (..., r); per
    row, the indices that put the kind's ``eigen`` list of them in that
    order; and the frame data of ``eigen``.  ``eigen`` runs on the rows
    rescaled by :func:`_pow2_rows`, and the eigenvalues are scaled back."""
    s, k = _pow2_rows(a)
    w, frame = _KERNELS[alg.kind].eigen(alg, s)
    w = np.stack(w, axis=-1)
    order = np.argsort(w, axis=-1)[..., ::-1]
    return np.ldexp(np.take_along_axis(w, order, axis=-1), k[..., None]), order, frame


def _spectral_map(alg: AlgebraDescriptor, s, f):
    """Coordinates of sum_j f(w_j) c_j, with sum_j w_j c_j the spectral
    decomposition (the kind's ``eigen``) of rows ``s``, rescaled by
    :func:`_pow2_rows`; f maps each eigenvalue array elementwise."""
    kind = _KERNELS[alg.kind]
    w, frame = kind.eigen(alg, s)
    return kind.combine(alg, [f(x) for x in w], frame)


# ---------------------------------------------------------------------------
# Canonical basis bookkeeping
# ---------------------------------------------------------------------------

def coordinate_names(alg: AlgebraDescriptor) -> list[str]:
    """Names of the canonical coordinates, in basis order."""
    return _KERNELS[alg.kind].names(alg)


def coords_to_matrices(alg: AlgebraDescriptor, coords) -> np.ndarray:
    """Coordinate array (..., dim) -> matrix array (..., rank, rank)."""
    return _KERNELS[alg.kind].to_matrices(alg, coords)


def matrices_to_coords(alg: AlgebraDescriptor, mats) -> np.ndarray:
    """Matrix array (..., rank, rank) -> coordinate array (..., dim).

    Only the diagonal and upper triangle are read, so feeding a matrix that
    is Hermitian up to rounding implicitly symmetrizes it.
    """
    return _KERNELS[alg.kind].from_matrices(alg, mats)


def to_matrix(x: Element) -> np.ndarray:
    """Matrix form of an element of one of the two matrix families."""
    return coords_to_matrices(x.algebra, x.coords)


def from_matrix(alg: AlgebraDescriptor, mat) -> Element:
    """Element from a (near-)Hermitian matrix; rejects asymmetry above
    HERMITIAN_ATOL (relative to 1 + max |entry|).

    For ``sym-real`` the matrix must also be real: an imaginary part above
    that bound is rejected instead of being dropped.  A NaN or infinite entry is
    rejected too.
    """
    mat = np.asarray(mat)
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has a NaN or infinite entry")
    herm_defect = np.max(np.abs(mat - mat.conj().swapaxes(-1, -2)))
    scale = 1.0 + np.max(np.abs(mat))
    if herm_defect > HERMITIAN_ATOL * scale:
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
    if _KERNELS[alg.kind].field is float and np.iscomplexobj(mat):
        imag = np.max(np.abs(mat.imag))
        if imag > HERMITIAN_ATOL * scale:
            raise ValueError(f"sym-real matrix has an imaginary part ({imag:.3e})")
    return Element(alg, matrices_to_coords(alg, mat))


def canonical_basis(alg: AlgebraDescriptor) -> list[Element]:
    """The canonical orthonormal basis as a list of elements."""
    return [Element(alg, row) for row in np.eye(alg.dim)]


# ---------------------------------------------------------------------------
# Batched core operations (leading axes index independent elements)
# ---------------------------------------------------------------------------

def batch_jordan(alg: AlgebraDescriptor, a, b) -> np.ndarray:
    """Jordan product of coordinate arrays, broadcasting leading axes."""
    return _KERNELS[alg.kind].jordan(alg, np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def batch_inner(alg: AlgebraDescriptor, a, b) -> np.ndarray:
    """Trace inner product of coordinate arrays."""
    return _KERNELS[alg.kind].inner(alg, np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def batch_trace(alg: AlgebraDescriptor, a) -> np.ndarray:
    return _KERNELS[alg.kind].trace(alg, np.asarray(a, dtype=float))


def _factor(alg: AlgebraDescriptor, a, *want) -> tuple:
    """The arrays of rows ``a`` that ``want`` names, in its order, each
    with the bits of its public function: "in_cone" (:func:`batch_in_cone`),
    "det" (:func:`batch_det`) and "inverse" (:func:`batch_inverse`).

    They come from one rescaling by :func:`_pow2_rows` and, on the matrix
    kinds, one elimination, with the inverse's back substitution only when
    it is wanted; a caller that needs two of them for one point set takes
    both from one call.  Nothing of the factorization outlives the call.
    """
    got = _KERNELS[alg.kind].factor(alg, np.asarray(a, dtype=float), want)
    return tuple(got[name] for name in want)


def batch_det(alg: AlgebraDescriptor, a) -> np.ndarray:
    return _factor(alg, a, "det")[0]


def batch_eigenvalues(alg: AlgebraDescriptor, a) -> np.ndarray:
    """Spectral eigenvalues, sorted descending, shape (..., rank), from the
    kind's ``eigen`` (batched Jacobi rotations, :func:`_jacobi`, on the
    matrix kinds, x0 -+ |xbar| on the spin factor).  A row with an inf or
    nan coordinate gives a non-finite row."""
    return _sorted_eigen(alg, np.asarray(a, dtype=float))[0]


def batch_inverse(alg: AlgebraDescriptor, a) -> np.ndarray:
    """Inverse of coordinate arrays; assumes invertibility (no threshold)."""
    return _factor(alg, a, "inverse")[0]


def batch_quad_apply(alg: AlgebraDescriptor, a, b) -> np.ndarray:
    """Quadratic operator of ``a`` applied to ``b``: 2 a(ab) - (aa)b."""
    return _KERNELS[alg.kind].quad_apply(
        alg, np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    )


# Bytes of each R x R temporary (an embedded operand or a product) in one
# block of real-form rows (:meth:`_RealForm.product`).  The temporaries of a
# whole batch, 1.2 MB each for 4000 herm-complex r = 3 rows, are fresh
# mappings that page-fault on every call and fall out of the L2 cache;
# those of a block stay in the cache, and the allocator reuses their
# memory.  One identity-sweep pass (4000 rows per check) page-faulted about
# 9 300 times unblocked, 2 400-2 500 times at 64 or 128 KiB, 4 900 at
# 256 KiB and 15 000 at 384 KiB
_BLOCK_BYTES = 128 * 1024


@dataclass(frozen=True, eq=False)
class _RealForm:
    """A matrix algebra inside the real R x R matrices; see :func:`_real_form`."""

    put: np.ndarray  # (dim, R^2): the flattened embedding of each basis element
    size: int  # R
    first: np.ndarray  # (dim,) positions in a flattened product, and the scales
    second: np.ndarray
    scale: np.ndarray
    block: int  # rows per block of :meth:`product`, from _BLOCK_BYTES

    def embed(self, a):
        """The real matrices E(x) of coordinate rows ``a``."""
        return (a @ self.put).reshape(a.shape[:-1] + (self.size, self.size))

    def read(self, p):
        """Coordinates of the Hermitian part of real-form matrices ``p``."""
        flat = p.reshape(p.shape[:-2] + (-1,))
        return flat[..., self.first] * self.scale + flat[..., self.second] * self.scale

    def product(self, f, a, b):
        """Coordinates read from f(E(a), E(b)), a product of real-form
        matrices, of coordinate rows ``a`` and ``b`` broadcast against each
        other.

        The rows run in blocks of ``block``, and each block's coordinates
        fill its rows of one output array.  Embedding, product and readout
        are row-wise, so a row gets the same bits in any block as alone.
        The output is coordinate-major, as :meth:`read` leaves a whole
        batch, so that a sum over its coordinates keeps its bits: numpy
        adds a strided axis in turn and a contiguous one pairwise.
        """
        shape = np.broadcast_shapes(a.shape, b.shape)
        a, b = (np.broadcast_to(x, shape).reshape(-1, shape[-1]) for x in (a, b))
        out = np.empty(a.shape[::-1])
        for start in range(0, len(a), self.block):
            rows = slice(start, start + self.block)
            with np.errstate(invalid="ignore"):  # inf times 0 on a row with an inf coordinate
                out.T[rows] = self.read(f(self.embed(a[rows]), self.embed(b[rows])))
        return np.moveaxis(out.reshape(shape[-1:] + shape[:-1]), 0, -1)


@lru_cache(maxsize=None)
def _real_form(alg: AlgebraDescriptor) -> _RealForm:
    """The real form of a matrix algebra, in which its products run as real
    matrix products.

    X is embedded as itself on sym-real (R = r) and as [[Re X, -Im X],
    [Im X, Re X]] on herm-complex (R = 2r), a real *-homomorphism: E(X)E(Y)
    = E(XY) and E(X*) = E(X)^T (Faraut & Koranyi, ch. V).  E(x) is x @ put.
    Every column of ``put`` has at most one nonzero, +-1 or the double
    nearest +-1/sqrt 2, so that product is exact and gives a row the same
    bits alone as inside a batch.

    Coordinate c of the Hermitian part (P + P*) / 2 of a product P is read
    elementwise as p[first] * scale + p[second] * scale from its flattened
    real form p, at the first two positions where the embedded basis
    element e_c is positive: two copies of an entry of P, or of an entry
    and its mirror (the one diagonal position twice on sym-real).  Scaling
    before the sum keeps a diagonal entry of P in the top binade finite; a
    sym-real diagonal entry is read exactly unless it is subnormal.  A BLAS
    readout would not keep the bits of a row inside a batch.
    """
    m = _KERNELS[alg.kind].to_matrices(alg, np.eye(alg.dim))
    if np.iscomplexobj(m):
        m = np.block([[m.real, -m.imag], [m.imag, m.real]])
    size = m.shape[-1]
    # an off-diagonal entry is a coordinate over sqrt 2, which to_matrices
    # divides out; its coefficient is set to the nearest double
    put = np.sign(m) * np.where(np.abs(m) == 1.0, 1.0, _SQRT2 / 2.0)
    put = put.reshape(alg.dim, size * size)
    # the first two positive positions of each row, or its one twice; the
    # coordinate is their sum times 1/(2v), v the coefficient there, taken
    # in doubles rather than as the nearest 1/sqrt 2, so that the rounding
    # of v cancels instead of biasing every off-diagonal coordinate
    first, second = np.array([(pos[0], pos[:2][-1])
                              for pos in (np.flatnonzero(row > 0) for row in put)]).T
    scale = 0.5 / put.max(axis=1)
    for a in (put, first, second, scale):
        a.setflags(write=False)
    return _RealForm(put, size, first, second, scale, max(1, _BLOCK_BYTES // (8 * size * size)))


@lru_cache(maxsize=None)
def _structure_tensor(alg: AlgebraDescriptor) -> np.ndarray:
    """The operators L(e_k) of the basis elements, shape (dim, dim, dim):
    entry (k, i, j) is coordinate i of e_k o e_j.

    In the orthonormal bases of these algebras every such constant is 0,
    +-1, +-1/2 or +-1/(2 sqrt 2).  ``batch_jordan`` on the basis gives them
    with its rounding (0.4999999999999999 for 1/2), so each is set to the
    nearest of those values, as a double.
    """
    basis = np.eye(alg.dim)
    t = batch_jordan(alg, basis[:, None, :], basis).swapaxes(-1, -2)
    exact = np.array([0.0, _SQRT2 / 4.0, 0.5, 1.0])  # sqrt 2 / 4 is 1/(2 sqrt 2) rounded
    nearest = np.abs(np.abs(t)[..., None] - exact).argmin(axis=-1)
    t = np.copysign(exact[nearest], t)
    t.setflags(write=False)
    return t


def batch_lmap(alg: AlgebraDescriptor, a) -> np.ndarray:
    """Multiplication operators L(a): y -> a o y, shape (..., dim, dim).

    L(a) is linear in a, so it is the sum of a_k L(e_k) over the structure
    tensor's operators.  ``einsum`` adds the terms in a fixed order, which
    no BLAS build changes.
    """
    return np.einsum("...k,kij->...ij", np.asarray(a, dtype=float), _structure_tensor(alg))


def batch_quad_rep(alg: AlgebraDescriptor, a) -> np.ndarray:
    """Quadratic representations P(a) = 2 L(a)^2 - L(a o a), shape (..., dim, dim)."""
    la = batch_lmap(alg, a)
    laa = batch_lmap(alg, batch_jordan(alg, a, a))
    with np.errstate(invalid="ignore"):  # inf times 0, inf - inf on a row with an inf coordinate
        return 2.0 * la @ la - laa


def batch_sqrt(alg: AlgebraDescriptor, a) -> np.ndarray:
    """Spectral square root sum_j sqrt(lam_j) c_j, from the kind's ``eigen``
    and ``combine``; raises NotInConeError when an eigenvalue of a row is
    not positive.  An inf or nan row gives a non-finite row.

    It runs on rows rescaled by an even power of two, 4^m, and scales back
    by 2^m, so that sqrt(4^m x) = 2^m sqrt(x) bit for bit.
    """
    s, k = _pow2_rows(np.asarray(a, dtype=float), even=True)
    return np.ldexp(_spectral_map(alg, s, _positive_sqrt), (k // 2)[..., None])


def batch_in_cone(alg: AlgebraDescriptor, a) -> np.ndarray:
    """Boolean mask of membership in the open cone, with no LAPACK call.

    A row is inside when its coordinates are finite and, on the matrix
    kinds, every pivot of the L D L* elimination that det and inverse use
    is positive (Sylvester's criterion), or, on the spin factor, its
    smaller eigenvalue x0 - |xbar| is positive.  Where the condition number
    is far below 1/eps this agrees with the sign of the least eigenvalue;
    near the boundary both are rounding.  A nan or inf row is outside.
    """
    return _factor(alg, a, "in_cone")[0]


# ---------------------------------------------------------------------------
# Element-level operations
# ---------------------------------------------------------------------------

def identity(alg: AlgebraDescriptor) -> Element:
    """The neutral element: identity matrix, or (1, 0, ..., 0) for Lorentz."""
    return Element(alg, _KERNELS[alg.kind].identity(alg))


def zero(alg: AlgebraDescriptor) -> Element:
    return Element(alg, np.zeros(alg.dim))


def jordan_product(x: Element, y: Element) -> Element:
    """Commutative Jordan product x o y."""
    alg = _require_same(x, y)
    return Element(alg, batch_jordan(alg, x.coords, y.coords))


def inner(x: Element, y: Element) -> float:
    """Trace inner product <x, y> = trace(x o y)."""
    alg = _require_same(x, y)
    return float(batch_inner(alg, x.coords, y.coords))


def norm(x: Element) -> float:
    """sqrt(<x, x>) by a scaled sum (``math.hypot``), which neither
    underflows nor overflows unless the norm itself does."""
    return _KERNELS[x.algebra.kind].norm(x.algebra, x.coords)


def trace(x: Element) -> float:
    """Sum of spectral eigenvalues."""
    return float(batch_trace(x.algebra, x.coords))


def det(x: Element) -> float:
    """Product of spectral eigenvalues."""
    return float(batch_det(x.algebra, x.coords))


def eigenvalues(x: Element) -> np.ndarray:
    """Spectral eigenvalues of x, sorted descending."""
    return batch_eigenvalues(x.algebra, x.coords)


def in_cone(x: Element) -> bool:
    """True iff x lies in the open cone, as :func:`batch_in_cone` decides it."""
    return bool(batch_in_cone(x.algebra, x.coords))


def inverse(x: Element) -> Element:
    """Spectral inverse; raises SingularElementError near-singular elements.

    The cutoff is SINGULAR_RTOL * max |eigenvalue|, so it scales with the
    element and a multiple of the identity is never singular.
    """
    lam = eigenvalues(x)
    if np.min(np.abs(lam)) <= SINGULAR_RTOL * float(np.max(np.abs(lam))):
        raise SingularElementError(
            f"eigenvalue magnitude {np.min(np.abs(lam)):.3e} below cutoff"
        )
    return Element(x.algebra, batch_inverse(x.algebra, x.coords))


def sqrt(x: Element) -> Element:
    """Spectral square root of a point of the open cone."""
    return Element(x.algebra, batch_sqrt(x.algebra, x.coords))


def quad_apply(x: Element, y: Element) -> Element:
    """Quadratic operator of x applied to y (x y x for matrix kinds)."""
    alg = _require_same(x, y)
    return Element(alg, batch_quad_apply(alg, x.coords, y.coords))


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """A linear map on the algebra as a real dim x dim coordinate matrix."""

    algebra: AlgebraDescriptor
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (self.algebra.dim, self.algebra.dim):
            raise ValueError(f"operator matrix has shape {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def apply(self, y: Element) -> Element:
        if y.algebra != self.algebra:
            raise AlgebraMismatchError("operator and element algebras differ")
        return Element(self.algebra, self.matrix @ y.coords)

    def det(self) -> float:
        """Determinant of the operator on the coordinate space."""
        return float(np.linalg.det(self.matrix))


def lmap(x: Element) -> LinearOperator:
    """Multiplication operator L(x): y -> x o y, as a coordinate matrix."""
    return LinearOperator(x.algebra, batch_lmap(x.algebra, x.coords))


def quad_rep(x: Element) -> LinearOperator:
    """Quadratic representation P(x) = 2 L(x)^2 - L(x o x)."""
    return LinearOperator(x.algebra, batch_quad_rep(x.algebra, x.coords))


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (descending) plus a complete orthogonal idempotent system."""

    eigenvalues: np.ndarray
    idempotents: list[Element]

    def reconstruct(self) -> Element:
        alg = self.idempotents[0].algebra
        coords = np.zeros(alg.dim)
        for lam, c in zip(self.eigenvalues, self.idempotents):
            coords = coords + lam * c.coords
        return Element(alg, coords)


def spectral_decomposition(x: Element) -> SpectralDecomposition:
    """Decompose x as a sum of eigenvalues times primitive idempotents.

    The eigenvalues come from the kind's ``eigen``, sorted descending, and
    idempotent c_j is its ``combine`` with weight 1 on eigenvalue j and 0 on
    the others.  On the spin factor these are the closed forms
    (1, +-xbar/|xbar|) / 2; when the spatial part vanishes any orthogonal
    idempotent pair is valid and the pair built from the first spatial axis
    is returned, (1, +e1) / 2 first.  The matrix families take them from
    Jacobi rotations (:func:`_jacobi`); repeated eigenvalues yield an
    arbitrary orthonormal completion.
    """
    alg = x.algebra
    lam, order, frame = _sorted_eigen(alg, x.coords)
    weights = np.eye(alg.rank)
    return SpectralDecomposition(
        lam, [Element(alg, _KERNELS[alg.kind].combine(alg, weights[j], frame)) for j in order])


# ---------------------------------------------------------------------------
# Random draws
# ---------------------------------------------------------------------------

def random_element(alg: AlgebraDescriptor, rng: np.random.Generator) -> Element:
    """Standard Gaussian coordinates."""
    return Element(alg, rng.standard_normal(alg.dim))


def random_elements(alg: AlgebraDescriptor, rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, alg.dim))


def random_cone_point(
    alg: AlgebraDescriptor, rng: np.random.Generator, spread: float = 1.0
) -> Element:
    """A point of the open cone: square of a Gaussian element plus a jitter.

    The jitter 1e-9 * (1 + spread^2) * e keeps the draw strictly inside the
    cone even when the Gaussian square is nearly singular.
    """
    g = spread * rng.standard_normal(alg.dim)
    c = batch_jordan(alg, g, g)
    eps = 1e-9 * (1.0 + spread * spread)
    return Element(alg, c + eps * identity(alg).coords)


def random_cone_points_banded(
    alg: AlgebraDescriptor,
    rng: np.random.Generator,
    n: int,
    lo: float = 0.2,
    hi: float = 5.0,
) -> np.ndarray:
    """Cone points with eigenvalues uniform in [lo, hi]; shape (n, dim).

    Used by identity checks to keep inversions and determinants away from
    ill-conditioned regimes.
    """
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    return _KERNELS[alg.kind].banded(alg, rng, n, lo, hi)


def random_cone_point_banded(
    alg: AlgebraDescriptor,
    rng: np.random.Generator,
    lo: float = 0.2,
    hi: float = 5.0,
) -> Element:
    return Element(alg, random_cone_points_banded(alg, rng, 1, lo, hi)[0])
