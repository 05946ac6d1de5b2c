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

Determinants and inverses are closed forms on the spin factor.  The matrix
kinds take both from one L D L* elimination at every rank, complex entries
multiplied out in real arithmetic: det is the product of the pivots, and
the error of both stays within a small multiple of eps times the condition
number.  The same pivots decide open-cone membership (Sylvester's
criterion), with no LAPACK call.  Rows with a non-positive pivot lie off
the open cone and take det and inverse from LAPACK's eigendecomposition,
as every row takes its eigenvalues and square root.  Determinants and
inverses run on rows rescaled by a power of two and scale the result
back, so an inverse holds from 1e-300 to 1e300 and a determinant outside
the double range is inf or 0, never nan.  Banded
cone points come from Gram-Schmidt, with no LAPACK call.  The
multiplication operators L(a) are contracted from each algebra's structure
tensor, the operators of its basis elements.

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
    if np.min(lam) <= 0:
        raise NotInConeError("square root requires strictly positive eigenvalues")
    return np.sqrt(lam)


def _pow2_rows(a):
    """Rows of ``a`` divided by 2^k, with 2^k the power of two just above
    their largest |coordinate|, and the exponents k.

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


def _coordinate_sum(sq, out):
    """A function that writes to ``out`` the sum of ``sq`` over its first
    axis, with the bits ``np.add.reduce`` gives each row of the layout that
    has that axis last; the views it reads are bound here, once.

    numpy sums a contiguous row of fewer than 8 doubles from left to right,
    as adding the slices sq[0], sq[1], ... in turn does.  From 8 on it sums
    in 8 unrolled accumulators, so those rows are summed by numpy itself,
    on a copy with the summed axis last.
    """
    if len(sq) >= 8:
        moved = sq.transpose(*range(1, sq.ndim), 0)
        rows = np.empty(moved.shape)

        def total():
            np.copyto(rows, moved)
            np.add.reduce(rows, axis=-1, out=out)

        return total
    if len(sq) == 1:
        return lambda: np.copyto(out, sq[0])
    first, second, *rest = sq

    def total():
        np.add(first, second, out=out)
        for row in rest:
            np.add(out, row, out=out)

    return total


def _spin_polar(a):
    """Eigenvalues x0 +- |xbar| of spin-factor rows, plus the spatial parts
    and their norms on the rows rescaled by :func:`_pow2_rows`, so that the
    norm neither overflows nor turns subnormal."""
    s, k = _pow2_rows(a)
    nrm = np.linalg.norm(s[..., 1:], axis=-1)
    lam = np.ldexp(np.stack([s[..., 0] + nrm, s[..., 0] - nrm], axis=-1), k[..., None])
    return lam, s[..., 1:], nrm


def _spin_unit(a):
    """Eigenvalues of spin-factor rows, as :func:`_spin_polar` gives them,
    and the unit vectors of their spatial parts (the first spatial axis
    where the spatial part is 0)."""
    lam, spatial, nrm = _spin_polar(a)
    unit = np.zeros_like(spatial)
    unit[..., 0] = 1.0
    np.divide(spatial, nrm[..., None], out=unit, where=nrm[..., None] > 0)
    return lam, unit


class _SpinFactor:
    """Kernels of the spin factor R^(n+1), with x o y = (<x, y>, x0 ybar + y0 xbar).

    Every method takes the descriptor first and float coordinate arrays
    (..., dim) after it, as do those of :class:`_MatrixForm`.  The
    eigenvalues, spectral decomposition, determinant, inverse, square root
    and cone membership work on rows rescaled by :func:`_pow2_rows`, so
    they hold from the smallest to the largest doubles; a determinant
    outside the double range gives inf or 0.  ``rank2_det`` is the unscaled
    determinant.
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
        out[..., 1:] = a[..., :1] * b[..., 1:] + b[..., :1] * a[..., 1:]
        return out

    def inner(self, alg, a, b):
        return 2.0 * _row_sum(a * b)

    def trace(self, alg, a):
        return 2.0 * a[..., 0]

    def rank2_det(self, alg, a):
        return a[..., 0] ** 2 - _row_sum(a[..., 1:] ** 2)

    def rank2_det_columns(self, alg, x, sq, out):
        """A function that writes ``rank2_det`` of the coordinate-major
        points x (dim, n) to ``out``, with its bits, from their squares
        ``sq``; see :func:`_coordinate_sum`."""
        spatial, time = _coordinate_sum(sq[1:], out), sq[0]

        def det():
            spatial()
            np.subtract(time, out, out=out)

        return det

    def det(self, alg, a):
        s, k = _pow2_rows(a)
        return np.ldexp(self.rank2_det(alg, s), 2 * k)

    def eigenvalues(self, alg, a):
        return _spin_polar(a)[0]

    def in_cone(self, alg, a):
        """Open-cone membership of rows ``a``: the smaller eigenvalue
        x0 - |xbar|, as :func:`_spin_polar` gives it, is positive, and the
        row is finite, which the larger eigenvalue of its rescaled row is
        exactly when the row is."""
        s, k = _pow2_rows(a)
        nrm = np.linalg.norm(s[..., 1:], axis=-1)
        with np.errstate(invalid="ignore"):  # inf - inf on a row with two inf coordinates
            return (np.ldexp(s[..., 0] - nrm, k) > 0) & np.isfinite(s[..., 0] + nrm)

    def inverse(self, alg, a):
        s, k = _pow2_rows(a)
        out = np.concatenate([s[..., :1], -s[..., 1:]], axis=-1)
        return np.ldexp(out / self.rank2_det(alg, s)[..., None], -k[..., None])

    def quad_apply(self, alg, a, b):
        ab = self.jordan(alg, a, b)
        return 2.0 * self.jordan(alg, a, ab) - self.jordan(alg, self.jordan(alg, a, a), b)

    def sqrt(self, alg, a):
        lam, unit = _spin_unit(a)
        s = _positive_sqrt(lam)
        out = np.empty_like(a)
        out[..., 0] = (s[..., 0] + s[..., 1]) / 2.0
        out[..., 1:] = ((s[..., 0] - s[..., 1]) / 2.0)[..., None] * unit
        return out

    def norm(self, alg, c) -> float:
        return _SQRT2 * math.hypot(*c)

    def spectral(self, alg, c):
        """Eigenvalues and idempotent coordinates of one element.

        When the spatial part vanishes any orthogonal idempotent pair is
        valid; the pair built from the first spatial axis is returned.
        """
        lam, unit = _spin_unit(c)
        return lam, [0.5 * np.concatenate([[1.0], unit]), 0.5 * np.concatenate([[1.0], -unit])]

    def banded(self, alg, rng, n, lo, hi):
        lam = rng.uniform(lo, hi, size=(n, 2))
        g = rng.standard_normal((n, alg.dim - 1))
        unit = g / np.linalg.norm(g, axis=-1, keepdims=True)
        out = np.empty((n, alg.dim))
        out[:, 0] = lam.mean(axis=1)
        out[:, 1:] = ((lam[:, 0] - lam[:, 1]) / 2.0)[:, None] * unit
        return out


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


class _MatrixForm:
    """Kernels of the Hermitian r x r matrices over ``field`` (float or
    complex).  A complex off-diagonal entry takes two coordinates, real part
    first.

    The determinant and the inverse come from one elimination, s = L D L*
    (:meth:`_ldl`), written once for every rank, on the coordinates with no
    matrix built: det is the product of the pivots and s^-1 = M* D^-1 M with
    M = L^-1.  Complex entries are multiplied out in real and imaginary
    parts, so a row gives the same bits alone as inside a batch.  On the
    open cone every pivot is positive and the elimination is backward
    stable, so the error of both is within a small multiple of eps times
    the condition number.  A row with a non-positive pivot takes both from
    the eigendecomposition that the square root uses: det is the product of
    the eigenvalues, the inverse U diag(1/w) U*.  Both run on rows rescaled
    by :func:`_pow2_rows` and scale the result back, so an inverse holds
    from 1e-300 to 1e300 and a determinant outside the double range is inf
    or 0.  An exactly singular row gives det 0 and a non-finite inverse
    row, as on the spin factor.  Open-cone membership reads the same pivots
    (:meth:`in_cone`).  The eigenvalues, the square root, the spectral
    decomposition and det and inverse off the open cone come from LAPACK.
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
        mats = np.asarray(mats)
        r = alg.rank
        diag = np.arange(r)
        out = np.zeros(mats.shape[:-2] + (alg.dim,))
        out[..., :r] = mats[..., diag, diag].real
        if r > 1:
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
        ma = self.to_matrices(alg, a)
        mb = self.to_matrices(alg, b)
        return self.from_matrices(alg, (ma @ mb + mb @ ma) / 2.0)

    def inner(self, alg, a, b):
        return _row_sum(a * b)

    def trace(self, alg, a):
        return _row_sum(a[..., : alg.rank])

    def _eliminate(self, alg, s):
        """The pivots and the upper entries of L* of rows ``s``.

        The factor is s = L D L*, the elimination without pivoting, with L
        unit lower triangular and D the diagonal of the pivots.  Step i
        divides row i of what is left of s by its pivot, which gives row i
        of L*, and subtracts the outer product of the two rows from the rows
        below.  The upper entries (i, j) of L* come as :func:`_entry_dot`
        takes them.  The caller sets the floating-point error state.
        """
        r, w, c = alg.rank, alg.peirce, np.moveaxis(s, -1, 0)  # c: coordinate-major
        # an off-diagonal entry has w coordinates, each sqrt 2 times its part
        piv, off = list(c[:r]), [x / _SQRT2 for x in c[r:]]
        up = {ij: tuple(off[w * n:w * n + w]) for n, ij in enumerate(zip(*_offdiag_pairs(r)))}
        for i in range(r):
            for j in range(i + 1, r):
                lt = tuple(x / piv[i] for x in up[i, j])
                piv[j] = piv[j] - _entry_dot(lt, up[i, j])
                for m in range(j + 1, r):
                    up[j, m] = _entry_sub(up[j, m], [(up[i, m], lt)], conj=True)
                up[i, j] = lt
        return piv, up

    def _ldl(self, alg, a, from_ldl, from_eigh):
        """``from_ldl`` of the pivots and the factor (:meth:`_eliminate`) of
        rows ``a`` rescaled by :func:`_pow2_rows`, and the exponents.

        The pivots are all positive exactly on the open cone (Sylvester's
        criterion), where this elimination is backward stable.  A row with
        a non-positive pivot takes ``from_eigh`` of its rescaled row
        instead; a nan row keeps its nan result.
        """
        s, k = _pow2_rows(a)
        with np.errstate(divide="ignore", invalid="ignore"):  # on rows replaced below
            piv, up = self._eliminate(alg, s)
            out = np.asarray(from_ldl(piv, up))  # one row gives a numpy scalar
        outside = reduce(np.fmin, piv) <= 0  # fmin: a pivot past a zero one may be nan
        if outside.any():
            out[outside] = from_eigh(s[outside])
        return out, k

    def in_cone(self, alg, a):
        """Open-cone membership of rows ``a``: every pivot of their rescaled
        rows (:meth:`_eliminate`) is positive and finite.

        On a finite row that is Sylvester's criterion; a finite row on the
        open cone has finite pivots, as each is at most its diagonal entry.
        A non-finite coordinate makes a pivot non-finite or negative: an inf
        or nan diagonal entry stays in its pivot, and an off-diagonal one
        (i, j) subtracts inf or nan from pivot j at step i.  So a row with
        an inf coordinate, whose other pivots may all be positive, is
        outside, as is a nan row.
        """
        with np.errstate(all="ignore"):  # a row off the cone may overflow or divide by 0
            piv, _ = self._eliminate(alg, _pow2_rows(a)[0])
            inside = (piv[0] > 0) & (piv[0] < np.inf)
            for p in piv[1:]:
                inside &= (p > 0) & (p < np.inf)
        return inside

    def _ldl_inverse(self, alg, piv, up):
        """Coordinates of s^-1 = M* D^-1 M, with M = L^-1, from the pivots
        and the entries of L* that :meth:`_ldl` gives."""
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

    def det(self, alg, a):
        out, k = self._ldl(alg, a, lambda piv, up: reduce(np.multiply, piv),
                           lambda s: np.prod(self.eigenvalues(alg, s), axis=-1))
        return np.ldexp(out, alg.rank * k)

    def rank2_det(self, alg, a):
        """Closed-form determinant at rank 2: d1 d2 - |off|^2 / 2."""
        return a[..., 0] * a[..., 1] - 0.5 * _row_sum(a[..., 2:] ** 2)

    def rank2_det_columns(self, alg, x, sq, out):
        """A function that writes ``rank2_det`` of the coordinate-major
        points x (dim, n) to ``out``, with its bits, from their squares
        ``sq``; see :func:`_coordinate_sum`."""
        off, d1, d2, prod = _coordinate_sum(sq[2:], out), x[0], x[1], np.empty(out.shape)
        half = np.array(0.5)  # a 0-d array, which a ufunc takes faster than a float

        def det():
            off()
            np.multiply(out, half, out=out)
            np.subtract(np.multiply(d1, d2, out=prod), out, out=out)

        return det

    def eigenvalues(self, alg, a):
        return np.linalg.eigvalsh(self.to_matrices(alg, a))[..., ::-1]

    def inverse(self, alg, a):
        out, k = self._ldl(alg, a, lambda piv, up: self._ldl_inverse(alg, piv, up),
                           lambda s: self._spectral_map(alg, s, np.reciprocal))
        return np.ldexp(out, -k[..., None])

    def quad_apply(self, alg, a, b):
        ma = self.to_matrices(alg, a)
        mb = self.to_matrices(alg, b)
        return self.from_matrices(alg, ma @ mb @ ma)

    def _spectral_map(self, alg, a, f):
        """Coordinates of U f(w) U*, with U diag(w) U* the eigendecomposition
        of rows ``a``."""
        w, u = np.linalg.eigh(self.to_matrices(alg, a))
        return self.from_matrices(alg, (u * f(w)[..., None, :]) @ u.conj().swapaxes(-1, -2))

    def sqrt(self, alg, a):
        return self._spectral_map(alg, a, _positive_sqrt)

    def norm(self, alg, c) -> float:
        return math.hypot(*c)

    def spectral(self, alg, c):
        """Eigenvalues and idempotent coordinates of one element; repeated
        eigenvalues yield an arbitrary orthonormal completion."""
        w, u = np.linalg.eigh(self.to_matrices(alg, c))
        order = np.argsort(w)[::-1]
        return w[order], [self.from_matrices(alg, np.outer(u[:, k], u[:, k].conj()))
                          for k in order]

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


def batch_det(alg: AlgebraDescriptor, a) -> np.ndarray:
    return _KERNELS[alg.kind].det(alg, np.asarray(a, dtype=float))


def batch_eigenvalues(alg: AlgebraDescriptor, a) -> np.ndarray:
    """Spectral eigenvalues, sorted descending, shape (..., rank)."""
    return _KERNELS[alg.kind].eigenvalues(alg, np.asarray(a, dtype=float))


def batch_inverse(alg: AlgebraDescriptor, a) -> np.ndarray:
    """Inverse of coordinate arrays; assumes invertibility (no threshold)."""
    return _KERNELS[alg.kind].inverse(alg, np.asarray(a, dtype=float))


def batch_quad_apply(alg: AlgebraDescriptor, a, b) -> np.ndarray:
    """Quadratic operator of ``a`` applied to ``b``: 2 a(ab) - (aa)b."""
    return _KERNELS[alg.kind].quad_apply(
        alg, np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    )


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
    return 2.0 * la @ la - laa


def batch_sqrt(alg: AlgebraDescriptor, a) -> np.ndarray:
    """Spectral square root; raises NotInConeError off the open cone."""
    return _KERNELS[alg.kind].sqrt(alg, np.asarray(a, dtype=float))


def batch_in_cone(alg: AlgebraDescriptor, a) -> np.ndarray:
    """Boolean mask of membership in the open cone, with no LAPACK call.

    A row is inside when its coordinates are finite and, on the matrix
    kinds, every pivot of the L D L* elimination that det and inverse use
    is positive (Sylvester's criterion), or, on the spin factor, its
    smaller eigenvalue x0 - |xbar| is positive.  Where the condition number
    is far below 1/eps this agrees with the sign of the least eigenvalue;
    near the boundary both are rounding.  A nan or inf row is outside.
    """
    return _KERNELS[alg.kind].in_cone(alg, np.asarray(a, dtype=float))


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

    The Lorentz family uses the closed form; when the spatial part vanishes
    any orthogonal idempotent pair is valid and the canonical pair built
    from the first spatial axis is returned.  Repeated eigenvalues in the
    matrix families yield an arbitrary orthonormal completion.
    """
    lam, idems = _KERNELS[x.algebra.kind].spectral(x.algebra, x.coords)
    return SpectralDecomposition(lam, [Element(x.algebra, c) for c in idems])


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
