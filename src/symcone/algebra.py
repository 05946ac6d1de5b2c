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

All functions are pure.  The ``batch_*`` variants accept coordinate arrays
with arbitrary leading axes and operate elementwise over them; the
element-level API is a thin wrapper around them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_SQRT2 = math.sqrt(2.0)

# Relative singularity cutoff: |eigenvalue| <= SINGULAR_RTOL * max|eig|.
SINGULAR_RTOL = 1e-12


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
        raise ValueError(f"lorentz requires n >= 2, got {n}")
    return AlgebraDescriptor(Kind.LORENTZ, 2, n - 1, n + 1)


def descriptor_from_dict(d: dict) -> AlgebraDescriptor:
    kind = Kind(d["kind"])
    if kind is Kind.SYM_REAL:
        return sym_real(int(d["rank"]))
    if kind is Kind.HERM_COMPLEX:
        return herm_complex(int(d["rank"]))
    return lorentz(int(d["dim"]) - 1)


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
# Canonical basis bookkeeping
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _offdiag_pairs(rank: int):
    """Column-major (i < j) off-diagonal index pairs, as two int arrays."""
    rows, cols = [], []
    for j in range(1, rank):
        for i in range(j):
            rows.append(i)
            cols.append(j)
    return np.array(rows, dtype=int), np.array(cols, dtype=int)


def coordinate_names(alg: AlgebraDescriptor) -> list[str]:
    """Names of the canonical coordinates, in basis order."""
    if alg.kind is Kind.LORENTZ:
        return [f"x{k}" for k in range(alg.dim)]
    names = [f"d{i + 1}" for i in range(alg.rank)]
    rows, cols = _offdiag_pairs(alg.rank)
    for i, j in zip(rows, cols):
        names.append(f"s{i + 1}_{j + 1}")
        if alg.kind is Kind.HERM_COMPLEX:
            names.append(f"a{i + 1}_{j + 1}")
    return names


def coords_to_matrices(alg: AlgebraDescriptor, coords) -> np.ndarray:
    """Coordinate array (..., dim) -> matrix array (..., rank, rank)."""
    if alg.kind is Kind.LORENTZ:
        raise ValueError("the Lorentz family has no matrix form")
    coords = np.asarray(coords, dtype=float)
    r = alg.rank
    lead = coords.shape[:-1]
    diag = np.arange(r)
    if alg.kind is Kind.SYM_REAL:
        m = np.zeros(lead + (r, r))
        m[..., diag, diag] = coords[..., :r]
        if r > 1:
            rows, cols = _offdiag_pairs(r)
            off = coords[..., r:] / _SQRT2
            m[..., rows, cols] = off
            m[..., cols, rows] = off
        return m
    m = np.zeros(lead + (r, r), dtype=complex)
    m[..., diag, diag] = coords[..., :r]
    if r > 1:
        rows, cols = _offdiag_pairs(r)
        off = (coords[..., r::2] + 1j * coords[..., r + 1 :: 2]) / _SQRT2
        m[..., rows, cols] = off
        m[..., cols, rows] = off.conj()
    return m


def matrices_to_coords(alg: AlgebraDescriptor, mats) -> np.ndarray:
    """Matrix array (..., rank, rank) -> coordinate array (..., dim).

    Only the diagonal and upper triangle are read, so feeding a matrix that
    is Hermitian up to rounding implicitly symmetrizes it.
    """
    if alg.kind is Kind.LORENTZ:
        raise ValueError("the Lorentz family has no matrix form")
    mats = np.asarray(mats)
    r = alg.rank
    lead = mats.shape[:-2]
    diag = np.arange(r)
    out = np.zeros(lead + (alg.dim,))
    out[..., :r] = mats[..., diag, diag].real
    if r > 1:
        rows, cols = _offdiag_pairs(r)
        upper = mats[..., rows, cols]
        if alg.kind is Kind.SYM_REAL:
            out[..., r:] = _SQRT2 * upper.real
        else:
            out[..., r::2] = _SQRT2 * upper.real
            out[..., r + 1 :: 2] = _SQRT2 * upper.imag
    return out


def to_matrix(x: Element) -> np.ndarray:
    """Matrix form of an element of one of the two matrix families."""
    return coords_to_matrices(x.algebra, x.coords)


def from_matrix(alg: AlgebraDescriptor, mat, *, atol: float = 1e-10) -> Element:
    """Element from a (near-)Hermitian matrix; rejects asymmetry above atol.

    For ``sym-real`` the matrix must also be real: an imaginary part above
    atol is rejected instead of being dropped.  A NaN or infinite entry is
    rejected too.
    """
    mat = np.asarray(mat)
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has a NaN or infinite entry")
    herm_defect = np.max(np.abs(mat - mat.conj().swapaxes(-1, -2)))
    scale = 1.0 + np.max(np.abs(mat))
    if herm_defect > atol * scale:
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
    if alg.kind is Kind.SYM_REAL and np.iscomplexobj(mat):
        imag = np.max(np.abs(mat.imag))
        if imag > atol * scale:
            raise ValueError(f"sym-real matrix has an imaginary part ({imag:.3e})")
    return Element(alg, matrices_to_coords(alg, mat))


@lru_cache(maxsize=None)
def _basis_matrices(alg: AlgebraDescriptor) -> np.ndarray:
    """Stacked canonical basis matrices, shape (dim, rank, rank)."""
    eye = np.eye(alg.dim)
    return coords_to_matrices(alg, eye)


def canonical_basis(alg: AlgebraDescriptor) -> list[Element]:
    """The canonical orthonormal basis as a list of elements."""
    return [Element(alg, row) for row in np.eye(alg.dim)]


# ---------------------------------------------------------------------------
# Batched core operations (leading axes index independent elements)
# ---------------------------------------------------------------------------

def batch_jordan(alg: AlgebraDescriptor, a, b) -> np.ndarray:
    """Jordan product of coordinate arrays, broadcasting leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if alg.kind is Kind.LORENTZ:
        a, b = np.broadcast_arrays(a, b)
        out = np.empty(a.shape)
        out[..., 0] = np.sum(a * b, axis=-1)
        out[..., 1:] = a[..., :1] * b[..., 1:] + b[..., :1] * a[..., 1:]
        return out
    ma = coords_to_matrices(alg, a)
    mb = coords_to_matrices(alg, b)
    return matrices_to_coords(alg, (ma @ mb + mb @ ma) / 2.0)


def batch_inner(alg: AlgebraDescriptor, a, b) -> np.ndarray:
    """Trace inner product of coordinate arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    dot = np.sum(a * b, axis=-1)
    return 2.0 * dot if alg.kind is Kind.LORENTZ else dot


def batch_trace(alg: AlgebraDescriptor, a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if alg.kind is Kind.LORENTZ:
        return 2.0 * a[..., 0]
    return np.sum(a[..., : alg.rank], axis=-1)


def batch_det(alg: AlgebraDescriptor, a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if alg.kind is Kind.LORENTZ:
        return a[..., 0] ** 2 - np.sum(a[..., 1:] ** 2, axis=-1)
    d = np.linalg.det(coords_to_matrices(alg, a))
    return d.real if np.iscomplexobj(d) else d


def batch_eigenvalues(alg: AlgebraDescriptor, a) -> np.ndarray:
    """Spectral eigenvalues, sorted descending, shape (..., rank)."""
    a = np.asarray(a, dtype=float)
    if alg.kind is Kind.LORENTZ:
        nrm = np.linalg.norm(a[..., 1:], axis=-1)
        return np.stack([a[..., 0] + nrm, a[..., 0] - nrm], axis=-1)
    w = np.linalg.eigvalsh(coords_to_matrices(alg, a))
    return w[..., ::-1]


def batch_inverse(alg: AlgebraDescriptor, a) -> np.ndarray:
    """Inverse of coordinate arrays; assumes invertibility (no threshold)."""
    a = np.asarray(a, dtype=float)
    if alg.kind is Kind.LORENTZ:
        d = batch_det(alg, a)
        out = np.concatenate([a[..., :1], -a[..., 1:]], axis=-1)
        return out / d[..., None]
    return matrices_to_coords(alg, np.linalg.inv(coords_to_matrices(alg, a)))


def batch_quad_apply(alg: AlgebraDescriptor, a, b) -> np.ndarray:
    """Quadratic operator of ``a`` applied to ``b``: 2 a(ab) - (aa)b."""
    if alg.kind is Kind.LORENTZ:
        ab = batch_jordan(alg, a, b)
        return 2.0 * batch_jordan(alg, a, ab) - batch_jordan(
            alg, batch_jordan(alg, a, a), b
        )
    ma = coords_to_matrices(alg, a)
    mb = coords_to_matrices(alg, b)
    return matrices_to_coords(alg, ma @ mb @ ma)


def batch_lmap(alg: AlgebraDescriptor, a) -> np.ndarray:
    """Multiplication operators L(a): y -> a o y, shape (..., dim, dim).

    Column j of each operator is the product of ``a`` with basis element j.
    """
    a = np.asarray(a, dtype=float)
    if alg.kind is Kind.LORENTZ:
        m = np.zeros(a.shape + (alg.dim,))
        m[..., 0, :] = a
        m[..., :, 0] = a
        m[..., 1:, 1:] += a[..., 0, None, None] * np.eye(alg.dim - 1)
        return m
    basis = _basis_matrices(alg)
    ma = coords_to_matrices(alg, a)[..., None, :, :]
    cols = matrices_to_coords(alg, (ma @ basis + basis @ ma) / 2.0)
    return cols.swapaxes(-1, -2)


def batch_quad_rep(alg: AlgebraDescriptor, a) -> np.ndarray:
    """Quadratic representations P(a) = 2 L(a)^2 - L(a o a), shape (..., dim, dim)."""
    la = batch_lmap(alg, a)
    laa = batch_lmap(alg, batch_jordan(alg, a, a))
    return 2.0 * la @ la - laa


def batch_sqrt(alg: AlgebraDescriptor, a) -> np.ndarray:
    """Spectral square root; raises NotInConeError off the open cone."""
    a = np.asarray(a, dtype=float)
    if alg.kind is Kind.LORENTZ:
        lam = batch_eigenvalues(alg, a)
        if np.min(lam) <= 0:
            raise NotInConeError("square root requires strictly positive eigenvalues")
        s = np.sqrt(lam)
        half_sum = (s[..., 0] + s[..., 1]) / 2.0
        half_diff = (s[..., 0] - s[..., 1]) / 2.0
        nrm = np.linalg.norm(a[..., 1:], axis=-1)
        unit = np.divide(
            a[..., 1:], nrm[..., None], out=np.zeros_like(a[..., 1:]),
            where=nrm[..., None] > 0,
        )
        out = np.empty_like(a)
        out[..., 0] = half_sum
        out[..., 1:] = half_diff[..., None] * unit
        return out
    w, u = np.linalg.eigh(coords_to_matrices(alg, a))
    if np.min(w) <= 0:
        raise NotInConeError("square root requires strictly positive eigenvalues")
    root = (u * np.sqrt(w)[..., None, :]) @ u.conj().swapaxes(-1, -2)
    return matrices_to_coords(alg, root)


def batch_in_cone(alg: AlgebraDescriptor, a, tol: float = 0.0) -> np.ndarray:
    """Boolean mask of membership in the open cone (min eigenvalue > tol)."""
    lam = batch_eigenvalues(alg, a)
    return np.min(lam, axis=-1) > tol


# ---------------------------------------------------------------------------
# Element-level operations
# ---------------------------------------------------------------------------

def identity(alg: AlgebraDescriptor) -> Element:
    """The neutral element: identity matrix, or (1, 0, ..., 0) for Lorentz."""
    c = np.zeros(alg.dim)
    if alg.kind is Kind.LORENTZ:
        c[0] = 1.0
    else:
        c[: alg.rank] = 1.0
    return Element(alg, c)


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
    return math.sqrt(inner(x, x))


def trace(x: Element) -> float:
    """Sum of spectral eigenvalues."""
    return float(batch_trace(x.algebra, x.coords))


def det(x: Element) -> float:
    """Product of spectral eigenvalues."""
    return float(batch_det(x.algebra, x.coords))


def eigenvalues(x: Element) -> np.ndarray:
    """Spectral eigenvalues of x, sorted descending."""
    return batch_eigenvalues(x.algebra, x.coords)


def in_cone(x: Element, tol: float = 0.0) -> bool:
    """True iff the minimum eigenvalue exceeds tol."""
    return bool(np.min(eigenvalues(x)) > tol)


def singular_threshold(lam: np.ndarray, threshold: float | None = None) -> float:
    """Scale-aware singularity cutoff for a set of eigenvalues."""
    if threshold is not None:
        return threshold
    return SINGULAR_RTOL * float(np.max(np.abs(lam)))


def inverse(x: Element, threshold: float | None = None) -> Element:
    """Spectral inverse; raises SingularElementError near-singular elements.

    The default cutoff is SINGULAR_RTOL * max |eigenvalue|, so it scales
    with the element and a multiple of the identity is never singular; pass
    ``threshold`` to override it with an absolute value.
    """
    lam = eigenvalues(x)
    if np.min(np.abs(lam)) <= singular_threshold(lam, threshold):
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

    For the Lorentz family the closed form is used; when the spatial part
    vanishes any orthogonal idempotent pair is valid and the canonical pair
    built from the first spatial axis is returned.  Repeated eigenvalues in
    the matrix families yield an arbitrary orthonormal completion.
    """
    alg = x.algebra
    if alg.kind is Kind.LORENTZ:
        x0 = x.coords[0]
        spatial = x.coords[1:]
        nrm = float(np.linalg.norm(spatial))
        if nrm == 0.0:
            unit = np.zeros(alg.dim - 1)
            unit[0] = 1.0
        else:
            unit = spatial / nrm
        lam = np.array([x0 + nrm, x0 - nrm])
        c_plus = Element(alg, 0.5 * np.concatenate([[1.0], unit]))
        c_minus = Element(alg, 0.5 * np.concatenate([[1.0], -unit]))
        return SpectralDecomposition(lam, [c_plus, c_minus])
    w, u = np.linalg.eigh(coords_to_matrices(alg, x.coords))
    order = np.argsort(w)[::-1]
    idems = []
    for k in order:
        v = u[:, k]
        idems.append(Element(alg, matrices_to_coords(alg, np.outer(v, v.conj()))))
    return SpectralDecomposition(w[order], idems)


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
    r = alg.rank
    if alg.kind is Kind.LORENTZ:
        lam = rng.uniform(lo, hi, size=(n, 2))
        g = rng.standard_normal((n, alg.dim - 1))
        unit = g / np.linalg.norm(g, axis=-1, keepdims=True)
        out = np.empty((n, alg.dim))
        out[:, 0] = lam.mean(axis=1)
        out[:, 1:] = ((lam[:, 0] - lam[:, 1]) / 2.0)[:, None] * unit
        return out
    if alg.kind is Kind.SYM_REAL:
        g = rng.standard_normal((n, r, r))
    else:
        g = rng.standard_normal((n, r, r)) + 1j * rng.standard_normal((n, r, r))
    q, _ = np.linalg.qr(g)
    lam = rng.uniform(lo, hi, size=(n, r))
    mats = (q * lam[:, None, :]) @ q.conj().swapaxes(-1, -2)
    return matrices_to_coords(alg, mats)


def random_cone_point_banded(
    alg: AlgebraDescriptor,
    rng: np.random.Generator,
    lo: float = 0.2,
    hi: float = 5.0,
) -> Element:
    return Element(alg, random_cone_points_banded(alg, rng, 1, lo, hi)[0])
