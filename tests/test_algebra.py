"""Element arithmetic, operators, and spectral calculus for all three families."""

import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp_st

from symcone import algebra as ja
from symcone import distributions as dist

ALL_ALGEBRAS = [
    ja.sym_real(1),
    ja.sym_real(2),
    ja.sym_real(3),
    ja.herm_complex(2),
    ja.herm_complex(3),
    ja.lorentz(2),
    ja.lorentz(3),
    ja.lorentz(4),
]

IDS = [f"{a.kind.value}-dim{a.dim}" for a in ALL_ALGEBRAS]


def test_descriptor_dimension_relation():
    for alg in ALL_ALGEBRAS:
        assert alg.dim == alg.rank + alg.peirce * alg.rank * (alg.rank - 1) // 2
    assert ja.sym_real(4).dim == 10
    assert ja.herm_complex(4).dim == 16
    assert ja.lorentz(5).dim == 6 and ja.lorentz(5).peirce == 4


def test_descriptor_validation():
    with pytest.raises(ValueError):
        ja.AlgebraDescriptor(ja.Kind.SYM_REAL, 2, 1, 4)  # dim relation broken
    with pytest.raises(ValueError):
        ja.AlgebraDescriptor(ja.Kind.SYM_REAL, 0, 1, 0)
    with pytest.raises(ValueError):
        ja.lorentz(1)
    # each kind's own rule, on descriptors whose dim relation holds
    with pytest.raises(ValueError, match="Peirce constant must be >= 0"):
        ja.AlgebraDescriptor(ja.Kind.LORENTZ, 2, -1, 1)
    with pytest.raises(ValueError, match="sym-real requires Peirce constant 1"):
        ja.AlgebraDescriptor(ja.Kind.SYM_REAL, 2, 2, 4)
    with pytest.raises(ValueError, match="herm-complex requires Peirce constant 2"):
        ja.AlgebraDescriptor(ja.Kind.HERM_COMPLEX, 2, 1, 3)
    with pytest.raises(ValueError, match="lorentz requires rank 2"):
        ja.AlgebraDescriptor(ja.Kind.LORENTZ, 3, 1, 6)


def test_identity_examples():
    assert np.allclose(ja.to_matrix(ja.identity(ja.sym_real(2))), np.eye(2))
    assert np.allclose(ja.identity(ja.lorentz(2)).coords, [1.0, 0.0, 0.0])
    rng = np.random.default_rng(0)
    for alg in ALL_ALGEBRAS:
        x = ja.random_element(alg, rng)
        assert np.allclose(
            ja.jordan_product(ja.identity(alg), x).coords, x.coords, atol=1e-14
        )


def test_jordan_product_examples():
    lz = ja.lorentz(2)
    prod = ja.jordan_product(
        ja.Element(lz, np.array([1.0, 1.0, 0.0])), ja.Element(lz, np.array([1.0, 0.0, 1.0]))
    )
    assert np.allclose(prod.coords, [1.0, 1.0, 1.0])

    a2 = ja.sym_real(2)
    x = ja.from_matrix(a2, np.diag([2.0, 1.0]))
    y = ja.from_matrix(a2, np.diag([3.0, 5.0]))
    assert np.allclose(ja.to_matrix(ja.jordan_product(x, y)), np.diag([6.0, 5.0]))


@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=IDS)
def test_jordan_axioms_random(alg):
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = ja.random_element(alg, rng)
        y = ja.random_element(alg, rng)
        z = ja.random_element(alg, rng)
        assert np.allclose(
            ja.jordan_product(x, y).coords, ja.jordan_product(y, x).coords, atol=1e-12
        )
        x2 = ja.jordan_product(x, x)
        lhs = ja.jordan_product(x, ja.jordan_product(x2, y))
        rhs = ja.jordan_product(x2, ja.jordan_product(x, y))
        assert np.abs(lhs.coords - rhs.coords).max() < 1e-10 * (1 + ja.norm(x)) ** 3
        assert abs(
            ja.inner(x, ja.jordan_product(y, z)) - ja.inner(ja.jordan_product(x, y), z)
        ) < 1e-10 * (1 + ja.norm(x)) * (1 + ja.norm(y)) * (1 + ja.norm(z))


def test_algebra_mismatch():
    x = ja.identity(ja.sym_real(2))
    y = ja.identity(ja.sym_real(3))
    with pytest.raises(ja.AlgebraMismatchError):
        ja.jordan_product(x, y)
    with pytest.raises(ja.AlgebraMismatchError):
        ja.inner(x, y)


def test_lmap_examples():
    a2 = ja.sym_real(2)
    assert np.allclose(ja.lmap(ja.identity(a2)).matrix, np.eye(3))
    # hand computation on the basis (E11, E22, (E12+E21)/sqrt2): x o basis
    # elements of diag(2,1) scale them by (2, 1, 3/2)
    L = ja.lmap(ja.from_matrix(a2, np.diag([2.0, 1.0])))
    assert np.allclose(L.matrix, np.diag([2.0, 1.0, 1.5]))


def test_linear_operator_guards():
    a2 = ja.sym_real(2)
    with pytest.raises(ValueError, match="operator matrix has shape"):
        ja.LinearOperator(a2, np.eye(2))
    # the Lorentz algebra of dim 3 has coordinates of the same length
    with pytest.raises(ja.AlgebraMismatchError):
        ja.lmap(ja.identity(a2)).apply(ja.identity(ja.lorentz(2)))


@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=IDS)
def test_lmap_symmetric_and_consistent(alg):
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = ja.random_element(alg, rng)
        L = ja.lmap(x)
        assert np.allclose(L.matrix, L.matrix.T, atol=1e-12)
        y = ja.random_element(alg, rng)
        assert np.allclose(L.apply(y).coords, ja.jordan_product(x, y).coords, atol=1e-12)


@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=IDS)
def test_lmap_commutes_with_square(alg):
    # power associativity: [L(x), L(x o x)] = 0
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = ja.random_element(alg, rng)
        lx = ja.lmap(x).matrix
        lx2 = ja.lmap(ja.jordan_product(x, x)).matrix
        comm = lx @ lx2 - lx2 @ lx
        assert np.linalg.norm(comm, 2) < 1e-9


BATCH_ALGEBRAS = ALL_ALGEBRAS + [ja.sym_real(4), ja.herm_complex(4), ja.sym_real(5), ja.lorentz(9)]
BATCH_IDS = [f"{a.kind.value}-dim{a.dim}" for a in BATCH_ALGEBRAS]


@pytest.mark.parametrize("alg", BATCH_ALGEBRAS, ids=BATCH_IDS)
def test_batch_operators_match_element_level(alg):
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 5, alg.dim))
    lb = ja.batch_lmap(alg, x)
    qb = ja.batch_quad_rep(alg, x)
    assert lb.shape == qb.shape == (2, 5, alg.dim, alg.dim)
    basis = np.eye(alg.dim)
    for idx in np.ndindex(2, 5):
        xe = ja.Element(alg, x[idx])
        assert np.abs(lb[idx] - ja.lmap(xe).matrix).max() < 1e-12
        assert np.abs(qb[idx] - ja.quad_rep(xe).matrix).max() < 1e-12
        # independent references: columns are x o e_j and P(x) e_j
        scale = 1.0 + np.abs(x[idx]).max() ** 2
        assert np.abs(lb[idx] - ja.batch_jordan(alg, x[idx], basis).T).max() < 1e-12 * scale
        assert np.abs(qb[idx] - ja.batch_quad_apply(alg, x[idx], basis).T).max() < 1e-12 * scale


def test_lorentz_lmap_keeps_the_bits_of_its_columns_of_products():
    # the spin factor's structure constants are 0 and 1, so the contraction
    # adds each entry of L(a) to zeros only
    for alg in (ja.lorentz(2), ja.lorentz(5), ja.lorentz(9)):
        x = ja.random_cone_points_banded(alg, np.random.default_rng(alg.dim), 300)
        columns = ja.batch_jordan(alg, x[:, None, :], np.eye(alg.dim)).swapaxes(-1, -2)
        assert ja.batch_lmap(alg, x).tobytes() == columns.tobytes()


@pytest.mark.parametrize("alg", BATCH_ALGEBRAS, ids=BATCH_IDS)
def test_structure_constants_are_the_nearest_doubles_of_their_values(alg):
    t = ja._structure_tensor(alg)
    values = {1.0}
    if ja.kernels(alg).field is not None and alg.rank > 1:
        values |= {0.5, np.sqrt(2.0) / 4.0} if alg.rank > 2 else {0.5}
    assert set(np.abs(t[t != 0]).tolist()) == values
    basis = np.eye(alg.dim)
    products = ja.batch_jordan(alg, basis[:, None, :], basis).swapaxes(-1, -2)
    np.testing.assert_allclose(t, products, rtol=0.0, atol=4 * np.finfo(float).eps)
    # sqrt(2) / 4 rounded is nearer 1/(2 sqrt 2) than either neighbouring
    # double, such as 1 / (2 * sqrt(2)) in doubles, one below it
    root = np.sqrt(2.0) / 4.0
    miss = [abs(Fraction(v) ** 2 - Fraction(1, 8)) for v in
            (root, np.nextafter(root, 0.0), np.nextafter(root, 1.0))]
    assert miss[0] < min(miss[1:])
    assert 1.0 / (2.0 * np.sqrt(2.0)) == np.nextafter(root, 0.0)


def test_quad_rep_examples():
    a2 = ja.sym_real(2)
    assert np.allclose(ja.quad_rep(ja.identity(a2)).matrix, np.eye(3))
    x = ja.from_matrix(a2, np.diag([2.0, 1.0]))
    y = ja.from_matrix(a2, np.ones((2, 2)))
    assert np.allclose(ja.to_matrix(ja.quad_rep(x).apply(y)), [[4.0, 2.0], [2.0, 1.0]])
    # operator eigenvalues on the canonical basis are (4, 1, 2)
    assert ja.quad_rep(x).det() == pytest.approx(8.0, abs=1e-12)


@pytest.mark.parametrize("alg", [ja.sym_real(2), ja.sym_real(3), ja.herm_complex(2)])
def test_quad_rep_is_two_sided_product(alg):
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = ja.random_element(alg, rng)
        y = ja.random_element(alg, rng)
        sandwich = ja.to_matrix(x) @ ja.to_matrix(y) @ ja.to_matrix(x)
        assert np.allclose(
            ja.quad_rep(x).apply(y).coords,
            ja.matrices_to_coords(alg, sandwich),
            atol=1e-10,
        )


def test_spectral_examples():
    a2 = ja.sym_real(2)
    s = ja.spectral_decomposition(ja.from_matrix(a2, np.array([[2.0, 1.0], [1.0, 2.0]])))
    assert np.allclose(s.eigenvalues, [3.0, 1.0])
    mats = sorted((ja.to_matrix(c).tolist() for c in s.idempotents))
    assert np.allclose(mats[0], [[0.5, -0.5], [-0.5, 0.5]])
    assert np.allclose(mats[1], [[0.5, 0.5], [0.5, 0.5]])

    for alg in ALL_ALGEBRAS:
        assert np.allclose(ja.eigenvalues(ja.identity(alg)), np.ones(alg.rank))

    lz = ja.lorentz(2)
    s = ja.spectral_decomposition(ja.Element(lz, np.array([2.0, 1.0, 0.0])))
    assert np.allclose(s.eigenvalues, [3.0, 1.0])


def test_spectral_degenerate_lorentz():
    lz = ja.lorentz(3)
    s = ja.spectral_decomposition(ja.Element(lz, np.array([2.0, 0.0, 0.0, 0.0])))
    assert np.allclose(s.eigenvalues, [2.0, 2.0])
    assert np.allclose(s.idempotents[0].coords, [0.5, 0.5, 0.0, 0.0])
    assert np.allclose(s.idempotents[1].coords, [0.5, -0.5, 0.0, 0.0])
    assert np.allclose(s.reconstruct().coords, [2.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=IDS)
def test_spectral_invariants(alg):
    rng = np.random.default_rng(8)
    e = ja.identity(alg)
    for _ in range(25):
        x = ja.random_element(alg, rng)
        s = ja.spectral_decomposition(x)
        assert np.all(np.diff(s.eigenvalues) <= 1e-12)
        total = ja.zero(alg)
        for c in s.idempotents:
            assert ja.norm(c) > 0
            assert np.abs(ja.jordan_product(c, c).coords - c.coords).max() < 1e-9
            total = total + c
        for i in range(alg.rank):
            for j in range(i + 1, alg.rank):
                assert abs(ja.inner(s.idempotents[i], s.idempotents[j])) < 1e-9
        assert np.abs(total.coords - e.coords).max() < 1e-9
        assert np.abs(s.reconstruct().coords - x.coords).max() < 1e-9 * (1 + ja.norm(x))
        # round trip: decompose the reconstruction, eigenvalues must survive
        again = ja.spectral_decomposition(s.reconstruct())
        assert np.abs(again.eigenvalues - s.eigenvalues).max() < 1e-9 * (
            1 + np.abs(s.eigenvalues).max()
        )


def test_trace_det_examples():
    for alg in ALL_ALGEBRAS:
        assert ja.det(ja.identity(alg)) == pytest.approx(1.0)
        assert ja.trace(ja.identity(alg)) == pytest.approx(alg.rank)
    a2 = ja.sym_real(2)
    x = ja.from_matrix(a2, np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert ja.trace(x) == pytest.approx(4.0)
    assert ja.det(x) == pytest.approx(3.0)
    xl = ja.Element(ja.lorentz(2), np.array([2.0, 1.0, 0.0]))
    assert ja.trace(xl) == pytest.approx(4.0)
    assert ja.det(xl) == pytest.approx(3.0)


@pytest.mark.parametrize("alg", [ja.sym_real(3), ja.herm_complex(2)])
def test_trace_det_match_matrix_forms(alg):
    rng = np.random.default_rng(9)
    for _ in range(50):
        x = ja.random_element(alg, rng)
        m = ja.to_matrix(x)
        assert ja.trace(x) == pytest.approx(float(np.trace(m).real), abs=1e-10)
        assert ja.det(x) == pytest.approx(float(np.linalg.det(m).real), abs=1e-10)
        lam = ja.eigenvalues(x)
        assert ja.trace(x) == pytest.approx(lam.sum(), abs=1e-9)
        assert ja.det(x) == pytest.approx(lam.prod(), abs=1e-9)


def test_inner_examples():
    for alg in ALL_ALGEBRAS:
        e = ja.identity(alg)
        assert ja.inner(e, e) == pytest.approx(alg.rank)
    a3 = ja.sym_real(3)
    rng = np.random.default_rng(10)
    for _ in range(100):
        x = ja.random_element(a3, rng)
        y = ja.random_element(a3, rng)
        assert ja.inner(x, y) == pytest.approx(
            float(np.trace(ja.to_matrix(x) @ ja.to_matrix(y))), abs=1e-10
        )
    # inner product equals the trace of the product for every family
    for alg in ALL_ALGEBRAS:
        x = ja.random_element(alg, rng)
        y = ja.random_element(alg, rng)
        assert ja.inner(x, y) == pytest.approx(
            ja.trace(ja.jordan_product(x, y)), abs=1e-10
        )


def test_inverse_examples():
    a2 = ja.sym_real(2)
    e = ja.identity(a2)
    assert np.allclose(ja.inverse(e).coords, e.coords)
    x = ja.from_matrix(a2, np.diag([2.0, 4.0]))
    assert np.allclose(ja.to_matrix(ja.inverse(x)), np.diag([0.5, 0.25]))
    xl = ja.Element(ja.lorentz(2), np.array([2.0, 1.0, 0.0]))
    assert np.allclose(ja.inverse(xl).coords, [2.0 / 3.0, -1.0 / 3.0, 0.0])


@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=IDS)
def test_inverse_properties(alg):
    rng = np.random.default_rng(12)
    e = ja.identity(alg)
    for _ in range(25):
        x = ja.random_cone_point_banded(alg, rng)
        xi = ja.inverse(x)
        assert np.abs(ja.jordan_product(x, xi).coords - e.coords).max() < 1e-10
        # P(x^-1) = P(x)^-1
        assert np.allclose(
            ja.quad_rep(xi).matrix, np.linalg.inv(ja.quad_rep(x).matrix), atol=1e-8
        )


def test_inverse_singular():
    a2 = ja.sym_real(2)
    with pytest.raises(ja.SingularElementError):
        ja.inverse(ja.from_matrix(a2, np.diag([1.0, 0.0])))
    with pytest.raises(ja.SingularElementError):
        ja.inverse(ja.from_matrix(a2, np.diag([1.0, 1e-15])))
    with pytest.raises(ja.SingularElementError):
        ja.inverse(ja.zero(a2))


@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=IDS)
def test_inverse_of_scaled_identity_across_scales(alg):
    # the cutoff is relative to the largest eigenvalue, so s * e is never
    # singular, however small s is
    e = ja.identity(alg)
    for s in 10.0 ** np.arange(-150, 151, 10):
        inv = ja.inverse(s * e)
        np.testing.assert_allclose(inv.coords, e.coords / s, rtol=1e-15, atol=0.0)


def test_sqrt_examples():
    a2 = ja.sym_real(2)
    assert np.allclose(ja.sqrt(ja.identity(a2)).coords, ja.identity(a2).coords)
    assert np.allclose(
        ja.to_matrix(ja.sqrt(ja.from_matrix(a2, np.diag([4.0, 9.0])))), np.diag([2.0, 3.0])
    )
    with pytest.raises(ja.NotInConeError):
        ja.sqrt(ja.from_matrix(a2, np.diag([1.0, -1.0])))


@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=IDS)
def test_sqrt_squares_back(alg):
    rng = np.random.default_rng(13)
    for _ in range(100):
        x = ja.Element(alg, ja.random_cone_point(alg, rng).coords)
        s = ja.sqrt(x)
        assert np.abs(ja.jordan_product(s, s).coords - x.coords).max() < 1e-9 * (
            1 + ja.norm(x)
        )


def test_in_cone_examples():
    assert ja.in_cone(ja.identity(ja.sym_real(2)))
    assert not ja.in_cone(ja.from_matrix(ja.sym_real(2), np.array([[1.0, 2.0], [2.0, 1.0]])))
    assert not ja.in_cone(ja.Element(ja.lorentz(2), np.array([1.0, 2.0, 0.0])))


@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=IDS)
def test_random_cone_point(alg):
    rng = np.random.default_rng(14)
    for _ in range(1000):
        assert ja.in_cone(ja.random_cone_point(alg, rng))


def test_random_determinism_and_mean():
    alg = ja.herm_complex(2)
    x1 = ja.random_element(alg, np.random.default_rng(99))
    x2 = ja.random_element(alg, np.random.default_rng(99))
    assert np.array_equal(x1.coords, x2.coords)
    n = 4000
    rng = np.random.default_rng(100)
    draws = ja.random_elements(alg, rng, n)
    assert np.abs(draws.mean(axis=0)).max() < 4.0 / np.sqrt(n)


@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=IDS)
def test_det_identities(alg):
    rng = np.random.default_rng(15)
    power = 2.0 * alg.dim / alg.rank
    for _ in range(50):
        x = ja.random_cone_point_banded(alg, rng)
        y = ja.random_cone_point_banded(alg, rng)
        lhs = ja.det(ja.quad_apply(x, y))
        rhs = ja.det(x) ** 2 * ja.det(y)
        assert abs(lhs - rhs) < 1e-8 * abs(rhs)
        assert abs(ja.quad_rep(x).det() - ja.det(x) ** power) < 1e-8 * ja.det(x) ** power


@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=IDS)
def test_banded_cone_points_have_banded_spectra(alg):
    rng = np.random.default_rng(16)
    pts = ja.random_cone_points_banded(alg, rng, 200, 0.2, 5.0)
    lam = ja.batch_eigenvalues(alg, pts)
    assert lam.min() > 0.2 - 1e-9
    assert lam.max() < 5.0 + 1e-9
    with pytest.raises(ValueError, match="need 0 < lo < hi"):
        ja.random_cone_points_banded(alg, rng, 5, 2.0, 2.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_from_matrix_rejects_non_finite_entries(bad):
    import warnings

    for alg, mat in ((ja.sym_real(2), np.array([[bad, 0.0], [0.0, 1.0]])),
                     (ja.sym_real(2), np.array([[1.0, bad], [bad, 1.0]])),
                     (ja.herm_complex(2), np.array([[1.0, complex(0.0, bad)],
                                                    [complex(0.0, -bad), 1.0]]))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any numpy warning
            with pytest.raises(ValueError, match="NaN or infinite"):
                ja.from_matrix(alg, mat)


def test_element_validation_and_immutability():
    a2 = ja.sym_real(2)
    with pytest.raises(ValueError):
        ja.Element(a2, np.zeros(4))
    x = ja.identity(a2)
    with pytest.raises(ValueError):
        x.coords[0] = 5.0
    with pytest.raises(ValueError):
        ja.from_matrix(a2, np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        ja.from_matrix(a2, np.array([[1.0, 1j], [-1j, 1.0]]))  # Hermitian, not real
    # complex dtype with a zero imaginary part is still a real matrix
    real = ja.from_matrix(a2, np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex))
    assert np.allclose(ja.to_matrix(real), [[2.0, 1.0], [1.0, 3.0]])
    h2 = ja.herm_complex(2)
    herm = ja.from_matrix(h2, np.array([[1.0, 1j], [-1j, 1.0]]))
    assert np.allclose(ja.to_matrix(herm), [[1.0, 1j], [-1j, 1.0]])
    # positive definiteness of the inner product
    rng = np.random.default_rng(17)
    for alg in ALL_ALGEBRAS:
        x = ja.random_element(alg, rng)
        assert ja.inner(x, x) >= 0.0
        assert ja.inner(ja.zero(alg), ja.zero(alg)) == 0.0


def test_coordinate_names():
    assert ja.coordinate_names(ja.sym_real(2)) == ["d1", "d2", "s1_2"]
    assert ja.coordinate_names(ja.herm_complex(2)) == ["d1", "d2", "s1_2", "a1_2"]
    assert ja.coordinate_names(ja.lorentz(2)) == ["x0", "x1", "x2"]
    for alg in ALL_ALGEBRAS:
        assert len(ja.coordinate_names(alg)) == alg.dim


def test_canonical_basis_orthonormal_for_matrix_kinds():
    for alg in [ja.sym_real(3), ja.herm_complex(2)]:
        basis = ja.canonical_basis(alg)
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                assert ja.inner(bi, bj) == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


@pytest.mark.parametrize("scale", [1e170, -1e170, 1e-170, -1e-170])
@pytest.mark.parametrize("alg,weight", [(ja.sym_real(2), 1.0), (ja.lorentz(2), np.sqrt(2.0))],
                         ids=["sym-real-dim3", "lorentz-dim3"])
def test_norm_neither_underflows_nor_overflows(alg, weight, scale):
    # the squares of these coordinates leave the double range
    x = ja.Element(alg, scale * np.array([3.0, -4.0, 12.0]))
    assert ja.norm(x) == pytest.approx(13.0 * abs(scale) * weight, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e300, 1e-300])
@pytest.mark.parametrize("alg,point", [(ja.lorentz(2), [2.0, 1.0, 0.0]),
                                       (ja.lorentz(5), [2.0, 0.6, 0.0, -0.8, 0.0, 0.0])],
                         ids=["lorentz-dim3", "lorentz-dim6"])
def test_lorentz_kernels_hold_at_extreme_scales(alg, point, scale):
    # x0^2 and |xbar|^2 leave the double range at these scales; the point
    # has eigenvalues 3 and 1 (to rounding) and inverse (2, -xbar) / 3
    x = ja.Element(alg, scale * np.array(point))
    assert ja.in_cone(x)
    np.testing.assert_allclose(ja.eigenvalues(x), [3.0 * scale, scale], rtol=1e-15, atol=0.0)
    expected = np.concatenate([[2.0], -np.array(point[1:])]) / 3.0
    np.testing.assert_allclose(ja.inverse(x).coords * scale, expected, rtol=1e-15, atol=0.0)
    root = ja.sqrt(x)
    np.testing.assert_allclose(ja.jordan_product(root, root).coords / scale, point,
                               rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e300, 1e-300])
@pytest.mark.parametrize("alg,point", [(ja.lorentz(2), [2.0, 1.0, 0.0]),
                                       (ja.lorentz(5), [2.0, 0.6, 0.0, -0.8, 0.0, 0.0])],
                         ids=["lorentz-dim3", "lorentz-dim6"])
def test_lorentz_spectral_decomposition_holds_at_extreme_scales(alg, point, scale):
    # the eigenvalues are 3 and 1 times the scale, and the idempotents
    # (1, +-xbar/|xbar|) / 2 do not depend on it
    x = ja.Element(alg, scale * np.array(point))
    s = ja.spectral_decomposition(x)
    np.testing.assert_array_equal(s.eigenvalues, ja.eigenvalues(x))
    np.testing.assert_allclose(s.eigenvalues, [3.0 * scale, scale], rtol=1e-15, atol=0.0)
    unit = np.array(point[1:])
    for c, sign in zip(s.idempotents, (1.0, -1.0)):
        np.testing.assert_allclose(c.coords, np.concatenate([[0.5], sign * unit / 2.0]),
                                   rtol=1e-15, atol=1e-16)


@pytest.mark.parametrize("alg", [ja.lorentz(2), ja.lorentz(5), ja.lorentz(9)],
                         ids=["lorentz-dim3", "lorentz-dim6", "lorentz-dim10"])
def test_lorentz_spectral_outputs_keep_the_closed_forms_bits(alg):
    # eigenvalues x0 +- |xbar|, the root ((s+ + s-) / 2, (s+ - s-) / 2 u)
    # with s+- = sqrt(x0 +- |xbar|) and u = xbar / |xbar|, and the
    # idempotents (1, +-u) / 2, each written out in plain numpy
    x = ja.random_cone_points_banded(alg, np.random.default_rng(alg.dim + 29), 2000)
    nrm = np.linalg.norm(x[:, 1:], axis=-1)
    unit = x[:, 1:] / nrm[:, None]
    lam = np.stack([x[:, 0] + nrm, x[:, 0] - nrm], axis=-1)
    assert _bits(ja.batch_eigenvalues(alg, x)) == _bits(lam)
    s = np.sqrt(lam)
    root = np.concatenate([((s[:, 0] + s[:, 1]) / 2.0)[:, None],
                           ((s[:, 0] - s[:, 1]) / 2.0)[:, None] * unit], axis=-1)
    assert _bits(ja.batch_sqrt(alg, x)) == _bits(root)
    for i in range(0, len(x), 10):
        d = ja.spectral_decomposition(ja.Element(alg, x[i]))
        assert _bits(d.eigenvalues) == _bits(lam[i])
        for c, sign in zip(d.idempotents, (1.0, -1.0)):
            assert _bits(c.coords) == _bits(np.concatenate([[1.0], sign * unit[i]]) / 2.0)


@pytest.mark.filterwarnings("ignore:overflow encountered in ldexp:RuntimeWarning")
@pytest.mark.parametrize("scale,expected", [(1e160, np.inf), (1e300, np.inf),
                                            (1e-160, 3e-320), (1e-300, 0.0)])
def test_lorentz_det_saturates_outside_the_double_range(scale, expected):
    # det (2, 1, 0) = 3; times scale^2 it overflows, turns subnormal or
    # underflows, but never gives nan
    alg = ja.lorentz(2)
    got = ja.det(ja.Element(alg, scale * np.array([2.0, 1.0, 0.0])))
    assert got == pytest.approx(expected, rel=1e-3, abs=0.0)
    assert ja.batch_det(alg, -scale * np.array([2.0, 1.0, 0.0])) == got


def test_lorentz_det_keeps_the_unscaled_bits_in_range():
    # scaling a row by a power of two is exact, so within range det equals
    # the raw formula x0^2 - |xbar|^2 bit for bit
    alg = ja.lorentz(4)
    k = ja.kernels(alg)
    rng = np.random.default_rng(3)
    for exponent in range(-140, 141, 20):
        x = rng.standard_normal((2000, alg.dim)) * 10.0**exponent
        np.testing.assert_array_equal(k.det(alg, x), k.rank2_det(alg, x))


# ---------------------------------------------------------------------------
# Det, inverse and banded points of the matrix kinds: one elimination, L D L*
# ---------------------------------------------------------------------------

CLOSED_FORM_ALGEBRAS = [ja.sym_real(1), ja.sym_real(2), ja.sym_real(3),
                        ja.herm_complex(2), ja.herm_complex(3)]
CLOSED_FORM_IDS = [f"{a.kind.value}-rank{a.rank}" for a in CLOSED_FORM_ALGEBRAS]
HIGH_RANK_ALGEBRAS = [ja.sym_real(4), ja.sym_real(5), ja.herm_complex(4)]
HIGH_RANK_IDS = ["sym-real-rank4", "sym-real-rank5", "herm-complex-rank4"]
EPS = np.finfo(float).eps


def _lapack_det_and_inverse(alg, x):
    m = ja.coords_to_matrices(alg, x)
    return np.linalg.det(m).real, ja.matrices_to_coords(alg, np.linalg.inv(m))


def _no_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    # eigh and eigvalsh would be the fallback off the open cone
    for name in ("det", "inv", "qr", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)


@pytest.mark.parametrize("alg", CLOSED_FORM_ALGEBRAS + HIGH_RANK_ALGEBRAS,
                         ids=CLOSED_FORM_IDS + HIGH_RANK_IDS)
def test_rank_three_or_below_calls_no_lapack_for_det_inverse_and_banded_points(alg, monkeypatch):
    # every rank: the elimination has all pivots positive on cone points
    _no_lapack(monkeypatch)
    x = ja.random_cone_points_banded(alg, np.random.default_rng(20), 50)
    assert np.all(ja.batch_det(alg, x) > 0)
    assert np.all(np.isfinite(ja.batch_inverse(alg, x)))
    # membership reads the same pivots, on and off the cone
    assert np.all(ja.batch_in_cone(alg, x))
    assert not np.any(ja.batch_in_cone(alg, -x))
    assert ja.in_cone(ja.Element(alg, x[0])) and not ja.in_cone(ja.Element(alg, -x[0]))


def _exact_det_and_inverse(m):
    """det and inverse of a real positive definite matrix of floats, by
    Gauss-Jordan elimination in exact rational arithmetic."""
    n = len(m)
    a = [[Fraction(float(v)) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    det = Fraction(1)
    for col in range(n):
        det *= a[col][col]
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(n):
            if r != col:
                a[r] = [v - a[r][col] * w for v, w in zip(a[r], a[col])]
    return det, np.array([[float(v) for v in row[n:]] for row in a])


def _conditioned_points(alg, rng, cond, n):
    """Cone points with eigenvalues 1 and 1/cond and the others log-uniform
    between.  Two small eigenvalues are what a cofactor expansion loses
    digits on, which :func:`_cone_point`'s points (one small) do not show."""
    r = alg.rank
    g = rng.standard_normal((n, r, r))
    if ja.kernels(alg).field is complex:
        g = g + 1j * rng.standard_normal((n, r, r))
    q, _ = np.linalg.qr(g)
    lam = 10.0 ** rng.uniform(-np.log10(cond), 0.0, (n, r))
    lam[:, 0], lam[:, -1] = 1.0, 1.0 / cond
    return ja.matrices_to_coords(alg, (q * lam[:, None, :]) @ q.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("alg", [ja.sym_real(2), ja.sym_real(3), ja.sym_real(4),
                                 ja.herm_complex(2), ja.herm_complex(3)],
                         ids=["sym-real-rank2", "sym-real-rank3", "sym-real-rank4",
                              "herm-complex-rank2", "herm-complex-rank3"])
def test_det_and_inverse_hold_to_eps_times_the_condition_number(alg):
    # against exact rational arithmetic on the matrix the coordinates stand
    # for (the kernels divide an off-diagonal coordinate by sqrt 2 as
    # coords_to_matrices does); a Hermitian matrix m = a + ib enters as the
    # real form [[a, -b], [b, a]], whose det is det(m)^2 and whose inverse
    # is the real form of m^-1.  A cofactor expansion at rank 3 is off by
    # about 1e6 eps cond here
    rng = np.random.default_rng(alg.dim)
    r = alg.rank
    for cond in 10.0 ** np.arange(2, 13, 2):
        x = _conditioned_points(alg, rng, cond, 20)
        det, inv = ja.batch_det(alg, x), ja.coords_to_matrices(alg, ja.batch_inverse(alg, x))
        for m, d, got in zip(ja.coords_to_matrices(alg, x), det, inv):
            if np.iscomplexobj(m):
                exact, real_form = _exact_det_and_inverse(np.block([[m.real, -m.imag],
                                                                    [m.imag, m.real]]))
                det_error = abs(Fraction(float(d)) ** 2 - exact) / exact / 2
                want = real_form[:r, :r] + 1j * real_form[r:, :r]
            else:
                exact, want = _exact_det_and_inverse(m)
                det_error = abs(Fraction(float(d)) - exact) / exact
            assert det_error <= 4 * EPS * cond
            assert np.linalg.norm(got - want) <= 4 * EPS * cond * np.linalg.norm(want)


def _anti_identity(r):
    return np.eye(r)[::-1]


OFF_CONE = [_anti_identity(2), _anti_identity(3), _anti_identity(4),
            np.array([[1e-10, 1.0], [1.0, 1.0]]), np.diag([-1.0, 1.0, 1.0])]


@pytest.mark.parametrize("kind", [ja.sym_real, ja.herm_complex], ids=["sym-real", "herm-complex"])
@pytest.mark.parametrize("m", OFF_CONE, ids=["J2", "J3", "J4", "tiny-pivot", "diag-1,1,1"])
def test_rows_off_the_cone_give_lapacks_det_and_inverse(kind, m):
    # a zero or negative pivot leaves the elimination, whose pivots are
    # positive only on the open cone, for the spectral form
    alg = kind(len(m))
    x = ja.matrices_to_coords(alg, m)
    inv = np.linalg.inv(m)
    assert ja.batch_det(alg, x) == pytest.approx(np.linalg.det(m), rel=1e-14, abs=0.0)
    np.testing.assert_allclose(ja.coords_to_matrices(alg, ja.batch_inverse(alg, x)), inv,
                               rtol=1e-14, atol=1e-14 * np.abs(inv).max())


@pytest.mark.parametrize("alg", [ja.sym_real(3), ja.herm_complex(3), ja.herm_complex(4)],
                         ids=["sym-real", "herm-complex", "herm-complex-rank4"])
def test_singular_and_nan_rows_give_non_finite_inverse_rows_alone(alg):
    r = alg.rank
    rows = ja.matrices_to_coords(alg, np.array([np.diag([0.0] + [1.0] * (r - 1)),
                                                np.diag([1.0] * (r - 1) + [0.0]),
                                                np.full((r, r), np.nan)]))
    # the identity with an inf off-diagonal entry: a pivot of -inf, and no
    # eigendecomposition (LAPACK raises on it at herm-complex rank >= 3)
    inf_row = ja.identity(alg).coords.copy()
    inf_row[r] = np.inf
    x = ja.random_cone_points_banded(alg, np.random.default_rng(29), 8)
    x[1::2] = np.vstack([rows, inf_row])
    with np.errstate(divide="ignore", invalid="ignore"):
        det, inv = ja.batch_det(alg, x), ja.batch_inverse(alg, x)
    np.testing.assert_array_equal(det[[1, 3]], 0.0)
    assert np.isnan(det[[5, 7]]).all()
    assert np.isnan(inv[7]).all()
    assert not np.any(np.all(np.isfinite(inv[1::2]), axis=-1))
    np.testing.assert_array_equal(det[::2], ja.batch_det(alg, x[::2]))
    np.testing.assert_array_equal(inv[::2], ja.batch_inverse(alg, x[::2]))


# ---------------------------------------------------------------------------
# Open-cone membership from the pivots of the same elimination
# ---------------------------------------------------------------------------

def _exact_positive_definite(m):
    """Sylvester's criterion on a real symmetric matrix of floats: every
    pivot of Gaussian elimination, in exact rational arithmetic, is > 0."""
    a = [[Fraction(float(v)) for v in row] for row in m]
    for col in range(len(a)):
        if a[col][col] <= 0:
            return False
        for r in range(col + 1, len(a)):
            ratio = a[r][col] / a[col][col]
            a[r] = [v - ratio * w for v, w in zip(a[r], a[col])]
    return True


@pytest.mark.parametrize("alg", [ja.sym_real(2), ja.sym_real(3), ja.sym_real(4),
                                 ja.herm_complex(2), ja.herm_complex(3)],
                         ids=["sym-real-rank2", "sym-real-rank3", "sym-real-rank4",
                              "herm-complex-rank2", "herm-complex-rank3"])
def test_membership_agrees_with_exact_sylvester_across_conditioning(alg):
    # points with least eigenvalue 1/cond, shifted by -t e/cond to least
    # eigenvalue (1 - t)/cond: inside for t < 1, outside for t > 1.  A
    # Hermitian m = a + ib is positive definite iff its real form
    # [[a, -b], [b, a]] is
    rng = np.random.default_rng(alg.dim + 40)
    e = ja.identity(alg).coords
    for cond in 10.0 ** np.arange(2, 13, 2):
        x = _conditioned_points(alg, rng, cond, 10)
        rows = np.concatenate([x - (t / cond) * e for t in (0.0, 0.5, 0.9, 1.1, 2.0)])
        exact = []
        for m in ja.coords_to_matrices(alg, rows):
            if np.iscomplexobj(m):
                m = np.block([[m.real, -m.imag], [m.imag, m.real]])
            exact.append(_exact_positive_definite(m))
        assert 0 < sum(exact) < len(exact)
        np.testing.assert_array_equal(ja.batch_in_cone(alg, rows), exact)


def _edge_rows(alg):
    """Rows off the open cone, each with the reason, and scaled cone points."""
    r, e = alg.rank, ja.identity(alg).coords
    outside = {"nan": np.full(alg.dim, np.nan)}
    for sign in (1.0, -1.0):
        for name, j in (("diagonal", 0), ("last diagonal", r - 1), ("off-diagonal", r),
                        ("last off-diagonal", alg.dim - 1)):
            x = e.copy()
            x[j] = sign * np.inf
            outside[f"{sign * np.inf} {name}"] = x
    ones = np.ones(r - 1)
    matrices = {"diag(0,1,..)": np.diag([0.0, *ones]), "diag(1,..,0)": np.diag([*ones, 0.0]),
                "diag(-1,1,..)": np.diag([-1.0, *ones]), "anti-identity": _anti_identity(r)}
    if r == 2:
        matrices["[[1e-10,1],[1,1]]"] = np.array([[1e-10, 1.0], [1.0, 1.0]])
    for name, m in matrices.items():
        outside[name] = ja.matrices_to_coords(alg, m)
    x = ja.random_cone_points_banded(alg, np.random.default_rng(31), 1)[0]
    inside = {f"{scale:g}": scale * x for scale in (1e150, 1e-150, 1e300, 1e-300)}
    return outside, inside


@pytest.mark.parametrize("alg", [ja.sym_real(2), ja.sym_real(3), ja.sym_real(4),
                                 ja.herm_complex(2), ja.herm_complex(3)],
                         ids=["sym-real-rank2", "sym-real-rank3", "sym-real-rank4",
                              "herm-complex-rank2", "herm-complex-rank3"])
def test_edge_rows_are_outside_and_scaled_points_inside_without_warnings(alg):
    # an inf diagonal entry leaves the other pivots positive, and would read
    # as inside if only their sign were asked; LAPACK's eigenvalues also put
    # all these rows outside, where they do not raise LinAlgError on a nan
    # row (rank >= 3) or an inf off-diagonal entry (herm-complex rank 3)
    outside, inside = _edge_rows(alg)
    rows = np.array(list(outside.values()) + list(inside.values()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mask = ja.batch_in_cone(alg, rows)
        alone = {name: ja.in_cone(ja.Element(alg, x)) for name, x in outside.items()}
        alone.update({name: ja.in_cone(ja.Element(alg, x)) for name, x in inside.items()})
    assert mask.tolist() == [False] * len(outside) + [True] * len(inside)
    assert alone == {**dict.fromkeys(outside, False), **dict.fromkeys(inside, True)}


def test_lorentz_rows_with_an_inf_coordinate_are_outside():
    # x0 - |xbar| is inf at (inf, 0, 0), which the finiteness of the row
    # puts outside; det and inverse of every non-finite row are all nan,
    # with no warning, also where x0^2 - |xbar|^2 is inf - inf
    alg = ja.lorentz(2)
    rows = np.array([[np.inf, 0.0, 0.0], [1.0, np.inf, 0.0], [np.inf, np.inf, 0.0],
                     [np.nan, 0.0, 0.0], [1e300, 5e299, 0.0], [1e-300, 0.0, 5e-301]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mask = ja.batch_in_cone(alg, rows)
        det, inv = ja.batch_det(alg, rows[:4]), ja.batch_inverse(alg, rows[:4])
    assert mask.tolist() == [False, False, False, False, True, True]
    assert np.isnan(det).all() and np.isnan(inv).all()


@pytest.mark.parametrize("alg", CLOSED_FORM_ALGEBRAS + HIGH_RANK_ALGEBRAS,
                         ids=CLOSED_FORM_IDS + HIGH_RANK_IDS)
def test_rows_in_the_cone_have_a_positive_det(alg):
    # membership and det read the same pivots, so a row inside has det > 0,
    # here on banded points and conditioned ones up to cond 1e8, each also
    # shifted across the boundary
    rng = np.random.default_rng(alg.dim + 50)
    e = ja.identity(alg).coords
    x = np.concatenate([ja.random_cone_points_banded(alg, rng, 200)]
                       + [_conditioned_points(alg, rng, c, 50) for c in 10.0 ** np.arange(1, 9)])
    least = np.min(ja.batch_eigenvalues(alg, x), axis=-1)
    rows = np.concatenate([x - t * least[:, None] * e for t in (0.0, 0.5, 0.99, 1.01)])
    inside = ja.batch_in_cone(alg, rows)
    assert 0 < inside.sum() < len(rows)
    assert np.all(ja.batch_det(alg, rows[inside]) > 0)


@pytest.mark.parametrize("alg", CLOSED_FORM_ALGEBRAS, ids=CLOSED_FORM_IDS)
def test_closed_forms_agree_with_lapack_across_scales(alg):
    x = ja.random_cone_points_banded(alg, np.random.default_rng(22), 500)
    det, _ = _lapack_det_and_inverse(alg, x)
    # the determinant of these scales stays in the double range at rank 3;
    # numpy's det goes through log |det|, whose rounding grows with the
    # scale, so the reference determinant is the unit-scale one
    for scale in 10.0 ** np.arange(-100, 101, 20):
        _, inv = _lapack_det_and_inverse(alg, scale * x)
        np.testing.assert_allclose(ja.batch_det(alg, scale * x), det * scale**alg.rank,
                                   rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(ja.batch_inverse(alg, scale * x), inv, rtol=1e-12,
                                   atol=1e-13 * np.abs(inv).max())
    # Gaussian coordinates, which also leave the cone
    g = np.random.default_rng(23).standard_normal((500, alg.dim))
    det, inv = _lapack_det_and_inverse(alg, g)
    np.testing.assert_allclose(ja.batch_det(alg, g), det, rtol=1e-9, atol=1e-14)
    np.testing.assert_allclose(ja.batch_inverse(alg, g), inv, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("alg", CLOSED_FORM_ALGEBRAS, ids=CLOSED_FORM_IDS)
def test_closed_forms_scale_exactly_by_powers_of_two(alg):
    # the rows are rescaled by a power of two before the formulas, so the
    # inverse holds from 2^-500 to 2^500 and det wherever it is in range
    x = ja.random_cone_points_banded(alg, np.random.default_rng(24), 200)
    det, inv = ja.batch_det(alg, x), ja.batch_inverse(alg, x)
    for m in range(-500, 501, 50):
        np.testing.assert_array_equal(ja.batch_inverse(alg, np.ldexp(x, m)), np.ldexp(inv, -m))
        if abs(alg.rank * m) < 1000:
            np.testing.assert_array_equal(ja.batch_det(alg, np.ldexp(x, m)),
                                          np.ldexp(det, alg.rank * m))


@pytest.mark.parametrize("alg", CLOSED_FORM_ALGEBRAS, ids=CLOSED_FORM_IDS)
def test_a_row_alone_gives_the_bits_it_gives_in_a_batch(alg):
    x = ja.random_cone_points_banded(alg, np.random.default_rng(25), 60)
    x[::7] *= 1e90  # rows of another scale in the same batch
    det, inv = ja.batch_det(alg, x), ja.batch_inverse(alg, x)
    for i in range(len(x)):
        assert ja.batch_det(alg, x[i]) == det[i]
        np.testing.assert_array_equal(ja.batch_inverse(alg, x[i]), inv[i])
    stacked = x.reshape(3, 20, alg.dim)
    np.testing.assert_array_equal(ja.batch_det(alg, stacked), det.reshape(3, 20))
    np.testing.assert_array_equal(ja.batch_inverse(alg, stacked), inv.reshape(stacked.shape))


ROW_KERNELS = {
    "jordan": ja.batch_jordan,
    "quad_apply": ja.batch_quad_apply,
    "det": lambda alg, a, b: ja.batch_det(alg, a),
    "inverse": lambda alg, a, b: ja.batch_inverse(alg, a),
    "sqrt": lambda alg, a, b: ja.batch_sqrt(alg, a),
    "eigenvalues": lambda alg, a, b: ja.batch_eigenvalues(alg, a),
    "in_cone": lambda alg, a, b: ja.batch_in_cone(alg, a),
    "lmap": lambda alg, a, b: ja.batch_lmap(alg, a),
    "quad_rep": lambda alg, a, b: ja.batch_quad_rep(alg, a),
}
ROW_ALGEBRAS = ([ja.sym_real(r) for r in (1, 2, 3, 4)] + [ja.herm_complex(r) for r in (2, 3, 4)]
                + [ja.lorentz(2), ja.lorentz(5)])
ROW_IDS = [f"{a.kind.value}-rank{a.rank}-dim{a.dim}" for a in ROW_ALGEBRAS]


def _bits(a):
    return np.asarray(a).tobytes()


@pytest.mark.parametrize("name", sorted(ROW_KERNELS))
@pytest.mark.parametrize("alg", ROW_ALGEBRAS, ids=ROW_IDS)
def test_every_batch_kernel_gives_a_row_alone_its_bits_in_a_batch(alg, name):
    # the identity checks share one batch's results among trials, so a row
    # must not see the rows around it, not even an inf or a nan one
    kernel, n = ROW_KERNELS[name], 4000
    rng = np.random.default_rng(26)
    a, b = (ja.random_cone_points_banded(alg, rng, n) for _ in range(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = kernel(alg, a, b)
        for i in rng.choice(n, 20, replace=False):
            assert _bits(kernel(alg, a[i], b[i])) == _bits(batch[i]), i
    # an inf diagonal or time coordinate, and a nan row
    for bad, row, coords in ((np.inf, 100, 0), (np.nan, 2000, slice(None))):
        a_bad, b_bad = a.copy(), b.copy()
        a_bad[row, coords] = b_bad[row, coords] = bad
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = kernel(alg, a_bad, b_bad)
        assert not {str(w.message) for w in caught}
        # the bad row comes back non-finite, or outside the cone; its det and
        # inverse are all nan, on every kind
        assert not (got[row] if name == "in_cone" else np.isfinite(got[row]).all())
        if name in ("det", "inverse"):
            assert np.isnan(got[row]).all()
        for i in (row - 1, row + 1):
            assert _bits(got[i]) == _bits(batch[i]), (bad, i)


@pytest.mark.parametrize("alg", [ja.sym_real(1), ja.sym_real(3), ja.herm_complex(2)],
                         ids=["sym-real-rank1", "sym-real-rank3", "herm-complex-rank2"])
def test_products_keep_a_diagonal_entry_in_the_top_binade(alg):
    # x o x and P(x)e have the diagonal entry d^2 > 2^1023, which a sum of
    # two copies before halving would overflow
    d = 1.2e154
    x = np.zeros(alg.dim)
    x[0] = d
    e = ja.identity(alg).coords
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for got in (ja.batch_jordan(alg, x, x), ja.batch_quad_apply(alg, x, e)):
            assert got[0] == d * d and not got[1:].any()


ACCURACY_ALGEBRAS = ([ja.sym_real(r) for r in (2, 3, 4, 5)]
                     + [ja.herm_complex(r) for r in (2, 3, 4)])


def _extended_matrices(alg, x):
    """The matrices of coordinate rows ``x`` in extended precision, and the
    column-major off-diagonal positions (i < j) in coordinate order."""
    r, half = alg.rank, np.sqrt(np.longdouble(2.0)) / 2
    rows, cols = zip(*[(i, j) for j in range(1, r) for i in range(j)])
    x = x.astype(np.longdouble)
    off = x[..., r::alg.peirce] * half
    if alg.peirce == 2:
        off = off + 1j * (x[..., r + 1::2] * half)
    m = np.zeros(x.shape[:-1] + (r, r), dtype=np.clongdouble)
    m[..., range(r), range(r)] = x[..., :r]
    m[..., rows, cols] = off
    m[..., cols, rows] = np.conj(off)
    return m, rows, cols


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS / 2, reason="no extended precision")
@pytest.mark.parametrize("alg", ACCURACY_ALGEBRAS,
                         ids=[f"{a.kind.value}-rank{a.rank}" for a in ACCURACY_ALGEBRAS])
def test_products_hold_to_a_few_eps_of_an_extended_precision_reference(alg):
    rng = np.random.default_rng(2026)
    x, y = (ja.random_cone_points_banded(alg, rng, 20000) for _ in range(2))
    mx, rows, cols = _extended_matrices(alg, x)
    my = _extended_matrices(alg, y)[0]
    sqrt2 = np.sqrt(np.longdouble(2.0))

    def coords(m):
        """Coordinates of the Hermitian part of ``m``, in extended precision."""
        h = (m + np.conj(np.swapaxes(m, -1, -2))) / 2
        out = [h[..., i, i].real for i in range(alg.rank)]
        for i, j in zip(rows, cols):
            out.append(sqrt2 * h[..., i, j].real)
            if alg.peirce == 2:
                out.append(sqrt2 * h[..., i, j].imag)
        return np.stack(out, axis=-1)

    for got, want in ((ja.batch_jordan(alg, x, y), coords(mx @ my)),
                      (ja.batch_quad_apply(alg, x, y), coords(mx @ my @ mx))):
        err = (np.linalg.norm((got - want).astype(float), axis=-1)
               / np.linalg.norm(want.astype(float), axis=-1))
        assert np.quantile(err, 0.99) <= 2 * EPS and err.max() <= 4 * EPS, \
            (np.quantile(err, 0.99) / EPS, err.max() / EPS)


def _spin_image(x, off_scale=1.0 / np.sqrt(2.0)):
    """phi(d1, d2, s) = ((d1 + d2) / 2, (d1 - d2) / 2, s / sqrt 2), the Jordan
    isomorphism of a rank-2 matrix algebra onto the spin factor of its dim."""
    d1, d2 = x[..., :1], x[..., 1:2]
    return np.concatenate([(d1 + d2) / 2, (d1 - d2) / 2, off_scale * x[..., 2:]], axis=-1)


def _commutation_errors(mat, spin, x, y, phi):
    """How far each kernel is from commuting with phi on the rows x and y,
    in units of eps times the rounding each result can carry: cond for det
    and inverse, sqrt(cond) for the square root, the row norms otherwise."""
    px, py = phi(x), phi(y)
    lam = ja.batch_eigenvalues(spin, px)
    cond = lam[:, 0] / lam[:, 1]
    nx, ny = np.linalg.norm(x, axis=-1), np.linalg.norm(y, axis=-1)

    def rel(got, want, scale):
        diff = np.linalg.norm(np.reshape(got - want, (len(x), -1)), axis=-1)
        return np.max(diff / (EPS * scale))

    inv, root = ja.batch_inverse(spin, px), ja.batch_sqrt(spin, px)
    det = ja.batch_det(spin, px)
    return {
        "det": rel(ja.batch_det(mat, x), det, cond * np.abs(det)),
        "inverse": rel(phi(ja.batch_inverse(mat, x)), inv, cond * np.linalg.norm(inv, axis=-1)),
        "jordan": rel(phi(ja.batch_jordan(mat, x, y)), ja.batch_jordan(spin, px, py), nx * ny),
        "inner": rel(ja.batch_inner(mat, x, y), ja.batch_inner(spin, px, py), nx * ny),
        "trace": rel(ja.batch_trace(mat, x), ja.batch_trace(spin, px), nx),
        "eigenvalues": rel(ja.batch_eigenvalues(mat, x), lam, nx),
        "sqrt": rel(phi(ja.batch_sqrt(mat, x)), root,
                    np.sqrt(cond) * np.linalg.norm(root, axis=-1)),
    }


@pytest.mark.parametrize("mat,spin", [(ja.sym_real(2), ja.lorentz(2)),
                                      (ja.herm_complex(2), ja.lorentz(3))],
                         ids=["sym-real-rank2-lorentz-dim3", "herm-complex-rank2-lorentz-dim4"])
def test_rank2_matrix_kernels_commute_with_the_spin_factor_isomorphism(mat, spin):
    # the spin factor's closed forms are an independent oracle of the rank-2
    # elimination and of the matrix kind's Jacobi eigenvalues and square root
    rng = np.random.default_rng(30)

    def points():
        conditioned = [_conditioned_points(mat, rng, c, 50) for c in 10.0 ** np.arange(1, 9)]
        return np.concatenate([ja.random_cone_points_banded(mat, rng, 500)] + conditioned)

    x, y = points(), points()
    errors = _commutation_errors(mat, spin, x, y, _spin_image)
    assert max(errors.values()) <= 8, errors
    # negative control: with s / 2 for s / sqrt 2 the map keeps the cone but
    # is no isomorphism, and only the trace does not see it
    errors = _commutation_errors(mat, spin, x, y, lambda z: _spin_image(z, 0.5))
    assert min(value for name, value in errors.items() if name != "trace") > 1e6, errors


def _mixed_magnitude_rows(rng, n, dim):
    return rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-150, 150, (n, dim))


@pytest.mark.parametrize("dim", range(1, 8))
def test_numpy_sums_a_row_shorter_than_8_from_left_to_right(dim):
    # _row_sum adds the columns in turn below dim 8 for numpy's bits; a numpy
    # that sums short rows in another order fails here
    sq = _mixed_magnitude_rows(np.random.default_rng(dim), 20000, dim) ** 2
    by_column = sq[:, 0].copy()
    for j in range(1, dim):
        by_column += sq[:, j]
    assert by_column.tobytes() == np.add.reduce(sq, axis=1).tobytes()


@pytest.mark.parametrize("dim", range(1, 12))
def test_row_sum_has_the_bits_of_numpys_row_sum(dim):
    rng = np.random.default_rng(200 + dim)
    rows = _mixed_magnitude_rows(rng, 4000, dim)
    row = _mixed_magnitude_rows(rng, 1, dim)[0]
    wide = _mixed_magnitude_rows(rng, 4000, 12)
    # a batch, stacked leading axes, strided rows, columns cut from wider
    # rows, one row broadcast against the batch, a few rows, and one row alone
    for a in (rows, rows.reshape(8, 500, dim), rows[::3], wide[:, :dim], row * rows, rows[:20],
              row):
        assert ja._row_sum(a).tobytes() == np.add.reduce(a, axis=-1).tobytes()


@pytest.mark.parametrize("alg", [ja.lorentz(2), ja.lorentz(5), ja.lorentz(6), ja.lorentz(7),
                                 ja.lorentz(8), ja.sym_real(2), ja.sym_real(3), ja.sym_real(4),
                                 ja.herm_complex(2), ja.herm_complex(3)],
                         ids=["lorentz-dim3", "lorentz-dim6", "lorentz-dim7", "lorentz-dim8",
                              "lorentz-dim9", "sym-real-dim3", "sym-real-dim6", "sym-real-dim10",
                              "herm-complex-dim4", "herm-complex-dim9"])
def test_short_axis_kernels_keep_the_bits_of_numpys_row_sum(alg):
    k = ja.kernels(alg)
    rng = np.random.default_rng(29)
    x = _mixed_magnitude_rows(rng, 4000, alg.dim)
    y = _mixed_magnitude_rows(rng, 4000, alg.dim)
    row = y[0]

    def outputs():
        return [k.inner(alg, x, y), k.inner(alg, row, x), k.inner(alg, x, row),
                k.trace(alg, x), k.rank2_det(alg, x), k.jordan(alg, x, y)[..., 0],
                k.jordan(alg, row, x)[..., 0]]

    fast = outputs()
    with mock.patch.object(ja, "_row_sum", lambda a: np.add.reduce(a, axis=-1)):
        reference = outputs()
    for got, want in zip(fast, reference):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("alg", CLOSED_FORM_ALGEBRAS, ids=CLOSED_FORM_IDS)
def test_an_exactly_singular_row_gives_a_non_finite_inverse_row(alg):
    # LAPACK raised LinAlgError for the whole batch; the closed form, as on
    # the spin factor, gives det 0 and a non-finite inverse for that row only
    singular = ja.matrices_to_coords(alg, np.diag([1.0] * (alg.rank - 1) + [0.0]))
    x = ja.random_cone_points_banded(alg, np.random.default_rng(27), 3)
    x[1] = singular
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = ja.batch_inverse(alg, x)
    assert ja.batch_det(alg, x)[1] == 0.0
    assert not np.all(np.isfinite(inv[1]))
    np.testing.assert_array_equal(inv[[0, 2]], ja.batch_inverse(alg, x[[0, 2]]))


@pytest.mark.parametrize("alg", CLOSED_FORM_ALGEBRAS + [ja.sym_real(4), ja.herm_complex(4)],
                         ids=CLOSED_FORM_IDS + ["sym-real-rank4", "herm-complex-rank4"])
def test_banded_points_are_the_qr_construction_up_to_rounding(alg):
    # the draws are g, then lam; Gram-Schmidt columns differ from the QR
    # columns by a phase each, which q diag(lam) q* does not see
    n, r = 300, alg.rank
    got = ja.random_cone_points_banded(alg, np.random.default_rng(28), n, 0.2, 5.0)
    rng = np.random.default_rng(28)
    g = rng.standard_normal((n, r, r))
    if ja.kernels(alg).field is complex:
        g = g + 1j * rng.standard_normal((n, r, r))
    lam = rng.uniform(0.2, 5.0, size=(n, r))
    q, _ = np.linalg.qr(g)
    want = ja.matrices_to_coords(alg, (q * lam[:, None, :]) @ q.conj().swapaxes(-1, -2))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


# ---------------------------------------------------------------------------
# Square roots and spectral decompositions from batched Jacobi rotations
# ---------------------------------------------------------------------------

ROOT_ALGEBRAS = [ja.sym_real(r) for r in (1, 2, 3, 4)] + [ja.herm_complex(r) for r in (2, 3, 4)]
ROOT_IDS = [f"{a.kind.value}-rank{a.rank}" for a in ROOT_ALGEBRAS]


def _transported_points(alg, rng, n):
    """Banded points x transported by P(c), with c banded in [1e-4, 1]: the
    condition numbers reach 1e7 to 1e8."""
    x = ja.random_cone_points_banded(alg, rng, n)
    return ja.batch_quad_apply(alg, ja.random_cone_points_banded(alg, rng, n, 1e-4, 1.0), x)


@pytest.mark.parametrize("alg", ROOT_ALGEBRAS, ids=ROOT_IDS)
def test_root_holds_to_eps_and_agrees_with_lapack_on_conditioned_points(alg):
    # per row, |sqrt(x) o sqrt(x) - x| <= 64 eps |x|, and sqrt(x) lies within
    # 32 eps sqrt(kappa) |sqrt(x)| of LAPACK's U sqrt(w) U*, which is what a
    # backward error of eps |x| allows; |.| is the norm of the coordinates,
    # that of the trace inner product.  Here the largest values were 22 eps
    # |x| and 5.1 eps sqrt(kappa) |sqrt(x)|; LAPACK's own root squares back
    # within 20 eps |x|
    rng = np.random.default_rng(40)
    x = _transported_points(alg, rng, 2000)
    lam = ja.batch_eigenvalues(alg, x)
    kappa = lam[:, 0] / lam[:, -1]
    assert alg.rank == 1 or kappa.max() > 1e6
    root = ja.batch_sqrt(alg, x)
    residual = np.linalg.norm(ja.batch_jordan(alg, root, root) - x, axis=-1)
    assert np.all(residual <= 64 * EPS * np.linalg.norm(x, axis=-1))
    w, u = np.linalg.eigh(ja.coords_to_matrices(alg, x))
    want = ja.matrices_to_coords(alg, (u * np.sqrt(w)[:, None, :]) @ u.conj().swapaxes(-1, -2))
    assert np.all(np.linalg.norm(root - want, axis=-1)
                  <= 32 * EPS * np.sqrt(kappa) * np.linalg.norm(want, axis=-1))


@pytest.mark.parametrize("alg", ROOT_ALGEBRAS + [ja.lorentz(2), ja.lorentz(5)],
                         ids=ROOT_IDS + ["lorentz-dim3", "lorentz-dim6"])
def test_root_scales_exactly_by_even_powers_of_two(alg):
    # the rows are rescaled by 4^m before the rotations, so sqrt(4^m x) =
    # 2^m sqrt(x) bit for bit; every m in one stacked batch
    x = _transported_points(alg, np.random.default_rng(41), 20)
    m = np.arange(-250, 251)[:, None, None]
    got = ja.batch_sqrt(alg, np.ldexp(x, 2 * m))
    assert got.tobytes() == np.ldexp(ja.batch_sqrt(alg, x), m).tobytes()


@pytest.mark.parametrize("alg", ROOT_ALGEBRAS, ids=ROOT_IDS)
def test_off_the_cone_the_inverse_agrees_with_lapack_and_the_root_raises_where_it_did(alg):
    # Gaussian rows shifted by t e: the inverse takes the rotations off the
    # cone, at the tolerances of the closed forms' Gaussian rows; the root
    # raises on a row exactly where LAPACK's least eigenvalue is <= 0
    rng = np.random.default_rng(42)
    shift = rng.uniform(0.0, 3.0, (200, 1)) * ja.identity(alg).coords
    g = rng.standard_normal((200, alg.dim)) + shift
    _, inv = _lapack_det_and_inverse(alg, g)
    np.testing.assert_allclose(ja.batch_inverse(alg, g), inv, rtol=1e-9, atol=1e-12)
    least = np.linalg.eigvalsh(ja.coords_to_matrices(alg, g))[:, 0]
    assert 0 < np.sum(least > 0) < len(g)
    for row, inside in zip(g, least > 0):
        if inside:
            ja.batch_sqrt(alg, row)
        else:
            with pytest.raises(ja.NotInConeError):
                ja.batch_sqrt(alg, row)


@pytest.mark.parametrize("alg", [ja.sym_real(2), ja.herm_complex(3), ja.lorentz(3)],
                         ids=["sym-real-rank2", "herm-complex-rank3", "lorentz-dim4"])
def test_a_nan_row_hides_no_row_off_the_cone_from_the_root(alg):
    # the least eigenvalue of the batch was nan, and nan <= 0 is False, so
    # the row off the cone took sqrt of a negative number without a raise
    x = ja.random_cone_points_banded(alg, np.random.default_rng(45), 3)
    x[0], x[2] = np.nan, -x[2]
    with pytest.raises(ja.NotInConeError):
        ja.batch_sqrt(alg, x)
    assert np.isnan(ja.batch_sqrt(alg, x[:2])[0]).all()


@pytest.mark.parametrize("alg", [ja.sym_real(2), ja.herm_complex(2)],
                         ids=["sym-real-rank2", "herm-complex-rank2"])
def test_one_sweep_leaves_a_rank_two_row_diagonal(alg, monkeypatch):
    # one rotation zeroes the off-diagonal entry, on and off the cone, so a
    # second sweep rotates nothing and a cap of one sweep changes no bit
    rng = np.random.default_rng(43)
    x = np.concatenate([_transported_points(alg, rng, 500), rng.standard_normal((500, alg.dim))])
    forms, s = ja.kernels(alg), ja._pow2_rows(x)[0]
    with np.errstate(all="ignore"):
        w, vec = ja._jacobi(alg.rank, alg.peirce, *forms._entries(alg, s))
        monkeypatch.setattr(ja, "_JACOBI_SWEEPS", 1)
        diag, up = forms._entries(alg, s)
        once = ja._jacobi(alg.rank, alg.peirce, diag, up)
    assert all(not part.any() for part in up[0, 1])
    assert _bits(once[0]) == _bits(w)
    assert all(_bits(once[1][ik]) == _bits(vec[ik]) for ik in vec)


@pytest.mark.parametrize("alg", ROOT_ALGEBRAS, ids=ROOT_IDS)
def test_roots_decompositions_and_off_cone_inverses_call_no_lapack(alg, monkeypatch):
    rng = np.random.default_rng(44)
    x = ja.random_cone_points_banded(alg, rng, 50)
    g = rng.standard_normal((50, alg.dim))
    # off the cone, det is the product of the eigenvalues
    want = (ja.batch_sqrt(alg, x), ja.batch_inverse(alg, g), ja.batch_det(alg, g),
            np.linalg.eigvalsh(ja.coords_to_matrices(alg, g))[:, ::-1])
    _no_lapack(monkeypatch)
    assert _bits(ja.batch_sqrt(alg, x)) == _bits(want[0])
    assert _bits(ja.batch_inverse(alg, g)) == _bits(want[1])
    assert _bits(ja.batch_det(alg, g)) == _bits(want[2])
    lam = ja.batch_eigenvalues(alg, g)
    np.testing.assert_allclose(lam, want[3], rtol=0.0, atol=1e-13)
    el = ja.Element(alg, g[0])
    assert _bits(ja.eigenvalues(el)) == _bits(lam[0])
    assert _bits(ja.inverse(el).coords) == _bits(want[1][0])
    s = ja.spectral_decomposition(el)
    assert _bits(s.eigenvalues) == _bits(lam[0])
    np.testing.assert_allclose(s.reconstruct().coords, g[0], rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("alg", [ja.sym_real(3), ja.herm_complex(3)],
                         ids=["sym-real-rank3", "herm-complex-rank3"])
def test_rank_three_gig_sampler_calls_no_lapack(alg, monkeypatch, mcmc_settings):
    # the Metropolis target above rank 2 reads membership and log det from
    # the pivots of the elimination
    mcmc_settings(BURN_IN=100, THIN=1, CHAINS=4)
    a, b = (ja.Element(alg, row)
            for row in ja.random_cone_points_banded(alg, np.random.default_rng(45), 2))
    params = dist.GigParams(-1.7, a, b)
    want = dist.sample_gig(params, 7, 40)
    _no_lapack(monkeypatch)
    got = dist.sample_gig(params, 7, 40)
    assert got.method == "mcmc" and not got.mcmc["diverged"]
    assert _bits(got.coords) == _bits(want.coords)


# ---------------------------------------------------------------------------
# Kernel-table properties across scale and distance to the cone boundary
# ---------------------------------------------------------------------------

TABLE_ALGEBRAS = ([ja.sym_real(r) for r in (1, 2, 3, 4)]
                  + [ja.herm_complex(r) for r in (2, 3, 4)]
                  + [ja.lorentz(n) for n in (2, 3, 4, 5, 6)])


def _cone_point(alg, rng, gap):
    """A cone point with largest eigenvalue 1 and smallest ``gap`` (rank >= 2)."""
    x = ja.Element(alg, ja.random_cone_points_banded(alg, rng, 1, 1.0, 2.0)[0])
    s = ja.spectral_decomposition(x)
    lam = s.eigenvalues / s.eigenvalues[0]
    if alg.rank > 1:
        lam[-1] = gap
    return sum(value * c.coords for value, c in zip(lam, s.idempotents))


@hyp_st.composite
def _scaled_cone_pairs(draw):
    """(alg, scale, x, y, cond): x and y are unit-scale cone points whose
    smallest eigenvalue ratio is 1/cond >= 1e-6; the properties are
    evaluated at scale * x and scale * y, with scale in [1e-150, 1e150]."""
    alg = draw(hyp_st.sampled_from(TABLE_ALGEBRAS))
    scale = 10.0 ** draw(hyp_st.floats(-150, 150))
    gaps = [10.0 ** draw(hyp_st.floats(-6, 0)) for _ in range(2)]
    rng = np.random.default_rng(draw(hyp_st.integers(0, 2**32 - 1)))
    x, y = (_cone_point(alg, rng, g) for g in gaps)
    return alg, scale, x, y, 1.0 / min(gaps)


def _tol(cond):
    # the error of an inverse grows with the condition number, and each
    # property inverts twice in a row, so allow its square
    return 32.0 * np.finfo(float).eps * cond**2


def _rel(diff, ref):
    # both arguments are rescaled to unit size, so their squares neither
    # underflow nor overflow
    return np.linalg.norm(diff) / np.linalg.norm(ref)


@settings(max_examples=150)
@given(_scaled_cone_pairs())
def test_inverse_is_an_involution_across_scales(case):
    alg, scale, x, y, cond = case
    inv = ja.batch_inverse
    assert _rel(inv(alg, inv(alg, scale * x)) / scale - x, x) <= _tol(cond)


@settings(max_examples=150)
@given(_scaled_cone_pairs())
def test_cone_map_is_an_involution_across_scales(case):
    alg, scale, x, y, cond = case
    inv = ja.batch_inverse
    u = inv(alg, scale * x + scale * y)
    v = inv(alg, scale * x) - u
    x2 = inv(alg, u + v)
    y2 = inv(alg, u) - x2
    assert max(_rel(x2 / scale - x, x), _rel(y2 / scale - y, y)) <= _tol(cond)


@settings(max_examples=150)
@given(_scaled_cone_pairs())
def test_hua_identity_across_scales(case):
    alg, scale, x, y, cond = case
    inv = ja.batch_inverse
    a, b = scale * x, scale * y
    lhs = inv(alg, a) - inv(alg, a + b)
    rhs = inv(alg, a + ja.batch_quad_apply(alg, a, inv(alg, b)))
    assert _rel(scale * lhs - scale * rhs, scale * rhs) <= _tol(cond)


def test_kernel_properties_reject_a_skewed_inverse():
    inverse = ja.batch_inverse

    def scaled(alg, a):
        return inverse(alg, a) * (1.0 + 1e-9)

    def first_coordinate_scaled(alg, a):
        out = inverse(alg, a)
        out[..., 0] *= 1.0 + 1e-9
        return out

    # the inverse is homogeneous of degree -1, so a uniform factor cancels
    # when it is inverted twice and in the cone map; skewing one coordinate
    # breaks all three properties
    properties = (test_inverse_is_an_involution_across_scales,
                  test_cone_map_is_an_involution_across_scales,
                  test_hua_identity_across_scales)
    cases = [(scaled, test_hua_identity_across_scales)]
    cases += [(first_coordinate_scaled, test) for test in properties]
    for skewed, test in cases:
        with mock.patch.object(ja, "batch_inverse", skewed), pytest.raises(AssertionError):
            test()
