"""Element arithmetic, operators, and spectral calculus for all three families."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp_st

from symcone import algebra as ja

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


BATCH_ALGEBRAS = ALL_ALGEBRAS + [ja.sym_real(4), ja.herm_complex(4)]
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
    # explicit threshold override admits small eigenvalues
    x = ja.inverse(ja.from_matrix(a2, np.diag([1.0, 1e-6])), threshold=1e-9)
    assert np.allclose(ja.to_matrix(x), np.diag([1.0, 1e6]))


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
