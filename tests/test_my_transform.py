"""The involutive cone map, Hua's identity, and its Jacobian."""

import numpy as np
import pytest

from symcone import algebra as ja
from symcone import my_transform as mt

KINDS = [ja.sym_real(2), ja.sym_real(3), ja.herm_complex(2), ja.lorentz(2), ja.lorentz(3)]
IDS = [f"{a.kind.value}-dim{a.dim}" for a in KINDS]


def test_my_map_scalar_case():
    a1 = ja.sym_real(1)
    one = ja.identity(a1)
    pair = mt.my_map(one, one)
    assert pair.first.coords[0] == pytest.approx(0.5)
    assert pair.second.coords[0] == pytest.approx(0.5)


def test_my_map_identity_pair():
    for alg in KINDS:
        e = ja.identity(alg)
        pair = mt.my_map(e, e)
        assert np.allclose(pair.first.coords, 0.5 * e.coords)
        assert np.allclose(pair.second.coords, 0.5 * e.coords)


def test_my_map_diagonal_case():
    a2 = ja.sym_real(2)
    x = ja.from_matrix(a2, np.diag([1.0, 2.0]))
    y = ja.from_matrix(a2, np.diag([1.0, 1.0]))
    pair = mt.my_map(x, y)
    assert np.allclose(ja.to_matrix(pair.first), np.diag([0.5, 1.0 / 3.0]))
    assert np.allclose(ja.to_matrix(pair.second), np.diag([0.5, 1.0 / 6.0]))


@pytest.mark.parametrize("alg", KINDS, ids=IDS)
def test_batch_my_map_matches_my_map_and_undoes_itself(alg):
    rng = np.random.default_rng(alg.dim)
    x = ja.random_cone_points_banded(alg, rng, 40)
    y = ja.random_cone_points_banded(alg, rng, 40)
    u, v = mt.batch_my_map(alg, x, y)
    for i in range(0, 40, 13):
        pair = mt.my_map(ja.Element(alg, x[i]), ja.Element(alg, y[i]))
        np.testing.assert_allclose(u[i], pair.first.coords, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(v[i], pair.second.coords, rtol=1e-12, atol=1e-14)
    x2, y2 = mt.batch_my_map(alg, u, v)
    np.testing.assert_allclose(x2, x, rtol=1e-10)
    np.testing.assert_allclose(y2, y, rtol=1e-10)


def test_my_map_rejects_off_cone():
    a2 = ja.sym_real(2)
    bad = ja.from_matrix(a2, np.diag([1.0, -1.0]))
    with pytest.raises(ja.NotInConeError):
        mt.my_map(bad, ja.identity(a2))
    with pytest.raises(ja.NotInConeError):
        mt.ConePair(bad, ja.identity(a2))


def test_hua_and_jacobian_formula_reject_off_cone():
    a2 = ja.sym_real(2)
    bad = ja.from_matrix(a2, np.diag([1.0, -1.0]))
    with pytest.raises(ja.NotInConeError, match="hua_rhs requires a in the open cone"):
        mt.hua_rhs(bad, ja.identity(a2))
    with pytest.raises(ja.NotInConeError, match="jacobian requires open-cone inputs"):
        mt.jacobian_det_formula(ja.identity(a2), bad)


@pytest.mark.parametrize("alg", KINDS, ids=IDS)
def test_outputs_stay_in_cone(alg):
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = ja.Element(alg, ja.random_cone_point(alg, rng).coords)
        y = ja.Element(alg, ja.random_cone_point(alg, rng).coords)
        pair = mt.my_map(x, y)
        assert ja.in_cone(pair.first)
        assert ja.in_cone(pair.second)


@pytest.mark.parametrize("alg", KINDS, ids=IDS)
def test_involution(alg):
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = ja.random_cone_point_banded(alg, rng)
        y = ja.random_cone_point_banded(alg, rng)
        pair = mt.my_map(x, y)
        back = mt.my_map(pair.first, pair.second)
        assert np.abs(back.first.coords - x.coords).max() < 1e-9
        assert np.abs(back.second.coords - y.coords).max() < 1e-9


def test_hua_scalar_and_identity_cases():
    a1 = ja.sym_real(1)
    one = ja.identity(a1)
    assert mt.hua_rhs(one, one).coords[0] == pytest.approx(0.5)
    a2 = ja.sym_real(2)
    e = ja.identity(a2)
    assert np.allclose(mt.hua_rhs(e, e).coords, 0.5 * e.coords)


def test_hua_diagonal_case():
    a2 = ja.sym_real(2)
    a = ja.from_matrix(a2, np.diag([2.0, 1.0]))
    b = ja.from_matrix(a2, np.diag([1.0, 3.0]))
    # both sides reduce to diag(1/2 - 1/3, 1 - 1/4)
    assert np.allclose(ja.to_matrix(mt.hua_rhs(a, b)), np.diag([1.0 / 6.0, 0.75]))


@pytest.mark.parametrize("alg", KINDS, ids=IDS)
def test_hua_matches_difference_form(alg):
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = ja.Element(alg, ja.random_cone_points_banded(alg, rng, 1)[0])
        b = ja.Element(alg, ja.random_cone_points_banded(alg, rng, 1)[0])
        lhs = ja.inverse(a) - ja.inverse(a + b)
        assert np.abs(mt.hua_rhs(a, b).coords - lhs.coords).max() < 1e-8


def test_jacobian_rank1_closed_form():
    a1 = ja.sym_real(1)
    one = ja.identity(a1)
    # d(x,y)/d(u,v) of the scalar map has |det| = (u (u+v))^-2
    assert mt.jacobian_det_formula(one, one) == pytest.approx(0.25)
    assert mt.jacobian_det_numeric(one, one, 1e-5) == pytest.approx(0.25, abs=1e-6)


def test_jacobian_identity_pair_sym2():
    a2 = ja.sym_real(2)
    e = ja.identity(a2)
    # det e = 1, det 2e = 4, exponent -2 * 3 / 2
    assert mt.jacobian_det_formula(e, e) == pytest.approx(1.0 / 64.0)


@pytest.mark.parametrize("alg", KINDS, ids=IDS)
def test_jacobian_formula_vs_numeric(alg):
    rng = np.random.default_rng(4)
    for _ in range(30):
        u = ja.Element(alg, ja.random_cone_points_banded(alg, rng, 1)[0])
        v = ja.Element(alg, ja.random_cone_points_banded(alg, rng, 1)[0])
        formula = mt.jacobian_det_formula(u, v)
        assert formula > 0
        numeric = mt.jacobian_det_numeric(u, v)
        assert abs(numeric - formula) < 1e-4 * formula


def test_jacobian_richardson_refinement():
    a2 = ja.sym_real(2)
    rng = np.random.default_rng(5)
    u = ja.Element(a2, ja.random_cone_points_banded(a2, rng, 1)[0])
    v = ja.Element(a2, ja.random_cone_points_banded(a2, rng, 1)[0])
    formula = mt.jacobian_det_formula(u, v)
    coarse = mt.jacobian_det_numeric(u, v, step=1e-3)
    refined = mt.jacobian_det_numeric(u, v, step=1e-3, richardson=True)
    assert abs(refined - formula) < abs(coarse - formula)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale, expected", [(1e-5, np.inf), (1e5, 0.0)])
def test_element_jacobians_leave_the_double_range_without_a_warning(scale, expected):
    # on herm-complex r = 4 the log Jacobian at scale * e is about 715 at
    # 1e-5 and -759 at 1e5, past the exp of a double: inf and 0, as the
    # element-level forms document, and no overflow warning
    alg = ja.herm_complex(4)
    u = ja.identity(alg) * scale
    assert mt.jacobian_det_formula(u, u) == expected
    assert mt.jacobian_det_numeric(u, u, step=1e-8) == expected


def _fd_matrix_loop(u, v, step):
    """Per-coordinate central differences of my_map, one perturbation at a time."""
    alg = u.algebra
    z = np.concatenate([u.coords, v.coords])
    cols = []
    for k in range(z.size):
        h = step * (1.0 + abs(z[k]))
        sides = []
        for sign in (1.0, -1.0):
            zk = z.copy()
            zk[k] += sign * h
            pair = mt.my_map(ja.Element(alg, zk[: alg.dim]), ja.Element(alg, zk[alg.dim :]))
            sides.append(np.concatenate([pair.first.coords, pair.second.coords]))
        cols.append((sides[0] - sides[1]) / (2.0 * h))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("alg", KINDS + [ja.sym_real(1), ja.herm_complex(3)],
                         ids=IDS + ["sym-real-dim1", "herm-complex-dim9"])
def test_batch_jacobian_matches_per_point(alg):
    rng = np.random.default_rng(8)
    u = ja.random_cone_points_banded(alg, rng, 12).reshape(3, 4, alg.dim)
    v = ja.random_cone_points_banded(alg, rng, 12).reshape(3, 4, alg.dim)
    batch = mt.batch_jacobian_fd_matrix(alg, u, v)
    assert batch.shape == (3, 4, 2 * alg.dim, 2 * alg.dim)
    logs = mt.batch_log_jacobian_det_numeric(alg, u, v)
    rich = mt.batch_log_jacobian_det_numeric(alg, u, v, richardson=True)
    closed = mt.batch_log_jacobian_det(alg, u, v)
    for idx in np.ndindex(3, 4):
        ue, ve = ja.Element(alg, u[idx]), ja.Element(alg, v[idx])
        assert np.abs(batch[idx] - mt.jacobian_fd_matrix(ue, ve)).max() < 1e-12
        assert np.abs(batch[idx] - _fd_matrix_loop(ue, ve, 1e-5)).max() < 1e-12
        assert np.exp(logs[idx]) == pytest.approx(mt.jacobian_det_numeric(ue, ve), rel=1e-12)
        assert np.exp(rich[idx]) == pytest.approx(
            mt.jacobian_det_numeric(ue, ve, richardson=True), rel=1e-12
        )
        assert np.exp(closed[idx]) == pytest.approx(mt.jacobian_det_formula(ue, ve), rel=1e-14)


@pytest.mark.parametrize("alg", KINDS + [ja.sym_real(1), ja.herm_complex(3)],
                         ids=IDS + ["sym-real-dim1", "herm-complex-dim9"])
def test_log_jacobian_is_the_log_of_the_closed_form(alg):
    rng = np.random.default_rng(9)
    u = ja.random_cone_points_banded(alg, rng, 200)
    v = ja.random_cone_points_banded(alg, rng, 200)
    power = (ja.batch_det(alg, u) * ja.batch_det(alg, u + v)) ** (-2.0 * alg.dim / alg.rank)
    np.testing.assert_allclose(mt.batch_log_jacobian_det(alg, u, v), np.log(power), rtol=1e-12)


def test_log_jacobian_stays_finite_where_the_closed_form_overflows():
    alg = ja.herm_complex(4)
    u = ja.Element(alg, 1e-5 * ja.identity(alg).coords)
    # inf with no overflow warning, which the test under -W error above checks
    assert mt.jacobian_det_formula(u, u) == np.inf
    # det u = 1e-20 and det 2u = 16e-20, to the power -2 dim/rank = -8
    expected = -8.0 * (np.log(1e-20) + np.log(16e-20))
    assert mt.batch_log_jacobian_det(alg, u.coords, u.coords) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("alg", [ja.sym_real(18), ja.herm_complex(13)],
                         ids=["sym-real-r18", "herm-complex-r13"])
def test_log_jacobian_numeric_stays_finite_where_the_determinant_underflows(alg):
    rng = np.random.default_rng(1)
    u = ja.random_cone_points_banded(alg, rng, 1)
    v = ja.random_cone_points_banded(alg, rng, 1)
    with np.errstate(under="ignore"):
        assert np.linalg.det(mt.batch_jacobian_fd_matrix(alg, u, v)) == 0.0
    closed = mt.batch_log_jacobian_det(alg, u, v)
    assert abs(mt.batch_log_jacobian_det_numeric(alg, u, v) - closed) < 1e-4


def test_inversion_derivative_block():
    # top-left block of the map's Jacobian is the derivative of u -> (u+v)^-1,
    # which must equal -P((u+v)^-1)
    for alg in [ja.sym_real(2), ja.lorentz(2)]:
        rng = np.random.default_rng(6)
        u = ja.Element(alg, ja.random_cone_points_banded(alg, rng, 1)[0])
        v = ja.Element(alg, ja.random_cone_points_banded(alg, rng, 1)[0])
        fd = mt.jacobian_fd_matrix(u, v, 1e-5)
        block = fd[: alg.dim, : alg.dim]
        expected = -ja.quad_rep(ja.inverse(u + v)).matrix
        assert np.abs(block - expected).max() < 1e-5


def test_fd_step_leaving_cone_raises():
    a1 = ja.sym_real(1)
    tiny = ja.Element(a1, np.array([1e-7]))
    with pytest.raises(ja.NotInConeError):
        mt.jacobian_det_numeric(tiny, ja.identity(a1), step=0.5)


@pytest.mark.parametrize("step", [0.0, -1.0, np.inf, np.nan])
def test_fd_step_must_be_finite_and_positive(step):
    alg = ja.sym_real(2)
    e = ja.identity(alg)
    with pytest.raises(ValueError, match="step"):
        mt.jacobian_det_numeric(e, e, step=step)
    with pytest.raises(ValueError, match="step"):
        mt.batch_jacobian_fd_matrix(alg, e.coords[None], e.coords[None], step)
