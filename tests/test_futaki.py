from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fanocone import (
    NotInReebCone,
    ToricConeData,
    build_volume_form,
    futaki,
    gorenstein_vector,
    minimize_volume,
    normalized_volume,
    t_normalize,
    vol,
)
from fanocone.linalg import dot

import oracles


def _orthant_data(n: int) -> ToricConeData:
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return ToricConeData.make(n, rays)


C2 = _orthant_data(2)
C2_FORM = build_volume_form(C2)


# ---------------------------------------------------------------------------
# T(eta)
# ---------------------------------------------------------------------------


def test_t_normalize_examples():
    assert t_normalize(C2, (1, 1), (1, 0)) == (Fraction(1, 2), Fraction(-1, 2))
    # on a normalized configuration, A(xi0) = n and A(eta) = 0, T is the identity on eta
    xi0, eta = (Fraction(2, 3), Fraction(4, 3)), (Fraction(2, 3), Fraction(-2, 3))
    assert t_normalize(C2, xi0, eta) == eta
    # antisymmetry: eta = xi0 maps to zero
    assert t_normalize(C2, (1, 2), (1, 2)) == (0, 0)


def test_t_normalize_lands_in_discrepancy_kernel():
    rng = random.Random(13)
    gammaless = []
    for _ in range(20):
        data = oracles.random_fano_cone_data(rng, rng.randint(2, 4))
        xi = oracles.random_interior_rational(rng, data)
        eta = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(data.rank))
        t_vec = t_normalize(data, xi, eta)
        assert dot(gorenstein_vector(data), t_vec) == 0
        gammaless.append(t_vec)
    assert any(any(v) for v in gammaless)


# ---------------------------------------------------------------------------
# hand-computed invariants
# ---------------------------------------------------------------------------


def test_futaki_vanishes_at_symmetric_point():
    report = futaki(C2, C2_FORM, xi0=(1, 1), eta=(1, 0))
    assert abs(report.fut) < 1e-12
    assert abs(futaki(C2, C2_FORM, xi0=(1, 1), eta=(0, 1)).fut) < 1e-12


def test_futaki_hand_value_one_half():
    # d/deps hvol((1,2) - eps (1,0)) = 3/2, denominator n A^{n-1} vol = 3
    report = futaki(C2, C2_FORM, xi0=(1, 2), eta=(1, 0))
    assert abs(report.fut - 0.5) < 1e-10
    assert abs(oracles.futaki_hvol_route(C2, C2_FORM, (1, 2), (1, 0)) - 0.5) < 1e-10


def test_futaki_hand_value_other_axis():
    # hand differentiation of hvol = (x+y)^2/(xy): d_y hvol(1,2) = 3/4, so
    # D_{-eta} hvol = -3/4 and Fut = -3/4 / 3 = -1/4; the finite-difference
    # oracle agrees.
    report = futaki(C2, C2_FORM, xi0=(1, 2), eta=(0, 1))
    assert abs(report.fut - (-0.25)) < 1e-10
    data, form = C2, C2_FORM

    def hvol(p):
        return float(normalized_volume(data, form, p))

    h = 1e-6
    d_hvol = (hvol((1.0, 2.0 - h)) - hvol((1.0, 2.0 + h))) / (2 * h)
    fd_fut = d_hvol / (2 * 3 * 0.5)
    assert abs(report.fut - fd_fut) < 1e-8


def test_futaki_linearity_in_eta():
    rng = random.Random(29)
    for _ in range(25):
        data = oracles.random_fano_cone_data(rng, rng.randint(2, 4))
        form = build_volume_form(data)
        xi = tuple(float(x) for x in oracles.random_interior_rational(rng, data))
        e1 = tuple(rng.uniform(-2, 2) for _ in range(data.rank))
        e2 = tuple(rng.uniform(-2, 2) for _ in range(data.rank))
        a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
        combo = tuple(a * x + b * y for x, y in zip(e1, e2))
        f1 = futaki(data, form, xi0=xi, eta=e1).fut
        f2 = futaki(data, form, xi0=xi, eta=e2).fut
        fc = futaki(data, form, xi0=xi, eta=combo).fut
        scale = max(1.0, abs(a * f1) + abs(b * f2))
        assert abs(fc - (a * f1 + b * f2)) <= 1e-9 * scale


def test_direct_and_hvol_routes_agree_on_random_inputs():
    rng = random.Random(37)
    for _ in range(25):
        data = oracles.random_fano_cone_data(rng, rng.randint(2, 4))
        form = build_volume_form(data)
        xi = tuple(float(x) for x in oracles.random_interior_rational(rng, data))
        eta = tuple(rng.uniform(-2, 2) for _ in range(data.rank))
        report = futaki(data, form, xi0=xi, eta=eta)
        scale = max(1.0, abs(report.fut))
        assert abs(report.fut - oracles.futaki_hvol_route(data, form, xi, eta)) <= 1e-9 * scale


def test_futaki_rejects_eta_of_the_wrong_length():
    with pytest.raises(ValueError, match="eta must live in the same co-weight space as xi0"):
        futaki(C2, C2_FORM, xi0=(1, 2), eta=(1, 0, 0))


def test_futaki_rejects_boundary_xi0():
    with pytest.raises(NotInReebCone) as exc:
        futaki(C2, C2_FORM, xi0=(1, 0), eta=(1, 0))
    assert str(exc.value) == "(1, 0) is not strictly interior to sigma"


def test_futaki_of_xi0_itself_is_exactly_zero():
    report = futaki(C2, C2_FORM, xi0=(1, 2), eta=(1, 2))
    assert report.fut == 0.0
    assert report.t_xi_eta == (0, 0)


def test_futaki_matches_central_difference_of_vol():
    # Fut = D_{-T(eta)} vol / vol, with the derivative by central differences
    direct = futaki(C2, C2_FORM, xi0=(1, 2), eta=(1, 0))
    xi = (1.0, 2.0)
    f = lambda p: float(vol(C2_FORM, p))
    g_fd = oracles.fd_gradient(f, xi, h=1e-5 * max(xi))
    t_vec = [float(v) for v in t_normalize(C2, xi, (1.0, 0.0))]
    fd = -dot(g_fd, t_vec) / f(xi)
    assert abs(fd - direct.fut) < 1e-7


def test_futaki_vanishes_at_minimizer_for_all_coordinate_directions():
    rng = random.Random(43)
    cases = [_orthant_data(2), _orthant_data(3)] + [
        oracles.random_fano_cone_data(rng, 3) for _ in range(4)
    ]
    for data in cases:
        form = build_volume_form(data)
        res = minimize_volume(data, form)
        xi_star = res.minimizer.as_floats()
        for i in range(data.rank):
            e = tuple(1.0 if j == i else 0.0 for j in range(data.rank))
            assert abs(futaki(data, form, xi0=xi_star, eta=e).fut) < 1e-8
