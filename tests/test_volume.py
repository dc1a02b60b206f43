from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from fanocone import (
    NotInReebCone,
    ToricConeData,
    build_volume_form,
    futaki,
    gorenstein_vector,
    is_ksemistable,
    log_discrepancy,
    minimize_volume,
    normalized_volume,
    scan_hvol,
    vol,
)
from fanocone.linalg import dot
from fanocone.volume import CONVERGED

import oracles


def _orthant_data(n: int, boundary=None) -> ToricConeData:
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return ToricConeData.make(n, rays, boundary)


CONIFOLD = ToricConeData.make(
    3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], label="conifold"
)


# ---------------------------------------------------------------------------
# closed form construction
# ---------------------------------------------------------------------------


def test_form_orthant_single_unimodular_term():
    for n in (1, 2, 3):
        form = build_volume_form(_orthant_data(n))
        assert len(form.terms) == 1
        det, factors = form.terms[0]
        assert det == 1
        assert sorted(factors) == sorted(
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        )


def test_form_conifold_two_unimodular_terms():
    form = build_volume_form(CONIFOLD)
    assert len(form.terms) == 2
    assert all(det == 1 for det, _ in form.terms)


def test_form_matches_lattice_counting_oracle_at_k200():
    cases = [
        (_orthant_data(2), (1.0, 1.0)),
        (_orthant_data(2), (1.0, 2.0)),
        (_orthant_data(3), (1.0, 1.0, 1.0)),
        (CONIFOLD, (1.5, 1.5, 3.0)),
    ]
    k = 200
    for data, xi in cases:
        est = oracles.counting_vol_estimate(data, xi, k)
        v = float(vol(build_volume_form(data), xi))
        assert abs(est - v) <= 10.0 * v / k


def test_vol_one_dimensional_half_line():
    form = build_volume_form(_orthant_data(1))
    assert vol(form, (Fraction(3),)) == Fraction(1, 3)


def test_vol_values_exact():
    form = build_volume_form(_orthant_data(2))
    assert vol(form, (1, 1)) == 1
    assert vol(form, (1, 2)) == Fraction(1, 2)
    form3 = build_volume_form(_orthant_data(3))
    assert vol(form3, (1, 1, 1)) == 1
    formc = build_volume_form(CONIFOLD)
    assert vol(formc, (Fraction(3, 2), Fraction(3, 2), Fraction(3))) == Fraction(16, 27)


def test_vol_raises_outside_reeb_cone():
    form = build_volume_form(_orthant_data(2))
    with pytest.raises(NotInReebCone):
        vol(form, (1, 0))
    with pytest.raises(NotInReebCone):
        vol(form, (-1.0, 1.0))


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def test_grad_closed_form_examples():
    form = build_volume_form(_orthant_data(2))
    assert vol(form, (1, 1), 1)[1] == (-1, -1)
    assert vol(form, (1, 2), 1)[1] == (Fraction(-1, 2), Fraction(-1, 4))


def test_grad_and_hess_match_finite_differences():
    rng = random.Random(41)
    for _ in range(20):
        rank = rng.randint(2, 4)
        data = oracles.random_fano_cone_data(rng, rank)
        form = build_volume_form(data)
        xi = tuple(float(x) for x in oracles.random_interior_rational(rng, data))
        f = lambda p: float(vol(form, p))
        g = vol(form, xi, 1)[1]
        g_fd = oracles.fd_gradient(f, xi, h=1e-6)
        scale = max(1.0, max(abs(x) for x in g))
        assert max(abs(a - b) for a, b in zip(g, g_fd)) <= 1e-8 * scale
        h = vol(form, xi, 2)[2]
        h_fd = oracles.fd_hessian(f, xi, h=1e-4)
        hscale = max(1.0, max(abs(x) for row in h for x in row))
        err = max(abs(h[i][j] - h_fd[i][j]) for i in range(rank) for j in range(rank))
        assert err <= 1e-6 * hscale * 10


def test_random_rank_one_cone_is_the_half_line():
    for seed in range(5):
        data = oracles.random_fano_cone_data(random.Random(seed), 1)
        assert data.sigma.rays == ((1,),)


def test_orders_agree_and_satisfy_euler_identities_exactly():
    # vol is homogeneous of degree -n, so <xi, grad vol> = -n vol and
    # H xi = -(n + 1) grad vol, exactly for rational xi
    rng = random.Random(53)
    cases = []
    for _ in range(25):
        data = oracles.random_fano_cone_data(rng, rng.randint(2, 5))
        cases.append((data, oracles.random_interior_rational(rng, data)))
    rng1 = random.Random(1)
    data = oracles.random_fano_cone_data(rng1, 1)
    cases.append((data, oracles.random_interior_rational(rng1, data)))
    for data, xi in cases:
        rank = data.rank
        form = build_volume_form(data)
        v0 = vol(form, xi)
        v1, g1 = vol(form, xi, 1)
        v2, g2, h = vol(form, xi, 2)
        assert isinstance(v0, Fraction) and v0 == v1 == v2 and g1 == g2
        assert all(isinstance(x, Fraction) for x in g1 + sum(h, ()))
        assert dot(xi, g1) == -rank * v0
        assert all(h[k][l] == h[l][k] for k in range(rank) for l in range(rank))
        assert all(dot(row, xi) == -(rank + 1) * gk for row, gk in zip(h, g1))
        # floats give one value at every order too
        xf = tuple(float(x) for x in xi)
        assert vol(form, xf) == vol(form, xf, 1)[0] == vol(form, xf, 2)[0]
        assert isinstance(vol(form, xf, 2)[2][0][0], float)
    with pytest.raises(ValueError):
        vol(form, xi, 3)


def test_vol_matches_msy_per_ray_formula_on_random_polygons():
    # rank 3 against a closed form in the polygon's vertices alone, exactly,
    # at a rational interior xi and at its rescaling onto the slice A = 3
    rng = random.Random(101)
    for _ in range(100):
        points, hull = oracles.random_lattice_polygon(rng)
        data = ToricConeData.make(3, [(a, b, 1) for a, b in points])
        form = build_volume_form(data)
        xi = oracles.random_interior_rational(rng, data)
        for x in (xi, tuple(3 * c / xi[2] for c in xi)):
            assert vol(form, x) == oracles.msy_vol(hull, x)


# ---------------------------------------------------------------------------
# normalized volume
# ---------------------------------------------------------------------------


def test_normalized_volume_values():
    data = _orthant_data(2)
    form = build_volume_form(data)
    assert normalized_volume(data, form, (1, 1)) == 4
    assert normalized_volume(data, form, (1, 2)) == Fraction(9, 2)
    assert normalized_volume(data, form, (2, 2)) == 4


def test_rescaling_invariance_exact():
    rng = random.Random(59)
    for _ in range(30):
        rank = rng.randint(2, 4)
        data = oracles.random_fano_cone_data(rng, rank)
        data = oracles.random_boundary_variant(rng, data)
        form = build_volume_form(data)
        xi = oracles.random_interior_rational(rng, data)
        lam = Fraction(rng.randint(1, 40), rng.randint(1, 7))
        scaled = tuple(lam * x for x in xi)
        assert normalized_volume(data, form, scaled) == normalized_volume(data, form, xi)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


def test_minimize_orthants_amgm():
    # AM-GM: (sum xi)^n / prod xi >= n^n with equality at xi = (1, ..., 1)
    for n in (2, 3, 4):
        data = _orthant_data(n)
        res = minimize_volume(data)
        assert res.certificate == CONVERGED
        assert res.grad_norm < 1e-10
        assert max(abs(x - 1.0) for x in res.minimizer.coords) < 1e-8
        assert abs(res.min_hvol - float(n) ** n) <= 1e-9 * float(n) ** n
        assert abs(log_discrepancy(data, res.minimizer) - n) <= 1e-12


def _symmetric_polytope_data(kind: str, d: int) -> ToricConeData:
    if kind == "cube":  # the cone over [-1, 1]^d at height one
        verts = list(itertools.product((-1, 1), repeat=d))
    else:  # the cone over the d-dimensional cross-polytope
        verts = [tuple(s * (i == j) for j in range(d)) for i in range(d) for s in (1, -1)]
    return ToricConeData.make(d + 1, [v + (1,) for v in verts])


@pytest.mark.parametrize(
    "kind, d, expected",
    [("cube", 3, 8), ("cube", 4, 16), ("cube", 5, 32),
     ("cross", 3, 48), ("cross", 4, 384), ("cross", 5, 3840)],
)
def test_symmetric_polytope_cones_against_closed_form(kind, d, expected):
    # For a centrally symmetric lattice polytope P at height one, the
    # minimizer is xi0 = (0, ..., 0, n) and min hvol is the normalized volume
    # of the polar P°: the cross-polytope for the cube (2^d) and the cube for
    # the cross-polytope (d! 2^d).
    data = _symmetric_polytope_data(kind, d)
    n = d + 1
    xi0 = (0,) * d + (n,)
    form = build_volume_form(data)
    assert normalized_volume(data, form, xi0) == expected
    res = minimize_volume(data, form)
    assert res.certificate == CONVERGED
    assert res.grad_norm < 1e-10
    assert max(abs(x - y) for x, y in zip(res.minimizer.coords, xi0)) < 1e-8
    assert abs(res.min_hvol - expected) <= 1e-9 * expected


def test_minimize_conifold_against_grid_oracle():
    res = minimize_volume(CONIFOLD)
    oracle_val, oracle_pt = oracles.grid_golden_min_hvol(CONIFOLD)
    assert res.certificate == CONVERGED
    assert abs(res.min_hvol - oracle_val) <= 1e-6
    assert abs(res.min_hvol - 16.0) <= 1e-9 * 16.0
    assert np.allclose(res.minimizer.as_floats(), (1.5, 1.5, 3.0), atol=1e-7)


def test_minimize_orthant_with_boundary():
    data = _orthant_data(2, [Fraction(1, 2), 0])
    res = minimize_volume(data)
    x1, x2 = res.minimizer.coords
    assert res.certificate == CONVERGED
    assert abs(x1 / x2 - 2.0) < 1e-7
    assert abs(res.min_hvol - 2.0) <= 1e-9 * 2.0
    oracle_val, _ = oracles.grid_golden_min_hvol(data)
    assert abs(res.min_hvol - oracle_val) <= 1e-6


def test_minimize_random_cones_match_oracle_and_are_deterministic():
    rng = random.Random(71)
    for _ in range(5):
        data = oracles.random_fano_cone_data(rng, 3)
        res1 = minimize_volume(data)
        res2 = minimize_volume(data)
        assert res1 == res2
        assert res1.certificate == CONVERGED
        oracle_val, _ = oracles.grid_golden_min_hvol(data)
        assert abs(res1.min_hvol - oracle_val) <= 1e-6 * max(1.0, oracle_val)


def test_minimizer_interior_and_slice_hessian_positive_definite():
    rng = random.Random(83)
    cases = [_orthant_data(2), _orthant_data(3), CONIFOLD] + [
        oracles.random_fano_cone_data(rng, rng.randint(2, 4)) for _ in range(6)
    ]
    for data in cases:
        form = build_volume_form(data)
        res = minimize_volume(data, form)
        assert res.certificate == CONVERGED
        x = res.minimizer.as_floats()
        assert all(sum(u[k] * x[k] for k in range(data.rank)) > 0 for u in form.dual_rays)
        gamma = np.array([float(g) for g in gorenstein_vector(data)])
        Z = oracles.slice_basis(gamma)
        H = np.array(vol(form, x, 2)[2])
        eigs = np.linalg.eigvalsh(Z.T @ H @ Z)
        assert eigs.min() > 0


# Cones on which the line search rejected the last, correct Newton steps:
# the predicted decrease fell below the float noise of vol, and the
# iteration ran to max-iters.  The first two stalled with the scaled slice
# gradient at 5.8e-9 and 4.7e-10 under an earlier rounding of the Newton
# step; the third stalls at 4.4e-9 under the present one unless a full step
# whose predicted decrease is below the noise is taken.
STALLING = [
    ToricConeData.make(6, [(0, 1, 3, -1, 0, 1), (0, 3, 2, -2, 2, 1), (0, 3, 2, 1, 1, 1),
                           (1, 2, 1, 3, 1, 1), (2, -1, 3, -3, 3, 1), (2, -1, 3, 0, 0, 1),
                           (2, 0, 0, -1, -2, 1)]),
    ToricConeData.make(5, [(-3, 1, 0, -3, 1), (-3, 1, 2, -1, 1), (-2, 1, -1, -2, 1),
                           (-1, 1, -2, 3, 1), (0, 2, 2, 3, 1), (2, 3, 3, -2, 1)]),
    ToricConeData.make(4, [(-3, -2, 1, 1), (-2, -3, 1, 1), (1, 2, -2, 1), (3, 3, -3, 1)],
                       [Fraction(1, 6), Fraction(1, 12), Fraction(1, 12), 0]),
]


@pytest.mark.parametrize("data", STALLING, ids=["rank6", "rank5", "rank4"])
def test_minimize_converges_where_the_decrease_is_below_float_noise(data):
    form = build_volume_form(data)
    res = minimize_volume(data, form)
    assert res.certificate == CONVERGED
    assert res.grad_norm <= 1e-10
    assert res.newton_iters <= 20
    # the exact gradient at the float minimizer, projected onto the slice
    xi = tuple(Fraction(x) for x in res.minimizer.coords)
    v, g = vol(form, xi, 1)
    gamma = gorenstein_vector(data)
    along = dot(gamma, g) / dot(gamma, gamma)
    assert max(abs(gk - along * c) for gk, c in zip(g, gamma)) <= 1e-10 * v


def test_vol_is_convex_on_segments_exact():
    rng = random.Random(97)
    checked = 0
    while checked < 60:
        rank = rng.randint(2, 4)
        data = oracles.random_fano_cone_data(rng, rank)
        form = build_volume_form(data)
        xi = oracles.random_interior_rational(rng, data)
        eta = oracles.random_interior_rational(rng, data)
        t = Fraction(rng.randint(1, 9), 10)
        mid = tuple(t * a + (1 - t) * b for a, b in zip(xi, eta))
        lhs = vol(form, mid)
        rhs = t * vol(form, xi) + (1 - t) * vol(form, eta)
        assert lhs <= rhs
        # strict inequality unless xi and eta are parallel
        cross_zero = all(
            xi[i] * eta[j] == xi[j] * eta[i] for i in range(rank) for j in range(rank)
        )
        if not cross_zero:
            assert lhs < rhs
        checked += 1


# ---------------------------------------------------------------------------
# K-semistability verdict
# ---------------------------------------------------------------------------


def test_ksemistable_orthant_symmetric_point():
    verdict = is_ksemistable(_orthant_data(2), (1, 1))
    assert verdict.semistable
    assert verdict.witness is None


def test_ksemistable_orthant_asymmetric_point_with_witness():
    data = _orthant_data(2)
    verdict = is_ksemistable(data, (1, 2))
    assert not verdict.semistable
    w = verdict.witness
    # direction proportional to (-1, 1): away from the minimizer, A(w) = 0
    assert w[0] < 0 < w[1]
    assert abs(w[0] + w[1]) < 1e-9
    report = futaki(data, xi0=(1, 2), eta=w)
    assert report.fut < 0


def test_ksemistable_conifold_at_its_minimizer():
    res = minimize_volume(CONIFOLD)
    verdict = is_ksemistable(CONIFOLD, res.minimizer)
    assert verdict.semistable
    exact = (Fraction(3, 2), Fraction(3, 2), Fraction(3))
    assert is_ksemistable(CONIFOLD, exact).semistable


def test_scan_hvol_is_convex_along_segment():
    data = _orthant_data(2)
    form = build_volume_form(data)
    rows = scan_hvol(data, form, (3.0, 1.0), (1.0, 3.0), steps=40)
    vals = [v for _, v in rows]
    for i in range(1, len(vals) - 1):
        assert vals[i] <= max(vals[i - 1], vals[i + 1]) + 1e-12
    assert min(vals) >= 4.0 - 1e-12


def test_scan_hvol_rejects_fewer_than_one_step():
    data = _orthant_data(2)
    form = build_volume_form(data)
    for steps in (0, -3):
        with pytest.raises(ValueError, match="steps must be at least 1"):
            scan_hvol(data, form, (3.0, 1.0), (1.0, 3.0), steps=steps)


@pytest.mark.parametrize("options", [{"max_iters": -1}, {"tol": -1.0}, {"tol": float("nan")}])
def test_minimize_rejects_negative_options(options):
    with pytest.raises(ValueError, match="must be non-negative"):
        minimize_volume(_orthant_data(2), **options)
