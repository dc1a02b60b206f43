"""Acceptance suite: one test per release gate, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-gate
report.  Tolerances are pinned here and are not to be loosened.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np

from fanocone import (
    MonomialIdeal,
    ToricConeData,
    WeightedPoint,
    build_volume_form,
    character_series,
    composed_equals_two_step,
    futaki,
    gorenstein_vector,
    ideal_power,
    is_ksemistable,
    lct,
    leading_coefficient,
    limit,
    min_composition_k,
    minimize_volume,
    mu_additivity,
    multiplicity,
    normalized_multiplicity,
    normalized_volume,
    two_step_limit,
    vol,
)
from fanocone.volume import CONVERGED

import oracles


def _orthant_data(n: int, boundary=None) -> ToricConeData:
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return ToricConeData.make(n, rays, boundary)


CONIFOLD = ToricConeData.make(
    3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], label="conifold"
)


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:2d}: PASS - {text}")


def test_acceptance_01_orthant_minimization():
    for n in (2, 3, 4):
        data = _orthant_data(n)
        start = time.perf_counter()
        res = minimize_volume(data)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"minimize took {elapsed:.3f}s for n={n}"
        assert res.certificate == CONVERGED
        assert max(abs(x - 1.0) for x in res.minimizer.coords) < 1e-8
        # AM-GM oracle: min of (sum xi)^n / prod xi on the slice is n^n
        assert abs(res.min_hvol - float(n) ** n) <= 1e-9 * float(n) ** n
    _report(1, "orthant minimizers at (1,...,1), min hvol = n^n within 1e-9 rel, < 1s")


def test_acceptance_02_conifold_vs_independent_search():
    oracle_val, _ = oracles.grid_golden_min_hvol(CONIFOLD)  # oracle first
    res = minimize_volume(CONIFOLD)
    assert res.certificate == CONVERGED
    assert abs(res.min_hvol - oracle_val) <= 1e-6
    verdict = is_ksemistable(CONIFOLD, res.minimizer)
    assert verdict.semistable
    _report(2, f"conifold min hvol {res.min_hvol:.9f} matches grid+golden within 1e-6; verdict Yes")


def test_acceptance_03_rescaling_invariance_exact():
    rng = random.Random(2024)
    for i in range(100):
        rank = rng.randint(2, 4)
        data = oracles.random_fano_cone_data(rng, rank)
        if i % 3 == 0:
            data = oracles.random_boundary_variant(rng, data)
        form = build_volume_form(data)
        xi = oracles.random_interior_rational(rng, data)
        lam = Fraction(rng.randint(1, 80), rng.randint(8, 17))  # in (0, 10]
        assert 0 < lam <= 10
        scaled = tuple(lam * x for x in xi)
        assert normalized_volume(data, form, scaled) == normalized_volume(data, form, xi)
    _report(3, "hvol(lambda xi) == hvol(xi) exactly on 100 random cones, rational arithmetic")


def test_acceptance_04_futaki_criticality_and_witness_sign():
    rng = random.Random(4096)
    cases = [_orthant_data(2), _orthant_data(3), _orthant_data(4), CONIFOLD] + [
        oracles.random_fano_cone_data(rng, rng.randint(2, 4)) for _ in range(6)
    ]
    for data in cases:
        form = build_volume_form(data)
        res = minimize_volume(data, form)
        assert res.certificate == CONVERGED
        xi_star = res.minimizer.as_floats()
        for i in range(data.rank):
            e = tuple(1.0 if j == i else 0.0 for j in range(data.rank))
            assert abs(futaki(data, form, xi0=xi_star, eta=e).fut) < 1e-8
        # a non-minimizing polarization: a random interior point
        xi_off = tuple(float(v) for v in oracles.random_interior_rational(rng, data))
        verdict = is_ksemistable(data, xi_off, tol=1e-8)
        assert not verdict.semistable
        fut_w = futaki(data, form, xi0=xi_off, eta=verdict.witness).fut
        assert fut_w < 0
    _report(4, "|Fut(xi*, e_i)| < 1e-8 at minimizers; destabilizing witnesses have Fut < 0")


def test_acceptance_05_futaki_linearity_and_derivative_identity():
    rng = random.Random(555)
    for _ in range(100):
        rank = rng.randint(2, 4)
        data = oracles.random_fano_cone_data(rng, rank)
        form = build_volume_form(data)
        xi = tuple(float(x) for x in oracles.random_interior_rational(rng, data))
        e1 = tuple(rng.uniform(-2, 2) for _ in range(rank))
        e2 = tuple(rng.uniform(-2, 2) for _ in range(rank))
        a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
        combo = tuple(a * x + b * y for x, y in zip(e1, e2))
        r1 = futaki(data, form, xi0=xi, eta=e1)
        r2 = futaki(data, form, xi0=xi, eta=e2)
        rc = futaki(data, form, xi0=xi, eta=combo)
        scale = max(1.0, abs(a * r1.fut) + abs(b * r2.fut))
        assert abs(rc.fut - (a * r1.fut + b * r2.fut)) <= 1e-9 * scale
        # derivative-identity residual: the two evaluation routes agree
        for r, eta in ((r1, e1), (r2, e2), (rc, combo)):
            hvol_route = oracles.futaki_hvol_route(data, form, xi, eta)
            assert abs(r.fut - hvol_route) <= 1e-9 * max(1.0, abs(r.fut))
    _report(5, "Futaki linearity and vol/hvol derivative identity, residuals < 1e-9 rel, 100 samples")


def test_acceptance_06_hand_computed_futaki():
    data = _orthant_data(2)
    form = build_volume_form(data)
    report = futaki(data, form, xi0=(1, 2), eta=(1, 0))
    assert abs(report.fut - 0.5) < 1e-10
    # independent cross-check: central difference of hvol along -eta
    h = 1e-6

    def hvol(p):
        return float(normalized_volume(data, form, p))

    d_hvol = (hvol((1.0 - h, 2.0)) - hvol((1.0 + h, 2.0))) / (2 * h)
    assert abs(d_hvol / 3.0 - 0.5) < 1e-7
    _report(6, "Fut((1,2); (1,0)) = 0.5 within 1e-10, finite-difference confirmed")


def test_acceptance_07_index_character_asymptotics():
    for data, xi in [
        (_orthant_data(2), (1.0, 1.0)),
        (_orthant_data(3), (1.0, 1.0, 1.0)),
        (CONIFOLD, (1.5, 1.5, 3.0)),
    ]:
        form = build_volume_form(data)
        lead = leading_coefficient(data, form, xi)
        v = float(vol(form, xi))
        assert abs(lead.a0 - v) <= 1e-3 * v
    form1 = build_volume_form(_orthant_data(1))
    for t in (1.0, 0.5, 0.25):
        exact = 1.0 / (1.0 - math.exp(-t))
        got = character_series(form1, (1,), t)
        assert abs(got - exact) < 1e-12
    _report(7, "t^n F -> vol within 1e-3 rel (rank 2, 3, conifold); rank-1 matches 1/(1-e^-t) to 1e-12")


def test_acceptance_08_normalized_multiplicities():
    I = lambda n, gens: MonomialIdeal(nvars=n, generators=tuple(gens))
    assert normalized_multiplicity(I(2, [(1, 0), (0, 1)])) == 4
    assert normalized_multiplicity(I(2, [(2, 0), (0, 1)])) == Fraction(9, 2)
    assert normalized_multiplicity(I(2, [(3, 0), (0, 1)])) == Fraction(16, 3)
    assert normalized_multiplicity(I(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])) == 27
    rng = random.Random(888)
    for _ in range(200):
        n = rng.randint(1, 4)
        ideal = oracles.random_primary_ideal(rng, n)
        assert normalized_multiplicity(ideal) >= Fraction(n) ** n
    for _ in range(10):
        n = rng.randint(1, 3)
        ideal = oracles.random_primary_ideal(rng, n)
        k = rng.randint(2, 4)
        power = ideal_power(ideal, k)
        assert multiplicity(power) == Fraction(k) ** n * multiplicity(ideal)
        assert lct(power) == lct(ideal) / k
        assert normalized_multiplicity(power) == normalized_multiplicity(ideal)
    _report(8, "exact multiplicities {4, 9/2, 16/3, 27}; bound >= n^n on 200 ideals; power-invariant")


def test_acceptance_09_composition_threshold():
    gap = WeightedPoint(support=((0, 0), (1, -5)))
    check = composed_equals_two_step(gap, 6)
    assert check.min_k == 6 and check.equal
    assert not composed_equals_two_step(gap, 5).equal
    rng = random.Random(909)
    for _ in range(1000):
        size = rng.randint(1, 6)
        support = set()
        while len(support) < size:
            support.add((rng.randint(-10, 10), rng.randint(-10, 10)))
        p = WeightedPoint(support=tuple(sorted(support)))
        k0 = min_composition_k(p)
        two = two_step_limit(p).support
        # brute-force scan: first k whose (k,1)-limit equals the two-step one
        scan = next(k for k in range(1, 130) if limit(p, (k, 1)).support == two)
        assert k0 == scan
        for k in (k0, k0 + 3):
            assert mu_additivity(p, k).residual == 0
    _report(9, "min_k = 6 on the gap instance; min_k matches brute scan on 1000 supports; residual 0")


def test_acceptance_10_convexity_and_positive_definiteness():
    rng = random.Random(1010)
    violations = 0
    for _ in range(1000):
        rank = rng.randint(2, 4)
        data = oracles.random_fano_cone_data(rng, rank)
        form = build_volume_form(data)
        xi = oracles.random_interior_rational(rng, data)
        eta = oracles.random_interior_rational(rng, data)
        t = Fraction(rng.randint(1, 19), 20)
        mid = tuple(t * a + (1 - t) * b for a, b in zip(xi, eta))
        if vol(form, mid) > t * vol(form, xi) + (1 - t) * vol(form, eta):
            violations += 1
    assert violations == 0
    minimizer_cases = [_orthant_data(2), _orthant_data(3), _orthant_data(4), CONIFOLD] + [
        oracles.random_fano_cone_data(rng, rng.randint(2, 4)) for _ in range(8)
    ]
    for data in minimizer_cases:
        form = build_volume_form(data)
        res = minimize_volume(data, form)
        assert res.certificate == CONVERGED
        gamma = np.array([float(g) for g in gorenstein_vector(data)])
        Z = oracles.slice_basis(gamma)
        H = np.array(vol(form, res.minimizer.as_floats(), 2)[2])
        assert np.linalg.eigvalsh(Z.T @ H @ Z).min() > 0
    _report(10, "0/1000 convexity violations (exact midpoint tests); slice Hessians positive definite")
