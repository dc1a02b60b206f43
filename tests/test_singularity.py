from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fanocone import (
    NotInReebCone,
    NotKlt,
    NotQGorenstein,
    ToricConeData,
    gorenstein_vector,
    log_discrepancy,
    reeb,
)

import oracles


def _orthant_data(n: int, boundary=None) -> ToricConeData:
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return ToricConeData.make(n, rays, boundary)


CONIFOLD = ToricConeData.make(
    3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], label="conifold"
)


def test_gorenstein_orthant_is_all_ones():
    for n in (1, 2, 3, 4):
        assert gorenstein_vector(_orthant_data(n)) == tuple(Fraction(1) for _ in range(n))


def test_gorenstein_conifold_from_overdetermined_system():
    assert gorenstein_vector(CONIFOLD) == (Fraction(0), Fraction(0), Fraction(1))


def test_gorenstein_with_boundary_pairs_coefficients_to_given_rays():
    data = ToricConeData.make(2, [(1, 0), (0, 1)], [Fraction(1, 2), 0])
    gamma = gorenstein_vector(data)
    # <gamma, (1,0)> = 1/2 and <gamma, (0,1)> = 1 regardless of storage order
    assert gamma == (Fraction(1, 2), Fraction(1))
    same = ToricConeData.make(2, [(0, 1), (1, 0)], [0, Fraction(1, 2)])
    assert gorenstein_vector(same) == gamma


def test_not_q_gorenstein():
    data = ToricConeData.make(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 2)])
    with pytest.raises(NotQGorenstein):
        gorenstein_vector(data)


def test_not_klt_on_unit_coefficient():
    data = _orthant_data(2, [1, 0])
    with pytest.raises(NotKlt):
        gorenstein_vector(data)


def test_negative_boundary_rejected():
    with pytest.raises(ValueError):
        _orthant_data(2, [Fraction(-1, 2), 0])


def test_orthant_validates_for_any_admissible_boundary():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        boundary = [Fraction(rng.randint(0, 7), 8) for _ in range(n)]
        gamma = gorenstein_vector(_orthant_data(n, boundary))
        assert all(g > 0 for g in gamma)


def test_log_discrepancy_values():
    c2 = _orthant_data(2)
    assert log_discrepancy(c2, (1, 1)) == 2
    assert log_discrepancy(c2, (1, 2)) == 3
    xi = (Fraction(1, 2), Fraction(1, 2), Fraction(3, 2))
    assert log_discrepancy(CONIFOLD, xi) == Fraction(3, 2)


def test_log_discrepancy_requires_interior():
    with pytest.raises(NotInReebCone):
        log_discrepancy(_orthant_data(2), (1, 0))
    with pytest.raises(NotInReebCone):
        log_discrepancy(CONIFOLD, (0, 0, 1))


def test_log_discrepancy_is_linear():
    rng = random.Random(17)
    for _ in range(25):
        rank = rng.randint(2, 4)
        data = oracles.random_fano_cone_data(rng, rank)
        xi = oracles.random_interior_rational(rng, data)
        eta = oracles.random_interior_rational(rng, data)
        a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        combo = tuple(a * x + b * y for x, y in zip(xi, eta))
        assert log_discrepancy(data, combo) == a * log_discrepancy(data, xi) + b * log_discrepancy(data, eta)


def test_reeb_vector_exactness_inference():
    assert reeb((1, 2)).exact
    assert reeb((Fraction(1, 2), 1)).exact
    assert not reeb((1.0, 2.0)).exact


def test_singularity_json_roundtrip():
    obj = CONIFOLD.to_dict()
    assert obj["rays"] == [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]]
    assert ToricConeData.from_dict(obj) == CONIFOLD
