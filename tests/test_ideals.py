from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fanocone import (
    MonomialIdeal,
    NotPrimary,
    ideal_power,
    lct,
    multiplicity,
    newton_facets,
    normalized_multiplicity,
)
from fanocone.linalg import dot

import oracles


def I(n, gens):
    return MonomialIdeal(nvars=n, generators=tuple(gens))


XY = I(2, [(1, 0), (0, 1)])
X2Y = I(2, [(2, 0), (0, 1)])
X3Y = I(2, [(3, 0), (0, 1)])
M3 = I(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_multiplicity_examples():
    assert multiplicity(XY) == 1
    assert multiplicity(X2Y) == 2
    assert multiplicity(M3) == 1
    assert multiplicity(I(2, [(2, 0), (1, 1), (0, 3)])) == 5


def test_lct_examples():
    assert lct(XY) == 2
    assert lct(X2Y) == Fraction(3, 2)
    assert lct(X3Y) == Fraction(4, 3)
    for n in (1, 2, 3, 4):
        maximal = I(n, [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)])
        assert lct(maximal) == n


def test_normalized_multiplicity_examples():
    assert normalized_multiplicity(XY) == 4
    assert normalized_multiplicity(X2Y) == Fraction(9, 2)
    assert normalized_multiplicity(X3Y) == Fraction(16, 3)
    assert normalized_multiplicity(M3) == 27


def test_not_primary_rejected():
    with pytest.raises(NotPrimary):
        multiplicity(I(2, [(1, 1)]))
    with pytest.raises(NotPrimary):
        lct(I(3, [(1, 0, 0), (0, 1, 0), (0, 1, 1)]))


def test_lower_bound_on_random_primary_ideals():
    rng = random.Random(101)
    for _ in range(80):
        n = rng.randint(1, 4)
        ideal = oracles.random_primary_ideal(rng, n)
        nm = normalized_multiplicity(ideal)
        assert nm >= Fraction(n) ** n
        assert multiplicity(ideal) >= 1
        assert 0 < lct(ideal) <= n


def test_power_invariance_exact():
    rng = random.Random(113)
    for _ in range(15):
        n = rng.randint(1, 3)
        ideal = oracles.random_primary_ideal(rng, n)
        k = rng.randint(2, 4)
        power = ideal_power(ideal, k)
        assert multiplicity(power) == Fraction(k) ** n * multiplicity(ideal)
        assert lct(power) == lct(ideal) / k
        assert normalized_multiplicity(power) == normalized_multiplicity(ideal)


def test_integral_closure_stability():
    rng = random.Random(127)
    for _ in range(15):
        n = rng.randint(2, 3)
        ideal = oracles.random_primary_ideal(rng, n)
        m, c = multiplicity(ideal), lct(ideal)
        # a deep interior point of the Newton polyhedron changes nothing
        deep = tuple(sum(g[i] for g in ideal.generators) + 1 for i in range(n))
        assert all(dot(w, deep) >= c for w, c in newton_facets(ideal))
        bigger = MonomialIdeal(nvars=n, generators=ideal.generators + (deep,))
        assert multiplicity(bigger) == m
        assert lct(bigger) == c


def test_newton_facets_strictly_positive_normals():
    for ideal in (XY, X2Y, M3, I(2, [(2, 0), (1, 1), (0, 3)])):
        for w, c in newton_facets(ideal):
            assert all(x > 0 for x in w)
            assert c > 0


def test_powers_of_the_maximal_ideal_in_four_to_six_variables():
    # e(m^k) = k^n and lct(m^k) = n / k; with 21-35 generators each, a search
    # over n-subsets of the generators takes seconds to minutes here
    for n, k in ((4, 4), (5, 3), (6, 2)):
        ideal = ideal_power(I(n, [tuple(int(j == i) for j in range(n)) for i in range(n)]), k)
        assert multiplicity(ideal) == k**n
        assert lct(ideal) == Fraction(n, k)


def test_newton_facets_match_the_subset_search():
    rng = random.Random(131)
    for _ in range(60):
        ideal = oracles.random_primary_ideal(rng, rng.randint(1, 4))
        assert newton_facets(ideal) == oracles.newton_facets_by_subsets(ideal)
    checked = 0
    while checked < 8:
        n = rng.randint(5, 6)
        ideal = oracles.random_primary_ideal(rng, n)
        if len(ideal.generators) > n + 3:
            continue  # keep the subset search fast
        assert newton_facets(ideal) == oracles.newton_facets_by_subsets(ideal)
        checked += 1


def test_monomial_ideal_over_the_rank_limit_is_rejected_at_construction():
    with pytest.raises(ValueError, match=r"desk-scale limits exceeded \(rank <= 6, rays <= 64\)"):
        I(7, [tuple(2 * int(j == i) for j in range(7)) for i in range(7)])


def test_monomial_ideal_validation():
    with pytest.raises(ValueError):
        I(2, [(0, 0)])
    with pytest.raises(ValueError):
        I(2, [(1, -1)])
    with pytest.raises(ValueError):
        I(2, [])
