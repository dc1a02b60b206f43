from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fanocone import (
    ToricConeData,
    build_volume_form,
    character_series,
    dual_cone,
    leading_coefficient,
    parallelepiped_points,
    sample_character,
    triangulate,
    vol,
)
from fanocone.linalg import dot, rank

import oracles


def _orthant_data(n: int) -> ToricConeData:
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return ToricConeData.make(n, rays)


C1 = _orthant_data(1)
C2 = _orthant_data(2)
CONIFOLD = ToricConeData.make(
    3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], label="conifold"
)


def _box_sum(data: ToricConeData, xi, t: float) -> float:
    """The box-scan oracle summed up to the pairing bound 28 / t."""
    return oracles.box_character_sum(data, xi, t, 28.0 / t)


def test_rank_one_geometric_series():
    form = build_volume_form(C1)
    for t in (1.0, 0.5, 0.25):
        exact = 1.0 / (1.0 - math.exp(-t))
        assert abs(character_series(form, (1,), t) - exact) < 1e-12
    assert abs(character_series(form, (1,), 1.0) - 1.5819767068693265) < 1e-12


def test_rank_two_product_of_geometric_series():
    t = 1.0
    exact = (1.0 / (1.0 - math.exp(-t))) ** 2
    assert abs(character_series(build_volume_form(C2), (1, 1), t) - exact) < 1e-12


def test_orthant_series_equals_product_formula():
    # saturated simplicial semigroup: no correction terms at all
    form = build_volume_form(_orthant_data(3))
    xi = (1.0, 1.7, 0.9)
    for t in (0.8, 0.3):
        prod = 1.0
        for x in xi:
            prod *= 1.0 / (1.0 - math.exp(-t * x))
        assert abs(character_series(form, xi, t) - prod) < 1e-12


def test_conifold_enumeration_against_box_oracle():
    xi = (1.4, 1.6, 3.1)
    t = 0.5
    ours = character_series(build_volume_form(CONIFOLD), xi, t)
    oracle = _box_sum(CONIFOLD, xi, t)
    assert abs(ours - oracle) < 1e-8


def test_closed_form_matches_enumeration():
    form = build_volume_form(CONIFOLD)
    for xi, t in (((1.5, 1.5, 3.0), 0.5), ((1.4, 1.6, 3.1), 1.0)):
        enum = _box_sum(CONIFOLD, xi, t)
        closed = character_series(form, xi, t)
        assert abs(enum - closed) < 1e-8 * closed


def test_closed_form_on_non_unimodular_dual_cones():
    # duals whose triangulations have simplex index up to 28, so the
    # geometric-series numerators carry many parallelepiped points
    import json
    from importlib import resources

    for name in ("random3_2.json", "random3_3.json"):
        obj = json.loads(resources.files("fanocone").joinpath("corpus", name).read_text())
        data = ToricConeData.from_dict(obj)
        form = build_volume_form(data)
        assert max(d for d, _ in form.terms) > 1
        xi = tuple(float(sum(r[k] for r in data.sigma.rays)) for k in range(3))
        for t in (1.0, 0.6):
            enum = _box_sum(data, xi, t)
            closed = character_series(form, xi, t)
            assert abs(enum - closed) < 1e-8 * closed
        lead = leading_coefficient(data, form, xi)
        assert abs(lead.a0 - lead.vol_value) <= 1e-3 * lead.vol_value


def test_character_decreasing_in_t_and_xi():
    form = build_volume_form(C2)
    ts = [0.25, 0.5, 1.0, 2.0]
    vals = [character_series(form, (1.0, 1.0), t) for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    up = character_series(form, (1.0, 1.3), 0.7)
    down = character_series(form, (1.1, 1.3), 0.7)
    assert down < up


def test_leading_coefficient_matches_vol():
    cases = [
        (C2, (1.0, 1.0), 1.0),
        (C2, (1.0, 2.0), 0.5),
        (_orthant_data(3), (1.0, 1.0, 1.0), 1.0),
        (CONIFOLD, (1.5, 1.5, 3.0), 16.0 / 27.0),
    ]
    for data, xi, expected in cases:
        form = build_volume_form(data)
        lead = leading_coefficient(data, form, xi)
        assert abs(lead.a0 - expected) <= 1e-3 * expected
        assert abs(lead.vol_value - expected) < 1e-12
        assert lead.error < 1e-6


def test_scaled_character_converges_from_above_grid():
    data = CONIFOLD
    form = build_volume_form(data)
    xi = (1.5, 1.5, 3.0)
    lead = leading_coefficient(data, form, xi)
    v = float(vol(form, xi))
    errs = [abs(g - v) for g in lead.scaled_values]
    assert errs[-1] < errs[0]


def test_sample_character_fields():
    ts = (1.0, 0.5)
    sample = sample_character(C2, (1.0, 1.0), t_values=ts)
    assert sample.F_values[0] < sample.F_values[1]  # decreasing in t
    assert sample.a0_estimate > 0
    assert sample.truncation_bound == 28.0 / 0.5
    form = build_volume_form(C2)
    for t, f in zip(ts, sample.F_values):
        assert f == character_series(form, (1.0, 1.0), t)
        box = oracles.box_character_sum(C2, (1.0, 1.0), t, sample.truncation_bound)
        assert abs(f - box) <= 1e-9 * f
    d = sample.to_dict()
    assert set(d) == {"xi", "t_values", "F_values", "truncation_bound", "a0_estimate"}


@pytest.mark.parametrize("k", range(2, 7))
def test_hilbert_basis_of_two_dim_cone(k):
    # sigma = cone((0,1),(k,1)) has dual rays (1,0), (-1,k) of index k; the
    # closed parallelepiped adds (0,1), ..., (0,k-1), which with the rays
    # generate the semigroup (its Hilbert basis is (-1,k), (0,1), (1,0))
    data = ToricConeData.make(2, [(0, 1), (k, 1)])
    dual = dual_cone(data.sigma)
    assert dual.rays == ((-1, k), (1, 0))
    dec = triangulate(dual)
    cands = set(dual.rays)
    for j in range(len(dec.simplices)):
        cands.update(p for p in parallelepiped_points(dec.simplex_rays(j), (False, False)) if any(p))
    assert len(cands) == k + 1
    assert cands == {(-1, k), (1, 0)} | {(0, j) for j in range(1, k)}


@st.composite
def _small_cones(draw):
    """A cone over 2-6 lattice points at height one, rank 2-4, with an
    integer interior xi and a pairing bound m * min <u, xi> over the dual
    rays u, so that the box-scanned region lies inside conv(0, m u)."""
    n = draw(st.integers(2, 4))
    base = st.tuples(*[st.integers(-2, 2)] * (n - 1))
    pts = draw(st.lists(base, min_size=n, max_size=n + 2, unique=True))
    rays = [p + (1,) for p in pts]
    assume(rank(rays) == n)
    data = ToricConeData.make(n, rays)
    weights = draw(st.lists(st.integers(1, 3), min_size=len(rays), max_size=len(rays)))
    xi = tuple(sum(w * r[i] for w, r in zip(weights, rays)) for i in range(n))
    step = min(dot(u, xi) for u in dual_cone(data.sigma).rays)
    bound = step * draw(st.integers(1, 6 if n < 4 else 3))
    return data, xi, bound


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_small_cones())
def test_series_matches_box_scan(case):
    # t = 28 / bound puts the series tail past the bound below e^-28 F
    data, xi, bound = case
    t = 28.0 / bound
    series = character_series(build_volume_form(data), xi, t)
    box = oracles.box_character_sum(data, xi, t, float(bound))
    assert abs(series - box) <= 1e-8 * series


def test_leading_coefficient_on_cross4():
    # cone over the 4-dimensional cross-polytope at height 1: the dual slice
    # at height h is the cube [-h, h]^4, so vol(0,0,0,0,5) = 5! * 16 / 5^6
    rays = [[s * (i == j) for j in range(4)] + [1] for i in range(4) for s in (1, -1)]
    data = ToricConeData.make(5, rays)
    lead = leading_coefficient(data, None, (0, 0, 0, 0, 5))
    assert abs(lead.vol_value - 120 * 16 / 5**6) < 1e-15
    assert abs(lead.a0 - lead.vol_value) <= 1e-3 * lead.vol_value
