from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fanocone import (
    ToricConeData,
    TruncationTooSmall,
    build_volume_form,
    character_series,
    default_truncation,
    dual_cone,
    enumerate_semigroup,
    index_character,
    leading_coefficient,
    parallelepiped_points,
    sample_character,
    triangulate,
    vol,
)
from fanocone.character import _semigroup_generators
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


def test_rank_one_geometric_series():
    for t in (1.0, 0.5, 0.25):
        exact = 1.0 / (1.0 - math.exp(-t))
        approx = index_character(C1, (1,), t, default_truncation(t))
        assert abs(approx - exact) < 1e-9
        closed = character_series(build_volume_form(C1), (1,), t)
        assert abs(closed - exact) < 1e-12
    assert abs(index_character(C1, (1,), 1.0, default_truncation(1.0)) - 1.5819767068693265) < 1e-9


def test_rank_two_product_of_geometric_series():
    t = 1.0
    exact = (1.0 / (1.0 - math.exp(-t))) ** 2
    assert abs(index_character(C2, (1, 1), t, default_truncation(t)) - exact) < 1e-6
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
    bound = default_truncation(t)
    ours = index_character(CONIFOLD, xi, t, bound)
    oracle = oracles.box_character_sum(CONIFOLD, xi, t, bound)
    assert abs(ours - oracle) < 1e-8


def test_closed_form_matches_enumeration():
    form = build_volume_form(CONIFOLD)
    for xi, t in (((1.5, 1.5, 3.0), 0.5), ((1.4, 1.6, 3.1), 1.0)):
        enum = index_character(CONIFOLD, xi, t, default_truncation(t))
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
            enum = index_character(data, xi, t, default_truncation(t))
            closed = character_series(form, xi, t)
            assert abs(enum - closed) < 1e-8 * closed
        lead = leading_coefficient(data, form, xi)
        assert abs(lead.a0 - lead.vol_value) <= 1e-3 * lead.vol_value


def test_enumeration_order_is_by_pairing_value():
    pts = enumerate_semigroup(C2, (1.0, 2.0), 4.0)
    vals = [v for _, v in pts]
    assert vals == sorted(vals)
    assert pts[0] == ((0, 0), 0.0)
    assert len(pts) == len({p for p, _ in pts})


def test_truncation_too_small_raises():
    with pytest.raises(TruncationTooSmall):
        index_character(C1, (1,), 1.0, 5.0)


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
    sample = sample_character(C2, (1.0, 1.0), t_values=(1.0, 0.5))
    assert sample.F_values[0] < sample.F_values[1]  # decreasing in t
    assert sample.a0_estimate > 0
    assert sample.truncation_bound == default_truncation(0.5)
    d = sample.to_dict()
    assert set(d) == {"xi", "t_values", "F_values", "truncation_bound", "a0_estimate"}


def _assert_irreducible(data: ToricConeData, gens) -> None:
    """No generator is another generator plus a nonzero point of the dual
    cone, i.e. g - h pairs negatively with some ray of sigma."""
    pair = {g: [dot(r, g) for r in data.sigma.rays] for g in gens}
    assert all(any(pair[g]) and min(pair[g]) >= 0 for g in gens)
    for g in gens:
        for h in gens:
            if g != h:
                assert not all(a >= b for a, b in zip(pair[g], pair[h])), (g, h)


@pytest.mark.parametrize("k", range(2, 7))
def test_hilbert_basis_of_two_dim_cone(k):
    # sigma = cone((0,1),(k,1)) has dual rays (1,0), (-1,k) of index k; the
    # closed parallelepiped adds (0,1), ..., (0,k-1), of which only (0,1)
    # is irreducible
    data = ToricConeData.make(2, [(0, 1), (k, 1)])
    dual = dual_cone(data.sigma)
    assert dual.rays == ((-1, k), (1, 0))
    dec = triangulate(dual)
    cands = set(dual.rays)
    for j in range(len(dec.simplices)):
        cands.update(p for p in parallelepiped_points(dec.simplex_rays(j), (False, False)) if any(p))
    assert len(cands) == k + 1
    gens = _semigroup_generators(data)
    assert gens == ((-1, k), (0, 1), (1, 0))
    _assert_irreducible(data, gens)


@st.composite
def _small_cones(draw):
    """A cone over 2-6 lattice points at height one, rank 2-4, with an
    integer interior xi and a pairing bound m * min <u, xi> over the dual
    rays u, so that the enumerated region lies inside conv(0, m u)."""
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
def test_semigroup_walk_matches_box_scan(case):
    data, xi, bound = case
    walked = [p for p, _ in enumerate_semigroup(data, xi, float(bound))]
    assert len(walked) == len(set(walked))
    assert set(walked) == set(oracles.box_lattice_points(data, xi, float(bound)))
    _assert_irreducible(data, _semigroup_generators(data))


def test_leading_coefficient_on_cross4():
    # cone over the 4-dimensional cross-polytope at height 1: the dual slice
    # at height h is the cube [-h, h]^4, so vol(0,0,0,0,5) = 5! * 16 / 5^6
    rays = [[s * (i == j) for j in range(4)] + [1] for i in range(4) for s in (1, -1)]
    data = ToricConeData.make(5, rays)
    lead = leading_coefficient(data, None, (0, 0, 0, 0, 5))
    assert abs(lead.vol_value - 120 * 16 / 5**6) < 1e-15
    assert abs(lead.a0 - lead.vol_value) <= 1e-3 * lead.vol_value
