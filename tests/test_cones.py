from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fanocone import (
    Cone,
    DualTooLarge,
    NotFullDim,
    NotPointed,
    contains,
    dual_cone,
    half_open_masks,
    parallelepiped_points,
    triangulate,
)
from fanocone.cones import MAX_RAYS, _simplex_inner_normals
from fanocone.linalg import dot, int_adjugate, int_det, primitive, rank

import oracles

ORTHANT2 = Cone(rank=2, rays=((1, 0), (0, 1)))
CONIFOLD = Cone(rank=3, rays=((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)))


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def test_dual_orthant_is_self_dual():
    assert dual_cone(ORTHANT2).rays == ORTHANT2.rays


def test_dual_half_line():
    c = Cone(rank=1, rays=((1,),))
    assert dual_cone(c).rays == ((1,),)


def test_dual_conifold_matches_cross_product_oracle():
    # Brute force: every facet normal of a 3-d cone is (up to sign) a cross
    # product of two rays that pairs nonnegatively with all rays.
    normals = set()
    for u, v in itertools.combinations(CONIFOLD.rays, 2):
        w = _cross(u, v)
        if not any(w):
            continue
        for cand in (w, tuple(-x for x in w)):
            if all(dot(cand, r) >= 0 for r in CONIFOLD.rays):
                normals.add(primitive(cand))
    assert dual_cone(CONIFOLD).rays == tuple(sorted(normals))
    assert dual_cone(CONIFOLD).rays == ((-1, 0, 1), (0, -1, 1), (0, 1, 0), (1, 0, 0))


def test_dual_is_facet_description_of_input():
    # every input ray pairs nonnegatively against the dual rays, and each
    # dual ray is tight on at least rank-1 independent input rays
    d = dual_cone(CONIFOLD)
    for r in CONIFOLD.rays:
        assert all(dot(f, r) >= 0 for f in d.rays)
    for f in d.rays:
        tight = [r for r in CONIFOLD.rays if dot(f, r) == 0]
        assert len(tight) >= 2


def _random_pointed_cone(rng: random.Random, rank: int) -> Cone:
    while True:
        count = rng.randint(rank, rank + 3)
        rays = set()
        while len(rays) < count:
            r = tuple(rng.randint(-3, 3) for _ in range(rank - 1)) + (rng.randint(1, 3),)
            rays.add(r)
        try:
            c = Cone(rank=rank, rays=tuple(rays))
            dual_cone(c)
            return c
        except (NotFullDim, NotPointed, ValueError):
            continue


def test_double_dual_is_involution_on_extreme_rays():
    rng = random.Random(11)
    for _ in range(40):
        rank = rng.randint(2, 4)
        c = _random_pointed_cone(rng, rank)
        ext = dual_cone(dual_cone(c))  # canonical extreme-ray representative
        assert dual_cone(dual_cone(ext)).rays == ext.rays
        # same cone as a set: mutual containment of generators
        assert all(contains(c, r) for r in ext.rays)
        assert all(contains(ext, r) for r in c.rays)


def test_dual_matches_bruteforce_facet_enumeration():
    # oracle: a facet normal is the 1-d kernel of any (rank-1)-subset of rays
    # that supports the whole cone on one side
    from fanocone.linalg import nullspace

    rng = random.Random(211)
    for _ in range(15):
        rank = rng.randint(2, 4)
        c = _random_pointed_cone(rng, rank)
        normals = set()
        for subset in itertools.combinations(c.rays, rank - 1):
            kern = nullspace(subset) if subset else []
            if len(kern) != 1:
                continue
            w = primitive(kern[0])
            for cand in (w, tuple(-x for x in w)):
                if all(dot(cand, r) >= 0 for r in c.rays):
                    normals.add(cand)
        assert dual_cone(c).rays == tuple(sorted(normals))


def test_dual_errors():
    with pytest.raises(NotPointed):
        dual_cone(Cone(rank=1, rays=((1,), (-1,))))
    with pytest.raises(NotPointed):
        dual_cone(Cone(rank=2, rays=((1, 0), (-1, 0), (0, 1))))
    with pytest.raises(NotFullDim):
        dual_cone(Cone(rank=3, rays=((1, 0, 0), (0, 1, 0), (1, 1, 0))))


def test_dual_with_too_many_rays_is_its_own_error():
    # the cone over the cyclic polytope C(12, 5) has 12 rays and 72 facets
    c = Cone(rank=6, rays=tuple((t, t**2, t**3, t**4, t**5, 1) for t in range(1, 13)))
    with pytest.raises(DualTooLarge, match=f"72 rays, more than MAX_RAYS = {MAX_RAYS}"):
        dual_cone(c)


def test_triangulate_two_dim_fan_shares_middle_ray():
    c = Cone(rank=2, rays=((1, 1), (0, 1), (2, 1)))
    dec = triangulate(c)
    assert len(dec.simplices) == 2
    middle = c.rays.index((1, 1))
    assert all(middle in s for s in dec.simplices)


def test_triangulate_simplicial_cone_is_identity():
    c = Cone(rank=3, rays=((1, 0, 0), (0, 1, 0), (1, 1, 2)))
    dec = triangulate(c)
    assert dec.simplices == ((0, 1, 2),)
    assert dec.dets == (2,)


def test_triangulate_conifold_dual_is_a_diagonal_split():
    d = dual_cone(CONIFOLD)
    dec = triangulate(d)
    assert len(dec.simplices) == 2
    assert dec.dets == (1, 1)
    # oracle: the square cone has exactly two diagonal splits
    splits = []
    for diag in itertools.combinations(range(4), 2):
        others = [i for i in range(4) if i not in diag]
        s1 = tuple(sorted(diag + (others[0],)))
        s2 = tuple(sorted(diag + (others[1],)))
        if int_det([d.rays[i] for i in s1]) and int_det([d.rays[i] for i in s2]):
            splits.append(tuple(sorted((s1, s2))))
    assert tuple(sorted(dec.simplices)) in splits


def test_triangulate_errors_on_degenerate_input():
    with pytest.raises(NotFullDim):
        triangulate(Cone(rank=2, rays=((1, 0),)))
    with pytest.raises(NotPointed):
        triangulate(Cone(rank=2, rays=((1, 0), (-1, 0), (0, 1))))


def _truncation_sum(cone: Cone, simplices, xi) -> Fraction:
    total = Fraction(0)
    for s in simplices:
        rays = [cone.rays[i] for i in s]
        d = abs(int_det(rays))
        prod = Fraction(1)
        for u in rays:
            prod *= dot(u, xi)
        total += Fraction(d) / prod
    return total


def test_triangulation_sum_is_order_independent():
    rng = random.Random(23)
    for _ in range(12):
        rank = rng.randint(2, 4)
        c = _random_pointed_cone(rng, rank)
        dec = triangulate(c)
        # interior point of the dual cone, so every simplex pairing is positive
        xi = tuple(
            sum(Fraction(rng.randint(1, 5), rng.randint(1, 3)) * Fraction(f[k]) for f in dual_cone(c).rays)
            for k in range(rank)
        )
        base = _truncation_sum(c, dec.simplices, xi)
        for _ in range(3):
            order = list(range(len(c.rays)))
            rng.shuffle(order)
            other = triangulate(c, tuple(order)).simplices
            assert _truncation_sum(c, other, xi) == base


def test_simplex_dets_positive_and_match_monte_carlo():
    rng = random.Random(5)
    import numpy as np

    for _ in range(4):
        c = _random_pointed_cone(rng, 3)
        dec = triangulate(c)
        assert all(d > 0 for d in dec.dets)
        xi = tuple(sum(f[k] for f in dual_cone(c).rays) for k in range(3))
        exact = float(_truncation_sum(c, dec.simplices, xi)) / 6.0  # volume of {x in c: <xi,x> <= 1}
        # Monte Carlo over the truncation's bounding box
        verts = []
        for r in c.rays:
            scale = dot(r, xi)
            verts.append([x / scale for x in r])
        verts.append([0.0] * 3)
        verts = np.array(verts, dtype=float)
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        nsamples = 200_000
        rng_np = np.random.default_rng(99)
        pts = rng_np.uniform(lo, hi, size=(nsamples, 3))
        facets = np.array(dual_cone(c).rays, dtype=float)
        inside = np.all(pts @ facets.T >= 0, axis=1) & (pts @ np.array(xi, dtype=float) <= 1)
        box_vol = float(np.prod(hi - lo))
        p = inside.mean()
        mc = p * box_vol
        sigma = box_vol * (p * (1 - p) / nsamples) ** 0.5
        assert abs(mc - exact) <= 3 * sigma + 1e-12


def test_contains_examples():
    assert contains(ORTHANT2, (1, 1), strict=True)
    assert not contains(ORTHANT2, (1, 0), strict=True)
    assert contains(ORTHANT2, (1, 0), strict=False)
    assert not contains(CONIFOLD, (0, 0, 1), strict=True)
    assert contains(CONIFOLD, (0, 0, 1), strict=False)
    assert contains(ORTHANT2, (Fraction(1, 3), Fraction(7, 2)), strict=True)


def _assert_masks_partition(c: Cone, dec, box) -> None:
    """Every lattice point of the box lies in exactly one half-open simplex
    when it lies in the cone, and in none otherwise."""
    masks = half_open_masks(dec)
    inverses = []
    for k in range(len(masks)):
        rays = dec.simplex_rays(k)
        inverses.append(oracles.invert([[r[i] for r in rays] for i in range(c.rank)]))
    for pt in box:
        hits = 0
        for inv, mask in zip(inverses, masks):
            lam = [dot(row, pt) for row in inv]
            if all((l > 0 if is_open else l >= 0) for l, is_open in zip(lam, mask)):
                hits += 1
        assert hits == (1 if contains(c, pt) else 0), (c.rays, pt)


def test_half_open_masks_partition_the_cone():
    rng = random.Random(31)
    for _ in range(6):
        rank = rng.randint(2, 3)
        c = _random_pointed_cone(rng, rank)
        _assert_masks_partition(c, triangulate(c), itertools.product(range(-3, 4), repeat=rank))


@st.composite
def _cones_with_inner_rays(draw):
    """A cone of rank 2-5 over lattice points at height one, with one to
    three more rays that are sums of two or three of them, so never extreme."""
    n = draw(st.integers(2, 5))
    base = draw(st.lists(
        st.tuples(*[st.integers(-2, 2)] * (n - 1)), min_size=n, max_size=n + 2, unique=True))
    rays = [b + (1,) for b in base]
    assume(rank(rays) == n)
    for _ in range(draw(st.integers(1, 3))):
        parts = draw(st.lists(st.sampled_from(rays[:len(base)]), min_size=2, max_size=3, unique=True))
        rays.append(tuple(map(sum, zip(*parts))))
    return Cone(rank=n, rays=tuple(rays))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_cones_with_inner_rays(), st.data())
def test_pulling_with_inner_rays_is_a_triangulation(c, data):
    n, m = c.rank, len(c.rays)
    duals = dual_cone(c).rays
    coeffs = data.draw(st.lists(st.integers(1, 4), min_size=len(duals), max_size=len(duals)))
    xi = tuple(sum(a * f[k] for a, f in zip(coeffs, duals)) for k in range(n))
    dec = triangulate(c)
    base = _truncation_sum(c, dec.simplices, xi)
    for order in [tuple(range(m))] + [data.draw(st.permutations(range(m))) for _ in range(3)]:
        other = triangulate(c, tuple(order))
        assert set().union(*other.simplices) == set(range(m))
        assert all(d > 0 for d in other.dets)
        assert _truncation_sum(c, other.simplices, xi) == base
    r = 2 if n <= 3 else 1
    _assert_masks_partition(c, dec, itertools.product(*[range(-r, r + 1)] * (n - 1), range(3)))


def test_parallelepiped_point_count_equals_det():
    c = Cone(rank=3, rays=((1, 0, 0), (1, 2, 0), (1, 1, 3)))
    dec = triangulate(c)
    rays = dec.simplex_rays(0)
    pts_closed = parallelepiped_points(rays, (False, False, False))
    assert len(pts_closed) == dec.dets[0] == 6
    assert (0, 0, 0) in pts_closed
    pts_open = parallelepiped_points(rays, (True, False, False))
    assert len(pts_open) == 6
    assert (0, 0, 0) not in pts_open


@st.composite
def _simplices(draw):
    """Generators of a simplicial cone of rank 1-6 with small |det| and a
    small bounding box, plus an open-facet mask.  Up to rank 3 the entries
    are arbitrary; from rank 4 on the matrix is lower bidiagonal with one
    extra entry, with its coordinates and generators permuted and signed."""
    n = draw(st.integers(1, 6))
    if n <= 3:
        rays = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=n, max_size=n))
        assume(int_det(rays) != 0)
    else:
        diag = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        assume(math.prod(diag) <= 24)
        m = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(1, n):
            m[i][i - 1] = draw(st.integers(-1, 1))
        i = draw(st.integers(2, n - 1))
        m[i][draw(st.integers(0, i - 2))] = draw(st.integers(-1, 1))
        coords = draw(st.permutations(range(n)))
        order = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        rays = [tuple(signs[j] * m[coords[i]][j] for i in range(n)) for j in order]
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return rays, mask


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_simplices())
def test_parallelepiped_points_match_box_scan(case):
    rays, mask = case
    assert parallelepiped_points(rays, mask) == oracles.box_parallelepiped_points(rays, mask)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_simplices())
def test_int_adjugate_and_simplex_normals(case):
    rays, _ = case
    n = len(rays)
    d, adj = int_adjugate(rays)
    assert d == int_det(rays)
    for i in range(n):
        for j in range(n):
            assert sum(rays[i][k] * adj[k][j] for k in range(n)) == d * (i == j)
    size, normals = _simplex_inner_normals(rays)
    assert size == abs(d)
    for j, h in enumerate(normals):
        assert [dot(h, r) for r in rays] == [size * (i == j) for i in range(n)]


def test_int_adjugate_rejects_singular():
    with pytest.raises(ValueError):
        int_adjugate([[1, 2], [2, 4]])


def test_cone_json_roundtrip_sorted_rays():
    c = Cone(rank=2, rays=((2, 4), (1, 0)))
    d = c.to_dict()
    assert d == {"rank": 2, "rays": [[1, 0], [1, 2]]}  # primitive + sorted
    assert Cone.from_dict(d) == c
