"""Independent oracles used by the test suite.

Everything here is deliberately separate from the library's own evaluation
paths: lattice points are counted by brute-force box scans, minima are found
by grid search plus golden-section refinement, and derivatives by central
differences.  Tests compare library outputs against these.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from fanocone import (
    ToricConeData,
    build_volume_form,
    dual_cone,
    gorenstein_vector,
    vol,
)
from fanocone.linalg import dot, int_det, nullspace, primitive


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def invert(rows) -> list[tuple[Fraction, ...]]:
    """Exact inverse of a square nonsingular rational matrix, by Fraction
    Gauss-Jordan elimination of [A | I]."""
    n = len(rows)
    m = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [tuple(r[n:]) for r in m]


# ---------------------------------------------------------------------------
# lattice point counting
# ---------------------------------------------------------------------------


def box_lattice_points(data: ToricConeData, xi, bound: float) -> list[tuple[int, ...]]:
    """All lattice points of the dual cone with pairing <alpha, xi> <= bound,
    by scanning the integer bounding box of the truncated region."""
    dual = dual_cone(data.sigma)
    xs = np.array([float(v) for v in xi])
    verts = []
    for u in dual.rays:
        uv = np.array(u, dtype=float)
        verts.append(bound * uv / float(uv @ xs))
    verts = np.array(verts + [np.zeros(data.rank)])
    lows = [math.floor(v) for v in verts.min(axis=0)]
    highs = [math.ceil(v) for v in verts.max(axis=0)]
    facets = np.array(data.sigma.rays, dtype=np.int64)  # inner normals of dual cone
    pts = []
    ranges = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in zip(lows, highs)]
    grid = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, data.rank)
    inside = np.all(grid @ facets.T >= 0, axis=1)
    vals = grid @ xs
    keep = inside & (vals <= bound + 1e-12)
    for row in grid[keep]:
        pts.append(tuple(int(x) for x in row))
    return pts


def box_parallelepiped_points(
    rays: list[tuple[int, ...]], open_mask: list[bool]
) -> list[tuple[int, ...]]:
    """Lattice points of the half-open fundamental parallelepiped of the
    simplicial cone over ``rays`` (flag j open: t_j in (0,1], else [0,1)),
    sorted, by scanning its integer bounding box with exact rational
    coordinates t = U^-1 x."""
    n = len(rays)
    cols = [[rays[j][i] for j in range(n)] for i in range(n)]
    uinv = invert(cols)
    lows = [sum(min(0, r[i]) for r in rays) for i in range(n)]
    highs = [sum(max(0, r[i]) for r in rays) for i in range(n)]
    pts = []
    for p in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        t = [dot(row, p) for row in uinv]
        if all((0 < tj <= 1) if is_open else (0 <= tj < 1) for tj, is_open in zip(t, open_mask)):
            pts.append(tuple(p))
    assert len(pts) == abs(int_det(rays))
    return sorted(pts)


def counting_vol_estimate(data: ToricConeData, xi, k: int) -> float:
    """N(k) * n! / k^n for N(k) the truncated lattice point count."""
    n = data.rank
    count = len(box_lattice_points(data, xi, float(k)))
    return count * math.factorial(n) / float(k) ** n


def box_character_sum(data: ToricConeData, xi, t: float, bound: float) -> float:
    """Direct exponential sum over box-enumerated lattice points."""
    xs = [float(v) for v in xi]
    total = 0.0
    for p in box_lattice_points(data, xi, bound):
        total += math.exp(-t * sum(a * b for a, b in zip(p, xs)))
    return total


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def fd_gradient(f, x: tuple[float, ...], h: float = 1e-6) -> list[float]:
    out = []
    for k in range(len(x)):
        xp = list(x)
        xm = list(x)
        xp[k] += h
        xm[k] -= h
        out.append((f(tuple(xp)) - f(tuple(xm))) / (2 * h))
    return out


def fd_hessian(f, x: tuple[float, ...], h: float = 1e-4) -> list[list[float]]:
    n = len(x)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            xpp = list(x); xpm = list(x); xmp = list(x); xmm = list(x)
            xpp[i] += h; xpp[j] += h
            xpm[i] += h; xpm[j] -= h
            xmp[i] -= h; xmp[j] += h
            xmm[i] -= h; xmm[j] -= h
            out[i][j] = (f(tuple(xpp)) - f(tuple(xpm)) - f(tuple(xmp)) + f(tuple(xmm))) / (4 * h * h)
    return out


def slice_basis(gamma: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane gamma . x = const (n x (n-1)),
    from the SVD of gamma."""
    n = gamma.size
    if n == 1:
        return np.zeros((1, 0))
    _, _, vt = np.linalg.svd(gamma.reshape(1, -1))
    return vt[1:].T


# ---------------------------------------------------------------------------
# grid + golden-section minimization over the slice (rank 2 and 3)
# ---------------------------------------------------------------------------


def _hvol_vectorized(data: ToricConeData, points: np.ndarray) -> np.ndarray:
    """n^n * vol at an array of slice points (shape (N, n)); +inf outside."""
    form = build_volume_form(data)
    n = data.rank
    total = np.zeros(len(points))
    valid = np.ones(len(points), dtype=bool)
    for det, factors in form.terms:
        prod = np.ones(len(points))
        for u in factors:
            pair = points @ np.array(u, dtype=float)
            valid &= pair > 0
            prod *= np.where(pair > 0, pair, 1.0)
        total += det / prod
    out = np.where(valid, float(n) ** n * total, np.inf)
    return out


def _golden(f, lo: float, hi: float, iters: int = 120) -> tuple[float, float]:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    x = (a + b) / 2
    return x, f(x)


def grid_golden_min_hvol(data: ToricConeData, grid: int = 400) -> tuple[float, np.ndarray]:
    """Minimize n^n * vol over the slice {<gamma, xi> = n} by dense grid
    search refined with golden-section sweeps.  Supports rank 2 and 3.

    Entirely derivative-free and independent of the Newton path.
    """
    n = data.rank
    gamma = np.array([float(g) for g in gorenstein_vector(data)])
    ext = dual_cone(dual_cone(data.sigma)).rays  # extreme rays
    verts = []
    for r in ext:
        rv = np.array(r, dtype=float)
        verts.append(n * rv / float(gamma @ rv))
    verts = np.array(verts)

    if n == 2:
        a, b = verts[0], verts[1]

        def g(t: float) -> float:
            p = (1 - t) * a + t * b
            return float(_hvol_vectorized(data, p.reshape(1, -1))[0])

        t0, _ = _golden(g, 1e-9, 1 - 1e-9, iters=200)
        val = g(t0)
        return val, (1 - t0) * a + t0 * b

    if n != 3:
        raise ValueError("grid oracle supports rank 2 and 3 only")

    center = verts.mean(axis=0)
    spread = verts - center
    q, _ = np.linalg.qr(spread.T)
    d1, d2 = q[:, 0], q[:, 1]
    radii = spread @ np.stack([d1, d2], axis=1)
    lo = radii.min(axis=0) - 1e-9
    hi = radii.max(axis=0) + 1e-9
    avals = np.linspace(lo[0], hi[0], grid)
    bvals = np.linspace(lo[1], hi[1], grid)
    best = (np.inf, 0.0, 0.0)
    for a in avals:
        pts = center[None, :] + a * d1[None, :] + bvals[:, None] * d2[None, :]
        vals = _hvol_vectorized(data, pts)
        i = int(np.argmin(vals))
        if vals[i] < best[0]:
            best = (float(vals[i]), float(a), float(bvals[i]))
    _, a_star, b_star = best
    cell = max((hi[0] - lo[0]) / grid, (hi[1] - lo[1]) / grid)

    def point(a: float, b: float) -> np.ndarray:
        return center + a * d1 + b * d2

    def val_at(a: float, b: float) -> float:
        return float(_hvol_vectorized(data, point(a, b).reshape(1, -1))[0])

    width = 8 * cell
    for _ in range(10):
        a_star, _ = _golden(lambda a: val_at(a, b_star), a_star - width, a_star + width)
        b_star, _ = _golden(lambda b: val_at(a_star, b), b_star - width, b_star + width)
        width = max(width / 4, 1e-10)
    return val_at(a_star, b_star), point(a_star, b_star)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def futaki_hvol_route(data: ToricConeData, form, xi, eta) -> float:
    """Fut(xi; eta) = -A(eta) - (A(xi) / n) <grad vol(xi), eta> / vol(xi).

    This is the derivative of hvol along -eta over n A(xi)^{n-1} vol(xi);
    Euler's relation <grad vol(xi), xi> = -n vol(xi) makes it equal to the
    package's -<grad vol(xi), T(eta)> / vol(xi).
    """
    x = tuple(float(c) for c in xi)
    e = tuple(float(c) for c in eta)
    gamma = [float(c) for c in gorenstein_vector(data)]
    v, g = vol(form, x, 1)
    return -dot(gamma, e) - dot(gamma, x) / data.rank * dot(g, e) / v


def _det3(a, b, c) -> Fraction:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def msy_vol(vertices, xi) -> Fraction:
    """Martelli-Sparks-Yau per-ray volume (hep-th/0503183) of the cone over a
    lattice polygon at height 1 with no boundary (gamma = e_3):

        vol(xi) = sum_i det(V_{i-1}, V_i, V_{i+1})
                  / (det(xi, V_{i-1}, V_i) det(xi, V_i, V_{i+1})) / xi_3,

    V_i = (v_i, 1) for the counterclockwise hull vertices v_i.  Uses only the
    vertices: no dual cone and no triangulation.
    """
    x = tuple(Fraction(c) for c in xi)
    rays = [(Fraction(a), Fraction(b), Fraction(1)) for a, b in vertices]
    d = len(rays)
    total = Fraction(0)
    for i in range(d):
        prev, cur, nxt = rays[i - 1], rays[i], rays[(i + 1) % d]
        total += _det3(prev, cur, nxt) / (_det3(x, prev, cur) * _det3(x, cur, nxt))
    return total / x[2]


def newton_facets_by_subsets(ideal) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Bounded facets of the Newton polyhedron as (inner normal, offset), by
    trying every n-subset of the generators as the vertices of a facet: each
    affinely independent subset spans a hyperplane, kept when its normal is
    strictly positive, its offset positive and no generator lies below it."""
    from fanocone.ideals import check_primary

    check_primary(ideal)
    n = ideal.nvars
    gens = ideal.generators
    facets: dict[tuple[int, ...], int] = {}
    if n == 1:
        a = min(g[0] for g in gens)
        return (((1,), a),)
    for subset in itertools.combinations(gens, n):
        diffs = [tuple(a - b for a, b in zip(g, subset[0])) for g in subset[1:]]
        kern = nullspace(diffs)
        if len(kern) != 1:
            continue  # affinely dependent or not a hyperplane
        w = primitive(kern[0])
        c = dot(w, subset[0])
        if c < 0:
            w = tuple(-x for x in w)
            c = -c
        if c == 0 or any(x <= 0 for x in w):
            continue
        if all(dot(w, g) >= c for g in gens):
            facets[w] = int(c)
    return tuple(sorted(facets.items()))


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


def random_fano_cone_data(rng: random.Random, rank: int, label: str = "") -> ToricConeData:
    """A random polytopal cone (rays at height one), boundary zero.

    All rays have last coordinate 1, so the cone is pointed, full-dimensional
    and Gorenstein with covector (0, ..., 0, 1).  The rays are distinct and
    drawn from 7^(rank-1) candidates, so at rank 1 the cone is cone((1,)).
    """
    while True:
        count = min(rng.randint(rank, rank + 3), 7 ** (rank - 1))
        rays = set()
        while len(rays) < count:
            base = tuple(rng.randint(-3, 3) for _ in range(rank - 1))
            rays.add(base + (1,))
        cone_rays = sorted(rays)
        from fanocone.linalg import rank as mat_rank

        if mat_rank(cone_rays) == rank:
            return ToricConeData.make(rank, cone_rays, label=label)


def random_boundary_variant(rng: random.Random, data: ToricConeData) -> ToricConeData:
    """Tilt the Gorenstein covector to produce a nonzero boundary when a
    small tilt keeps every coefficient inside [0, 1); otherwise return the
    input unchanged."""
    n = data.rank
    for _ in range(40):
        tilt = [Fraction(rng.randint(-2, 2), 12) for _ in range(n - 1)] + [Fraction(1)]
        coeffs = []
        ok = True
        for r in data.sigma.rays:
            pairing = dot(tilt, r)
            if not (0 < pairing <= 1):
                ok = False
                break
            coeffs.append(Fraction(1) - pairing)
        if ok and any(coeffs):
            return ToricConeData.make(n, data.sigma.rays, coeffs, label=data.label + "+boundary")
    return data


def random_interior_rational(rng: random.Random, data: ToricConeData) -> tuple[Fraction, ...]:
    """Strictly interior rational point: positive rational combination of rays."""
    n = data.rank
    while True:
        coeffs = [Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in data.sigma.rays]
        pt = tuple(
            sum(c * r[k] for c, r in zip(coeffs, data.sigma.rays)) for k in range(n)
        )
        if any(pt):
            return pt


def random_primary_ideal(rng: random.Random, nvars: int):
    from fanocone import MonomialIdeal

    gens = []
    for i in range(nvars):
        e = [0] * nvars
        e[i] = rng.randint(1, 5)
        gens.append(tuple(e))
    for _ in range(rng.randint(0, 4)):
        g = tuple(rng.randint(0, 4) for _ in range(nvars))
        if any(g):
            gens.append(g)
    return MonomialIdeal(nvars=nvars, generators=tuple(gens))


def _hull_ccw(points) -> list[tuple[int, int]]:
    """Counterclockwise convex hull vertices (Andrew's monotone chain)."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out: list[tuple[int, int]] = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = half(pts), half(reversed(pts))
    return lower[:-1] + upper[:-1]


def random_lattice_polygon(rng: random.Random):
    """3-8 distinct points of [-3, 3]^2 spanning a polygon, with the
    counterclockwise vertices of their hull."""
    while True:
        points = {(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 8))}
        hull = _hull_ccw(points)
        if len(hull) >= 3:
            return sorted(points), hull
