"""Independent reference computations for the benchmark's checks.

Nothing here calls into fanocone.  Facet normals (the dual rays) come from a
brute-force scan over (n-1)-subsets of the rays in integer arithmetic.
Volumes are hull volumes, ``vol(xi) = n! Vol(conv(0, u/<u,xi>))`` over the
dual rays u, summed over the simplices of a pulling triangulation built
from those incidences; this is exact for rational xi.  Lattice sums come
from a box scan.  Everything is plain Python, so that the benchmark adds
no imports to the process whose set-up time and memory it measures.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence


def dot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v))


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def facet_normals(rays: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Inner facet normals of the pointed full-dimensional cone over ``rays``.

    Every (n-1)-subset of the rays spanning a hyperplane gives a candidate
    normal by cofactor expansion; it is a facet normal when all rays lie on
    one side of it.
    """
    n = len(rays[0])
    out = set()
    for sub in itertools.combinations(rays, n - 1):
        h = [(-1) ** j * int_det([[r[k] for k in range(n) if k != j] for r in sub])
             for j in range(n)]
        if not any(h):
            continue
        vals = [dot(h, r) for r in rays]
        if all(v >= 0 for v in vals):
            out.add(primitive(h))
        elif all(v <= 0 for v in vals):
            out.add(primitive([-x for x in h]))
    return tuple(sorted(out))


def rank(rows) -> int:
    """Rank of a list of integer vectors, by exact elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    rk = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rk, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for i in range(len(m)):
            if i != rk and m[i][c] != 0:
                f = m[i][c] / m[rk][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rk])]
        rk += 1
    return rk


def dual_triangulation(rays, facets) -> tuple[tuple[int, tuple], ...]:
    """A pulling triangulation of the dual cone over its rays (the facet
    normals of the cone over ``rays``), as (|det|, simplex rays) pairs.

    The faces of the dual cone come from its incidences with the primal
    rays: a face of dimension d is cut down to its facets by the primal rays
    vanishing on rank d-1 of its rays.  Each face is split into the cones
    from its least ray over the facets that miss it.  With any triangulation
    of the dual cone,

        vol(x) = n! Vol(conv(0, u/<u,x>)) = sum |det| / prod <u, x>

    for every interior x, exactly for rational x.
    """
    n = len(facets[0])
    tight = [frozenset(i for i, u in enumerate(facets) if dot(u, r) == 0) for r in rays]
    ranks: dict = {}

    def dim(face) -> int:
        if face not in ranks:
            ranks[face] = rank([facets[i] for i in face])
        return ranks[face]

    def pull(face, d) -> list[frozenset]:
        if len(face) == d:
            return [face]
        v = min(face)
        subfaces = {face & t for t in tight}
        out = []
        for g in subfaces:
            if v not in g and dim(g) == d - 1:
                out += [s | {v} for s in pull(g, d - 1)]
        return out

    simplices = pull(frozenset(range(len(facets))), n)
    return tuple((abs(int_det([facets[i] for i in sorted(s)])), tuple(facets[i] for i in sorted(s)))
                 for s in simplices)


def tri_vol(tri, xi):
    """vol(xi) from a triangulation of the dual cone; exact for rational xi.
    Raises ValueError unless xi is strictly inside the cone."""
    total = 0
    for d, rays in tri:
        prod = 1
        for u in rays:
            p = dot(u, xi)
            if p <= 0:
                raise ValueError(f"xi={tuple(xi)} is not strictly inside the cone")
            prod *= p
        total += Fraction(d) / prod if isinstance(prod, (int, Fraction)) else d / prod
    return total


def tri_hvol(gamma, tri, xi):
    """A(xi)^n vol(xi); exact for rational xi, a float otherwise."""
    if not all(isinstance(x, (int, Fraction)) for x in xi):
        gamma = [float(g) for g in gamma]
    return dot(gamma, xi) ** len(gamma) * tri_vol(tri, xi)


def tri_directional(tri, xi, eta):
    """The derivative of vol at xi along eta, from the same triangulation:
    each simplex term d / prod <u, xi> contributes -term * sum <u, eta> / <u, xi>.
    Exact for rational xi and eta, a float otherwise."""
    exact = all(isinstance(x, (int, Fraction)) for x in list(xi) + list(eta))
    if not exact:
        xi, eta = [float(x) for x in xi], [float(x) for x in eta]
    total = 0
    for d, rays in tri:
        pairs = [dot(u, xi) for u in rays]
        term = Fraction(d) / math.prod(pairs) if exact else d / math.prod(pairs)
        total -= term * sum(dot(u, eta) / p for u, p in zip(rays, pairs))
    return total


def slice_basis(gamma) -> list[tuple]:
    """A basis of the hyperplane {y : <gamma, y> = 0}."""
    n = len(gamma)
    p = max(i for i in range(n) if gamma[i] != 0)
    out = []
    for j in range(n):
        if j != p:
            v = [Fraction(0)] * n
            v[j] = Fraction(gamma[p])
            v[p] = -Fraction(gamma[j])
            out.append(tuple(v))
    return out


def slice_gradient(gamma, tri, xi) -> list:
    """Derivatives of vol at xi along a basis of the slice {A = 0}.  On the
    slice through xi, hvol is A(xi)^n vol, strictly convex, so xi is the
    minimizer exactly when all of them vanish."""
    return [tri_directional(tri, xi, b) for b in slice_basis(gamma)]


def relative_slice_gradient(gamma, tri, xi) -> float:
    """max over the basis b of |D_b vol| |xi| / (|b| vol), in floats: zero
    at the minimizer, and free of the scale of xi and of b."""
    x = [float(v) for v in xi]
    scale = math.hypot(*x) / tri_vol(tri, x)
    return max(abs(g) * scale / math.hypot(*map(float, b))
               for b, g in zip(slice_basis(gamma), slice_gradient(gamma, tri, x)))


def is_minimizer(gamma, tri, xi) -> bool:
    """Whether the rational xi is the minimizer, decided exactly; a float
    gradient more than 1e-9 away from zero settles it at once."""
    if relative_slice_gradient(gamma, tri, xi) > 1e-9:
        return False
    return not any(slice_gradient(gamma, tri, xi))


def witness_descends(gamma, tri, xi0, w) -> str | None:
    """Check a destabilizing direction at rational xi0.

    The witness w must satisfy A(w) = 0 to float accuracy, and hvol must
    drop somewhere along xi0 - h w for h = A(xi0)/(2n) * 2^-k, k < 60.  By convexity
    of vol on the slice, some such h exists exactly when -w is a descent
    direction.  Each comparison is made in floats and, when the floats
    differ by less than 1e-9, again exactly.  Returns None when the check
    passes, else a reason.
    """
    n = len(gamma)
    wf = [Fraction(x) for x in w]
    a_w = abs(float(dot(gamma, wf)))
    norm = math.sqrt(sum(float(g) ** 2 for g in gamma)) * math.sqrt(sum(float(x) ** 2 for x in wf))
    if norm == 0 or a_w > 1e-9 * norm:
        return f"witness {tuple(w)} has A(w) = {a_w}, not 0"
    xi0 = [Fraction(x) for x in xi0]
    f0 = float(tri_hvol(gamma, tri, [float(x) for x in xi0]))
    h = Fraction(dot(gamma, xi0)) / (2 * n)
    for _ in range(60):
        p = [a - h * b for a, b in zip(xi0, wf)]
        try:
            f = tri_hvol(gamma, tri, [float(x) for x in p])
            if f < f0 * (1 - 1e-9):
                return None
            if f <= f0 * (1 + 1e-9) and tri_hvol(gamma, tri, p) < tri_hvol(gamma, tri, xi0):
                return None
        except ValueError:  # the step left the cone
            pass
        h /= 2
    return f"hvol does not decrease along -witness {tuple(w)}"


def lattice_pairings(rays, facets, xi, bound: float) -> list[float]:
    """<alpha, xi> for every lattice point alpha of the dual cone with
    <alpha, xi> <= bound, scanning the integer bounding box of that region.

    The rays must lie at height 1 (last coordinate 1): for each choice of
    the other coordinates, the dual-cone constraints then bound the last
    coordinate from below and <alpha, xi> <= bound bounds it from above."""
    n = len(rays[0])
    x = [float(v) for v in xi]
    corners = [[0.0] * n] + [[bound * c / float(dot(u, x)) for c in u] for u in facets]
    lows = [math.floor(min(p[k] for p in corners)) for k in range(n - 1)]
    highs = [math.ceil(max(p[k] for p in corners)) for k in range(n - 1)]
    out = []
    for head in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        base = dot(head, x[:-1])
        z_hi = math.floor((bound - base) / x[-1])
        z_lo = max(-dot(head, r[:-1]) for r in rays)
        out += [v for v in (base + z * x[-1] for z in range(z_lo, z_hi + 1)) if v <= bound]
    return out


def character_sum(pairings, t: float, bound: float) -> float:
    """sum exp(-t v) over the pairings v <= bound."""
    return math.fsum(math.exp(-t * v) for v in pairings if v <= bound)


def ypq_min_hvol(p: int, q: int) -> float:
    """Minimal normalized volume of Y^{p,q} (Martelli-Sparks-Yau)."""
    s = math.sqrt(4 * p * p - 3 * q * q)
    return 9 * q * q * (2 * p + s) / (p * p * (3 * q * q - 2 * p * p + p * s))


def toy_limit(support, a: int, b: int) -> list[tuple[int, int]]:
    m = min(a * w + b * v for w, v in support)
    return sorted(p for p in support if a * p[0] + b * p[1] == m)


def toy_threshold(support) -> int:
    """Smallest k0 >= 1 with limit along (k, 1) equal to the two-step limit
    for every k >= k0, by scanning k up to a bound past every crossing."""
    two_step = toy_limit(toy_limit(support, 1, 0), 0, 1)
    second = [v for _, v in support]
    top = max(second) - min(second) + 2
    k0 = top
    for k in range(top, 0, -1):
        if toy_limit(support, k, 1) != two_step:
            break
        k0 = k
    return k0
