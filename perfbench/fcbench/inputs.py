"""Seeded cone inputs, each carrying what the checks need to know about it.

Every cone here lies over a lattice polytope at height 1 (last coordinate
1), so it is pointed, full-dimensional and Gorenstein.  A cone knows its
Gorenstein covector gamma by construction, its facet normals from the
brute-force scan in :mod:`oracle`, and, for the symmetric families and
Y^{p,q}, its minimal normalized volume in closed form.

``translated`` moves the polytope by an integer vector, a unimodular map
that keeps the lexicographic order of both the rays and the dual rays.  The
copy therefore costs the program the same work as the original while no
cache keyed on the rays can answer it from an earlier item.  ``mapped``
applies a signed permutation of coordinates instead, which keeps the size
of every integer box the program scans.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import oracle


@dataclass(frozen=True)
class ConeInput:
    name: str
    rays: tuple[tuple[int, ...], ...]
    boundary: tuple[Fraction, ...]
    gamma: tuple[Fraction, ...]
    facets: tuple[tuple[int, ...], ...]
    min_hvol: float | None = None
    minimizer: tuple[Fraction, ...] | None = None  # exact, when rational

    @property
    def rank(self) -> int:
        return len(self.rays[0])

    @cached_property
    def tri(self):
        """A triangulation of the dual cone (see :func:`oracle.dual_triangulation`)."""
        return oracle.dual_triangulation(self.rays, self.facets)

    def key(self) -> tuple:
        return tuple(sorted(zip(self.rays, self.boundary)))

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "rays": [list(r) for r in self.rays],
            "boundary": [str(c) for c in self.boundary],
            "label": self.name,
        }

    def translated(self, t: tuple[int, ...]) -> "ConeInput":
        def move(x):
            return tuple(a + x[-1] * b for a, b in zip(x[:-1], t)) + (x[-1],)

        g = self.gamma
        gamma = g[:-1] + (g[-1] - sum(a * b for a, b in zip(g[:-1], t)),)
        facets = tuple(sorted(u[:-1] + (u[-1] - sum(a * b for a, b in zip(u[:-1], t)),)
                              for u in self.facets))
        return ConeInput(
            name=self.name,
            rays=tuple(move(r) for r in self.rays),
            boundary=self.boundary,
            gamma=gamma,
            facets=facets,
            min_hvol=self.min_hvol,
            minimizer=None if self.minimizer is None else move(self.minimizer),
        )

    def mapped(self, perm: tuple[int, ...], signs: tuple[int, ...]) -> "ConeInput":
        """The image under x_k -> signs[k] x_perm[k] on the first len(perm)
        coordinates (not the last).  The map is orthogonal, so it moves the
        dual rays and gamma the same way, and it keeps the size of every
        integer box."""
        def move(x):
            return tuple(s * x[p] for p, s in zip(perm, signs)) + tuple(x[len(perm):])

        return ConeInput(
            name=self.name,
            rays=tuple(move(r) for r in self.rays),
            boundary=self.boundary,
            gamma=move(self.gamma),
            facets=tuple(sorted(move(u) for u in self.facets)),
            min_hvol=self.min_hvol,
            minimizer=None if self.minimizer is None else move(self.minimizer),
        )


def symmetries(dim: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The signed permutations of ``dim`` coordinates, as (perm, signs)."""
    return [(perm, signs) for perm in itertools.permutations(range(dim))
            for signs in itertools.product((1, -1), repeat=dim)]


def _height_one(name: str, points, min_hvol=None, symmetric=False) -> ConeInput:
    """Cone over the lattice polytope conv(points), boundary zero.  For the
    symmetric families the minimizer is n times the vertex centroid."""
    rays = tuple(tuple(p) + (1,) for p in points)
    n = len(rays[0])
    minimizer = None
    if symmetric:
        minimizer = tuple(Fraction(n * sum(r[k] for r in rays), len(rays)) for k in range(n))
    return ConeInput(
        name=name,
        rays=rays,
        boundary=(Fraction(0),) * len(rays),
        gamma=(Fraction(0),) * (n - 1) + (Fraction(1),),
        facets=oracle.facet_normals(rays),
        min_hvol=min_hvol,
        minimizer=minimizer,
    )


def orthant(n: int) -> ConeInput:
    """The orthant, as the cone over the standard simplex; min hvol n^n."""
    pts = [(0,) * (n - 1)] + [tuple(int(i == j) for j in range(n - 1)) for i in range(n - 1)]
    return _height_one(f"orthant{n}", pts, float(n**n), symmetric=True)


def cross(d: int) -> ConeInput:
    """Cone over the cross-polytope conv(+-e_i); min hvol d! 2^d."""
    pts = [tuple(s * int(i == j) for j in range(d)) for i in range(d) for s in (1, -1)]
    return _height_one(f"cross{d}", pts, float(math.factorial(d) * 2**d), symmetric=True)


def cube(d: int) -> ConeInput:
    """Cone over the cube [-1, 1]^d; min hvol 2^d."""
    pts = list(itertools.product((-1, 1), repeat=d))
    return _height_one(f"cube{d}", pts, float(2**d), symmetric=True)


def conifold() -> ConeInput:
    return _height_one("conifold", [(0, 0), (1, 0), (0, 1), (1, 1)], 16.0, symmetric=True)


def ypq(p: int, q: int) -> ConeInput:
    return _height_one(f"Y{p},{q}", [(0, 0), (1, 0), (p, p), (p - q - 1, p - q)],
                       oracle.ypq_min_hvol(p, q))


YPQ = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 2), (5, 4)]


def polytope5() -> ConeInput:
    """A rank-5 cone over a fixed lattice polytope with 6 vertices and 9
    facets, once drawn by :func:`random_cone`; the same for every seed."""
    pts = [(-2, -3, -2, -3), (-2, 0, 2, -2), (-2, 2, 1, 0), (1, -3, -3, -1), (2, -2, 0, 3), (3, 1, -2, -3)]
    return _height_one("polytope5", pts)


def stalling6() -> ConeInput:
    """A rank-6 cone over a lattice polytope with 7 vertices and 12 facets
    on which ``minimize_volume`` stalls just above its gradient tolerance
    and ends with max-iters (see CHANGES.md).  Its translates converge, so
    it is used as it is."""
    pts = [(0, 1, 3, -1, 0), (0, 3, 2, -2, 2), (0, 3, 2, 1, 1), (1, 2, 1, 3, 1),
           (2, -1, 3, -3, 3), (2, -1, 3, 0, 0), (2, 0, 0, -1, -2)]
    return _height_one("stalling6", pts)


def random_cone(rng: random.Random, rank: int, facet_range=None, tilt=False) -> ConeInput:
    """Cone over a random lattice polytope in [-3, 3]^(rank-1) with rank to
    rank + 3 vertices candidates, redrawn until its facet count lies in
    ``facet_range``.  With ``tilt``, a tilted Gorenstein covector gives a
    nonzero boundary whenever a small tilt keeps it klt."""
    lo, hi = facet_range or (0, 10**9)
    while True:
        count = rng.randint(rank, rank + 3)
        pts = set()
        while len(pts) < count:
            pts.add(tuple(rng.randint(-3, 3) for _ in range(rank - 1)))
        rays = tuple(sorted(p + (1,) for p in pts))
        if oracle.rank(rays) < rank:
            continue
        facets = oracle.facet_normals(rays)
        if lo <= len(facets) <= hi:
            break
    gamma = (Fraction(0),) * (rank - 1) + (Fraction(1),)
    boundary = (Fraction(0),) * len(rays)
    if tilt:
        for _ in range(40):
            cand = tuple(Fraction(rng.randint(-2, 2), 12) for _ in range(rank - 1)) + (Fraction(1),)
            pairings = [oracle.dot(cand, r) for r in rays]
            if all(0 < p <= 1 for p in pairings) and any(p != 1 for p in pairings):
                gamma, boundary = cand, tuple(1 - p for p in pairings)
                break
    return ConeInput(name=f"random{rank}", rays=rays, boundary=boundary, gamma=gamma, facets=facets)


def interior_point(rng: random.Random, cone: ConeInput) -> tuple[Fraction, ...]:
    """A positive rational combination of the rays."""
    coeffs = [Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in cone.rays]
    return tuple(sum(c * r[k] for c, r in zip(coeffs, cone.rays)) for k in range(cone.rank))


def direction(rng: random.Random, n: int) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        if any(v):
            return v


class Fresh:
    """Hands out translates of cones that no earlier item of the run used."""

    def __init__(self) -> None:
        self.seen: set = set()

    def add(self, cone: ConeInput) -> bool:
        k = cone.key()
        if k in self.seen:
            return False
        self.seen.add(k)
        return True

    def translate(self, rng: random.Random, cone: ConeInput) -> ConeInput:
        reach = 3
        while True:
            moved = cone.translated(tuple(rng.randint(-reach, reach) for _ in range(cone.rank - 1)))
            if self.add(moved):
                return moved
            reach += 1
