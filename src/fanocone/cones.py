"""Pointed rational polyhedral cones: duals, membership, triangulations.

All computations are exact (arbitrary-precision rational arithmetic).  The
workloads this package targets are desk scale -- ambient rank at most 6 and
at most 64 generating rays -- and the double-description dualization below
errors out cleanly beyond that rather than attempting to contain the
combinatorial explosion.

Conventions:

* rays are stored as primitive integer vectors (entries coprime), deduplicated
  and sorted lexicographically, which makes cone equality structural;
* the dual of ``c`` is ``{y : <y, r> >= 0 for every ray r of c}``; its extreme
  rays are exactly the inner facet normals of ``c``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import NotFullDim, NotPointed
from .linalg import Vec, dot, int_adjugate, int_det, invert, nullspace, primitive, rank

MAX_RANK = 6
MAX_RAYS = 64


@dataclass(frozen=True)
class Cone:
    """A cone in Z^rank given by generating rays (not necessarily extreme)."""

    rank: int
    rays: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if not self.rays:
            raise ValueError("at least one ray is required")
        canon = sorted({primitive(r) for r in self.rays})
        for r in canon:
            if len(r) != self.rank:
                raise ValueError(f"ray {r} does not match rank {self.rank}")
        if len(canon) > MAX_RAYS or self.rank > MAX_RANK:
            raise ValueError(
                f"desk-scale limits exceeded (rank <= {MAX_RANK}, rays <= {MAX_RAYS})"
            )
        object.__setattr__(self, "rays", tuple(canon))

    @classmethod
    def from_dict(cls, obj: dict) -> "Cone":
        return cls(rank=int(obj["rank"]), rays=tuple(tuple(int(x) for x in r) for r in obj["rays"]))

    def to_dict(self) -> dict:
        return {"rank": self.rank, "rays": [list(r) for r in self.rays]}

    def is_full_dim(self) -> bool:
        return rank(self.rays) == self.rank


@dataclass(frozen=True)
class SimplicialDecomposition:
    """A triangulation of a full-dimensional pointed cone into simplicial
    subcones spanned by subsets of the original rays.

    ``simplices`` holds index tuples into ``cone.rays``; ``dets`` the matching
    absolute determinants (positive integers since the rays are primitive).
    """

    cone: Cone
    simplices: tuple[tuple[int, ...], ...]
    dets: tuple[int, ...]

    def simplex_rays(self, k: int) -> tuple[tuple[int, ...], ...]:
        return tuple(self.cone.rays[i] for i in self.simplices[k])


# ---------------------------------------------------------------------------
# dual cones (double description)
# ---------------------------------------------------------------------------


def _tight_set(v: Sequence, constraints: Sequence[tuple[int, ...]], upto: int) -> frozenset[int]:
    return frozenset(i for i in range(upto) if dot(constraints[i], v) == 0)


def _dd_extreme_rays(constraints: Sequence[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Extreme rays of {y : <a, y> >= 0 for a in constraints}.

    Requires the constraint vectors to span R^n (which makes the intersection
    pointed).  Incremental double description with the algebraic adjacency
    test: two rays are adjacent when their common tight constraints have rank
    n - 2.
    """
    # Greedy maximal independent subset for the simplicial start.
    chosen: list[int] = []
    for i in range(len(constraints)):
        if rank([constraints[j] for j in chosen] + [constraints[i]]) > len(chosen):
            chosen.append(i)
        if len(chosen) == n:
            break
    if len(chosen) < n:
        raise ValueError("constraints do not span the ambient space")

    inv = invert([constraints[i] for i in chosen])  # columns are the dual basis
    rays = [primitive(tuple(row[j] for row in inv)) for j in range(n)]

    processed = list(chosen)
    remaining = [i for i in range(len(constraints)) if i not in chosen]
    for ci in remaining:
        a = constraints[ci]
        vals = [dot(a, r) for r in rays]
        if all(v >= 0 for v in vals):
            processed.append(ci)
            continue
        keep = [r for r, v in zip(rays, vals) if v >= 0]
        pos = [(r, v) for r, v in zip(rays, vals) if v > 0]
        neg = [(r, v) for r, v in zip(rays, vals) if v < 0]
        tight = {r: _tight_set(r, constraints, len(constraints)) for r in rays}
        sub = [i for i in processed]
        new: list[tuple[int, ...]] = []
        for (u, vu) in pos:
            for (w, vw) in neg:
                common = tight[u] & tight[w] & frozenset(sub)
                if n == 2 or rank([constraints[i] for i in common]) == n - 2:
                    cand = tuple(vu * x - vw * y for x, y in zip(w, u))
                    new.append(primitive(cand))
        processed.append(ci)
        seen = dict.fromkeys(keep)
        for r in new:
            seen.setdefault(r)
        rays = list(seen)
    return sorted(set(rays))


@lru_cache(maxsize=256)
def dual_cone(c: Cone) -> Cone:
    """The dual cone {y : <y, r> >= 0 for all rays r of c}.

    Raises NotFullDim when the rays of ``c`` span a proper subspace and
    NotPointed when ``c`` contains a line.  For pointed full-dimensional
    input the result is again pointed and full-dimensional, and its rays are
    the inner facet normals of ``c``.
    """
    if rank(c.rays) < c.rank:
        raise NotFullDim(f"rays span a {rank(c.rays)}-dimensional subspace of rank {c.rank}")
    dual_rays = _dd_extreme_rays(c.rays, c.rank)
    if not dual_rays or rank(dual_rays) < c.rank:
        raise NotPointed("cone contains a line")
    return Cone(rank=c.rank, rays=tuple(dual_rays))


def facet_normals(c: Cone) -> tuple[tuple[int, ...], ...]:
    """Inner normals of the facets of a pointed full-dimensional cone."""
    return dual_cone(c).rays


def contains(c: Cone, v: Sequence, strict: bool = False) -> bool:
    """Membership test against the facet description.

    ``strict=True`` tests interior membership (every facet pairing positive).
    Accepts exact rational or floating coordinates.
    """
    if len(v) != c.rank:
        raise ValueError(f"vector of length {len(v)} in rank-{c.rank} cone")
    pairings = (dot(f, v) for f in facet_normals(c))
    if strict:
        return all(p > 0 for p in pairings)
    return all(p >= 0 for p in pairings)


# ---------------------------------------------------------------------------
# placing triangulation
# ---------------------------------------------------------------------------


def _facet_normal_in_span(
    simplex_rays: Sequence[tuple[int, ...]],
    facet_rays: Sequence[tuple[int, ...]],
    opposite: tuple[int, ...],
) -> Vec:
    """Normal of a boundary facet, computed inside the linear span of the
    current cone and oriented towards the supplied opposite ray."""
    d = len(simplex_rays)
    if d == 1:
        h: Vec = tuple(Fraction(x) for x in simplex_rays[0])
    else:
        rows = [[dot(s, f) for s in simplex_rays] for f in facet_rays]
        z = nullspace(rows)[0]
        h = tuple(
            sum(z[k] * Fraction(simplex_rays[k][j]) for k in range(d))
            for j in range(len(opposite))
        )
    orient = dot(h, opposite)
    if orient < 0:
        h = tuple(-x for x in h)
    return h


def _placing(rays: Sequence[tuple[int, ...]], order: Sequence[int]) -> list[tuple[int, ...]]:
    """Placing triangulation of cone(rays) with the given insertion order.

    Rays that fall inside the cone of the previously inserted ones are
    skipped, so only the supplied rays ever appear as simplex generators.
    Returns simplices as sorted index tuples (in the final dimension).
    """
    simplices: list[tuple[int, ...]] = []
    span_members: list[int] = []
    dim = 0
    for idx in order:
        w = rays[idx]
        if not simplices:
            simplices = [(idx,)]
            span_members = [idx]
            dim = 1
            continue
        if rank([rays[i] for i in span_members] + [w]) > dim:
            simplices = [tuple(sorted(s + (idx,))) for s in simplices]
            span_members.append(idx)
            dim += 1
            continue
        # w lies in the current span: cone over the visible boundary facets
        count: dict[tuple[int, ...], int] = {}
        owner: dict[tuple[int, ...], tuple[int, ...]] = {}
        for s in simplices:
            for f in itertools.combinations(s, dim - 1):
                count[f] = count.get(f, 0) + 1
                owner[f] = s
        for f, cnt in sorted(count.items()):
            if cnt != 1:
                continue
            s = owner[f]
            opp = next(i for i in s if i not in f)
            h = _facet_normal_in_span(
                [rays[i] for i in s], [rays[i] for i in f], rays[opp]
            )
            if dot(h, w) < 0:
                simplices.append(tuple(sorted(f + (idx,))))
    return sorted(simplices)


@lru_cache(maxsize=256)
def triangulate(c: Cone, order: tuple[int, ...] | None = None) -> SimplicialDecomposition:
    """Placing triangulation of a pointed full-dimensional cone.

    The default insertion order is lexicographic in the canonical ray
    ordering, which makes the output deterministic.  ``order`` exists so that
    independence of derived quantities from the triangulation can be checked.
    """
    facet_normals(c)  # validates pointedness and full dimension
    idx_order = tuple(range(len(c.rays))) if order is None else order
    simplices = _placing(c.rays, idx_order)
    if not simplices or len(simplices[0]) < c.rank:
        raise NotFullDim("triangulation did not reach full dimension")
    dets = tuple(abs(int_det([c.rays[i] for i in s])) for s in simplices)
    return SimplicialDecomposition(cone=c, simplices=tuple(simplices), dets=dets)


# ---------------------------------------------------------------------------
# half-open decomposition and fundamental parallelepipeds
# ---------------------------------------------------------------------------


def _simplex_inner_normals(rays: Sequence[tuple[int, ...]]) -> tuple[int, list[tuple[int, ...]]]:
    """For a full-dimensional simplicial cone, |det| of its generators and the
    integer inner normal of the facet opposite each generator (normal j pairs
    to |det| with ray j and to 0 with the others).

    With U the matrix whose columns are the rays, row j of adj(U) pairs to
    det(U) with ray j and to 0 with the others, so the normal is sign(det)
    times it."""
    cols = [[r[i] for r in rays] for i in range(len(rays))]
    det, adj = int_adjugate(cols)
    s = 1 if det > 0 else -1
    return abs(det), [tuple(s * x for x in row) for row in adj]


def half_open_masks(dec: SimplicialDecomposition) -> tuple[tuple[bool, ...], ...]:
    """Facet-openness flags making the triangulation an exact partition.

    For each simplex, flag j is True when the facet opposite generator j is
    excluded.  The flags come from a generic interior viewpoint: a facet is
    excluded exactly when the viewpoint lies on its outer side, which yields
    a disjoint cover of the cone by half-open simplicial subcones.
    """
    rays = dec.cone.rays
    normals = [
        _simplex_inner_normals([rays[i] for i in s])[1] for s in dec.simplices
    ]
    w = None
    for m in range(10000):
        base = m + 2
        cand = tuple(
            sum(base**j * r[k] for j, r in enumerate(rays))
            for k in range(dec.cone.rank)
        )
        if all(dot(h, cand) != 0 for hs in normals for h in hs):
            w = cand
            break
    if w is None:  # pragma: no cover - finitely many bad viewpoints
        raise RuntimeError("no generic viewpoint found")
    return tuple(
        tuple(dot(h, w) < 0 for h in hs) for hs in normals
    )


def parallelepiped_points(
    rays: Sequence[tuple[int, ...]], open_mask: Sequence[bool]
) -> list[tuple[int, ...]]:
    """Lattice points of the half-open fundamental parallelepiped
    { sum_j t_j u_j : t_j in [0,1) closed / (0,1] open }, sorted.

    With U the matrix whose columns are the rays and d = |det U|, the points
    are in bijection with the group Z^n / U Z^n, which the map
    x -> (<h_j, x> mod d)_j, for h_j the integer facet normals (the rows of
    sign(det) adj(U)), embeds into (Z/d)^n: a point has t = k/d for its image
    k.  The images of the unit vectors generate the group, so closing them
    under addition mod d lists its d elements k; each maps to the point
    U k' / d, where k'_j = d if k_j = 0 and facet j is open, and k'_j = k_j
    otherwise.  Exact integer arithmetic throughout, O(d n^2).

    The number of points equals |det| of the generators, which is asserted.
    """
    n = len(rays)
    d, normals = _simplex_inner_normals(rays)
    zero = (0,) * n
    gens = {tuple(h[i] % d for h in normals) for i in range(n)} - {zero}
    group = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for k in frontier:
            for g in gens:
                kg = tuple((a + b) % d for a, b in zip(k, g))
                if kg not in group:
                    group.add(kg)
                    nxt.append(kg)
        frontier = nxt
    pts = []
    for k in group:
        kk = [d if kj == 0 and is_open else kj for kj, is_open in zip(k, open_mask)]
        x = [sum(r[i] * kj for r, kj in zip(rays, kk)) for i in range(n)]
        if any(c % d for c in x):
            raise RuntimeError(f"residue {k} does not map to a lattice point")
        pts.append(tuple(c // d for c in x))
    if len(pts) != d:
        raise RuntimeError(
            f"parallelepiped enumeration found {len(pts)} points, expected {d}"
        )
    return sorted(pts)
