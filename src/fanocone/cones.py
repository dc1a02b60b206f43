"""Pointed rational polyhedral cones: duals, membership, pulling
triangulations built from the facet incidence sets.

All computations are exact (arbitrary-precision rational arithmetic).  The
workloads this package targets are desk scale -- ambient rank at most 6 and
at most 64 generating rays -- and the double-description dualization below
errors out cleanly beyond that (``DualTooLarge`` when only the dual is too
large) rather than attempting to contain the combinatorial explosion.

Conventions:

* rays are stored as primitive integer vectors (entries coprime), deduplicated
  and sorted lexicographically, which makes cone equality structural;
* the dual of ``c`` is ``{y : <y, r> >= 0 for every ray r of c}``; its extreme
  rays are exactly the inner facet normals of ``c``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_
from typing import Sequence

from .errors import DualTooLarge, NotFullDim, NotPointed
from .linalg import dot, int_adjugate, int_det, primitive, rank

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


def extreme_rays(constraints: Sequence[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Extreme rays of {y : <a, y> >= 0 for a in constraints}, sorted.

    Requires the constraint vectors to span R^n (which makes the intersection
    pointed).  Incremental double description with the algebraic adjacency
    test: two rays are adjacent when their common tight constraints have rank
    n - 2.  The start is cut out by a greedy maximal independent subset of
    the constraints; its rays are the rows of sign(det) adj of that subset.
    """
    chosen: list[int] = []
    for i in range(len(constraints)):
        if rank([constraints[j] for j in chosen] + [constraints[i]]) > len(chosen):
            chosen.append(i)
        if len(chosen) == n:
            break
    if len(chosen) < n:
        raise ValueError("constraints do not span the ambient space")

    rays = [primitive(h) for h in _simplex_inner_normals([constraints[i] for i in chosen])[1]]
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
        # the processed constraints tight at each ray that a cuts strictly
        tight = {r: frozenset(i for i in processed if dot(constraints[i], r) == 0)
                 for r, v in zip(rays, vals) if v}
        new: list[tuple[int, ...]] = []
        for (u, vu) in pos:
            for (w, vw) in neg:
                common = tight[u] & tight[w]
                if n == 2 or rank([constraints[i] for i in common]) == n - 2:
                    cand = tuple(vu * x - vw * y for x, y in zip(w, u))
                    new.append(primitive(cand))
        processed.append(ci)
        rays = list(dict.fromkeys(keep + new))
    return sorted(set(rays))


@lru_cache(maxsize=16)
def dual_cone(c: Cone) -> Cone:
    """The dual cone {y : <y, r> >= 0 for all rays r of c}.

    Raises NotFullDim when the rays of ``c`` span a proper subspace,
    NotPointed when ``c`` contains a line and DualTooLarge when the dual has
    more than MAX_RAYS rays.  For pointed full-dimensional input the result
    is again pointed and full-dimensional, and its rays are the inner facet
    normals of ``c``.
    """
    if rank(c.rays) < c.rank:
        raise NotFullDim(f"rays span a {rank(c.rays)}-dimensional subspace of rank {c.rank}")
    dual_rays = extreme_rays(c.rays, c.rank)
    if not dual_rays or rank(dual_rays) < c.rank:
        raise NotPointed("cone contains a line")
    if len(dual_rays) > MAX_RAYS:
        raise DualTooLarge(f"the dual cone has {len(dual_rays)} rays, more than MAX_RAYS = {MAX_RAYS}")
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
# pulling triangulation
# ---------------------------------------------------------------------------


def _pull(face: int, dim: int, tight: Sequence[int], pull: Sequence[int], memo: dict) -> list[int]:
    """Pulling triangulation of a face of dimension ``dim``, faces and
    simplices being bitmasks of extreme rays.  The facets of the face are
    the maximal proper sets among its intersections with the facets of the
    cone; the first ray of the face in the pull order is coned over the
    triangulations of the facets that miss it."""
    if face.bit_count() == dim:
        return [face]
    if face not in memo:
        p = next(i for i in pull if face >> i & 1)
        cuts = {face & t for t in tight} - {face}
        memo[face] = [
            s | 1 << p
            for g in cuts
            if not g >> p & 1 and not any(g != h and g & h == g for h in cuts)
            for s in _pull(g, dim - 1, tight, pull, memo)
        ]
    return memo[face]


@lru_cache(maxsize=16)
def triangulate(c: Cone, order: tuple[int, ...] | None = None) -> SimplicialDecomposition:
    """Pulling triangulation of a pointed full-dimensional cone.

    Built from the incidence sets of the facets alone (De Loera-Rambau-
    Santos, *Triangulations*, 4.3): the extreme rays are pulled in the
    order ``order`` (default: the canonical ray order, which makes the
    output deterministic), then each non-extreme ray is inserted in that
    order by a stellar subdivision of the simplices containing it, so every
    ray is a generator of some simplex.  ``order`` exists so that
    independence of derived quantities from the triangulation can be checked.
    """
    rays = c.rays
    n = len(rays)
    pull = tuple(range(n)) if order is None else order
    if sorted(pull) != list(range(n)):
        raise ValueError(f"order {pull} is not a permutation of the {n} rays")
    tight = [sum(1 << i for i, r in enumerate(rays) if dot(f, r) == 0) for f in facet_normals(c)]
    # ray i is extreme exactly when the facets through it meet in it alone
    meets = [reduce(and_, [t for t in tight if t >> i & 1], (1 << n) - 1) for i in range(n)]
    extreme = sum(1 << i for i in range(n) if meets[i] == 1 << i)
    masks = _pull(extreme, c.rank, [t & extreme for t in tight], pull, {})
    simplices = [tuple(i for i in range(n) if s >> i & 1) for s in masks]
    for r in [i for i in pull if not extreme >> i & 1]:
        # stellar subdivision: r replaces, in each simplex containing it, each
        # generator whose barycentric coordinate at r is positive
        out = []
        for s in simplices:
            coords = [dot(h, rays[r]) for h in _simplex_inner_normals([rays[i] for i in s])[1]]
            out += [s] if min(coords) < 0 else [
                tuple(sorted(s[:j] + (r,) + s[j + 1:])) for j, x in enumerate(coords) if x > 0]
        simplices = out
    simplices.sort()
    dets = tuple(abs(int_det([rays[i] for i in s])) for s in simplices)
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
