"""Index character of the weight semigroup and its small-t asymptotics.

For an interior xi the index character is the exponential sum

    F(xi, t) = sum over lattice points alpha of the dual cone of
               exp(-t * <alpha, xi>),

which converges for t > 0.  Two evaluation paths are provided:

* :func:`index_character` sums the series directly over the finitely many
  lattice points with <alpha, xi> <= T, enumerated by a best-first traversal
  of the semigroup that steps along its Hilbert basis (the irreducible
  generators).  This is the reference evaluation, feasible for moderate t.

* :func:`character_series` evaluates the exact rational form obtained from a
  half-open triangulation of the dual cone: each half-open simplicial
  subcone contributes a finite numerator (its fundamental-parallelepiped
  points, listed from the group Z^n / U Z^n in exact integer arithmetic)
  over a product of geometric-series denominators.  This closed form
  agrees with the direct sum to machine precision and remains cheap as
  t -> 0, where direct enumeration would need ~vol * (1/t)^n points.

The leading small-t coefficient a0 = lim t^n F(xi, t) is estimated from the
closed form by Richardson extrapolation on the geometric grid t = 2^-j,
j = 3..10, and checked against the closed-form volume.  (This is the
single-cone normalization: in rank n the leading pole of F is t^-n, as the
rank-one case F ~ 1/(t xi) forces.)
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ExtrapolationDiverged, NotInReebCone, TruncationTooSmall
from .cones import dual_cone, half_open_masks, parallelepiped_points, triangulate
from .linalg import dot
from .singularity import ToricConeData, coords_of, in_reeb_cone
from .volume import VolumeForm, build_volume_form, vol

TAIL_REL = 1e-12


@lru_cache(maxsize=128)
def _semigroup_generators(data: ToricConeData) -> tuple[tuple[int, ...], ...]:
    """The Hilbert basis of the dual-cone semigroup, sorted.

    The extreme rays of the dual cone plus the closed fundamental-
    parallelepiped points of a triangulation generate the semigroup; of
    these, a generator g is dropped when g - h lies in the dual cone for
    some other generator h (that is, <r, g> >= <r, h> for every ray r of
    sigma).  The dual-cone semigroup is saturated, so the survivors are
    exactly its irreducible elements.  Candidates are taken in increasing
    total pairing with the rays of sigma, so each is tested only against the
    irreducibles already kept.
    """
    dual = dual_cone(data.sigma)
    dec = triangulate(dual)
    cands = set(dual.rays)
    for k in range(len(dec.simplices)):
        rays = dec.simplex_rays(k)
        for p in parallelepiped_points(rays, (False,) * len(rays)):
            if any(p):
                cands.add(p)
    sigma_rays = data.sigma.rays
    keyed = []
    for g in cands:
        pv = tuple(dot(r, g) for r in sigma_rays)
        keyed.append((sum(pv), pv, g))
    kept: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for _, pv, g in sorted(keyed):
        if not any(all(a >= b for a, b in zip(pv, ph)) for ph, _ in kept):
            kept.append((pv, g))
    return tuple(sorted(g for _, g in kept))


def enumerate_semigroup(data: ToricConeData, xi, bound: float) -> list[tuple[tuple[int, ...], float]]:
    """All (alpha, <alpha, xi>) with alpha in the dual-cone semigroup and
    <alpha, xi> <= bound, in nondecreasing pairing order."""
    c = coords_of(xi)
    if not in_reeb_cone(data, c):
        raise NotInReebCone(f"{tuple(c)} is not strictly interior to sigma")
    cf = tuple(float(x) for x in c)
    gens = _semigroup_generators(data)
    gen_vals = [(g, float(dot(g, cf))) for g in gens]
    origin = (0,) * data.rank
    heap: list[tuple[float, tuple[int, ...]]] = [(0.0, origin)]
    seen = {origin}
    out = []
    while heap:
        val, pt = heapq.heappop(heap)
        out.append((pt, val))
        for g, gv in gen_vals:
            nval = val + gv
            if nval > bound:
                continue
            npt = tuple(a + b for a, b in zip(pt, g))
            if npt not in seen:
                seen.add(npt)
                heapq.heappush(heap, (nval, npt))
    return out


def index_character(data: ToricConeData, xi, t: float, truncation: float) -> float:
    """Truncated index character: sum of exp(-t <alpha, xi>) over semigroup
    points with <alpha, xi> <= truncation.

    Raises TruncationTooSmall unless exp(-t * truncation) is below 1e-12 of
    the partial sum, so accepted values carry at least that relative
    accuracy.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    total = 0.0
    for _, val in enumerate_semigroup(data, xi, truncation):
        total += math.exp(-t * val)
    if math.exp(-t * truncation) > TAIL_REL * total:
        raise TruncationTooSmall(
            f"exp(-t*T) = {math.exp(-t * truncation):.3e} exceeds {TAIL_REL} of the partial sum {total:.6e}"
        )
    return total


def default_truncation(t: float) -> float:
    """A truncation bound satisfying the tail precondition for any cone:
    exp(-t T) = exp(-28) < 1e-12 <= 1e-12 * partial sum."""
    return 28.0 / t


@lru_cache(maxsize=128)
def _series_data(form: VolumeForm):
    """Per half-open simplex: (parallelepiped points as n coordinate
    columns, generator rays).  n tuples per simplex instead of one small
    tuple per point keep the cache's memory down."""
    dec = form.decomposition
    masks = half_open_masks(dec)
    out = []
    for k, mask in enumerate(masks):
        rays = dec.simplex_rays(k)
        pts = parallelepiped_points(rays, mask)
        out.append((tuple(zip(*pts)), rays))
    return tuple(out)


def character_series(form: VolumeForm, xi, t: float) -> float:
    """Exact rational-form evaluation of F(xi, t), valid for every t > 0."""
    if t <= 0:
        raise ValueError("t must be positive")
    c = tuple(float(x) for x in coords_of(xi))
    for u in form.dual_rays:
        if dot(u, c) <= 0:
            raise NotInReebCone(f"<{u}, xi> <= 0")
    total = 0.0
    for cols, rays in _series_data(form):
        denom = 1.0
        for u in rays:
            denom *= -math.expm1(-t * float(dot(u, c)))
        num = sum(math.exp(-t * float(dot(p, c))) for p in zip(*cols))
        total += num / denom
    return total


@dataclass(frozen=True)
class LeadingCoefficient:
    a0: float
    error: float
    vol_value: float
    t_grid: tuple[float, ...]
    scaled_values: tuple[float, ...]


def leading_coefficient(
    data: ToricConeData,
    form: VolumeForm | None = None,
    xi=None,
    *,
    j_range: tuple[int, int] = (3, 10),
    rel_tol: float = 1e-3,
) -> LeadingCoefficient:
    """Estimate a0 = lim_{t->0+} t^n F(xi, t) by Richardson extrapolation.

    The scaled character g(t) = t^n F(xi, t) is smooth at t = 0 with value
    vol(xi); sampling on the halving grid t = 2^-j and eliminating powers of
    t gives an estimate whose error bar is the last table correction.
    Raises ExtrapolationDiverged when the table does not settle or the limit
    disagrees with the closed-form volume beyond ``rel_tol`` relative.
    """
    if form is None:
        form = build_volume_form(data)
    if xi is None:
        raise ValueError("xi is required")
    n = form.rank
    j_lo, j_hi = j_range
    ts = [2.0 ** (-j) for j in range(j_lo, j_hi + 1)]
    g = [t**n * character_series(form, xi, t) for t in ts]
    # Richardson on a halving grid: eliminate t, t^2, ... successively.
    table = [list(g)]
    for k in range(1, len(g)):
        prev = table[-1]
        table.append(
            [
                (2.0**k * prev[i + 1] - prev[i]) / (2.0**k - 1.0)
                for i in range(len(prev) - 1)
            ]
        )
    estimate = table[-1][0]
    if len(g) > 1:
        error = max(abs(estimate - prev_val) for prev_val in table[-2])
    else:
        error = float("inf")
    if not math.isfinite(estimate):
        raise ExtrapolationDiverged("extrapolation table is not finite")
    v = float(vol(form, xi))
    if abs(estimate - v) > rel_tol * abs(v):
        raise ExtrapolationDiverged(
            f"extrapolated a0 = {estimate} disagrees with vol = {v} beyond {rel_tol} relative"
        )
    return LeadingCoefficient(
        a0=estimate,
        error=error,
        vol_value=v,
        t_grid=tuple(ts),
        scaled_values=tuple(g),
    )


@dataclass(frozen=True)
class CharacterSample:
    """Direct character evaluations on a t-grid plus the extrapolated a0."""

    xi: tuple[float, ...]
    t_values: tuple[float, ...]
    F_values: tuple[float, ...]
    truncation_bound: float
    a0_estimate: float

    def to_dict(self) -> dict:
        return {
            "xi": list(self.xi),
            "t_values": list(self.t_values),
            "F_values": list(self.F_values),
            "truncation_bound": self.truncation_bound,
            "a0_estimate": self.a0_estimate,
        }


def sample_character(
    data: ToricConeData,
    xi,
    t_values: tuple[float, ...] = (1.0, 0.5),
    truncation: float | None = None,
) -> CharacterSample:
    """Evaluate the truncated character on a grid and extrapolate a0."""
    form = build_volume_form(data)
    t_min = min(t_values)
    bound = default_truncation(t_min) if truncation is None else truncation
    fs = tuple(index_character(data, xi, t, bound) for t in t_values)
    lead = leading_coefficient(data, form, xi)
    return CharacterSample(
        xi=tuple(float(x) for x in coords_of(xi)),
        t_values=tuple(t_values),
        F_values=fs,
        truncation_bound=bound,
        a0_estimate=lead.a0,
    )
