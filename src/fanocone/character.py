"""Index character of the weight semigroup and its small-t asymptotics.

For an interior xi the index character is the exponential sum

    F(xi, t) = sum over lattice points alpha of the dual cone of
               exp(-t * <alpha, xi>),

which converges for t > 0.  :func:`character_series` is its one evaluator:
the exact rational form obtained from a half-open triangulation of the dual
cone.  Each half-open simplicial subcone contributes a finite numerator
(its fundamental-parallelepiped points, listed from the group Z^n / U Z^n
in exact integer arithmetic) over a product of geometric-series
denominators, so the whole series is summed, tail included, at a cost that
does not depend on t.

A direct sum over the lattice points with <alpha, xi> <= T is not offered.
At T = 28 / t it needs about vol(xi) T^n / n! points, 2 * 10^9 on the cone
over the 4-dimensional cross-polytope at t = 0.5, and the tail it drops is
not bounded by exp(-t T) relative to F: on the rank-4 orthant at
xi = (1, 1, 1, 1) and t = 0.5 it is 9.5e-10 of F.  Box-scan sums of that
kind live in the test oracles as an independent reference.

The leading small-t coefficient a0 = lim t^n F(xi, t) is estimated from the
closed form by Richardson extrapolation on the geometric grid t = 2^-j,
j = 3..10, and checked against the closed-form volume.  (This is the
single-cone normalization: in rank n the leading pole of F is t^-n, as the
rank-one case F ~ 1/(t xi) forces.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ExtrapolationDiverged, NotInReebCone
from .cones import half_open_masks, parallelepiped_points
from .linalg import dot
from .singularity import ToricConeData, coords_of
from .volume import VolumeForm, build_volume_form, vol

# halving grid t = 2^-j, j = J_RANGE[0]..J_RANGE[1], of the extrapolation
J_RANGE = (3, 10)
# largest relative gap between the extrapolated a0 and vol(xi)
REL_TOL = 1e-3


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
    data: ToricConeData, form: VolumeForm | None, xi
) -> LeadingCoefficient:
    """Estimate a0 = lim_{t->0+} t^n F(xi, t) by Richardson extrapolation.

    The scaled character g(t) = t^n F(xi, t) is smooth at t = 0 with value
    vol(xi); sampling on the halving grid t = 2^-j and eliminating powers of
    t gives an estimate whose error bar is the last table correction.
    Raises ExtrapolationDiverged when the table does not settle or the limit
    disagrees with the closed-form volume beyond ``REL_TOL`` relative.
    ``form`` may be None, and is then built from ``data``.
    """
    if form is None:
        form = build_volume_form(data)
    n = form.rank
    j_lo, j_hi = J_RANGE
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
    error = max(abs(estimate - prev_val) for prev_val in table[-2])
    if not math.isfinite(estimate):
        raise ExtrapolationDiverged("extrapolation table is not finite")
    v = float(vol(form, xi))
    if abs(estimate - v) > REL_TOL * abs(v):
        raise ExtrapolationDiverged(
            f"extrapolated a0 = {estimate} disagrees with vol = {v} beyond {REL_TOL} relative"
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
    """Character values F(xi, t) on a t-grid plus the extrapolated a0.

    ``truncation_bound`` is 28 / min(t_values), a pairing bound: the sum of
    exp(-t <alpha, xi>) over the lattice points with <alpha, xi> up to it
    matches ``F_values`` up to the series tail past it.
    """

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
) -> CharacterSample:
    """Evaluate the character series on a grid and extrapolate a0."""
    form = build_volume_form(data)
    fs = tuple(character_series(form, xi, t) for t in t_values)
    lead = leading_coefficient(data, form, xi)
    return CharacterSample(
        xi=tuple(float(x) for x in coords_of(xi)),
        t_values=tuple(t_values),
        F_values=fs,
        truncation_bound=28.0 / min(t_values),
        a0_estimate=lead.a0,
    )
