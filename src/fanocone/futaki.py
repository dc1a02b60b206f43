"""Futaki invariants of product test configurations.

A product configuration is determined by the polarization xi0 together with a
commuting one-parameter direction eta in the co-weight space.  With

    T(eta) = (A(xi0) * eta - A(eta) * xi0) / n,

the Futaki invariant is the directional derivative

    Fut(xi0; eta) = d/deps|_0 vol(xi0 - eps * T(eta)) / vol(xi0)
                  = -<grad vol(xi0), T(eta)> / vol(xi0).

Since vol is homogeneous of degree -n, Euler's relation
<grad vol(xi), xi> = -n * vol(xi) makes this the same number as the
derivative of the normalized volume along -eta, rescaled by
n * A(xi0)^{n-1} * vol(xi0); the tests keep that second expression as an
oracle.  For product configurations the Berman-Ding invariant has no
log-canonical-threshold correction and coincides with the Futaki invariant,
so it is not reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import dot, vec_scale, vec_sub
from .singularity import ToricConeData, coords_of, gorenstein_vector, log_discrepancy, reeb
from .volume import VolumeForm, build_volume_form, vol


def t_normalize(data: ToricConeData, xi0, eta) -> tuple:
    """T(eta) = (A(xi0) * eta - A(eta) * xi0) / n; satisfies A(T(eta)) = 0."""
    n = data.rank
    x = coords_of(xi0)
    e = coords_of(eta)
    gamma = gorenstein_vector(data)
    a_xi = dot(gamma, x)
    a_eta = dot(gamma, e)
    num = vec_sub(vec_scale(a_xi, e), vec_scale(a_eta, x))
    if all(isinstance(v, (int, Fraction)) for v in num):
        return tuple(Fraction(v) / n for v in num)
    return tuple(v / n for v in num)


@dataclass(frozen=True)
class FutakiReport:
    fut: float
    t_xi_eta: tuple

    def to_dict(self) -> dict:
        return {"fut": self.fut, "t_xi_eta": [float(v) for v in self.t_xi_eta]}


def futaki(data: ToricConeData, form: VolumeForm | None = None, *, xi0, eta) -> FutakiReport:
    """Futaki invariant -<grad vol(xi0), T(eta)> / vol(xi0) of the product
    configuration (xi0, eta).

    Raises ValueError when eta has the wrong length and NotInReebCone when
    xi0 is not strictly interior to sigma.
    """
    if form is None:
        form = build_volume_form(data)
    x = reeb(xi0)
    e = coords_of(eta)
    if len(e) != data.rank:
        raise ValueError("eta must live in the same co-weight space as xi0")
    log_discrepancy(data, x)  # raises NotInReebCone for a boundary xi0
    t_vec = t_normalize(data, x, e)
    v0, g = vol(form, x.as_floats(), 1)
    fut = -float(dot(g, tuple(float(v) for v in t_vec))) / v0
    return FutakiReport(fut=fut, t_xi_eta=t_vec)
