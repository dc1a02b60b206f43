"""Futaki invariants of product test configurations.

A product configuration is determined by the polarization xi0 together with a
commuting one-parameter direction eta in the co-weight space.  With

    T(eta) = (A(xi0) * eta - A(eta) * xi0) / n,

the Futaki invariant is the directional derivative

    Fut(xi0; eta) = d/deps|_0 vol(xi0 - eps * T(eta)) / vol(xi0)
                  = -<grad vol(xi0), T(eta)> / vol(xi0).

An equivalent route differentiates the normalized volume instead:

    Fut(xi0; eta) = [d/deps|_0 hvol(xi0 - eps * eta)] / (n * A(xi0)^{n-1} * vol(xi0)).

Both routes are computed from one evaluation of vol and its gradient and
must agree (the identity follows from Euler's relation for the degree -n
homogeneous function vol); the report carries both values.  For product
configurations the Berman-Ding invariant has no log-canonical-threshold
correction and coincides with the Futaki invariant, so it is not reported
separately.  There is no finite-difference mode: the tests compare both
routes with central differences of vol and hvol.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateXi
from .linalg import dot, vec_add, vec_scale, vec_sub
from .singularity import ReebVector, ToricConeData, coords_of, gorenstein_vector, log_discrepancy, reeb
from .volume import VolumeForm, build_volume_form, vol


@dataclass(frozen=True)
class ProductTestConfig:
    """Polarization and commuting vector field direction, with a flag that
    records whether (A(xi0), A(eta)) = (n, 0) holds."""

    xi0: ReebVector
    eta: tuple
    normalized: bool = False


def product_config(data: ToricConeData, xi0, eta) -> ProductTestConfig:
    """Build a configuration, marking it normalized when it already is."""
    x = reeb(xi0)
    e = coords_of(eta)
    if len(e) != data.rank:
        raise ValueError("eta must live in the same co-weight space as xi0")
    a_xi = log_discrepancy(data, x)
    gamma = gorenstein_vector(data)
    a_eta = dot(gamma, e)
    is_norm = a_xi == data.rank and a_eta == 0
    return ProductTestConfig(xi0=x, eta=tuple(e), normalized=bool(is_norm))


def normalize_config(data: ToricConeData, cfg: ProductTestConfig) -> ProductTestConfig:
    """Rescale to (a * xi0, b * xi0 + eta) with A = n on the polarization and
    A = 0 on the direction: a = n / A(xi0), b = -A(eta) / A(xi0).

    Idempotent on configurations that already satisfy the normalization.
    """
    n = data.rank
    a_xi = log_discrepancy(data, cfg.xi0)
    if a_xi <= 0:
        raise DegenerateXi(f"A(xi0) = {a_xi} <= 0")
    gamma = gorenstein_vector(data)
    a_eta = dot(gamma, cfg.eta)
    a = n / a_xi if isinstance(a_xi, Fraction) else float(n) / a_xi
    b = -a_eta / a_xi
    new_xi = vec_scale(a, cfg.xi0.coords)
    new_eta = vec_add(vec_scale(b, cfg.xi0.coords), cfg.eta)
    return ProductTestConfig(xi0=reeb(new_xi), eta=tuple(new_eta), normalized=True)


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
    fut_hvol_route: float

    def to_dict(self) -> dict:
        return {
            "fut": self.fut,
            "t_xi_eta": [float(v) for v in self.t_xi_eta],
            "fut_hvol_route": self.fut_hvol_route,
        }


def futaki(
    data: ToricConeData,
    form: VolumeForm | None = None,
    cfg: ProductTestConfig | None = None,
    *,
    xi0=None,
    eta=None,
    consistency_rel_tol: float = 1e-9,
) -> FutakiReport:
    """Futaki invariant of the product configuration, by both routes.

    The primary value is the directional derivative of vol against -T(eta);
    the second route differentiates the normalized volume against -eta and
    rescales.  A RuntimeError is raised when the two disagree beyond
    ``consistency_rel_tol`` relative, which would indicate a broken gradient.
    """
    if form is None:
        form = build_volume_form(data)
    if cfg is None:
        if xi0 is None or eta is None:
            raise ValueError("provide either cfg or (xi0, eta)")
        cfg = product_config(data, xi0, eta)
    n = data.rank
    x = tuple(float(v) for v in cfg.xi0.coords)
    e = tuple(float(v) for v in cfg.eta)
    t_vec = t_normalize(data, cfg.xi0, cfg.eta)
    t_f = tuple(float(v) for v in t_vec)
    v0, g = vol(form, x, 1)
    a_xi = float(log_discrepancy(data, x))
    gamma = tuple(float(c) for c in gorenstein_vector(data))

    fut = -float(dot(g, t_f)) / v0

    # Second route: d/deps|_0 hvol(xi0 - eps eta) / (n A^{n-1} vol).
    grad_hvol = tuple(
        n * a_xi ** (n - 1) * gamma[k] * v0 + a_xi**n * float(g[k]) for k in range(n)
    )
    d_hvol = -float(dot(grad_hvol, e))
    fut_hvol = d_hvol / (n * a_xi ** (n - 1) * v0)

    scale = max(1.0, abs(fut), abs(fut_hvol))
    if abs(fut - fut_hvol) > consistency_rel_tol * scale:
        raise RuntimeError(f"futaki routes disagree: {fut} vs {fut_hvol}")

    return FutakiReport(fut=fut, t_xi_eta=t_vec, fut_hvol_route=fut_hvol)
