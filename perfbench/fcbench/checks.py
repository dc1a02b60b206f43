"""Checks of the program's answers against :mod:`oracle`.

Each check returns None when the answer passes and a one-line reason when it
does not.  They run after the timed region.
"""

from __future__ import annotations

from fractions import Fraction

from . import oracle
from .inputs import ConeInput

REL = 1e-9


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def dual_rays(cone: ConeInput, rays) -> str | None:
    got = tuple(sorted(tuple(r) for r in rays))
    if got != cone.facets:
        return f"{cone.name}: dual rays {got} differ from the facet normals {cone.facets}"
    return None


def vol_value(cone: ConeInput, xi, value, normalized: bool) -> str | None:
    """vol or hvol at xi against the hull volume: equal for rational xi,
    within 1e-9 relative for float xi."""
    ref = oracle.tri_hvol(cone.gamma, cone.tri, xi) if normalized else oracle.tri_vol(cone.tri, xi)
    exact = isinstance(ref, Fraction)
    if (value != ref) if exact else not _rel(float(value), ref) <= REL:
        what = "hvol" if normalized else "vol"
        return f"{cone.name}: {what}({tuple(map(str, xi))}) = {value!r}, hull gives {ref!r}"
    return None


def scaling(fc, data, form, xi, value) -> str | None:
    """Exact hvol is invariant under xi -> lambda xi."""
    lam = Fraction(7, 3)
    again = fc.normalized_volume(data, form, tuple(lam * x for x in xi))
    if not isinstance(value, Fraction) or again != value:
        return f"{data.label}: hvol at 7/3 xi is {again}, at xi {value}"
    return None


def minimum(cone: ConeInput, res) -> str | None:
    """The minimum against the closed form where there is one, else against
    the hull hvol at the minimizer; and a vanishing slice gradient there."""
    if res.certificate != "converged":
        return f"{cone.name}: minimization ended with {res.certificate}"
    x = res.minimizer.as_floats()
    ref = cone.min_hvol if cone.min_hvol is not None else oracle.tri_hvol(cone.gamma, cone.tri, x)
    if not _rel(res.min_hvol, ref) <= REL:
        return f"{cone.name}: min hvol {res.min_hvol!r}, expected {ref!r}"
    g = oracle.relative_slice_gradient(cone.gamma, cone.tri, x)
    if g > 1e-7:  # far above float noise
        return f"{cone.name}: the relative slice gradient at the minimizer {x} is {g!r}"
    return None


def expected_semistable(cone: ConeInput, xi0) -> bool:
    """Whether the rational xi0 is the minimizer: exactly when the exact
    slice gradient of vol vanishes there."""
    return oracle.is_minimizer(cone.gamma, cone.tri, xi0)


def verdict(cone: ConeInput, xi0, v, expect_yes: bool | None = None) -> str | None:
    """"Yes" exactly at the minimizer; elsewhere "No" with a witness along
    which the exact hvol decreases.  Without ``expect_yes`` xi0 must be
    rational."""
    if expect_yes is None:
        expect_yes = expected_semistable(cone, xi0)
    if v.semistable != expect_yes:
        want = "Yes" if expect_yes else "No"
        return f"{cone.name}: verdict at {tuple(map(str, xi0))} is not {want}"
    if not expect_yes:
        if v.witness is None:
            return f"{cone.name}: verdict No without a witness"
        reason = oracle.witness_descends(cone.gamma, cone.tri, xi0, v.witness)
        if reason:
            return f"{cone.name}: {reason}"
    return None


def futaki_value(cone: ConeInput, xi, eta, fut: float) -> str | None:
    """Fut = [d/de hvol(xi - e eta)]_0 / (n A^{n-1} vol(xi))
           = -A(eta) - (A(xi) / n) D_eta vol(xi) / vol(xi), within 1e-9."""
    x = [float(v) for v in xi]
    gamma = [float(g) for g in cone.gamma]
    ref = -oracle.dot(gamma, eta) - oracle.dot(gamma, x) / cone.rank * (
        oracle.tri_directional(cone.tri, x, eta) / oracle.tri_vol(cone.tri, x))
    if abs(fut - ref) > REL * max(1.0, abs(ref)):
        return f"{cone.name}: Futaki {fut!r} along {tuple(eta)}, expected {ref!r}"
    return None


def character_values(pairings, ts, values, bound: float) -> str | None:
    """Character values against the box-scan sum over the pairings up to
    ``bound``: the truncation, or for the full series a bound past which
    the tail is far below the 1e-9 tolerance."""
    for t, got in zip(ts, values):
        ref = oracle.character_sum(pairings, t, bound)
        if not _rel(got, ref) <= REL:
            return f"F({t}) = {got!r} summed up to {bound}, box scan {ref!r}"
    return None


def leading(cone: ConeInput, xi, a0: float) -> str | None:
    """The extrapolated a0 against the hull vol, within the package's 1e-3."""
    ref = oracle.tri_vol(cone.tri, xi)
    if not _rel(a0, ref) <= 1e-3:
        return f"a0 = {a0!r}, hull vol {ref!r}"
    return None
