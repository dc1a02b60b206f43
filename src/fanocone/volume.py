"""Closed-form volume of Reeb vectors, its minimization, and the verdict.

The volume of an interior vector xi is the normalized leading coefficient of
the lattice-point count of the dual cone:

    vol(xi) = lim_k  #{alpha in dual(sigma) cap M : <alpha, xi> <= k} * n! / k^n.

Triangulating the dual cone into simplicial subcones with primitive
generators u_{s,1..n} and index det_s turns this limit into the finite sum

    vol(xi) = sum_s det_s / prod_j <u_{s,j}, xi>,

which is exact for rational xi.  One evaluator, :func:`vol`, returns the
value and, on request, the gradient and Hessian from the same pairings
<u_{s,j}, xi>.  The normalized volume A(xi)^n * vol(xi) is invariant under
rescaling xi, so its minimization is carried out on the affine slice
{A(xi) = n}, where the objective is smooth and strictly convex and a damped
Newton iteration converges quadratically.  The iteration runs in plain
floats: the slice has dimension at most 5, so a square-root-free Cholesky
elimination solves each Newton system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .cones import SimplicialDecomposition, dual_cone, triangulate
from .errors import NotInReebCone
from .linalg import dot, nullspace
from .singularity import (
    ReebVector,
    ToricConeData,
    _coords_str,
    coords_of,
    gorenstein_vector,
    log_discrepancy,
    reeb,
)

CONVERGED = "converged"
MAX_ITERS = "max-iters"
BOUNDARY_ESCAPE = "boundary-escape"


@dataclass(frozen=True)
class VolumeForm:
    """vol as a sum of reciprocal products of linear forms.

    ``terms`` pairs each simplex determinant with the primitive generators of
    the simplex (linear factors); ``dual_rays`` is the full extreme-ray set of
    the dual cone, used for strict Reeb-cone membership tests.
    """

    rank: int
    terms: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]
    dual_rays: tuple[tuple[int, ...], ...]
    decomposition: SimplicialDecomposition

    def __hash__(self) -> int:
        return hash((self.rank, self.terms))


@lru_cache(maxsize=16)
def build_volume_form(data: ToricConeData) -> VolumeForm:
    """Triangulate the dual cone of sigma and assemble the closed form."""
    gorenstein_vector(data)  # full validation of the input
    dual = dual_cone(data.sigma)
    dec = triangulate(dual)
    terms = tuple(
        (int(d), dec.simplex_rays(k)) for k, d in enumerate(dec.dets)
    )
    return VolumeForm(rank=data.rank, terms=terms, dual_rays=dual.rays, decomposition=dec)


def _check_interior(form: VolumeForm, xi: Sequence) -> None:
    for u in form.dual_rays:
        if dot(u, xi) <= 0:
            raise NotInReebCone(f"linear factor <{u}, xi> is nonpositive at xi={_coords_str(xi)}")


def vol(form: VolumeForm, xi, order: int = 0):
    """vol(xi), with its gradient for ``order=1`` and also its Hessian for
    ``order=2``: returns ``v``, ``(v, g)`` or ``(v, g, H)``.

    Exact Fractions for exact xi, floats otherwise.  With the pairings
    p_j = <u_j, xi> of a simplex s and its term vol_s = det_s / prod_j p_j,

        d_k vol  = -sum_s vol_s * sum_j u_jk / p_j,
        d_kl vol =  sum_s vol_s * (S_k S_l + sum_j u_jk u_jl / p_j^2),

    where S_k = sum_j u_jk / p_j.  The Hessian is positive definite
    transverse to the scaling ray.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, not {order!r}")
    xi = reeb(xi)
    c, exact = xi.coords, xi.exact
    _check_interior(form, c)
    n = form.rank
    if exact:
        # vol is homogeneous of degree -n: evaluate at the integer multiple
        # D * xi, where every pairing is an int, and scale back by D^(n+order)
        scale = math.lcm(*(x.denominator for x in c))
        c = tuple(int(x * scale) for x in c)
    if order == 0:
        total = 0
        for d, factors in form.terms:
            prod = 1
            for u in factors:
                prod *= dot(u, c)
            total += Fraction(d, prod) if exact else d / prod
        return total * scale**n if exact else total
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    v = zero
    g = [zero] * n
    h = [[zero] * n for _ in range(n)] if order == 2 else None
    for d, factors in form.terms:
        pair = [dot(u, c) for u in factors]
        prod = 1
        for p in pair:
            prod *= p
        vs = Fraction(d, prod) if exact else d / prod
        v += vs
        for u, p in zip(factors, pair):
            w = vs / p
            for k in range(n):
                if u[k]:
                    g[k] -= w * u[k]
        if h is None:
            continue
        s = [zero] * n
        for u, p in zip(factors, pair):
            q = one / p
            wq = vs * q * q
            nz = [k for k in range(n) if u[k]]
            for i, k in enumerate(nz):
                s[k] += u[k] * q
                a = wq * u[k]
                row = h[k]
                for l in nz[i:]:
                    row[l] += a * u[l]
        for k in range(n):
            if s[k]:
                a = vs * s[k]
                row = h[k]
                for l in range(k, n):
                    row[l] += a * s[l]
    if exact:
        v *= scale**n
        g = [x * scale ** (n + 1) for x in g]
    if h is None:
        return v, tuple(g)
    hscale = scale ** (n + 2) if exact else 1.0
    for k in range(n):
        for l in range(k):
            h[k][l] = h[l][k]
    return v, tuple(g), tuple(tuple(x * hscale for x in row) for row in h)


def normalized_volume(data: ToricConeData, form: VolumeForm, xi):
    """A(xi)^n * vol(xi); invariant under xi -> lambda * xi."""
    a = log_discrepancy(data, xi)
    return a ** form.rank * vol(form, xi)


@dataclass(frozen=True)
class MinimizationResult:
    minimizer: ReebVector
    min_hvol: float
    grad_norm: float
    newton_iters: int
    certificate: str

    def to_dict(self) -> dict:
        return {
            "minimizer": list(self.minimizer.as_floats()),
            "min_hvol": self.min_hvol,
            "grad_norm": self.grad_norm,
            "newton_iters": self.newton_iters,
            "certificate": self.certificate,
        }


def _solve_positive_definite(a: list[list[float]], b: list[float]) -> list[float] | None:
    """Solve a x = b for a symmetric matrix a by elimination without
    pivoting (square-root-free Cholesky, a = L D L^T); None unless every
    pivot D_kk is positive, that is unless a is positive definite."""
    m = len(b)
    rows = [row + [bk] for row, bk in zip(a, b)]
    for k in range(m):
        if not rows[k][k] > 0:
            return None
        for i in range(k + 1, m):
            f = rows[i][k] / rows[k][k]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    x = [0.0] * m
    for k in reversed(range(m)):
        x[k] = (rows[k][m] - sum(rows[k][j] * x[j] for j in range(k + 1, m))) / rows[k][k]
    return x


def _interior_start(data: ToricConeData) -> list[float]:
    """Slice-normalized sum of the primal rays; always strictly interior."""
    n = data.rank
    s = [Fraction(sum(r[k] for r in data.sigma.rays)) for k in range(n)]
    a = dot(gorenstein_vector(data), s)
    return [float(n * x / a) for x in s]


def minimize_volume(
    data: ToricConeData,
    form: VolumeForm | None = None,
    *,
    tol: float = 1e-10,
    max_iters: int = 200,
    barrier_margin: float = 1e-9,
    armijo: float = 1e-4,
) -> MinimizationResult:
    """Minimize vol over the slice {A(xi) = n} by damped Newton iteration.

    The objective blows up at the cone boundary, so a backtracking line
    search that refuses steps closer than ``barrier_margin`` to a facet is
    enough; no barrier term is added.  By strict convexity the minimizer is
    unique, and min_hvol = n^n * vol(minimizer) is the minimal normalized
    volume.  Certificates are honest: ``max-iters`` and ``boundary-escape``
    are reported rather than papered over.

    The iteration works on vol scaled by its value at the starting point, so
    the gradient tolerance is scale-free; ``grad_norm`` reports the norm of
    the scaled gradient projected onto the slice, g - (<gamma, g> /
    <gamma, gamma>) gamma.
    """
    if max_iters < 0 or not tol >= 0:
        raise ValueError(f"max_iters and tol must be non-negative (got {max_iters}, {tol})")
    if form is None:
        form = build_volume_form(data)
    n = data.rank
    gamma = [float(c) for c in gorenstein_vector(data)]
    gamma_sq = dot(gamma, gamma)
    basis = [[float(c) for c in z] for z in nullspace([gorenstein_vector(data)])]
    rays = [(u, math.hypot(*u)) for u in form.dual_rays]

    def distance_to_boundary(p: list[float]) -> float:
        return min(dot(u, p) / norm for u, norm in rays)

    x = _interior_start(data)
    v_start = vol(form, x)
    fx = 1.0
    iters = 0
    grad_norm = float("inf")
    certificate = MAX_ITERS
    for iters in range(max_iters + 1):
        g = [gk / v_start for gk in vol(form, x, 1)[1]]
        along = dot(gamma, g) / gamma_sq
        descent = [along * c - gk for c, gk in zip(gamma, g)]  # -(projected g)
        grad_norm = math.hypot(*descent)
        if grad_norm <= tol:
            certificate = CONVERGED
            break
        if distance_to_boundary(x) < barrier_margin:
            certificate = BOUNDARY_ESCAPE
            break
        hess = vol(form, x, 2)[2]
        hz = [[dot(row, z) / v_start for row in hess] for z in basis]
        delta = _solve_positive_definite(
            [[dot(zi, hzj) for hzj in hz] for zi in basis], [-dot(z, g) for z in basis]
        )
        d = descent
        if delta is not None:
            newton = [sum(dk * z[k] for dk, z in zip(delta, basis)) for k in range(n)]
            if dot(g, newton) < 0:
                d = newton
        slope = dot(g, d)
        # Once the predicted decrease is far below the float noise of vol,
        # the sufficient-decrease test compares rounding errors and would
        # reject a correct step, so the full step is taken.
        flat = -slope <= 1e-12 * max(1.0, abs(fx))
        step = 1.0
        accepted = False
        for _ in range(80):
            cand = [a + step * b for a, b in zip(x, d)]
            if distance_to_boundary(cand) <= barrier_margin:
                step *= 0.5
                continue
            f_cand = vol(form, cand) / v_start
            # small absolute slack keeps the final Newton steps acceptable
            # once the decrease reaches the float64 plateau
            if flat or f_cand <= fx + armijo * step * slope + 1e-15 * max(1.0, abs(fx)):
                x, fx = cand, f_cand
                accepted = True
                break
            step *= 0.5
        if not accepted:
            certificate = BOUNDARY_ESCAPE if distance_to_boundary(x) < 10 * barrier_margin else MAX_ITERS
            break
    min_hvol = float(n) ** n * fx * v_start
    return MinimizationResult(
        minimizer=ReebVector(coords=tuple(x), exact=False),
        min_hvol=min_hvol,
        grad_norm=grad_norm,
        newton_iters=iters,
        certificate=certificate,
    )


@dataclass(frozen=True)
class KSemistabilityVerdict:
    semistable: bool
    distance: float
    minimizer: ReebVector
    min_hvol: float
    witness: tuple[float, ...] | None

    def to_dict(self) -> dict:
        return {
            "verdict": "Yes" if self.semistable else "No",
            "distance": self.distance,
            "minimizer": list(self.minimizer.as_floats()),
            "min_hvol": self.min_hvol,
            "witness": None if self.witness is None else list(self.witness),
        }


def is_ksemistable(
    data: ToricConeData,
    xi0,
    tol: float = 1e-6,
    *,
    form: VolumeForm | None = None,
) -> KSemistabilityVerdict:
    """Decide whether the polarization xi0 minimizes the normalized volume.

    xi0 and the computed minimizer are compared after normalizing both to the
    slice {A = 1}.  On failure the returned witness is the direction eta with
    A(eta) = 0 along which the degeneration xi0 - eps * eta decreases the
    normalized volume, i.e. the Futaki invariant of the matching product test
    configuration is negative.
    """
    if form is None:
        form = build_volume_form(data)
    n = data.rank
    a0 = float(log_discrepancy(data, xi0))
    res = minimize_volume(data, form)
    diff = [float(x) / a0 - y / n for x, y in zip(coords_of(xi0), res.minimizer.coords)]
    distance = max(abs(v) for v in diff)
    if distance <= tol:
        return KSemistabilityVerdict(
            semistable=True,
            distance=distance,
            minimizer=res.minimizer,
            min_hvol=res.min_hvol,
            witness=None,
        )
    witness = tuple(n * v for v in diff)
    return KSemistabilityVerdict(
        semistable=False,
        distance=distance,
        minimizer=res.minimizer,
        min_hvol=res.min_hvol,
        witness=witness,
    )


def scan_hvol(
    data: ToricConeData,
    form: VolumeForm,
    start: Sequence,
    end: Sequence,
    steps: int = 100,
) -> list[tuple[float, float]]:
    """Sample the normalized volume along the segment from start to end.

    Returns (t, hvol) pairs for t on a uniform grid over [0, 1]; both
    endpoints must be interior.
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1 (got {steps})")
    a = [float(x) for x in coords_of(start)]
    b = [float(x) for x in coords_of(end)]
    out = []
    for i in range(steps + 1):
        t = i / steps
        p = tuple((1 - t) * x + t * y for x, y in zip(a, b))
        out.append((t, float(normalized_volume(data, form, p))))
    return out
