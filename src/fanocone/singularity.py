"""Input model for a polarized toric cone singularity with boundary.

A singularity is described by a pointed full-dimensional cone ``sigma`` in
the co-weight lattice together with rational boundary coefficients c_i in
[0, 1), one per ray (the boundary divisor is the matching combination of the
invariant divisors).  Validation solves the Gorenstein system

    <gamma, v_i> = 1 - c_i   for every ray v_i of sigma,

whose solution ``gamma`` turns the log discrepancy of the toric valuation
attached to an interior vector xi into the single pairing <gamma, xi>.

The Reeb cone of the coordinate ring's weight semigroup coincides with the
interior of ``sigma``; Reeb vectors are therefore strictly interior points,
stored either with exact rational or floating coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .cones import Cone, contains, facet_normals
from .errors import NotInReebCone, NotKlt, NotQGorenstein
from .linalg import Vec, dot, frac, fracvec, solve

Coords = tuple[Fraction, ...] | tuple[float, ...]


@dataclass(frozen=True)
class ReebVector:
    """A point of the Reeb cone; ``exact`` records whether the coordinates
    are exact rationals or floats."""

    coords: Coords
    exact: bool

    def __post_init__(self) -> None:
        if not self.coords:
            raise ValueError("empty coordinate vector")
        if self.exact and not all(isinstance(x, (int, Fraction)) for x in self.coords):
            raise ValueError("exact ReebVector requires rational coordinates")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(x) for x in self.coords)


def reeb(values: Sequence) -> ReebVector:
    """Build a ReebVector, inferring exactness from the entry types.

    Ints, Fractions and 'p/q' strings stay exact; any float makes the whole
    vector floating.
    """
    if isinstance(values, ReebVector):
        return values
    vals = list(values)
    if any(isinstance(x, float) for x in vals):
        return ReebVector(coords=tuple(float(x) for x in vals), exact=False)
    return ReebVector(coords=fracvec(vals), exact=True)


def coords_of(xi) -> Coords:
    """Accept a ReebVector or a bare coordinate sequence."""
    if isinstance(xi, ReebVector):
        return xi.coords
    return reeb(xi).coords


@dataclass(frozen=True)
class ToricConeData:
    """The triple (cone, boundary coefficients, label).

    ``boundary`` is aligned with the canonical (sorted) ray order of
    ``sigma``; use :meth:`make` or :meth:`from_dict` to supply rays and
    coefficients in any matching order.
    """

    sigma: Cone
    boundary: tuple[Fraction, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.boundary) != len(self.sigma.rays):
            raise ValueError(
                f"{len(self.boundary)} boundary coefficients for "
                f"{len(self.sigma.rays)} rays"
            )
        object.__setattr__(self, "boundary", fracvec(self.boundary))
        for c in self.boundary:
            if c < 0:
                raise ValueError(f"boundary coefficient {c} is negative")

    @property
    def rank(self) -> int:
        return self.sigma.rank

    @classmethod
    def make(cls, rank: int, rays, boundary=None, label: str = "") -> "ToricConeData":
        """Pair rays with boundary coefficients before canonicalization, so
        the caller's ray order determines which coefficient goes where."""
        from .linalg import primitive

        ray_list = [tuple(int(x) for x in r) for r in rays]
        if boundary is None:
            boundary = [0] * len(ray_list)
        if len(boundary) != len(ray_list):
            raise ValueError(f"{len(boundary)} coefficients for {len(ray_list)} rays")
        paired: dict[tuple[int, ...], Fraction] = {}
        for r, c in zip(ray_list, boundary):
            p = primitive(r)
            cf = frac(c)
            if p in paired and paired[p] != cf:
                raise ValueError(f"conflicting boundary coefficients on ray {p}")
            paired[p] = cf
        cone = Cone(rank=rank, rays=tuple(paired))
        return cls(sigma=cone, boundary=tuple(paired[r] for r in cone.rays), label=label)

    @classmethod
    def from_dict(cls, obj: dict) -> "ToricConeData":
        return cls.make(
            rank=int(obj["rank"]),
            rays=obj["rays"],
            boundary=obj.get("boundary"),
            label=str(obj.get("label", "")),
        )

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "rays": [list(r) for r in self.sigma.rays],
            "boundary": [_rat_str(c) for c in self.boundary],
            "label": self.label,
        }


def _rat_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _coords_str(c: Coords) -> str:
    """Exact coordinates as '(1, 1/2)'; float coordinates as their repr."""
    return "(" + ", ".join(map(_rat_str, c)) + ")" if isinstance(c[0], Fraction) else str(c)


@lru_cache(maxsize=16)
def gorenstein_vector(data: ToricConeData) -> Vec:
    """Validate the singularity data and return the Gorenstein covector.

    Checks, in order: boundary coefficients below 1 (klt), sigma pointed and
    full-dimensional, and consistency of the linear system
    ``<gamma, v_i> = 1 - c_i``.  The solution is automatically positive on
    the cone since every ray pairing 1 - c_i is positive.
    """
    for c in data.boundary:
        if c >= 1:
            raise NotKlt(f"boundary coefficient {c} >= 1")
    facet_normals(data.sigma)  # raises NotPointed / NotFullDim
    rhs = [Fraction(1) - c for c in data.boundary]
    gamma = solve(data.sigma.rays, rhs)
    if gamma is None:
        raise NotQGorenstein("the Gorenstein system <gamma, v_i> = 1 - c_i is inconsistent")
    # Consistency re-check (solve() already guarantees it; cheap belt and braces).
    for ray, target in zip(data.sigma.rays, rhs):
        assert dot(gamma, ray) == target
    return gamma


def log_discrepancy(data: ToricConeData, xi):
    """Log discrepancy <gamma, xi> of the toric valuation of an interior xi.

    Exact when xi is exact; linear in xi.
    """
    c = coords_of(xi)
    if not contains(data.sigma, c, strict=True):
        raise NotInReebCone(f"{_coords_str(c)} is not strictly interior to sigma")
    return dot(gorenstein_vector(data), c)
