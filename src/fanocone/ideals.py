"""Newton-polyhedron multiplicity and log canonical threshold of monomial
ideals, as an exact desk-scale oracle for the normalized-multiplicity bound.

For a monomial ideal primary to the maximal ideal, the Newton polyhedron
P = conv(generators) + R^n_{>=0} determines both invariants exactly through
its bounded facets <w, x> >= c, which the double description finds as the
dual rays (w, -c), w > 0 and c > 0, of the homogenized cone over P:

* multiplicity = n! * volume of the bounded region between the coordinate
  orthant and P (computed by triangulating the pyramid over each bounded
  facet of P from the origin);
* lct = max{c : (1,...,1) in c * P} = min over facets <w, 1> / c_w.

Their combination mult * lct^n is invariant under replacing the ideal by its
powers and is bounded below by n^n, the normalized volume of the smooth
point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cones import MAX_RANK, MAX_RAYS, Cone, extreme_rays, triangulate
from .errors import NotPrimary
from .linalg import dot, int_det, primitive


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by generator exponent vectors in Z^n_{>=0}."""

    nvars: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.nvars < 1:
            raise ValueError("nvars must be positive")
        if self.nvars > MAX_RANK:  # multiplicity() builds cones of rank nvars
            raise ValueError(f"desk-scale limits exceeded (rank <= {MAX_RANK}, rays <= {MAX_RAYS})")
        gens = sorted({tuple(int(x) for x in g) for g in self.generators})
        if not gens:
            raise ValueError("at least one generator is required")
        for g in gens:
            if len(g) != self.nvars:
                raise ValueError(f"generator {g} does not have {self.nvars} entries")
            if any(x < 0 for x in g):
                raise ValueError(f"generator {g} has a negative exponent")
            if not any(g):
                raise ValueError("the unit ideal (generator 0) is not allowed")
        object.__setattr__(self, "generators", tuple(gens))

    @classmethod
    def from_dict(cls, obj: dict) -> "MonomialIdeal":
        return cls(nvars=int(obj["n"]), generators=tuple(tuple(int(x) for x in g) for g in obj["generators"]))

    def to_dict(self) -> dict:
        return {"n": self.nvars, "generators": [list(g) for g in self.generators]}


def check_primary(ideal: MonomialIdeal) -> None:
    """Primary to the maximal ideal iff a pure power of every variable is
    among the generators."""
    for i in range(ideal.nvars):
        if not any(g[i] > 0 and all(x == 0 for j, x in enumerate(g) if j != i) for g in ideal.generators):
            raise NotPrimary(f"no pure power of variable {i} among the generators")


@lru_cache(maxsize=512)
def newton_facets(ideal: MonomialIdeal) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Bounded facets of the Newton polyhedron as (inner normal, offset).

    Each facet satisfies <w, x> >= c on P with w strictly positive (primary
    ideals admit no bounded facet with a zero normal entry) and c > 0.  They
    are the dual rays (w, -c) of the homogenized cone over (g, 1) for each
    generator g and (e_i, 0) for each variable, taken from ``extreme_rays``
    directly because its rank n + 1 may exceed the ``Cone`` limit MAX_RANK.
    """
    check_primary(ideal)
    n = ideal.nvars
    constraints = [g + (1,) for g in ideal.generators]
    constraints += [tuple(int(j == i) for j in range(n + 1)) for i in range(n)]
    return tuple(
        (r[:n], -r[n]) for r in extreme_rays(constraints, n + 1)
        if r[n] < 0 and all(x > 0 for x in r[:n])
    )


@lru_cache(maxsize=512)
def multiplicity(ideal: MonomialIdeal) -> Fraction:
    """Samuel multiplicity: n! times the covolume of the Newton polyhedron.

    The complement of P inside the orthant is star-shaped around the origin
    and its boundary at positive pairing is the union of the bounded facets,
    so the covolume is the sum of the pyramid volumes over those facets;
    each pyramid is triangulated through the cone machinery and its volume
    read off the vertex determinants.
    """
    n = ideal.nvars
    total = 0
    for w, c in newton_facets(ideal):
        verts = [g for g in ideal.generators if dot(w, g) == c]
        key = {primitive(v): v for v in verts}
        cone = Cone(rank=n, rays=tuple(key))
        dec = triangulate(cone)
        for s in dec.simplices:
            total += abs(int_det([key[cone.rays[i]] for i in s]))
    return Fraction(total)


@lru_cache(maxsize=512)
def lct(ideal: MonomialIdeal) -> Fraction:
    """Log canonical threshold: the largest c with (1,...,1) in c * P."""
    return min(Fraction(sum(w), c) for w, c in newton_facets(ideal))


def normalized_multiplicity(ideal: MonomialIdeal) -> Fraction:
    """multiplicity * lct^n; at least n^n, with equality for the maximal ideal."""
    return multiplicity(ideal) * lct(ideal) ** ideal.nvars


def ideal_power(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    """The k-th power, generated by all k-fold sums of generators."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    gens = set()
    for combo in itertools.combinations_with_replacement(ideal.generators, k):
        gens.add(tuple(sum(xs) for xs in zip(*combo)))
    return MonomialIdeal(nvars=ideal.nvars, generators=tuple(gens))
