"""Exact linear algebra: rank, kernel and solve on tuples of Fractions, and
integer matrices (determinant, adjugate in place of an inverse) in Python ints.

Everything here is dense and small (rank <= 6, tens of rows), so the
routines favor exactness and clarity over asymptotics.  Floats never enter;
callers that want floating point convert afterwards.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Rat = int | Fraction
Vec = tuple[Fraction, ...]


def frac(x: Rat | str) -> Fraction:
    """Parse an exact rational from an int, Fraction or a 'p/q' string."""
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"not an exact rational: {x!r}")


def fracvec(xs: Sequence[Rat | str]) -> Vec:
    return tuple(frac(x) for x in xs)


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def vec_sub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u: Sequence) -> tuple:
    return tuple(c * a for a in u)


def primitive(v: Sequence[Rat]) -> tuple[int, ...]:
    """Scale a nonzero rational vector by a positive constant to a primitive
    integer vector (entries coprime).  Direction is preserved."""
    fv = [Fraction(x) for x in v]
    if all(x == 0 for x in fv):
        raise ValueError("zero vector has no primitive representative")
    denom_lcm = 1
    for x in fv:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in fv]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix via fraction-free (Bareiss)
    elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, r)) for r in rows]
    if any(len(r) != n for r in m):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def int_adjugate(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """Determinant and adjugate of a nonsingular square integer matrix, so
    that ``A adj = adj A = det I``, by fraction-free Gauss-Jordan (Bareiss)
    elimination of ``[A | I]``: every intermediate entry is a minor, so each
    division is exact and everything stays in Python ints."""
    n = len(rows)
    m = [list(map(int, r)) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    if any(len(r) != 2 * n for r in m):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        mk = m[k]
        pk = mk[k]
        for i in range(n):
            if i == k:
                continue
            mi = m[i]
            f = mi[k]
            m[i] = [(pk * a - f * b) // prev for a, b in zip(mi, mk)]
        prev = pk
    # the left block is now prev * I with prev = sign * det, and the right
    # block is prev * A^-1 = sign * adj(A)
    return sign * prev, [[sign * x for x in r[n:]] for r in m]


def _echelon(rows: Sequence[Sequence[Rat]]) -> tuple[list[list[Fraction]], list[int]]:
    """Row-reduce to reduced echelon form; returns (matrix, pivot columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: Sequence[Sequence[Rat]]) -> int:
    return len(_echelon(rows)[1])


def solve(rows: Sequence[Sequence[Rat]], rhs: Sequence[Rat]) -> Vec | None:
    """Solve A x = b exactly.  Returns one solution (free variables set to 0)
    or None when the system is inconsistent."""
    if len(rows) != len(rhs):
        raise ValueError("rhs length mismatch")
    if not rows:
        return ()
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    m, pivots = _echelon(aug)
    if ncols in pivots:  # pivot in the augmented column
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = m[i][ncols]
    return tuple(x)


def nullspace(rows: Sequence[Sequence[Rat]]) -> list[Vec]:
    """Exact basis of the kernel of A (rows are the constraints)."""
    if not rows:
        return []
    ncols = len(rows[0])
    m, pivots = _echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -m[i][f]
        basis.append(tuple(v))
    return basis
