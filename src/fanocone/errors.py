"""Exception hierarchy shared across the package.

Every error carries a machine-readable ``code`` that the CLI emits in its
JSON error payload.
"""

from __future__ import annotations


class FanoConeError(Exception):
    """Base class for all validation and computation errors."""

    code = "error"


class NotPointed(FanoConeError):
    """The cone contains a line, so dual/triangulation routines do not apply."""

    code = "not-pointed"


class NotFullDim(FanoConeError):
    """The rays span a proper subspace of the ambient lattice."""

    code = "not-full-dim"


class DualTooLarge(FanoConeError):
    """The dual cone has more extreme rays than the desk-scale limit allows."""

    code = "dual-too-large"


class NotInReebCone(FanoConeError):
    """A vector required to be strictly interior to the Reeb cone is not."""

    code = "not-in-reeb-cone"


class NotQGorenstein(FanoConeError):
    """The boundary data admits no consistent Gorenstein covector."""

    code = "not-q-gorenstein"


class NotKlt(FanoConeError):
    """A boundary coefficient is >= 1, so the pair is not Kawamata log terminal."""

    code = "not-klt"


class NotPrimary(FanoConeError):
    """The monomial ideal is not primary to the maximal ideal."""

    code = "not-primary"


class ExtrapolationDiverged(FanoConeError):
    """The extrapolation table failed to contract to a stable limit."""

    code = "extrapolation-diverged"
