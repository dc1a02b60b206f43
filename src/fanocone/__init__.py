"""fanocone: K-semistability of toric Fano cone singularities.

The package decides K-semistability of a polarized toric cone singularity by
minimizing the normalized volume over the Reeb cone, evaluates Futaki
invariants of product test configurations, and ships desk-scale
checkers for the supporting identities (index-character asymptotics,
normalized multiplicities of monomial ideals, one-parameter-subgroup limit
composition).
"""

from .cones import (
    Cone,
    SimplicialDecomposition,
    contains,
    dual_cone,
    facet_normals,
    half_open_masks,
    parallelepiped_points,
    triangulate,
)
from .character import (
    CharacterSample,
    LeadingCoefficient,
    character_series,
    leading_coefficient,
    sample_character,
)
from .errors import (
    DualTooLarge,
    ExtrapolationDiverged,
    FanoConeError,
    NotFullDim,
    NotInReebCone,
    NotKlt,
    NotPointed,
    NotPrimary,
    NotQGorenstein,
)
from .futaki import (
    FutakiReport,
    futaki,
    t_normalize,
)
from .gittoy import (
    CompositionCheck,
    MuAdditivity,
    WeightedPoint,
    composed_equals_two_step,
    limit,
    min_composition_k,
    mu_additivity,
    mu_weight,
    two_step_limit,
)
from .ideals import (
    MonomialIdeal,
    ideal_power,
    lct,
    multiplicity,
    newton_facets,
    normalized_multiplicity,
)
from .singularity import (
    ReebVector,
    ToricConeData,
    gorenstein_vector,
    log_discrepancy,
    reeb,
)
from .volume import (
    KSemistabilityVerdict,
    MinimizationResult,
    VolumeForm,
    build_volume_form,
    is_ksemistable,
    minimize_volume,
    normalized_volume,
    scan_hvol,
    vol,
)

__version__ = "0.1.0"

__all__ = [
    "Cone", "SimplicialDecomposition", "contains", "dual_cone", "facet_normals",
    "half_open_masks", "parallelepiped_points", "triangulate",
    "CharacterSample", "LeadingCoefficient", "character_series", "leading_coefficient",
    "sample_character",
    "DualTooLarge", "ExtrapolationDiverged", "FanoConeError", "NotFullDim", "NotInReebCone",
    "NotKlt", "NotPointed", "NotPrimary", "NotQGorenstein",
    "FutakiReport", "futaki", "t_normalize",
    "CompositionCheck", "MuAdditivity", "WeightedPoint", "composed_equals_two_step", "limit",
    "min_composition_k", "mu_additivity", "mu_weight", "two_step_limit",
    "MonomialIdeal", "ideal_power", "lct", "multiplicity", "newton_facets",
    "normalized_multiplicity",
    "ReebVector", "ToricConeData", "gorenstein_vector", "log_discrepancy", "reeb",
    "KSemistabilityVerdict", "MinimizationResult", "VolumeForm", "build_volume_form",
    "is_ksemistable", "minimize_volume", "normalized_volume", "scan_hvol", "vol",
]
