"""laps: irreducibility checks for locally analytic principal series.

The decision path runs through highest weight module combinatorics: build
a root system, evaluate the simplicity criterion on the induced character,
and (optionally) confirm with a brute-force singular-vector search whose
structure constants follow from the Cartan matrix alone. Side layers cover parabolic double cosets,
root partitions, and exact p-adic norm arithmetic on commutative models.
"""

__version__ = "0.1.0"

from .errors import ConfigError, LapsError, ResourceLimitError
from .lie import realize
from .padic import (DistSeries, MahlerSeries, PValuationSpec, RNormParam,
                    canonical_valuation, dist_multiply, dist_series,
                    mahler_coefficients, mahler_evaluate, p_valuation_of_word,
                    r_norm, rational_valuation)
from .parahoric import (DoubleCosetDecomposition, ParabolicType, WeylElement,
                        build_weyl_group, double_cosets,
                        iwahori_root_partition, weyl_element)
from .roots import (GENERIC, Root, RootSystem, Weight, build_root_system,
                    half_sum_positive_roots, pair_with_coroot, weight,
                    weight_of_root)
from .verma import (ALL_POSITIVE, DELTA_ONLY, CharacterSpec, CriterionReport,
                    OracleReport, PBWVector, RestrictionReport, VermaModule,
                    act_generator, bgg_criterion, character_spec,
                    character_weight, gl2_character_criterion,
                    restriction_of_scalars_check, simplicity_oracle,
                    singular_vectors, verma_module, weight_space_basis)

__all__ = [
    "__version__",
    "ConfigError", "LapsError", "ResourceLimitError", "realize",
    "DistSeries", "MahlerSeries", "PValuationSpec", "RNormParam",
    "canonical_valuation", "dist_multiply", "dist_series",
    "mahler_coefficients", "mahler_evaluate", "p_valuation_of_word",
    "r_norm", "rational_valuation",
    "DoubleCosetDecomposition", "ParabolicType", "WeylElement",
    "build_weyl_group", "double_cosets", "iwahori_root_partition",
    "weyl_element",
    "GENERIC", "Root", "RootSystem", "Weight", "build_root_system",
    "half_sum_positive_roots", "pair_with_coroot", "weight", "weight_of_root",
    "ALL_POSITIVE", "DELTA_ONLY", "CharacterSpec", "CriterionReport",
    "OracleReport", "PBWVector", "RestrictionReport", "VermaModule",
    "act_generator", "bgg_criterion", "character_spec", "character_weight",
    "gl2_character_criterion", "restriction_of_scalars_check",
    "simplicity_oracle", "singular_vectors", "verma_module",
    "weight_space_basis",
]
