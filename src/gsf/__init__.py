"""Exact direct-sum solutions of the polygon and simplex equations from
points of the Grassmannian of (n+1)-planes in (2n+1)-space.

Everything is computed over an exact field (rationals, prime fields, or
small extension fields), so every verification is an identity check, never a
numerical tolerance.
"""

from .combinatorics import (ColoringTrace, color_classes, color_positions,
                            complement, gon_factor_labels,
                            gon_inverse_factor_labels, gon_positions,
                            gon_sequences, propagate_gon_indices,
                            simplex_factor_labels, simplex_positions)
from .errors import (ConstructionError, InputError, ReductionError,
                     SamplingError, StructuralError)
from .field import (ExtensionField, Field, PrimeField, RationalField,
                    field_create, field_from_json)
from .exterior import Multivector, contract, span_rank, wedge
from .grassmann import (GrassmannPoint, PlueckerTable, as_table,
                        assumption_check, gf4_point, load_point, phi,
                        pluecker_table, point_from_json, point_to_json, psi,
                        random_point, save_point, verify_plucker_relations)
from .report import VerificationReport
from .solutions import (Construction, OperatorSlot, build_A, build_B,
                        build_R, build_Z, factored_r_matrix, gon_inverse_slot,
                        gon_slot, reduce_matrix, reduced_slot, simplex_slot)
from .verify import (CHECK_NAMES, embed, green_spectrum, run_checks,
                     side_product, verify_colors, verify_gon,
                     verify_intertwining, verify_ranks, verify_reduction,
                     verify_simplex)

__version__ = "0.1.0"

__all__ = [
    "ConstructionError", "InputError", "ReductionError", "SamplingError",
    "StructuralError",
    "Field", "RationalField", "PrimeField", "ExtensionField",
    "field_create", "field_from_json",
    "Multivector", "wedge", "contract", "span_rank",
    "complement", "gon_positions", "simplex_positions", "gon_sequences",
    "gon_factor_labels", "gon_inverse_factor_labels",
    "simplex_factor_labels", "propagate_gon_indices",
    "ColoringTrace", "color_positions", "color_classes",
    "PlueckerTable", "GrassmannPoint", "pluecker_table", "as_table",
    "random_point", "phi", "psi", "assumption_check",
    "verify_plucker_relations", "point_to_json", "point_from_json",
    "load_point", "save_point", "gf4_point",
    "Construction", "OperatorSlot", "build_A", "build_B", "build_R", "build_Z",
    "factored_r_matrix", "reduce_matrix", "gon_slot", "gon_inverse_slot",
    "simplex_slot", "reduced_slot",
    "VerificationReport",
    "CHECK_NAMES", "embed", "side_product", "run_checks", "verify_gon",
    "verify_simplex", "verify_colors", "green_spectrum",
    "verify_intertwining", "verify_ranks", "verify_reduction",
]
