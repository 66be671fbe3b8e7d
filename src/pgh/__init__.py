"""Finite p-group computation toolkit: polycyclic presentations, Schur
multipliers via covering-group tails, stem covers, capability, and
verification of multiplier order bounds and their attainers."""

from .capability import (epicenter, epicenter_crosscheck, exterior_pair,
                         is_capable)
from .catalog import (FamilyParameterError, PresentationFormatError, load,
                      make, parse, serialize, small_group_table)
from .homology import (ExactSequenceReport, StemCover, TailsSystem,
                       WedgeInequalityReport, abelian_multiplier, be_sequence,
                       exterior_square_order, psi2_image, psi3_image,
                       schur_multiplier, stem_cover, tails_system,
                       tensor_abelian, thm25_check)
from .pcp import (AbelianType, PcPresentation, StructureStats, Subgroup,
                  abelian_invariants, abelianization_type, center,
                  derived_subgroup, direct_product, frattini_subgroup,
                  lower_central_series, nilpotency_class, quotient,
                  structure_stats, subgroup_closure)
from .snf import smith_normal_form
from .verify import (CheckResult, GroupReport, QuotientAttainmentReport,
                     SweepReport, bounds, check_attainer_conditions,
                     check_quotient_attainment, family_match, report,
                     sweep_classification)

__version__ = "1.0.0"

__all__ = [
    "AbelianType", "CheckResult", "ExactSequenceReport",
    "FamilyParameterError", "GroupReport", "PcPresentation",
    "PresentationFormatError", "QuotientAttainmentReport", "StemCover",
    "StructureStats", "Subgroup", "SweepReport", "TailsSystem",
    "WedgeInequalityReport", "abelian_invariants", "abelian_multiplier",
    "abelianization_type", "be_sequence", "bounds", "center",
    "check_attainer_conditions", "check_quotient_attainment",
    "derived_subgroup", "direct_product", "epicenter",
    "epicenter_crosscheck", "exterior_pair", "exterior_square_order",
    "family_match", "frattini_subgroup", "is_capable", "load",
    "lower_central_series", "make", "nilpotency_class", "parse",
    "psi2_image", "psi3_image", "quotient", "report", "schur_multiplier",
    "serialize", "small_group_table", "smith_normal_form", "stem_cover",
    "structure_stats", "subgroup_closure", "sweep_classification",
    "tails_system", "tensor_abelian", "thm25_check",
]
