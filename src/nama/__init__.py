"""Toolkit for degeneration combinatorics and Monge-Ampere measures.

The package has three computational pillars and a thin driver:

* dual intersection complexes of snc degenerations, their essential
  skeletons, model functions and the atomic non-archimedean Monge-Ampere
  measure computed from intersection numbers (``skeleton``, ``potential``);
* real Monge-Ampere machinery: subgradient measures of convex piecewise
  linear functions, an Aleksandrov-style solver, and the comparison layer
  that matches the atomic measure against slope jumps, face densities and
  gradient matching conditions (``realma``, ``comparison``);
* metric-side checks: Monte Carlo pushforward of the Calabi-Yau measure on
  local models, semiflat and generalized Calabi volume identities, fiber
  calibration residuals (``hybrid``, ``forms``).

``cli`` exposes the same checks as deterministic subcommands.
"""

from .comparison import (CycleComparison, FaceMassTerm, FacePotential,
                         MassCheckReport, MatchingReport, ResidueData,
                         TransitionMap, cycle_model, cycle_table,
                         determinant, gradient_matching_residual,
                         lower_face_density, na_pde_residual,
                         total_mass_check, transition_between,
                         vilsmeier_check_1d)
from .convexgeom import box_simplex_volume
from .errors import (BadMultiplicity, CheckFailed, ConfigError,
                     DimensionMismatch, EmptySections, EmptySupport,
                     InconsistentDegrees, InfeasibleBoundary,
                     MassMismatch, MissingSubface, MissingTableEntry,
                     NonPositiveX, NotAdjacent, NotMaximal, NotPositive,
                     NotSemistable, NotSymmetric, ToolkitError)
from .forms import (CalabiReport, FiberFrame, HermitianForm, PhaseReport,
                    PotentialTriple, VolumeIdentityReport,
                    calabi_ode_residual, fiber_lagrangian_residual,
                    fiber_phase_residual, generalized_calabi_form,
                    pfaffian, power_law_potential,
                    real_antisymmetric_representation, semiflat_form,
                    standard_torus_frame, volume_identity_check)
from .hybrid import (DistanceReport, GrowthReport, LocalModel, MultiPoly,
                     SampleBatch, dyadic_cell_volumes, estimate_volume,
                     exact_flat_volume, ks_statistic, parse_poly,
                     pushforward_distance, sample_cy_measure,
                     volume_from_batch, volume_growth_exponent)
from .measures import AtomicMeasure
from .potential import (IntersectionTable, PLPotential, Section,
                        check_continuity, check_face_convexity,
                        model_function, na_ma_model_metric, nef_check,
                        stratum_class, tropical_fs_potential)
from .realma import (ConvexPL, Interval, MAMeasure, Polygon,
                     SolveResult, TargetMeasure, box_polygon,
                     discrete_slope_jumps, gradient_cells, ma_measure,
                     ma_measure_oracle, solve, strict_convexity_report)
from .skeleton import (Divisor, Face, Skeleton, SkeletonMeasure, SncModel,
                       build_model, essential_skeleton, lebesgue_measure,
                       monomial_valuation)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure", "BadMultiplicity", "CalabiReport",
    "CheckFailed", "ConfigError", "ConvexPL", "CycleComparison",
    "DimensionMismatch", "DistanceReport", "Divisor", "EmptySections",
    "EmptySupport", "Face", "FaceMassTerm", "FacePotential", "FiberFrame",
    "GrowthReport", "HermitianForm", "InconsistentDegrees",
    "InfeasibleBoundary", "IntersectionTable", "Interval", "LocalModel",
    "MAMeasure", "MassCheckReport", "MassMismatch", "MatchingReport",
    "MissingSubface", "MissingTableEntry", "MultiPoly", "NonPositiveX",
    "NotAdjacent", "NotMaximal", "NotPositive", "NotSemistable",
    "NotSymmetric", "PLPotential", "PhaseReport", "Polygon",
    "PotentialTriple", "ResidueData", "SampleBatch", "Section", "Skeleton",
    "SkeletonMeasure", "SncModel", "SolveResult", "TargetMeasure",
    "ToolkitError", "TransitionMap", "VolumeIdentityReport",
    "box_polygon", "box_simplex_volume", "build_model",
    "calabi_ode_residual", "check_continuity", "check_face_convexity",
    "cycle_model", "cycle_table", "determinant", "discrete_slope_jumps",
    "dyadic_cell_volumes", "essential_skeleton", "estimate_volume",
    "exact_flat_volume", "fiber_lagrangian_residual",
    "fiber_phase_residual", "generalized_calabi_form", "gradient_cells",
    "gradient_matching_residual", "ks_statistic", "lebesgue_measure",
    "lower_face_density", "ma_measure", "ma_measure_oracle",
    "model_function", "monomial_valuation", "na_ma_model_metric",
    "na_pde_residual", "nef_check", "parse_poly", "pfaffian",
    "power_law_potential", "pushforward_distance",
    "real_antisymmetric_representation", "sample_cy_measure",
    "semiflat_form", "solve", "standard_torus_frame", "stratum_class",
    "strict_convexity_report", "total_mass_check", "transition_between",
    "tropical_fs_potential", "vilsmeier_check_1d", "volume_from_batch",
    "volume_growth_exponent", "volume_identity_check",
]
