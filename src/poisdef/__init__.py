"""Exact deformations of Poisson structures from weighted-homogeneous
potentials on polynomial algebras in three variables.

The package computes, over the rationals and without any floating-point
arithmetic:

* Milnor data of the potential's singular point (``singularity``),
* the Schouten calculus of polynomial multivector fields and the
  potential's coboundary operator (``multivec``),
* explicit bases of the coboundary cohomology in every degree and exact
  projection / preimage solvers (``cohomology``),
* the transferred bracket hierarchy on cohomology together with its
  homotopies, obstructions, and consistency equations (``linfty``),
* truncated formal deformations of the structure bivector, their
  Maurer-Cartan checks, and gauge actions (``deform``),
* seeded exact verification suites and a JSON-reporting command line
  (``suites``, ``cli``).
"""

from .algebra import (
    Poly,
    PolyParseError,
    WeightInferenceError,
    WeightSystem,
    infer_weights,
    monomials_of_weight,
    parse_poly,
    poly_str,
)
from .cohomology import (
    BasisLabel,
    CohClass,
    CohomologyError,
    NotACoboundaryError,
    NotACocycleError,
    a_index_range,
    class_str,
    enumerate_basis,
    f1,
    label_weight,
    labels_of_weight,
    parse_label,
    project,
    realize,
    solve_coboundary,
    validate_label,
)
from .deform import (
    CoeffFamily,
    InvalidFamilyError,
    NuSeries,
    build_deformation,
    first_order_class,
    gamma_classes,
    gauge_apply,
    gauge_special,
    jacobi_residual,
    mc_image,
)
from .linfty import (
    ArityCapExceededError,
    TransferState,
    compute_T,
    koszul_chi,
)
from .multivec import (
    MultiVec,
    coboundary,
    coordinate_volume,
    euler_field,
    multivec_str,
    poisson_from_potential,
    schouten,
)
from .singularity import (
    NotIsolatedError,
    SingularityData,
    SingularityError,
    milnor_basis,
)
from .suites import (
    SUITE_NAMES,
    SuiteConfig,
    all_basis_labels,
    run_suite,
    run_suites,
)

__version__ = "0.1.0"

__all__ = [
    "ArityCapExceededError",
    "BasisLabel",
    "CohClass",
    "CohomologyError",
    "CoeffFamily",
    "InvalidFamilyError",
    "MultiVec",
    "NotACoboundaryError",
    "NotACocycleError",
    "NotIsolatedError",
    "NuSeries",
    "Poly",
    "PolyParseError",
    "SUITE_NAMES",
    "SingularityData",
    "SingularityError",
    "SuiteConfig",
    "TransferState",
    "WeightInferenceError",
    "WeightSystem",
    "a_index_range",
    "all_basis_labels",
    "build_deformation",
    "class_str",
    "coboundary",
    "compute_T",
    "coordinate_volume",
    "enumerate_basis",
    "euler_field",
    "f1",
    "first_order_class",
    "gamma_classes",
    "gauge_apply",
    "gauge_special",
    "infer_weights",
    "jacobi_residual",
    "koszul_chi",
    "label_weight",
    "labels_of_weight",
    "mc_image",
    "milnor_basis",
    "monomials_of_weight",
    "multivec_str",
    "parse_label",
    "parse_poly",
    "poisson_from_potential",
    "poly_str",
    "project",
    "realize",
    "run_suite",
    "run_suites",
    "schouten",
    "solve_coboundary",
    "validate_label",
]
