"""Numerical toolkit for the curvature criterion behind cohomology vanishing
of BN-pair groups: cosine matrices of subspace families, simplicial complexes,
and Coxeter systems; a Hilbert-space decomposition verifier; and thickness
thresholds that turn spectral data into vanishing verdicts."""

from .complexes import (
    ComplexCosineReport,
    PartiteComplex,
    cosine_matrix_of_complex,
    cycle_complex,
    gallery_connected,
    link_of,
    load_complex,
    thickness,
    validate_complex,
)
from .coxeter import (
    CoxeterMatrix,
    build_coxeter_complex,
    classify_coxeter,
    coxeter_complex_cosine_check,
    coxeter_cosine,
    enumerate_group,
    load_coxeter_matrix,
)
from .criterion import (
    VanishingReport,
    building_cosine_lower_bound,
    feit_higman_bound,
    min_thickness,
    threshold,
    vanishing_report,
)
from .decomposition import (
    SubspaceLattice,
    build_lattice,
    load_family,
    random_family,
    verify_decomposition,
)
from .errors import (
    CriterionInapplicableError,
    DimensionMismatchError,
    FeitHigmanExcludedError,
    GarlandError,
    GroupEnumerationError,
    InputFormatError,
    SingularityError,
    ValidationError,
)
from .linalg import classify_definiteness, orthonormalize, sym_eigs
from .subspaces import (
    CosineMatrix,
    Subspace,
    SubspaceFamily,
    angle_cos,
    cosine_matrix_of_family,
    intersect,
    kassabov_delta,
    kassabov_reduced,
    spherical_face_family,
)

__version__ = "0.1.0"
