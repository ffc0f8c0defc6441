"""Numerical range geometry, Gau-Wu numbers, and arrowhead matrix analysis."""

__version__ = "0.1.0"

from .arrowhead import (
    ArrowheadMatrix,
    arrowhead_from_dense,
    dichotomy_check,
    gauwu_balanced,
    gauwu_unbalanced_two,
    gauwu_with_zero_pairs,
    irreducible_dichotomous_check,
    normal_eigenvalue_check,
    projection_recognize,
    secular_eigen,
)
from .classify import classify, classify_any, k4_check, ka3_check
from .generators import FamilySpec, generate, flat_portion_example, perturb_unbalance
from .linalg import (
    AffineMap,
    ToleranceConfig,
    affine_apply,
    hermitian_parts,
    reducing_eigenvectors,
    rotate,
)
from .numrange import (
    SupportFunction,
    base_polynomial,
    boundary_generating_curve,
    detect_seeds,
    dichotomy_scan,
    kprime_relative,
    support,
)
from .oracle import (SearchParams, boundary_cover, boundary_vector_field, check_witness, max_orthonormal_boundary_set,
                     verify)
from .reduction import commutant_dimension, decompose, dirsum_gauwu
from .results import GauWuResult, Witness
