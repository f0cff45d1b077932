"""weyrlab: exact spectral analysis of matrix pencils and linear relations.

Everything runs over Q(i) with arbitrary-precision rational arithmetic, so
subspace identities, spectra, Weyr characteristics, and perturbation bounds
are all checked bit-exactly rather than numerically.
"""

from .errors import (
    DimensionMismatch,
    NoResolventPointError,
    NotRegularError,
    NotResolventPointError,
    ParseError,
    SingularMatrixError,
    WeyrlabError,
    ZeroPolynomialError,
)
from .scalars import (
    INF,
    ExtendedScalar,
    GaussianRational,
    Infinity,
    format_extended,
    format_scalar,
    gr,
    parse_extended,
    parse_scalar,
)
from .linalg import (
    Matrix,
    Subspace,
    column_space,
    contains,
    determinant,
    map_image,
    map_preimage,
    matrix_inverse,
    null_space,
    outer_product,
    rref,
    subspace_intersect,
    subspace_sum,
    vector,
)
from .polynomials import (
    Polynomial,
    pencil_det_poly,
    poly_gcd,
    squarefree_decomposition,
    squarefree_part,
)
from .gaussian_roots import gaussian_rational_roots
from .relations import LinearRelation, SpectrumReport, WeyrTable
from .pencils import CanonicalSpec, OperatorPencil, jordan_block
from .perturbations import (
    PerturbationSpec,
    SuiteConfig,
    TrialResult,
    VerificationReport,
    Violation,
    apply_perturbation,
    random_trial,
    relation_distance,
    run_suite,
    weyr_delta_check,
)

__version__ = "0.1.0"
