"""Rank-one Einstein extensions of metric Lie algebras.

Enumerates the admissible eigenvalue types of the deforming endomorphism in
exact rational arithmetic, computes the grouped curvature of the associated
one-parameter metric deformation, verifies the Einstein conditions, runs the
structural classifiers for the multiplicity-free types, and searches
numerically for structure constants realizing a given type.
"""

from .algebra import (
    DecompositionError,
    DerivationCheck,
    ExtensionSpec,
    OrthogonalDecomposition,
    QNSplit,
    StructureError,
    StructureTensor,
    algebra_from_json,
    algebra_to_json,
    divergence_residual,
    is_derivation,
    jacobi_residual,
    killing_form,
    make_spec,
    mean_curvature,
    qn_split,
    standard_modification,
)
from .catalog import (
    CatalogEntry,
    counterexample_p6,
    e2,
    heisenberg,
    identity_extension,
    product,
    table1,
)
from .curvature import (
    CurvatureReport,
    GroupedRicci,
    connection_coeffs,
    extension_ricci,
    ricci_at_identity,
    ricci_deformation,
    ricci_deformation_at,
)
from .scalars import parse_rational
from .solver import SearchProblem, SearchResult, full_pattern, residual_vector, search
from .spectral import (
    ConeCertificate,
    DimensionCapError,
    DimensionError,
    RootTriple,
    SpectralVector,
    build_root_set,
    cone_membership,
    enumerate_types,
    enumeration_report,
)
from .verifier import (
    ClassifierReport,
    TypeMismatchError,
    VerificationReport,
    classify_type_0001,
    classify_type_1110,
    classify_type_1112,
    relation_exists,
    scalar_case_check,
    sparsity_pattern,
    verify_extension,
)

__version__ = "0.1.0"
