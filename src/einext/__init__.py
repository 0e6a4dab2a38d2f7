"""Rank-one Einstein extensions of metric Lie algebras.

Enumerates the admissible eigenvalue types of the deforming endomorphism in
exact rational arithmetic, computes the grouped curvature of the associated
one-parameter metric deformation, verifies the Einstein conditions, runs the
structural classifiers for the multiplicity-free types, and searches
numerically for structure constants realizing a given type.

The package exports the names of the README's library sketch and the errors
they raise; everything else is imported from its module.
"""

from .algebra import StructureError, StructureTensor, make_spec
from .solver import SearchProblem, search
from .spectral import DimensionCapError, DimensionError, enumerate_types
from .verifier import TypeMismatchError, classify_type_1112, verify_extension

__version__ = "0.1.0"
