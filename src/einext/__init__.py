"""Rank-one Einstein extensions of metric Lie algebras.

Enumerates the admissible eigenvalue types of the deforming endomorphism in
exact rational arithmetic, computes the grouped curvature of the associated
one-parameter metric deformation, verifies the Einstein conditions, runs the
structural classifiers for the multiplicity-free types, and searches
numerically for structure constants realizing a given type.

The package exports the names of the README's library sketch and the errors
they raise; everything else is imported from its module.  Each export is
imported from its home module on first access (PEP 562), so ``import
einext`` loads neither numpy nor any submodule, and a command that runs the
enumeration never compiles the curvature, solver or verifier code.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "StructureError": "algebra",
    "StructureTensor": "algebra",
    "make_spec": "algebra",
    "SearchProblem": "solver",
    "search": "solver",
    "DimensionCapError": "spectral",
    "DimensionError": "spectral",
    "enumerate_types": "spectral",
    "TypeMismatchError": "verifier",
    "classify_type_1112": "verifier",
    "verify_extension": "verifier",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
