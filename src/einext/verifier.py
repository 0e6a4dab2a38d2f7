"""Einstein verification and type-specific structural classifiers.

``verify_extension`` decides whether an extension spec produces an Einstein
metric: the divergence condition must hold, every nonzero-exponent class of
the grouped Ricci representation must vanish, and the constant class must
equal (tr D) diag(p) - tr(D^2) id (``ExtensionSpec.einstein_target``).  A
direct evaluation on a small grid of deformation times cross-checks the
grouped bookkeeping.

The classifiers check the algebraic certificates of the three eigenvalue
types with a multiplicity-free eigenvalue: (0,...,0,1), (1,...,1,0) and
(1,...,1,2).  Each reads slices of the dense constants, relabelled so the
distinguished direction comes last, and reports through one builder.
``relation_exists`` and ``sparsity_pattern`` filter one table of
p_i + p_j - p_k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .algebra import ExtensionSpec, divergence_residual
from .curvature import _ricci_form, ricci_deformation, ricci_deformation_at
from .scalars import format_rational, parse_rational
from .spectral import SpectralVector

DEFAULT_TOL = 1e-9
U_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


class TypeMismatchError(ValueError):
    """Spec eigenvalues do not match the requested classifier type."""


class VerificationPreconditionError(ValueError):
    """Operation called on a spec that fails its verification precondition."""


@dataclass
class VerificationReport:
    """Outcome of the Einstein check with named residuals."""

    einstein: bool
    einstein_constant: Optional[float]
    residuals: dict[str, float]
    violated_conditions: list[str]
    tolerance: float

    def __bool__(self) -> bool:
        return self.einstein

    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)

    def to_json(self) -> dict:
        return {
            "einstein": self.einstein,
            "einstein_constant": self.einstein_constant,
            "residuals": dict(self.residuals),
            "violated_conditions": list(self.violated_conditions),
            "tolerance": self.tolerance,
        }


def _maxabs(arr: np.ndarray) -> float:
    return float(np.abs(arr).max()) if arr.size else 0.0


def _violated(values: dict[str, float], tol: float) -> list[str]:
    """Names of the values not within tol; NaN is never within it."""
    return [name for name, value in values.items() if not value <= tol]


def verify_extension(spec: ExtensionSpec, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Decide whether the extension of the given data is Einstein.

    Residuals reported: "divergence", one "exponent <q>" entry per
    nonzero-exponent Ricci class, "target" for the constant class against
    (tr D) diag(p) - tr(D^2) id, and "u_grid" for the direct cross-check.
    """
    grouped = ricci_deformation(spec)
    target = spec.einstein_target()

    residuals: dict[str, float] = {}
    residuals["divergence"] = _maxabs(divergence_residual(spec))
    for q, C in sorted(grouped.nonzero_exponent_classes().items()):
        residuals[f"exponent {format_rational(q)}"] = _maxabs(C)
    residuals["target"] = _maxabs(grouped.constant_class() - target)
    residuals["u_grid"] = max(
        _maxabs(ricci_deformation_at(spec, u) - target) for u in U_GRID
    )

    violated = _violated(residuals, tol)
    einstein = not violated
    return VerificationReport(
        einstein=einstein,
        einstein_constant=(-spec.trace_sq() + 0.0) if einstein else None,  # avoid -0.0
        residuals=residuals,
        violated_conditions=violated,
        tolerance=tol,
    )


def scalar_case_check(spec: ExtensionSpec, tol: float = DEFAULT_TOL) -> bool:
    """On a verified spec: "eigenvalues all equal" iff "undeformed Ricci flat".

    Returns the truth of that biconditional for this instance; raises when
    called on a spec that does not verify.
    """
    report = verify_extension(spec, tol)
    if not report.einstein:
        raise VerificationPreconditionError(
            "scalar_case_check requires a spec that passes verification"
        )
    p = spec.spectral
    scalar = all(x == p[0] for x in p)
    flat = _maxabs(ricci_deformation(spec).evaluate(0.0)) <= tol
    return scalar == flat


SpectralInput = Union[SpectralVector, ExtensionSpec, Sequence]


def _eigenvalues(p: SpectralInput) -> tuple[Fraction, ...]:
    if isinstance(p, ExtensionSpec):
        return p.spectral
    if isinstance(p, SpectralVector):
        return p.entries
    return tuple(parse_rational(x) for x in p)


def _root_values(p: Sequence[Fraction]) -> dict[tuple[int, int, int], Fraction]:
    """p_i + p_j - p_k for every (i, j, k) with i < j, in lexicographic order."""
    n = len(p)
    return {
        (i, j, k): p[i - 1] + p[j - 1] - p[k - 1]
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        for k in range(1, n + 1)
    }


def relation_exists(p: SpectralInput) -> Optional[tuple[int, int, int]]:
    """First (i, j, k), i < j, with p_k = p_i + p_j; None when no relation holds."""
    return next((t for t, r in _root_values(_eigenvalues(p)).items() if r == 0), None)


def sparsity_pattern(p: SpectralInput) -> set[tuple[int, int, int]]:
    """Triples (i, j, k), i < j, whose bracket entry may be nonzero.

    These are exactly the triples with p_i + p_j - p_k in {0, p_1, ..., p_n};
    all other structure constants must vanish for an Einstein extension.
    """
    values = _eigenvalues(p)
    allowed = {Fraction(0), *values}
    return {t for t, r in _root_values(values).items() if r in allowed}


@dataclass
class ClassifierReport:
    """Result of one structural type classifier."""

    type_name: str
    passed: bool
    checks: dict[str, float]
    violated: list[str]
    gauge_obstruction: bool = False
    spectrum: Optional[list[float]] = None
    details: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.passed

    def to_json(self) -> dict:
        out = {
            "type": self.type_name,
            "passed": self.passed,
            "checks": dict(self.checks),
            "violated": list(self.violated),
            "gauge_obstruction": self.gauge_obstruction,
        }
        if self.spectrum is not None:
            out["spectrum"] = list(self.spectrum)
        if self.details:
            out["details"] = dict(self.details)
        return out


def _relabelled(spec: ExtensionSpec, lam: Fraction, nu: Fraction, type_name: str) -> np.ndarray:
    """Dense constants, relabelled so the multiplicity-free eigenvalue sits last.

    Refuses anything that is not exactly (lam, ..., lam, nu) up to order;
    near-miss types are never coerced.
    """
    values = spec.spectral
    special = [i for i, v in enumerate(values) if v == nu]
    rest = [i for i, v in enumerate(values) if v == lam]
    if len(special) != 1 or len(rest) != len(values) - 1:
        raise TypeMismatchError(
            f"classifier {type_name} needs eigenvalues ({lam},...,{lam},{nu}) "
            f"up to order; got {tuple(str(v) for v in values)}"
        )
    order = rest + special
    return spec.algebra.dense()[np.ix_(order, order, order)]


def _report(
    type_name: str, checks: dict[str, float], tol: float, detail: Optional[str] = None, **fields
) -> ClassifierReport:
    """A classifier's report; ``detail`` names a details flag that repeats the verdict."""
    violated = _violated(checks, tol)
    details = {detail: not violated} if detail else {}
    return ClassifierReport(type_name, not violated, checks, violated, details=details, **fields)


def classify_type_0001(spec: ExtensionSpec, tol: float = DEFAULT_TOL) -> ClassifierReport:
    """Type (0,...,0,1): the distinguished direction splits off a line and
    the complementary block is Einstein with constant -1."""
    T = _relabelled(spec, Fraction(0), Fraction(1), "0001")
    block = T[:-1, :-1, :-1]
    checks = {
        # T[:, -1, :] = -T[-1, :, :], so these hold every entry touching e_n.
        "distinguished_decoupled": max(_maxabs(T[-1]), _maxabs(T[..., -1])),
        "block_einstein_minus_one": _maxabs(_ricci_form(block, block) + np.eye(len(block))),
    }
    return _report("0001", checks, tol, "product_decomposition")


def classify_type_1110(spec: ExtensionSpec, tol: float = DEFAULT_TOL) -> ClassifierReport:
    """Type (1,...,1,0): transverse symmetric action with zero trace and
    squared norm n-1 over a Ricci-flat block."""
    T = _relabelled(spec, Fraction(1), Fraction(0), "1110")
    # action[i, j] = mu[n, i | j], read as -mu[i, n | j]: eigh's last bits
    # depend on the signs of its zeros.
    action = -T[:-1, -1, :-1]
    skew_defect = _maxabs(0.5 * (action - action.T))
    q_values = np.linalg.eigh(0.5 * (action + action.T))[0]
    block = T[:-1, :-1, :-1]
    checks = {
        "transverse_trace": abs(float(np.einsum("kik->i", T)[-1])),
        "distinguished_geodesic": _maxabs(T[:-1, -1, -1]),
        "block_closed": _maxabs(T[:-1, :-1, -1]),
        "symmetric_action": skew_defect,
        "trace_zero": abs(float(q_values.sum())),
        "trace_square": abs(float((q_values**2).sum()) - len(block)),
        "block_ricci_flat": _maxabs(_ricci_form(block, block)),
    }
    return _report(
        "1110", checks, tol, gauge_obstruction=skew_defect > tol, spectrum=[float(q) for q in q_values]
    )


def classify_type_1112(spec: ExtensionSpec, tol: float = DEFAULT_TOL) -> ClassifierReport:
    """Type (1,...,1,2): contact-type certificate.

    The distinguished direction must act trivially, each transverse frame
    vector must couple to it with squared norm 4, and the undeformed Ricci
    operator must equal diag(-2, ..., -2, n-1).
    """
    T = _relabelled(spec, Fraction(1), Fraction(2), "1112")
    n = len(T)
    action = -T[:-1, -1, :-1]  # action[i, j] = mu[n, i | j]
    skew_defect = _maxabs(action - action.T) / 2.0
    # Python floats, so a square past float64 raises OverflowError.
    coupling = max((abs(sum(x**2 for x in row) - 4.0) for row in T[:-1, :-1, -1].tolist()), default=0.0)
    expected = np.diag([-2.0] * (n - 1) + [float(n - 1)])
    checks = {
        "transverse_trace": abs(float(np.einsum("kik->i", T)[-1])),
        "distinguished_geodesic": _maxabs(T[:-1, -1, -1]),
        "distinguished_action": _maxabs(action),
        "contact_coupling": coupling,
        "ricci_at_identity": _maxabs(_ricci_form(T, T) - expected),
    }
    return _report("1112", checks, tol, "k_contact_eta_einstein", gauge_obstruction=skew_defect > tol)
