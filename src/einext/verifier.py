"""Einstein verification and type-specific structural classifiers.

``verify_extension`` decides whether an extension spec produces an Einstein
metric: the divergence condition must hold, every nonzero-exponent class of
the grouped Ricci representation must vanish, and the constant class must
equal (tr D) diag(p) - tr(D^2) id (``ExtensionSpec.einstein_target``), on
the classes ``curvature.ricci_deformation`` keeps on the spec.  The deformed
operator is sum_q exp(-2 u q) C_q and exponentials with distinct q are
linearly independent, so these conditions alone decide Einstein at every u.
``solver.search`` reports ``converged`` from this verdict too, so it has one
home.

The classifiers check the algebraic certificates of the three eigenvalue
types with a multiplicity-free eigenvalue: (0,...,0,1), (1,...,1,0) and
(1,...,1,2).  Each reads only the two 2-D slices of the constants through
the distinguished direction, scattered from the support in the relabelled
order that puts that direction last, takes its Ricci checks from
``curvature.ricci_at_identity`` (the block without the distinguished
direction by zeroing the entries that touch it), and reports through one
builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

# The package's modules first: ``algebra`` then compiles before numpy loads,
# which keeps the peak memory of a cold start lower.
from .algebra import DEFAULT_TOL, ExtensionSpec, _maxabs, divergence_residual
from .curvature import ricci_at_identity, ricci_deformation
from .scalars import format_rational, scaled_to_integers

import numpy as np


class TypeMismatchError(ValueError):
    """Spec eigenvalues do not match the requested classifier type."""


@dataclass
class VerificationReport:
    """Outcome of the Einstein check with named residuals; ``dataclasses.asdict`` is its JSON form."""

    einstein: bool
    einstein_constant: Optional[float]
    residuals: dict[str, float]
    violated_conditions: list[str]
    tolerance: float


def _violated(values: dict[str, float], tol: float) -> list[str]:
    """Names of the values not within tol; NaN is never within it."""
    return [name for name, value in values.items() if not value <= tol]


def verify_extension(spec: ExtensionSpec, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Decide whether the extension of the given data is Einstein.

    Residuals reported: "divergence", one "exponent <q>" entry per
    nonzero-exponent Ricci class, and "target" for the constant class
    against (tr D) diag(p) - tr(D^2) id.
    """
    classes = ricci_deformation(spec)
    residuals: dict[str, float] = {"divergence": _maxabs(divergence_residual(spec))}
    for q, C in sorted(classes.items()):
        if q != 0:
            residuals[f"exponent {format_rational(q)}"] = _maxabs(C)
    residuals["target"] = _maxabs(classes.get(0, 0.0) - spec.einstein_target())
    violated = _violated(residuals, tol)
    einstein = not violated
    return VerificationReport(
        einstein=einstein,
        einstein_constant=(-spec.trace_sq() + 0.0) if einstein else None,  # avoid -0.0
        residuals=residuals,
        violated_conditions=violated,
        tolerance=tol,
    )


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


def _relabelled(spec: ExtensionSpec, lam: int, nu: int, type_name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The slices A[a, b] = mu[o_a, s | o_b] and B[a, b] = mu[o_a, o_b | s]
    through the multiplicity-free eigenvalue's direction s, and the
    relabelling o = order that puts s last: frame index o_a becomes a.

    Refuses anything that is not exactly (lam, ..., lam, nu) up to order,
    compared as integers, each eigenvalue times the lcm of the denominators.
    """
    c, scale = scaled_to_integers(spec.spectral)
    special = [i for i, x in enumerate(c) if x == nu * scale]
    rest = [i for i, x in enumerate(c) if x == lam * scale]
    if len(special) != 1 or len(rest) != len(c) - 1:
        raise TypeMismatchError(
            f"classifier {type_name} needs eigenvalues ({lam},...,{lam},{nu}) "
            f"up to order; got {tuple(str(v) for v in spec.spectral)}"
        )
    order = np.array(rest + special)
    (i, j, k), value = spec.algebra.support()
    label = order.argsort()  # frame index o_a -> a
    A, B = np.zeros((2, len(order), len(order)))
    for S, hit, column in ((A, j == special[0], k), (B, k == special[0], j)):
        S[label[i[hit]], label[column[hit]]] = value[hit]
    return A, B, order


def _block_ricci(spec: ExtensionSpec, order: np.ndarray) -> np.ndarray:
    """Ricci operator of the block of the frame without the distinguished
    direction order[-1], relabelled by ``order``."""
    rest = order[:-1]
    return ricci_at_identity(spec.algebra, without=order[-1] + 1)[rest[:, None], rest]


def _report(
    type_name: str, checks: dict[str, float], tol: float, detail: Optional[str] = None, **fields
) -> ClassifierReport:
    """A classifier's report; ``detail`` names a details flag that repeats the verdict."""
    violated = _violated(checks, tol)
    details = {detail: not violated} if detail else {}
    return ClassifierReport(type_name, not violated, checks, violated, details=details, **fields)


def _transverse(A: np.ndarray) -> tuple[np.ndarray, float, dict[str, float]]:
    """The action[i, j] = mu[n, i | j] of the distinguished direction, its
    skew defect, and the first two checks of types 1110 and 1112."""
    action = -A[:-1, :-1]  # read as -mu[i, n | j]: eigh's last bits depend on the signs of its zeros
    checks = {"transverse_trace": abs(float(np.einsum("kk->", A))), "distinguished_geodesic": _maxabs(A[:-1, -1])}
    return action, _maxabs(0.5 * (action - action.T)), checks


def classify_type_0001(spec: ExtensionSpec, tol: float = DEFAULT_TOL) -> ClassifierReport:
    """Type (0,...,0,1): the distinguished direction splits off a line and
    the complementary block is Einstein with constant -1."""
    A, B, order = _relabelled(spec, 0, 1, "0001")
    block = _block_ricci(spec, order)
    checks = {
        # mu[n, i | j] = -A[i, j], so A and B hold every entry touching e_n.
        "distinguished_decoupled": max(_maxabs(A), _maxabs(B)),
        "block_einstein_minus_one": _maxabs(block + np.eye(len(block))),
    }
    return _report("0001", checks, tol, "product_decomposition")


def classify_type_1110(spec: ExtensionSpec, tol: float = DEFAULT_TOL) -> ClassifierReport:
    """Type (1,...,1,0): transverse symmetric action with zero trace and
    squared norm n-1 over a Ricci-flat block."""
    A, B, order = _relabelled(spec, 1, 0, "1110")
    action, skew_defect, checks = _transverse(A)
    q_values = np.linalg.eigh(0.5 * (action + action.T))[0]
    checks |= {
        "block_closed": _maxabs(B[:-1, :-1]),
        "symmetric_action": skew_defect,
        "trace_zero": abs(float(q_values.sum())),
        "trace_square": abs(float((q_values**2).sum()) - (len(A) - 1)),
        "block_ricci_flat": _maxabs(_block_ricci(spec, order)),
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
    A, B, order = _relabelled(spec, 1, 2, "1112")
    n = len(A)
    action, skew_defect, checks = _transverse(A)
    # Each transverse row's squared norm over its nonzero entries in column
    # order, the float the whole row gives; Python floats, so a square past
    # float64 raises OverflowError.
    rows, columns = B[:-1, :-1].nonzero()
    norms = [0.0] * (n - 1)
    for a, x in zip(rows.tolist(), B[rows, columns].tolist()):
        norms[a] += x**2
    coupling = max((abs(norm - 4.0) for norm in norms), default=0.0)
    expected = np.diag([-2.0] * (n - 1) + [float(n - 1)])
    checks |= {
        "distinguished_action": _maxabs(action),
        "contact_coupling": coupling,
        "ricci_at_identity": _maxabs(ricci_at_identity(spec.algebra)[order[:, None], order] - expected),
    }
    return _report("1112", checks, tol, "k_contact_eta_einstein", gauge_obstruction=skew_defect > tol)
