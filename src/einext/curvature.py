"""Curvature of the one-parameter metric deformation and its extension.

The deformed metric at time u is the left-invariant metric of the rescaled
constants mu_u[i,j,k] = exp(u (p_k - p_i - p_j)) mu[i,j,k], so every
curvature quantity here is one formula, the polarised Ricci form
``_ricci_form``, applied to rescaled constants.  Splitting mu by the exact
exponent e = p_k - p_i - p_j turns the deformed Ricci operator into a finite
sum of matrix coefficients times exponentials exp(-2 u q), one class per
exact value of the half-integer combination q of the rational eigenvalues
(exponentials with distinct q are independent), so the Einstein criterion
"every nonzero-exponent class vanishes and the constant class hits its
target" is a finite set of exact equations on floating-point coefficients.
The scalar curvature is the trace of the Ricci operator, so its classes are
the traces of these.

Each of these steps has one home here: ``_exponent_layout`` forms the
pieces and classes on integers (the solver's model uses it too),
``_grouped_terms`` fills the classes, and ``_exp_sum`` evaluates
sum_q exp(-2 u q) C_q for the deformed operator and for both non-constant
blocks of the extension.  The Einstein target of the constant class is
``ExtensionSpec.einstein_target``.

``ricci_deformation_at`` evaluates the rescaled constants at a numeric
deformation time without the exponent bookkeeping; tests compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .algebra import ExtensionSpec, StructureTensor, divergence_residual
from .scalars import format_rational

HALF = Fraction(1, 2)
ZERO = Fraction(0)


@dataclass
class GroupedRicci:
    """Deformed Ricci operator as sum_q exp(-2 u q) C_q in the moving frame."""

    dim: int
    classes: dict[Fraction, np.ndarray]

    def exponents(self) -> list[Fraction]:
        return sorted(self.classes)

    def coefficient(self, q: Fraction) -> np.ndarray:
        return self.classes.get(q, np.zeros((self.dim, self.dim)))

    def constant_class(self) -> np.ndarray:
        return self.coefficient(ZERO).copy()

    def nonzero_exponent_classes(self) -> dict[Fraction, np.ndarray]:
        return {q: C for q, C in self.classes.items() if q != 0}

    def evaluate(self, u: float) -> np.ndarray:
        return _exp_sum(self.classes, u, (self.dim, self.dim))

    def trace_by_class(self) -> dict[Fraction, float]:
        return {q: float(np.trace(C)) for q, C in self.classes.items()}

    def to_json(self) -> dict:
        return {"dim": self.dim, "classes": _by_exponent(self.classes)}


def _by_exponent(classes: dict) -> dict:
    """JSON form of classes: keyed by exponent, in exponent order, as lists."""
    return {format_rational(q): np.asarray(classes[q]).tolist() for q in sorted(classes)}


def _exp_sum(classes: dict[Fraction, np.ndarray], u: float, shape: tuple) -> np.ndarray:
    """sum_q exp(-2 u q) C_q over classes of the given shape, each entry an
    exactly rounded sum; raises OverflowError when a term leaves float64."""
    if not classes:
        return np.zeros(shape)
    weights = np.array([math.exp(-2.0 * u * float(q)) for q in classes])
    with np.errstate(over="ignore"):
        terms = weights[:, None] * np.stack([C.ravel() for C in classes.values()])
    if not np.isfinite(terms).all():
        raise OverflowError(f"exp(-2 u q) C_q overflows float64 at u = {u!r}")
    return np.array([math.fsum(column) for column in terms.T]).reshape(shape)


def _exponent_layout(
    spectral: Sequence[Fraction], triples: Sequence[tuple[int, int, int]]
) -> tuple[np.ndarray, list[Fraction], np.ndarray]:
    """The exponent classes of a tensor supported on the given triples.

    Returns the piece of each triple, numbering the distinct exact exponents
    e = p_k - p_i - p_j in order of first appearance; the classes, the
    constant class and every -(e + f)/2, sorted; and ``pair_class[e, f]``,
    the index of the class -(e + f)/2 of two pieces, formed once per pair.
    Scaled by twice the lcm of the denominators, every eigenvalue, exponent
    and class is a Python int.
    """
    scale = 2 * math.lcm(*[x.denominator for x in spectral])
    c = [x.numerator * (scale // x.denominator) for x in spectral]
    exponents = [c[k - 1] - c[i - 1] - c[j - 1] for i, j, k in triples]
    piece_of: dict[int, int] = {}
    piece = np.array([piece_of.setdefault(e, len(piece_of)) for e in exponents], dtype=np.intp)
    exps = list(piece_of)
    pair = {
        (a, b): -(exps[a] + exps[b]) // 2 for a in range(len(exps)) for b in range(a, len(exps))
    }
    keys = sorted(set(pair.values()) | {0})
    index = {q: m for m, q in enumerate(keys)}
    pair_class = np.zeros((len(exps), len(exps)), dtype=np.intp)
    for (a, b), q in pair.items():
        pair_class[a, b] = pair_class[b, a] = index[q]
    classes = [Fraction(q, scale) for q in keys]
    return piece, classes, pair_class


def _ricci_form(S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Polarised Ricci operator: ``_ricci_form(T, T)`` is the Ricci operator
    of the left-invariant metric with structure constants T.

    Bilinear in (S, T), so for T = sum_e T_e the ordered pairs of pieces add
    up to the whole operator.  Leading axes broadcast, which evaluates every
    pair of a stack of pieces in one call.
    """
    G = (
        -0.5 * np.einsum("...jkl,...ilk->...ij", S, T)
        - np.einsum("...l,...lji->...ij", np.einsum("...lkk->...l", S), T)
        + 0.25 * np.einsum("...kli,...klj->...ij", S, T)
        - 0.5 * np.einsum("...ikl,...jkl->...ij", S, T)
    )
    return 0.5 * (G + G.swapaxes(-1, -2))


def _grouped_terms(spec: ExtensionSpec) -> dict[Fraction, np.ndarray]:
    """The nonzero grouped Ricci coefficients C_q.

    The tensor is split into pieces T_e by exponent (``_exponent_layout``);
    the pair (T_e, T_f) contributes ``_ricci_form(T_e, T_f)`` to the class
    q = -(e + f)/2.
    """
    n = spec.dim
    items = spec.algebra.items()
    if not items:
        return {}
    piece, classes, pair_class = _exponent_layout(spec.spectral, [t for t, _ in items])
    P = np.zeros((len(pair_class), n, n, n))
    for e, ((i, j, k), v) in zip(piece, items):
        P[e, i - 1, j - 1, k - 1] = v
        P[e, j - 1, i - 1, k - 1] = -v
    C = np.zeros((len(classes), n, n))
    np.add.at(C, pair_class.ravel(), _ricci_form(P[:, None], P[None, :]).reshape(-1, n, n))
    return {q: Cq for q, Cq in zip(classes, C) if Cq.any()}


def ricci_deformation(spec: ExtensionSpec) -> GroupedRicci:
    """Grouped exponential representation of the deformed Ricci operator."""
    return GroupedRicci(spec.dim, _grouped_terms(spec))


def _rescaled(spec: ExtensionSpec, u: float) -> np.ndarray:
    """Structure constants of the deformed frame at time u:
    mu_u[i,j,k] = exp(u (p_k - p_i - p_j)) mu[i,j,k]."""
    T = spec.algebra.dense()
    p = spec.eigenvalues()
    nz = T != 0.0
    exponent = p[None, None, :] - p[:, None, None] - p[None, :, None]
    T[nz] *= np.exp(u * exponent[nz])
    return T


def ricci_deformation_at(spec: ExtensionSpec, u: float) -> np.ndarray:
    """Direct evaluation of the deformed Ricci operator at a single u.

    The deformed metric at time u is the undeformed one of the rescaled
    constants, so this is the Ricci operator of ``_rescaled(spec, u)``,
    independent of the exponent bookkeeping it cross-checks.
    """
    Tu = _rescaled(spec, u)
    return _ricci_form(Tu, Tu)


def ricci_at_identity(mu: StructureTensor) -> np.ndarray:
    """Ricci operator of the undeformed left-invariant metric (u = 0)."""
    T = mu.dense()
    return _ricci_form(T, T)


def connection_coeffs(spec: ExtensionSpec, u: float) -> np.ndarray:
    """Connection coefficients G[i,j,k] = <nabla_{e_k} e_j, e_i> at time u.

    The Koszul combination of the rescaled constants mu_u.
    """
    Tu = _rescaled(spec, u)
    return 0.5 * (Tu - np.einsum("jki->ijk", Tu) - np.einsum("kij->ijk", Tu))


@dataclass
class CurvatureReport:
    """Grouped curvature data of the deformation and its extension.

    The extension blocks: the (0,0) entry is constant, the mixed row decays
    like exp(-u p_i) with coefficients equal to the divergence residual, and
    the frame block is the deformed Ricci shifted by the trace term.
    """

    ric_u: GroupedRicci
    scal_terms: dict[Fraction, float]
    ric_00: float
    ric_0i_classes: dict[Fraction, np.ndarray]
    ric_block_classes: dict[Fraction, np.ndarray]

    @property
    def dim(self) -> int:
        return self.ric_u.dim

    def evaluate_extension(self, u: float) -> np.ndarray:
        n = self.dim
        out = np.zeros((n + 1, n + 1))
        out[0, 0] = self.ric_00
        out[0, 1:] = out[1:, 0] = _exp_sum(self.ric_0i_classes, u, (n,))
        out[1:, 1:] = _exp_sum(self.ric_block_classes, u, (n, n))
        return out

    def to_json(self) -> dict:
        return {
            "ric_u": self.ric_u.to_json(),
            "scal": _by_exponent(self.scal_terms),
            "extension": {
                "ric_00": self.ric_00,
                "ric_0i": _by_exponent(self.ric_0i_classes),
                "ric_ij": _by_exponent(self.ric_block_classes),
            },
        }


def extension_ricci(spec: ExtensionSpec) -> CurvatureReport:
    """Ricci tensor of the extended metric in grouped form."""
    n = spec.dim
    grouped = ricci_deformation(spec)
    scal = {q: t for q, t in grouped.trace_by_class().items() if t != 0.0}
    trace_d = spec.trace()
    pv = spec.eigenvalues()

    ric_00 = -spec.trace_sq()

    div = divergence_residual(spec)
    mixed: dict[Fraction, np.ndarray] = {}
    for i in range(n):
        if div[i] == 0.0:
            continue
        q = spec.eigenvalue(i + 1) * HALF
        vec = mixed.setdefault(q, np.zeros(n))
        vec[i] += div[i]

    block = {q: C.copy() for q, C in grouped.classes.items()}
    shift = trace_d * np.diag(pv)
    if shift.any():
        block[ZERO] = block.get(ZERO, np.zeros((n, n))) - shift
        if not block[ZERO].any():
            del block[ZERO]

    return CurvatureReport(grouped, scal, ric_00, mixed, block)
