"""Curvature of the one-parameter metric deformation and its extension.

The deformed metric at time u is the left-invariant metric of the rescaled
constants mu_u[i,j,k] = exp(u (p_k - p_i - p_j)) mu[i,j,k], so every
curvature quantity here is one formula, the polarised Ricci form
``_ricci_form``, applied to rescaled constants.  Splitting mu by the exact
exponent e = p_k - p_i - p_j turns the deformed Ricci operator into a finite
sum of matrix coefficients times exponentials exp(-2 u q), one class per
exact half-integer combination q of the eigenvalues (affine forms in the
optional free parameter), so the Einstein criterion "every nonzero-exponent
class vanishes and the constant class hits its target" is a finite set of
exact equations on floating-point coefficients.  The scalar curvature is the
trace of the Ricci operator, so its classes are the traces of these.

``ricci_deformation_at`` evaluates the rescaled constants at a numeric
deformation time without the exponent bookkeeping; tests compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .algebra import ExtensionSpec, StructureTensor, divergence_residual
from .scalars import AffineRational

HALF = Fraction(1, 2)


class NonConstantStructureError(ValueError):
    """Curvature routines only accept constant (homogeneous) structure data."""


def _require_constant(spec: ExtensionSpec) -> None:
    if not spec.constant_structure:
        raise NonConstantStructureError(
            "structure data is flagged non-constant; the deformation curvature "
            "formulas implemented here require constant structure tensors"
        )


@dataclass
class GroupedRicci:
    """Deformed Ricci operator as sum_q exp(-2 u q) C_q in the moving frame."""

    dim: int
    classes: dict[AffineRational, np.ndarray]
    param: Optional[float] = None

    def exponents(self) -> list[AffineRational]:
        return sorted(self.classes, key=lambda q: q.sort_key())

    def coefficient(self, q: AffineRational) -> np.ndarray:
        return self.classes.get(q, np.zeros((self.dim, self.dim)))

    def constant_class(self) -> np.ndarray:
        return self.coefficient(AffineRational.zero()).copy()

    def nonzero_exponent_classes(self) -> dict[AffineRational, np.ndarray]:
        return {q: C for q, C in self.classes.items() if not q.is_zero}

    def evaluate(self, u: float) -> np.ndarray:
        weights = [
            (math.exp(-2.0 * u * q.evaluate(self.param)), self.classes[q])
            for q in self.exponents()
        ]
        out = np.zeros((self.dim, self.dim))
        for i in range(self.dim):
            for j in range(self.dim):
                out[i, j] = math.fsum(w * C[i, j] for w, C in weights)
        return out

    def trace_by_class(self) -> dict[AffineRational, float]:
        return {q: float(np.trace(C)) for q, C in self.classes.items()}

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "classes": {
                q.json_key(): self.classes[q].tolist() for q in self.exponents()
            },
        }


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


def _grouped_terms(spec: ExtensionSpec) -> dict[AffineRational, np.ndarray]:
    """Accumulate the grouped Ricci coefficients.

    The tensor is split into pieces T_e, one per exact exponent
    e = p_k - p_i - p_j of its nonzero entries; the pair (T_e, T_f)
    contributes to the class q = -(e + f)/2.
    """
    n = spec.dim
    p = spec.spectral
    piece_of: dict[AffineRational, int] = {}
    entries = [
        (piece_of.setdefault(p[k - 1] - p[i - 1] - p[j - 1], len(piece_of)), i - 1, j - 1, k - 1, v)
        for (i, j, k), v in spec.algebra.items()
    ]
    if not entries:
        return {}
    P = np.zeros((len(piece_of), n, n, n))
    for e, i, j, k, v in entries:
        P[e, i, j, k] = v
        P[e, j, i, k] = -v
    exps = list(piece_of)
    pairs = _ricci_form(P[:, None], P[None, :])
    classes: dict[AffineRational, np.ndarray] = {}
    for a, e in enumerate(exps):
        for b, f in enumerate(exps):
            q = (e + f) * -HALF
            classes[q] = classes.get(q, 0.0) + pairs[a, b]
    return {q: C for q, C in classes.items() if C.any()}


def ricci_deformation(spec: ExtensionSpec) -> GroupedRicci:
    """Grouped exponential representation of the deformed Ricci operator."""
    _require_constant(spec)
    return GroupedRicci(spec.dim, _grouped_terms(spec), spec.param)


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
    _require_constant(spec)
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
    _require_constant(spec)
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
    scal_terms: dict[AffineRational, float]
    ric_00: float
    ric_0i_classes: dict[AffineRational, np.ndarray]
    ric_block_classes: dict[AffineRational, np.ndarray]
    param: Optional[float] = None

    @property
    def dim(self) -> int:
        return self.ric_u.dim

    def evaluate_extension(self, u: float) -> np.ndarray:
        n = self.dim
        out = np.zeros((n + 1, n + 1))
        out[0, 0] = self.ric_00
        row = np.zeros(n)
        for q, vec in self.ric_0i_classes.items():
            row += math.exp(-2.0 * u * q.evaluate(self.param)) * vec
        out[0, 1:] = row
        out[1:, 0] = row
        block = np.zeros((n, n))
        for q, C in self.ric_block_classes.items():
            block += math.exp(-2.0 * u * q.evaluate(self.param)) * C
        out[1:, 1:] = block
        return out

    def to_json(self) -> dict:
        key = lambda q: q.json_key()
        return {
            "ric_u": self.ric_u.to_json(),
            "scal": {key(q): v for q, v in sorted(self.scal_terms.items(), key=lambda t: t[0].sort_key())},
            "extension": {
                "ric_00": self.ric_00,
                "ric_0i": {key(q): vec.tolist() for q, vec in self.ric_0i_classes.items()},
                "ric_ij": {key(q): C.tolist() for q, C in self.ric_block_classes.items()},
            },
        }


def extension_ricci(spec: ExtensionSpec) -> CurvatureReport:
    """Ricci tensor of the extended metric in grouped form."""
    _require_constant(spec)
    n = spec.dim
    grouped = ricci_deformation(spec)
    scal = {q: t for q, t in grouped.trace_by_class().items() if t != 0.0}
    trace_d = spec.trace()
    pv = spec.eigenvalues()

    ric_00 = -spec.trace_sq()

    div = divergence_residual(spec)
    mixed: dict[AffineRational, np.ndarray] = {}
    for i in range(n):
        if div[i] == 0.0:
            continue
        q = spec.eigenvalue(i + 1) * HALF
        vec = mixed.setdefault(q, np.zeros(n))
        vec[i] += div[i]

    block = {q: C.copy() for q, C in grouped.classes.items()}
    shift = trace_d * np.diag(pv)
    if shift.any():
        zero = AffineRational.zero()
        block[zero] = block.get(zero, np.zeros((n, n))) - shift
        if not block[zero].any():
            del block[zero]

    return CurvatureReport(grouped, scal, ric_00, mixed, block, spec.param)
