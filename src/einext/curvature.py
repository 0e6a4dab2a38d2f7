"""Curvature of the one-parameter metric deformation and its extension.

The deformed metric at time u is the left-invariant metric of the rescaled
constants mu_u[i,j,k] = exp(u (p_k - p_i - p_j)) mu[i,j,k], so every
curvature quantity here is one formula, the polarised Ricci form, applied
to rescaled constants.  The form is a pair list on the nonzero entries
(``StructureTensor.ricci_pairs``, formed once per tensor): every product of
two entries that meets in one of its four contractions, with its output
slot and coefficient.  ``_ricci`` evaluates it with one ``np.bincount``
over that list, for one vector of values, a stack of them, or one vector
split into classes, so the cost follows the nonzero constants, not n^4;
it refuses an entry that is not finite, since bincount sums past float64
silently.  Splitting mu by the exact
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
blocks of the extension.  ``ricci_deformation`` keeps the classes on the
spec, so ``extension_ricci`` and ``verifier.verify_extension`` form them
once per spec.  The Einstein target of the constant class is
``ExtensionSpec.einstein_target``.

``ricci_deformation_at`` evaluates the rescaled constants at numeric
deformation times, a stack of them in one call, with float weights and
without the exponent bookkeeping; ``verify_extension`` and the tests
compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .algebra import ExtensionSpec, StructureTensor, divergence_residual, exponents
from .scalars import format_rational

HALF = Fraction(1, 2)
ZERO = Fraction(0)


def _by_exponent(classes: dict) -> dict:
    """JSON form of classes: keyed by exponent, in exponent order, as lists."""
    return {format_rational(q): np.asarray(classes[q]).tolist() for q in sorted(classes)}


def _exp_sum(classes: dict[Fraction, np.ndarray], u: float, shape: tuple) -> np.ndarray:
    """sum_q exp(-2 u q) C_q over classes of the given shape, each entry an
    exactly rounded sum; raises OverflowError when a term leaves float64."""
    if not classes:
        return np.zeros(shape)
    weights = np.array([math.exp(-2.0 * u * float(q)) for q in classes])
    with np.errstate(over="ignore", invalid="ignore"):
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
    The exponents come from ``algebra.exponents`` as Python ints scaled by
    the lcm s of the denominators, so every class scaled by 2 s is an int too.
    """
    weights, s = exponents(spectral, triples)
    piece_of: dict[int, int] = {}
    piece = np.array([piece_of.setdefault(e, len(piece_of)) for e in weights], dtype=np.intp)
    exps = list(piece_of)
    pair = {
        (a, b): -(exps[a] + exps[b]) for a in range(len(exps)) for b in range(a, len(exps))
    }
    keys = sorted(set(pair.values()) | {0})
    index = {q: m for m, q in enumerate(keys)}
    pair_class = np.zeros((len(exps), len(exps)), dtype=np.intp)
    for (a, b), q in pair.items():
        pair_class[a, b] = pair_class[b, a] = index[q]
    classes = [Fraction(q, 2 * s) for q in keys]
    return piece, classes, pair_class


def _ricci(mu: StructureTensor, values: np.ndarray, group=None, groups: int = 1) -> np.ndarray:
    """Ricci operators of values on mu's support, one bincount over its pair
    list (``StructureTensor.ricci_pairs``).

    ``values`` is one vector or a stack (g, m) of them, each giving its
    (n, n) operator, stacked (g, n, n).  With a per-pair ``group`` the
    products of one vector go to ``groups`` operators instead: the form is
    bilinear, so the pair (T_e, T_f) of pieces adds up separately.
    np.bincount sums past float64 silently, so an operator entry that is
    not finite raises OverflowError.
    """
    n, pairs = mu.dim, mu.ricci_pairs()
    products = pairs.products(values)
    if values.ndim == 2:
        group, groups = np.arange(len(values))[:, None], len(values)
    bins = pairs.slot if group is None else group * (n * n) + pairs.slot
    G = np.bincount(bins.ravel(), products.ravel(), minlength=groups * n * n).reshape(groups, n, n)
    R = 0.5 * (G + G.swapaxes(1, 2))
    if not np.isfinite(R).all():
        raise OverflowError("the Ricci form overflows float64: an entry is not finite")
    return R


def _grouped_terms(spec: ExtensionSpec) -> dict[Fraction, np.ndarray]:
    """The nonzero grouped Ricci coefficients C_q.

    The tensor is split into pieces T_e by exponent (``_exponent_layout``);
    a product of an entry of T_e and one of T_f adds to the class
    q = -(e + f)/2.
    """
    mu = spec.algebra
    index, value = mu.support()
    h = len(value) // 2
    if not h:
        return {}
    piece, classes, pair_class = _exponent_layout(spec.spectral, (1 + index[:, :h].T).tolist())
    piece = np.concatenate([piece, piece])
    pairs = mu.ricci_pairs()
    C = _ricci(mu, value, pair_class[piece[pairs.left], piece[pairs.right]], len(classes))
    C.flags.writeable = False
    return {q: Cq for q, Cq in zip(classes, C) if Cq.any()}


def ricci_deformation(spec: ExtensionSpec) -> dict[Fraction, np.ndarray]:
    """The deformed Ricci operator as sum_q exp(-2 u q) C_q in the moving
    frame: a fresh dict {q: C_q} of the nonzero read-only classes, which are
    formed once per spec."""
    if spec._classes is None:
        object.__setattr__(spec, "_classes", _grouped_terms(spec))
    return dict(spec._classes)


def ricci_deformation_at(spec: ExtensionSpec, u) -> np.ndarray:
    """Direct evaluation of the deformed Ricci operator at u, a number or a
    1-D array of them (one operator each, stacked).

    The deformed metric at time u is the undeformed one of the rescaled
    constants mu_u[i,j,k] = exp(u (p_k - p_i - p_j)) mu[i,j,k], with float
    weights, so this is independent of the exponent bookkeeping it
    cross-checks.
    """
    u = np.asarray(u, dtype=float)
    (i, j, k), value = spec.algebra.support()
    p = spec.eigenvalues()
    rescaled = value * np.exp(np.multiply.outer(u, p[k] - p[i] - p[j]))
    return _ricci(spec.algebra, rescaled).reshape(u.shape + (spec.dim, spec.dim))


def ricci_at_identity(mu: StructureTensor, without: Optional[int] = None) -> np.ndarray:
    """Ricci operator of the undeformed left-invariant metric (u = 0).

    With ``without`` (1-based), of the constants with every entry that
    touches that frame index set to 0: its rows and columns on the other
    indices are the Ricci operator of the block they span.
    """
    index, value = mu.support()
    if without is not None:
        value = np.where((index == without - 1).any(axis=0), 0.0, value)
    return _ricci(mu, value)[0]


@dataclass
class CurvatureReport:
    """Grouped curvature data of the deformation and its extension.

    ``ric_u`` holds the classes of the deformed Ricci operator in dimension
    ``dim`` (:func:`ricci_deformation`).  The extension blocks: the (0,0)
    entry is constant, the mixed row decays like exp(-u p_i) with
    coefficients equal to the divergence residual, and the frame block is
    the deformed Ricci shifted by the trace term.
    """

    dim: int
    ric_u: dict[Fraction, np.ndarray]
    scal_terms: dict[Fraction, float]
    ric_00: float
    ric_0i_classes: dict[Fraction, np.ndarray]
    ric_block_classes: dict[Fraction, np.ndarray]

    def evaluate_extension(self, u: float) -> np.ndarray:
        n = self.dim
        out = np.zeros((n + 1, n + 1))
        out[0, 0] = self.ric_00
        out[0, 1:] = out[1:, 0] = _exp_sum(self.ric_0i_classes, u, (n,))
        out[1:, 1:] = _exp_sum(self.ric_block_classes, u, (n, n))
        return out

    def to_json(self) -> dict:
        return {
            "ric_u": {"dim": self.dim, "classes": _by_exponent(self.ric_u)},
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
    classes = ricci_deformation(spec)
    scal = {q: t for q, C in classes.items() if (t := float(np.trace(C))) != 0.0}
    div = divergence_residual(spec)
    mixed: dict[Fraction, np.ndarray] = {}
    for i in np.flatnonzero(div):
        mixed.setdefault(spec.spectral[i] * HALF, np.zeros(n))[i] = div[i]
    block = dict(classes)
    shift = spec.trace() * np.diag(spec.eigenvalues())
    if shift.any():
        block[ZERO] = block.get(ZERO, np.zeros((n, n))) - shift
        if not block[ZERO].any():
            del block[ZERO]
    return CurvatureReport(n, classes, scal, -spec.trace_sq(), mixed, block)
