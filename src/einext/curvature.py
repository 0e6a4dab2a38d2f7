"""Curvature of the one-parameter metric deformation and its extension.

The deformed metric at time u is the left-invariant metric of the rescaled
constants mu_u[i,j,k] = exp(u (p_k - p_i - p_j)) mu[i,j,k], so every
curvature quantity here is one formula, the polarised Ricci form, applied
to rescaled constants.  The form is a pair list on the nonzero entries
(``StructureTensor.ricci_pairs``, formed once per tensor): every product of
two entries that meets in one of its four contractions, with its output
slot and coefficient.  ``_ricci`` evaluates it with one ``np.bincount``
over that list, for one vector of values or one vector split into
classes, so the cost follows the nonzero constants, not n^4; it refuses an
entry that is not finite, since bincount sums past float64 silently.
Splitting mu by the exact
exponent e = p_k - p_i - p_j turns the deformed Ricci operator into a finite
sum of matrix coefficients times exponentials exp(-2 u q), one class per
exact value of the half-integer combination q of the rational eigenvalues
(exponentials with distinct q are independent), so the Einstein criterion
"every nonzero-exponent class vanishes and the constant class hits its
target" is a finite set of exact equations on floating-point coefficients.
The scalar curvature is the trace of the Ricci operator, so its classes are
the traces of these.

Each of these steps has one home here: ``_pair_classes`` reads the class
of each product off its two exact weights (the solver's model uses it too),
``_grouped_terms`` fills the classes, and ``_exp_sum`` evaluates
sum_q exp(-2 u q) C_q for the deformed operator and for both non-constant
blocks of the extension.  ``ricci_deformation`` keeps the classes on the
spec, so ``extension_ricci`` and ``verifier.verify_extension`` form them
once per spec.  The Einstein target of the constant class is
``ExtensionSpec.einstein_target``.  The direct evaluation of the rescaled
constants at numeric deformation times is not needed for the verdict; it
is a test oracle that cross-checks the classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

# The package's modules first: ``algebra`` then compiles before numpy loads,
# which keeps the peak memory of a cold start lower.
from .algebra import ExtensionSpec, StructureTensor, divergence_residual, exponents
from .scalars import ZERO, format_rational

import numpy as np


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


def _pair_classes(
    spectral: Sequence[Fraction], triples: Sequence[tuple[int, int, int]], left, right
) -> tuple[list[Fraction], np.ndarray]:
    """The exponent classes of products of two entries on the given triples.

    Returns the classes, the constant class and every -(e + f)/2 of two
    exact weights e, f = p_k - p_i - p_j of the triples, sorted; and for
    each x the index of the class of a product of an entry on triple
    ``left[x]`` and one on triple ``right[x]``.  The weights come from
    ``algebra.exponents`` as Python ints scaled by the lcm s of the
    denominators, so every class scaled by 2 s is an int too; the lookup
    runs on int64 while every scaled class is below 2**62, on Python ints
    past it.  The constant class is the shared ``scalars.ZERO``.
    """
    weights, s = exponents(spectral, triples)
    distinct = sorted(set(weights))
    keys = sorted({0, *(-(e + f) for a, e in enumerate(distinct) for f in distinct[a:])})
    exact = np.int64 if max(-keys[0], keys[-1]) < 2**62 else object
    w = np.array(weights, dtype=exact)
    index = np.array(keys, dtype=exact).searchsorted(-(w[left] + w[right]))
    return [Fraction(q, 2 * s) if q else ZERO for q in keys], index


def _ricci(mu: StructureTensor, values: np.ndarray, group=None, groups: int = 1) -> np.ndarray:
    """Ricci operators of values on mu's support, one bincount over its pair
    list (``StructureTensor.ricci_pairs``), stacked (groups, n, n).

    With a per-pair ``group`` the products go to ``groups`` operators: the
    form is bilinear, so the products of each group add up separately.
    np.bincount sums past float64 silently, so an operator entry that is
    not finite raises OverflowError.
    """
    n, pairs = mu.dim, mu.ricci_pairs()
    bins = pairs.slot if group is None else group * (n * n) + pairs.slot
    G = np.bincount(bins, pairs.products(values), minlength=groups * n * n).reshape(groups, n, n)
    R = 0.5 * (G + G.swapaxes(1, 2))
    if not np.isfinite(R).all():
        raise OverflowError("the Ricci form overflows float64: an entry is not finite")
    return R


def _grouped_terms(spec: ExtensionSpec) -> dict[Fraction, np.ndarray]:
    """The nonzero grouped Ricci coefficients C_q.

    A product of two entries of exact weights e and f adds to the class
    q = -(e + f)/2 (``_pair_classes``).
    """
    mu = spec.algebra
    index, value = mu.support()
    h = len(value) // 2
    if not h:
        return {}
    pairs = mu.ricci_pairs()
    # Entry a + h of the support is entry a with i and j swapped.
    triples = (1 + index[:, :h].T).tolist()
    classes, group = _pair_classes(spec.spectral, triples, pairs.left % h, pairs.right % h)
    C = _ricci(mu, value, group, len(classes))
    C.flags.writeable = False
    return {q: Cq for q, Cq in zip(classes, C) if Cq.any()}


def ricci_deformation(spec: ExtensionSpec) -> dict[Fraction, np.ndarray]:
    """The deformed Ricci operator as sum_q exp(-2 u q) C_q in the moving
    frame: a fresh dict {q: C_q} of the nonzero read-only classes, which are
    formed once per spec."""
    if spec._classes is None:
        object.__setattr__(spec, "_classes", _grouped_terms(spec))
    return dict(spec._classes)


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
    scal = {q: t for q, C in classes.items() if (t := float(C.trace())) != 0.0}
    div = divergence_residual(spec)
    by_eigenvalue: dict[Fraction, np.ndarray] = {}
    for i in div.nonzero()[0]:
        by_eigenvalue.setdefault(spec.spectral[i], np.zeros(n))[i] = div[i]
    mixed = {p / 2: row for p, row in by_eigenvalue.items()}
    block = dict(classes)
    shift = spec.trace() * np.diag(spec.eigenvalues())
    if shift.any():
        block[ZERO] = C = block.get(ZERO, 0.0) - shift
        if not C.any():
            del block[ZERO]
    return CurvatureReport(n, classes, scal, -spec.trace_sq(), mixed, block)
