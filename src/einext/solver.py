"""Numerical search for structure constants realizing an eigenvalue type.

The residual stacks, in a fixed deterministic order, the grouped Ricci
deviations (every nonzero-exponent class entrywise, and the constant class
against its Einstein target), the divergence components, and the weighted
Jacobi components.  Every row is a polynomial of degree at most two in the
pattern variables; the solver assembles it exactly from the pair lists of
the polarised Ricci and Jacobi forms on the pattern's unit entries, on the
exponent classes that ``curvature._pair_classes`` reads off each product's
two exact weights and against ``ExtensionSpec.einstein_target``, and keeps
it as a sparse list of monomials on the rows some monomial reaches (the
others are 0).  A multistart damped least-squares loop on that model
minimizes half the squared norm, and identical problem and
seed reproduce the trajectory bit for bit.  Its start points are the PCG64
stream of ``SeedSequence(seed)``, the numbers of
``numpy.random.default_rng(seed).uniform(-3, 3)``, drawn by ``_PCG64``
without loading numpy.random, so a seed's result does not depend on the
installed numpy's ``Generator``.  Each damped step solves
(J^T J + damping) step = J^T r with the LAPACK ``dgesv`` gufunc that
``np.linalg.solve`` wraps, under the same float-error settings, so it has
the same bits and a singular system still raises ``LinAlgError``, which
quadruples the damping.  A restart stops once its
objective is at most ``(tolerance / 100) ** 2``, at an exactly zero gradient,
when no damped step improves it, when a step improves it by at most a 1e-12
share, or after ``MAX_ITERATIONS`` steps.  The reported residual is the best
restart's objective; ``converged`` is the verdict of
``verifier.verify_extension`` on the best constants at ``tolerance``
(``algebra.DEFAULT_TOL`` unless given), computed from the tensor and not
from the model, together with a Jacobi residual of at most ``tolerance``.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sized
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

# The package's modules first: ``algebra`` then compiles before numpy loads,
# which keeps the peak memory of a cold start lower.
from .algebra import (
    DEFAULT_TOL,
    ExtensionSpec,
    StructureTensor,
    _divergence_terms,
    _jacobi_pairs,
    _require_int,
    _ricci_pairs,
    algebra_to_json,
    jacobi_residual,
    make_spec,
    sparsity_pattern,
)
from .curvature import _pair_classes
from .ratlinalg import _triangle
from .scalars import parse_rational
from .verifier import verify_extension

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

Triple = tuple[int, int, int]

# Box of every pattern variable and the Levenberg-Marquardt steps per restart.
BOUNDS = (-10.0, 10.0)
MAX_ITERATIONS = 200


def _normalize_pattern(pattern: Sequence[Triple], dim: int) -> tuple[Triple, ...]:
    seen = set()
    for triple in pattern:
        if not isinstance(triple, Sized) or len(triple) != 3:
            raise ValueError(f"pattern triple {triple!r} must have 3 entries")
        i, j, k = (_require_int(x, "pattern triple {} entry", triple) for x in triple)
        if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim) or i == j:
            raise ValueError(f"bad pattern triple ({i},{j}|{k})")
        seen.add((i, j, k) if i < j else (j, i, k))
    return tuple(sorted(seen))


@dataclass(frozen=True)
class SearchProblem:
    """A structure-constant search for one rational eigenvalue type."""

    spectral: tuple[Fraction, ...]
    pattern: Optional[tuple[Triple, ...]] = None
    restarts: int = 8
    seed: int = 0
    tolerance: float = DEFAULT_TOL
    jacobi_weight: float = 10.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "spectral", tuple(map(parse_rational, self.spectral)))
        for name, least in (("restarts", 1), ("seed", 0)):
            value = getattr(self, name)
            if _require_int(value, name) < least:
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
        for name in ("tolerance", "jacobi_weight"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        pattern = sparsity_pattern(self.spectral) if self.pattern is None else self.pattern
        object.__setattr__(self, "pattern", _normalize_pattern(pattern, self.dim))

    @property
    def dim(self) -> int:
        return len(self.spectral)

    def build_tensor(self, values: np.ndarray) -> StructureTensor:
        return StructureTensor(self.dim, dict(zip(self.pattern, map(float, values))))


@dataclass
class SearchResult:
    """Best point over all restarts, with per-restart trajectory summaries."""

    best_mu: StructureTensor
    residual: float
    converged: bool
    restart_summaries: list[dict]
    pattern: tuple[Triple, ...]

    def to_json(self) -> dict:
        return {
            "converged": self.converged,
            "residual": self.residual,
            "mu": algebra_to_json(self.best_mu)["mu"],
            "pattern": [list(t) for t in self.pattern],
            "restarts": self.restart_summaries,
        }


class _QuadraticModel:
    """The residual of a fixed pattern, assembled from its bilinear pieces.

    Let E_a be the unit tensor of pattern triple a = (i, j, k), with exact
    exponent e_a = p_k - p_i - p_j.  In the tensor sum_a x_a E_a, a product
    of an entry of E_a and one of E_b that meets in the Ricci form (the
    pair list of the pattern's unit support, ``algebra._ricci_pairs``) adds
    to the monomial x_a x_b, a <= b, in the Ricci class -(e_a + e_b)/2 that
    ``curvature._pair_classes`` reads off the two weights, and one that
    meets in the Jacobi form (``algebra._jacobi_pairs``) adds to the
    weighted Jacobi rows; the divergence rows are linear
    (``algebra._divergence_terms``) and the Einstein target is constant.
    The class layout is the constant class plus every class with a nonzero
    coefficient: it depends on the type and pattern, never on the values.
    The model keeps the rows some monomial reaches, at positions ``rows``.

    The coefficients are COO arrays (row, a, b, coeff) with a <= b over the
    variables and a constant slot x_v = 1, so a linear term is (row, a, v)
    and a constant (row, v, v); the quadratic ones are summed exactly, one
    per monomial and row.  One ``np.bincount`` evaluates the model and one
    more its exact Jacobian.
    """

    def __init__(self, base: ExtensionSpec, pattern: Sequence[Triple], jacobi_weight: float):
        n, v = base.dim, len(pattern)
        unit = StructureTensor(n, dict.fromkeys(pattern, 1.0)).support()  # sorted: entry a < v is triple a
        upper_i, upper_j, upper = _triangle(n)
        # Each product of two unit entries: a Ricci pair adds to the upper
        # triangle of the symmetric part, a Jacobi pair to its row (kind 1).
        ricci, jacobi = _ricci_pairs(unit, n), _jacobi_pairs(unit, n)
        var = np.tile(np.arange(v), 2)
        x = var[np.concatenate([ricci.left, jacobi.left])]
        y = var[np.concatenate([ricci.right, jacobi.right])]
        kind = np.repeat([0, 1], [len(ricci.slot), len(jacobi.slot)])
        t = np.concatenate([upper.ravel()[ricci.slot], jacobi.slot])
        diagonal = ricci.slot % (n + 1) == 0
        w = np.concatenate([np.where(diagonal, 1.0, 0.5) * ricci.products(unit.value), jacobi.products(unit.value)])
        # Sum them exactly (dyadic) per (a, kind, b, t), in that order; t < n^4.
        rows = n**4
        key = ((np.minimum(x, y) * 2 + kind) * v + np.maximum(x, y)) * rows + t
        key, slot = np.unique(key, return_inverse=True)
        coeff = np.bincount(slot, w, minlength=len(key))
        rest, t = np.divmod(key, rows)
        rest, b = np.divmod(rest, v)
        a, kind = np.divmod(rest, 2)
        coeff = np.where(kind == 1, jacobi_weight * coeff, coeff)
        # Row blocks: the exponent classes, then the divergence and the Jacobi rows.
        names, ricci_class = _pair_classes(base.spectral, pattern, a, b)
        zero = names.index(Fraction(0))
        DIV, JAC = len(names), len(names) + 1
        target = base.einstein_target()[upper_i, upper_j]
        r = np.flatnonzero(target)
        e, component, div = _divergence_terms(*unit.index[:, :v], base.eigenvalues())
        nz = coeff != 0.0
        # Entries (block, row in block, a, b, coeff); v is the constant slot.
        chunks = [
            np.broadcast_arrays(zero, r, v, v, -target[r]),
            np.broadcast_arrays(DIV, component, e, v, div),
            (np.where(kind == 1, JAC, ricci_class)[nz], t[nz], a[nz], b[nz], coeff[nz]),
        ]
        block, t, self.a, self.b, self.coeff = (np.concatenate(f) for f in zip(*chunks))
        # The layout: the constant class and every class with a coefficient.
        size = np.zeros(len(names) + 2, dtype=np.intp)
        size[block] = size[zero] = len(upper_i)
        size[DIV], size[JAC] = n, rows
        self.keys = [names[c] for c in np.flatnonzero(size[:DIV])]
        self.rows, self.row = np.unique((np.cumsum(size) - size)[block] + t, return_inverse=True)
        self.size = len(self.rows)
        self.nvars = v
        # d/dx_a of coeff x_a x_b is coeff x_b and the other way round; the slot has none.
        da, db = self.a < v, self.b < v
        self._slot = np.concatenate([self.row[da] * v + self.a[da], self.row[db] * v + self.b[db]])
        self._partner = np.concatenate([self.b[da], self.a[db]])
        self._dcoeff = np.concatenate([self.coeff[da], self.coeff[db]])
        self._xx = np.ones(v + 1)  # x and the constant slot

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self._xx[:-1] = x
        return np.bincount(self.row, self.coeff * self._xx[self.a] * self._xx[self.b], minlength=self.size)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Exact derivative of the model at x."""
        self._xx[:-1] = x
        jac = np.bincount(self._slot, self._dcoeff * self._xx[self._partner], minlength=self.size * self.nvars)
        return jac.reshape(self.size, self.nvars)


_MASK32, _MASK53, _MASK64, _MASK128 = 2**32 - 1, 2**53 - 1, 2**64 - 1, 2**128 - 1


def _hashmix(const: int, multiplier: int):
    """SeedSequence's 32-bit hash, whose constant advances with each call."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * multiplier & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


class _PCG64:
    """numpy's ``default_rng(seed)`` stream, bit for bit: ``SeedSequence(seed)``
    seeds PCG64 (O'Neill 2014, XSL-RR 128/64) and ``uniform`` is numpy's
    ``low + (high - low) * ((next64 >> 11) * 2**-53)``."""

    MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

    def __init__(self, seed: int):
        seed = int(seed)
        words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
        hashmix = _hashmix(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        # Mix every pool word, then every seed word past the fourth, into the others.
        for src in range(max(4, len(words))):
            for dst in range(4):
                if src != dst:
                    hashed = hashmix(pool[src] if src < 4 else words[src])
                    value = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashed) & _MASK32
                    pool[dst] = value ^ value >> 16
        # generate_state(4, uint64): eight hashed words, paired low word first.
        hashmix = _hashmix(0x8B51F9DD, 0x58F38DED)
        hashed = [hashmix(pool[i % 4]) for i in range(8)]
        s0, s1, s2, s3 = (low | high << 32 for low, high in zip(hashed[::2], hashed[1::2]))
        # pcg64 set-seq seeding: state 0, step, add the seed, step.
        self._inc = (s2 << 64 | s3) << 1 & _MASK128 | 1
        self._state = ((self._inc + (s0 << 64 | s1)) * self.MULTIPLIER + self._inc) & _MASK128

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        state, inc, mult, span = self._state, self._inc, self.MULTIPLIER, high - low
        out = []
        for _ in range(size):
            state = (state * mult + inc) & _MASK128
            word = (state >> 64 ^ state) & _MASK64
            # The top 53 bits of word rotated right by state >> 122.
            out.append(low + span * (((word << 64 | word) >> (state >> 122) + 11 & _MASK53) * 2.0**-53))
        self._state = state
        return np.array(out)


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)`` for a float64 matrix and vector, bit for bit:
    the LAPACK ``dgesv`` gufunc it wraps, under the same float-error settings,
    so a singular ``a`` raises ``LinAlgError`` under any caller's settings.
    An errstate cannot be entered twice, so each call builds its own."""
    with np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.solve1(a, b, signature="dd->d")


def _levenberg_marquardt(fun, x0: np.ndarray, floor: float) -> tuple[np.ndarray, list[float]]:
    # The objective floor is the one absolute stop: below it, steps only
    # polish flat directions geometrically.  An exactly zero gradient (an
    # empty pattern, say) stops a restart at any objective.
    lo, hi = BOUNDS
    x = np.minimum(np.maximum(x0, lo), hi)
    r = fun(x)
    objective = 0.5 * float(r @ r)
    trace = [objective]
    damping = 1e-3
    for _ in range(MAX_ITERATIONS):
        if objective <= floor:
            break
        jac = fun.jacobian(x)
        gradient = jac.T @ r
        if not np.count_nonzero(gradient):
            break
        # J^T J, whose diagonal each attempt sets to the undamped one plus the damping.
        damped = jac.T @ jac
        diagonal = damped.ravel()[:: x.size + 1]
        undamped = diagonal.copy()
        accepted = False
        for _attempt in range(25):
            np.add(undamped, damping, out=diagonal)
            try:
                step = _solve(damped, gradient)
            except LinAlgError:
                damping *= 4.0
                continue
            candidate = np.minimum(np.maximum(x - step, lo), hi)
            r_new = fun(candidate)
            objective_new = 0.5 * float(r_new @ r_new)
            if objective_new < objective:
                improvement = objective - objective_new
                x, r, objective = candidate, r_new, objective_new
                damping = max(damping / 3.0, 1e-14)
                accepted = True
                break
            damping *= 4.0
        trace.append(objective)
        if not accepted:
            break
        if improvement <= 1e-12 * objective:
            break
    return x, trace


def search(problem: SearchProblem) -> SearchResult:
    """Multistart least-squares search; reproducible for a fixed seed, whose
    start points are numpy's ``default_rng(seed).uniform(-3, 3)`` numbers."""
    base = make_spec(StructureTensor(problem.dim), problem.spectral)
    fun = _QuadraticModel(base, problem.pattern, problem.jacobi_weight)
    # Well inside the verdict's max-abs bound: at the floor every model row is
    # below tol / 70, which leaves room for the rounding by which verify's
    # classes, formed from the tensor, differ from the model's.
    floor = (problem.tolerance / 100) ** 2
    rng = _PCG64(problem.seed)
    summaries = []
    candidates = []
    # Without variables every restart is the same single point.
    for restart in range(problem.restarts if fun.nvars else 1):
        x0 = rng.uniform(-3.0, 3.0, size=fun.nvars)
        x, trace = _levenberg_marquardt(fun, x0, floor)
        objective = trace[-1]
        summaries.append(
            {
                "restart": restart,
                "objective": objective,
                "iterations": len(trace) - 1,
                "trace": trace,
            }
        )
        candidates.append((objective, float(np.linalg.norm(x)), tuple(x), x))

    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    objective, _, _, best = candidates[0]
    best_mu = problem.build_tensor(best)
    # ``replace`` starts the spec without the zero tensor's cached classes.
    report = verify_extension(replace(base, algebra=best_mu), problem.tolerance)
    return SearchResult(
        best_mu=best_mu,
        residual=objective,
        converged=report.einstein and jacobi_residual(best_mu) <= problem.tolerance,
        restart_summaries=summaries,
        pattern=problem.pattern,
    )
