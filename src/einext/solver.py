"""Numerical search for structure constants realizing an eigenvalue type.

The residual stacks, in a fixed deterministic order, the grouped Ricci
deviations (every nonzero-exponent class entrywise, and the constant class
against its Einstein target), the divergence components, and the weighted
Jacobi components.  Every row is a polynomial of degree at most two in the
pattern variables; the solver assembles it exactly from the polarised Ricci
and Jacobi forms on pairs of unit tensors, on the exponent classes of
``curvature._exponent_layout`` and against ``ExtensionSpec.einstein_target``,
and keeps it as a sparse list of monomials.  A multistart damped
least-squares loop on that model minimizes half the squared norm; the
reported objective is recomputed from the tensor, and identical problem and
seed reproduce the trajectory bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .algebra import (
    ExtensionSpec,
    StructureTensor,
    _divergence_form,
    _jacobi_form,
    algebra_to_json,
    divergence_residual,
    full_pattern,
    jacobi_components,
    make_spec,
)
from .curvature import _exponent_layout, _grouped_terms, _ricci_form
from .scalars import parse_rational
from .verifier import sparsity_pattern

Triple = tuple[int, int, int]

# Box of every pattern variable, the Levenberg-Marquardt steps per restart,
# and the gradient size at which a restart stops.
BOUNDS = (-10.0, 10.0)
MAX_ITERATIONS = 200
GRADIENT_TOL = 1e-12


def _normalize_pattern(pattern: Sequence[Triple], dim: int) -> tuple[Triple, ...]:
    seen = set()
    for (i, j, k) in pattern:
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
    tolerance: float = 1e-10
    jacobi_weight: float = 10.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "spectral", tuple(map(parse_rational, self.spectral)))
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        for name in ("tolerance", "jacobi_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        pattern = sparsity_pattern(self.spectral) if self.pattern is None else self.pattern
        object.__setattr__(self, "pattern", _normalize_pattern(pattern, self.dim))

    @property
    def dim(self) -> int:
        return len(self.spectral)

    def build_tensor(self, values: np.ndarray) -> StructureTensor:
        entries = {
            triple: float(v) for triple, v in zip(self.pattern, values)
        }
        return StructureTensor(self.dim, entries)


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


def _stack_residual(
    spec: ExtensionSpec,
    keys: Sequence[Fraction],
    jacobi_weight: float,
) -> np.ndarray:
    n = spec.dim
    classes = _grouped_terms(spec)
    target = spec.einstein_target()
    iu = np.triu_indices(n)
    rows = []
    for q in keys:
        C = classes.get(q, np.zeros((n, n)))
        if q == 0:
            C = C - target
        rows.append(C[iu])
    rows.append(divergence_residual(spec))
    rows.append(jacobi_weight * jacobi_components(spec.algebra))
    return np.concatenate(rows)


class _QuadraticModel:
    """The residual of a fixed pattern, assembled from its bilinear pieces.

    Let E_a be the unit tensor of pattern triple a = (i, j, k), with exact
    exponent e_a = p_k - p_i - p_j.  In the tensor sum_a x_a E_a, the
    monomial x_a x_b (a <= b) adds _ricci_form(E_a, E_b) + _ricci_form(E_b,
    E_a), halved when a = b, to the Ricci class -(e_a + e_b)/2, and the
    polarised Jacobi form likewise to the weighted Jacobi rows; the
    divergence rows are linear and the Einstein target is constant.  The
    class layout is the constant class plus every class with a nonzero
    coefficient: it depends on the type and pattern, never on the values.

    The coefficients are COO arrays (row, a, b, coeff) with a <= b over the
    variables and a constant slot x_v = 1, so a linear term is (row, a, v)
    and a constant (row, v, v).  One ``np.bincount`` evaluates the model and
    two build its exact Jacobian.
    """

    def __init__(self, base: ExtensionSpec, pattern: Sequence[Triple], jacobi_weight: float):
        n, v = base.dim, len(pattern)
        E = np.zeros((v, n, n, n))
        for a, (i, j, k) in enumerate(pattern):
            E[a, i - 1, j - 1, k - 1], E[a, j - 1, i - 1, k - 1] = 1.0, -1.0
        # Row blocks: the exponent classes, then the divergence and the Jacobi rows.
        piece, names, pair_class = _exponent_layout(base.spectral, pattern)
        zero = names.index(Fraction(0))
        DIV, JAC = len(names), len(names) + 1
        iu = np.triu_indices(n)
        target = base.einstein_target()[iu]
        t = np.flatnonzero(target)
        D = _divergence_form(E, base.eigenvalues())
        a, i = np.nonzero(D)
        # Entries (block, row in block, a, b, coeff); v is the constant slot.
        chunks = [
            np.broadcast_arrays(zero, t, v, v, -target[t]),
            np.broadcast_arrays(DIV, i, a, v, D[a, i]),
        ]
        for a in range(v):
            S, T = E[a], E[a:]
            R = (_ricci_form(S, T) + _ricci_form(T, S))[:, iu[0], iu[1]]
            J = jacobi_weight * (_jacobi_form(S, T) + _jacobi_form(T, S))
            R[0] *= 0.5
            J[0] *= 0.5
            b, t = np.nonzero(R)
            chunks.append(np.broadcast_arrays(pair_class[piece[a], piece[a + b]], t, a, a + b, R[b, t]))
            b, t = np.nonzero(J)
            chunks.append(np.broadcast_arrays(JAC, t, a, a + b, J[b, t]))
        block, t, self.a, self.b, self.coeff = (np.concatenate(f) for f in zip(*chunks))
        # The layout: the constant class and every class with a coefficient.
        size = np.zeros(len(names) + 2, dtype=np.intp)
        size[block] = size[zero] = iu[0].size
        size[DIV], size[JAC] = n, math.comb(n, 3) * n
        self.keys = [names[c] for c in np.flatnonzero(size[:DIV])]
        self.row = (np.cumsum(size) - size)[block] + t
        self.size = int(size.sum())
        self.nvars = v
        self._jac_a = self.row * (v + 1) + self.a
        self._jac_b = self.row * (v + 1) + self.b

    def __call__(self, x: np.ndarray) -> np.ndarray:
        xx = np.append(x, 1.0)
        return np.bincount(self.row, self.coeff * xx[self.a] * xx[self.b], minlength=self.size)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Exact derivative of the model at x."""
        xx = np.append(x, 1.0)
        flat = self.size * (self.nvars + 1)
        jac = np.bincount(self._jac_a, self.coeff * xx[self.b], minlength=flat)
        jac += np.bincount(self._jac_b, self.coeff * xx[self.a], minlength=flat)
        # The last column is the derivative by the constant slot.
        return jac.reshape(self.size, self.nvars + 1)[:, :-1]


def _levenberg_marquardt(fun, x0: np.ndarray) -> tuple[np.ndarray, list[float]]:
    lo, hi = BOUNDS
    x = np.clip(x0, lo, hi)
    r = fun(x)
    objective = 0.5 * float(r @ r)
    trace = [objective]
    damping = 1e-3
    eye = np.eye(x.size)
    for _ in range(MAX_ITERATIONS):
        jac = fun.jacobian(x)
        grad = jac.T @ r
        if float(np.abs(grad).max(initial=0.0)) <= GRADIENT_TOL:
            break
        hess = jac.T @ jac
        accepted = False
        for _attempt in range(25):
            try:
                step = np.linalg.solve(hess + damping * eye, -grad)
            except np.linalg.LinAlgError:
                damping *= 4.0
                continue
            candidate = np.clip(x + step, lo, hi)
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
        # Relative stall test only: flat directions of polynomial residuals
        # polish geometrically, so an absolute floor would stop too early.
        if objective == 0.0 or improvement <= 1e-12 * objective:
            break
    return x, trace


def search(problem: SearchProblem) -> SearchResult:
    """Multistart least-squares search; reproducible for a fixed seed."""
    base = make_spec(StructureTensor(problem.dim), problem.spectral)
    fun = _QuadraticModel(base, problem.pattern, problem.jacobi_weight)

    def direct(values: np.ndarray) -> np.ndarray:
        spec = base.with_algebra(problem.build_tensor(values))
        return _stack_residual(spec, fun.keys, problem.jacobi_weight)

    rng = np.random.default_rng(problem.seed)
    summaries = []
    candidates = []
    # Without variables every restart is the same single point.
    for restart in range(problem.restarts if fun.nvars else 1):
        x0 = rng.uniform(-3.0, 3.0, size=fun.nvars)
        x, trace = _levenberg_marquardt(fun, x0)
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
    best = candidates[0][3]
    best_mu = problem.build_tensor(best)
    final = direct(best)
    objective = 0.5 * float(final @ final)
    return SearchResult(
        best_mu=best_mu,
        residual=objective,
        converged=objective <= problem.tolerance,
        restart_summaries=summaries,
        pattern=problem.pattern,
    )
