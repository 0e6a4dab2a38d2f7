"""Numerical search for structure constants realizing an eigenvalue type.

The residual stacks, in a fixed deterministic order, the grouped Ricci
deviations (every nonzero-exponent class entrywise, and the constant class
against its Einstein target), the divergence components, and the weighted
Jacobi components.  Every row is a polynomial of degree at most two in the
pattern variables, so the residual is rebuilt once as an exact quadratic
model whose Jacobian is exact as well.  A multistart damped least-squares
loop on that model minimizes half the squared norm; identical problem and
seed reproduce the trajectory bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .algebra import (
    ExtensionSpec,
    StructureTensor,
    divergence_residual,
    jacobi_components,
    make_spec,
)
from .curvature import _grouped_terms
from .scalars import AffineRational
from .spectral import SpectralVector
from .verifier import sparsity_pattern

Triple = tuple[int, int, int]


def _normalize_pattern(pattern: Sequence[Triple], dim: int) -> tuple[Triple, ...]:
    seen = set()
    for (i, j, k) in pattern:
        if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim) or i == j:
            raise ValueError(f"bad pattern triple ({i},{j}|{k})")
        seen.add((i, j, k) if i < j else (j, i, k))
    return tuple(sorted(seen))


def full_pattern(dim: int) -> tuple[Triple, ...]:
    """Every structurally possible triple (i < j, any k)."""
    return tuple(
        (i, j, k)
        for i in range(1, dim + 1)
        for j in range(i + 1, dim + 1)
        for k in range(1, dim + 1)
    )


@dataclass(frozen=True)
class SearchProblem:
    """A structure-constant search for one rational eigenvalue type."""

    spectral: tuple[Fraction, ...]
    pattern: Optional[tuple[Triple, ...]] = None
    bounds: tuple[float, float] = (-10.0, 10.0)
    restarts: int = 8
    seed: int = 0
    max_iterations: int = 200
    tolerance: float = 1e-10
    jacobi_weight: float = 10.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "spectral", tuple(Fraction(x) for x in self.spectral)
        )
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        dim = len(self.spectral)
        if self.pattern is None:
            object.__setattr__(
                self, "pattern", tuple(sorted(sparsity_pattern(self.spectral)))
            )
        else:
            object.__setattr__(
                self, "pattern", _normalize_pattern(self.pattern, dim)
            )

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
            "mu": [
                {"i": i, "j": j, "k": k, "v": v}
                for (i, j, k), v in self.best_mu.items()
            ],
            "pattern": [list(t) for t in self.pattern],
            "restarts": self.restart_summaries,
        }


def _class_keys(
    dim: int, spectral: Sequence[Fraction], pattern: Sequence[Triple]
) -> list[AffineRational]:
    """Exponent classes any pattern-supported tensor can touch, plus zero.

    Determined from the pattern alone (magnitude accumulation, so nothing
    cancels); this fixes the residual layout independently of the values.
    """
    indicator = StructureTensor(dim, {t: 1.0 for t in pattern})
    spec = make_spec(indicator, spectral)
    support = _grouped_terms(spec, magnitudes=True)
    keys = set(support) | {AffineRational.zero()}
    return sorted(keys, key=lambda q: q.sort_key())


def _stack_residual(
    spec: ExtensionSpec,
    keys: Sequence[AffineRational],
    jacobi_weight: float,
) -> np.ndarray:
    n = spec.dim
    classes = _grouped_terms(spec)
    pv = spec.eigenvalues()
    target = spec.trace() * np.diag(pv) - spec.trace_sq() * np.eye(n)
    iu = np.triu_indices(n)
    rows = []
    for q in keys:
        C = classes.get(q, np.zeros((n, n)))
        if q.is_zero:
            C = C - target
        rows.append(C[iu])
    rows.append(divergence_residual(spec))
    rows.append(jacobi_weight * jacobi_components(spec.algebra))
    return np.concatenate(rows)


def residual_vector(
    mu: StructureTensor,
    spectral: "SpectralVector | Sequence[Fraction]",
    jacobi_weight: float = 1.0,
) -> np.ndarray:
    """Einstein residual of a tensor for a rational eigenvalue type.

    Concatenates the grouped Ricci deviations (nonzero-exponent classes
    entrywise, constant class minus target), the divergence components, and
    the weighted Jacobi components, in deterministic order.
    """
    values = (
        spectral.entries if isinstance(spectral, SpectralVector) else spectral
    )
    spec = make_spec(mu, [Fraction(x) for x in values])
    classes = _grouped_terms(spec)
    keys = sorted(
        set(classes) | {AffineRational.zero()}, key=lambda q: q.sort_key()
    )
    return _stack_residual(spec, keys, jacobi_weight)


class _QuadraticResidual:
    """Precompiled residual map for a fixed pattern and class layout.

    Every residual row is a polynomial of degree at most two in the pattern
    variables (Ricci and Jacobi rows are quadratic, divergence is linear,
    the target shift is constant), so a handful of probe evaluations
    reconstructs the map exactly, evaluation reduces to three matrix-vector
    products, and :meth:`jacobian` differentiates the model exactly.
    """

    def __init__(self, fun, nvars: int):
        self.nvars = nvars
        zero = np.zeros(nvars)
        self.const = fun(zero)
        m = self.const.size
        self.linear = np.zeros((m, nvars))
        self.square = np.zeros((m, nvars))
        for a in range(nvars):
            e = zero.copy()
            e[a] = 1.0
            plus = fun(e)
            e[a] = -1.0
            minus = fun(e)
            self.linear[:, a] = 0.5 * (plus - minus)
            self.square[:, a] = 0.5 * (plus + minus) - self.const
        self.pair_a, self.pair_b = np.triu_indices(nvars, k=1)
        self.cross = np.zeros((m, self.pair_a.size))
        for idx, (a, b) in enumerate(zip(self.pair_a, self.pair_b)):
            e = zero.copy()
            e[a] = 1.0
            e[b] = 1.0
            self.cross[:, idx] = (
                fun(e)
                - self.const
                - self.linear[:, a]
                - self.square[:, a]
                - self.linear[:, b]
                - self.square[:, b]
            )
        # Per variable: the cross columns it appears in and the partner
        # variable of each, so the Jacobian needs no m x pairs temporary.
        self.pairs_of = []
        self.partner_of = []
        for a in range(nvars):
            idx = np.flatnonzero((self.pair_a == a) | (self.pair_b == a))
            self.pairs_of.append(idx)
            self.partner_of.append(
                np.where(self.pair_a[idx] == a, self.pair_b[idx], self.pair_a[idx])
            )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = self.const + self.linear @ x + self.square @ (x * x)
        if self.pair_a.size:
            out = out + self.cross @ (x[self.pair_a] * x[self.pair_b])
        return out

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Exact derivative of the model at x."""
        jac = self.linear + 2.0 * self.square * x
        for a, (idx, partner) in enumerate(zip(self.pairs_of, self.partner_of)):
            if idx.size:
                jac[:, a] += self.cross[:, idx] @ x[partner]
        return jac


def _levenberg_marquardt(
    fun,
    x0: np.ndarray,
    bounds: tuple[float, float],
    max_iterations: int,
    gtol: float = 1e-12,
) -> tuple[np.ndarray, list[float]]:
    lo, hi = bounds
    x = np.clip(x0, lo, hi)
    r = fun(x)
    objective = 0.5 * float(r @ r)
    trace = [objective]
    damping = 1e-3
    for _ in range(max_iterations):
        jac = fun.jacobian(x)
        grad = jac.T @ r
        if float(np.abs(grad).max(initial=0.0)) <= gtol:
            break
        hess = jac.T @ jac
        accepted = False
        for _attempt in range(25):
            try:
                step = np.linalg.solve(
                    hess + damping * np.eye(x.size), -grad
                )
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
    dim = problem.dim
    keys = _class_keys(dim, problem.spectral, problem.pattern)
    base = make_spec(StructureTensor(dim), problem.spectral)

    def direct(values: np.ndarray) -> np.ndarray:
        spec = base.with_algebra(problem.build_tensor(values))
        return _stack_residual(spec, keys, problem.jacobi_weight)

    nvars = len(problem.pattern)
    if nvars == 0:
        empty = np.zeros(0)
        r = direct(empty)
        objective = 0.5 * float(r @ r)
        return SearchResult(
            best_mu=problem.build_tensor(empty),
            residual=objective,
            converged=objective <= problem.tolerance,
            restart_summaries=[
                {"restart": 0, "objective": objective, "iterations": 0, "trace": [objective]}
            ],
            pattern=problem.pattern,
        )

    fun = _QuadraticResidual(direct, nvars)
    rng = np.random.default_rng(problem.seed)
    summaries = []
    candidates = []
    for restart in range(problem.restarts):
        x0 = rng.uniform(-3.0, 3.0, size=nvars)
        x, trace = _levenberg_marquardt(
            fun, x0, problem.bounds, problem.max_iterations
        )
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
