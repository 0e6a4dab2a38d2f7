"""Exact feasibility of conic combinations via a phase-one simplex, batched.

Decides for each LP of a batch whether its target is a nonnegative
combination of its generators; the final tableau gives the coefficients or
a separating (Farkas) witness, either checkable by substitution.  The LPs
share the dimension n and pivot in lockstep, stacked as fraction-free
integer tableaux ``[A | I | b]`` = D B^-1 [A | I | b] over D = det B > 0 of
shape (B, n+1, M+n+1) (Bareiss, Math. Comp. 1968), so every division is
exact.  Bland's rule (smallest improving column, ratio ties to the smallest
basic index) terminates on degenerate input and fixes the certificates.
Columns are integers: a positive column scale changes no reduced-cost sign
and no ratio order, so no pivot.  Zero columns pad an LP to M generators;
their reduced cost stays 0, so they never enter, and they shift every
artificial column alike, which keeps Bland's order: each LP makes the
pivots it makes alone.  The tableaux are int64 while a step's products stay
below the bound of :mod:`einext.ratlinalg`, Python integers past it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .ratlinalg import _top, _widen


class Tableaux(NamedTuple):
    """Final tableaux (B, n+1, M+n+1) over D (B,), with the basis (B, n) and the
    row signs (B, n) that made each target nonnegative."""

    rows: np.ndarray
    D: np.ndarray
    basis: np.ndarray
    signs: np.ndarray

    @property
    def feasible(self) -> np.ndarray:
        """Whether each target is in its cone: the phase-one objective -z_b / D is 0."""
        return self.rows[:, -1, -1] == 0

    def certificate(self, b: int, m: int, scale: int) -> tuple[list[Fraction] | None, list[Fraction] | None]:
        """LP b, with m generators and target ``targets[b] / scale``: ``(c, None)``,
        c >= 0 with ``sum c_j g_j == target``, or ``(None, y)`` with ``<y, g_j> <= 0``
        for every g_j and ``<y, target> > 0``; y is the target when m = 0."""
        rows, D, signs = self.rows[b].tolist(), int(self.D[b]), self.signs[b].tolist()
        if rows[-1][-1] == 0:
            basic = {v: Fraction(row[-1], D * scale) for v, row in zip(self.basis[b].tolist(), rows)}
            return [basic.get(j, Fraction(0)) for j in range(m)], None
        if m == 0:
            return None, [Fraction(s * row[-1], scale) for s, row in zip(signs, rows)]
        return None, [s * (1 - Fraction(x, D)) for s, x in zip(signs, rows[-1][-len(signs) - 1 : -1])]


def cone_decompose(generators: np.ndarray, targets: np.ndarray) -> Tableaux:
    """Decide exactly, for each b, whether ``targets[b]`` lies in the cone of the
    rows of ``generators[b]``: integer arrays (int64 or Python integers) of
    shape (B, M, n) and (B, n), zero rows padding an LP with fewer generators."""
    B, M, n = generators.shape
    generators, targets = _widen(n * max(_top(generators), _top(targets)), generators, targets)
    # Row-sign flips make the artificial basis feasible (b >= 0).  The reduced
    # costs of the phase-one objective (cost 1 on each artificial column) over
    # the artificial basis are minus the column sums, 1 - 1 = 0 on the artificials.
    signs = np.where(targets < 0, -1, 1)
    rows = np.zeros((B, n + 1, M + n + 1), np.result_type(generators, targets))
    rows[:, :n, :M] = generators.transpose(0, 2, 1) * signs[:, :, None]
    rows[:, :n, -1] = targets * signs
    rows[:, n] = -rows[:, :n].sum(axis=1)
    rows[:, :n, M : M + n] = np.eye(n, dtype=np.int64)
    basis = np.tile(np.arange(M, M + n), (B, 1))
    D = np.ones(B, rows.dtype)
    live = np.arange(B)

    while True:
        # Bland: the smallest improving index of each LP; the others are done.
        improving = rows[live, n, : M + n] < 0
        go = improving.any(axis=1)
        live, entering = live[go], improving[go].argmax(axis=1)
        if not len(live):
            break
        # A step forms products of two entries, so it widens on their bound.
        T = rows[live]
        T, rows, D = _widen(_top(T) ** 2, T, rows, D)
        at = np.arange(len(live))
        # Minimum ratio b_k / a_k over a_k > 0, ties to the smaller basic index: row k
        # leaves when it comes before every other such row l, by b_k a_l against b_l a_k.
        a, b, basic = T[at, :n, entering], T[:, :n, -1], basis[live]
        lhs, rhs = b[:, :, None] * a[:, None, :], a[:, :, None] * b[:, None, :]
        before = (lhs < rhs) | ((lhs == rhs) & (basic[:, :, None] <= basic[:, None, :]))
        wins = (a > 0) & (before | (a <= 0)[:, None, :]).all(axis=2)
        if not wins.any(axis=1).all():
            raise RuntimeError("phase-one objective unbounded; should not happen")
        leaving = wins.argmax(axis=1)
        # One Bareiss step to the new denominator piv: the pivot row stays,
        # and every division by the old denominator D is exact.
        pivot_row = T[at, leaving]
        piv, f = pivot_row[at, entering], T[at, :, entering]
        T = (piv[:, None, None] * T - f[:, :, None] * pivot_row[:, None, :]) // D[live, None, None]
        T[at, leaving] = pivot_row
        rows[live], D[live], basis[live, leaving] = T, piv, entering
    return Tableaux(rows, D, basis, signs)
