"""Exact feasibility of conic combinations via a phase-one simplex.

Decides whether a target vector is a nonnegative combination of finitely
many generators, returning the coefficients or a separating (Farkas)
witness; either certificate can be checked by substitution.  The simplex
runs on one fraction-free integer tableau ``[A | I | b]`` = D B^-1 [A | I | b]
over D = det B > 0 (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 1968), so every
division is exact.  Each column is scaled to integers by the lcm of its
denominators, which changes no reduced-cost sign and no ratio order, so no
pivot.  Bland's rule (smallest improving column, ratio ties to the smallest
basic index) terminates on degenerate input and fixes the certificates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .scalars import scaled_to_integers

Vector = Sequence[Fraction]


def cone_decompose(
    generators: Sequence[Vector], target: Vector
) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """Decide exactly whether ``target`` lies in the cone of ``generators`` (ints or Fractions).

    Returns ``(coefficients, None)`` with all coefficients >= 0 and
    ``sum c_j g_j == target``, or ``(None, witness)`` where the witness y
    satisfies ``<y, g_j> <= 0`` for every generator and ``<y, target> > 0``.
    """
    n, m = len(target), len(generators)
    if any(len(g) != n for g in generators):
        raise ValueError("generator dimension mismatch")
    if m == 0:
        if all(x == 0 for x in target):
            return [], None
        return None, [Fraction(x) for x in target]

    # Integer columns: the generators, then the target.  Row-sign flips make
    # the artificial basis feasible (b >= 0).
    columns, scales = zip(*map(scaled_to_integers, [*generators, target]))
    signs = [-1 if x < 0 else 1 for x in columns[m]]
    rows = []
    for i in range(n):
        row = [signs[i] * col[i] for col in columns]
        rows.append(row[:m] + [int(i == k) for k in range(n)] + row[m:])
    # Reduced costs of the phase-one objective (cost 1 on each artificial
    # column) over the artificial basis, as the last row.
    cost = [0] * m + [1] * n + [0]
    rows.append([c - sum(col) for c, col in zip(cost, zip(*rows))])
    basis = list(range(m, m + n))
    D = 1

    while True:
        z = rows[n]
        # Bland: smallest improving index.
        entering = next((j for j in range(m + n) if z[j] < 0), None)
        if entering is None:
            break
        leaving = None
        for k in range(n):
            if rows[k][entering] > 0:
                if leaving is None:
                    leaving = k
                    continue
                # Minimum ratio b_k / a_k, by cross-multiplication.
                lhs = rows[k][-1] * rows[leaving][entering]
                rhs = rows[leaving][-1] * rows[k][entering]
                if lhs < rhs or (lhs == rhs and basis[k] < basis[leaving]):
                    leaving = k
        if leaving is None:
            raise RuntimeError("phase-one objective unbounded; should not happen")
        pivot_row = rows[leaving]
        piv = pivot_row[entering]
        # One Bareiss step to the new denominator piv: the pivot row stays,
        # and every division by the old denominator D is exact.
        for k, row in enumerate(rows):
            if k != leaving:
                f = row[entering]
                rows[k] = [(piv * a - f * p) // D for a, p in zip(row, pivot_row)]
        D = piv
        basis[leaving] = entering

    # The phase-one objective is -z_b / D.
    if z[-1] == 0:
        coeffs = [Fraction(0)] * m
        for k, v in enumerate(basis):
            if v < m:
                coeffs[v] = Fraction(rows[k][-1] * scales[v], D * scales[m])
        return coeffs, None
    return None, [signs[i] * (1 - Fraction(z[m + i], D)) for i in range(n)]
