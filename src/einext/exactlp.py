"""Exact feasibility of conic combinations via a phase-one simplex.

Decides, in rational arithmetic, whether a target vector is a nonnegative
combination of a finite set of generators.  Returns either the
coefficients or a separating (Farkas) witness; both certificates are
exact and can be re-verified by direct substitution.

The simplex runs on one fraction-free integer tableau ``[A | I | b]`` over
a common denominator D (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 1968).  Each
generator and the target are scaled to integers by the lcm of their
denominators; a positive column scaling changes no sign of a reduced cost
and scales every ratio of the ratio test alike, so it changes no pivot.
The tableau is D times B^-1 [A | I | b] for the current basis B, with
D = det B > 0 (every pivot entry is positive), so each entry is a minor
of the scaled input and each Bareiss division is exact.

Bland's rule (smallest improving column, ties in the ratio test to the
smallest basic index) makes the method terminate on degenerate instances
and fixes the pivot sequence, hence the certificates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Vector = Sequence[Fraction]


def cone_decompose(
    generators: Sequence[Vector], target: Vector
) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """Decide exactly whether ``target`` lies in the cone of ``generators``.

    Returns ``(coefficients, None)`` with all coefficients >= 0 and
    ``sum c_j g_j == target``, or ``(None, witness)`` where the witness y
    satisfies ``<y, g_j> <= 0`` for every generator and ``<y, target> > 0``.
    """
    n = len(target)
    m = len(generators)
    for g in generators:
        if len(g) != n:
            raise ValueError("generator dimension mismatch")

    b = [Fraction(x) for x in target]
    if m == 0:
        if all(x == 0 for x in b):
            return [], None
        return None, b

    # Integer columns: the generators, then the target.  Row-sign flips make
    # the artificial basis feasible (b >= 0).
    columns = [[Fraction(x) for x in g] for g in generators] + [b]
    scales = [math.lcm(*(x.denominator for x in col)) for col in columns]
    signs = [-1 if x < 0 else 1 for x in b]
    rows = []
    for i in range(n):
        row = [signs[i] * (col[i] * s).numerator for col, s in zip(columns, scales)]
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
