"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's grouped/vectorized code paths:
the Ricci oracle goes through the Koszul connection and a full curvature
contraction with plain loops, the direct deformation evaluates the Ricci
form on the rescaled constants at each time instead of summing the
exponent classes, the dense Ricci, Jacobi and divergence
forms contract whole n^3 arrays with einsum where the library walks the
nonzero entries, the Ricci pair list tries every ordered pair of entries
for each contraction where the library joins sorted keys, the dense accumulation adds entries into an n^3 array
where the library keeps only the nonzero support, the scalar oracle sums
the scalar-curvature formula term by term instead of tracing the Ricci
operator, the class-layout oracle
accumulates magnitudes so that nothing can cancel, the
cone oracles enumerate basis subsets instead of running the simplex, or
run the simplex one LP at a time on Python lists where the library runs a
batch in lockstep on arrays, and
the type and admissibility oracles use exact Gram-Schmidt instead of the
fraction-free projectors of the type walk.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from einext.curvature import _ricci
from einext.scalars import scaled_to_integers

from util import dense


def dense_accumulation(n: int, entries) -> np.ndarray:
    """The n^3 array of entries {(i, j, k): v} given in either order: each
    adds v to T[i-1, j-1, k-1] and subtracts it from T[j-1, i-1, k-1]."""
    T = np.zeros((n, n, n))
    for (i, j, k), v in entries.items():
        T[i - 1, j - 1, k - 1] += v
        T[j - 1, i - 1, k - 1] -= v
    return T


def divergence_form_dense(T: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Component i: sum_j T[i,j,j] (p_i - p_j), contracted over the whole array."""
    return np.einsum("ijj,ij->i", T, p[:, None] - p[None, :])


def koszul_connection(mu) -> np.ndarray:
    """nabla[c][b][a] = <nabla_{e_c} e_b, e_a> from the Koszul formula."""
    n = mu.dim
    T = dense(mu)
    out = np.zeros((n, n, n))
    for c in range(n):
        for b in range(n):
            for a in range(n):
                out[c, b, a] = 0.5 * (T[c, b, a] - T[b, a, c] + T[a, c, b])
    return out


def koszul_ricci(mu) -> np.ndarray:
    """Ricci operator of the left-invariant metric by direct contraction."""
    n = mu.dim
    T = dense(mu)
    gamma = koszul_connection(mu)

    def nabla(x: int, vec: np.ndarray) -> np.ndarray:
        # covariant derivative of a constant-coefficient field along e_x
        out = np.zeros(n)
        for b in range(n):
            if vec[b] != 0.0:
                out += vec[b] * gamma[x, b, :]
        return out

    def bracket(x: int, y: int) -> np.ndarray:
        return T[x, y]

    ric = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            total = 0.0
            for a in range(n):
                # <R(e_a, e_i) e_j, e_a>
                e_j = np.zeros(n)
                e_j[j] = 1.0
                first = nabla(a, gamma[i, j, :])
                second = nabla(i, gamma[a, j, :])
                lie = bracket(a, i)
                third = np.zeros(n)
                for c in range(n):
                    if lie[c] != 0.0:
                        third += lie[c] * gamma[c, j, :]
                total += (first - second - third)[a]
            ric[i, j] = total
    return ric


def ricci_deformation_at(spec, u) -> np.ndarray:
    """Direct evaluation of the deformed Ricci operator at u, a number or a
    1-D array of them (one operator each, stacked), without the exponent
    classes it cross-checks.

    The deformed metric at time u is the undeformed one of the rescaled
    constants mu_u[i,j,k] = exp(u (p_k - p_i - p_j)) mu[i,j,k].  Each weight
    is exact, formed on the integer-scaled eigenvalues c = s p as Python ints
    and rounded once in (c_k - c_i - c_j) / s, so a weight that is 0 is 0.0.
    """
    u = np.asarray(u, dtype=float)
    (i, j, k), value = spec.algebra.support()
    c, s = scaled_to_integers(spec.spectral)
    c = np.array(c, dtype=object)
    weight = ((c[k] - c[i] - c[j]) / s).astype(float)
    R = [_ricci(spec.algebra, value * np.exp(t * weight))[0] for t in u.ravel()]
    return np.reshape(R, u.shape + (spec.dim, spec.dim))


RICCI_COEFFS = (-0.5, -1.0, 0.25, -0.5)


def ricci_form_dense(S: np.ndarray, T: np.ndarray, coeffs=RICCI_COEFFS) -> np.ndarray:
    """Polarised Ricci form of dense constants: ``ricci_form_dense(T, T)`` is
    the Ricci operator of the left-invariant metric with constants T.

    The symmetric part of the four contractions, with the given
    coefficients.  Bilinear in (S, T); leading axes broadcast.
    """
    G = (
        coeffs[0] * np.einsum("...jkl,...ilk->...ij", S, T)
        + coeffs[1] * np.einsum("...l,...lji->...ij", np.einsum("...lkk->...l", S), T)
        + coeffs[2] * np.einsum("...kli,...klj->...ij", S, T)
        + coeffs[3] * np.einsum("...ikl,...jkl->...ij", S, T)
    )
    return 0.5 * (G + G.swapaxes(-1, -2))


def ricci_pairs_bruteforce(index: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """The pair list (left, right, slot, coeff) of the polarised Ricci form

        G[i, j] = -1/2 S[j,k,l] T[i,l,k] - S[l,k,k] T[l,j,i]
                  + 1/4 S[k,l,i] T[k,l,j] - 1/2 S[i,k,l] T[j,k,l]

    on the support entries (the columns of ``index``, 0-based), by trying
    every ordered pair (S entry l, T entry r) for each contraction in the
    order of the formula, l-major and then r: a pair is kept where the
    contracted indices agree, with the output slot i*n + j."""
    terms = (  # coefficient, whether S entry s meets T entry t, and their slot
        (-0.5, lambda s, t: (s[1], s[2]) == (t[2], t[1]), lambda s, t: t[0] * n + s[0]),
        (-1.0, lambda s, t: s[1] == s[2] and s[0] == t[0], lambda s, t: t[2] * n + t[1]),
        (0.25, lambda s, t: (s[0], s[1]) == (t[0], t[1]), lambda s, t: s[2] * n + t[2]),
        (-0.5, lambda s, t: (s[1], s[2]) == (t[1], t[2]), lambda s, t: s[0] * n + t[0]),
    )
    entries = np.asarray(index).T.tolist()
    pairs = [
        (l, r, slot(s, t), coeff)
        for coeff, meet, slot in terms
        for l, s in enumerate(entries)
        for r, t in enumerate(entries)
        if meet(s, t)
    ]
    left, right, slot, coeff = zip(*pairs) if pairs else ((), (), (), ())
    return tuple(np.array(x, dtype=np.intp) for x in (left, right, slot)) + (np.array(coeff, dtype=float),)


def jacobi_form_dense(S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Polarised Jacobi form of dense constants: sum_m S[i,j,m] T[m,k,l] +
    cyclic in (i, j, k) at slot ((i*n + j)*n + k)*n + l for each triple
    i < j < k, and 0 on the other slots of the n^4, through the whole n^4
    array of products."""
    E = np.einsum("...ijm,...mkl->...ijkl", S, T)
    r = np.arange(S.shape[-1])
    i, j, k = np.nonzero((r[:, None, None] < r[:, None]) & (r[:, None] < r))
    J = np.zeros_like(E)
    J[..., i, j, k, :] = E[..., i, j, k, :] + E[..., k, i, j, :] + E[..., j, k, i, :]
    return J.reshape(J.shape[:-4] + (-1,))


def scalar_classes(spec) -> dict:
    """Scalar curvature of the deformation by exponent class, term by term.

    scal = -sum_k ((tr ad_k)^2 + B(e_k, e_k) / 2) - sum_{i,k,l} mu[k,l|i]^2 / 4
    for the rescaled constants; the k-th term of the first sum scales like
    exp(-2 u p_k) and the (i,k,l) term like exp(-2 u (p_k + p_l - p_i)).
    Classes whose terms add up to exactly zero are dropped.
    """
    mu = spec.algebra
    n = mu.dim
    T = dense(mu)
    p = list(spec.spectral)
    out: dict = {}

    def add(q, value: float) -> None:
        if value != 0.0:
            out[q] = out.get(q, 0.0) + value

    for k in range(n):
        ad = T[k].T
        add(p[k], -(np.trace(ad) ** 2 + 0.5 * np.trace(ad @ ad)))
    for i in range(n):
        for k in range(n):
            for l in range(n):
                c = T[k, l, i] ** 2
                if c != 0.0:
                    add(p[k] + p[l] - p[i], -0.25 * c)
    return {q: v for q, v in out.items() if v != 0.0}


def class_layout(spectral, pattern) -> list:
    """Exponent classes a tensor supported on the pattern can touch, plus 0.

    The indicator tensor of the pattern is split into pieces by the exact
    exponent e = p_k - p_i - p_j, and every ordered pair of pieces is
    contracted by the dense Ricci form with its coefficients replaced by
    their absolute values, so no term can cancel; the class -(e + f)/2 is
    kept when that contraction is nonzero.
    """
    p = [Fraction(x) for x in spectral]
    n = len(p)
    pieces: dict = {}
    for (i, j, k) in pattern:
        P = pieces.setdefault(p[k - 1] - p[i - 1] - p[j - 1], np.zeros((n, n, n)))
        P[i - 1, j - 1, k - 1] = P[j - 1, i - 1, k - 1] = 1.0
    keys = {Fraction(0)}
    for e, S in pieces.items():
        for f, T in pieces.items():
            if ricci_form_dense(S, T, [abs(c) for c in RICCI_COEFFS]).any():
                keys.add(-(e + f) / 2)
    return sorted(keys)


def divergence_bruteforce(spec) -> np.ndarray:
    """Tr(ad_{D e_i} - ad_{e_i} D) for every frame vector."""
    mu = spec.algebra
    n = mu.dim
    p = spec.eigenvalues()
    d_mat = np.diag(p)
    out = np.zeros(n)
    T = dense(mu)
    for i in range(1, n + 1):
        ad_i = T[i - 1].T
        out[i - 1] = np.trace(p[i - 1] * ad_i - ad_i @ d_mat)
    return out


def cone_bruteforce(generators: list, target: list) -> bool:
    """Exact cone membership by enumerating independent generator subsets.

    By the conic Caratheodory theorem the target is in the cone iff it is a
    nonnegative combination of some linearly independent subset.
    """
    target = [Fraction(x) for x in target]
    n = len(target)
    if all(x == 0 for x in target):
        return True
    gens = [[Fraction(x) for x in g] for g in generators]

    def rank(rows):
        rows = [row[:] for row in rows]
        r = 0
        for c in range(n):
            piv = next((k for k in range(r, len(rows)) if rows[k][c] != 0), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            for k in range(len(rows)):
                if k != r and rows[k][c] != 0:
                    f = rows[k][c] / rows[r][c]
                    rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
            r += 1
        return r

    def solve_exact(cols):
        # least-structure exact solve of sum x_a cols[a] = target, if any
        m = len(cols)
        aug = [[cols[a][r] for a in range(m)] + [target[r]] for r in range(n)]
        pivots = []
        r = 0
        for c in range(m):
            piv = next((k for k in range(r, n) if aug[k][c] != 0), None)
            if piv is None:
                return None
            aug[r], aug[piv] = aug[piv], aug[r]
            pv = aug[r][c]
            aug[r] = [x / pv for x in aug[r]]
            for k in range(n):
                if k != r and aug[k][c] != 0:
                    f = aug[k][c]
                    aug[k] = [a - f * b for a, b in zip(aug[k], aug[r])]
            pivots.append(c)
            r += 1
        for k in range(r, n):
            if aug[k][m] != 0:
                return None
        return [aug[idx][m] for idx in range(len(pivots))]

    max_rank = rank(gens)
    for size in range(1, max_rank + 1):
        for subset in itertools.combinations(range(len(gens)), size):
            cols = [gens[a] for a in subset]
            if rank(cols) != size:
                continue
            sol = solve_exact(cols)
            if sol is not None and all(x >= 0 for x in sol):
                return True
    return False


def cone_simplex(generators: list, target: list) -> tuple[list | None, list | None]:
    """Exact cone membership by the per-LP phase-one simplex on Python lists:
    ``(coefficients, None)`` or ``(None, witness)``, pivot for pivot what
    ``exactlp.cone_decompose`` makes on each LP of a batch.

    One fraction-free tableau [A | I | b] over D = det B (Bareiss), each
    column scaled to integers by the lcm of its denominators, Bland's rule;
    with no generator the witness is the target itself.
    """
    n, m = len(target), len(generators)
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


def gram_schmidt(vectors: list) -> list:
    """Orthogonal basis of the span, exact; drops dependent vectors."""
    basis = []
    for v in vectors:
        w = [Fraction(x) for x in v]
        for b in basis:
            c = sum(x * y for x, y in zip(w, b)) / sum(y * y for y in b)
            w = [x - c * y for x, y in zip(w, b)]
        if any(w):
            basis.append(w)
    return basis


def root_vectors(dim: int) -> list:
    """Every root f_i + f_j - f_k (i < j, k outside {i, j}) as an int tuple."""
    return [
        tuple(int(a == i) + int(a == j) - int(a == k) for a in range(dim))
        for i, j in itertools.combinations(range(dim), 2)
        for k in range(dim)
        if k not in (i, j)
    ]


def ones_off(basis: list, dim: int) -> list:
    """1_n minus its projection onto the span of an orthogonal basis."""
    p = [Fraction(1)] * dim
    for b in basis:
        c = sum(b) / sum(y * y for y in b)
        p = [x - c * y for x, y in zip(p, b)]
    return p


def admissibility_defects(p) -> list:
    """The admissibility conditions the eigenvalue tuple p fails, exactly.

    An admissible type has no zero entry, a nonzero entry sum, and is a
    positive multiple of the projection of 1_n onto the orthogonal
    complement of the roots orthogonal to it.
    """
    p = [Fraction(x) for x in p]
    defects = []
    if any(x == 0 for x in p):
        defects.append("zero entry")
    if sum(p) == 0:
        defects.append("zero trace")
    perp = [r for r in root_vectors(len(p)) if sum(a * b for a, b in zip(r, p)) == 0]
    c = ones_off(gram_schmidt(perp), len(p))
    scale = next((x / y for x, y in zip(p, c) if y != 0), Fraction(0))
    if scale <= 0 or any(x != scale * y for x, y in zip(p, c)):
        defects.append("not the projection of 1_n off its orthogonal roots")
    return defects


def types_bruteforce(dim: int) -> set:
    """Canonical eigenvalue types from every independent subset of roots.

    For each subset the candidate is 1_n minus its projection onto the span
    (Gram-Schmidt in Fractions); it is kept when every entry and the entry
    sum are nonzero and every root orthogonal to it lies in the span.
    """
    roots = root_vectors(dim)
    found = set()
    for size in range(dim):
        for subset in itertools.combinations(roots, size):
            basis = gram_schmidt(list(subset))
            if len(basis) != size:
                continue
            p = ones_off(basis, dim)
            if any(x == 0 for x in p) or sum(p) == 0:
                continue
            perp = [r for r in roots if sum(a * b for a, b in zip(r, p)) == 0]
            if len(gram_schmidt(list(subset) + perp)) != size:
                continue
            scale = math.lcm(*(x.denominator for x in p))
            ints = [int(x * scale) for x in p]
            g = math.gcd(*ints)
            ints = sorted(x // g for x in ints)
            found.add(tuple(ints if sum(ints) > 0 else sorted(-x for x in ints)))
    return found
