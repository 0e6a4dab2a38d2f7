"""Independent references the benchmark checks einext's outputs against.

Nothing here imports einext or numpy.  Eigenvalue types come from a brute
force over linearly independent root subsets with exact Gram-Schmidt
elimination; cone certificates are substituted back in exact rationals;
Ricci operators come from the Koszul formula on sparse dictionaries.

Regenerate the stored dimension-5 type list (under a minute) with

    python3 perfbench/reference.py --dim 5 > perfbench/types_dim5.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

DIM5_COMMAND = "python3 perfbench/reference.py --dim 5 > perfbench/types_dim5.json"


# ---------------------------------------------------------------------------
# Exact rationals


def parse_number(value) -> Fraction:
    """A JSON number or "num/den" string as an exact Fraction."""
    if isinstance(value, str):
        num, _, den = value.partition("/")
        return Fraction(int(num), int(den or 1))
    return Fraction(value)


def parse_form(value, param) -> Fraction:
    """An eigenvalue entry, "c+s*t" forms evaluated exactly at ``param``."""
    if isinstance(value, str) and value.endswith("*t"):
        body = value[: -len("*t")]
        cut = max(body.rfind("+"), body.rfind("-"))
        const, slope = parse_number(body[:cut]), parse_number(body[cut + 1 :])
        if body[cut] == "-":
            slope = -slope
        return const + slope * Fraction(param)
    return parse_number(value)


def canonical(p) -> tuple[int, ...]:
    """Sorted coprime integers with positive sum (all types have nonzero sum)."""
    scale = math.lcm(*(Fraction(x).denominator for x in p))
    ints = [int(Fraction(x) * scale) for x in p]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    if sum(ints) < 0:
        ints = [-v for v in ints]
    return tuple(sorted(ints))


# ---------------------------------------------------------------------------
# Eigenvalue types


def roots(n: int) -> list[tuple[tuple[int, int, int], tuple[int, ...]]]:
    """Root triples (i, j | k), 1-based with i < j, and their vectors f_i + f_j - f_k."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k not in (i, j):
                    vec = [0] * n
                    vec[i] += 1
                    vec[j] += 1
                    vec[k] -= 1
                    out.append(((i + 1, j + 1, k + 1), tuple(vec)))
    return out


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _reject(vec, basis) -> list[Fraction]:
    """vec minus its orthogonal projection onto span(basis); basis is orthogonal."""
    out = [Fraction(x) for x in vec]
    for q, qq in basis:
        c = _dot(out, q) / qq
        if c:
            out = [a - c * b for a, b in zip(out, q)]
    return out


def orthogonal_basis(vectors) -> list[tuple[list[Fraction], Fraction]]:
    """Exact Gram-Schmidt basis of span(vectors), dependent vectors dropped."""
    basis = []
    for v in vectors:
        q = _reject(v, basis)
        if any(q):
            basis.append((q, _dot(q, q)))
    return basis


def perp_roots(p) -> list[tuple[int, int, int]]:
    """Root triples orthogonal to p."""
    return [t for t, vec in roots(len(p)) if _dot(vec, p) == 0]


def brute_force_types(n: int) -> set[tuple[int, ...]]:
    """Canonical admissible types in dimension n.

    Visits every linearly independent root subset S of size at most n - 1
    (a subset of size n spans everything and leaves p = 0), sets
    p = 1_n - proj_{span S}(1_n), and keeps p when its entries and their sum
    are nonzero and S is maximal: every root orthogonal to p lies in span S.
    """
    rts = [vec for _, vec in roots(n)]
    found: set[tuple[int, ...]] = set()

    def visit(basis) -> None:
        p = _reject([1] * n, basis)
        if any(x == 0 for x in p) or sum(p) == 0:
            return
        for vec in rts:
            if _dot(vec, p) == 0 and any(_reject(vec, basis)):
                return
        found.add(canonical(p))

    def walk(start: int, basis) -> None:
        visit(basis)
        if len(basis) == n - 1:
            return
        for idx in range(start, len(rts)):
            q = _reject(rts[idx], basis)
            if any(q):
                walk(idx + 1, basis + [(q, _dot(q, q))])

    walk(0, [])
    return found


def type_defects(p) -> list[str]:
    """Properties every admissible type has; returns the names of those that fail."""
    p = [Fraction(x) for x in p]
    bad = []
    if any(x == 0 for x in p):
        bad.append("zero entry")
    if sum(p) == 0:
        bad.append("zero trace")
    # The defining roots are those orthogonal to p; proj is the projection of
    # 1_n onto the complement of their span, and p must be a positive multiple.
    perp = set(perp_roots(p))
    basis = orthogonal_basis(vec for t, vec in roots(len(p)) if t in perp)
    proj = _reject([1] * len(p), basis)
    if not any(proj) or any(a * p[0] != b * proj[0] for a, b in zip(proj, p)) or _dot(proj, p) <= 0:
        bad.append("not proportional to the projection of 1_n")
    if any(_dot(vec, proj) == 0 and any(_reject(vec, basis)) for _, vec in roots(len(p))):
        bad.append("defining roots not maximal")
    return bad


def _parse_triple(text: str) -> tuple[int, int, int]:
    ij, k = text.strip("()").split("|")
    i, j = ij.split(",")
    return int(i), int(j), int(k)


def cone_certificate_holds(p, feasible: bool, generators, coefficients, witness) -> bool:
    """Substitute a cone certificate back in exact arithmetic.

    ``generators`` are (i, j, k) triples, ``coefficients`` maps a triple or
    its "(i,j|k)" string to a rational, ``witness`` is a vector.  The target
    is |p|^2 1_n - (sum p) p and the generators must be exactly the roots
    orthogonal to p.
    """
    p = [Fraction(x) for x in p]
    n = len(p)
    vectors = dict(roots(n))
    perp = set(perp_roots(p))
    if set(tuple(t) for t in generators) != perp:
        return False
    target = [_dot(p, p) - sum(p) * x for x in p]
    if feasible:
        total = [Fraction(0)] * n
        for key, c in coefficients.items():
            t = _parse_triple(key) if isinstance(key, str) else tuple(key)
            c = parse_number(c) if isinstance(c, str) else Fraction(c)
            if t not in perp or c < 0:
                return False
            total = [a + c * b for a, b in zip(total, vectors[t])]
        return total == target
    y = [parse_number(x) if isinstance(x, str) else Fraction(x) for x in witness]
    return _dot(y, target) > 0 and all(_dot(y, vectors[t]) <= 0 for t in perp)


# ---------------------------------------------------------------------------
# Curvature by the Koszul formula


def antisymmetric(entries) -> dict[tuple[int, int, int], float]:
    """Sparse mu[a,b,c], 0-based, both orders of (a, b), from 1-based entries."""
    out: dict[tuple[int, int, int], float] = {}
    for (i, j, k), v in entries.items():
        if v:
            out[(i - 1, j - 1, k - 1)] = out.get((i - 1, j - 1, k - 1), 0.0) + v
            out[(j - 1, i - 1, k - 1)] = out.get((j - 1, i - 1, k - 1), 0.0) - v
    return {key: v for key, v in out.items() if v}


def rescaled(mu, p, u: float) -> dict[tuple[int, int, int], float]:
    """mu_u[i,j,k] = exp(u (p_k - p_i - p_j)) mu[i,j,k]."""
    return {(i, j, k): math.exp(u * (p[k] - p[i] - p[j])) * v for (i, j, k), v in mu.items()}


def koszul_ricci(n: int, mu) -> list[list[float]]:
    """Ricci operator of the left-invariant metric with orthonormal frame data mu.

    G[c,b,a] = <nabla_{e_c} e_b, e_a> = (mu[c,b,a] - mu[b,a,c] + mu[a,c,b]) / 2 and
    Ric[i,j] = sum_a <R(e_a, e_i) e_j, e_a>
             = sum_b G[i,j,b] sum_a G[a,b,a] - sum_{a,b} G[a,j,b] G[i,b,a]
               - sum_{a,c} mu[a,i,c] G[c,j,a].
    """
    gamma: dict[tuple[int, int, int], float] = {}
    for (x, y, z), v in mu.items():
        for key, w in (((x, y, z), 0.5 * v), ((z, x, y), -0.5 * v), ((y, z, x), 0.5 * v)):
            gamma[key] = gamma.get(key, 0.0) + w
    h = [0.0] * n
    by_ba: dict[tuple[int, int], list] = {}
    by_ca: dict[tuple[int, int], list] = {}
    for (c, b, a), g in gamma.items():
        if c == a:
            h[b] += g
        by_ba.setdefault((b, a), []).append((c, g))
        by_ca.setdefault((c, a), []).append((b, g))
    ric = [[0.0] * n for _ in range(n)]
    for (i, j, b), g in gamma.items():
        ric[i][j] += g * h[b]
    for (a, j, b), g in gamma.items():
        for i, g2 in by_ba.get((b, a), ()):
            ric[i][j] -= g * g2
    for (a, i, c), v in mu.items():
        for j, g in by_ca.get((c, a), ()):
            ric[i][j] -= v * g
    return ric


def divergence(n: int, mu, p) -> list[float]:
    """div_i = sum_j mu[i,j,j] (p_i - p_j)."""
    out = [0.0] * n
    for (i, j, k), v in mu.items():
        if j == k:
            out[i] += v * (p[i] - p[j])
    return out


def einstein_residual(n: int, mu, p, us=(-0.5, 0.0, 0.3, 0.8)) -> float:
    """Worst deviation of the deformed Ricci operator from tr(D) diag(p) - tr(D^2) id,
    over the given deformation times, together with the divergence."""
    tr, tr2 = sum(p), sum(x * x for x in p)
    worst = max((abs(x) for x in divergence(n, mu, p)), default=0.0)
    for u in us:
        ric = koszul_ricci(n, rescaled(mu, p, u))
        for i in range(n):
            for j in range(n):
                target = (tr * p[i] - tr2) if i == j else 0.0
                worst = max(worst, abs(ric[i][j] - target))
    return worst


def extension_ricci_at(n: int, mu, p, u: float) -> list[list[float]]:
    """Ricci of the extension at time u, frame index 0 the extending direction:
    (0,0) = -tr(D^2), (0,i) = div_i exp(-u p_i), block = Ric(mu_u) - tr(D) diag(p)."""
    tr, tr2 = sum(p), sum(x * x for x in p)
    ric = koszul_ricci(n, rescaled(mu, p, u))
    div = divergence(n, mu, p)
    out = [[0.0] * (n + 1) for _ in range(n + 1)]
    out[0][0] = -tr2
    for i in range(n):
        out[0][i + 1] = out[i + 1][0] = div[i] * math.exp(-u * p[i])
        for j in range(n):
            out[i + 1][j + 1] = ric[i][j] - (tr * p[i] if i == j else 0.0)
    return out


def jacobi_defect(n: int, mu) -> float:
    """max |[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]| over all frame triples."""
    by_first: dict[int, list] = {}
    for (a, b, c), v in mu.items():
        by_first.setdefault(a, []).append((b, c, v))

    def bracket_of_bracket(i, j, k) -> dict[int, float]:
        out: dict[int, float] = {}
        for m, v in ((c, v) for (b, c, v) in by_first.get(i, ()) if b == j):
            for b, c, w in by_first.get(m, ()):
                if b == k:
                    out[c] = out.get(c, 0.0) + v * w
        return out

    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total: dict[int, float] = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, v in bracket_of_bracket(a, b, c).items():
                        total[l] = total.get(l, 0.0) + v
                worst = max([worst, *(abs(v) for v in total.values())])
    return worst


def spec_from_json(data) -> tuple[int, dict, list[float], list[Fraction]]:
    """(n, sparse antisymmetric mu, float eigenvalues, exact eigenvalues) of algebra JSON."""
    n = int(data["dim"])
    entries: dict[tuple[int, int, int], float] = {}
    for item in data.get("mu", []):
        key = (int(item["i"]), int(item["j"]), int(item["k"]))
        entries[key] = entries.get(key, 0.0) + float(parse_number(item["v"]))
    exact = [parse_form(v, data.get("param")) for v in data["spectral"]]
    return n, antisymmetric(entries), [float(x) for x in exact], exact


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="brute-force eigenvalue types")
    parser.add_argument("--dim", type=int, required=True)
    args = parser.parse_args(argv)
    types = sorted(brute_force_types(args.dim))
    json.dump({"dim": args.dim, "command": DIM5_COMMAND if args.dim == 5 else None,
               "types": [list(t) for t in types]}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
