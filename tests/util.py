"""Shared samplers for the randomized suites, the exact projector onto the
complement of a span that the projector tests build on, and small helpers
over the library that only tests need: the dense n^3 array of a tensor,
a batch of cone LPs in Fractions through one simplex call, the roots
orthogonal to a type by their exact weights, the canonical form of a type,
relabelling a frame, the first relation p_k = p_i + p_j, and the solver's
residual of a given tensor, stacked term by term from the tensor as the
cross-check of the solver's quadratic model."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from einext.algebra import (
    ExtensionSpec,
    StructureTensor,
    _jacobi_pairs,
    divergence_residual,
    exponents,
    full_pattern,
    make_spec,
)
from einext.curvature import _grouped_terms
from einext.exactlp import Tableaux, cone_decompose
from einext.ratlinalg import _exact, extend, images, projector_keys, projectors
from einext.scalars import scaled_to_integers
from einext.spectral import SpectralVector, build_root_set


def dense(mu: StructureTensor) -> np.ndarray:
    """The array T[i-1, j-1, k-1] = mu[i,j|k], filled from the tensor's support."""
    T = np.zeros((mu.dim,) * 3)
    index, value = mu.support()
    T[tuple(index)] = value
    return T


def cone_batch(instances) -> tuple[list, Tableaux]:
    """Each (generators, target) of one dimension, in ints or Fractions, through
    one ``cone_decompose`` call: per instance ``(coefficients, witness)`` in the
    input's units, each column scaled to integers by the lcm of its
    denominators; and the final tableaux."""
    n = len(instances[0][1])
    G = np.zeros((len(instances), max(len(g) for g, _ in instances), n), dtype=object)
    T = np.zeros((len(instances), n), dtype=object)
    scales = []
    for b, (generators, target) in enumerate(instances):
        gscales = []
        for c, g in enumerate(generators):
            G[b, c], s = scaled_to_integers([Fraction(x) for x in g])
            gscales.append(s)
        T[b], s = scaled_to_integers([Fraction(x) for x in target])
        scales.append((gscales, s))
    tableaux = cone_decompose(_exact(G), _exact(T))
    out = []
    for b, (gscales, s) in enumerate(scales):
        coeffs, witness = tableaux.certificate(b, len(gscales), s)
        out.append(([c * g for c, g in zip(coeffs, gscales)] if coeffs is not None else None, witness))
    return out, tableaux


def perp_roots(p) -> list:
    """The root triples orthogonal to p: those whose weight p_k - p_i - p_j is 0."""
    roots = build_root_set(len(p))
    return [t for t, e in zip(roots, exponents(p, roots)[0]) if e == 0]


def random_sparse_tensor(rng, max_dim: int = 5):
    """Random sparse frame data: entries in [-1, 1], eigenvalues int in [-3, 3]."""
    n = int(rng.integers(2, max_dim + 1))
    entries = {}
    for _ in range(int(rng.integers(1, n + 2))):
        i, j = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False).tolist())
        k = int(rng.integers(1, n + 1))
        entries[(int(i), int(j), int(k))] = float(rng.uniform(-1, 1))
    p = [int(x) for x in rng.integers(-3, 4, size=n)]
    return StructureTensor(n, entries), p


def random_lie_tensor(rng, max_dim: int = 4):
    """Random structure constants satisfying the Jacobi identity exactly.

    Draws from three families that are Lie algebras by construction for any
    values: abelian, two-step nilpotent (all brackets land in a central
    slice), and a single generator acting linearly on an abelian ideal.
    """
    n = int(rng.integers(2, max_dim + 1))
    family = int(rng.integers(0, 3))
    entries = {}
    if family == 1 and n >= 3:
        center = int(rng.integers(1, n - 1))
        for _ in range(int(rng.integers(1, n + 1))):
            i, j = sorted(
                rng.choice(np.arange(1, n - center + 1), size=2, replace=False).tolist()
            ) if n - center >= 2 else (0, 0)
            if i == 0:
                continue
            k = int(rng.integers(n - center + 1, n + 1))
            entries[(int(i), int(j), int(k))] = float(rng.uniform(-1, 1))
    elif family == 2:
        for i in range(1, n):
            for j in range(1, n):
                if i != j and rng.uniform() < 0.4:
                    entries[(n, i, j)] = float(rng.uniform(-1, 1))
                elif i == j and rng.uniform() < 0.4:
                    entries[(n, i, i)] = float(rng.uniform(-1, 1))
    return StructureTensor(n, entries, lie=True), [int(x) for x in rng.integers(-3, 4, size=n)]


def _int_rows(vectors: Sequence[Sequence], dim: int) -> np.ndarray:
    """Each vector scaled by the lcm of its denominators, as integer rows."""
    rows = []
    for vec in vectors:
        fracs = [Fraction(x) for x in vec]
        scale = math.lcm(*(f.denominator for f in fracs))
        rows.append([int(f * scale) for f in fracs])
    return _exact(np.array(rows, dtype=object).reshape(len(rows), dim))


def complement_projector(
    vectors: Sequence[Sequence], dim: int
) -> tuple[np.ndarray, int, list[bool]]:
    """The projector Q / d onto the complement of the span of ``vectors``.

    Vectors are added in order; the flags say which of them were independent
    of the ones before.  Entries may be integers or rationals.
    """
    key = projector_keys(np.eye(dim, dtype=np.int64)[None], [1])
    independent = []
    for row in _int_rows(vectors, dim):
        # A batch of one parent and one image.
        u = images(row[None, :], projectors(key, dim)[0])
        independent.append(bool(u.any()))
        if independent[-1]:
            key = extend(key, u)
    Q, d = projectors(key, dim)
    return Q[0], int(d[0]), independent


def canonical(p: SpectralVector) -> SpectralVector:
    """Sorted nondecreasing, coprime integer entries, normalized sign.

    The sign is fixed so the entry sum is positive; for zero-sum vectors
    the largest-magnitude value must occur with positive sign.
    """
    ints, _ = scaled_to_integers(p.entries)
    g, total, top = math.gcd(*ints) or 1, sum(ints), max(map(abs, ints))
    sign = -1 if total < 0 or (total == 0 and top not in ints) else 1
    return SpectralVector(tuple(sorted(sign * v // g for v in ints)))


def permuted(mu: StructureTensor, perm: dict) -> StructureTensor:
    """Relabel frame indices by old -> new; perm is a bijection of 1..n."""
    return StructureTensor(mu.dim, {(perm[i], perm[j], perm[k]): v for (i, j, k), v in mu.items()})


def relation_exists(p: Sequence[Fraction]):
    """First (i, j, k), i < j, with p_k = p_i + p_j; None when no relation holds."""
    triples = full_pattern(len(p))
    return next((t for t, e in zip(triples, exponents(p, triples)[0]) if e == 0), None)


def jacobi_components(mu: StructureTensor) -> np.ndarray:
    """The Jacobi sums of ``algebra._jacobi_pairs``: the sum of triple i < j < k
    and l at slot ((i*n + j)*n + k)*n + l, and 0 on the other slots of the n^4."""
    n, support = mu.dim, mu.support()
    pairs = _jacobi_pairs(support, n)
    return np.bincount(pairs.slot, pairs.products(support.value), minlength=n**4)


def _stack_residual(spec: ExtensionSpec, keys: Sequence[Fraction], jacobi_weight: float) -> np.ndarray:
    """The rows of the solver's model, formed from the tensor: each class of
    ``keys`` entrywise on the upper triangle (the constant one against the
    Einstein target), the divergence and the weighted Jacobi components."""
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


def residual_vector(mu: StructureTensor, spectral, jacobi_weight: float = 1.0) -> np.ndarray:
    """The solver's stacked residual of mu for the eigenvalues: the constant
    class and every class mu touches, the divergence and the weighted Jacobi rows."""
    spec = make_spec(mu, spectral)
    keys = sorted(set(_grouped_terms(spec)) | {Fraction(0)})
    return _stack_residual(spec, keys, jacobi_weight)
