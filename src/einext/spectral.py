"""Admissible eigenvalue types of rank-one Einstein extensions, exactly.

The central objects are the root triples f_i + f_j - f_k and, for a
subspace W spanned by roots, the candidate: the projection of the all-ones
vector onto the complement of W.  It is an admissible type when every
entry and the entry sum are nonzero and every root orthogonal to it lies
in W.  Cone membership is decided by an exact simplex, with a checkable
certificate either way; the types of an enumeration are decided together,
as one batch of LPs stacked with numpy, in one simplex call.

A type is an unordered multiset, so S_n acts on every stage of the walk
over those subspaces, and the walk keeps one permuted representative of
each subspace it builds (:func:`einext.ratlinalg.permuted_keys`): not a
canonical form, since two of one orbit may keep two keys, but enough.
Every subspace V = W + span(rho) spanned by roots, of rank r + 1, has a W
of rank r spanned by roots; if W = tau R for a kept R, then tau^-1 V = R +
span(tau^-1 rho) is a child of R, as S_n permutes the roots.  So, level by
level, each orbit keeps a representative, and the types are S_n-invariant.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .exactlp import Tableaux, cone_decompose
from .ratlinalg import _exact, _top, _widen, distinct, extend, images, narrowest, permuted_keys, projector_keys, projectors, reject
from .scalars import parse_rational, scaled_to_integers

DEFAULT_DIMENSION_CAP = 7
# Root-image entries per chunk of a level in the type walk: bounds the chunk's arrays.
_CHUNK_ENTRIES = 2**13


class DimensionError(ValueError):
    """Dimension below 2, or not an integer."""


class DimensionCapError(ValueError):
    """Enumeration requested above the configured dimension cap."""


class RootTriple(NamedTuple):
    """Indices (i, j | k), 1-based, standing for the vector f_i + f_j - f_k."""

    i: int
    j: int
    k: int

    def vector(self, dim: int) -> tuple[int, ...]:
        return tuple((x == self.i) + (x == self.j) - (x == self.k) for x in range(1, dim + 1))

    def __str__(self) -> str:
        return f"({self.i},{self.j}|{self.k})"


def _require_dim(dim: int) -> None:
    # 3.0 and 2.5 are refused by name, before range() would refuse them; True
    # is an Integral, and is refused as below 2.
    if not isinstance(dim, numbers.Integral):
        raise DimensionError(f"dimension must be an integer, got {dim!r}")
    if dim < 2:
        raise DimensionError(f"dimension must be at least 2, got {dim}")


def build_root_set(dim: int) -> list[RootTriple]:
    """All root triples in dimension ``dim``, in lexicographic order."""
    _require_dim(dim)
    pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    return [RootTriple(i, j, k) for i, j in pairs for k in range(1, dim + 1) if k not in (i, j)]


@dataclass(frozen=True)
class SpectralVector:
    """Eigenvalue tuple of the deforming endomorphism, exact rationals.

    The hash is taken once, from the entries' (numerator, denominator)
    pairs, which equal vectors share: a set insertion hashes no Fraction.
    """

    entries: tuple[Fraction, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        entries = tuple(map(parse_rational, self.entries))
        if len(entries) < 2:
            raise DimensionError("spectral vector needs at least 2 entries")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_hash", hash(tuple(map(Fraction.as_integer_ratio, entries))))

    def __hash__(self) -> int:
        return self._hash


@functools.cache
def _roots(dim: int) -> tuple[list[RootTriple], np.ndarray]:
    """The root triples in dimension ``dim`` and their read-only int64 vectors, built once per dimension."""
    triples = build_root_set(dim)
    vectors = np.array([t.vector(dim) for t in triples], dtype=np.int64).reshape(-1, dim)
    vectors.flags.writeable = False
    return triples, vectors


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


@dataclass
class ConeCertificate:
    """Exact certificate for the cone-membership test.

    Feasible: coefficients give the target as a nonnegative combination of
    the orthogonal roots.  Infeasible: the witness has nonpositive inner
    product with every generator and positive inner product with the target.
    """

    feasible: bool
    target: tuple[Fraction, ...]
    generators: tuple[RootTriple, ...]
    coefficients: Optional[dict[RootTriple, Fraction]] = None
    witness: Optional[tuple[Fraction, ...]] = None

    def verify(self) -> bool:
        """Check the certificate by substitution, on values scaled to integers."""
        n = len(self.target)
        if self.feasible:
            assert self.coefficients is not None
            # One positive scale turns the target and the coefficients to integers.
            ints, _ = scaled_to_integers([*self.target, *self.coefficients.values()])
            vectors = [t.vector(n) for t in self.coefficients]
            total = [_dot(ints[n:], [v[i] for v in vectors]) for i in range(n)]
            return min(ints[n:], default=0) >= 0 and total == ints[:n]
        assert self.witness is not None
        y, target = scaled_to_integers(self.witness)[0], scaled_to_integers(self.target)[0]
        return _dot(y, target) > 0 and all(_dot(y, t.vector(n)) <= 0 for t in self.generators)

    def as_dict(self) -> dict:
        out: dict = {"feasible": self.feasible}
        if self.coefficients is not None:
            out["coefficients"] = {str(t): str(c) for t, c in self.coefficients.items()}
        if self.witness is not None:
            out["witness"] = [str(x) for x in self.witness]
        return out


def _cone_lps(types: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray, Tableaux]:
    """One simplex call: for integer types q of one dimension, is |q|^2 1 - (sum q) q a
    nonnegative combination of the roots orthogonal to q (q_i + q_j - q_k = 0), in root
    order, padded with zero rows?  Returns the mask of those roots, the targets, the tableaux."""
    Q = _exact(np.array(types, dtype=object))
    roots = _roots(Q.shape[1])[1]
    perp = Q @ roots.T == 0
    counts = perp.sum(axis=1)
    M = int(counts.max(initial=0))
    order = np.argsort(~perp, axis=1, kind="stable")[:, :M]
    generators = roots[order] * (np.arange(M) < counts[:, None])[:, :, None]
    (Q,) = _widen(2 * Q.shape[1] * _top(Q) ** 2, Q)
    targets = (Q * Q).sum(axis=1, keepdims=True) - Q.sum(axis=1, keepdims=True) * Q
    return perp, targets, cone_decompose(generators, targets)


def cone_membership(p: "SpectralVector | Sequence[Fraction]") -> ConeCertificate:
    """Decide exactly whether |p|^2 1_n - (sum p) p is a nonnegative
    combination of the roots orthogonal to p: the batch of one LP."""
    entries = p.entries if isinstance(p, SpectralVector) else tuple(map(parse_rational, p))
    if any(x == 0 for x in entries):
        raise ValueError("cone membership requires all entries of p to be nonzero")
    # On p scaled to integers q = s p: the target is (|q|^2 - (sum q) q) / s^2.
    q, s = scaled_to_integers(entries)
    perp, targets, tableaux = _cone_lps([q])
    gens = tuple(compress(_roots(len(q))[0], perp[0]))
    target = tuple(Fraction(x, s * s) for x in targets[0].tolist())
    coeffs, witness = tableaux.certificate(0, len(gens), s * s)
    if coeffs is not None:
        return ConeCertificate(True, target, gens, coefficients=dict(zip(gens, coeffs)))
    return ConeCertificate(False, target, gens, witness=tuple(witness))


def _walk(dim: int, cap: int) -> list[tuple[int, ...]]:
    """Breadth-first walk, level by level, over the subspaces W spanned by
    roots, for an integer ``dim`` from 2 up to the cap.  Returns the types as
    integer tuples in canonical form.

    The candidate of W is the row sums of its projector Q / d onto the
    complement.  A level holds the subspaces of one rank below n - 1 as key
    rows (:mod:`einext.ratlinalg`), deduped by key, and is walked in bounded
    chunks: one product gives the images of all roots under all projectors
    of a chunk, which decide maximality and give the children, built in one
    broadcast.  Hyperplanes are never stored: the level below yields them.

    The walk runs on orbits of S_n.  Permuting indices commutes with the
    projector and fixes 1_n, and the admissibility checks and the canonical
    form are permutation invariant, so sigma W has the type of W.  Each
    child is stored as sigma Q sigma^t / d, with sigma sorting the indices
    by (Q_ii, sorted row i of Q), before the dedup: one orbit then keeps
    one key or a few.  No orbit is lost: a subspace of rank r + 1 spanned
    by roots is tau (R + span(rho)) for a stored R of rank r, a permutation
    tau and a root rho, and that child of R is built.
    """
    _require_dim(dim)
    if dim > cap:
        raise DimensionCapError(
            f"dimension {dim} exceeds the enumeration cap {cap}; "
            f"pass cap={dim} (--cap {dim} on the command line) explicitly to override"
        )
    roots = _roots(dim)[1]
    chunk = max(1, _CHUNK_ENTRIES // (len(roots) * dim or 1))
    found: set[tuple[int, ...]] = set()

    def add_types(sums: np.ndarray) -> None:
        # Rows with every entry nonzero, so the sum 1^t Q 1 = d |P 1|^2 > 0 too:
        # sorted and divided by the gcd, they are in canonical form.
        sums = np.sort(sums[sums.all(axis=1)], axis=1)
        sums //= np.gcd.reduce(sums, axis=1)[:, None]
        found.update(map(tuple, distinct(sums).tolist()))

    level = projector_keys(np.eye(dim, dtype=np.int64)[None], [1])
    for rank in range(dim - 1):
        # Deduped children, and later ones, merged when the later pass half as many.
        stored, pending = narrowest(level[:0]), []
        for start in range(0, len(level), chunk):
            keys = _exact(level[start : start + chunk])
            Q, _ = projectors(keys, dim)
            U = images(roots, Q)
            sums, moved = Q.sum(axis=2), U.any(axis=2)
            # <r, Q 1> = <Q r, 1>: a root is orthogonal to the candidate when
            # its image sums to zero, and lies in W when its image vanishes.
            candidates = [sums[~(moved & (U.sum(axis=2) == 0)).any(axis=1)]]
            if rank < dim - 2:
                pending.append(narrowest(distinct(permuted_keys(extend(keys, U), dim))))
                if 2 * sum(map(len, pending)) > len(stored):
                    stored, pending = distinct(np.concatenate([stored, *pending])), []
            else:
                # The hyperplane W + span(r) has as complement the part of W's
                # orthogonal to u = Q r, so its candidate is P 1 less its part
                # along u; maximal, as it spans the hyperplane's complement.
                candidates.append(reject(sums, U).reshape(-1, dim))
            add_types(np.concatenate(candidates))
        level = distinct(np.concatenate([stored, *pending]))
    return list(found)


def _vectors(types: list[tuple[int, ...]]) -> list[SpectralVector]:
    """A SpectralVector of each integer type, all sharing one Fraction per entry value."""
    shared = {x: Fraction(x) for x in {x for t in types for x in t}}
    return [SpectralVector(tuple(map(shared.__getitem__, t))) for t in types]


def enumerate_types(dim: int, cap: int = DEFAULT_DIMENSION_CAP) -> set[SpectralVector]:
    """All admissible eigenvalue types in dimension ``dim``, canonicalized.

    The scalar type (1,...,1) is always present.  The cone condition is a
    separate filter: :func:`cone_membership`, or :func:`enumeration_report`
    for both sets.
    """
    return set(_vectors(_walk(dim, cap)))


@dataclass
class EnumerationReport:
    """Both the unfiltered and the cone-filtered type sets, for comparison."""

    dim: int
    unfiltered: set[SpectralVector]
    cone_filtered: set[SpectralVector]

    @property
    def cone_rejected(self) -> set[SpectralVector]:
        return self.unfiltered - self.cone_filtered

    @property
    def consistent(self) -> bool:
        return not self.cone_rejected


def enumeration_report(dim: int, cap: int = DEFAULT_DIMENSION_CAP) -> EnumerationReport:
    """The walk's types and those that pass the cone condition, all decided
    in one simplex call, read off each LP's final phase-one objective."""
    types = _walk(dim, cap)
    vectors = _vectors(types)
    feasible = _cone_lps(types)[2].feasible
    return EnumerationReport(dim, set(vectors), set(compress(vectors, feasible)))
