"""Admissible eigenvalue types of rank-one Einstein extensions.

Everything in this module is exact rational arithmetic.  The central
objects are the root triples f_i + f_j - f_k, the candidate eigenvalue
vector obtained by projecting the all-ones vector onto the orthogonal
complement of the span of a linearly independent set of such triples, and
the consistency conditions that an admissible type must satisfy
(orthogonality, nonzero entries, nonzero trace, maximality of the defining
subset).  The projector comes from :mod:`einext.ratlinalg`, exact and
fraction-free.

Cone membership of the projected all-ones vector is decided by an exact
phase-one simplex and returns a checkable certificate either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .exactlp import cone_decompose
from .ratlinalg import (
    complement_projector,
    extend,
    images,
    projector_from_key,
    projector_key,
)

DEFAULT_DIMENSION_CAP = 7


class DimensionError(ValueError):
    """Dimension below 2 or mismatched sizes."""


class RankError(ValueError):
    """Linearly dependent columns where independence is required."""


class DimensionCapError(ValueError):
    """Enumeration requested above the configured dimension cap."""


class RootTriple(NamedTuple):
    """Indices (i, j | k), 1-based, standing for the vector f_i + f_j - f_k."""

    i: int
    j: int
    k: int

    def validate(self, dim: int) -> "RootTriple":
        i, j, k = self
        if not (1 <= i < j <= dim):
            raise ValueError(f"need 1 <= i < j <= {dim}, got ({i},{j}|{k})")
        if not (1 <= k <= dim) or k in (i, j):
            raise ValueError(f"need k outside {{i, j}}, got ({i},{j}|{k})")
        return self

    def vector(self, dim: int) -> tuple[int, ...]:
        vec = [0] * dim
        vec[self.i - 1] += 1
        vec[self.j - 1] += 1
        vec[self.k - 1] -= 1
        return tuple(vec)

    def __str__(self) -> str:
        return f"({self.i},{self.j}|{self.k})"


def build_root_set(dim: int) -> list[RootTriple]:
    """All root triples in dimension ``dim``, in lexicographic order."""
    if dim < 2:
        raise DimensionError(f"dimension must be at least 2, got {dim}")
    return [
        RootTriple(i, j, k)
        for i in range(1, dim + 1)
        for j in range(i + 1, dim + 1)
        for k in range(1, dim + 1)
        if k not in (i, j)
    ]


@dataclass(frozen=True)
class SpectralVector:
    """Eigenvalue tuple of the deforming endomorphism, exact rationals."""

    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.entries) < 2:
            raise DimensionError("spectral vector needs at least 2 entries")
        object.__setattr__(self, "entries", tuple(Fraction(x) for x in self.entries))

    @staticmethod
    def of(values: Iterable) -> "SpectralVector":
        return SpectralVector(tuple(Fraction(v) for v in values))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def total(self) -> Fraction:
        return sum(self.entries, Fraction(0))

    def norm_sq(self) -> Fraction:
        return sum((x * x for x in self.entries), Fraction(0))

    def canonical(self) -> "SpectralVector":
        """Sorted nondecreasing, coprime integer entries, normalized sign.

        The sign is fixed so the entry sum is positive; for zero-sum vectors
        the largest-magnitude value must occur with positive sign.
        """
        ent = list(self.entries)
        if all(x == 0 for x in ent):
            return SpectralVector(tuple(sorted(ent)))
        scale = Fraction(math.lcm(*(x.denominator for x in ent)))
        ints = [int(x * scale) for x in ent]
        g = math.gcd(*(abs(v) for v in ints))
        ints = [v // g for v in ints]
        total = sum(ints)
        if total < 0:
            ints = [-v for v in ints]
        elif total == 0:
            top = max(abs(v) for v in ints)
            if top not in ints:
                ints = [-v for v in ints]
        return SpectralVector(tuple(Fraction(v) for v in sorted(ints)))

    def as_ints(self) -> tuple[int, ...]:
        if any(x.denominator != 1 for x in self.entries):
            raise ValueError("entries are not integers; canonicalize first")
        return tuple(x.numerator for x in self.entries)

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.entries) + ")"


@dataclass(frozen=True)
class RootMatrix:
    """Ordered independent root triples over dimension ``dim`` (columns of V)."""

    dim: int
    triples: tuple[RootTriple, ...]

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise DimensionError(f"dimension must be at least 2, got {self.dim}")
        object.__setattr__(self, "triples", tuple(self.triples))
        for t in self.triples:
            t.validate(self.dim)
        _, _, independent = complement_projector(self.columns(), self.dim)
        for t, ok in zip(self.triples, independent):
            if not ok:
                raise RankError(f"column {t} depends on the previous columns")

    @property
    def ncols(self) -> int:
        return len(self.triples)

    def columns(self) -> list[tuple[int, ...]]:
        return [t.vector(self.dim) for t in self.triples]


def _dot(u: Sequence, v: Sequence) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def raw_candidate(V: RootMatrix) -> tuple[Fraction, ...]:
    """Exact 1_n - V (V^t V)^{-1} 1_m, in the original index order.

    Every root column sums to 1, so V^t 1_n = 1_m and this is the projection
    of 1_n onto the orthogonal complement of the column span: the row sums of
    the projector.
    """
    Q, d, _ = complement_projector(V.columns(), V.dim)
    return tuple(Fraction(int(s), d) for s in Q.sum(axis=1))


def candidate_spectral(V: RootMatrix) -> SpectralVector:
    """Canonicalized candidate eigenvalue vector defined by V."""
    return SpectralVector(raw_candidate(V)).canonical()


@dataclass
class ConsistencyReport:
    """Outcome of the admissibility conditions for a (p, V) pair."""

    ok: bool
    conditions: dict[str, bool]
    trace: Fraction
    notes: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "conditions": dict(self.conditions),
            "trace": str(self.trace),
            "notes": list(self.notes),
        }


def perp_roots(
    p: Sequence[Fraction], root_set: Optional[Sequence[RootTriple]] = None
) -> list[RootTriple]:
    """The root triples orthogonal to p."""
    n = len(p)
    roots = build_root_set(n) if root_set is None else list(root_set)
    return [t for t in roots if p[t.i - 1] + p[t.j - 1] - p[t.k - 1] == 0]


def root_matrix_for(
    p: "SpectralVector | Sequence[Fraction]",
    root_set: Optional[Sequence[RootTriple]] = None,
) -> RootMatrix:
    """A maximal independent subset of the roots orthogonal to p (greedy)."""
    entries = p.entries if isinstance(p, SpectralVector) else tuple(Fraction(x) for x in p)
    n = len(entries)
    perp = perp_roots(entries, root_set)
    _, _, independent = complement_projector([t.vector(n) for t in perp], n)
    return RootMatrix(n, tuple(t for t, ok in zip(perp, independent) if ok))


def check_consistency(
    p: "SpectralVector | Sequence[Fraction]",
    V: RootMatrix,
    root_set: Optional[Sequence[RootTriple]] = None,
) -> ConsistencyReport:
    """Admissibility of p with defining matrix V.

    Checks, all exactly: V^t p = 0, every entry nonzero, nonzero entry sum,
    and that the columns of V span all roots orthogonal to p.
    """
    entries = p.entries if isinstance(p, SpectralVector) else tuple(Fraction(x) for x in p)
    if len(entries) != V.dim:
        raise DimensionError(f"p has {len(entries)} entries, V has dimension {V.dim}")
    cols = V.columns()
    orthogonal = all(_dot(c, entries) == 0 for c in cols)
    nonzero_entries = all(x != 0 for x in entries)
    trace = sum(entries, Fraction(0))
    Q, _, _ = complement_projector(cols, V.dim)
    perp = [t.vector(V.dim) for t in perp_roots(entries, root_set)]
    maximal = not images(np.array(perp, dtype=np.int64).reshape(-1, V.dim), Q).any()
    conditions = {
        "orthogonal": orthogonal,
        "nonzero_entries": nonzero_entries,
        "nonzero_trace": trace != 0,
        "maximal": maximal,
    }
    notes = []
    if trace == 0:
        notes.append(
            "entry sum is zero: pairing the candidate formula with p forces "
            "|p|^2 = 0, so no admissible type has this trace"
        )
    return ConsistencyReport(all(conditions.values()), conditions, trace, notes)


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
        n = len(self.target)
        if self.feasible:
            assert self.coefficients is not None
            total = [Fraction(0)] * n
            for t, c in self.coefficients.items():
                if c < 0:
                    return False
                vec = t.vector(n)
                total = [a + c * b for a, b in zip(total, vec)]
            return tuple(total) == tuple(self.target)
        assert self.witness is not None
        if _dot(self.witness, self.target) <= 0:
            return False
        return all(_dot(self.witness, t.vector(n)) <= 0 for t in self.generators)

    def as_dict(self) -> dict:
        out: dict = {"feasible": self.feasible}
        if self.coefficients is not None:
            out["coefficients"] = {str(t): str(c) for t, c in self.coefficients.items()}
        if self.witness is not None:
            out["witness"] = [str(x) for x in self.witness]
        return out


def cone_membership(
    p: "SpectralVector | Sequence[Fraction]",
    root_set: Optional[Sequence[RootTriple]] = None,
) -> ConeCertificate:
    """Decide exactly whether |p|^2 1_n - (sum p) p is a nonnegative
    combination of the roots orthogonal to p."""
    entries = p.entries if isinstance(p, SpectralVector) else tuple(Fraction(x) for x in p)
    if any(x == 0 for x in entries):
        raise ValueError("cone membership requires all entries of p to be nonzero")
    n = len(entries)
    norm_sq = sum((x * x for x in entries), Fraction(0))
    trace = sum(entries, Fraction(0))
    target = tuple(norm_sq - trace * x for x in entries)
    gens = perp_roots(entries, root_set)
    coeffs, witness = cone_decompose([t.vector(n) for t in gens], target)
    if coeffs is not None:
        mapping = dict(zip(gens, coeffs))
        return ConeCertificate(True, target, tuple(gens), coefficients=mapping)
    return ConeCertificate(False, target, tuple(gens), witness=tuple(witness))


def _enumerate_unfiltered(dim: int) -> set[SpectralVector]:
    """Breadth-first walk over the subspaces W spanned by root subsets.

    The candidate depends only on W: it is the projection of 1_n onto the
    complement of W, proportional to the row sums of that projector Q / d.
    Each level holds the subspaces of one rank below n - 1, deduped by the
    exact projector, so each is visited once.  Roots orthogonal to the
    candidate lie in W exactly when their images under Q vanish, so the
    images that give the children also decide maximality.  Hyperplanes are
    never stored: their candidates are read off the children of the level
    below, and need no maximality check.

    Only subspaces through the root (1,2|3) are walked, plus the zero one
    for the scalar type.  S_n permutes the roots (i,j|k) transitively, so
    every nonzero W spanned by roots is sigma W' for a permutation sigma
    and a W' spanned by roots through (1,2|3) (extend that root to a basis
    of W' from its spanning roots, so the walk reaches W').  Permuting
    indices commutes with the projector and fixes 1_n, so the candidate of
    sigma W' is the permuted candidate of W'; the consistency checks and
    the canonical form are permutation invariant.
    """
    roots = np.array([t.vector(dim) for t in build_root_set(dim)], dtype=np.int64)
    roots = roots.reshape(-1, dim)
    found: set[tuple[int, ...]] = set()

    def add_types(sums: np.ndarray) -> None:
        # Rows of candidates with every entry and the entry sum nonzero.  The
        # sum is 1^t Q 1 = d |P 1|^2 > 0, so sorting and dividing by the gcd
        # gives the canonical form.
        sums = np.sort(sums[sums.all(axis=1) & (sums.sum(axis=1) != 0)], axis=1)
        sums //= np.gcd.reduce(sums, axis=1)[:, None]
        found.update(map(tuple, sums.tolist()))

    level = {projector_key(np.eye(dim, dtype=np.int64), 1)}
    for rank in range(dim - 1):
        children: set[tuple] = set()
        for key in level:
            Q, d = projector_from_key(key, dim)
            U = images(roots, Q)
            sums = Q.sum(axis=1)
            if not U[roots @ sums == 0].any():
                add_types(sums[None, :])
            # The zero subspace grows only by the start root (1,2|3).
            numer, denom = extend(Q, d, U[:1] if rank == 0 else U)
            if rank + 1 < dim - 1:
                children.update(map(projector_key, numer, denom.tolist()))
            else:
                # A hyperplane's complement is the line of its candidate, so
                # every root orthogonal to the candidate lies in it: maximal.
                add_types(numer.sum(axis=2))
        level = children
    return {SpectralVector.of(t).canonical() for t in found}


def enumerate_types(
    dim: int,
    apply_cone_filter: bool = False,
    cap: int = DEFAULT_DIMENSION_CAP,
) -> set[SpectralVector]:
    """All admissible eigenvalue types in dimension ``dim``, canonicalized.

    Walks the subspaces spanned by root subsets once each (up to the
    permutations that move the root (1,2|3)), applies the candidate formula
    and the consistency conditions, and dedupes up to index permutation.
    The scalar type (1,...,1) is always present.  With
    ``apply_cone_filter`` the cone-membership condition is also enforced.
    """
    if dim < 2:
        raise DimensionError(f"dimension must be at least 2, got {dim}")
    if dim > cap:
        raise DimensionCapError(
            f"dimension {dim} exceeds the enumeration cap {cap}; "
            f"pass cap={dim} explicitly to override"
        )
    types = _enumerate_unfiltered(dim)
    if apply_cone_filter:
        types = {p for p in types if cone_membership(p).feasible}
    return types


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
    unfiltered = enumerate_types(dim, apply_cone_filter=False, cap=cap)
    filtered = {p for p in unfiltered if cone_membership(p).feasible}
    return EnumerationReport(dim, unfiltered, filtered)
