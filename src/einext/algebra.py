"""Metric Lie algebras and homogeneous frame data via structure constants.

The basic object is the tensor of constants mu[i,j|k] = <[e_i, e_j], e_k>
in an orthonormal frame (antisymmetric in i, j; indices 1-based), stored
once as its dense read-only array, which every later layer reads.  An
:class:`ExtensionSpec` pairs such a tensor with the exact rational
eigenvalues of the diagonal deforming endomorphism and their float image,
also formed once.  :func:`make_spec` reads the eigenvalues, substituting the
value of the one free parameter t into any affine form "a+b*t" on the way
in, so every later layer compares plain Fractions.

The weight p_k - p_i - p_j with which D acts on mu[i,j|k] is computed
exactly in one place, :func:`exponents`.  The Lie-theoretic primitives here
(Jacobi residual, divergence condition, derivation test, and the standard
modification, which twists D into a derivation) are what the curvature and
verification layers build on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .scalars import RationalLike, format_rational, parse_affine, parse_rational, scaled_to_integers

DEFAULT_JACOBI_TOL = 1e-10


class StructureError(ValueError):
    """Invalid structure constants or violated operation preconditions."""


class DecompositionError(ValueError):
    """Orthogonal decomposition axioms violated."""


class PatternViolationError(StructureError):
    """Entries outside the sparsity pattern required by the operation."""


class CommutationError(StructureError):
    """Operator families fail to commute within tolerance."""


class StructureTensor:
    """Structure constants of an n-dimensional orthonormal frame.

    The one store is the dense antisymmetric array T[i-1, j-1, k-1] =
    mu[i,j|k], read-only once built; an entry given as (j, i, k) adds its
    negative to mu[i,j|k].  Set ``lie=True`` to assert the Jacobi identity at
    construction (frame data that is not a Lie algebra skips the check).
    """

    __slots__ = ("dim", "_T")

    def __init__(
        self,
        dim: int,
        entries: Optional[Mapping[tuple[int, int, int], float]] = None,
        *,
        lie: bool = False,
    ):
        if dim < 1:
            raise StructureError(f"dimension must be positive, got {dim}")
        self.dim = dim
        T = np.zeros((dim, dim, dim))
        for (i, j, k), value in (entries or {}).items():
            for idx in (i, j, k):
                if not 1 <= idx <= dim:
                    raise StructureError(f"index {idx} outside 1..{dim}")
            v = float(value)
            if i == j:
                raise StructureError(f"mu[{i},{j}|{k}] must vanish (antisymmetry)")
            if not math.isfinite(v):
                raise StructureError(f"mu[{i},{j}|{k}] = {v} is not finite")
            T[i - 1, j - 1, k - 1] += v
            T[j - 1, i - 1, k - 1] -= v
        T.flags.writeable = False
        self._T = T
        if lie:
            res = jacobi_residual(self)
            if res > DEFAULT_JACOBI_TOL:
                raise StructureError(f"Jacobi identity violated (residual {res:.3e})")

    def items(self) -> list[tuple[tuple[int, int, int], float]]:
        """Nonzero entries with i < j, in sorted index order, as Python numbers."""
        upper = np.triu(np.ones((self.dim, self.dim), dtype=bool), 1)[:, :, None]
        index = np.nonzero(upper & (self._T != 0.0))
        triples = zip(*(1 + np.array(index)).tolist())
        return list(zip(triples, self._T[index].tolist()))

    def dense(self) -> np.ndarray:
        """The stored read-only array T[i-1, j-1, k-1] = mu[i,j|k]."""
        return self._T

    def __repr__(self) -> str:
        body = ", ".join(f"mu[{i},{j}|{k}]={v:g}" for (i, j, k), v in self.items())
        return f"StructureTensor(dim={self.dim}, {body or 'zero'})"


@dataclass(frozen=True, eq=False)
class ExtensionSpec:
    """Frame data together with the eigenvalues of the deforming endomorphism.

    The endomorphism is diagonal in the frame, D e_i = p_i e_i, with exact
    rational eigenvalues; :func:`make_spec` reads them from other input.
    """

    algebra: StructureTensor
    spectral: tuple[Fraction, ...]
    _p: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "spectral", tuple(self.spectral))
        if len(self.spectral) != self.algebra.dim:
            raise StructureError(
                f"{len(self.spectral)} eigenvalues for dimension {self.algebra.dim}"
            )
        p = np.array([float(x) for x in self.spectral])
        p.flags.writeable = False
        object.__setattr__(self, "_p", p)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def eigenvalue(self, i: int) -> Fraction:
        return self.spectral[i - 1]

    def eigenvalues(self) -> np.ndarray:
        """The float image of the exact eigenvalues, formed once, read-only."""
        return self._p

    def trace(self) -> float:
        return float(self._p.sum())

    def trace_sq(self) -> float:
        return float((self._p * self._p).sum())

    def einstein_target(self) -> np.ndarray:
        """(tr D) diag(p) - tr(D^2) id, the constant Ricci class of an Einstein extension."""
        return self.trace() * np.diag(self.eigenvalues()) - self.trace_sq() * np.eye(self.dim)

    def with_algebra(self, algebra: StructureTensor) -> "ExtensionSpec":
        return replace(self, algebra=algebra)


def make_spec(
    algebra: StructureTensor,
    spectral: Iterable[RationalLike],
    param: Optional[RationalLike] = None,
) -> ExtensionSpec:
    """Read eigenvalues given as numbers, "num/den" strings or affine forms
    "a+b*t"; each form is substituted exactly at ``param``, which must be
    given exactly when some eigenvalue depends on t."""
    try:
        forms = [parse_affine(v) for v in spectral]
    except (TypeError, ValueError) as exc:
        raise StructureError(f"bad eigenvalue in 'spectral': {exc}") from exc
    parametric = any(slope != 0 for _, slope in forms)
    if param is None:
        if parametric:
            raise StructureError("parametric eigenvalues need a 'param' value")
        return ExtensionSpec(algebra, tuple([const for const, _ in forms]))
    if not parametric:
        raise StructureError("'param' given but no eigenvalue depends on t")
    try:
        t = parse_rational(param)
    except (TypeError, ValueError) as exc:
        raise StructureError(f"'param' must be a finite number or \"num/den\", got {param!r}") from exc
    return ExtensionSpec(algebra, tuple([const + slope * t for const, slope in forms]))


def full_pattern(dim: int) -> tuple[tuple[int, int, int], ...]:
    """Every structurally possible triple (i < j, any k), in lexicographic order."""
    r = range(1, dim + 1)
    return tuple((i, j, k) for i in r for j in r if i < j for k in r)


def exponents(spectral: Sequence[Fraction], triples: Iterable[tuple[int, int, int]]) -> tuple[list[int], int]:
    """The weight e = p_k - p_i - p_j of each mu[i,j|k] times the lcm s > 0
    of the eigenvalue denominators, exactly, as a Python int; and s."""
    c, s = scaled_to_integers(spectral)
    return [c[k - 1] - c[i - 1] - c[j - 1] for i, j, k in triples], s


def _jacobi_form(S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Polarised Jacobi form: sum_m S[i,j,m] T[m,k,l] + cyclic in (i, j, k),
    one block of l-values per triple i < j < k in lexicographic order.

    ``_jacobi_form(T, T)`` holds the Jacobi sums of the constants T; they
    alternate in (i, j, k), so these blocks are all the independent ones.
    Bilinear in (S, T); leading axes broadcast.
    """
    E = np.einsum("...ijm,...mkl->...ijkl", S, T)
    r = np.arange(S.shape[-1])
    i, j, k = np.nonzero((r[:, None, None] < r[:, None]) & (r[:, None] < r))
    J = E[..., i, j, k, :] + E[..., k, i, j, :] + E[..., j, k, i, :]
    return J.reshape(J.shape[:-2] + (-1,))


def jacobi_components(mu: StructureTensor) -> np.ndarray:
    """Independent Jacobi sums, one block of l-values per triple i < j < k."""
    T = mu.dense()
    return _jacobi_form(T, T)


def jacobi_residual(mu: StructureTensor) -> float:
    """Maximum absolute violation of the Jacobi identity."""
    T = mu.dense()
    return float(np.abs(_jacobi_form(T, T)).max(initial=0.0))


class DerivationCheck(NamedTuple):
    ok: bool
    max_violation: float


def is_derivation(spec: ExtensionSpec, tol: float = DEFAULT_JACOBI_TOL) -> DerivationCheck:
    """Whether D is a derivation: (p_k - p_i - p_j) mu[i,j|k] = 0 for all triples."""
    items = spec.algebra.items()
    e, s = exponents(spec.spectral, [t for t, _ in items])
    worst = max((abs(float(Fraction(x, s)) * v) for x, (_, v) in zip(e, items)), default=0.0)
    return DerivationCheck(worst <= tol, worst)


def _divergence_form(T: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Divergence components of the constants T; linear, leading axes broadcast."""
    return np.einsum("...ijj,ij->...i", T, p[:, None] - p[None, :])


def divergence_residual(spec: ExtensionSpec) -> np.ndarray:
    """Component i: sum_j mu[i,j|j] (p_i - p_j); zero iff div D = 0."""
    return _divergence_form(spec.algebra.dense(), spec.eigenvalues())


@dataclass(frozen=True)
class OrthogonalDecomposition:
    """Splitting of the frame indices into an abelian part and an ideal."""

    h_indices: tuple[int, ...]
    m_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "h_indices", tuple(sorted(self.h_indices)))
        object.__setattr__(self, "m_indices", tuple(sorted(self.m_indices)))

    def check_partition(self, n: int) -> None:
        """Check that h and m partition 1..n."""
        if sorted(self.h_indices + self.m_indices) != list(range(1, n + 1)):
            raise DecompositionError(f"decomposition 'h' and 'm' must partition 1..{n}")

    def validate(self, mu: StructureTensor, tol: float = DEFAULT_JACOBI_TOL) -> None:
        """Check the partition and the abelian/ideal axioms."""
        self.check_partition(mu.dim)
        h = set(self.h_indices)
        m = set(self.m_indices)
        for (i, j, k), v in mu.items():
            if abs(v) <= tol:
                continue
            if i in h and j in h:
                raise DecompositionError(
                    f"abelian part not abelian: mu[{i},{j}|{k}] = {v:g}"
                )
            if i in m and j in m and k in h:
                raise DecompositionError(
                    f"ideal not closed: mu[{i},{j}|{k}] = {v:g}"
                )
            if ((i in h and j in m) or (i in m and j in h)) and k in h:
                raise DecompositionError(
                    f"ideal not invariant: mu[{i},{j}|{k}] = {v:g}"
                )


def standard_modification(
    mu: StructureTensor,
    spec: ExtensionSpec,
    decomp: OrthogonalDecomposition,
    tol: float = DEFAULT_JACOBI_TOL,
) -> StructureTensor:
    """Twist away the block-diagonal skew action so D becomes a derivation.

    One pass over the weights e = p_k - p_i - p_j (:func:`exponents`) sorts
    the entries.  The kept piece, the output, is every entry of weight 0, on
    which D is a derivation: the ideal brackets, the zero-eigenvalue actions
    T_a and the shifting part N_b of each nonzero-eigenvalue action.  The
    twisted piece is the block-diagonal part Q_b, the entries mu[b,l|k] with
    b in h, l and k in m and weight -p_b != 0, that is p_k = p_l.  Requires
    a genuine Lie algebra, an ideal graded by D, no other entry of the
    actions above the tolerance, skew Q_b, and pairwise commuting T_a, Q_b
    and N_b; refuses otherwise.

    Only the algebraic outputs are validated (Jacobi identity and the
    derivation property); that the modified group carries an isometric
    left-invariant metric is not checked here.
    """
    res = jacobi_residual(mu)
    if res > tol:
        raise StructureError(f"input is not a Lie algebra (Jacobi residual {res:.3e})")
    h, m, p = decomp.h_indices, set(decomp.m_indices), spec.spectral
    items = mu.items()
    e, s = exponents(p, [t for t, _ in items])
    kept, twisted, refused = {}, {}, []
    for ((i, j, k), v), x in zip(items, e):
        a, l = (j, i) if j in h else (i, j)  # mu[a,l|k] = +-v
        acts = a in h and l in m and k in m
        if x == 0:
            kept[i, j, k] = v
        elif abs(v) > tol and {i, j, k} <= m:
            raise PatternViolationError(
                f"ideal bracket mu[{i},{j}|{k}] = {v:g} is not an eigenvector "
                "of the deformation; the twisting does not apply"
            )
        elif acts and x == -p[a - 1] * s:
            twisted[i, j, k] = v
        elif acts and abs(v) > tol:
            why = ("entry outside both eigenvalue patterns" if p[a - 1]
                   else "zero-eigenvalue action must preserve eigenspaces")
            refused.append((a, k, l, v if a == i else -v, why))
    decomp.validate(mu, tol)
    if refused:
        a, k, l, v, why = min(refused)
        raise PatternViolationError(f"mu[{a},{l}|{k}] = {v:g}: {why}")
    out = StructureTensor(mu.dim, kept)
    rows = np.array(decomp.m_indices, dtype=np.intp) - 1
    ix = np.ix_(rows, rows)
    T, K, Q = mu.dense(), out.dense(), StructureTensor(mu.dim, twisted).dense()
    moving = [b for b in h if p[b - 1]]
    for b in moving:
        skew_defect = float(np.abs(Q[b - 1][ix] + Q[b - 1][ix].T).max(initial=0.0))
        if skew_defect > tol:
            raise PatternViolationError(
                f"block-diagonal action of e_{b} is not skew (defect {skew_defect:.3e})"
            )
    # Each operator's matrix: op[k', l'] = mu[a, l | k]; T_a is the whole action.
    labelled = (
        [(f"T_{a}", T[a - 1][ix].T) for a in h if not p[a - 1]]
        + [(f"Q_{b}", Q[b - 1][ix].T) for b in moving]
        + [(f"N_{b}", K[b - 1][ix].T) for b in moving]
    )
    for (name_x, op_x), (name_y, op_y) in itertools.combinations(labelled, 2):
        defect = float(np.abs(op_x @ op_y - op_y @ op_x).max(initial=0.0))
        if defect > tol:
            raise CommutationError(
                f"{name_x} and {name_y} do not commute (defect {defect:.3e})"
            )

    res = jacobi_residual(out)
    if res > tol:
        raise StructureError(f"modified tensor violates Jacobi (residual {res:.3e})")
    check = is_derivation(spec.with_algebra(out), tol)
    if not check.ok:
        raise StructureError(
            f"deformation is not a derivation of the modified tensor "
            f"(violation {check.max_violation:.3e})"
        )
    return out


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def _require_int(value, field: str) -> int:
    # int() would truncate 3.7 to 3, and a JSON true is a Python int.
    if not isinstance(value, int) or isinstance(value, bool):
        raise StructureError(f"{field} must be an integer, got {value!r}")
    return value


def algebra_from_json(data: Mapping) -> tuple[StructureTensor, Optional[ExtensionSpec], Optional[OrthogonalDecomposition]]:
    """Parse the interchange format.

    Expected shape: {"dim": n, "mu": [{"i": 1, "j": 2, "k": 3, "v": 2.0}, ...],
    optional "spectral": [...], optional "decomposition": {"h": [...], "m": [...]},
    optional "param": value, optional "constant_structure": true}.  Indices
    and "dim" are integers; values, "param" included, may be numbers or
    "num/den", and eigenvalues also affine forms "a+b*t", which
    :func:`make_spec` substitutes at "param".  A "param" value is accepted
    exactly when some eigenvalue depends on t.  Only homogeneous data is
    supported, so "constant_structure" may only be true.  A decomposition
    whose "h" and "m" do not partition 1..dim raises
    :class:`DecompositionError`; any other shape :class:`StructureError`.
    """
    try:
        return _parse_algebra_json(data)
    except (TypeError, AttributeError) as exc:
        raise StructureError(f"malformed algebra JSON: {exc}") from exc


def _parse_algebra_json(data: Mapping) -> tuple[StructureTensor, Optional[ExtensionSpec], Optional[OrthogonalDecomposition]]:
    try:
        dim = data["dim"]
    except KeyError as exc:
        raise StructureError("missing required key 'dim'") from exc
    _require_int(dim, "'dim'")
    if data.get("constant_structure", True) is not True:
        raise StructureError(
            f"'constant_structure' must be true (only homogeneous data is supported), "
            f"got {data['constant_structure']!r}"
        )
    entries: dict[tuple[int, int, int], float] = {}
    for item in data.get("mu", []):
        try:
            key = (item["i"], item["j"], item["k"])
            value = float(parse_rational(item["v"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise StructureError(f"bad mu entry {item!r}: {exc}") from exc
        for name, idx in zip("ijk", key):
            _require_int(idx, f"mu index '{name}'")
        entries[key] = entries.get(key, 0.0) + value
    mu = StructureTensor(dim, entries)
    if not isinstance(data.get("spectral", []), list):
        raise StructureError(f"'spectral' must be a list, got {data['spectral']!r}")
    param = data.get("param")
    spec = None
    if "spectral" in data or param is not None:
        spec = make_spec(mu, data.get("spectral", ()), param)
    decomp = None
    if "decomposition" in data:
        d = data["decomposition"]
        decomp = OrthogonalDecomposition(
            tuple(_require_int(x, "decomposition 'h' entry") for x in d.get("h", ())),
            tuple(_require_int(x, "decomposition 'm' entry") for x in d.get("m", ())),
        )
        decomp.check_partition(dim)
    return mu, spec, decomp


def algebra_to_json(
    mu: StructureTensor,
    spec: Optional[ExtensionSpec] = None,
    decomp: Optional[OrthogonalDecomposition] = None,
) -> dict:
    out: dict = {
        "dim": mu.dim,
        "mu": [
            {"i": i, "j": j, "k": k, "v": v} for (i, j, k), v in mu.items()
        ],
    }
    if spec is not None:
        out["spectral"] = [
            int(q) if q.denominator == 1 else format_rational(q) for q in spec.spectral
        ]
    if decomp is not None:
        out["decomposition"] = {
            "h": list(decomp.h_indices),
            "m": list(decomp.m_indices),
        }
    return out
