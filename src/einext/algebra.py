"""Metric Lie algebras and homogeneous frame data via structure constants.

The basic object is the sparse tensor of constants mu[i,j|k] = <[e_i, e_j], e_k>
in an orthonormal frame (antisymmetric in i, j; indices 1-based).  An
:class:`ExtensionSpec` pairs such a tensor with the exact rational
eigenvalues of the diagonal deforming endomorphism.  :func:`make_spec` reads
them, substituting the value of the one free parameter t into any affine
form "a+b*t" on the way in, so every later layer compares plain Fractions.

The Lie-theoretic primitives here (Jacobi residual, Killing form, mean
curvature, divergence condition, derivation test, and the Q/N splitting with
its twisting) are what the curvature and verification layers build on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .scalars import RationalLike, format_rational, parse_affine, parse_rational

DEFAULT_JACOBI_TOL = 1e-10


class StructureError(ValueError):
    """Invalid structure constants or violated operation preconditions."""


class DecompositionError(ValueError):
    """Orthogonal decomposition axioms violated."""


class PatternViolationError(StructureError):
    """Entries outside the sparsity pattern required by the operation."""


class CommutationError(StructureError):
    """Operator families fail to commute within tolerance."""


def _norm_key(i: int, j: int, k: int, value: float) -> tuple[tuple[int, int, int], float]:
    if i == j:
        raise StructureError(f"mu[{i},{j}|{k}] must vanish (antisymmetry)")
    if i < j:
        return (i, j, k), value
    return (j, i, k), -value


class StructureTensor:
    """Sparse structure constants of an n-dimensional orthonormal frame.

    Entries are stored once with i < j; access through :meth:`get` applies
    the antisymmetry.  Set ``lie=True`` to assert the Jacobi identity at
    construction (frame data that is not a Lie algebra skips the check).
    """

    __slots__ = ("dim", "_entries")

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
        store: dict[tuple[int, int, int], float] = {}
        for (i, j, k), value in (entries or {}).items():
            for idx in (i, j, k):
                if not 1 <= idx <= dim:
                    raise StructureError(f"index {idx} outside 1..{dim}")
            key, v = _norm_key(i, j, k, float(value))
            if not math.isfinite(v):
                raise StructureError(f"mu[{i},{j}|{k}] = {v} is not finite")
            if v != 0.0:
                store[key] = store.get(key, 0.0) + v
        self._entries = {k: v for k, v in store.items() if v != 0.0}
        if lie:
            res = jacobi_residual(self)
            if res > DEFAULT_JACOBI_TOL:
                raise StructureError(f"Jacobi identity violated (residual {res:.3e})")

    def get(self, i: int, j: int, k: int) -> float:
        if i == j:
            return 0.0
        if i < j:
            return self._entries.get((i, j, k), 0.0)
        return -self._entries.get((j, i, k), 0.0)

    def items(self) -> list[tuple[tuple[int, int, int], float]]:
        """Nonzero entries with i < j, in sorted index order."""
        return sorted(self._entries.items())

    @property
    def nnz(self) -> int:
        return len(self._entries)

    def max_abs(self) -> float:
        return max((abs(v) for v in self._entries.values()), default=0.0)

    def dense(self) -> np.ndarray:
        """Full antisymmetric array T[i-1, j-1, k-1] = mu[i,j|k]."""
        T = np.zeros((self.dim, self.dim, self.dim))
        for (i, j, k), v in self._entries.items():
            T[i - 1, j - 1, k - 1] = v
            T[j - 1, i - 1, k - 1] = -v
        return T

    def ad(self, i: int) -> np.ndarray:
        """Matrix of ad_{e_i} acting on the frame: ad(i)[k-1, j-1] = mu[i,j|k]."""
        return self.dense()[i - 1].T

    def restrict(self, indices: Sequence[int]) -> "StructureTensor":
        """Sub-tensor on the given frame indices, relabelled 1..len(indices)."""
        order = list(indices)
        pos = {old: new + 1 for new, old in enumerate(order)}
        entries = {
            (pos[i], pos[j], pos[k]): v
            for (i, j, k), v in self._entries.items()
            if i in pos and j in pos and k in pos
        }
        return StructureTensor(len(order), entries)

    def permuted(self, perm: Mapping[int, int]) -> "StructureTensor":
        """Relabel frame indices by old -> new. perm must be a bijection of 1..n."""
        if sorted(perm) != list(range(1, self.dim + 1)) or sorted(
            perm.values()
        ) != list(range(1, self.dim + 1)):
            raise StructureError("permutation must be a bijection of 1..n")
        entries = {
            (perm[i], perm[j], perm[k]): v for (i, j, k), v in self._entries.items()
        }
        return StructureTensor(self.dim, entries)

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

    def __post_init__(self) -> None:
        object.__setattr__(self, "spectral", tuple(self.spectral))
        if len(self.spectral) != self.algebra.dim:
            raise StructureError(
                f"{len(self.spectral)} eigenvalues for dimension {self.algebra.dim}"
            )

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def eigenvalue(self, i: int) -> Fraction:
        return self.spectral[i - 1]

    def eigenvalues(self) -> np.ndarray:
        """The float image of the exact eigenvalues."""
        return np.array([float(x) for x in self.spectral])

    def trace(self) -> float:
        return float(self.eigenvalues().sum())

    def trace_sq(self) -> float:
        p = self.eigenvalues()
        return float((p * p).sum())

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
        return ExtensionSpec(algebra, tuple(const for const, _ in forms))
    if not parametric:
        raise StructureError("'param' given but no eigenvalue depends on t")
    try:
        t = parse_rational(param)
    except (TypeError, ValueError) as exc:
        raise StructureError(f"'param' must be a finite number or \"num/den\", got {param!r}") from exc
    return ExtensionSpec(algebra, tuple(const + slope * t for const, slope in forms))


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
    p = spec.spectral
    worst = 0.0
    for (i, j, k), v in spec.algebra.items():
        worst = max(worst, abs(float(p[k - 1] - p[i - 1] - p[j - 1]) * v))
    return DerivationCheck(worst <= tol, worst)


def killing_form(mu: StructureTensor) -> np.ndarray:
    """Killing form B[i,j] = sum_{k,l} mu[j,k|l] mu[i,l|k], symmetrized."""
    T = mu.dense()
    B = np.einsum("jkl,ilk->ij", T, T)
    return (B + B.T) / 2.0


def mean_curvature(mu: StructureTensor) -> np.ndarray:
    """Vector H with H[i] = tr ad_{e_i} = sum_k mu[i,k|k]."""
    return np.einsum("ikk->i", mu.dense())


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

    def validate(self, mu: StructureTensor, tol: float = DEFAULT_JACOBI_TOL) -> None:
        """Check the partition and the abelian/ideal axioms."""
        n = mu.dim
        combined = sorted(self.h_indices + self.m_indices)
        if combined != list(range(1, n + 1)):
            raise DecompositionError("h and m must partition 1..n")
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


@dataclass
class QNSplit:
    """Action of the abelian part on the ideal, split by eigenvalue pattern.

    For a zero-eigenvalue generator a, ``t_ops[a]`` is the whole restricted
    action.  For a nonzero-eigenvalue generator b, ``q_ops[b]`` collects the
    entries with p_k = p_l (block-diagonal) and ``n_ops[b]`` those with
    p_k = p_l + p_b (shifting); entries fitting neither pattern are reported
    in ``violations`` and never silently dropped.
    """

    m_indices: tuple[int, ...]
    t_ops: dict[int, np.ndarray]
    q_ops: dict[int, np.ndarray]
    n_ops: dict[int, np.ndarray]
    violations: list[tuple[int, int, int, float, str]] = field(default_factory=list)


def qn_split(
    mu: StructureTensor,
    spec: ExtensionSpec,
    decomp: OrthogonalDecomposition,
    tol: float = DEFAULT_JACOBI_TOL,
) -> QNSplit:
    """Split the abelian-part action on the ideal by eigenvalue pattern."""
    decomp.validate(mu, tol)
    m_idx = decomp.m_indices
    m = np.array(m_idx, dtype=np.intp) - 1
    p = np.array(spec.spectral, dtype=object)
    gap = np.subtract.outer(p[m], p[m])  # gap[k', l'] = p_k - p_l, exactly
    same = gap == 0
    T = mu.dense()
    result = QNSplit(m_idx, {}, {}, {})
    for a in decomp.h_indices:
        action = T[a - 1][np.ix_(m, m)].T  # action[k', l'] = mu[a, l | k]
        if p[a - 1] == 0:
            result.t_ops[a] = action
            bad, why = ~same, "zero-eigenvalue action must preserve eigenspaces"
        else:
            shift = ~same & (gap == p[a - 1])
            result.q_ops[a] = np.where(same, action, 0.0)
            result.n_ops[a] = np.where(shift, action, 0.0)
            bad, why = ~same & ~shift, "entry outside both eigenvalue patterns"
        for kp, lp in zip(*np.nonzero(bad & (np.abs(action) > tol))):
            result.violations.append((a, m_idx[kp], m_idx[lp], action[kp, lp], why))
    return result


def standard_modification(
    mu: StructureTensor,
    spec: ExtensionSpec,
    decomp: OrthogonalDecomposition,
    tol: float = DEFAULT_JACOBI_TOL,
) -> StructureTensor:
    """Twist away the block-diagonal skew action so D becomes a derivation.

    Keeps the ideal brackets and the zero-eigenvalue actions, and replaces
    each nonzero-eigenvalue action by its shifting part.  Requires a genuine
    Lie algebra whose split has no pattern violations, skew block-diagonal
    parts, and pairwise commuting operator families; refuses otherwise.

    Only the algebraic outputs are validated (Jacobi identity and the
    derivation property); that the modified group carries an isometric
    left-invariant metric is not checked here.
    """
    res = jacobi_residual(mu)
    if res > tol:
        raise StructureError(f"input is not a Lie algebra (Jacobi residual {res:.3e})")
    p = {i: spec.eigenvalue(i) for i in range(1, mu.dim + 1)}
    h, m = set(decomp.h_indices), set(decomp.m_indices)
    for (i, j, k), v in mu.items():
        if {i, j, k} <= m and abs(v) > tol and p[k] != p[i] + p[j]:
            raise PatternViolationError(
                f"ideal bracket mu[{i},{j}|{k}] = {v:g} is not an eigenvector "
                "of the deformation; the twisting does not apply"
            )
    split = qn_split(mu, spec, decomp, tol)
    if split.violations:
        a, k, l, v, why = split.violations[0]
        raise PatternViolationError(f"mu[{a},{l}|{k}] = {v:g}: {why}")
    for b, q in split.q_ops.items():
        skew_defect = float(np.abs(q + q.T).max()) if q.size else 0.0
        if skew_defect > tol:
            raise PatternViolationError(
                f"block-diagonal action of e_{b} is not skew (defect {skew_defect:.3e})"
            )
    labelled = (
        [(f"T_{a}", op) for a, op in split.t_ops.items()]
        + [(f"Q_{b}", op) for b, op in split.q_ops.items()]
        + [(f"N_{b}", op) for b, op in split.n_ops.items()]
    )
    for (name_x, op_x), (name_y, op_y) in itertools.combinations(labelled, 2):
        comm = op_x @ op_y - op_y @ op_x
        defect = float(np.abs(comm).max()) if comm.size else 0.0
        if defect > tol:
            raise CommutationError(
                f"{name_x} and {name_y} do not commute (defect {defect:.3e})"
            )

    # The survivors: brackets inside the ideal, and each bracket [e_a, e_l]
    # (a in h, l, k in m) that a zero eigenvalue keeps or that shifts by p_a.
    entries = {}
    for (i, j, k), v in mu.items():
        a, l = (i, j) if i in h else (j, i)
        kept = a not in h or (k not in h and (p[a] == 0 or p[k] == p[l] + p[a]))
        if l not in h and kept:
            entries[(i, j, k)] = v
    out = StructureTensor(mu.dim, entries)

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
    supported, so "constant_structure" may only be true.
    Any other shape raises :class:`StructureError`.
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
