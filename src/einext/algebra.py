"""Metric Lie algebras and homogeneous frame data via structure constants.

The basic object is the sparse tensor of constants mu[i,j|k] = <[e_i, e_j], e_k>
in an orthonormal frame (antisymmetric in i, j; indices 1-based).  An
:class:`ExtensionSpec` pairs such a tensor with the eigenvalues of the
diagonal deforming endomorphism, optionally depending on one free parameter.

The Lie-theoretic primitives here (Jacobi residual, Killing form, mean
curvature, divergence condition, derivation test, and the Q/N splitting with
its twisting) are what the curvature and verification layers build on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .scalars import AffineRational, parse_rational

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
        jacobi_tol: float = DEFAULT_JACOBI_TOL,
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
            if res > jacobi_tol:
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
        out = np.zeros((self.dim, self.dim))
        for j in range(1, self.dim + 1):
            for k in range(1, self.dim + 1):
                out[k - 1, j - 1] = self.get(i, j, k)
        return out

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


SpectralLike = Union[AffineRational, int, float, str, Fraction]


@dataclass(frozen=True, eq=False)
class ExtensionSpec:
    """Frame data together with the eigenvalues of the deforming endomorphism.

    The endomorphism is diagonal in the frame, D e_i = p_i e_i, with constant
    eigenvalues stored as exact affine forms in at most one free parameter.
    ``param`` supplies the numeric parameter value when any eigenvalue has a
    nonzero slope.  ``constant_structure`` marks the data as homogeneous;
    curvature routines refuse anything else.
    """

    algebra: StructureTensor
    spectral: tuple[AffineRational, ...]
    param: Optional[float] = None
    constant_structure: bool = True

    def __post_init__(self) -> None:
        forms = tuple(AffineRational.of(v) for v in self.spectral)
        object.__setattr__(self, "spectral", forms)
        if len(forms) != self.algebra.dim:
            raise StructureError(
                f"{len(forms)} eigenvalues for dimension {self.algebra.dim}"
            )
        if any(f.slope != 0 for f in forms) and self.param is None:
            raise StructureError("parametric eigenvalues need a param value")
        if self.param is not None and not math.isfinite(float(self.param)):
            raise StructureError(f"param {self.param} is not finite")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def eigenvalue(self, i: int) -> AffineRational:
        return self.spectral[i - 1]

    def eigenvalues(self) -> np.ndarray:
        return np.array([f.evaluate(self.param) for f in self.spectral])

    def trace(self) -> float:
        return float(self.eigenvalues().sum())

    def trace_sq(self) -> float:
        p = self.eigenvalues()
        return float((p * p).sum())

    def exact_eigenvalues(self) -> tuple[Fraction, ...]:
        """Eigenvalues with the parameter substituted exactly (if any)."""
        t = Fraction(self.param) if self.param is not None else None
        out = []
        for f in self.spectral:
            if f.slope == 0:
                out.append(f.const)
            else:
                out.append(f.substitute(t))
        return tuple(out)

    def with_algebra(self, algebra: StructureTensor) -> "ExtensionSpec":
        return replace(self, algebra=algebra)


def make_spec(
    algebra: StructureTensor,
    spectral: Iterable[SpectralLike],
    param: Optional[float] = None,
    constant_structure: bool = True,
) -> ExtensionSpec:
    """Convenience constructor coercing numbers and "num/den" strings."""
    return ExtensionSpec(
        algebra,
        tuple(AffineRational.of(v) for v in spectral),
        param,
        constant_structure,
    )


def jacobi_tensor(mu: StructureTensor) -> np.ndarray:
    """Cyclic Jacobi sums J[i,j,k,l] over all index quadruples (0-based array)."""
    T = mu.dense()
    E = np.einsum("ijm,mkl->ijkl", T, T)
    return E + np.transpose(E, (1, 2, 0, 3)) + np.transpose(E, (2, 0, 1, 3))


def jacobi_components(mu: StructureTensor) -> np.ndarray:
    """Independent Jacobi sums, one block of l-values per triple i < j < k."""
    J = jacobi_tensor(mu)
    n = mu.dim
    rows = [
        J[i, j, k, :]
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    ]
    if not rows:
        return np.zeros(0)
    return np.concatenate(rows)


def jacobi_residual(mu: StructureTensor) -> float:
    """Maximum absolute violation of the Jacobi identity."""
    J = jacobi_tensor(mu)
    return float(np.abs(J).max()) if J.size else 0.0


class DerivationCheck(NamedTuple):
    ok: bool
    max_violation: float


def is_derivation(spec: ExtensionSpec, tol: float = DEFAULT_JACOBI_TOL) -> DerivationCheck:
    """Whether D is a derivation: (p_k - p_i - p_j) mu[i,j|k] = 0 for all triples."""
    p = spec.eigenvalues()
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


def divergence_residual(spec: ExtensionSpec) -> np.ndarray:
    """Component i: sum_j mu[i,j|j] (p_i - p_j); zero iff div D = 0."""
    p = spec.eigenvalues()
    return np.einsum("ijj,ij->i", spec.algebra.dense(), p[:, None] - p[None, :])


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
    size = len(m_idx)
    forms = {i: spec.eigenvalue(i) for i in range(1, mu.dim + 1)}
    result = QNSplit(m_idx, {}, {}, {})
    for a in decomp.h_indices:
        action = np.zeros((size, size))
        for kp, k in enumerate(m_idx):
            for lp, l in enumerate(m_idx):
                action[kp, lp] = mu.get(a, l, k)
        if forms[a].is_zero:
            for kp, k in enumerate(m_idx):
                for lp, l in enumerate(m_idx):
                    v = action[kp, lp]
                    if abs(v) > tol and forms[k] != forms[l]:
                        result.violations.append(
                            (a, k, l, v, "zero-eigenvalue action must preserve eigenspaces")
                        )
            result.t_ops[a] = action
        else:
            q = np.zeros((size, size))
            nshift = np.zeros((size, size))
            for kp, k in enumerate(m_idx):
                for lp, l in enumerate(m_idx):
                    v = action[kp, lp]
                    if forms[k] == forms[l]:
                        q[kp, lp] = v
                    elif forms[k] == forms[l] + forms[a]:
                        nshift[kp, lp] = v
                    elif abs(v) > tol:
                        result.violations.append(
                            (a, k, l, v, "entry outside both eigenvalue patterns")
                        )
            result.q_ops[a] = q
            result.n_ops[a] = nshift
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
    forms = {i: spec.eigenvalue(i) for i in range(1, mu.dim + 1)}
    for (i, j, k), v in mu.items():
        if (
            i in decomp.m_indices
            and j in decomp.m_indices
            and k in decomp.m_indices
            and abs(v) > tol
            and forms[k] != forms[i] + forms[j]
        ):
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
    for x in range(len(labelled)):
        for y in range(x + 1, len(labelled)):
            name_x, op_x = labelled[x]
            name_y, op_y = labelled[y]
            comm = op_x @ op_y - op_y @ op_x
            defect = float(np.abs(comm).max()) if comm.size else 0.0
            if defect > tol:
                raise CommutationError(
                    f"{name_x} and {name_y} do not commute (defect {defect:.3e})"
                )

    m_idx = split.m_indices
    entries: dict[tuple[int, int, int], float] = {}
    for (i, j, k), v in mu.items():
        if i in m_idx and j in m_idx:
            entries[(i, j, k)] = v
    for a, op in split.t_ops.items():
        for kp, k in enumerate(m_idx):
            for lp, l in enumerate(m_idx):
                if op[kp, lp] != 0.0:
                    entries[(a, l, k)] = entries.get((a, l, k), 0.0) + op[kp, lp]
    for b, op in split.n_ops.items():
        for kp, k in enumerate(m_idx):
            for lp, l in enumerate(m_idx):
                if op[kp, lp] != 0.0:
                    entries[(b, l, k)] = entries.get((b, l, k), 0.0) + op[kp, lp]
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


def _value_to_float(value) -> float:
    if isinstance(value, str):
        return float(parse_rational(value))
    return float(value)


def algebra_from_json(data: Mapping) -> tuple[StructureTensor, Optional[ExtensionSpec], Optional[OrthogonalDecomposition]]:
    """Parse the interchange format.

    Expected shape: {"dim": n, "mu": [{"i": 1, "j": 2, "k": 3, "v": 2.0}, ...],
    optional "spectral": [...], optional "decomposition": {"h": [...], "m": [...]},
    optional "constant_structure": bool}.  Values may be numbers or "num/den".
    A "param" value is accepted only when some eigenvalue depends on t.
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
    # int() would truncate 3.7 to 3, and a JSON true is a Python int.
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise StructureError(f"'dim' must be an integer, got {dim!r}")
    entries: dict[tuple[int, int, int], float] = {}
    for item in data.get("mu", []):
        try:
            key = (int(item["i"]), int(item["j"]), int(item["k"]))
            value = _value_to_float(item["v"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StructureError(f"bad mu entry {item!r}") from exc
        entries[key] = entries.get(key, 0.0) + value
    mu = StructureTensor(dim, entries)
    spec = None
    if not isinstance(data.get("spectral", []), list):
        raise StructureError(f"'spectral' must be a list, got {data['spectral']!r}")
    forms = [AffineRational.of(v) for v in data.get("spectral", ())]
    param = data.get("param")
    if param is not None and not isinstance(param, (int, float, str)):
        raise StructureError(f"'param' must be a number, got {param!r}")
    if param is not None and all(f.slope == 0 for f in forms):
        raise StructureError("'param' given but no eigenvalue depends on t")
    if "spectral" in data:
        spec = ExtensionSpec(
            mu,
            tuple(forms),
            param,
            bool(data.get("constant_structure", True)),
        )
    decomp = None
    if "decomposition" in data:
        d = data["decomposition"]
        decomp = OrthogonalDecomposition(
            tuple(int(x) for x in d.get("h", ())),
            tuple(int(x) for x in d.get("m", ())),
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
        if all(f.slope == 0 for f in spec.spectral):
            out["spectral"] = [
                int(f.const) if f.const.denominator == 1 else f.json_key()
                for f in spec.spectral
            ]
        else:
            out["spectral"] = [f.json_key() for f in spec.spectral]
            out["param"] = spec.param
        if not spec.constant_structure:
            out["constant_structure"] = False
    if decomp is not None:
        out["decomposition"] = {
            "h": list(decomp.h_indices),
            "m": list(decomp.m_indices),
        }
    return out
