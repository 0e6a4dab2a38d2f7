"""Metric Lie algebras and homogeneous frame data via structure constants.

The basic object is the tensor of constants mu[i,j|k] = <[e_i, e_j], e_k>
in an orthonormal frame (antisymmetric in i, j; indices 1-based), stored
once as its read-only nonzero support, which every later layer reads.
The polarised Ricci and Jacobi forms are pair lists on a support
(:class:`PairList`): every product of two entries that meets in the form,
found by one sorted join (Ricci's keys and slots come from one gather
through its four contraction tables, stacked at import), so each, like the
divergence, is evaluated with one ``np.bincount`` at a cost that follows
the nonzero constants.  An :class:`ExtensionSpec` pairs such a tensor with
the exact rational eigenvalues of the diagonal deforming endomorphism and
their float image, also formed once.  :func:`make_spec` reads the
eigenvalues, substituting the value of the one free parameter t into any
affine form "a+b*t" on the way in, so every later layer compares Fractions.

The weight p_k - p_i - p_j with which D acts on mu[i,j|k] is computed
exactly in one place, :func:`exponents`; :func:`sparsity_pattern` keeps the
triples whose weight is 0 or minus an eigenvalue.  The Lie-theoretic
primitives here (Jacobi residual, divergence condition, derivation test,
and the standard modification, which twists D into a derivation) are what
the curvature and verification layers build on.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .scalars import RationalLike, format_rational, parse_affine, parse_rational, scaled_to_integers

DEFAULT_TOL = 1e-9


class StructureError(ValueError):
    """Invalid structure constants or violated operation preconditions."""


class DecompositionError(StructureError):
    """Orthogonal decomposition axioms violated."""


class PatternViolationError(StructureError):
    """Entries outside the sparsity pattern required by the operation."""


class CommutationError(StructureError):
    """Operator families fail to commute within tolerance."""


class Support(NamedTuple):
    """The nonzero entries of a tensor in both antisymmetric orders: entry e
    is T[i, j, k] = value[e] for (i, j, k) = index[:, e], 0-based.  The
    first half of the entries have i < j, in sorted order; the second half
    are the same entries with i and j swapped, in the same order."""

    index: np.ndarray
    value: np.ndarray


class PairList(NamedTuple):
    """A bilinear form B(S, T) on a support, as the products that meet in it:
    entry ``left[p]`` of S times entry ``right[p]`` of T adds ``coeff[p]``
    times their product to output slot ``slot[p]``."""

    left: np.ndarray
    right: np.ndarray
    slot: np.ndarray
    coeff: np.ndarray

    def products(self, values: np.ndarray) -> np.ndarray:
        """coeff * v[left] * v[right] for S = T = v."""
        return self.coeff * values[self.left] * values[self.right]


def _float(value, name: str, *args) -> float:
    """float(value), or StructureError naming the value, ``name.format(*args)``,
    when it does not fit in float64."""
    try:
        return float(value)
    except OverflowError as exc:
        raise StructureError(f"{name.format(*args)} does not fit in float64") from exc


def _maxabs(a) -> float:
    """max |a|, 0.0 for an empty array; NaN propagates."""
    return float(np.abs(a).max(initial=0.0))


def _frozen(arrays: tuple) -> tuple:
    """The arrays, made read-only."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _join(left_keys: np.ndarray, right_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (l, r) with left_keys[l] == right_keys[r], l-major: one stable
    sort and two searchsorted, O(len + matches) memory."""
    order = right_keys.argsort(kind="stable")
    ordered = right_keys[order]
    lo = ordered.searchsorted(left_keys, "left")
    count = ordered.searchsorted(left_keys, "right") - lo
    left = np.arange(len(left_keys)).repeat(count)
    right = order[np.arange(len(left)) + (lo - (count.cumsum() - count)).repeat(count)]
    return left, right


# The four contractions of the polarised Ricci form, one row each: the
# coefficient; the indices of an S entry and of a T entry that must agree
# (the key); and the output slot i*n + j, as the S part plus the T part,
# each an index times n plus an index (-1 reads 0).
_RICCI_COEFF, _S_KEY, _T_KEY, _S_SLOT, _T_SLOT = (
    np.array(column)
    for column in zip(
        # -1/2 S[j,k,l] T[i,l,k]: (i, j) = (t0, s0)
        (-0.5, (1, 2), (2, 1), (-1, 0), (0, -1)),
        # -S[l,k,k] T[l,j,i]: (i, j) = (t2, t1), S entries with s1 = s2 only
        (-1.0, (0, 0), (0, 0), (-1, -1), (2, 1)),
        # 1/4 S[k,l,i] T[k,l,j]: (i, j) = (s2, t2)
        (0.25, (0, 1), (0, 1), (2, -1), (-1, 2)),
        # -1/2 S[i,k,l] T[j,k,l]: (i, j) = (s0, t0)
        (-0.5, (1, 2), (1, 2), (0, -1), (-1, 0)),
    )
)
# The index tables stacked for one gather; each contraction's key offset in n*n.
_RICCI_TABLES = np.stack([_S_KEY, _T_KEY, _S_SLOT, _T_SLOT])
_KEY_OFFSET = np.array([1, 1, 0, 0])[:, None, None] * np.arange(4)[:, None]


def _ricci_pairs(support: Support, n: int) -> PairList:
    """The polarised Ricci form G(S, T) on a support, slot i*n + j:

        G[i, j] = -1/2 S[j,k,l] T[i,l,k] - S[l,k,k] T[l,j,i]
                  + 1/4 S[k,l,i] T[k,l,j] - 1/2 S[i,k,l] T[j,k,l];

    the Ricci operator of T is the symmetric part of G(T, T).  One gather
    and one multiply-add give both keys, offset by contraction, and both
    slot parts of all four contractions; one join over the keys pairs each
    S entry, l-major, with the T entries whose contracted indices agree.
    """
    m = len(support.value)
    # A zero row below the index, read by the -1 entries of the tables.
    index = np.concatenate([support.index, np.zeros((1, m), dtype=np.intp)])
    rows = index[_RICCI_TABLES]  # (table, contraction, first or second index, entry)
    s_key, t_key, s_slot, t_slot = rows[:, :, 0] * n + rows[:, :, 1] + _KEY_OFFSET * (n * n)
    s_key[1, index[1] != index[2]] = -1
    left, right = _join(s_key.ravel(), t_key.ravel())
    slot = s_slot.ravel()[left] + t_slot.ravel()[right]
    term, s = np.divmod(left, m)
    return PairList(*_frozen((s, right % m, slot, _RICCI_COEFF[term])))


def _jacobi_pairs(support: Support, n: int) -> PairList:
    """The polarised Jacobi form on a support: sum_m S[i,j,m] T[m,k,l] +
    cyclic in (i, j, k), slot ((i*n + j)*n + k)*n + l for i < j < k: the
    slots of the sums follow the lexicographic order of (i, j, k, l).

    S entries with i < j meet T entries at m; the cyclic sum is the sum of
    these products over the orders of (i, j, k) with i < j, each with the
    sign of its permutation, and k in {i, j} adds nothing.
    """
    a, b, c = support.index
    left, right = _join(c[: len(c) // 2], a)
    i, j, k, l = a[left], b[left], b[right], c[right]
    keep = (k != i) & (k != j)
    left, right, i, j, k, l = (x[keep] for x in (left, right, i, j, k, l))
    lo, hi = np.minimum(i, k), np.maximum(j, k)
    slot = ((lo * n + i + j + k - lo - hi) * n + hi) * n + l
    sign = np.where((i < k) & (k < j), -1.0, 1.0)
    return PairList(*_frozen((left, right, slot, sign)))


class StructureTensor:
    """Structure constants of an n-dimensional orthonormal frame.

    The one store is the read-only nonzero support (:class:`Support`),
    built once: an entry given as (j, i, k) adds its negative to mu[i,j|k],
    and entries that add up to exactly zero are dropped.  The Ricci form's
    pair list on it is formed once, when first asked for, and is read-only
    too.  Set ``lie=True`` to assert the Jacobi identity at construction
    (frame data that is not a Lie algebra skips the check).
    """

    __slots__ = ("dim", "_support", "_ricci")

    def __init__(
        self,
        dim: int,
        entries: Optional[Mapping[tuple[int, int, int], float]] = None,
        *,
        lie: bool = False,
    ):
        dim = int(_require_int(dim, "dim"))
        if dim < 1:
            raise StructureError(f"dimension must be positive, got {dim}")
        self.dim = dim
        upper: dict[tuple[int, int, int], float] = {}  # mu[i,j|k], i < j
        for (i, j, k), value in (entries or {}).items():
            for idx in (i, j, k):
                if not 1 <= _require_int(idx, "mu[{},{}|{}] index", i, j, k) <= dim:
                    raise StructureError(f"index {idx} outside 1..{dim}")
            v = _float(value, "mu[{},{}|{}]", i, j, k)
            if i == j:
                raise StructureError(f"mu[{i},{j}|{k}] must vanish (antisymmetry)")
            if not math.isfinite(v):
                raise StructureError(f"mu[{i},{j}|{k}] = {v} is not finite")
            key, v = ((i, j, k), v) if i < j else ((j, i, k), -v)
            upper[key] = total = upper.get(key, 0.0) + v
            if not math.isfinite(total):
                raise StructureError("mu[%d,%d|%d] given in both orders adds up past float64" % key)
        keys = sorted(key for key, v in upper.items() if v != 0.0)
        i, j, k = zip(*keys) if keys else ((), (), ())
        value = [upper[key] for key in keys]
        index = np.array([i + j, j + i, k + k], dtype=np.intp) - 1  # the entries, then with i, j swapped
        self._support = Support(*_frozen((index, np.array(value + [-v for v in value], dtype=float))))
        self._ricci: Optional[PairList] = None
        if lie:
            res = jacobi_residual(self)
            if not res <= DEFAULT_TOL:  # NaN too
                raise StructureError(f"Jacobi identity violated (residual {res:.3e})")

    def items(self) -> list[tuple[tuple[int, int, int], float]]:
        """Nonzero entries with i < j, in sorted index order, as Python numbers."""
        index, value = self.support()
        h = len(value) // 2
        return list(zip(map(tuple, (1 + index[:, :h].T).tolist()), value[:h].tolist()))

    def support(self) -> Support:
        """The stored nonzero entries in both orders (:class:`Support`)."""
        return self._support

    def ricci_pairs(self) -> PairList:
        """The Ricci form's pair list on the support (:func:`_ricci_pairs`), formed once."""
        if self._ricci is None:
            self._ricci = _ricci_pairs(self.support(), self.dim)
        return self._ricci

    def __repr__(self) -> str:
        body = ", ".join(f"mu[{i},{j}|{k}]={v:g}" for (i, j, k), v in self.items())
        return f"StructureTensor(dim={self.dim}, {body or 'zero'})"


@dataclass(frozen=True, eq=False)
class ExtensionSpec:
    """Frame data together with the eigenvalues of the deforming endomorphism.

    The endomorphism is diagonal in the frame, D e_i = p_i e_i, with exact
    rational eigenvalues; :func:`make_spec` reads them from other input.
    ``_classes`` and ``_divergence`` keep what ``curvature.ricci_deformation`` and
    :func:`divergence_residual` form once; ``dataclasses.replace`` starts without them.
    """

    algebra: StructureTensor
    spectral: tuple[Fraction, ...]
    _p: np.ndarray = field(init=False, repr=False)
    _classes: Optional[dict] = field(init=False, repr=False, default=None)
    _divergence: Optional[np.ndarray] = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "spectral", tuple(self.spectral))
        if len(self.spectral) != self.algebra.dim:
            raise StructureError(
                f"{len(self.spectral)} eigenvalues for dimension {self.algebra.dim}"
            )
        p = np.array([_float(x, "eigenvalue p_{}", i) for i, x in enumerate(self.spectral, 1)])
        p.flags.writeable = False
        object.__setattr__(self, "_p", p)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def eigenvalues(self) -> np.ndarray:
        """The float image of the exact eigenvalues, formed once, read-only."""
        return self._p

    def trace(self) -> float:
        return float(self._p.sum())

    def trace_sq(self) -> float:
        return float((self._p * self._p).sum())

    def einstein_target(self) -> np.ndarray:
        """(tr D) diag(p) - tr(D^2) id, the constant Ricci class of an Einstein extension."""
        return np.diag(self.trace() * self._p - self.trace_sq())


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
    parametric = any(slope for _, slope in forms)
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


def sparsity_pattern(p: Sequence[Fraction]) -> set[tuple[int, int, int]]:
    """Triples (i, j, k), i < j, whose bracket entry may be nonzero.

    These are exactly the triples with p_i + p_j - p_k in {0, p_1, ..., p_n};
    all other structure constants must vanish for an Einstein extension.
    """
    triples = full_pattern(len(p))
    e, s = exponents(p, triples)
    allowed = {0, *(s * x for x in p)}
    return {t for t, x in zip(triples, e) if -x in allowed}


def jacobi_residual(mu: StructureTensor) -> float:
    """Maximum absolute violation of the Jacobi identity; only the Jacobi
    sums that some product reaches are formed."""
    support = mu.support()
    pairs = _jacobi_pairs(support, mu.dim)
    rows, slot = np.unique(pairs.slot, return_inverse=True)
    sums = np.bincount(slot, pairs.products(support.value), minlength=len(rows))
    return _maxabs(sums)


class DerivationCheck(NamedTuple):
    ok: bool
    max_violation: float


def is_derivation(spec: ExtensionSpec, tol: float = DEFAULT_TOL) -> DerivationCheck:
    """Whether D is a derivation: (p_k - p_i - p_j) mu[i,j|k] = 0 for all triples."""
    items = spec.algebra.items()
    e, s = exponents(spec.spectral, [t for t, _ in items])
    worst = max((abs(float(Fraction(x, s)) * v) for x, (_, v) in zip(e, items)), default=0.0)
    return DerivationCheck(worst <= tol, worst)


def _divergence_terms(i, j, k, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms (e, component, weight) of the divergence on entries mu[i,j|k],
    i < j (0-based): mu[i,j|k] = v adds v (p_i - p_j) to component i when
    k = j, and to component j when k = i; zero weights are left out."""
    weight, on_j = p[i] - p[j], k == j
    e = ((on_j | (k == i)) & (weight != 0.0)).nonzero()[0]
    return e, np.where(on_j, i, j)[e], weight[e]


def divergence_residual(spec: ExtensionSpec) -> np.ndarray:
    """Component i: sum_j mu[i,j|j] (p_i - p_j); zero iff div D = 0; formed once per spec, read-only."""
    if spec._divergence is None:
        index, value = spec.algebra.support()
        e, component, weight = _divergence_terms(*index[:, : len(value) // 2], spec.eigenvalues())
        div = np.bincount(component, value[e] * weight, minlength=spec.dim).astype(float)  # int64 if no terms
        div.flags.writeable = False
        object.__setattr__(spec, "_divergence", div)
    return spec._divergence


def standard_modification(
    spec: ExtensionSpec, h: Iterable[int], tol: float = DEFAULT_TOL
) -> ExtensionSpec:
    """Twist away the block-diagonal skew action of the abelian part h so D
    becomes a derivation; the ideal m is the complement of h in the frame.

    One pass over the weights e = p_k - p_i - p_j (:func:`exponents`) checks
    the decomposition and sorts the entries.  The kept piece, the output, is
    every entry of weight 0, on which D is a derivation exactly: the ideal
    brackets, the zero-eigenvalue actions T_a and the shifting part N_b of
    each nonzero-eigenvalue action.  The twisted piece is the block-diagonal
    part Q_b, the entries mu[b,l|k] with b in h, l and k in m and weight
    -p_b != 0, that is p_k = p_l.  Requires a genuine Lie algebra, h abelian
    and m an ideal (else :class:`DecompositionError`), an ideal graded by D,
    no other entry of the actions above the tolerance, skew Q_b, and
    pairwise commuting T_a, Q_b and N_b; refuses otherwise.  The twisted
    metric is isometric to the given one (Gordon and Wilson, Trans. AMS 1988).

    The output satisfies Jacobi when nothing is dropped: D grades m, so the
    homogeneous parts Q_b and N_b of the derivation ad_b are derivations of
    m, and h is abelian with T_a, Q_b and N_b commuting.  An entry below the
    tolerance of weight p_b is dropped, though, and meets Q_b in the Jacobi
    sums of the input, so the output may miss Jacobi by its size times
    |Q_b|; that is checked last.
    """
    mu, p, n = spec.algebra, spec.spectral, spec.dim
    res = jacobi_residual(mu)
    if not res <= tol:
        raise StructureError(f"input is not a Lie algebra (Jacobi residual {res:.3e})")
    h, frame = set(h), set(range(1, n + 1))
    if not h <= frame:
        raise DecompositionError(f"abelian part h must lie in 1..{n}, got {sorted(h)}")
    m = frame - h
    items = mu.items()
    e, s = exponents(p, [t for t, _ in items])
    # Each operator's matrix on m, op[row[k], row[l]] = mu[a, l | k]; T_a is the whole action.
    row = {l: r for r, l in enumerate(sorted(m))}
    fixed, moving = [a for a in sorted(h) if not p[a - 1]], [b for b in sorted(h) if p[b - 1]]
    ops = {f"{name}_{a}": np.zeros((len(m), len(m)))
           for name, part in (("T", fixed), ("Q", moving), ("N", moving)) for a in part}
    kept, refused = {}, []
    for ((i, j, k), v), x in zip(items, e):
        a, l = (j, i) if j in h else (i, j)  # mu[a,l|k] = +-v
        acts = a in h and l in m and k in m
        if abs(v) > tol and not acts and not {i, j, k} <= m:
            why = ("abelian part not abelian" if l in h
                   else "ideal not invariant" if a in h else "ideal not closed")
            raise DecompositionError(f"{why}: mu[{i},{j}|{k}] = {v:g}")
        if x == 0:
            kept[i, j, k] = v
        elif abs(v) > tol and {i, j, k} <= m:
            raise PatternViolationError(
                f"ideal bracket mu[{i},{j}|{k}] = {v:g} is not an eigenvector "
                "of the deformation; the twisting does not apply"
            )
        elif acts and abs(v) > tol and x != -p[a - 1] * s:
            why = ("entry outside both eigenvalue patterns" if p[a - 1]
                   else "zero-eigenvalue action must preserve eigenspaces")
            refused.append((a, k, l, v if a == i else -v, why))
        part = "T" if not p[a - 1] else "N" if x == 0 else "Q" if x == -p[a - 1] * s else None
        if acts and part:
            ops[f"{part}_{a}"][row[k], row[l]] = v if a == i else -v
    if refused:
        a, k, l, v, why = min(refused)
        raise PatternViolationError(f"mu[{a},{l}|{k}] = {v:g}: {why}")
    for b in moving:
        skew_defect = _maxabs(ops[f"Q_{b}"] + ops[f"Q_{b}"].T)
        if skew_defect > tol:
            raise PatternViolationError(
                f"block-diagonal action of e_{b} is not skew (defect {skew_defect:.3e})"
            )
    for (name_x, op_x), (name_y, op_y) in itertools.combinations(ops.items(), 2):
        defect = _maxabs(op_x @ op_y - op_y @ op_x)
        if defect > tol:
            raise CommutationError(
                f"{name_x} and {name_y} do not commute (defect {defect:.3e})"
            )
    out = StructureTensor(n, kept)
    res = jacobi_residual(out)
    if not res <= tol:
        raise StructureError(f"modified tensor violates Jacobi (residual {res:.3e})")
    return replace(spec, algebra=out)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def _require_int(value, field: str, *args) -> int:
    """value, or StructureError naming ``field.format(*args)`` when it is not
    an integer: int() would truncate 3.7 to 3, and True is an Integral.  A
    plain int skips the abstract-class check, which is slow on every index."""
    if type(value) is not int and (not isinstance(value, numbers.Integral) or isinstance(value, bool)):
        raise StructureError(f"{field.format(*args)} must be an integer, got {value!r}")
    return value


def algebra_from_json(data: Mapping) -> tuple[StructureTensor, Optional[ExtensionSpec], Optional[tuple[int, ...]]]:
    """Parse the interchange format.

    Expected shape: {"dim": n, "mu": [{"i": 1, "j": 2, "k": 3, "v": 2.0}, ...],
    optional "spectral": [...], optional "decomposition": {"h": [...], "m": [...]},
    optional "param": value, optional "constant_structure": true}.  Indices
    and "dim" are integers; values, "param" included, may be numbers or
    "num/den", and eigenvalues also affine forms "a+b*t", which
    :func:`make_spec` substitutes at "param".  A "param" value is accepted
    exactly when some eigenvalue depends on t.  Only homogeneous data is
    supported, so "constant_structure" may only be true.  The third value
    is the sorted abelian part "h" of the decomposition, or None without
    one; a decomposition whose "h" and "m" do not partition 1..dim raises
    :class:`DecompositionError`, and any other bad shape
    :class:`StructureError`.
    """
    try:
        return _parse_algebra_json(data)
    except (TypeError, AttributeError) as exc:
        raise StructureError(f"malformed algebra JSON: {exc}") from exc


def _parse_algebra_json(data: Mapping) -> tuple[StructureTensor, Optional[ExtensionSpec], Optional[tuple[int, ...]]]:
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
    entries: dict = {}
    for item in data.get("mu", []):
        try:
            key, value = (item["i"], item["j"], item["k"]), item["v"]
            if not (type(value) is float and math.isfinite(value)):  # a finite float reads as itself
                value = parse_rational(value)
        except (KeyError, TypeError, ValueError) as exc:
            raise StructureError(f"bad mu entry {item!r}: {exc}") from exc
        for name, idx in zip("ijk", key):
            _require_int(idx, "mu index '{}'", name)
        if key in entries:  # a repeat adds up here; StructureTensor reads and checks each value
            value = _float(entries[key], "mu[{},{}|{}]", *key) + _float(value, "mu[{},{}|{}]", *key)
            if not math.isfinite(value):
                raise StructureError("mu[%d,%d|%d] given more than once adds up past float64" % key)
        entries[key] = value
    mu = StructureTensor(dim, entries)
    if not isinstance(data.get("spectral", []), list):
        raise StructureError(f"'spectral' must be a list, got {data['spectral']!r}")
    param = data.get("param")
    spec = make_spec(mu, data.get("spectral", ()), param) if "spectral" in data or param is not None else None
    h = None
    if "decomposition" in data:
        d = data["decomposition"]
        h = tuple(sorted(_require_int(x, "decomposition 'h' entry") for x in d.get("h", ())))
        m = tuple(_require_int(x, "decomposition 'm' entry") for x in d.get("m", ()))
        if sorted(h + m) != list(range(1, dim + 1)):
            raise DecompositionError(f"decomposition 'h' and 'm' must partition 1..{dim}")
    return mu, spec, h


def algebra_to_json(mu: StructureTensor, spec: Optional[ExtensionSpec] = None) -> dict:
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
    return out
