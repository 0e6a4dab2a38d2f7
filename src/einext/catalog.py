"""Named example extensions used as regression anchors and demo inputs.

The four-dimensional table (rows 1-4), the higher Heisenberg family, the
identity extension of a Ricci-flat base, block products, and the flat
three-dimensional algebra whose extension is Einstein although the
deformation is not a derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import ExtensionSpec, StructureTensor, StructureError, _maxabs, make_spec
from .curvature import ricci_at_identity


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    """A named extension spec with its expected verification outcome."""

    name: str
    spec: ExtensionSpec
    expected_pass: bool
    expected_constant: Optional[float]
    note: str = ""


def table1(row: int, param: Optional[float] = None) -> CatalogEntry:
    """The four-dimensional extensions, by row.

    Rows 1-3 take no parameter; row 4 is the one-parameter solvable family
    with eigenvalues (1, p, 0) and Einstein constant -(1 + p^2).  The
    eigenvalue p is exact: a float reads as the decimal it shows, so
    ``table1(4, 0.1)`` has p = 1/10 (:func:`einext.scalars.parse_rational`).
    """
    if row in (1, 2, 3) and param is not None:
        raise ValueError(f"row {row} takes no parameter")
    if row == 1:
        spec = make_spec(StructureTensor(3), [0, 0, 0])
        return CatalogEntry("table1:1", spec, True, 0.0, "flat abelian, trivial deformation")
    if row == 2:
        spec = make_spec(StructureTensor(3), [1, 1, 1])
        return CatalogEntry("table1:2", spec, True, -3.0, "abelian base, hyperbolic extension")
    if row == 3:
        mu = StructureTensor(3, {(1, 2, 3): 2.0}, lie=True)
        spec = make_spec(mu, [1, 1, 2])
        return CatalogEntry(
            "table1:3", spec, True, -6.0, "Heisenberg base, complex-hyperbolic extension"
        )
    if row == 4:
        if param is None:
            raise ValueError("row 4 requires the free parameter")
        p = float(param)
        mu = StructureTensor(3, {(3, 1, 1): p, (3, 2, 2): -1.0}, lie=True)
        spec = make_spec(mu, [1, p, 0])
        return CatalogEntry(
            f"table1:4:{repr(p).removesuffix('.0')}",  # the shortest repr reads back as p
            spec,
            True,
            -(1.0 + p * p),
            "solvable family; extension is a product of two hyperbolic planes",
        )
    raise ValueError(f"table row must be 1..4, got {row}")


def heisenberg(k: int) -> CatalogEntry:
    """Heisenberg algebra of dimension 2k+1 with eigenvalues (1,...,1,2)."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    n = 2 * k + 1
    entries = {(2 * i - 1, 2 * i, n): 2.0 for i in range(1, k + 1)}
    mu = StructureTensor(n, entries, lie=True)
    spec = make_spec(mu, [1] * (n - 1) + [2])
    return CatalogEntry(
        f"heisenberg:{k}",
        spec,
        True,
        -(2.0 * k + 4.0),
        "contact-type extension of the Heisenberg group",
    )


def e2() -> CatalogEntry:
    """Flat euclidean-motions algebra with scalar deformation.

    The canonical fixture whose extension is Einstein while the deformation
    is not a derivation of the algebra.
    """
    mu = StructureTensor(3, {(3, 1, 2): 1.0, (3, 2, 1): -1.0}, lie=True)
    spec = make_spec(mu, [1, 1, 1])
    return CatalogEntry(
        "e2",
        spec,
        True,
        -3.0,
        "flat non-abelian base; scalar deformation is not a derivation",
    )


def identity_extension(flat: StructureTensor) -> CatalogEntry:
    """Scalar-type extension of a Ricci-flat base; constant -n.

    Refuses a base that is not Ricci flat: the scalar deformation is
    Einstein exactly when the undeformed metric is Ricci flat.
    """
    worst = _maxabs(ricci_at_identity(flat))
    if worst > 1e-10:
        raise StructureError(
            "identity extension requires a Ricci-flat base; "
            f"max |Ric| = {worst:.3e}"
        )
    spec = make_spec(flat, [1] * flat.dim)
    return CatalogEntry(
        "identity-extension", spec, True, -float(flat.dim), "scalar deformation of a Ricci-flat base"
    )


def product(a: ExtensionSpec, b: ExtensionSpec) -> ExtensionSpec:
    """Block direct sum of two specs with concatenated eigenvalues.

    The result verifies exactly when each block separately satisfies the
    Einstein target of the combined deformation.
    """
    na = a.dim
    entries = {key: v for key, v in a.algebra.items()}
    for (i, j, k), v in b.algebra.items():
        entries[(i + na, j + na, k + na)] = v
    return ExtensionSpec(StructureTensor(na + b.dim, entries), a.spectral + b.spectral)


def entries() -> list[CatalogEntry]:
    """The default named entries, as served by the command line."""
    out = [table1(1), table1(2), table1(3), table1(4, 1.0)]
    out.extend(heisenberg(k) for k in range(1, 5))
    out.append(e2())
    return out


def lookup(name: str) -> CatalogEntry:
    """Resolve "table1:<row>[:<param>]", "heisenberg:<k>", or "e2"."""
    parts = name.split(":")
    kind = parts[0]
    try:
        if kind == "table1":
            if len(parts) == 2:
                row = int(parts[1])
                return table1(row, 1.0) if row == 4 else table1(row)
            if len(parts) == 3:
                return table1(int(parts[1]), float(parts[2]))
        elif kind == "heisenberg" and len(parts) == 2:
            return heisenberg(int(parts[1]))
        elif kind == "e2" and len(parts) == 1:
            return e2()
    except ValueError as exc:
        raise KeyError(f"bad catalog reference {name!r}: {exc}") from exc
    raise KeyError(
        f"unknown catalog entry {name!r}; expected table1:<row>[:<param>], "
        "heisenberg:<k>, or e2"
    )
