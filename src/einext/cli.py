"""Command-line front end with JSON-only stdout.

Exit codes: 0 success / verification pass, 3 verification failure or
non-convergence, 2 input or validation error.  Diagnostics go to stderr.
Each command returns its JSON payload and whether it passed; ``main`` alone
writes stdout and maps that verdict to 0 or 3.
The default tolerance can be set through the EINEXT_TOL environment
variable and overridden per call with --tol.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import catalog as catalog_mod
from .algebra import (
    ExtensionSpec,
    StructureError,
    algebra_from_json,
    algebra_to_json,
    full_pattern,
    is_derivation,
    standard_modification,
)
from .curvature import extension_ricci
from .scalars import parse_rational
from .solver import SearchProblem, search
from .spectral import (
    DEFAULT_DIMENSION_CAP,
    SpectralVector,
    cone_membership,
    enumerate_types,
    enumeration_report,
)
from .verifier import (
    DEFAULT_TOL,
    classify_type_0001,
    classify_type_1110,
    classify_type_1112,
    verify_extension,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FAIL = 3

TOL_ENV_VAR = "EINEXT_TOL"


class InputError(ValueError):
    pass


def _require_finite(name: str, value: float, nonnegative: bool = False) -> float:
    if not math.isfinite(value) or (nonnegative and value < 0):
        kind = "finite and nonnegative" if nonnegative else "finite"
        raise InputError(f"{name} must be {kind}, got {value!r}")
    return value


def _tolerance(args: argparse.Namespace) -> float:
    """``--tol``, else ``EINEXT_TOL``, else ``verifier.DEFAULT_TOL``."""
    if args.tol is not None:
        return _require_finite("--tol", args.tol, nonnegative=True)
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError as exc:
        raise InputError(f"bad {TOL_ENV_VAR} value {raw!r}") from exc
    return _require_finite(TOL_ENV_VAR, value, nonnegative=True)


OVERFLOW_MESSAGE = (
    "the curvature overflows float64 (a residual that is not finite); "
    "scale the structure constants or eigenvalues down"
)


def _emit(payload, pretty: bool) -> None:
    try:
        if pretty:
            text = json.dumps(payload, indent=2, sort_keys=False, allow_nan=False)
        else:
            text = json.dumps(payload, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:  # an infinity or NaN in the result
        raise InputError(OVERFLOW_MESSAGE) from exc
    sys.stdout.write(text + "\n")


def _read_json_input(raw: str) -> dict:
    """Accept inline JSON, '-' for stdin, or a file path."""
    if raw.strip().startswith("{"):
        text, origin = raw, "<inline>"
    elif raw == "-":
        text, origin = sys.stdin.read(), "<stdin>"
    else:
        try:
            with open(raw, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise InputError(f"cannot read {raw!r}: {exc}") from exc
        origin = raw
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {origin} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise InputError(f"expected a JSON object in {origin}")
    return data


def _load_spec(args: argparse.Namespace) -> tuple[ExtensionSpec, Optional[tuple[int, ...]]]:
    """The spec, and the abelian part h of the input's decomposition or None."""
    if args.catalog:
        return catalog_mod.lookup(args.catalog).spec, None
    if args.input:
        data = _read_json_input(args.input)
        _, spec, h = algebra_from_json(data)
        if spec is None:
            raise InputError("input JSON has no 'spectral' entry")
        return spec, h
    raise InputError("provide --input or --catalog")


def _parse_spectral(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(parse_rational(part) for part in text.split(","))
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad spectral vector {text!r}: {exc}") from exc


def _types_json(types) -> list:
    return sorted([int(x) for x in p.entries] for p in types)


def _cmd_enumerate(args: argparse.Namespace) -> tuple[object, bool]:
    if not (args.report_both or args.cone_filter):
        return _types_json(enumerate_types(args.dim, args.cap)), True
    report = enumeration_report(args.dim, args.cap)
    if not args.report_both:
        return _types_json(report.cone_filtered), True
    return {
        "dim": args.dim,
        "unfiltered": _types_json(report.unfiltered),
        "cone_filtered": _types_json(report.cone_filtered),
        "cone_rejected": _types_json(report.cone_rejected),
        "consistent": report.consistent,
    }, True


def _cmd_verify(args: argparse.Namespace) -> tuple[object, bool]:
    tol = _tolerance(args)
    spec, h = _load_spec(args)
    report = verify_extension(spec, tol)
    payload = asdict(report)
    check = is_derivation(spec, tol)
    payload["is_derivation"] = check.ok
    payload["derivation_violation"] = check.max_violation
    if h is not None:
        payload["twist"] = _twist(spec, h, tol)
    return payload, report.einstein


def _twist(spec: ExtensionSpec, h: tuple[int, ...], tol: float) -> dict:
    """The standard modification along h with its own verification, or why it is refused."""
    try:
        twisted = standard_modification(spec, h, tol)
    except StructureError as exc:
        return {"refused": str(exc)}
    return {"mu": algebra_to_json(twisted.algebra)["mu"], **asdict(verify_extension(twisted, tol))}


_CLASSIFIERS = {
    "0001": classify_type_0001,
    "1110": classify_type_1110,
    "1112": classify_type_1112,
}


def _cmd_classify(args: argparse.Namespace) -> tuple[object, bool]:
    tol = _tolerance(args)
    spec, _ = _load_spec(args)
    report = _CLASSIFIERS[args.type](spec, tol)
    return report.to_json(), report.passed


def _cmd_curvature(args: argparse.Namespace) -> tuple[object, bool]:
    if args.u is not None:
        _require_finite("--u", args.u)
    spec, _ = _load_spec(args)
    report = extension_ricci(spec)
    payload = report.to_json()
    if args.u is not None:
        try:
            values = report.evaluate_extension(args.u)
        except OverflowError as exc:
            raise InputError(
                f"--u {args.u!r} is too far from 0: exp(-2 u q) C_q overflows float64"
            ) from exc
        payload["evaluated_at"] = {"u": args.u, "extension_ricci": values.tolist()}
    return payload, True


def _cmd_catalog(args: argparse.Namespace) -> tuple[object, bool]:
    entries = [catalog_mod.lookup(args.name)] if args.name else catalog_mod.entries()
    payload = [
        {
            "name": entry.name,
            "expected_pass": entry.expected_pass,
            "expected_constant": entry.expected_constant,
            "note": entry.note,
            "algebra": algebra_to_json(entry.spec.algebra, entry.spec),
        }
        for entry in entries
    ]
    return (payload if args.name is None else payload[0]), True


def _cmd_cone(args: argparse.Namespace) -> tuple[object, bool]:
    cert = cone_membership(SpectralVector(_parse_spectral(args.spectral)))
    return cert.as_dict(), cert.feasible


def _cmd_search(args: argparse.Namespace) -> tuple[object, bool]:
    spectral = _parse_spectral(args.spectral)
    pattern = None if args.pattern == "auto" else full_pattern(len(spectral))
    problem = SearchProblem(
        spectral=spectral,
        pattern=pattern,
        restarts=args.restarts,
        seed=args.seed,
        tolerance=args.tol,
        jacobi_weight=args.jacobi_weight,
    )
    result = search(problem)
    return result.to_json(), result.converged


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="einext",
        description="Eigenvalue types, curvature, and Einstein verification "
        "of rank-one metric extensions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser(
        "enumerate", help="enumerate admissible eigenvalue types", parents=[common]
    )
    p_enum.add_argument("--dim", type=int, required=True)
    p_enum.add_argument("--cone-filter", action="store_true", help="apply the cone condition")
    p_enum.add_argument(
        "--report-both",
        action="store_true",
        help="emit unfiltered and cone-filtered sets with their difference",
    )
    p_enum.add_argument("--cap", type=int, default=DEFAULT_DIMENSION_CAP, help="dimension cap (default %(default)s)")
    p_enum.set_defaults(func=_cmd_enumerate)

    def add_spec_input(p, tol=True):
        p.add_argument("--input", help="algebra JSON: path, inline object, or - for stdin")
        p.add_argument("--catalog", help="catalog reference, e.g. table1:3 or heisenberg:2")
        if tol:
            p.add_argument("--tol", type=float, default=None)

    p_verify = sub.add_parser("verify", help="check the Einstein conditions", parents=[common])
    add_spec_input(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_classify = sub.add_parser("classify", help="run a structural type classifier", parents=[common])
    p_classify.add_argument("--type", choices=sorted(_CLASSIFIERS), required=True)
    add_spec_input(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_curv = sub.add_parser("curvature", help="grouped curvature report", parents=[common])
    add_spec_input(p_curv, tol=False)
    p_curv.add_argument("--u", type=float, default=None, help="also evaluate at this deformation time")
    p_curv.set_defaults(func=_cmd_curvature)

    p_cat = sub.add_parser("catalog", help="emit catalog entries as algebra JSON", parents=[common])
    group = p_cat.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true")
    group.add_argument("--name", default=None)
    p_cat.set_defaults(func=_cmd_catalog)

    p_cone = sub.add_parser("cone", help="exact cone-membership certificate", parents=[common])
    p_cone.add_argument("--spectral", required=True, help="comma-separated rationals, e.g. -3,-2,-1,1,2,3")
    p_cone.set_defaults(func=_cmd_cone)

    p_search = sub.add_parser("search", help="search structure constants for a type", parents=[common])
    p_search.add_argument("--spectral", required=True, help="comma-separated rationals, e.g. 1,1,2")
    p_search.add_argument("--restarts", type=int, default=SearchProblem.restarts)
    p_search.add_argument("--seed", type=int, default=SearchProblem.seed)
    p_search.add_argument("--tol", type=float, default=SearchProblem.tolerance)
    p_search.add_argument("--pattern", choices=("auto", "full"), default="auto")
    p_search.add_argument("--jacobi-weight", type=float, default=SearchProblem.jacobi_weight)
    p_search.set_defaults(func=_cmd_search)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags, which matches the input-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        # An overflow in numpy arithmetic, or the inf - inf it leaves, raises
        # here instead of warning and carrying a non-finite value on; the
        # curvature kernel's bincount sums past float64 without either, so
        # curvature raises OverflowError for an entry that is not finite.
        with np.errstate(over="raise", invalid="raise"):
            payload, passed = args.func(args)
        _emit(payload, args.pretty)
    except (InputError, ValueError, KeyError, MemoryError) as exc:
        # MemoryError: a "dim" too large to allocate its n x n arrays.  A
        # KeyError's str is the repr of its message, quotes and all.
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OverflowError, FloatingPointError):
        print(f"error: {OVERFLOW_MESSAGE}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK if passed else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
