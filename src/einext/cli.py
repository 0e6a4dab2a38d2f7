"""Command-line front end with JSON-only stdout.

Exit codes: 0 success / verification pass, 3 verification failure or
non-convergence, 2 input or validation error.  Diagnostics go to stderr.

``main`` runs a request in one order: parse, read, compute, emit.  ``_read``
checks the flags and reads the input before numpy loads, refusing NaN,
Infinity and number literals past float64 as the JSON is parsed, so an input
error exits without loading it.  ``main`` then loads the command's first
package module, which compiles before numpy loads, and runs the command's
compute step ``(args, data) -> (payload, passed)`` in its one float-error
scope.  Each step imports the library modules it calls, so ``enumerate``
never loads the curvature, solver or verifier code.  ``main`` alone writes
stdout and maps the verdict to 0 or 3.  A flag that was not given is not
passed on, so the library's defaults have one home.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from dataclasses import asdict
from typing import Optional, Sequence

from .scalars import parse_rational

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FAIL = 3


class InputError(ValueError):
    pass


def _require_finite(name: str, value: Optional[float], nonnegative: bool = False) -> None:
    if value is not None and (not math.isfinite(value) or (nonnegative and value < 0)):
        kind = "finite and nonnegative" if nonnegative else "finite"
        raise InputError(f"{name} must be {kind}, got {value!r}")


def _given(**settings) -> dict:
    """The settings whose flag was given, as keyword arguments."""
    return {name: value for name, value in settings.items() if value is not None}


OVERFLOW_MESSAGE = (
    "the curvature overflows float64 (a residual that is not finite); "
    "scale the structure constants or eigenvalues down"
)


def _emit(payload, pretty: bool) -> None:
    layout = {"indent": 2} if pretty else {"separators": (",", ":")}
    try:
        text = json.dumps(payload, allow_nan=False, **layout)
    except ValueError as exc:  # an infinity or NaN in the result
        raise InputError(OVERFLOW_MESSAGE) from exc
    sys.stdout.write(text + "\n")


def _digit_limit_message(args: argparse.Namespace) -> str:
    """Names the input with a number past Python's int-to-str digit limit, which stays as it is."""
    source = f"--catalog {args.catalog}" if getattr(args, "catalog", None) else "--input"
    source = f"--spectral {args.spectral!r}" if "spectral" in args else source
    limit = sys.get_int_max_str_digits()
    return f"{source}: a number past Python's {limit:,}-digit limit for integer string conversion"


def _read_json_input(raw: str) -> dict:
    """Accept inline JSON, '-' for stdin, or a file path.  NaN, Infinity,
    -Infinity and a number past float64 such as 1e999 are refused."""
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

    def refuse(literal: str):
        raise InputError(f"{literal} in {origin} is not a finite float64 number")

    def finite(literal: str) -> float:
        value = float(literal)
        if not math.isfinite(value):
            refuse(literal)
        return value

    try:
        data = json.loads(text, parse_constant=refuse, parse_float=finite)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {origin} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise InputError(f"expected a JSON object in {origin}")
    return data


def _read(args: argparse.Namespace) -> object:
    """The command's input: the rationals of ``--spectral`` (``cone``,
    ``search``); the algebra JSON of ``--input`` once ``--tol`` and ``--u``
    are checked, or None for ``--catalog``; None for a command with neither."""
    if "spectral" in args:
        try:
            return tuple(parse_rational(part) for part in args.spectral.split(","))
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad spectral vector {args.spectral!r}: {exc}") from exc
    if "catalog" not in args:
        return None
    _require_finite("--tol", getattr(args, "tol", None), nonnegative=True)
    _require_finite("--u", getattr(args, "u", None))
    if args.catalog:
        return None
    if args.input:
        return _read_json_input(args.input)
    raise InputError("provide --input or --catalog")


def _load_spec(args: argparse.Namespace, data: Optional[dict]) -> tuple:
    """The spec, and the abelian part h of the input's decomposition or None."""
    if data is None:
        from . import catalog

        return catalog.lookup(args.catalog).spec, None
    from .algebra import algebra_from_json

    _, spec, h = algebra_from_json(data)
    if spec is None:
        raise InputError("input JSON has no 'spectral' entry")
    return spec, h


def _types_json(types) -> list:
    return sorted([int(x) for x in p.entries] for p in types)


def _cmd_enumerate(args: argparse.Namespace, _) -> tuple[object, bool]:
    from .spectral import enumerate_types, enumeration_report

    cap = _given(cap=args.cap)
    if not (args.report_both or args.cone_filter):
        return _types_json(enumerate_types(args.dim, **cap)), True
    report = enumeration_report(args.dim, **cap)
    if not args.report_both:
        return _types_json(report.cone_filtered), True
    return {
        "dim": args.dim,
        "unfiltered": _types_json(report.unfiltered),
        "cone_filtered": _types_json(report.cone_filtered),
        "cone_rejected": _types_json(report.cone_rejected),
        "consistent": report.consistent,
    }, True


def _cmd_verify(args: argparse.Namespace, data: Optional[dict]) -> tuple[object, bool]:
    from .algebra import is_derivation
    from .verifier import verify_extension

    tol = _given(tol=args.tol)
    spec, h = _load_spec(args, data)
    report = verify_extension(spec, **tol)
    payload = asdict(report)
    check = is_derivation(spec, **tol)
    payload["is_derivation"] = check.ok
    payload["derivation_violation"] = check.max_violation
    if h is not None:
        payload["twist"] = _twist(spec, h, tol)
    return payload, report.einstein


def _twist(spec, h: tuple[int, ...], tol: dict) -> dict:
    """The standard modification along h with its own verification, or why it is refused."""
    from .algebra import StructureError, algebra_to_json, standard_modification
    from .verifier import verify_extension

    try:
        twisted = standard_modification(spec, h, **tol)
    except StructureError as exc:
        return {"refused": str(exc)}
    return {"mu": algebra_to_json(twisted.algebra)["mu"], **asdict(verify_extension(twisted, **tol))}


def _cmd_classify(args: argparse.Namespace, data: Optional[dict]) -> tuple[object, bool]:
    from .verifier import classify_type_0001, classify_type_1110, classify_type_1112

    classify = {
        "0001": classify_type_0001,
        "1110": classify_type_1110,
        "1112": classify_type_1112,
    }[args.type]
    spec, _ = _load_spec(args, data)
    report = classify(spec, **_given(tol=args.tol))
    return report.to_json(), report.passed


def _cmd_curvature(args: argparse.Namespace, data: Optional[dict]) -> tuple[object, bool]:
    from .curvature import extension_ricci

    spec, _ = _load_spec(args, data)
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


def _cmd_catalog(args: argparse.Namespace, _) -> tuple[object, bool]:
    from . import catalog
    from .algebra import algebra_to_json

    entries = [catalog.lookup(args.name)] if args.name else catalog.entries()
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


def _cmd_cone(args: argparse.Namespace, spectral: tuple) -> tuple[object, bool]:
    from .spectral import cone_membership

    cert = cone_membership(spectral)
    return cert.as_dict(), cert.feasible


def _cmd_search(args: argparse.Namespace, spectral: tuple) -> tuple[object, bool]:
    from .algebra import full_pattern
    from .solver import SearchProblem, search

    settings = _given(
        restarts=args.restarts, seed=args.seed, tolerance=args.tol, jacobi_weight=args.jacobi_weight
    )
    pattern = None if args.pattern == "auto" else full_pattern(len(spectral))
    result = search(SearchProblem(spectral=spectral, pattern=pattern, **settings))
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
    p_enum.add_argument("--cap", type=int, help="dimension cap (default: spectral.DEFAULT_DIMENSION_CAP)")
    p_enum.set_defaults(func=_cmd_enumerate, loads="spectral")

    def add_spec_input(p, tol=True):
        p.add_argument("--input", help="algebra JSON: path, inline object, or - for stdin")
        p.add_argument("--catalog", help="catalog reference, e.g. table1:3 or heisenberg:2")
        if tol:
            p.add_argument("--tol", type=float, default=None)

    p_verify = sub.add_parser("verify", help="check the Einstein conditions", parents=[common])
    add_spec_input(p_verify)
    p_verify.set_defaults(func=_cmd_verify, loads="algebra")

    p_classify = sub.add_parser("classify", help="run a structural type classifier", parents=[common])
    p_classify.add_argument("--type", choices=("0001", "1110", "1112"), required=True)
    add_spec_input(p_classify)
    p_classify.set_defaults(func=_cmd_classify, loads="verifier")

    p_curv = sub.add_parser("curvature", help="grouped curvature report", parents=[common])
    add_spec_input(p_curv, tol=False)
    p_curv.add_argument("--u", type=float, default=None, help="also evaluate at this deformation time")
    p_curv.set_defaults(func=_cmd_curvature, loads="curvature")

    p_cat = sub.add_parser("catalog", help="emit catalog entries as algebra JSON", parents=[common])
    group = p_cat.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true")
    group.add_argument("--name", default=None)
    p_cat.set_defaults(func=_cmd_catalog, loads="catalog")

    p_cone = sub.add_parser("cone", help="exact cone-membership certificate", parents=[common])
    p_cone.add_argument("--spectral", required=True, help="comma-separated rationals, e.g. -3,-2,-1,1,2,3")
    p_cone.set_defaults(func=_cmd_cone, loads="spectral")

    p_search = sub.add_parser("search", help="search structure constants for a type", parents=[common])
    p_search.add_argument("--spectral", required=True, help="comma-separated rationals, e.g. 1,1,2")
    p_search.add_argument("--restarts", type=int)
    p_search.add_argument("--seed", type=int)
    p_search.add_argument("--tol", type=float)
    p_search.add_argument("--pattern", choices=("auto", "full"), default="auto")
    p_search.add_argument("--jacobi-weight", type=float)
    p_search.set_defaults(func=_cmd_search, loads="algebra")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags, which matches the input-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        data = _read(args)
        # The command's first package module (``loads``) compiles before
        # numpy loads, which keeps the peak memory of a cold start lower.
        importlib.import_module(f".{args.loads}", __package__)
        import numpy as np

        # An overflow in numpy arithmetic, or the inf - inf it leaves, raises
        # instead of warning and carrying a non-finite value on; the curvature
        # kernel's bincount sums past float64 without either, so curvature
        # raises OverflowError for an entry that is not finite.
        with np.errstate(over="raise", invalid="raise"):
            payload, passed = args.func(args, data)
        _emit(payload, args.pretty)
    except (InputError, ValueError, KeyError, MemoryError) as exc:
        # MemoryError: a "dim" too large to allocate its n x n arrays.  A
        # KeyError's str is the repr of its message, quotes and all.
        if type(exc) is ValueError and "integer string conversion" in str(exc):
            exc = InputError(_digit_limit_message(args))
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OverflowError, FloatingPointError):
        print(f"error: {OVERFLOW_MESSAGE}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK if passed else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
