"""Command-line front end.

Subcommands: series, invariants, verify. Groups come from a JSON spec
file (dimension, backend, generators, and optionally max_group_order and
tolerance; any other key is an error) or from --perm cycle notation.
Errors print one machine-parsable line `error:<kind>: message` on stderr;
exit codes: 0 success, 1 input error, 2 verification mismatch, 3 closure
overflow, 4 internal consistency error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from molien.errors import (
    BackendError,
    ClosureOverflowError,
    ConsistencyError,
    MolienError,
    ScalarParseError,
    ShapeError,
    ValidationError,
)
from molien.groups import (
    DEFAULT_MAX_ORDER,
    FiniteMatrixGroup,
    close_group,
    from_permutations,
    permutation_from_cycles,
)
from molien.invariants import invariant_basis
from molien.matrices import SquareMatrix
from molien.polynomials import format_polynomial
from molien.scalars import EXACT, float_backend
from molien.series import cross_check, molien_series

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MISMATCH = 2
EXIT_OVERFLOW = 3
EXIT_CONSISTENCY = 4

SPEC_KEYS = ("dimension", "backend", "generators", "max_group_order", "tolerance")


def _load_spec(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            spec = json.load(handle)
        except json.JSONDecodeError as exc:
            offset = len(exc.doc[:exc.pos].encode("utf-8"))
            raise ScalarParseError(f"invalid JSON in {path}: {exc.msg}", offset) from exc
        except UnicodeDecodeError as exc:
            raise ScalarParseError(f"{path} is not UTF-8: {exc.reason}", exc.start) from exc
        except (ValueError, RecursionError) as exc:
            # an integer literal past Python's digit limit, or nesting past the recursion limit
            raise ScalarParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(spec, dict):
        raise ValidationError("group spec must be a JSON object")
    return spec


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, which is a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _tolerance(value) -> float:
    """A tolerance given as a number or numeric string; the backend checks its range."""
    if not isinstance(value, bool) and isinstance(value, (int, float, str)):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    raise ValidationError(f"tolerance must be a real number, got {value!r}")


def _build_from_spec(spec: dict, args) -> FiniteMatrixGroup:
    for key in spec:
        if key not in SPEC_KEYS:
            raise ValidationError(f"unknown spec key {key!r}; the keys are {', '.join(SPEC_KEYS)}")
    try:
        n = spec["dimension"]
        backend_tag = spec["backend"]
        generators_data = spec["generators"]
    except KeyError as exc:
        raise ValidationError(f"group spec is missing key {exc.args[0]!r}") from exc
    if not _is_int(n) or n < 1:
        raise ValidationError("dimension must be a positive integer")
    if backend_tag not in ("exact", "float"):
        raise ValidationError(f"unknown backend {backend_tag!r}")
    tolerance = args.tolerance if args.tolerance is not None else spec.get("tolerance")
    if backend_tag == "exact":
        if tolerance is not None:
            raise ValidationError("tolerance only applies to the float backend")
        backend = EXACT
    else:
        backend = float_backend() if tolerance is None else float_backend(_tolerance(tolerance))
    if not isinstance(generators_data, list) or not generators_data:
        raise ValidationError("generators must be a nonempty list")
    generators = []
    for pos, rows in enumerate(generators_data):
        if not isinstance(rows, list) or len(rows) != n or any(
            not isinstance(row, list) or len(row) != n for row in rows
        ):
            raise ValidationError(f"generator {pos} is not an {n}x{n} matrix")
        generators.append(SquareMatrix(rows, backend))
    max_order = args.max_order
    if max_order is None:
        max_order = spec.get("max_group_order", DEFAULT_MAX_ORDER)
    if not _is_int(max_order) or max_order < 1:
        raise ValidationError("max_group_order must be a positive integer")
    return close_group(generators, max_order=max_order)


def _build_from_perms(args) -> FiniteMatrixGroup:
    if args.tolerance is not None:
        raise ValidationError("tolerance only applies to the float backend")
    one_line = [permutation_from_cycles(text) for text in args.perm]
    n = max(len(p) for p in one_line)
    padded = [p + tuple(range(len(p) + 1, n + 1)) for p in one_line]
    generators = from_permutations(padded)
    max_order = args.max_order if args.max_order is not None else DEFAULT_MAX_ORDER
    return close_group(generators, max_order=max_order)


def build_group(args) -> FiniteMatrixGroup:
    if args.perm and args.file:
        raise ValidationError("give either a spec file or --perm generators, not both")
    if args.perm:
        return _build_from_perms(args)
    if not args.file:
        raise ValidationError("a group spec file (or --perm) is required")
    return _build_from_spec(_load_spec(args.file), args)


def cmd_series(args) -> int:
    group = build_group(args)
    report = molien_series(group, args.degree)
    if args.format == "json":
        payload = {
            "group_order": report.group_order,
            "degrees": [
                {"d": d, "series": report.coefficients[d]}
                for d in range(args.degree + 1)
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"group_order = {report.group_order}")
        print(f"a = {report.coefficients}")
    return EXIT_OK


def cmd_invariants(args) -> int:
    group = build_group(args)
    basis = invariant_basis(group, args.degree)
    rendered = [format_polynomial(f) for f in basis]
    if args.format == "json":
        payload = {
            "group_order": group.order,
            "invariants": {"d": args.degree, "dimension": len(basis), "basis": rendered},
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"group_order = {group.order}")
        print(f"a_{args.degree} = {len(basis)}")
        for line in rendered:
            print(line)
    return EXIT_OK


def cmd_verify(args) -> int:
    group = build_group(args)
    report = cross_check(group, args.degree)
    if args.format == "json":
        payload = {
            "group_order": report.group_order,
            "degrees": [
                {
                    "d": d,
                    "series": report.per_method["series"][d],
                    "trace": report.per_method["trace"][d],
                    "rank": report.per_method["rank"][d],
                    "agree": report.agreement[d],
                }
                for d in range(args.degree + 1)
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"group_order = {report.group_order}")
        print(f"{'d':>3}  {'series':>6}  {'trace':>6}  {'rank':>6}  agree")
        for d in range(args.degree + 1):
            agree = "yes" if report.agreement[d] else "NO"
            print(
                f"{d:>3}  {report.per_method['series'][d]:>6}  "
                f"{report.per_method['trace'][d]:>6}  {report.per_method['rank'][d]:>6}  {agree}"
            )
        print("OK" if report.all_agree() else "MISMATCH")
    if report.all_agree():
        return EXIT_OK
    disagreeing = "; ".join(
        f"d={d} series={report.per_method['series'][d]} "
        f"trace={report.per_method['trace'][d]} rank={report.per_method['rank'][d]}"
        for d, agree in enumerate(report.agreement)
        if not agree
    )
    return _fail("mismatch", disagreeing, EXIT_MISMATCH)


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="molien",
        description="Molien series and invariant bases of finite unitary matrix groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("file", nargs="?", help="group spec JSON file")
    shared.add_argument("--degree", type=int, required=True, help="maximum degree D (or single degree d)")
    shared.add_argument("--format", choices=("text", "json"), default="text")
    shared.add_argument("--tolerance", type=float, default=None, help="float-backend tolerance override")
    shared.add_argument("--max-order", type=int, default=None, help="group closure bound")
    shared.add_argument(
        "--perm",
        action="append",
        default=[],
        metavar="CYCLES",
        help="permutation generator in cycle notation, e.g. '(1 2)(3)'; repeatable",
    )

    p_series = sub.add_parser("series", parents=[shared], help="Molien coefficients a_0..a_D")
    p_series.set_defaults(handler=cmd_series)
    p_inv = sub.add_parser("invariants", parents=[shared], help="basis of degree-d invariants")
    p_inv.set_defaults(handler=cmd_invariants)
    p_verify = sub.add_parser("verify", parents=[shared], help="three-way coefficient cross-check")
    p_verify.set_defaults(handler=cmd_verify)
    return parser


def _fail(kind: str, message: str, code: int) -> int:
    print(f"error:{kind}: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for mismatches
        if exc.code in (0, None):
            return EXIT_OK
        return _fail("usage", "invalid command line", EXIT_INPUT)
    if args.degree < 0:
        return _fail("validation", "degree must be nonnegative", EXIT_INPUT)
    try:
        return args.handler(args)
    except ScalarParseError as exc:
        return _fail("parse", str(exc), EXIT_INPUT)
    except (ValidationError, ShapeError, BackendError) as exc:
        return _fail("validation", str(exc), EXIT_INPUT)
    except OSError as exc:
        return _fail("input", str(exc), EXIT_INPUT)
    except ClosureOverflowError as exc:
        return _fail("overflow", str(exc), EXIT_OVERFLOW)
    except ConsistencyError as exc:
        return _fail("consistency", str(exc), EXIT_CONSISTENCY)
    except ZeroDivisionError as exc:
        return _fail("arithmetic", str(exc), EXIT_CONSISTENCY)
    except MolienError as exc:
        return _fail("internal", str(exc), EXIT_CONSISTENCY)


if __name__ == "__main__":
    sys.exit(main())
