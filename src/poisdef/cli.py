"""Command-line interface: analyze, deform, and verify subcommands.

All three commands emit a single JSON report (to stdout, or to the path
given by ``--report``).  Reports contain no timestamps, hostnames, or
absolute paths, and every sweep or sample is driven by the seed recorded
in the report, so identical inputs produce byte-identical output.

``deform --family`` is read by :meth:`poisdef.deform.CoeffFamily.read`,
and ``--order`` is bounded by :data:`poisdef.deform.MAX_ORDER`.

Exit codes:

* ``0`` — the command ran and every check passed,
* ``1`` — refused input: a :class:`poisdef.algebra.DomainError`
  (unparsable input, ambiguous or invalid weights, non-isolated singular
  point, invalid coefficient family, cap violations, unusable flags), an
  unreadable file (``OSError``) or a family file that is not JSON
  (``json.JSONDecodeError``),
* ``2`` — the command ran but at least one exact check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

from .algebra import (
    MAX_COEFFICIENT_BITS,
    DomainError,
    WeightSystem,
    bounded_int,
    infer_weights,
    parse_poly,
    weighted_degree,
)
from .cohomology import enumerate_basis
from .deform import (
    MAX_ORDER,
    MAX_PHI_POWER,
    CoeffFamily,
    build_deformation,
    first_order_class,
    jacobi_residual,
)
from .singularity import SingularityData, milnor_basis
from .suites import SUITE_NAMES, SuiteConfig, run_suites


class CLIUsageError(DomainError):
    """Unusable command line (unknown flag, bad literal, missing value)."""


class _ArgumentParser(argparse.ArgumentParser):
    """Argparse variant that raises instead of calling sys.exit(2)."""

    def error(self, message):
        raise CLIUsageError(message)


# -- shared pieces -------------------------------------------------------------

def _int_arg(text: str) -> int:
    """The value of an integer flag: an optional sign, then ASCII digits,
    at most MAX_COEFFICIENT_BITS bits."""
    value = bounded_int(text)
    if value is None:
        raise argparse.ArgumentTypeError(
            f"expected an integer of ASCII digits 0-9 with an optional sign "
            f"and at most {MAX_COEFFICIENT_BITS} bits, got {text!r}")
    return value


def _parse_weights(text: str) -> WeightSystem:
    parts = text.split(",")
    if len(parts) != 3:
        raise CLIUsageError(
            f"--weights expects three comma-separated integers, got {text!r}"
        )
    try:
        values = tuple(_int_arg(part.strip()) for part in parts)
    except argparse.ArgumentTypeError:
        raise CLIUsageError(
            f"--weights expects integers, got {text!r}"
        ) from None
    try:
        return WeightSystem(values)
    except ValueError as exc:
        raise CLIUsageError(str(exc)) from None


def _load_data(args) -> tuple[SingularityData, bool]:
    """Parse the potential, fix weights, and analyze the singular point."""
    phi = parse_poly(args.phi)
    if args.weights is not None:
        weights = _parse_weights(args.weights)
        inferred = False
        if weighted_degree(phi, weights) is None:
            raise CLIUsageError(
                f"{phi} is not weight-homogeneous for weights "
                f"{weights.weights}"
            )
    else:
        weights = infer_weights(phi)
        inferred = True
    return milnor_basis(phi, weights), inferred


def _check_order(args) -> None:
    if not 1 <= args.order <= MAX_ORDER:
        raise CLIUsageError(f"--order must be between 1 and {MAX_ORDER}")


def _check_weight_cap(args, data: SingularityData) -> None:
    # The cap stops at Cas(MAX_PHI_POWER), the class of the largest power of
    # phi a coefficient family may name, so no cap demands an unbounded
    # enumeration.
    bound = MAX_PHI_POWER * data.d
    if args.weight_cap is not None and not 0 <= args.weight_cap <= bound:
        raise CLIUsageError(
            f"--weight-cap must be between 0 and {bound} ({MAX_PHI_POWER} "
            f"times the degree {data.d} of the potential)"
        )


def _potential_block(data: SingularityData, inferred: bool) -> dict:
    return {
        "phi": str(data.phi),
        "weights": list(data.weights.weights),
        "weights_inferred": inferred,
        "degree": data.d,
        "abs_weight": data.weights.total,
        "case": "special" if data.special else "generic",
        "mu": data.mu,
        "socle": data.socle,
        "milnor_basis": [str(p) for p in data.basis_polys],
    }


def _emit(report: dict, path: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


# -- subcommands ---------------------------------------------------------------


def cmd_analyze(args) -> int:
    data, inferred = _load_data(args)
    _check_weight_cap(args, data)
    cap = SuiteConfig(weight_cap=args.weight_cap).pair_cap(data)
    basis = {
        str(g): [str(lab) for lab in enumerate_basis(data, g, cap)]
        for g in (-1, 0, 1, 2)
    }
    report = {
        "command": "analyze",
        "potential": _potential_block(data, inferred),
        "basis_weight_cap": cap,
        "cohomology_basis": basis,
        "status": "pass",
    }
    _emit(report, args.report)
    return 0


def cmd_deform(args) -> int:
    _check_order(args)
    data, inferred = _load_data(args)
    fam = (CoeffFamily.make({}, {}) if args.family is None
           else CoeffFamily.read(args.family, data))
    series = build_deformation(data, fam, args.order)
    residual = jacobi_residual(series)
    residual_rows = [
        {"order": n, "zero": residual.coefficient(n).is_zero()}
        for n in range(1, args.order + 1)
    ]
    ok = all(row["zero"] for row in residual_rows)
    report = {
        "command": "deform",
        "potential": _potential_block(data, inferred),
        "order": args.order,
        "family": fam.to_json_dict(),
        "coefficients": [
            {"order": n, "multivector": str(series.coefficient(n))}
            for n in range(args.order + 1)
        ],
        "first_order_class": str(first_order_class(series, data)),
        "jacobi_residual": residual_rows,
        "status": "pass" if ok else "fail",
    }
    _emit(report, args.report)
    return 0 if ok else 2


def cmd_verify(args) -> int:
    _check_order(args)
    data, inferred = _load_data(args)
    _check_weight_cap(args, data)
    names = args.suites if args.suites else list(SUITE_NAMES)
    for i, name in enumerate(names):
        if name not in SUITE_NAMES:
            raise CLIUsageError(
                f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
            )
        if name in names[:i]:
            raise CLIUsageError(f"suite {name!r} is named more than once")
    if args.arity_cap < 2:
        raise CLIUsageError("--arity-cap must be at least 2")
    if data.special and "gauge" in names and args.order > args.arity_cap:
        # the class-level gauge action brackets up to --order classes
        raise CLIUsageError(
            f"the gauge suite on a balanced potential needs brackets of "
            f"arity up to --order {args.order}, above --arity-cap "
            f"{args.arity_cap}"
        )
    config = SuiteConfig(
        order=args.order,
        weight_cap=args.weight_cap,
        arity_cap=args.arity_cap,
        seed=args.seed,
    )
    suite_reports = run_suites(names, data, config)
    ok = all(rep["status"] == "pass" for rep in suite_reports)
    report = {
        "command": "verify",
        "potential": _potential_block(data, inferred),
        "config": {**dataclasses.asdict(config), "suites": list(names)},
        "suites": suite_reports,
        "status": "pass" if ok else "fail",
    }
    _emit(report, args.report)
    return 0 if ok else 2


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="poisdef",
        description=(
            "Exact deformations of Poisson structures from weighted-"
            "homogeneous potentials."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, order=False, caps=False, family=False, seed=False):
        p.add_argument("--phi", required=True,
                       help="potential, e.g. 'x^2 + y^3 + z^5'")
        p.add_argument("--weights", default=None, metavar="a,b,c",
                       help="variable weights (inferred when omitted)")
        if order:
            p.add_argument("--order", type=_int_arg, default=3, metavar="m",
                           help="truncation order in the formal parameter")
        if caps:
            p.add_argument("--weight-cap", type=_int_arg, default=None,
                           metavar="W", help="label weight cap for sweeps")
            p.add_argument("--arity-cap", type=_int_arg, default=4,
                           metavar="K",
                           help="largest bracket arity that may be used")
        if family:
            p.add_argument("--family", default=None, metavar="PATH",
                           help="JSON coefficient family (default: empty)")
        if seed:
            p.add_argument("--seed", type=_int_arg, default=0, metavar="N",
                           help="seed for the sampled checks")
        p.add_argument("--report", default=None, metavar="PATH",
                       help="write the JSON report here instead of stdout")

    p_analyze = sub.add_parser(
        "analyze", help="classify the potential and list cohomology bases")
    p_analyze.add_argument("--weight-cap", type=_int_arg, default=None,
                           metavar="W",
                           help="label weight cap for the basis listing")
    add_common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_deform = sub.add_parser(
        "deform", help="build a truncated deformation from a family")
    add_common(p_deform, order=True, family=True)
    p_deform.set_defaults(func=cmd_deform)

    p_verify = sub.add_parser(
        "verify", help="run exact verification suites")
    p_verify.add_argument("suites", nargs="*", metavar="SUITE",
                          help=f"suites to run (default: all of "
                               f"{', '.join(SUITE_NAMES)})")
    add_common(p_verify, order=True, caps=True, seed=True)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def _error_report(exc: Exception) -> str:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (DomainError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(_error_report(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
