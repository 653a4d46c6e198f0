"""Command-line front end: file ingestion, dispatch, report serialization.

Exit codes: 0 on success, 1 for validation or parse problems, 2 when the
vanishing criterion cannot apply to the input at all (for example a relation
order excluded by Feit-Higman).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import criterion as crit
from .complexes import _number_table, cosine_matrix_of_complex, load_complex, thickness
from .coxeter import classify_coxeter, coxeter_cosine, load_coxeter_matrix
from .decomposition import (
    VERIFY_TOL,
    as_mask,
    build_lattice,
    indices_of,
    load_family,
    verify_decomposition,
)
from .errors import CriterionInapplicableError, GarlandError, InputFormatError, ValidationError
from .reporting import input_digest, render_json, render_text, to_jsonable
from .subspaces import cosine_matrix_of_family, spherical_face_family


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; keep 2 reserved for
    # criterion-inapplicable results and treat bad flags as parse errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# built on first use and shared by every main() call in the process: parsing
# fills a fresh namespace and leaves no state on the parser, but every caller
# gets the same object, so none may add arguments or change defaults on it
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="garland", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="path to the input file")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("analyze-coxeter", help="cosine matrix, classification, verdicts")
    common(p)
    p.add_argument("--thickness", type=int, default=None, metavar="Q",
                   help="evaluate the vanishing criterion at thickness q+1")
    p.add_argument("--min-thickness", action="store_true",
                   help="search for the smallest admissible q")

    p = sub.add_parser("analyze-complex", help="validation, thickness, cosine matrix")
    common(p)

    p = sub.add_parser("decompose", help="subspace lattice and decomposition checks")
    common(p)
    p.add_argument("--tau", default=None, metavar="I,J,...",
                   help="single index set to verify (default: all subsets)")
    p.add_argument("--tol", type=float, default=VERIFY_TOL)

    p = sub.add_parser("spherical-simplex", help="face subspace cosine matrix")
    common(p)
    return parser


def _load_json(path: str):
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from None
    try:
        return raw, json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # bytes that do not decode, or an integer past the digit limit
        raise InputFormatError(f"{path}: {exc}") from None
    except RecursionError:
        raise InputFormatError(f"{path}: the document is nested too deeply") from None


def cmd_analyze_coxeter(args, data) -> tuple[dict, list[str]]:
    # C is built and solved once; every call below reads its spectrum
    cox = load_coxeter_matrix(data)
    c = coxeter_cosine(cox)
    warnings: list[str] = []
    result = {
        "rank": cox.rank,
        "m": cox.m,
        "cosine_matrix": c.matrix,
        "eigenvalues": c.eigenvalues,
        "smallest_eigenvalue": c.eigenvalues[0],
        "classification": classify_coxeter(cox, c),
    }
    if args.min_thickness:
        result["min_thickness_q"] = crit.min_thickness(c.min_eigenvalue())
    if args.thickness is not None:
        report = crit.vanishing_report(cox, args.thickness, c)
        result["vanishing"] = report
        if report.borderline:
            warnings.append(
                f"criterion comparison is within {crit.BORDERLINE_TOL:g} of the threshold"
            )
    return result, warnings


def cmd_analyze_complex(args, data) -> tuple[dict, list[str]]:
    x = load_complex(data)
    report = cosine_matrix_of_complex(x)
    warnings = []
    if report.degenerate:
        warnings.append("1-dimensional input: the report degenerates to a single eigenvalue")
    disagreeing = [
        pair for pair, spec in report.per_pair.items() if spec.max_disagreement > 1e-9
    ]
    if disagreeing:
        warnings.append(
            "per-pair eigenvalues disagree across representatives for pairs "
            + ", ".join(f"{{{a},{b}}}" for a, b in disagreeing)
            + "; the maximum was used"
        )
    result = {
        "n": x.n,
        "vertex_count": len(x.vertex_types),
        "facet_count": len(x.facet_array),
        "validation": report.validation,
        "thickness": thickness(x),
        "cosine_matrix": report.matrix.matrix,
        "smallest_eigenvalue": report.matrix.min_eigenvalue(),
        "definiteness": report.definiteness,
        "per_pair": [
            {
                "types": list(pair),
                "second_eigenvalue": spec.second_eigenvalue,
                "representatives": spec.representatives,
                "max_disagreement": spec.max_disagreement,
                "link_diameter": spec.link_diameter,
            }
            for pair, spec in sorted(report.per_pair.items())
        ],
        "convention": report.convention,
    }
    return result, warnings


def cmd_decompose(args, data) -> tuple[dict, list[str]]:
    if not math.isfinite(args.tol):
        raise ValidationError(f"--tol must be a finite number, got {args.tol}")
    family = load_family(data)
    n = family.n
    lattice = build_lattice(family)
    cosine = cosine_matrix_of_family(family)
    definiteness = cosine.definiteness
    warnings = []
    if not definiteness.is_positive_definite:
        warnings.append(
            "cosine matrix is not positive definite; the decomposition is not guaranteed"
        )
    if args.tau is not None:
        try:
            requested = [int(part) for part in args.tau.split(",") if part != ""]
        except ValueError:
            raise ValidationError(f"--tau must be a comma-separated index list, got {args.tau!r}")
        check_masks = [as_mask(requested, n)]
    else:
        check_masks = list(lattice.h_lower)
    checks = [verify_decomposition(lattice, m, tol=args.tol) for m in check_masks]
    result = {
        "ambient_dim": family.ambient_dim,
        "n": n,
        "member_dims": [s.dim for s in family.members],
        "cosine_matrix": cosine.matrix,
        "smallest_eigenvalue": cosine.min_eigenvalue(),
        "definiteness": definiteness,
        "lattice": [
            {
                "tau": list(indices_of(m)),
                "dim_h_tau": lattice.h_lower[m].dim,
                "dim_h_sup_tau": lattice.h_upper[m].dim,
            }
            for m in lattice.h_lower
        ],
        "checks": checks,
        "all_hold": all(c.holds for c in checks),
    }
    return result, warnings


def cmd_spherical_simplex(args, data) -> tuple[dict, list[str]]:
    if not isinstance(data, dict) or "vertices" not in data:
        raise InputFormatError("simplex document needs a list field 'vertices'")
    family = spherical_face_family(_number_table(data["vertices"], "vertices"))
    cosine = cosine_matrix_of_family(family)
    result = {
        "vertex_count": family.n + 1,
        "ambient_dim": family.ambient_dim,
        "face_cosine_matrix": cosine.matrix,
        "eigenvalues": cosine.eigenvalues,
        "smallest_eigenvalue": cosine.eigenvalues[0],
        "definiteness": cosine.definiteness,
    }
    warnings = []
    if "reference_matrix" in data:
        ref = _number_table(data["reference_matrix"], "reference_matrix")
        if ref.shape != cosine.matrix.shape:
            raise ValidationError(
                f"reference matrix shape {ref.shape} does not match {cosine.matrix.shape}"
            )
        dev = float(np.max(np.abs(cosine.matrix - ref)))
        result["reference_comparison"] = {
            "max_abs_difference": dev,
            "agrees_within_1e_9": dev <= 1e-9,
            "text": f"max |A - reference| = {dev:.3e}",
        }
    return result, warnings


def _envelope(args, raw: bytes, result: dict, warnings: list[str]) -> dict:
    options = {}
    for name in ("thickness", "min_thickness", "tau", "tol"):
        if hasattr(args, name):
            options[name.replace("_", "-")] = getattr(args, name)
    return {
        "tool": "garland",
        "subcommand": args.subcommand,
        "input": args.input,
        "input_digest": input_digest(raw),
        "options": options,
        "result": result,
        "warnings": warnings,
    }


_COMMANDS = {
    "analyze-coxeter": cmd_analyze_coxeter,
    "analyze-complex": cmd_analyze_complex,
    "decompose": cmd_decompose,
    "spherical-simplex": cmd_spherical_simplex,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        raw, data = _load_json(args.input)
        result, warnings = _COMMANDS[args.subcommand](args, data)
    except CriterionInapplicableError as exc:
        print(f"garland: criterion inapplicable: {exc}", file=sys.stderr)
        return 2
    except GarlandError as exc:
        print(f"garland: error: {exc}", file=sys.stderr)
        return 1
    report = to_jsonable(_envelope(args, raw, result, warnings))
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return 0
