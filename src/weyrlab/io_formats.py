"""File formats and JSON serialization.

Pencil files:    {"n": int, "E": [[scalar, ...], ...], "A": [[scalar, ...], ...]}

Scalars use the exact text format of the scalars module (`a/b`,
`a/b+c/d*i`, integer shorthand).  Everything is canonicalized on load, and
all serialization is deterministic: fixed key order, sorted spectral
points, no floats anywhere.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any

from .errors import ParseError, WeyrlabError
from .linalg import Matrix, Vector, vector
from .pencils import OperatorPencil
from .perturbations import TrialResult, VerificationReport, Violation
from .polynomials import Polynomial
from .relations import SpectrumReport, WeyrTable
from .scalars import (
    ExtendedScalar,
    format_extended,
    format_scalar,
    parse_extended,
    parse_scalar,
)

__all__ = [
    "pencil_to_dict",
    "pencil_from_dict",
    "load_pencil",
    "save_pencil",
    "parse_vector",
    "parse_point_list",
    "polynomial_to_list",
    "spectrum_to_dict",
    "weyr_table_to_dict",
    "report_to_dict",
    "trial_result_to_dict",
    "dump_json",
]


def _require(cond: bool, message: str):
    if not cond:
        raise ParseError(message)


def _is_int(x: Any) -> bool:
    """A JSON integer; bool is an int subclass but true/false are not counts."""
    return isinstance(x, int) and not isinstance(x, bool)


# -- scalars and vectors -----------------------------------------------------

def parse_vector(text: str) -> Vector:
    """Comma-separated scalars in the exact text format."""
    text = text.strip()
    _require(bool(text), "empty vector")
    return vector([parse_scalar(part) for part in text.split(",")])


def parse_point_list(text: str) -> list[ExtendedScalar]:
    return [parse_extended(part) for part in text.strip().split(",")]


def _scalar_rows_to_matrix(rows: Any, what: str) -> Matrix:
    _require(isinstance(rows, list) and rows, f"{what} must be a nonempty list of rows")
    parsed = []
    for row in rows:
        _require(isinstance(row, list), f"{what} rows must be lists")
        try:
            texts = [str(x) for x in row]
        except ValueError as exc:  # an int past the interpreter's int-to-str digit limit
            raise ParseError(f"{what} entry too long: {exc}") from exc
        parsed.append([parse_scalar(t) for t in texts])
    widths = {len(r) for r in parsed}
    _require(len(widths) == 1, f"{what} rows have inconsistent lengths")
    return Matrix.from_rows(parsed)


def _matrix_to_rows(m: Matrix) -> list[list[str]]:
    return [[format_scalar(x) for x in m.row(i)] for i in range(m.rows)]


# -- pencil files --------------------------------------------------------------

def pencil_to_dict(p: OperatorPencil) -> dict:
    return {"n": p.n, "E": _matrix_to_rows(p.e_mat), "A": _matrix_to_rows(p.a_mat)}


def pencil_from_dict(data: Any) -> OperatorPencil:
    _require(isinstance(data, dict), "pencil file must hold a JSON object")
    for key in ("n", "E", "A"):
        _require(key in data, f"pencil file is missing {key!r}")
    n = data["n"]
    _require(_is_int(n) and n > 0, "n must be a positive integer")
    e_mat = _scalar_rows_to_matrix(data["E"], "E")
    a_mat = _scalar_rows_to_matrix(data["A"], "A")
    _require((e_mat.rows, e_mat.cols) == (n, n), "E must be n x n")
    _require((a_mat.rows, a_mat.cols) == (n, n), "A must be n x n")
    return OperatorPencil(n, e_mat, a_mat)


def load_pencil(path: str) -> OperatorPencil:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read pencil file: {exc}") from exc
    # ValueError covers malformed JSON, bad UTF-8 and integers past the
    # interpreter's digit limit; RecursionError covers very deep nesting.
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"pencil file is not valid JSON: {exc}") from exc
    return pencil_from_dict(data)


def save_pencil(p: OperatorPencil, path: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump_json(pencil_to_dict(p)))
            fh.write("\n")
    except OSError as exc:
        raise WeyrlabError(f"cannot write pencil file: {exc}") from exc


# -- report serialization ---------------------------------------------------------

def polynomial_to_list(p: Polynomial) -> list[str]:
    return [format_scalar(c) for c in p.coeffs]


def spectrum_to_dict(report: SpectrumReport) -> dict:
    return {
        "finite": [
            {"value": format_scalar(v), "multiplicity": m}
            for v, m in report.finite_eigenvalues
        ],
        "residual_coeffs": polynomial_to_list(report.residual),
        "has_infinity": report.has_infinity,
        "infinity_multiplicity": report.infinity_multiplicity,
    }


def weyr_table_to_dict(table: WeyrTable) -> dict:
    return {
        "at": format_extended(table.at),
        "indices": list(table.indices),
        "root_dims": list(table.root_dims),
    }


def _violation_to_dict(v: Violation) -> dict:
    return {
        "name": v.name,
        "point": None if v.point is None else format_extended(v.point),
        "k": v.k,
        "w_base": v.w_base,
        "w_pert": v.w_pert,
    }


def _failure_records(result: TrialResult) -> list[dict]:
    """One flat record per violation of a failing trial."""
    pencils = {
        "base": None if result.base is None else pencil_to_dict(result.base),
        "perturbed": None if result.perturbed is None else pencil_to_dict(result.perturbed),
    }
    return [
        {"trial_id": result.trial_id, **_violation_to_dict(v), **pencils} for v in result.violations
    ]


def report_to_dict(report: VerificationReport, include_elapsed: bool = True) -> dict:
    out = {
        "suite": report.suite,
        "seed": report.seed,
        "config": asdict(report.config),
        "trials": report.trials,
        "passed": report.passed,
        "failed": report.failed,
        "failures": [rec for r in report.failures for rec in _failure_records(r)],
    }
    if include_elapsed:
        out["elapsed_ms"] = report.elapsed_ms
    return out


def trial_result_to_dict(result: TrialResult) -> dict:
    return {
        "trial_id": result.trial_id,
        "base": pencil_to_dict(result.base),
        "perturbed": pencil_to_dict(result.perturbed),
        "tables": [
            {
                "at": format_extended(pt),
                "base": weyr_table_to_dict(tb),
                "perturbed": weyr_table_to_dict(tp),
            }
            for pt, tb, tp in result.tables
        ],
        "distance": result.distance,
        "violations": [_violation_to_dict(v) for v in result.violations],
    }


def dump_json(data: Any) -> str:
    return json.dumps(data, indent=2, sort_keys=True)
