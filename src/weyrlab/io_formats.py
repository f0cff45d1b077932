"""File formats and JSON serialization.

Pencil files:    {"n": int, "E": [[scalar, ...], ...], "A": [[scalar, ...], ...]}
Relation files:  {"dim_x": int, "dim_y": int, "basis": [{"x": [...], "y": [...]}, ...]}

Scalars use the exact text format of the scalars module (`a/b`,
`a/b+c/d*i`, integer shorthand).  Everything is canonicalized on load, and
all serialization is deterministic: fixed key order, sorted spectral
points, no floats anywhere.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any

from .errors import ParseError
from .linalg import Matrix, Vector, vector
from .pencils import OperatorPencil
from .perturbations import TrialResult, VerificationReport, Violation
from .polynomials import Polynomial
from .relations import LinearRelation, SpectrumReport, WeyrTable
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
    "relation_to_dict",
    "relation_from_dict",
    "load_relation",
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
        parsed.append([parse_scalar(str(x)) for x in row])
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


def _load_json(path: str, what: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {what} file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} file is not valid JSON: {exc}") from exc


def load_pencil(path: str) -> OperatorPencil:
    return pencil_from_dict(_load_json(path, "pencil"))


def save_pencil(p: OperatorPencil, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(pencil_to_dict(p)))
        fh.write("\n")


# -- relation files -------------------------------------------------------------

def relation_to_dict(rel: LinearRelation) -> dict:
    basis = []
    for v in rel.span.basis_vectors():
        basis.append(
            {
                "x": [format_scalar(c) for c in v[: rel.dim_x]],
                "y": [format_scalar(c) for c in v[rel.dim_x :]],
            }
        )
    return {"dim_x": rel.dim_x, "dim_y": rel.dim_y, "basis": basis}


def relation_from_dict(data: Any) -> LinearRelation:
    _require(isinstance(data, dict), "relation file must hold a JSON object")
    for key in ("dim_x", "dim_y", "basis"):
        _require(key in data, f"relation file is missing {key!r}")
    dim_x, dim_y = data["dim_x"], data["dim_y"]
    _require(_is_int(dim_x) and dim_x >= 0, "dim_x must be a nonnegative integer")
    _require(_is_int(dim_y) and dim_y >= 0, "dim_y must be a nonnegative integer")
    _require(isinstance(data["basis"], list), "basis must be a list")
    pairs = []
    for rec in data["basis"]:
        _require(isinstance(rec, dict) and "x" in rec and "y" in rec, "basis records need x and y")
        x = [parse_scalar(str(c)) for c in rec["x"]]
        y = [parse_scalar(str(c)) for c in rec["y"]]
        _require(len(x) == dim_x and len(y) == dim_y, "basis vector lengths must match dimensions")
        pairs.append((x, y))
    return LinearRelation.from_pairs(dim_x, dim_y, pairs)


def load_relation(path: str) -> LinearRelation:
    return relation_from_dict(_load_json(path, "relation"))


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
