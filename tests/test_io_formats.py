"""File formats: exact round trips, canonicalization on load, rejection."""

import pytest

from weyrlab.errors import ParseError
from weyrlab.io_formats import (
    dump_json,
    load_pencil,
    parse_point_list,
    parse_vector,
    pencil_from_dict,
    pencil_to_dict,
    report_to_dict,
    trial_result_to_dict,
    weyr_table_to_dict,
)
from weyrlab.linalg import Matrix
from weyrlab.pencils import OperatorPencil, jordan_block
from weyrlab.perturbations import SuiteConfig, TrialResult, VerificationReport, Violation
from weyrlab.relations import WeyrTable
from weyrlab.scalars import INF, gr


def test_pencil_round_trip(tmp_path):
    from fractions import Fraction

    p = OperatorPencil.from_matrices(
        Matrix.from_rows([[1, 0], [0, gr(Fraction(1, 2))]]),
        Matrix.from_rows([[gr(1, 1), gr(0)], [gr(-2), gr(0, Fraction(-2, 3))]]),
    )
    data = pencil_to_dict(p)
    assert pencil_from_dict(data) == p
    path = tmp_path / "p.json"
    path.write_text(dump_json(data), encoding="utf-8")
    assert load_pencil(str(path)) == p


def test_pencil_rejects_bad_records(tmp_path):
    with pytest.raises(ParseError):
        pencil_from_dict({"n": 1, "E": [["1"]]})  # A missing
    with pytest.raises(ParseError):
        pencil_from_dict({"n": 0, "E": [], "A": []})
    with pytest.raises(ParseError):
        pencil_from_dict({"n": 2, "E": [["1", "0"]], "A": [["1", "0"], ["0", "1"]]})
    with pytest.raises(ParseError):
        pencil_from_dict({"n": 1, "E": [["1.5"]], "A": [["1"]]})
    missing = tmp_path / "missing.json"
    with pytest.raises(ParseError):
        load_pencil(str(missing))


def test_vector_and_point_parsing():
    assert parse_vector("1,2/3,-1+1*i") == (gr(1), gr(2) / gr(3), gr(-1, 1))
    assert parse_point_list("0,inf") == [gr(0), INF]
    with pytest.raises(ParseError):
        parse_vector("")
    with pytest.raises(ParseError):
        parse_vector("1,,2")


def test_weyr_table_serialization():
    p = OperatorPencil.from_matrices(Matrix.identity(3), jordan_block(gr(0), 3))
    table = p.weyr_table(gr(0))
    assert weyr_table_to_dict(table) == {"at": "0", "indices": [1, 1, 1], "root_dims": [1, 2, 3]}
    assert weyr_table_to_dict(p.weyr_table(INF))["at"] == "inf"


def test_dump_json_is_stable():
    blob = dump_json({"b": 1, "a": [2, 3]})
    assert blob == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}'


def test_dimensions_reject_booleans():
    with pytest.raises(ParseError):
        pencil_from_dict({"n": True, "E": [["1"]], "A": [["0"]]})


def test_overlong_scalars_are_parse_errors():
    # 5000 digits exceed the interpreter's integer conversion limit.
    digits = "7" * 5000
    with pytest.raises(ParseError):
        pencil_from_dict({"n": 1, "E": [[digits]], "A": [["0"]]})
    with pytest.raises(ParseError):
        pencil_from_dict({"n": 1, "E": [["1"]], "A": [["1/" + digits]]})
    with pytest.raises(ParseError):
        pencil_from_dict({"n": 1, "E": [["1"]], "A": [["1+" + digits + "*i"]]})
    # An int entry of that size cannot even be turned into text.
    with pytest.raises(ParseError):
        pencil_from_dict({"n": 1, "E": [[10**5000]], "A": [[0]]})


def _failing_trial() -> TrialResult:
    from fractions import Fraction

    base = OperatorPencil.from_matrices(Matrix.from_rows([[1]]), Matrix.from_rows([[0]]))
    pert = OperatorPencil.from_matrices(Matrix.from_rows([[1]]), Matrix.from_rows([[gr(Fraction(1, 2), 1)]]))
    return TrialResult(
        trial_id=3,
        base=base,
        perturbed=pert,
        tables=((gr(0), WeyrTable(gr(0), (1,), (1,)), WeyrTable(gr(0), (), ())),),
        violations=(
            Violation("weyr_index_delta", INF, 2, 1, 3),
            Violation("irrational_eigenvalue_multiplicity_base"),
        ),
        distance=1,
    )


BASE_1X1 = {"n": 1, "E": [["1"]], "A": [["0"]]}
PERT_1X1 = {"n": 1, "E": [["1"]], "A": [["1/2+1*i"]]}


def test_report_flattens_each_violation_of_a_failing_trial():
    report = VerificationReport(
        "perturbation_bounds", 5, SuiteConfig(trials=4, seed=5), 4, 3, 1, (_failing_trial(),), 17
    )
    assert report_to_dict(report) == {
        "suite": "perturbation_bounds",
        "seed": 5,
        "config": {"trials": 4, "seed": 5, "max_dim": 6, "entry_bound": 3, "retry_cap": 40},
        "trials": 4,
        "passed": 3,
        "failed": 1,
        "failures": [
            {
                "trial_id": 3,
                "name": "weyr_index_delta",
                "point": "inf",
                "k": 2,
                "w_base": 1,
                "w_pert": 3,
                "base": BASE_1X1,
                "perturbed": PERT_1X1,
            },
            {
                "trial_id": 3,
                "name": "irrational_eigenvalue_multiplicity_base",
                "point": None,
                "k": None,
                "w_base": None,
                "w_pert": None,
                "base": BASE_1X1,
                "perturbed": PERT_1X1,
            },
        ],
        "elapsed_ms": 17,
    }


def test_trial_result_serialization():
    assert trial_result_to_dict(_failing_trial()) == {
        "trial_id": 3,
        "base": BASE_1X1,
        "perturbed": PERT_1X1,
        "tables": [
            {
                "at": "0",
                "base": {"at": "0", "indices": [1], "root_dims": [1]},
                "perturbed": {"at": "0", "indices": [], "root_dims": []},
            }
        ],
        "distance": 1,
        "violations": [
            {"name": "weyr_index_delta", "point": "inf", "k": 2, "w_base": 1, "w_pert": 3},
            {
                "name": "irrational_eigenvalue_multiplicity_base",
                "point": None,
                "k": None,
                "w_base": None,
                "w_pert": None,
            },
        ],
    }
