"""Hostile input stays inside the error contract.

Parsers return a value or raise ParseError, and `analyze` on any file exits
0, 1 or 2, never 3 (a crash).
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from weyrlab.cli import main
from weyrlab.errors import ParseError
from weyrlab.io_formats import pencil_from_dict
from weyrlab.pencils import OperatorPencil
from weyrlab.scalars import GaussianRational, parse_scalar

# Derandomized and without an example database, so every run of the suite
# draws the same examples.
FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=12,
)
SCALAR_TEXT = st.from_regex(r"-?[0-9]{1,3}(/[0-9]{1,2})?([+-][0-9]{1,2}(/[0-9])?\*i)?", fullmatch=True)
ENTRY = SCALAR_TEXT | st.integers(-3, 3) | JSON
ROWS = st.lists(st.lists(ENTRY, max_size=3), max_size=3) | JSON
# Mostly pencil-shaped records of size at most 3, so the valid ones stay cheap.
PENCIL_LIKE = st.fixed_dictionaries({"n": st.integers(-1, 3) | JSON, "E": ROWS, "A": ROWS}) | JSON


@FUZZ
@given(st.text() | SCALAR_TEXT)
@example("1\n")  # `$` would match before the final newline
@example("\u0661\u0662")  # Arabic-Indic 12: `\d` would match it
def test_parse_scalar_returns_a_value_or_parse_error(text):
    try:
        value = parse_scalar(text)
    except ParseError:
        return
    assert isinstance(value, GaussianRational)
    assert set(text) <= set("0123456789/+-*i")


@FUZZ
@given(PENCIL_LIKE)
def test_pencil_from_dict_returns_a_pencil_or_parse_error(data):
    try:
        pencil = pencil_from_dict(data)
    except ParseError:
        return
    assert isinstance(pencil, OperatorPencil)


@settings(FUZZ, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(PENCIL_LIKE.map(json.dumps) | st.text())
@example('{"n": 1, "E": [[' + "1" * 5000 + ']], "A": [[0]]}')  # past the int digit limit
@example("[" * 100000 + "]" * 100000)  # nesting past the recursion limit
def test_analyze_exits_zero_one_or_two_on_any_file(tmp_path, capsys, text):
    path = tmp_path / "pencil.json"
    path.write_text(text, encoding="utf-8")
    assert main(["analyze", "--pencil", str(path)]) in (0, 1, 2)
    assert "internal error" not in capsys.readouterr().err
