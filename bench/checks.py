"""Output checks made apart from weyrlab.

They run after the timed ops and count in no metric.  Planted pencils are
checked against their block sizes (w_k = number of blocks of size >= k),
dense pencils against det(x E - A) and its factorisation over Q(i) from
SymPy, and suite runs against the paper's theorems, under which any
reported violation is a fault.  self_test() feeds each check corrupted
outputs and requires every one to be rejected.
"""

from __future__ import annotations

import copy
import json
import re
from fractions import Fraction

import sympy as sp
from sympy.polys.matrices import DomainMatrix

from inputs import Op, format_scalar

X = sp.Symbol("x")
_SCALAR = re.compile(r"^(-?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?)\*i)?$")


def parse_scalar(text: str) -> tuple[Fraction, Fraction]:
    m = _SCALAR.match(text)
    if m is None:
        raise ValueError(f"malformed scalar {text!r}")
    im = Fraction(m.group(3)) if m.group(3) else Fraction(0)
    return Fraction(m.group(1)), (-im if m.group(2) == "-" else im)


def _weyr_of_sizes(sizes: list[int]) -> tuple[list[int], list[int]]:
    indices = []
    k = 1
    while any(s >= k for s in sizes):
        indices.append(sum(1 for s in sizes if s >= k))
        k += 1
    dims = [sum(indices[: i + 1]) for i in range(len(indices))]
    return indices, dims


def _load(rc: int, out: str, problems: list[str]):
    if rc != 0:
        problems.append(f"exit code {rc}")
        return None
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


def check_verify(op: Op, rc: int, out: str) -> list[str]:
    problems: list[str] = []
    report = _load(rc, out, problems)
    if report is None:
        return problems
    if report.get("seed") != op.seed:
        problems.append(f"seed {report.get('seed')} != {op.seed}")
    if report.get("trials") != op.trials or report.get("passed") != op.trials:
        problems.append(f"trials/passed {report.get('trials')}/{report.get('passed')} != {op.trials}")
    if report.get("failed") != 0 or report.get("failures"):
        problems.append(f"{report.get('failed')} trials report a violation")
    return problems


def _tables(report) -> dict:
    return {t["at"]: (t["indices"], t["root_dims"]) for t in report["weyr_tables"]}


def _spectrum(report) -> dict:
    return {parse_scalar(e["value"]): e["multiplicity"] for e in report["spectrum"]["finite"]}


def check_planted(op: Op, rc: int, out: str) -> list[str]:
    problems: list[str] = []
    report = _load(rc, out, problems)
    if report is None:
        return problems
    expected_mult: dict = {}
    for value, size in op.finite_blocks:
        expected_mult[value] = expected_mult.get(value, 0) + size
    spec = report["spectrum"]
    if _spectrum(report) != expected_mult or len(spec["finite"]) != len(expected_mult):
        problems.append("finite spectrum differs from the planted blocks")
    inf_mult = sum(op.infinite_blocks)
    if spec["has_infinity"] != bool(inf_mult) or spec["infinity_multiplicity"] != inf_mult:
        problems.append("infinity multiplicity differs from the planted blocks")
    residual = [parse_scalar(c) for c in spec["residual_coeffs"]]
    if len(residual) != 1 or residual[0] == (0, 0):
        problems.append("residual is not a nonzero constant")
    tables = _tables(report)
    expected = {}
    for value in expected_mult:
        expected[value] = _weyr_of_sizes([s for v, s in op.finite_blocks if v == value])
    expected["inf"] = _weyr_of_sizes(list(op.infinite_blocks))
    got = {("inf" if at == "inf" else parse_scalar(at)): (list(i), list(d)) for at, (i, d) in tables.items()}
    if got != {k: (list(i), list(d)) for k, (i, d) in expected.items()} or len(tables) != len(report["weyr_tables"]):
        problems.append("Weyr tables differ from the planted block sizes")
    return problems


def _sym(z: tuple[Fraction, Fraction]):
    return sp.Rational(z[0].numerator, z[0].denominator) + sp.I * sp.Rational(z[1].numerator, z[1].denominator)


class DenseReference:
    """det(x E - A), its factorisation over Q(i) and the ranks the Weyr tables need, from SymPy."""

    def __init__(self, op: Op):
        n = op.n
        e = sp.Matrix(n, n, lambda i, j: _sym(op.e_rows[i][j]))
        a = sp.Matrix(n, n, lambda i, j: _sym(op.a_rows[i][j]))
        dm = DomainMatrix.from_Matrix(X * e - a)
        det = sp.Poly(dm.domain.to_sympy(dm.det()), X)
        self.n = n
        self.degree = det.degree()
        _, factors = sp.factor_list(det, gaussian=True)
        self.roots: dict = {}
        residual = sp.Poly(1, X, domain=sp.QQ_I)
        for f, mult in factors:
            fp = sp.Poly(f, X, domain=sp.QQ_I)
            if fp.degree() == 1:
                a1, a0 = fp.all_coeffs()
                root = -a0 / a1
                key = (Fraction(str(sp.re(root))), Fraction(str(sp.im(root))))
                self.roots[key] = self.roots.get(key, 0) + mult
            else:
                residual = residual * fp**mult
        self.residual = residual.monic()
        self.geometric = {key: n - _rank(_sym(key) * e - a) for key in self.roots}
        self.geometric_inf = n - _rank(e)


def _rank(m) -> int:
    return DomainMatrix.from_Matrix(m).rank()


def check_dense(op: Op, rc: int, out: str, ref: DenseReference) -> list[str]:
    problems: list[str] = []
    report = _load(rc, out, problems)
    if report is None:
        return problems
    spec = report["spectrum"]
    if _spectrum(report) != ref.roots or len(spec["finite"]) != len(ref.roots):
        problems.append("finite spectrum differs from the SymPy factorisation")
    inf_mult = ref.n - ref.degree
    if spec["has_infinity"] != bool(inf_mult) or spec["infinity_multiplicity"] != inf_mult:
        problems.append("infinity multiplicity differs from n - deg det")
    coeffs = [_sym(parse_scalar(c)) for c in spec["residual_coeffs"]]
    residual = sp.Poly(list(reversed(coeffs)), X, domain=sp.QQ_I)
    if residual.is_zero or residual.monic() != ref.residual:
        problems.append("residual differs from the SymPy factorisation up to a constant")
    tables = _tables(report)
    expected_points = {format_scalar(k) for k in ref.roots} | {"inf"}
    if set(tables) != expected_points or len(tables) != len(report["weyr_tables"]):
        problems.append("Weyr tables are not given at exactly the eigenvalues and infinity")
        return problems
    for key, mult in ref.roots.items():
        indices, dims = tables[format_scalar(key)]
        if not dims or dims[-1] != mult or indices[0] != ref.geometric[key]:
            problems.append(f"Weyr table at {format_scalar(key)} disagrees with multiplicities")
    indices, dims = tables["inf"]
    if (dims[-1] if dims else 0) != inf_mult or (indices[0] if indices else 0) != (ref.geometric_inf if inf_mult else 0):
        problems.append("Weyr table at infinity disagrees with multiplicities")
    return problems


def check(op: Op, rc: int, out: str, refs: dict) -> list[str]:
    if op.kind == "verify":
        return check_verify(op, rc, out)
    if op.kind == "planted":
        return check_planted(op, rc, out)
    return check_dense(op, rc, out, refs[id(op)])


def references(ops: list[Op]) -> dict:
    return {id(op): DenseReference(op) for op in ops if op.kind == "dense"}


def _corruptions(op: Op, out: str) -> list[tuple[str, int, str]]:
    """(label, exit code, output) variants of a correct output that must all be rejected."""
    data = json.loads(out)
    variants = [("exit code 1", 1, out)]

    def edit(label, fn):
        d = copy.deepcopy(data)
        fn(d)
        variants.append((label, 0, json.dumps(d)))

    if op.kind == "verify":
        edit("one failed trial", lambda d: d.update(failed=1, passed=d["passed"] - 1))
        edit("one trial missing", lambda d: d.update(trials=d["trials"] - 1, passed=d["passed"] - 1))
        return variants
    edit("infinity multiplicity + 1", lambda d: d["spectrum"].update(
        infinity_multiplicity=d["spectrum"]["infinity_multiplicity"] + 1))
    edit("extra eigenvalue", lambda d: d["spectrum"]["finite"].append({"value": "7/3", "multiplicity": 1}))
    edit("first Weyr index + 1", lambda d: d["weyr_tables"][0].update(
        indices=[d["weyr_tables"][0]["indices"][0] + 1 if d["weyr_tables"][0]["indices"] else 1]
        + d["weyr_tables"][0]["indices"][1:]))
    edit("residual times (x - 5)", lambda d: d["spectrum"].update(
        residual_coeffs=["-5", "1"] if len(d["spectrum"]["residual_coeffs"]) == 1
        else ["0"] + d["spectrum"]["residual_coeffs"]))
    if data["spectrum"]["finite"]:
        edit("multiplicity + 1", lambda d: d["spectrum"]["finite"][0].update(
            multiplicity=d["spectrum"]["finite"][0]["multiplicity"] + 1))
    return variants


def self_test(ops: list[Op], results: list[tuple[int, str]], refs: dict) -> list[str]:
    """Corrupt the first passing output of each op kind; report every corruption a check accepts."""
    escaped = []
    tested = set()
    for op, (rc, out) in zip(ops, results):
        if op.kind in tested or check(op, rc, out, refs):
            continue
        tested.add(op.kind)
        for label, bad_rc, bad_out in _corruptions(op, out):
            if not check(op, bad_rc, bad_out, refs):
                escaped.append(f"{op.kind}: corruption '{label}' was accepted")
    if not tested:
        escaped.append("no passing output to corrupt")
    return escaped
