"""Rank-one perturbations, distance bounds, Weyr deltas, and the harness."""

import json
import random

import pytest

from weyrlab.errors import DimensionMismatch, NotRegularError
from weyrlab.io_formats import report_to_dict
from weyrlab.linalg import Matrix, rref, vector
from weyrlab.pencils import CanonicalSpec, OperatorPencil, jordan_block
from weyrlab.perturbations import (
    _RESOLVENT_CANDIDATES,
    PerturbationSpec,
    SuiteConfig,
    TrialInputs,
    _find_resolvent,
    _suite_kernel_range_identities,
    _suite_relation_weyr_bound,
    apply_perturbation,
    greedy_shrink,
    random_trial,
    relation_distance,
    run_suite,
    weyr_delta_check,
)
from weyrlab.polynomials import Polynomial
from weyrlab.relations import LinearRelation
from weyrlab.scalars import INF, gr

I2 = Matrix.identity(2)
J2 = jordan_block(gr(0), 2)
ZERO2 = Matrix.zeros(2, 2)
E1 = vector([1, 0])
E2 = vector([0, 1])


def test_spec_slot_validation():
    with pytest.raises(TypeError):
        PerturbationSpec(kind="type_v", u=E1, v_func=E1)  # w missing
    with pytest.raises(ValueError):
        PerturbationSpec(kind="sideways", u=E1, v_func=E1, w=E2)


def test_apply_perturbation_zero_data_is_identity():
    p = OperatorPencil.from_matrices(I2, J2)
    zero = vector([0, 0])
    spec = PerturbationSpec(kind="type_v", u=zero, v_func=zero, w=zero)
    assert apply_perturbation(p, spec) == p


def test_apply_perturbation_worked_example():
    p = OperatorPencil.from_matrices(ZERO2, ZERO2)
    spec = PerturbationSpec(kind="type_u", u=E1, v_func=E1, w=E2)
    hat = apply_perturbation(p, spec)
    assert hat.e_mat == Matrix.from_rows([[1, 0], [0, 0]])
    assert hat.a_mat == Matrix.from_rows([[0, 1], [0, 0]])


def test_apply_perturbation_type_u_on_jordan_pencil():
    p = OperatorPencil.from_matrices(I2, J2)
    spec = PerturbationSpec(kind="type_u", u=E1, v_func=vector([0, 0]), w=E1)
    hat = apply_perturbation(p, spec)
    assert hat.e_mat == I2
    assert hat.a_mat == Matrix.from_rows([[1, 1], [0, 0]])


def test_apply_perturbation_length_check():
    p = OperatorPencil.from_matrices(I2, J2)
    with pytest.raises(DimensionMismatch):
        apply_perturbation(p, PerturbationSpec(kind="type_v", u=vector([1]), v_func=E1, w=E2))


def test_relation_distance_basics():
    l = LinearRelation.from_graph(J2)
    assert relation_distance(l, l) == 0
    zero_graph = LinearRelation.from_graph(ZERO2)
    proj = LinearRelation.from_graph(Matrix.from_rows([[1, 0], [0, 0]]))
    # intersection is {(x, 0) : x on the second axis}, so both quotients are 1
    assert relation_distance(zero_graph, proj) == 1
    with pytest.raises(DimensionMismatch):
        relation_distance(l, LinearRelation.identity(3))


def test_matching_distance_zero_perturbation():
    p = OperatorPencil.from_matrices(I2, J2)
    zero = vector([0, 0])
    hat = apply_perturbation(p, PerturbationSpec(kind="type_v", u=zero, v_func=zero, w=zero))
    assert relation_distance(p.range_representation(), hat.range_representation()) == 0


def test_matching_distance_bound_randomized():
    rng = random.Random(3)
    for trial in range(60):
        n = rng.randint(1, 5)
        e = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        a = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        p = OperatorPencil.from_matrices(e, a)
        u = vector([rng.randint(-3, 3) for _ in range(n)])
        vf = vector([rng.randint(-3, 3) for _ in range(n)])
        wx = vector([rng.randint(-3, 3) for _ in range(n)])
        if trial % 2 == 0:
            spec = PerturbationSpec(kind="type_v", u=u, v_func=vf, w=wx)
            side = OperatorPencil.range_representation
        else:
            spec = PerturbationSpec(kind="type_u", u=u, v_func=vf, w=wx)
            side = OperatorPencil.kernel_representation
        hat = apply_perturbation(p, spec)
        assert relation_distance(side(p), side(hat)) <= 1


def test_offside_distance_can_reach_two():
    p = OperatorPencil.from_matrices(ZERO2, ZERO2)
    type_u = PerturbationSpec(kind="type_u", u=E1, v_func=E1, w=E2)
    hat = apply_perturbation(p, type_u)
    offside = relation_distance(p.range_representation(), hat.range_representation())
    assert offside == 2
    matching = relation_distance(p.kernel_representation(), hat.kernel_representation())
    assert matching <= 1


def test_weyr_delta_identical_pencils():
    p = OperatorPencil.from_matrices(I2, J2)
    res = weyr_delta_check(p, p)
    assert res.passed and not res.has_nonzero_delta
    for _, tb, tp in res.tables:
        assert tb.indices == tp.indices


def test_weyr_delta_worked_example():
    base = OperatorPencil.from_matrices(I2, J2)
    pert = OperatorPencil.from_matrices(I2, Matrix.from_rows([[1, 1], [0, 0]]))
    res = weyr_delta_check(base, pert)
    tables = {str(pt): (tb.indices, tp.indices) for pt, tb, tp in res.tables}
    assert tables["0"] == ((1, 1), (1,))
    assert res.passed
    assert res.has_nonzero_delta


def test_weyr_delta_jordan3_perturbation():
    base = OperatorPencil.from_matrices(Matrix.identity(3), jordan_block(gr(0), 3))
    spec = PerturbationSpec(
        kind="type_u", u=vector([1, 0, 0]), v_func=vector([0, 0, 0]), w=vector([0, 0, 1])
    )
    pert = apply_perturbation(base, spec)
    res = weyr_delta_check(base, pert)
    assert res.passed
    for pt, tb, tp in res.tables:
        for k in range(1, 5):
            assert abs(tb.index_at(k) - tp.index_at(k)) <= 1


def test_weyr_delta_requires_regular():
    zero = OperatorPencil.from_matrices(ZERO2, ZERO2)
    with pytest.raises(NotRegularError):
        weyr_delta_check(zero, zero)


def test_irrational_eigenvalues_pass_when_simple():
    # base has eigenvalues +-sqrt(2); the perturbed pencil is rational
    base = OperatorPencil.from_matrices(I2, Matrix.from_rows([[0, 2], [1, 0]]))
    pert = OperatorPencil.from_matrices(I2, Matrix.from_rows([[1, 2], [1, 0]]))
    res = weyr_delta_check(base, pert)
    assert res.passed
    assert base.spectrum().residual.degree == 2


def test_irrational_eigenvalue_multiplicity_is_flagged():
    # two copies of the sqrt(2) companion block: geometric multiplicity 2 at
    # +-sqrt(2), which no rank-one neighbour can mask
    a = Matrix.from_rows(
        [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]]
    )
    base = OperatorPencil.from_matrices(Matrix.identity(4), a)
    other = OperatorPencil.from_matrices(
        Matrix.identity(4), jordan_block(gr(0), 4)
    )
    res = weyr_delta_check(base, other)
    names = {v.name for v in res.violations}
    assert "irrational_eigenvalue_multiplicity_base" in names


def test_irrational_check_with_zero_eigenvalue_and_infinite_block():
    # E = I4 + [1] + [0] and A = B + [0] + [1]: 0 is an eigenvalue and E is
    # singular, so the check shifts by mu = 1 and the pencil has an infinite
    # block.  B = C + C (C the companion of x^2 - 2) has two eigenvectors at
    # each of +-sqrt(2); the companion of (x^2 - 2)^2 has one.  A unimodular
    # equivalence hides the block structure.
    n = 6
    e = Matrix.from_rows([[int(i == j and i < 5) for j in range(n)] for i in range(n)])
    s = Matrix.from_rows([[int(j == i) + int(j == i + 1) for j in range(n)] for i in range(n)])
    t = Matrix.from_rows([[int(j == i) - int(j == i - 2) for j in range(n)] for i in range(n)])
    other = OperatorPencil.from_matrices(Matrix.identity(n), jordan_block(gr(1), n))

    def names(b_rows):
        a = Matrix.from_rows(
            [row + [0, 0] for row in b_rows] + [[0] * n, [0] * (n - 1) + [1]]
        )
        base = OperatorPencil.from_matrices(e, a).apply_equivalence(s, t)
        assert base.det_poly.evaluate(gr(0)).is_zero and base.det_poly.degree == n - 1
        assert base.spectrum().residual.degree == 4
        return {v.name for v in weyr_delta_check(base, other).violations}

    two_blocks = [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]]
    one_block = [[0, 0, 0, -4], [1, 0, 0, 0], [0, 1, 0, 4], [0, 0, 1, 0]]
    assert "irrational_eigenvalue_multiplicity_base" in names(two_blocks)
    assert "irrational_eigenvalue_multiplicity_base" not in names(one_block)


@pytest.mark.parametrize(
    "head, flagged",
    [
        ([[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]], True),  # C + C
        ([[0, 0, 0, -4], [1, 0, 0, 0], [0, 1, 0, 4], [0, 0, 1, 0]], False),  # companion((x^2 - 2)^2)
    ],
    ids=["two_blocks", "one_block"],
)
def test_irrational_check_next_to_a_simple_residual_factor(head, flagged):
    # Residual (x^2 - 2)^2 (x^2 - 3): the head block carries the repeated
    # factor and D, the companion of x^2 - 3, a simple one.  Only the head
    # decides: C + C has two eigenvectors at each of +-sqrt(2), the one-block
    # companion one, and +-sqrt(3) are simple roots.
    n = 6
    a = Matrix.from_rows([row + [0, 0] for row in head] + [[0] * 5 + [3], [0] * 4 + [1, 0]])
    base = OperatorPencil.from_matrices(Matrix.identity(n), a)
    other = OperatorPencil.from_matrices(Matrix.identity(n), jordan_block(gr(1), n))
    assert base.spectrum().residual.monic() == Polynomial.from_coeffs([-12, 0, 16, 0, -7, 0, 1])
    names = {v.name for v in weyr_delta_check(base, other).violations}
    assert ("irrational_eigenvalue_multiplicity_base" in names) == flagged


def test_greedy_shrink_reaches_minimal_inputs():
    blocks = CanonicalSpec(((gr(1), 2), (gr(0), 1), (INF, 1)))
    s = Matrix.from_rows([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    inputs = TrialInputs(
        trial_id=0,
        blocks=blocks,
        s_mat=s,
        t_mat=Matrix.identity(4),
        pspec=PerturbationSpec(
            kind="type_v", u=vector([1, 2, 0, 3]), v_func=vector([4, 5, 6, 0]), w=vector([7, 0, 8, 9])
        ),
    )

    def fake_violation(cand: TrialInputs) -> bool:
        return bool(cand.pspec.u[0])

    shrunk = greedy_shrink(inputs, fake_violation)
    assert fake_violation(shrunk)
    assert shrunk.blocks.total_size == 1
    assert shrunk.pspec.u == vector([1])
    assert shrunk.pspec.v_func == vector([0])
    assert shrunk.pspec.w == vector([0])
    assert shrunk.s_mat == Matrix.identity(1)


def test_random_trial_is_deterministic():
    cfg = SuiteConfig(trials=1, seed=99, max_dim=4)
    a = random_trial(cfg, 5)
    b = random_trial(cfg, 5)
    assert a.base == b.base and a.perturbed == b.perturbed
    assert a.tables == b.tables and a.distance == b.distance


def test_trial_inputs_build_each_pencil_once():
    blocks = CanonicalSpec(((gr(1), 2), (INF, 1)))
    inputs = TrialInputs(
        trial_id=0,
        blocks=blocks,
        s_mat=Matrix.identity(3),
        t_mat=Matrix.identity(3),
        pspec=PerturbationSpec(kind="type_u", u=vector([1, 0, 0]), v_func=vector([0, 1, 0]), w=vector([0, 0, 1])),
    )
    assert inputs.base is inputs.base and inputs.perturbed is inputs.perturbed
    assert inputs.perturbed == apply_perturbation(inputs.base, inputs.pspec)


def test_find_resolvent_beyond_palette():
    # Every palette point is an eigenvalue, so the finder must go past the palette.
    n = len(_RESOLVENT_CANDIDATES)
    a_mat = Matrix.from_rows(
        [[_RESOLVENT_CANDIDATES[i] if i == j else gr(0) for j in range(n)] for i in range(n)]
    )
    p = OperatorPencil.from_matrices(Matrix.identity(n), a_mat)
    rel = LinearRelation.from_graph(a_mat)
    for is_resolvent in (p.resolvent_point, rel.is_resolvent_point):
        assert not any(is_resolvent(mu) for mu in _RESOLVENT_CANDIDATES)
        assert _find_resolvent(random.Random(5), n, is_resolvent) == gr(6)


def test_random_trial_retry_cap_reports_without_crashing():
    cfg = SuiteConfig(trials=1, seed=1, max_dim=3, retry_cap=0)
    res = random_trial(cfg, 0)
    assert [v.name for v in res.violations] == ["generation_retry_cap_exhausted"]


def test_relation_bound_pencil_route_records_its_pair():
    cfg = SuiteConfig(trials=1, seed=3, max_dim=4)
    for trial_id in (0, 2):  # even trials take the pencil route
        res = _suite_relation_weyr_bound(cfg, trial_id)
        assert res.passed
        assert res.base.is_regular and res.perturbed.is_regular
        assert rref(res.perturbed.e_mat - res.base.e_mat)[2] <= 1
        assert rref(res.perturbed.a_mat - res.base.a_mat)[2] <= 1
    surgery = _suite_relation_weyr_bound(cfg, 1)
    assert surgery.base is None and surgery.perturbed is None
    exhausted = _suite_relation_weyr_bound(SuiteConfig(trials=1, seed=3, max_dim=4, retry_cap=0), 0)
    assert [v.name for v in exhausted.violations] == ["generation_retry_cap_exhausted"]
    assert exhausted.base is not None


def test_kernel_range_identities_records_its_pencil():
    res = _suite_kernel_range_identities(SuiteConfig(trials=1, seed=3, max_dim=4), 0)
    assert res.passed and res.base.is_regular and res.perturbed is None


def test_random_trial_builds_its_perturbed_pencil_once(monkeypatch):
    import weyrlab.perturbations as perturbations

    calls = []
    real = perturbations.apply_perturbation

    def counting(p, s):
        calls.append(s)
        return real(p, s)

    monkeypatch.setattr(perturbations, "apply_perturbation", counting)
    for trial_id in (0, 1):  # one type_v and one type_u trial, each regular at the first draw
        calls.clear()
        res = random_trial(SuiteConfig(trials=1, seed=1, max_dim=4), trial_id)
        assert res.passed and calls == [res.spec]


def test_shrinking_keeps_the_violation_it_found(monkeypatch):
    # With the bound tightened to |delta w_k| <= 0, trial 98 at seed 42 fails;
    # some shrink candidates of it have a singular perturbed pencil, and the
    # shrunk counterexample must still show the violation that was found.
    import weyrlab.perturbations as perturbations

    real = perturbations._index_delta_violations

    def tightened(point, tb, tp):
        out = real(point, tb, tp)
        for k in range(1, max(len(tb.indices), len(tp.indices), 1) + 1):
            wb, wp = tb.index_at(k), tp.index_at(k)
            if abs(wb - wp) == 1:
                out.append(perturbations.Violation("weyr_index_delta", point, k, wb, wp))
        return out

    monkeypatch.setattr(perturbations, "_index_delta_violations", tightened)
    res = random_trial(SuiteConfig(trials=99, seed=42, max_dim=6), 98)
    names = {v.name for v in res.violations}
    assert "weyr_index_delta" in names
    assert "perturbed_pencil_not_regular" not in names


def test_shrunk_failure_report_is_byte_identical(monkeypatch):
    # Flag every nonzero Weyr index delta, so each of the 6 trials fails and
    # is shrunk; the sha256 of the report (elapsed_ms dropped, sorted keys)
    # pins the shrinker's candidate order and its shrunk inputs.
    import hashlib

    import weyrlab.perturbations as perturbations

    def any_delta(point, tb, tp):
        out = []
        for k in range(1, max(len(tb.indices), len(tp.indices), 1) + 1):
            wb, wp = tb.index_at(k), tp.index_at(k)
            if wb != wp:
                out.append(perturbations.Violation("weyr_index_delta", point, k, wb, wp))
        return out

    monkeypatch.setattr(perturbations, "_index_delta_violations", any_delta)
    report = run_suite("perturbation_bounds", SuiteConfig(trials=6, seed=42))
    data = report_to_dict(report, include_elapsed=False)
    assert report.failed == 6
    assert [r["name"] for r in data["failures"]] == ["weyr_index_delta"] * 12
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == "5da01eb52a77293f748e5aa13db2300324be8a1deaefb6a2c2a8ef95fc15137d"


def test_run_suite_empty():
    rep = run_suite("perturbation_bounds", SuiteConfig(trials=0, seed=42))
    assert rep.trials == 0 and rep.failed == 0 and rep.failures == ()


def test_run_suite_unknown_name():
    from weyrlab.errors import ParseError

    with pytest.raises(ParseError):
        run_suite("nonsense", SuiteConfig(trials=1, seed=1))


def test_reports_are_deterministic_excluding_elapsed():
    cfg = SuiteConfig(trials=8, seed=123, max_dim=4)
    r1 = run_suite("perturbation_bounds", cfg)
    r2 = run_suite("perturbation_bounds", cfg)
    d1 = json.dumps(report_to_dict(r1, include_elapsed=False), sort_keys=True)
    d2 = json.dumps(report_to_dict(r2, include_elapsed=False), sort_keys=True)
    assert d1 == d2


def test_run_all_covers_every_suite():
    rep = run_suite("all", SuiteConfig(trials=2, seed=7, max_dim=3))
    from weyrlab.perturbations import SUITE_NAMES

    assert rep.trials == 2 * len(SUITE_NAMES)
    assert rep.failed == 0


@pytest.mark.parametrize(
    "suite",
    [
        "resolvent_representation",
        "kernel_range_identities",
        "spectrum_equality",
        "weyr_equality",
        "singular_subspace",
        "matching_distance",
        "perturbation_bounds",
        "relation_weyr_bound",
    ],
)
def test_each_suite_smoke(suite):
    rep = run_suite(suite, SuiteConfig(trials=4, seed=2024, max_dim=4))
    assert rep.failed == 0, [v.name for r in rep.failures for v in r.violations]
