"""Acceptance gate: every criterion at its stated tolerance, one line each.

All checks are exact (bit-level equality of canonical forms); the only
tolerances are the runtime budgets.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion PASS lines.
"""

import json
import time

import pytest

from weyrlab.io_formats import report_to_dict
from weyrlab.linalg import Matrix, Subspace, vector
from weyrlab.pencils import OperatorPencil
from weyrlab.perturbations import (
    PerturbationSpec,
    SuiteConfig,
    apply_perturbation,
    random_trial,
    relation_distance,
    run_suite,
)

BOUND_TRIALS = 1000
BOUND_CONFIG = SuiteConfig(trials=BOUND_TRIALS, seed=42, max_dim=6)


def announce(label: str, detail: str, elapsed: float):
    print(f"PASS {label}: {detail} [{elapsed:.2f}s]")


@pytest.fixture(scope="module")
def bound_trial_results():
    """The shared 1000-trial perturbation-bound run (criteria 7, 8, 9)."""
    start = time.perf_counter()
    results = [random_trial(BOUND_CONFIG, t) for t in range(BOUND_TRIALS)]
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_zero_pencil_worked_example():
    start = time.perf_counter()
    zero2 = Matrix.zeros(2, 2)
    base = OperatorPencil.from_matrices(zero2, zero2)
    e1, e2 = vector([1, 0]), vector([0, 1])

    type_u = PerturbationSpec(kind="type_u", u=e1, v_func=e1, w=e2)
    range_side = apply_perturbation(base, type_u).range_representation()
    expected_range = Subspace.from_spanning(
        4, [vector([1, 0, 0, 0]), vector([0, 0, 1, 0])]
    )
    assert range_side.span == expected_range
    assert range_side.span.basis == expected_range.basis  # bit-exact canonical form
    dist_range = relation_distance(base.range_representation(), range_side)
    assert dist_range == 2

    type_v = PerturbationSpec(kind="type_v", u=e1, v_func=e1, w=e2)
    kernel_side = apply_perturbation(base, type_v).kernel_representation()
    expected_kernel = Subspace.from_spanning(
        4, [vector([0, 1, 0, 0]), vector([0, 0, 0, 1])]
    )
    assert kernel_side.span == expected_kernel
    assert kernel_side.span.basis == expected_kernel.basis
    dist_kernel = relation_distance(base.kernel_representation(), kernel_side)
    assert dist_kernel == 2

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce("criterion 1", "zero-pencil worked example reproduced bit-exactly, both distances = 2", elapsed)


def test_criterion_2_resolvent_representation_suite():
    start = time.perf_counter()
    report = run_suite("resolvent_representation", SuiteConfig(trials=200, seed=42, max_dim=5))
    elapsed = time.perf_counter() - start
    assert report.failed == 0, [v.name for r in report.failures for v in r.violations]
    assert report.trials == 200
    assert elapsed < 30.0
    announce("criterion 2", "200 resolvent-representation identities, subspace-exact, 0 failures", elapsed)


def test_criterion_3_kernel_range_identity_suite():
    start = time.perf_counter()
    report = run_suite("kernel_range_identities", SuiteConfig(trials=300, seed=42, max_dim=6))
    elapsed = time.perf_counter() - start
    assert report.failed == 0, [v.name for r in report.failures for v in r.violations]
    assert report.trials == 300
    assert elapsed < 120.0
    announce(
        "criterion 3",
        "300 pencils: all kernel/range/mul/dom identities, resolvent forms, and index data exact, 0 failures",
        elapsed,
    )


def test_criterion_4_spectrum_equality_suite():
    start = time.perf_counter()
    report = run_suite("spectrum_equality", SuiteConfig(trials=200, seed=42, max_dim=6))
    elapsed = time.perf_counter() - start
    assert report.failed == 0, [v.name for r in report.failures for v in r.violations]
    assert report.trials == 200
    announce(
        "criterion 4",
        "200 pencils: point spectra of both representations match the pencil spectrum (incl. residuals up to unit)",
        elapsed,
    )


def test_criterion_5_weyr_equality_suite():
    start = time.perf_counter()
    report = run_suite("weyr_equality", SuiteConfig(trials=300, seed=42, max_dim=6))
    elapsed = time.perf_counter() - start
    assert report.failed == 0, [v.name for r in report.failures for v in r.violations]
    assert report.trials == 300
    announce(
        "criterion 5",
        "300 planted pencils: Weyr tables of pencil, kernel rep, and range rep coincide; chain and power oracles agree",
        elapsed,
    )


def test_criterion_6_singular_subspace_suite():
    start = time.perf_counter()
    report = run_suite("singular_subspace", SuiteConfig(trials=200, seed=42, max_dim=6))
    elapsed = time.perf_counter() - start
    assert report.failed == 0, [v.name for r in report.failures for v in r.violations]
    assert report.trials == 200
    announce(
        "criterion 6",
        "200 relations: stabilized root-space intersections agree across 10 point pairs (incl. inf) and match the singular subspace",
        elapsed,
    )


def test_criterion_7_weyr_perturbation_bounds(bound_trial_results):
    results, elapsed = bound_trial_results
    failures = [r for r in results if not r.passed]
    assert not failures, [(r.trial_id, [v.name for v in r.violations]) for r in failures[:5]]
    kinds = [r.spec.kind for r in results if r.spec is not None]
    assert kinds.count("type_v") == 500 and kinds.count("type_u") == 500
    nonzero = sum(1 for r in results if r.has_nonzero_delta)
    assert nonzero >= 50
    assert elapsed < 300.0
    announce(
        "criterion 7",
        f"1000 rank-one trials: |dw_k| <= 1 and |d dim| <= k everywhere; {nonzero} trials moved the characteristic",
        elapsed,
    )


def test_criterion_8_matching_side_distances(bound_trial_results):
    start = time.perf_counter()
    results, _ = bound_trial_results
    distances = [r.distance for r in results if r.distance is not None]
    assert len(distances) == BOUND_TRIALS
    assert all(d <= 1 for d in distances)

    # stored off-side case: the bound is side-specific and fails off-side
    zero2 = Matrix.zeros(2, 2)
    base = OperatorPencil.from_matrices(zero2, zero2)
    e1, e2 = vector([1, 0]), vector([0, 1])
    type_u = PerturbationSpec(kind="type_u", u=e1, v_func=e1, w=e2)
    hat = apply_perturbation(base, type_u)
    offside = relation_distance(base.range_representation(), hat.range_representation())
    assert offside == 2
    matching = relation_distance(base.kernel_representation(), hat.kernel_representation())
    assert matching <= 1
    elapsed = time.perf_counter() - start
    announce(
        "criterion 8",
        "matching-side distances <= 1 across all 1000 trials; stored off-side case yields distance 2",
        elapsed,
    )


def test_criterion_9_weyr_monotonicity(bound_trial_results):
    start = time.perf_counter()
    results, _ = bound_trial_results
    tables = 0
    for r in results:
        for _, tb, tp in r.tables:
            for t in (tb, tp):
                assert all(a >= b for a, b in zip(t.indices, t.indices[1:]))
                tables += 1
    assert tables > 0
    # The WeyrTable constructor enforces the same invariant structurally, so
    # every table produced by criteria 1-8 already passed it on creation.
    elapsed = time.perf_counter() - start
    announce(
        "criterion 9",
        f"monotone Weyr indices confirmed on {tables} tables (and enforced structurally at construction)",
        elapsed,
    )


def test_criterion_10_report_determinism():
    start = time.perf_counter()
    first = report_to_dict(run_suite("perturbation_bounds", BOUND_CONFIG), include_elapsed=False)
    second = report_to_dict(run_suite("perturbation_bounds", BOUND_CONFIG), include_elapsed=False)
    blob1 = json.dumps(first, sort_keys=True).encode()
    blob2 = json.dumps(second, sort_keys=True).encode()
    assert blob1 == blob2
    elapsed = time.perf_counter() - start
    announce(
        "criterion 10",
        "repeated 1000-trial run serializes byte-identically (wall time excluded)",
        elapsed,
    )
