"""Rank-one pencil perturbations and the randomized verification harness.

Two perturbation shapes are supported, each given by the three vectors
u, v_func (v') and w: the shared-functional kind ("type_v", E + u v',
A + w v', w a column) and the shared-vector kind ("type_u", E + u v',
A + u w', w a functional).  The first is a one-dimensional perturbation of
the range representation, the second of the kernel representation, and the
Weyr characteristic of a regular pencil moves by at most one per index
under either; the suites in this module check those facts on seeded
random draws and shrink any counterexample they find.

A perturbation trial follows one path.  `_draw_planted` draws a planted
Weierstrass pencil scrambled by a unimodular equivalence, and
`_draw_regular_perturbation` draws a rank-one perturbation that keeps it
regular; `weyr_delta_check` compares the Weyr tables of the pair point by
point, the matching-side representation distance is added to its
`TrialResult`, and `run_suite` collects the failing `TrialResult`s into a
`VerificationReport`, which io_formats flattens into one record per
violation.

All randomness is derived from (suite name, master seed, trial id), so a
report is reproducible bit for bit.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .errors import DimensionMismatch, NotRegularError, ParseError
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    column_space,
    map_image,
    map_preimage,
    matrix_inverse,
    null_space,
    outer_product,
    rref,
    subspace_intersect,
    vector,
)
from .pencils import CanonicalSpec, OperatorPencil, sorted_points
from .polynomials import Polynomial, poly_gcd, squarefree_part
from .relations import LinearRelation, WeyrTable, chain_level
from .scalars import INF, ExtendedScalar, GaussianRational, Infinity, gr

__all__ = [
    "PerturbationSpec",
    "apply_perturbation",
    "relation_distance",
    "weyr_delta_check",
    "Violation",
    "TrialResult",
    "SuiteConfig",
    "VerificationReport",
    "random_trial",
    "run_suite",
    "random_unimodular_matrix",
    "SUITE_NAMES",
]

TYPE_V = "type_v"
TYPE_U = "type_u"


@dataclass(frozen=True)
class PerturbationSpec:
    """Rank-one perturbation data: E + u v' with A + w v' (type_v) or A + u w' (type_u).

    w is a column vector for type_v and a functional for type_u.
    """

    kind: str
    u: Vector
    v_func: Vector
    w: Vector

    def __post_init__(self):
        if self.kind not in (TYPE_V, TYPE_U):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")

    def vectors(self) -> tuple[tuple[str, Vector], ...]:
        return (("u", self.u), ("v_func", self.v_func), ("w", self.w))


def apply_perturbation(p: OperatorPencil, s: PerturbationSpec) -> OperatorPencil:
    """The perturbed pencil x*(E + u v') - (A + w v' or A + u w')."""
    for name, vec in s.vectors():
        if len(vec) != p.n:
            raise DimensionMismatch(f"perturbation vector {name} must have length {p.n}")
    e_hat = p.e_mat + outer_product(s.u, s.v_func)
    if s.kind == TYPE_V:
        a_hat = p.a_mat + outer_product(s.w, s.v_func)
    else:
        a_hat = p.a_mat + outer_product(s.u, s.w)
    return OperatorPencil(p.n, e_hat, a_hat)


def relation_distance(l: LinearRelation, m: LinearRelation) -> int:
    """max of the two quotient dimensions over the intersection of the spans."""
    if (l.dim_x, l.dim_y) != (m.dim_x, m.dim_y):
        raise DimensionMismatch("relations live on different spaces")
    common = subspace_intersect(l.span, m.span)
    return max(l.span.dim - common.dim, m.span.dim - common.dim)


def _matching_relations(
    base: OperatorPencil, pert: OperatorPencil, kind: str
) -> tuple[LinearRelation, LinearRelation]:
    """Range representations for type_v, kernel representations for type_u."""
    if kind == TYPE_V:
        return base.range_representation(), pert.range_representation()
    return base.kernel_representation(), pert.kernel_representation()


# ---------------------------------------------------------------------------
# Weyr delta checking


@dataclass(frozen=True)
class Violation:
    """One named bound breach at one spectral point."""

    name: str
    point: ExtendedScalar | None = None
    k: int | None = None
    w_base: int | None = None
    w_pert: int | None = None


@dataclass(frozen=True)
class TrialResult:
    """One trial of any suite; suites that build no pencil leave base and perturbed None."""

    trial_id: int
    base: OperatorPencil | None = None
    perturbed: OperatorPencil | None = None
    tables: tuple[tuple[ExtendedScalar, WeyrTable, WeyrTable], ...] = ()
    violations: tuple[Violation, ...] = ()
    spec: PerturbationSpec | None = None
    distance: int | None = None

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def has_nonzero_delta(self) -> bool:
        return any(tb.indices != tp.indices for _, tb, tp in self.tables)


def _index_delta_violations(
    point: ExtendedScalar, tb: WeyrTable, tp: WeyrTable, name: str = "weyr_index_delta"
) -> list[Violation]:
    """Each w_k may move by at most 1 and each dim S^k by at most k."""
    out = []
    for k in range(1, max(len(tb.indices), len(tp.indices), 1) + 1):
        wb, wp = tb.index_at(k), tp.index_at(k)
        if abs(wb - wp) > 1:
            out.append(Violation(name, point, k, wb, wp))
        db, dp = tb.root_dim_at(k), tp.root_dim_at(k)
        if abs(db - dp) > k:
            out.append(Violation("root_dim_delta", point, k, db, dp))
    return out


def _residual_multiplicity_violations(
    own: OperatorPencil, other: OperatorPencil, side: str
) -> list[Violation]:
    """Bound check at eigenvalues outside Q(i).

    At a root of `own`'s residual that `other` does not share, the other
    Weyr table is empty, so the bound forces dim ker(lam E - A) <= 1 there.
    A simple root has a one-dimensional eigenspace and cannot break it, so
    g is the square-free part of the residual's repeated roots, stripped of
    the roots `other` shares.  With mu the first of 0..n with
    det(mu E - A) != 0, M = (A - mu E)^-1 E and h(v) = v^deg g * g(mu + 1/v),
    ker h(M) is the direct sum of the ker(lam E - A) over the roots lam of
    g, so the bound fails exactly when rank h(M) < n - deg g.  Roots shared
    by both residuals cannot be compared without a field extension and are
    skipped.
    """
    residual = own.spectrum().residual
    if residual.degree <= 1:
        return []
    g = squarefree_part(poly_gcd(residual, residual.derivative()))
    shared = poly_gcd(g, other.det_poly)
    if shared.degree > 0:
        g = g.exact_div(shared)
    if g.degree <= 0:
        return []
    n = own.n
    mu = next(gr(k) for k in range(n + 1) if own.det_poly.evaluate(gr(k)))
    m = matrix_inverse(own.a_mat - own.e_mat.scale(mu)) * own.e_mat
    # g(x + mu) by Horner; its coefficients, lowest first, are h's highest first.
    shifted = Polynomial.zero()
    for c in reversed(g.coeffs):
        shifted = shifted * Polynomial.from_coeffs([mu, 1]) + Polynomial.constant(c)
    h_of_m = Matrix.zeros(n, n)
    for c in shifted.coeffs:
        h_of_m = h_of_m * m + Matrix.identity(n).scale(c)
    if rref(h_of_m)[2] < n - g.degree:
        return [Violation(f"irrational_eigenvalue_multiplicity_{side}")]
    return []


def weyr_delta_check(
    base: OperatorPencil, pert: OperatorPencil, points=None, trial_id: int = 0
) -> TrialResult:
    """Compare Weyr tables of two regular pencils point by point.

    With points=None the evaluation set is the union of both Q(i)
    eigenvalue sets plus infinity, and eigenvalues outside Q(i) are checked
    through the residual polynomials.  Eigenvalues outside Q(i) that both
    pencils share are not compared yet, so a passing result says nothing
    about them.
    """
    if not base.is_regular or not pert.is_regular:
        raise NotRegularError("Weyr delta bounds assume regular base and perturbed pencils")
    if points is None:
        pool = set(base.spectrum().eigenvalue_points()) | set(pert.spectrum().eigenvalue_points())
        pool.add(INF)
        points = sorted_points(pool)
        violations = _residual_multiplicity_violations(pert, base, "perturbed")
        violations += _residual_multiplicity_violations(base, pert, "base")
    else:
        violations = []
    tables = []
    for pt in points:
        tb = base.weyr_table(pt)
        tp = pert.weyr_table(pt)
        tables.append((pt, tb, tp))
        violations.extend(_index_delta_violations(pt, tb, tp))
    return TrialResult(trial_id, base, pert, tuple(tables), tuple(violations))


# ---------------------------------------------------------------------------
# randomized harness


@dataclass(frozen=True)
class SuiteConfig:
    trials: int
    seed: int
    max_dim: int = 6
    entry_bound: int = 3
    retry_cap: int = 40


@dataclass(frozen=True)
class VerificationReport:
    """failures holds the failing TrialResults in trial order."""

    suite: str
    seed: int
    config: SuiteConfig
    trials: int
    passed: int
    failed: int
    failures: tuple[TrialResult, ...]
    elapsed_ms: int


def _rng(suite: str, seed: int, trial_id: int) -> random.Random:
    return random.Random(f"{suite}:{seed}:{trial_id}")


_EIGENVALUE_PALETTE = (
    gr(0),
    gr(1),
    gr(-1),
    gr(2),
    gr(Fraction(1, 2)),
    gr(0, 1),
)

_RESOLVENT_CANDIDATES = (
    gr(0),
    gr(1),
    gr(-1),
    gr(2),
    gr(-2),
    gr(3),
    gr(-3),
    gr(0, 1),
    gr(1, 1),
    gr(Fraction(1, 2)),
    gr(4),
    gr(5),
    gr(-4),
    gr(-5),
)


def _random_scalar(rng: random.Random, bound: int) -> GaussianRational:
    re = rng.randint(-bound, bound)
    im = rng.randint(-bound, bound) if rng.random() < 0.3 else 0
    if rng.random() < 0.2:
        return gr(Fraction(re, 2), im)
    return gr(re, im)


def _random_vector(rng: random.Random, n: int, bound: int) -> Vector:
    return vector([rng.randint(-bound, bound) for _ in range(n)])


def _random_matrix(rng: random.Random, rows: int, cols: int, bound: int) -> Matrix:
    return Matrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def _random_canonical_spec(rng: random.Random, n: int) -> CanonicalSpec:
    """Blocks of sizes 1..3 summing to n, each infinite with probability 1/4; finite ones listed first."""
    blocks: list[tuple[ExtendedScalar, int]] = []
    remaining = n
    while remaining:
        size = rng.randint(1, min(remaining, 3))
        blocks.append((INF if rng.random() < 0.25 else rng.choice(_EIGENVALUE_PALETTE), size))
        remaining -= size
    return CanonicalSpec(tuple(sorted(blocks, key=lambda b: isinstance(b[0], Infinity))))


def random_unimodular_matrix(rng: random.Random, n: int, bound: int) -> Matrix:
    """Unit-determinant integer matrix from random elementary operations."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n == 1:
        return Matrix.from_rows(rows)
    for _ in range(rng.randint(n, 2 * n)):
        if rng.random() < 0.2:
            i, j = rng.sample(range(n), 2)
            rows[i], rows[j] = rows[j], rows[i]
        else:
            i, j = rng.sample(range(n), 2)
            c = rng.randint(1, max(bound, 1)) * rng.choice((1, -1))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return Matrix.from_rows(rows)


def _random_perturbation(rng: random.Random, n: int, bound: int, kind: str) -> PerturbationSpec:
    u = _random_vector(rng, n, bound)
    v_func = _random_vector(rng, n, bound)
    return PerturbationSpec(kind=kind, u=u, v_func=v_func, w=_random_vector(rng, n, bound))


@dataclass(frozen=True)
class TrialInputs:
    """Everything a perturbation trial is built from; shrinkable; pspec is None before perturbing."""

    trial_id: int
    blocks: CanonicalSpec
    s_mat: Matrix
    t_mat: Matrix
    pspec: PerturbationSpec | None = None

    @cached_property
    def base(self) -> OperatorPencil:
        return OperatorPencil.from_canonical(self.blocks).apply_equivalence(self.s_mat, self.t_mat)

    @cached_property
    def perturbed(self) -> OperatorPencil:
        return apply_perturbation(self.base, self.pspec)


def _draw_planted(rng: random.Random, config: SuiteConfig, trial_id: int = 0) -> TrialInputs:
    """A planted pencil: n, the blocks, S and T are drawn in this order."""
    n = rng.randint(min(2, config.max_dim), config.max_dim)
    blocks = _random_canonical_spec(rng, n)
    s_mat = random_unimodular_matrix(rng, n, config.entry_bound)
    t_mat = random_unimodular_matrix(rng, n, config.entry_bound)
    return TrialInputs(trial_id, blocks, s_mat, t_mat)


def _draw_regular_perturbation(
    rng: random.Random, config: SuiteConfig, planted: TrialInputs, kind: str
) -> TrialInputs | None:
    """The planted pencil under the first drawn perturbation that keeps it regular.

    None when all retry_cap draws give singular pencils.
    """
    for _ in range(config.retry_cap):
        pspec = _random_perturbation(rng, planted.blocks.total_size, config.entry_bound, kind)
        inputs = replace(planted, pspec=pspec)
        if inputs.perturbed.is_regular:
            return inputs
    return None


def _evaluate_trial(inputs: TrialInputs) -> TrialResult:
    base, pert = inputs.base, inputs.perturbed
    if not pert.is_regular:
        violations = (Violation("perturbed_pencil_not_regular"),)
        return TrialResult(inputs.trial_id, base, pert, violations=violations, spec=inputs.pspec)
    result = weyr_delta_check(base, pert, trial_id=inputs.trial_id)
    distance = relation_distance(*_matching_relations(base, pert, inputs.pspec.kind))
    violations = result.violations
    if distance > 1:
        violations += (Violation("matching_distance_bound", None, None, 0, distance),)
    return replace(result, violations=violations, spec=inputs.pspec, distance=distance)


def _zero_entry(spec: PerturbationSpec, slot: str, index: int) -> PerturbationSpec:
    current: Vector = getattr(spec, slot)
    if not current[index]:
        return spec
    new = current[:index] + (gr(0),) + current[index + 1 :]
    return replace(spec, **{slot: new})


def _shrunk_blocks(spec: CanonicalSpec) -> list[CanonicalSpec]:
    """Candidate simplifications in block order: drop or shorten one block."""
    out = []
    blocks = spec.blocks
    for idx, (value, size) in enumerate(blocks):
        before, after = blocks[:idx], blocks[idx + 1 :]
        if before or after:
            out.append(CanonicalSpec(before + after))
        if size > 1:
            out.append(CanonicalSpec(before + ((value, size - 1),) + after))
    return out


def _resize_pspec(spec: PerturbationSpec, n: int) -> PerturbationSpec:
    """Each vector cut or zero-padded to length n."""
    return replace(spec, **{name: (vec + (gr(0),) * n)[:n] for name, vec in spec.vectors()})


def greedy_shrink(inputs: TrialInputs, is_violating) -> TrialInputs:
    """Deterministic greedy minimization while is_violating(inputs) stays true."""
    identity = Matrix.identity(inputs.blocks.total_size)
    descrambled = replace(inputs, s_mat=identity, t_mat=identity)
    if is_violating(descrambled):
        inputs = descrambled
    changed = True
    while changed:
        changed = False
        for slot, vec in inputs.pspec.vectors():
            for idx in range(len(vec)):
                trial_spec = _zero_entry(inputs.pspec, slot, idx)
                if trial_spec is inputs.pspec:
                    continue
                candidate = replace(inputs, pspec=trial_spec)
                if is_violating(candidate):
                    inputs = candidate
                    changed = True
        for blocks in _shrunk_blocks(inputs.blocks):
            n = blocks.total_size
            candidate = TrialInputs(
                trial_id=inputs.trial_id,
                blocks=blocks,
                s_mat=Matrix.identity(n),
                t_mat=Matrix.identity(n),
                pspec=_resize_pspec(inputs.pspec, n),
            )
            if is_violating(candidate):
                inputs = candidate
                changed = True
                break
    return inputs


def random_trial(config: SuiteConfig, trial_id: int) -> TrialResult:
    """One seeded perturbation-bound trial; shrinks its counterexample on failure."""
    rng = _rng("perturbation_bounds", config.seed, trial_id)
    kind = TYPE_V if trial_id % 2 == 0 else TYPE_U
    planted = _draw_planted(rng, config, trial_id)
    inputs = _draw_regular_perturbation(rng, config, planted, kind)
    if inputs is None:
        base = planted.base
        return TrialResult(trial_id, base, base, violations=(Violation("generation_retry_cap_exhausted"),))
    result = _evaluate_trial(inputs)
    if not result.passed:
        # A candidate must keep a violation that was found, not just fail:
        # one whose perturbed pencil is singular fails for another reason.
        found = {v.name for v in result.violations}

        def still_violating(cand: TrialInputs) -> bool:
            return any(v.name in found for v in _evaluate_trial(cand).violations)

        result = _evaluate_trial(greedy_shrink(inputs, still_violating))
    return result


# ---------------------------------------------------------------------------
# suites


def _find_resolvent(rng: random.Random, n: int, is_resolvent) -> GaussianRational:
    """The shuffled palette first, then 6, 7, ..., n + 6: n eigenvalues cannot cover them all."""
    candidates = list(_RESOLVENT_CANDIDATES)
    rng.shuffle(candidates)
    for mu in candidates + [gr(m) for m in range(6, n + 7)]:
        if is_resolvent(mu):
            return mu
    raise AssertionError("no resolvent point: the pencil or relation is singular")


def _random_regular_pencil(rng: random.Random, config: SuiteConfig) -> OperatorPencil:
    n = rng.randint(1, config.max_dim)
    for _ in range(config.retry_cap):
        p = OperatorPencil.from_matrices(
            _random_matrix(rng, n, n, config.entry_bound),
            _random_matrix(rng, n, n, config.entry_bound),
        )
        if p.is_regular:
            return p
    return OperatorPencil.from_matrices(Matrix.identity(n), _random_matrix(rng, n, n, config.entry_bound))


def _suite_resolvent_representation(config: SuiteConfig, trial_id: int) -> TrialResult:
    rng = _rng("resolvent_representation", config.seed, trial_id)
    n = rng.randint(1, config.max_dim)
    rel = LinearRelation.from_graph(_random_matrix(rng, n, n, config.entry_bound))
    mu = _find_resolvent(rng, n, rel.is_resolvent_point)
    lam = _random_scalar(rng, config.entry_bound)
    via_range, via_kernel = rel.resolvent_representations(mu, lam)
    expected = rel.shift(lam)
    violations = []
    if via_range != expected:
        violations.append(Violation("resolvent_range_form_mismatch", lam))
    if via_kernel != expected:
        violations.append(Violation("resolvent_kernel_form_mismatch", lam))
    return TrialResult(trial_id, violations=tuple(violations))


def _suite_kernel_range_identities(config: SuiteConfig, trial_id: int) -> TrialResult:
    rng = _rng("kernel_range_identities", config.seed, trial_id)
    p = _random_regular_pencil(rng, config)
    mu = _find_resolvent(rng, p.n, p.resolvent_point)
    finite_eigs = [v for v, _ in p.spectrum().finite_eigenvalues]
    lam = rng.choice(finite_eigs) if finite_eigs and rng.random() < 0.5 else _random_scalar(rng, config.entry_bound)

    e_mat, a_mat, n = p.e_mat, p.a_mat, p.n
    kr = p.kernel_representation()
    rr = p.range_representation()
    krs = kr.shift(lam)
    rrs = rr.shift(lam)
    pencil_kernel = null_space(a_mat - e_mat.scale(lam))
    pencil_range = column_space(p.at_point(lam))
    a_minus_mu_e = a_mat - e_mat.scale(mu)

    checks = [
        ("kernel_rep_kernel", krs.kernel() == pencil_kernel),
        ("range_rep_kernel", rrs.kernel() == map_image(a_minus_mu_e, pencil_kernel)),
        ("range_rep_range", rrs.range_of() == pencil_range),
        ("kernel_rep_range", krs.range_of() == map_preimage(a_minus_mu_e, pencil_range)),
        ("kernel_rep_mul", kr.mul_part() == null_space(e_mat)),
        ("kernel_rep_dom", kr.domain() == map_preimage(a_minus_mu_e, column_space(e_mat))),
        ("range_rep_mul", rr.mul_part() == map_image(a_mat, null_space(e_mat))),
        ("range_rep_dom", rr.domain() == column_space(e_mat)),
        ("resolvent_form_range", p.resolvent_form_range(mu, lam) == rrs),
        ("resolvent_form_kernel", p.resolvent_form_kernel(mu, lam) == krs),
    ]
    ker_lam, codim_lam = p.fredholm_data(lam)
    checks.append(("fredholm_kernel_dims", ker_lam == krs.kernel().dim == rrs.kernel().dim))
    checks.append(
        ("fredholm_range_codims", codim_lam == (n - krs.range_of().dim) == (n - rrs.range_of().dim))
    )
    ker_inf, codim_inf = p.fredholm_data(INF)
    checks.append(("fredholm_infinity_dims", ker_inf == kr.mul_part().dim == rr.mul_part().dim))
    checks.append(
        ("fredholm_infinity_codims", codim_inf == (n - kr.domain().dim) == (n - rr.domain().dim))
    )
    violations = tuple(Violation(name, lam) for name, ok in checks if not ok)
    return TrialResult(trial_id, p, violations=violations)


def _suite_spectrum_equality(config: SuiteConfig, trial_id: int) -> TrialResult:
    rng = _rng("spectrum_equality", config.seed, trial_id)
    if trial_id % 2 == 0:
        p = _draw_planted(rng, config).base
    else:
        p = _random_regular_pencil(rng, config)
    report = p.spectrum()
    expected_points = set(report.eigenvalue_points())
    expected_residual = report.residual.monic()
    violations = []
    for side, rel in (("kernel", p.kernel_representation()), ("range", p.range_representation())):
        ps = rel.point_spectrum()
        if set(ps.eigenvalue_points()) != expected_points:
            violations.append(Violation(f"point_spectrum_mismatch_{side}"))
        if ps.residual.monic() != expected_residual:
            violations.append(Violation(f"residual_mismatch_{side}"))
    return TrialResult(trial_id, p, violations=tuple(violations))


def _suite_weyr_equality(config: SuiteConfig, trial_id: int) -> TrialResult:
    rng = _rng("weyr_equality", config.seed, trial_id)
    planted = _draw_planted(rng, config)
    p, blocks = planted.base, planted.blocks
    kr = p.kernel_representation()
    rr = p.range_representation()
    violations = []
    points: list[ExtendedScalar] = list(blocks.eigenvalue_points())
    if not any(isinstance(q, Infinity) for q in points):
        points.append(INF)
    # The planted pencil is regular by construction, so no determinant is needed.
    zero = Subspace.zero(p.n)
    for at in points:
        expected = blocks.expected_weyr_indices(at)
        pencil_chain, kernel_chain, range_chain = p.root_chain(at), kr.root_chain(at), rr.root_chain(at)
        indices = {WeyrTable.from_chain(at, c).indices for c in (pencil_chain, kernel_chain, range_chain)}
        if indices != {expected}:
            violations.append(Violation("weyr_table_mismatch", at))
        feed = p.a_mat if isinstance(at, Infinity) else p.e_mat
        for k in range(1, len(expected) + 2):
            relation_space = chain_level(kernel_chain, k, zero)
            if chain_level(pencil_chain, k, zero) != relation_space:
                violations.append(Violation("chain_vs_power_oracle_mismatch", at, k))
            if chain_level(range_chain, k, zero) != map_image(feed, relation_space):
                violations.append(Violation("image_of_root_subspace_mismatch", at, k))
    return TrialResult(trial_id, p, violations=tuple(violations))


_SINGULAR_SAMPLE_POINTS: tuple[ExtendedScalar, ...] = (gr(0), gr(1), gr(-1), gr(0, 1), INF)


def _random_relation(rng: random.Random, config: SuiteConfig) -> LinearRelation:
    n = rng.randint(1, config.max_dim)
    d = rng.randint(0, 2 * n)
    vecs = [[rng.randint(-config.entry_bound, config.entry_bound) for _ in range(2 * n)] for _ in range(d)]
    return LinearRelation(n, n, Subspace.from_spanning(2 * n, [vector(v) for v in vecs]))


def _suite_singular_subspace(config: SuiteConfig, trial_id: int) -> TrialResult:
    rng = _rng("singular_subspace", config.seed, trial_id)
    rel = _random_relation(rng, config)
    rc = rel.singular_chain_space()
    stabilized = {pt: rel.stabilized_root_subspace(pt) for pt in _SINGULAR_SAMPLE_POINTS}
    violations = []
    pts = list(_SINGULAR_SAMPLE_POINTS)
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            if subspace_intersect(stabilized[pts[a]], stabilized[pts[b]]) != rc:
                violations.append(Violation("singular_subspace_pair_mismatch", pts[a], b))
    if any(rel.is_resolvent_point(pt) for pt in pts) and not rc.is_zero():
        violations.append(Violation("singular_subspace_not_trivial_with_resolvent"))
    return TrialResult(trial_id, violations=tuple(violations))


def _suite_matching_distance(config: SuiteConfig, trial_id: int) -> TrialResult:
    rng = _rng("matching_distance", config.seed, trial_id)
    n = rng.randint(1, config.max_dim)
    if trial_id % 7 == 0:
        # Degenerate bases on purpose; the distance bound needs no regularity.
        e_mat = Matrix.zeros(n, n) if rng.random() < 0.5 else _random_matrix(rng, n, n, 1)
        a_mat = Matrix.zeros(n, n) if rng.random() < 0.5 else _random_matrix(rng, n, n, 1)
    else:
        e_mat = _random_matrix(rng, n, n, config.entry_bound)
        a_mat = _random_matrix(rng, n, n, config.entry_bound)
    p = OperatorPencil.from_matrices(e_mat, a_mat)
    kind = TYPE_V if trial_id % 2 == 0 else TYPE_U
    pert = apply_perturbation(p, _random_perturbation(rng, n, config.entry_bound, kind))
    distance = relation_distance(*_matching_relations(p, pert, kind))
    violations = () if distance <= 1 else (Violation("matching_distance_bound", None, None, 0, distance),)
    return TrialResult(trial_id, p, pert, violations=violations)


def _one_dim_neighbor(rng: random.Random, rel: LinearRelation) -> LinearRelation:
    """A relation at distance <= 1 from rel: drop, add, or swap one span vector."""
    vecs = [list(v) for v in rel.span.basis_vectors()]
    ambient = rel.span.ambient_dim
    move = rng.random()
    new_vec = [rng.randint(-2, 2) for _ in range(ambient)]
    if move < 0.4 and vecs:
        vecs.pop(rng.randrange(len(vecs)))
    elif move < 0.7:
        vecs.append(new_vec)
    elif vecs:
        vecs[rng.randrange(len(vecs))] = new_vec
    else:
        vecs.append(new_vec)
    return LinearRelation(rel.dim_x, rel.dim_y, Subspace.from_spanning(ambient, [vector(v) for v in vecs]))


def _suite_relation_weyr_bound(config: SuiteConfig, trial_id: int) -> TrialResult:
    rng = _rng("relation_weyr_bound", config.seed, trial_id)
    base = pert = l = m = None
    if trial_id % 2 == 0:
        # Pencil route: matching-side representations of a rank-one pair.
        planted = _draw_planted(rng, config, trial_id)
        kind = TYPE_V if trial_id % 4 == 0 else TYPE_U
        inputs = _draw_regular_perturbation(rng, config, planted, kind)
        if inputs is None:
            base = planted.base
        else:
            base, pert = inputs.base, inputs.perturbed
            l, m = _matching_relations(base, pert, kind)
    else:
        # Span-surgery route on relations with trivial singular chain space.
        for _ in range(config.retry_cap):
            cand_l = _random_relation(rng, config)
            if not cand_l.singular_chain_space().is_zero():
                continue
            cand_m = _one_dim_neighbor(rng, cand_l)
            if cand_m.singular_chain_space().is_zero():
                l, m = cand_l, cand_m
                break
    if l is None:
        return TrialResult(trial_id, base, violations=(Violation("generation_retry_cap_exhausted"),))
    violations = []
    distance = relation_distance(l, m)
    if distance > 1:
        violations.append(Violation("relation_distance_bound", None, None, 0, distance))
    for pt in _SINGULAR_SAMPLE_POINTS:
        violations += _index_delta_violations(pt, l.weyr_table(pt), m.weyr_table(pt), "relation_weyr_delta")
    return TrialResult(trial_id, base, pert, violations=tuple(violations))


_SUITES = {
    "resolvent_representation": _suite_resolvent_representation,
    "kernel_range_identities": _suite_kernel_range_identities,
    "spectrum_equality": _suite_spectrum_equality,
    "weyr_equality": _suite_weyr_equality,
    "singular_subspace": _suite_singular_subspace,
    "matching_distance": _suite_matching_distance,
    "perturbation_bounds": random_trial,
    "relation_weyr_bound": _suite_relation_weyr_bound,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(suite: str, config: SuiteConfig) -> VerificationReport:
    """Run one named suite (or "all"); deterministic given (suite, seed, config)."""
    start = time.perf_counter()
    if suite == "all":
        names = list(SUITE_NAMES)
    elif suite in _SUITES:
        names = [suite]
    else:
        raise ParseError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)} or 'all'")
    failures = []
    for name in names:
        for trial_id in range(config.trials):
            result = _SUITES[name](config, trial_id)
            if not result.passed:
                failures.append(result)
    trials = len(names) * config.trials
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return VerificationReport(
        suite=suite,
        seed=config.seed,
        config=config,
        trials=trials,
        passed=trials - len(failures),
        failed=len(failures),
        failures=tuple(failures),
        elapsed_ms=elapsed_ms,
    )
