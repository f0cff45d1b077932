"""Command-line front end.

Subcommands: analyze, repr-check, perturb, verify, gen.  Exit codes follow
the contract 0 = all checks pass, 1 = a mathematical property was violated,
2 = input or usage error, 3 = internal error (a crash, never read as a
violation).  All output is deterministic for fixed inputs and
seeds; JSON is the machine contract, markdown the human one.
"""

from __future__ import annotations

import argparse
import random
import re
import sys

from .errors import ParseError, WeyrlabError
from .io_formats import (
    dump_json,
    load_pencil,
    parse_point_list,
    parse_vector,
    pencil_to_dict,
    report_to_dict,
    save_pencil,
    spectrum_to_dict,
    trial_result_to_dict,
    weyr_table_to_dict,
)
from .pencils import CanonicalSpec, OperatorPencil, sorted_points
from .perturbations import (
    SUITE_NAMES,
    TYPE_U,
    TYPE_V,
    PerturbationSpec,
    SuiteConfig,
    apply_perturbation,
    random_unimodular_matrix,
    relation_distance,
    run_suite,
    weyr_delta_check,
)
from .scalars import INF, format_extended, parse_extended, parse_scalar

__all__ = ["main", "build_parser"]


def _print_weyr_md(lines: list[str], label: str, table_dict: dict):
    lines.append(f"### Weyr table at {label}")
    lines.append("")
    if not table_dict["indices"]:
        lines.append("(empty: not an eigenvalue)")
        lines.append("")
        return
    lines.append("| k | w_k | root dim |")
    lines.append("| - | --- | -------- |")
    for k, (w, d) in enumerate(zip(table_dict["indices"], table_dict["root_dims"]), start=1):
        lines.append(f"| {k} | {w} | {d} |")
    lines.append("")


def cmd_analyze(args) -> int:
    pencil = load_pencil(args.pencil)
    spectrum = pencil.spectrum()
    points = list(spectrum.eigenvalue_points())
    if INF not in points:
        points.append(INF)
    if args.points:
        for pt in parse_point_list(args.points):
            if pt not in points:
                points.append(pt)
    points = sorted_points(points)
    tables = [pencil.weyr_table(pt) for pt in points]
    if args.format == "json":
        out = {
            "pencil": pencil_to_dict(pencil),
            "spectrum": spectrum_to_dict(spectrum),
            "weyr_tables": [weyr_table_to_dict(t) for t in tables],
        }
        print(dump_json(out))
    else:
        lines = [f"# Pencil analysis (n = {pencil.n})", ""]
        lines.append("## Spectrum")
        lines.append("")
        if spectrum.finite_eigenvalues:
            lines.append("| eigenvalue | multiplicity |")
            lines.append("| ---------- | ------------ |")
            for v, m in spectrum.finite_eigenvalues:
                lines.append(f"| {v} | {m} |")
        else:
            lines.append("(no eigenvalues in Q(i))")
        lines.append("")
        if spectrum.has_infinity:
            lines.append(f"infinity is an eigenvalue with multiplicity {spectrum.infinity_multiplicity}")
        else:
            lines.append("infinity is not an eigenvalue")
        lines.append(f"residual factor: {spectrum.residual}")
        lines.append("")
        lines.append("## Weyr tables")
        lines.append("")
        for table in tables:
            _print_weyr_md(lines, format_extended(table.at), weyr_table_to_dict(table))
        print("\n".join(lines))
    return 0


def cmd_repr_check(args) -> int:
    pencil = load_pencil(args.pencil)
    mu = parse_scalar(args.mu)
    lam = parse_scalar(args.lam)
    kernel_rep = pencil.kernel_representation()
    range_rep = pencil.range_representation()
    shifted_kernel = kernel_rep.shift(lam)
    shifted_range = range_rep.shift(lam)
    verdicts = [
        ("range_form_equals_shifted_range_rep", pencil.resolvent_form_range(mu, lam) == shifted_range),
        ("kernel_form_equals_shifted_kernel_rep", pencil.resolvent_form_kernel(mu, lam) == shifted_kernel),
    ]
    for side, rel, shifted in (
        ("kernel_rep", kernel_rep, shifted_kernel),
        ("range_rep", range_rep, shifted_range),
    ):
        via_range, via_kernel = rel.resolvent_representations(mu, lam)
        verdicts.append((f"{side}_resolvent_range_form", via_range == shifted))
        verdicts.append((f"{side}_resolvent_kernel_form", via_kernel == shifted))
    all_equal = all(ok for _, ok in verdicts)
    if args.format == "json":
        print(
            dump_json(
                {
                    "pencil": pencil_to_dict(pencil),
                    "mu": str(mu),
                    "lambda": str(lam),
                    "verdicts": {name: ("equal" if ok else "DIFFERENT") for name, ok in verdicts},
                    "all_equal": all_equal,
                }
            )
        )
    else:
        print(f"# Representation identities at mu = {mu}, lambda = {lam}")
        print("")
        for name, ok in verdicts:
            print(f"- {name}: {'equal' if ok else 'DIFFERENT'}")
        print("")
        print(f"overall: {'all identities hold' if all_equal else 'VIOLATION FOUND'}")
    return 0 if all_equal else 1


def _build_perturbation(args) -> PerturbationSpec:
    """--w is the column of type v, --wfunc the functional of type u; both fill the spec's w."""
    u = parse_vector(args.u)
    v_func = parse_vector(args.vfunc)
    kind, flag, other = (TYPE_V, "w", "wfunc") if args.type == "v" else (TYPE_U, "wfunc", "w")
    if getattr(args, flag) is None:
        raise WeyrlabError(f"--type {args.type} requires --{flag}")
    if getattr(args, other) is not None:
        raise WeyrlabError(f"--type {args.type} does not take --{other}")
    return PerturbationSpec(kind=kind, u=u, v_func=v_func, w=parse_vector(getattr(args, flag)))


def cmd_perturb(args) -> int:
    pencil = load_pencil(args.pencil)
    pspec = _build_perturbation(args)
    perturbed = apply_perturbation(pencil, pspec)
    kernel_distance = relation_distance(
        pencil.kernel_representation(), perturbed.kernel_representation()
    )
    range_distance = relation_distance(
        pencil.range_representation(), perturbed.range_representation()
    )
    if pspec.kind == TYPE_V:
        matching_side, matching_distance = "range", range_distance
    else:
        matching_side, matching_distance = "kernel", kernel_distance
    bound_holds = matching_distance <= 1
    delta = None
    if pencil.is_regular and perturbed.is_regular:
        points = parse_point_list(args.points) if args.points else None
        delta = weyr_delta_check(pencil, perturbed, points)
    out = {
        "base": pencil_to_dict(pencil),
        "perturbed": pencil_to_dict(perturbed),
        "kind": pspec.kind,
        "matching_side": matching_side,
        "kernel_side_distance": kernel_distance,
        "range_side_distance": range_distance,
        "matching_side_distance": matching_distance,
        "matching_bound_holds": bound_holds,
        "weyr_delta": None if delta is None else trial_result_to_dict(delta),
        "note": None
        if delta is not None
        else "Weyr deltas skipped: base or perturbed pencil is not regular",
    }
    violated = (not bound_holds) or (delta is not None and not delta.passed)
    if args.format == "json":
        print(dump_json(out))
    else:
        lines = [f"# Rank-one perturbation report ({pspec.kind})", ""]
        lines.append(f"- matching side: {matching_side} representation")
        lines.append(f"- kernel-side distance: {kernel_distance}")
        lines.append(f"- range-side distance: {range_distance}")
        lines.append(
            f"- matching-side distance: {matching_distance} "
            f"({'within the one-dimensional bound' if bound_holds else 'BOUND VIOLATED'})"
        )
        lines.append("")
        if delta is None:
            lines.append(out["note"])
        else:
            for pt, tb, tp in delta.tables:
                lines.append(
                    f"- at {format_extended(pt)}: base {list(tb.indices)} vs perturbed {list(tp.indices)}"
                )
            lines.append("")
            lines.append(
                "Weyr bounds hold" if delta.passed else f"WEYR BOUND VIOLATIONS: {len(delta.violations)}"
            )
        print("\n".join(lines))
    return 1 if violated else 0


def cmd_verify(args) -> int:
    if args.trials < 0 or args.max_dim < 1 or args.entry_bound < 0:
        raise ParseError("verify needs --trials >= 0, --max-dim >= 1 and --entry-bound >= 0")
    config = SuiteConfig(
        trials=args.trials,
        seed=args.seed,
        max_dim=args.max_dim,
        entry_bound=args.entry_bound,
    )
    report = run_suite(args.suite, config)
    if args.format == "json":
        print(dump_json(report_to_dict(report)))
    else:
        print(f"# Verification suite: {report.suite}")
        print("")
        print(f"- trials: {report.trials}")
        print(f"- passed: {report.passed}")
        print(f"- failed: {report.failed}")
        print(f"- seed: {report.seed}")
        print(f"- elapsed_ms: {report.elapsed_ms}")
        for result in report.failures:
            for v in result.violations:
                print(
                    f"- FAILURE trial {result.trial_id}: {v.name}"
                    + ("" if v.point is None else f" at {format_extended(v.point)}")
                    + (f" k={v.k}" if v.k is not None else "")
                )
    return 0 if report.failed == 0 else 1


def _parse_int(text: str) -> int:
    """ASCII -?[0-9]+ only; int() alone would also read other Unicode digits, '_' and spaces."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    return int(text)  # past the digit limit a ValueError, which argparse reports too


def _parse_blocks(text: str) -> CanonicalSpec:
    blocks = []
    for part in text.split(","):
        part = part.strip()
        if "@" not in part:
            raise WeyrlabError(f"malformed block {part!r}: expected size@eigenvalue")
        size_text, value_text = part.split("@", 1)
        try:
            size = _parse_int(size_text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise WeyrlabError(f"malformed block size {size_text!r}") from exc
        if size <= 0:
            raise WeyrlabError("block sizes must be positive")
        blocks.append((parse_extended(value_text), size))
    return CanonicalSpec(tuple(blocks))


def cmd_gen(args) -> int:
    blocks = _parse_blocks(args.blocks)
    pencil = OperatorPencil.from_canonical(blocks)
    if args.seed is not None:
        rng = random.Random(f"gen:{args.seed}")
        n = pencil.n
        pencil = pencil.apply_equivalence(
            random_unimodular_matrix(rng, n, 2), random_unimodular_matrix(rng, n, 2)
        )
    save_pencil(pencil, args.out)
    print(f"wrote {pencil.n}x{pencil.n} pencil to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weyrlab",
        description=(
            "Exact spectral analysis of matrix pencils and linear relations: "
            "spectra, Weyr characteristics, representation identities, and "
            "rank-one perturbation experiments over Q(i)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="spectrum and Weyr tables of a pencil file")
    p_analyze.add_argument("--pencil", required=True, help="path to a pencil JSON file")
    p_analyze.add_argument("--points", help="extra evaluation points, comma-separated scalars or inf")
    p_analyze.add_argument("--format", choices=("json", "md"), default="json")
    p_analyze.set_defaults(func=cmd_analyze)

    p_repr = sub.add_parser("repr-check", help="verify resolvent representation identities")
    p_repr.add_argument("--pencil", required=True)
    p_repr.add_argument("--mu", required=True, help="resolvent point (scalar)")
    p_repr.add_argument("--lambda", dest="lam", required=True, help="shift point (scalar)")
    p_repr.add_argument("--format", choices=("json", "md"), default="json")
    p_repr.set_defaults(func=cmd_repr_check)

    p_pert = sub.add_parser("perturb", help="apply a rank-one perturbation and report distances")
    p_pert.add_argument("--pencil", required=True)
    p_pert.add_argument("--type", choices=("u", "v"), required=True)
    p_pert.add_argument("--u", required=True, help="vector, comma-separated scalars")
    p_pert.add_argument("--w", help="vector (type v only)")
    p_pert.add_argument("--vfunc", required=True, help="functional, comma-separated scalars")
    p_pert.add_argument("--wfunc", help="functional (type u only)")
    p_pert.add_argument("--points", help="evaluation points for the Weyr deltas")
    p_pert.add_argument("--format", choices=("json", "md"), default="json")
    p_pert.set_defaults(func=cmd_perturb)

    p_verify = sub.add_parser("verify", help="run a randomized verification suite")
    p_verify.add_argument("--suite", required=True, help=f"one of {', '.join(SUITE_NAMES)}, or all")
    p_verify.add_argument("--trials", type=_parse_int, required=True)
    p_verify.add_argument("--seed", type=_parse_int, required=True)
    p_verify.add_argument("--max-dim", type=_parse_int, default=6, dest="max_dim")
    p_verify.add_argument("--entry-bound", type=_parse_int, default=3, dest="entry_bound")
    p_verify.add_argument("--format", choices=("json", "md"), default="json")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a pencil file from canonical blocks")
    p_gen.add_argument("--blocks", required=True, help="e.g. 2@1/1,3@0/1,2@inf")
    p_gen.add_argument("--seed", type=_parse_int, help="scramble by a seeded equivalence")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WeyrlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not exit 1, which means a violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
