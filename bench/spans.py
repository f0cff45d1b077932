"""Per-layer tracing by wrapping weyrlab's public names from outside.

weyrlab modules import names from each other (`from .linalg import
null_space`), so a wrapper is installed in every weyrlab module namespace
that holds the original function, and on the class for methods.  Scalar
arithmetic is only counted; every other wrapped call records a span
(name, parent, start, end) in memory, and the spans are written out when
the run ends.  A layer's self time is its span minus the time its child
spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array

# (module, class or None, attribute, metric name).  Scalars are counted only.
SCALAR_TARGETS = (
    ("scalars", "GaussianRational", "__mul__", "scalars.mul"),
    ("scalars", "GaussianRational", "__rmul__", "scalars.mul"),
    ("scalars", "GaussianRational", "__add__", "scalars.add"),
    ("scalars", "GaussianRational", "__radd__", "scalars.add"),
    ("scalars", "GaussianRational", "__sub__", "scalars.add"),
    ("scalars", "GaussianRational", "__truediv__", "scalars.div"),
)

SPAN_TARGETS = (
    ("linalg", None, "rref", "linalg.rref"),
    ("linalg", "Subspace", "from_spanning", "linalg.from_spanning"),
    ("linalg", None, "null_space", "linalg.null_space"),
    ("linalg", None, "map_image", "linalg.map_image"),
    ("linalg", None, "map_preimage", "linalg.map_preimage"),
    ("linalg", None, "subspace_intersect", "linalg.subspace_intersect"),
    ("linalg", None, "matrix_inverse", "linalg.matrix_inverse"),
    ("linalg", "Matrix", "__mul__", "linalg.matmul"),
    ("polynomials", None, "pencil_det_poly", "polynomials.pencil_det_poly"),
    ("polynomials", None, "minor_gcd_poly", "polynomials.minor_gcd_poly"),
    ("polynomials", None, "poly_gcd", "polynomials.poly_gcd"),
    ("polynomials", None, "squarefree_decomposition", "polynomials.squarefree_decomposition"),
    ("gaussian_roots", None, "gaussian_rational_roots", "gaussian_roots.gaussian_rational_roots"),
    ("pencils", "OperatorPencil", "spectrum", "pencils.spectrum"),
    ("pencils", "OperatorPencil", "weyr_table", "pencils.weyr_table"),
    ("pencils", "OperatorPencil", "root_subspace", "pencils.root_subspace"),
    ("pencils", "OperatorPencil", "kernel_representation", "pencils.kernel_representation"),
    ("pencils", "OperatorPencil", "range_representation", "pencils.range_representation"),
    ("pencils", "OperatorPencil", "apply_equivalence", "pencils.apply_equivalence"),
    ("relations", "LinearRelation", "compose", "relations.compose"),
    ("relations", "LinearRelation", "power", "relations.power"),
    ("relations", "LinearRelation", "weyr_table", "relations.weyr_table"),
    ("relations", "LinearRelation", "root_subspace", "relations.root_subspace"),
    ("relations", "LinearRelation", "shift", "relations.shift"),
    ("relations", "LinearRelation", "point_spectrum", "relations.point_spectrum"),
    ("relations", "LinearRelation", "singular_chain_space", "relations.singular_chain_space"),
    ("relations", "LinearRelation", "is_resolvent_point", "relations.is_resolvent_point"),
    ("perturbations", None, "run_suite", "perturbations.run_suite"),
    ("perturbations", None, "apply_perturbation", "perturbations.apply_perturbation"),
    (
        "perturbations",
        None,
        "matching_representation_distance",
        "perturbations.matching_representation_distance",
    ),
    ("perturbations", None, "relation_distance", "perturbations.relation_distance"),
    ("io_formats", None, "load_pencil", "io_formats.load_pencil"),
    ("io_formats", None, "report_to_dict", "io_formats.report_to_dict"),
    ("io_formats", None, "dump_json", "io_formats.dump_json"),
    ("cli", None, "main", "cli.main"),
)

# Root search evaluates candidates with this method; counted only inside
# gaussian_rational_roots.
EVALUATE_TARGET = ("polynomials", "Polynomial", "evaluate")

COUNT_NAMES = tuple(dict.fromkeys(t[3] for t in SCALAR_TARGETS))
SPAN_NAMES = tuple(t[3] for t in SPAN_TARGETS)
REPEAT_NAMES = ("polynomials.pencil_det_poly", "pencils.spectrum")
# Self time is a metric only for names that every workload calls: on a
# workload that never calls a name it would read 0 in every run and show
# nothing.  The layer summary file keeps the self time of every name.
SELF_TIME_NAMES = (
    "linalg.rref",
    "linalg.from_spanning",
    "linalg.null_space",
    "linalg.map_image",
    "linalg.map_preimage",
    "polynomials.pencil_det_poly",
    "pencils.weyr_table",
    "io_formats.dump_json",
    "cli.main",
)


def _pencil_key(args):
    # spectrum(self) and pencil_det_poly(E, A): the (E, A) pair identifies the call.
    if len(args) == 2:
        return args
    p = args[0]
    return (p.e_mat, p.a_mat)


class Tracer:
    """Counters and spans for one traced pass; install() patches weyrlab in place."""

    def __init__(self):
        self.counts = {name: 0 for name in COUNT_NAMES}
        self.calls = {name: 0 for name in SPAN_NAMES}
        self.self_s = {name: 0.0 for name in SPAN_NAMES}
        self.repeats = {name: 0 for name in REPEAT_NAMES}
        self.missing: list[str] = []
        self.root_evals = 0
        self.roots_found = 0
        self._in_roots = 0
        self._seen = {name: set() for name in REPEAT_NAMES}
        # Open spans: [span id, time covered by children].
        self._stack: list[list] = []
        self._next_id = 0
        self.span_ids = array("q")
        self.span_parents = array("q")
        self.span_names = array("H")
        self.span_starts = array("d")
        self.span_ends = array("d")

    def begin_op(self):
        for seen in self._seen.values():
            seen.clear()

    # -- wrappers ------------------------------------------------------------

    def _counting(self, fn, name):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def _evaluate(self, fn):
        tracer = self

        def wrapper(*args):
            if tracer._in_roots:
                tracer.root_evals += 1
            return fn(*args)

        return wrapper

    def _spanning(self, fn, name):
        tracer = self
        name_id = SPAN_NAMES.index(name)
        seen = self._seen.get(name)
        is_roots = name == "gaussian_roots.gaussian_rational_roots"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if seen is not None:
                key = _pencil_key(args)
                if key in seen:
                    tracer.repeats[name] += 1
                else:
                    seen.add(key)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            if is_roots:
                tracer._in_roots += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if is_roots:
                    tracer._in_roots -= 1
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                tracer.span_ids.append(span_id)
                tracer.span_parents.append(parent)
                tracer.span_names.append(name_id)
                tracer.span_starts.append(start)
                tracer.span_ends.append(end)
            if is_roots:
                tracer.roots_found += len(result[0])
            return result

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap every target in place; a name that no longer exists is recorded as missing."""
        for module, owner, attr, name in SCALAR_TARGETS:
            self._patch(module, owner, attr, lambda fn, n=name: self._counting(fn, n))
        for module, owner, attr, name in SPAN_TARGETS:
            self._patch(module, owner, attr, lambda fn, n=name: self._spanning(fn, n))
        self._patch(*EVALUATE_TARGET, self._evaluate)

    def _patch(self, module, owner, attr, make):
        mod = sys.modules.get(f"weyrlab.{module}")
        holder = getattr(mod, owner, None) if owner else mod
        raw = None if holder is None else (holder.__dict__.get(attr) if owner else getattr(holder, attr, None))
        if raw is None:
            self.missing.append(f"{module}.{owner + '.' if owner else ''}{attr}")
            return
        if owner:
            if isinstance(raw, staticmethod):
                setattr(holder, attr, staticmethod(make(raw.__func__)))
            else:
                setattr(holder, attr, make(raw))
            return
        wrapped = make(raw)
        for mod_name, namespace in list(sys.modules.items()):
            if mod_name == "weyrlab" or mod_name.startswith("weyrlab."):
                for key, value in list(vars(namespace).items()):
                    if value is raw:
                        setattr(namespace, key, wrapped)

    # -- output -------------------------------------------------------------------

    def write_spans(self, path: str):
        """Tab-separated spans: id, parent id (-1 for none), name, start and end in microseconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_us\tend_us\n")
            t0 = min(self.span_starts, default=0.0)
            for i in range(len(self.span_ids)):
                fh.write(
                    f"{self.span_ids[i]}\t{self.span_parents[i]}\t{SPAN_NAMES[self.span_names[i]]}\t"
                    f"{(self.span_starts[i] - t0) * 1e6:.1f}\t{(self.span_ends[i] - t0) * 1e6:.1f}\n"
                )
