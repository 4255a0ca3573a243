"""Per-layer spans, recorded from outside the library.

`Tracer.install()` replaces each public function in `TARGETS` with a
wrapper that records one span (name, start, end, parent) per call.  Module
level functions are replaced in every `vforge.*` namespace that binds them;
methods are replaced on their class.  The `Value` and `Poly` dunders are
left alone: they are too hot, and their cost lands in the callers' self
time.  Spans live in flat arrays in memory and are reduced to per-layer
counts, self times and ratios by `Tracer.metrics()`.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (module, qualified name) of every wrapped function, grouped by layer.
TARGETS = [
    ("polynomials", "q_expansion"),
    ("polynomials", "Poly.divmod"),
    ("polynomials", "Poly.parse"),
    ("polynomials", "resultant"),
    ("polynomials", "difference_resultant"),
    ("polynomials", "composed_value_poly"),
    ("polynomials", "padic_valuation"),
    ("polynomials", "hasse_derivative"),
    ("newton", "NewtonPolygon.slopes"),
    ("newton", "NewtonPolygon.root_valuations"),
    ("finitefields", "ff_factor"),
    ("finitefields", "ff_is_irreducible"),
    ("maclane", "Chain.eval"),
    ("maclane", "Chain.truncate"),
    ("maclane", "Chain.epsilon"),
    ("maclane", "Chain.residual_polynomial"),
    ("maclane", "Chain.key_from_residual"),
    ("maclane", "Chain.is_key"),
    ("maclane", "Chain.augment"),
    ("maclane", "Chain.refine"),
    ("maclane", "Chain.data"),
    ("maclane", "Chain.parse"),
    ("extensions", "extend_to_number_field"),
    ("extensions", "rational_factor_list"),
    ("extensions", "ValuationExtension.valuation"),
    ("extensions", "ValuationExtension.ensure_value_above"),
    ("extensions", "root_difference_valuations"),
    ("extensions", "delta_via_roots"),
    ("extensions", "AlgebraicNumber.minimal_polynomial"),
    ("pairs", "pair_eval"),
    ("pairs", "pairs_equivalent"),
    ("pairs", "common_extension_check"),
    ("pairs", "is_minimal_pair"),
    ("pairs", "enumerate_common_extensions"),
    ("pairs", "verify_root_lemmas"),
    ("verify", "run_suite"),
]

SPAN_NAMES = [f"{mod}.{qual}" for mod, qual in TARGETS]

# Spans that must fire in the traced run of each workload, so that a rename
# or a dead path fails the run instead of reading zero.
MUST_FIRE = {
    "verify-corpus": (
        "polynomials.q_expansion", "polynomials.Poly.divmod", "polynomials.resultant",
        "polynomials.difference_resultant", "polynomials.composed_value_poly",
        "polynomials.padic_valuation", "polynomials.hasse_derivative",
        "newton.NewtonPolygon.slopes", "newton.NewtonPolygon.root_valuations",
        "finitefields.ff_factor", "finitefields.ff_is_irreducible",
        "maclane.Chain.eval", "maclane.Chain.truncate", "maclane.Chain.epsilon",
        "maclane.Chain.residual_polynomial", "maclane.Chain.key_from_residual",
        "maclane.Chain.is_key", "maclane.Chain.augment", "maclane.Chain.data",
        "extensions.extend_to_number_field", "extensions.rational_factor_list",
        "extensions.ValuationExtension.valuation", "extensions.root_difference_valuations",
        "extensions.delta_via_roots", "extensions.AlgebraicNumber.minimal_polynomial",
        "pairs.pair_eval", "pairs.pairs_equivalent", "pairs.common_extension_check",
        "pairs.is_minimal_pair", "pairs.enumerate_common_extensions",
        "pairs.verify_root_lemmas", "verify.run_suite",
    ),
    "eval-laws": (
        "polynomials.q_expansion", "polynomials.Poly.divmod", "polynomials.padic_valuation",
        "polynomials.hasse_derivative", "maclane.Chain.eval", "maclane.Chain.truncate",
        "maclane.Chain.epsilon",
    ),
    "extend-refine": (
        "polynomials.q_expansion", "polynomials.hasse_derivative",
        "newton.NewtonPolygon.slopes", "newton.NewtonPolygon.root_valuations",
        "finitefields.ff_factor", "maclane.Chain.eval", "maclane.Chain.residual_polynomial",
        "maclane.Chain.key_from_residual", "maclane.Chain.is_key", "maclane.Chain.augment",
        "maclane.Chain.refine", "extensions.extend_to_number_field",
        "extensions.rational_factor_list", "extensions.ValuationExtension.valuation",
        "extensions.ValuationExtension.ensure_value_above",
    ),
    "cli-cold": (
        "polynomials.Poly.parse", "maclane.Chain.eval", "maclane.Chain.epsilon",
        "maclane.Chain.data", "maclane.Chain.parse", "extensions.extend_to_number_field",
        "extensions.rational_factor_list", "verify.run_suite",
    ),
}


# Sizes of returned values, summed per span name, for the ratio bases.
_RESULT_SIZES = {
    "extensions.extend_to_number_field": len,
    "pairs.enumerate_common_extensions": lambda report: len(report.classes),
}

OP_SPAN = "bench.op"


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self):
        self.names = [OP_SPAN] + SPAN_NAMES
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.sizes = {name: 0 for name in _RESULT_SIZES}
        self._stack = []
        self._undo = []

    # -- spans ----------------------------------------------------------------

    def _wrap(self, span_name, fn):
        name_id = self._ids[span_name]
        size_of = _RESULT_SIZES.get(span_name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, sizes, clock = self._stack, self.sizes, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if size_of is not None:
                sizes[span_name] += size_of(result)
            return result

        return wrapper

    def op(self, fn, *args):
        """Run one benchmark op under a root span, so its spans share a parent."""
        return self._wrap(OP_SPAN, fn)(*args)

    # -- patching -------------------------------------------------------------

    def install(self):
        """Wrap every target; raises AttributeError when a target is missing."""
        namespaces = [m for n, m in sys.modules.items() if n == "vforge" or n.startswith("vforge.")]
        for mod_name, qual in TARGETS:
            module = sys.modules[f"vforge.{mod_name}"]
            span_name = f"{mod_name}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(span_name, raw.__func__))
                else:
                    new = self._wrap(span_name, raw)
                self._set(cls, attr, raw, new)
                continue
            original = getattr(module, qual)
            wrapper = self._wrap(span_name, original)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        self._set(namespace, attr, original, wrapper)

    def _set(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- reduction ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-span calls and self time, plus the exact ratios."""
        n_names = len(self.names)
        calls = [0] * n_names
        child_ns = [0] * len(self.name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        for i in range(len(names)):
            dur = ends[i] - starts[i]
            calls[names[i]] += 1
            if parents[i] >= 0:
                child_ns[parents[i]] += dur
        self_ns = [0] * n_names
        for i in range(len(names)):
            self_ns[names[i]] += ends[i] - starts[i] - child_ns[i]
        out = {}
        for span_name in SPAN_NAMES:
            k = self._ids[span_name]
            out[f"{span_name}.calls"] = (calls[k], "count")
            out[f"{span_name}.self_ms"] = (self_ns[k] / 1e6, "ms")
        n = {name: calls[self._ids[name]] for name in SPAN_NAMES}
        inside, sizes = self._count_inside, self.sizes
        lazy = ("extensions.ValuationExtension.valuation",
                "extensions.ValuationExtension.ensure_value_above")
        ratios = {
            # extend_to_number_field calls per run_suite
            "verify.extend_calls_per_op": (
                inside("extensions.extend_to_number_field", ["verify.run_suite"]),
                n["verify.run_suite"],
            ),
            # common_extension_check calls per class leader found
            "pairs.check_calls_per_class": (
                inside("pairs.common_extension_check", ["pairs.enumerate_common_extensions"]),
                sizes["pairs.enumerate_common_extensions"],
            ),
            # improvement steps per lazy valuation or precision request
            "extensions.refine_per_valuation": (
                inside("maclane.Chain.refine", lazy),
                sum(n[name] for name in lazy),
            ),
            # extensions found per residual polynomial of the branch search
            "extensions.branch_yield": (
                sizes["extensions.extend_to_number_field"],
                inside("maclane.Chain.residual_polynomial", ["extensions.extend_to_number_field"]),
            ),
        }
        for metric, (num, den) in ratios.items():
            out[metric] = (num / den if den else 0.0, "ratio")
        return out

    def _count_inside(self, span_name, ancestors) -> int:
        """Calls of span_name with at least one span of `ancestors` above it."""
        target = self._ids[span_name]
        wanted = {self._ids[a] for a in ancestors}
        names, parents = self.name, self.parent
        count = 0
        for i in range(len(names)):
            if names[i] != target:
                continue
            j = parents[i]
            while j >= 0 and names[j] not in wanted:
                j = parents[j]
            count += j >= 0
        return count
