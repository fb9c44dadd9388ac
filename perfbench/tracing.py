"""Outside-in span recording around the public functions of each layer.

`install(recorder)` replaces each function listed in `LAYERS` (the public
functions the CLI verbs reach) by a wrapper in every `zetaforge` module
namespace that binds it, wraps the `AbelianFieldSpec.characters` method,
and gives `lfunctions` a private copy of the `mpmath` namespace whose
`zeta` is wrapped, so only the Hurwitz calls made from `lfunctions` are
recorded.  No library file changes.

A span is `[name, start, end, parent, error]` with `name` of the form
`<module>.<function>`, times from `time.perf_counter`, `parent` the index
of the enclosing span (-1 for none) and `error` true when the call raised.
Spans stay in memory until the op ends.

Helpers too small to wrap without distorting the timings (`parity_sign`,
`is_prime`, `bernoulli_number`, ...) and methods of the value classes
(`IntMatrix.__matmul__`, `CyclotomicNumber.__mul__`, ...) are not wrapped;
their time counts as self time of the calling function.
"""

from __future__ import annotations

import functools
import sys
import time
import types

LAYERS = {
    "cli": ("main", "parse_expr"),
    "scheme_algebra": (
        "zeta_of",
        "weil_order_data",
        "validate",
        "format_expr",
        "base_prime_powers",
        "is_finite_characteristic",
    ),
    "zetarep": ("evaluate_at", "vanishing_order", "multiply", "inverse", "shift_s"),
    "lfunctions": ("gen_bernoulli", "L_at_nonpositive", "trivial_zero_order", "leading_value", "gauss_sum"),
    "ffengine": (
        "verify_C_finite_char",
        "point_count",
        "trace_formula_check",
        "ell_adic_check",
        "p_part_check",
        "base_characteristics",
    ),
    "archimedean": ("equivariant_dims", "vanishing_order_conjectural"),
    "intlinalg": ("smith_normal_form", "cokernel", "group_order", "rational_valuation"),
    "detcomplex": ("cohomology", "multiplicative_euler_char", "determinant", "complex_from_json_dict"),
}
CHARACTERS = "lfunctions.characters"
MP_ZETA = "lfunctions.mp_zeta"
# arguments or results kept for the ratios computed after the op
KEEP_ARGS = ("scheme_algebra.zeta_of", "lfunctions.gen_bernoulli")
KEEP_RESULTS = ("intlinalg.smith_normal_form", "lfunctions.leading_value")


class Recorder:
    """Spans and kept call data of one op."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.spans: list[list] = []
        self.kept: dict[str, list] = {name: [] for name in KEEP_ARGS + KEEP_RESULTS}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        kept = self.kept.get(name)
        keep_args = name in KEEP_ARGS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if kept is not None:
                kept.append((index, args if keep_args else result))
            return result

        return traced

    def export(self) -> dict:
        """Spans plus the counts that need the kept arguments and results."""
        sys.set_int_max_str_digits(0)
        spans = self.spans
        top = set(top_level_indices(spans))
        zeta_args = [args[0] for i, args in self.kept["scheme_algebra.zeta_of"] if i in top]
        bern = [(args[0].primitive(), args[1]) for _, args in self.kept["lfunctions.gen_bernoulli"]]
        digits = 0
        for _, snf in self.kept["intlinalg.smith_normal_form"]:
            entries = snf.U.entries + snf.V.entries
            if entries:
                digits = max(digits, len(str(max(abs(x) for x in entries))))
        numeric_characters = sum(1 for _, lv in self.kept["lfunctions.leading_value"] if lv.order)
        return {
            "op_id": self.op_id,
            "spans": spans,
            "zeta_of_distinct": len(set(zeta_args)),
            "gen_bernoulli_distinct": len(set(bern)),
            "max_transform_digits": digits,
            "numeric_characters": numeric_characters,
        }


def install(recorder: Recorder) -> None:
    """Wrap every listed function wherever a zetaforge module binds it."""
    import mpmath

    import zetaforge.cli  # noqa: F401  (loads every layer module)
    from zetaforge import lfunctions

    modules = [m for name, m in sys.modules.items() if name == "zetaforge" or name.startswith("zetaforge.")]
    for layer, names in LAYERS.items():
        home = sys.modules[f"zetaforge.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            wrapped = recorder.wrap(f"{layer}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
    spec = lfunctions.AbelianFieldSpec
    spec.characters = recorder.wrap(CHARACTERS, spec.characters)
    private_mp = types.ModuleType("mpmath")
    private_mp.__dict__.update(vars(mpmath))
    private_mp.zeta = recorder.wrap(MP_ZETA, mpmath.zeta)
    lfunctions.mp = private_mp


# ---------------------------------------------------------------------------
# aggregation (runs in the benchmark process)


def top_level_indices(spans) -> list[int]:
    """Spans with no enclosing span of the same name (non-recursive entries)."""
    out = []
    for i, span in enumerate(spans):
        parent = span[3]
        while parent >= 0 and spans[parent][0] != span[0]:
            parent = spans[parent][3]
        if parent < 0:
            out.append(i)
    return out


def self_times(spans) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - c for span, c in zip(spans, child)]


class FunctionStats:
    __slots__ = ("calls", "nodes", "self_s", "total_s", "errors")

    def __init__(self):
        self.calls = self.nodes = self.errors = 0
        self.self_s = self.total_s = 0.0


def function_stats(traces) -> dict[str, FunctionStats]:
    """Per span name, summed over the given op traces."""
    stats: dict[str, FunctionStats] = {}
    for trace in traces:
        spans = trace["spans"]
        top = set(top_level_indices(spans))
        for i, (span, own) in enumerate(zip(spans, self_times(spans))):
            s = stats.setdefault(span[0], FunctionStats())
            s.nodes += 1
            s.calls += i in top
            s.self_s += own
            s.total_s += span[2] - span[1]
            s.errors += bool(span[4])
    return stats


def layer_metrics(traces) -> dict[str, float]:
    """The per-layer metrics of one pass (values only, units in run.py)."""
    stats = function_stats(traces)

    def get(name):
        return stats.get(name, FunctionStats())

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for layer in LAYERS:
        members = [s for name, s in stats.items() if name.split(".")[0] == layer and name != MP_ZETA]
        out[f"{layer}.self_s"] = sum(s.self_s for s in members)
        out[f"{layer}.errors"] = sum(s.errors for s in members)
    out["cli.main.self_s"] = get("cli.main").self_s
    out["cli.parse_expr.calls"] = get("cli.parse_expr").calls
    out["cli.parse_expr.self_s"] = get("cli.parse_expr").self_s
    zeta_of = get("scheme_algebra.zeta_of")
    out["scheme_algebra.zeta_of.calls"] = zeta_of.calls
    out["scheme_algebra.zeta_of.nodes"] = zeta_of.nodes
    out["scheme_algebra.zeta_of.distinct_ratio"] = ratio(sum(t["zeta_of_distinct"] for t in traces), zeta_of.calls)
    out["scheme_algebra.weil_order_data.calls"] = get("scheme_algebra.weil_order_data").calls
    out["scheme_algebra.weil_order_data.nodes"] = get("scheme_algebra.weil_order_data").nodes
    out["scheme_algebra.format_expr.self_s"] = get("scheme_algebra.format_expr").self_s
    out["zetarep.evaluate_at.calls"] = get("zetarep.evaluate_at").calls
    out["zetarep.vanishing_order.calls"] = get("zetarep.vanishing_order").calls
    bern = get("lfunctions.gen_bernoulli")
    mp_zeta = get(MP_ZETA)
    out["lfunctions.characters.calls"] = get(CHARACTERS).calls
    out["lfunctions.characters.self_s"] = get(CHARACTERS).self_s
    out["lfunctions.gen_bernoulli.calls"] = bern.calls
    out["lfunctions.gen_bernoulli.self_s"] = bern.self_s
    out["lfunctions.gen_bernoulli.distinct_ratio"] = ratio(sum(t["gen_bernoulli_distinct"] for t in traces), bern.calls)
    out["lfunctions.leading_value.calls"] = get("lfunctions.leading_value").calls
    out["lfunctions.leading_value.self_s"] = get("lfunctions.leading_value").self_s
    out["lfunctions.gauss_sum.self_s"] = get("lfunctions.gauss_sum").self_s
    out["lfunctions.mp_zeta.calls"] = mp_zeta.calls
    out["lfunctions.mp_zeta.s"] = mp_zeta.total_s
    out["lfunctions.mp_zeta.per_character"] = ratio(mp_zeta.calls, sum(t["numeric_characters"] for t in traces))
    for name in ("trace_formula_check", "verify_C_finite_char", "ell_adic_check", "p_part_check"):
        out[f"ffengine.{name}.self_s"] = get(f"ffengine.{name}").self_s
    out["ffengine.point_count.calls"] = get("ffengine.point_count").calls
    out["archimedean.vanishing_order_conjectural.calls"] = get("archimedean.vanishing_order_conjectural").calls
    snf = get("intlinalg.smith_normal_form")
    out["intlinalg.smith_normal_form.calls"] = snf.calls
    out["intlinalg.smith_normal_form.self_s"] = snf.self_s
    out["intlinalg.smith_normal_form.max_transform_digits"] = max(
        (t["max_transform_digits"] for t in traces), default=0
    )
    out["detcomplex.cohomology.calls"] = get("detcomplex.cohomology").calls
    return out


def op_counts(trace) -> dict[str, int]:
    """Exact counts of one op, for pinning a profile."""
    stats = function_stats([trace])
    return {name: s.calls for name, s in stats.items()}
