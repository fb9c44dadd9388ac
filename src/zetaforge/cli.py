"""Command-line front end.

Scheme expressions are written as s-expressions; the grammar is in the
docstring of `scheme_algebra.parse_expr`.

Verbs: zeta, ord (alias verify-vo), value, verify-c, trace-check,
ell-check, p-check, det, batch.  Reports print as text or JSON; exit status
is 0 when every requested verdict passes, 1 on a failed verdict, 2 on an
error.

`batch` builds one `Evaluation` record per manifest entry, and every check
of the entry's battery reads it: one normal form, one zeta product, one
exact value and one set of order data per entry.
"""

from __future__ import annotations

import argparse
import json
import sys
from operator import index

import mpmath as mp

from . import archimedean, ffengine
from .detcomplex import complex_from_json_dict, determinant
from .errors import InvalidArgumentError, ManifestError, ZetaforgeError
from .intlinalg import is_prime
from .lfunctions import default_precision
from .scheme_algebra import Evaluation, SchemeExpr, format_expr, parse_expr, validate, zeta_of
from .zetarep import evaluate_at, vanishing_order

__all__ = ["parse_expr", "parse_hodge_json", "run_command", "main"]


def _json_loads(text: str):
    """json.loads; input nested too deep for the decoder is a decode error."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("JSON nested too deeply", text, 0) from None


_HODGE_SHAPE = '--hodge must be {"hpq": {"p,q": h, ...}, "diag": {"p": [plus, minus], ...}}'


def parse_hodge_json(text: str) -> archimedean.HodgeData:
    """{"hpq": {"p,q": h, ...}, "diag": {"p": [plus, minus], ...}}

    p and q are decimal integers, h, plus and minus JSON integers; any other
    shape is an InvalidArgumentError.
    """
    data = _json_loads(text)
    hpq = data.get("hpq", {}) if isinstance(data, dict) else None
    diag = data.get("diag", {}) if isinstance(data, dict) else None
    if not (
        isinstance(hpq, dict)
        and isinstance(diag, dict)
        and all(isinstance(pair, list) and len(pair) == 2 for pair in diag.values())
    ):
        raise InvalidArgumentError(_HODGE_SHAPE)
    try:
        weights = {}
        for key, h in hpq.items():
            p, q = (int(x) for x in key.split(","))
            weights[(p, q)] = index(h)
        diagonal = {int(key): (index(pair[0]), index(pair[1])) for key, pair in diag.items()}
    except (TypeError, ValueError):
        raise InvalidArgumentError(_HODGE_SHAPE) from None
    return archimedean.HodgeData.make(weights, diagonal)


# ---------------------------------------------------------------------------
# command implementations, each returning (report_dict, passed)


def _num(x, digits=30):
    return mp.nstr(x, digits)


def _cmd_zeta(expr: SchemeExpr, args) -> tuple[dict, bool]:
    z = zeta_of(expr)
    report = {
        "command": "zeta",
        "expression": format_expr(expr),
        "zeta": str(z),
        "factors": [
            {"factor": str(f), "exponent": e} for f, e in z.factors
        ],
        "diagnostics": [
            {"severity": d.severity, "message": d.message, "where": d.where}
            for d in validate(expr)
        ],
        "pass": True,
    }
    return report, True


def _cmd_ord(expr: SchemeExpr | None, args) -> tuple[dict, bool]:
    if getattr(args, "hodge", None):
        H = parse_hodge_json(args.hodge)
        dims = archimedean.hodge_equivariant_dims(H, args.n)
        chi = sum((-1) ** (i % 2) * d for i, d in dims.items())
        gamma = archimedean.gamma_factor_order(H, args.n)
        ok = gamma == chi
        return {
            "command": args.verb,
            "n": args.n,
            "hodge_equivariant_dims": {str(i): d for i, d in sorted(dims.items())},
            "chi": chi,
            "gamma_factor_order": gamma,
            "vo": "pass" if ok else "fail",
            "pass": ok,
        }, ok
    entry = Evaluation(expr, args.n)
    analytic = vanishing_order(entry.zeta, args.n)
    conjectural = archimedean.vanishing_order_conjectural(entry, args.n)
    ok = analytic == conjectural
    return {
        "command": args.verb,
        "expression": entry.printed,
        "n": args.n,
        "analytic_order": analytic,
        "conjectural_order": conjectural,
        "vo": "pass" if ok else "fail",
        "pass": ok,
    }, ok


def _cmd_value(expr: SchemeExpr, args) -> tuple[dict, bool]:
    value = evaluate_at(zeta_of(expr), args.n, args.precision)
    return {
        "command": "value",
        "expression": format_expr(expr),
        "n": args.n,
        "order": value.order,
        "exact": None if value.exact is None else str(value.exact),
        "exact_flag": value.is_exact,
        "numeric": _num(value.numeric, args.precision),
        "error_bound": _num(value.error, 5),
        "pass": True,
    }, True


def _wrap_checks(command: str, expr: SchemeExpr, n, reports) -> tuple[dict, bool]:
    ok = all(r.passed for r in reports)
    out = {
        "command": command,
        "expression": format_expr(expr),
        "checks": [r.as_dict() for r in reports],
        "pass": ok,
    }
    if n is not None:
        out["n"] = n
    return out, ok


def _cmd_verify_c(expr, args):
    return _wrap_checks("verify-c", expr, args.n, [ffengine.verify_C_finite_char(expr, args.n)])


def _cmd_trace_check(expr, args):
    return _wrap_checks(
        "trace-check", expr, None, [ffengine.trace_formula_check(expr, args.series_order)]
    )


def _cmd_ell_check(expr, args):
    if args.ell is None or not is_prime(args.ell):
        raise ZetaforgeError(f"--ell must be a prime, got {args.ell}")
    return _wrap_checks(
        "ell-check", expr, args.n, [ffengine.ell_adic_check(expr, args.n, args.ell)]
    )


def _cmd_p_check(expr, args):
    return _wrap_checks("p-check", expr, args.n, [ffengine.p_part_check(expr, args.n)])


def _cmd_det(args) -> tuple[dict, bool]:
    with open(args.file, "r", encoding="utf-8") as handle:
        data = _json_loads(handle.read())
    C = complex_from_json_dict(data)
    line = determinant(C)
    groups = {
        str(i): {"rank": H.rank, "torsion": list(H.torsion), "group": str(H)}
        for i, H in C.cohomology_table.items()
    }
    return {
        "command": "det",
        "file": args.file,
        "grade": line.grade,
        "ideal": None if line.ideal is None else str(line.ideal),
        "cohomology": groups,
        "pass": True,
    }, True


_BATTERY_ELLS = (2, 3, 5, 7, 11, 13)


def _battery(entry: Evaluation, series_order: int) -> list:
    """Per-entry battery of batch mode; every check reads the one record.

    The trace formula applies when the entry has a single ground field; the
    ell-adic checks when its graded orders are determined, at each ell that
    is not a base characteristic.  Any other error rejects the entry.
    """
    n = entry.n
    reports = []
    if entry.is_finite_characteristic:
        reports.append(ffengine.verify_C_finite_char(entry, n))
        reports.append(ffengine.p_part_check(entry, n))
        if len(entry.bases) == 1:
            reports.append(ffengine.trace_formula_check(entry, series_order))
        if entry.order_data.has_graded:
            for ell in _BATTERY_ELLS:
                if ell not in entry.characteristics:
                    reports.append(ffengine.ell_adic_check(entry, n, ell))
    reports.append(
        ffengine.VerificationReport(
            claim="vanishing-order",
            left=entry.order,
            right=archimedean.vanishing_order_conjectural(entry, n),
            context={"expression": entry.printed, "n": n},
        )
    )
    return reports


def _manifest_entries(manifest) -> list[tuple[str, int]]:
    """(expr, n) of every entry; one malformed entry rejects the whole manifest."""
    if not isinstance(manifest, list):
        raise ManifestError("manifest must be a JSON list of {expr, n} objects")
    for k, item in enumerate(manifest):
        if not (
            isinstance(item, dict)
            and isinstance(item.get("expr"), str)
            and isinstance(item.get("n"), int)
        ):
            raise ManifestError(f'entry {k} is not {{"expr": <string>, "n": <integer>}}')
    return [(item["expr"], item["n"]) for item in manifest]


def _cmd_batch(args) -> tuple[dict, bool]:
    with open(args.manifest, "r", encoding="utf-8") as handle:
        manifest = _json_loads(handle.read())
    entries = []
    all_ok = True
    for text, n in _manifest_entries(manifest):
        entry = Evaluation(parse_expr(text), n)
        reports = _battery(entry, args.series_order)
        ok = all(r.passed for r in reports)
        all_ok = all_ok and ok
        entries.append(
            {
                "expression": entry.printed,
                "n": n,
                "checks": [r.as_dict() for r in reports],
                "pass": ok,
            }
        )
    return {
        "command": "batch",
        "manifest": args.manifest,
        "entries": entries,
        "pass": all_ok,
    }, all_ok


# ---------------------------------------------------------------------------
# rendering and dispatch


def _render_text(report: dict) -> str:
    lines = []

    def emit(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                emit(f"{prefix}{k}." if prefix else f"{k}.", v) if isinstance(
                    v, (dict, list)
                ) else lines.append(f"{prefix}{k}: {v}")
        elif isinstance(value, list):
            for idx, v in enumerate(value):
                emit(f"{prefix}{idx}.", v) if isinstance(v, (dict, list)) else lines.append(
                    f"{prefix}{idx}: {v}"
                )
        else:
            lines.append(f"{prefix}: {value}")

    emit("", report)
    return "\n".join(lines)


def run_command(args) -> tuple[dict, bool]:
    """Dispatch a parsed argparse namespace to its implementation."""
    verb = args.verb
    if args.series_order < 0:
        raise InvalidArgumentError(f"--series-order must be >= 0, got {args.series_order}")
    if verb == "det":
        return _cmd_det(args)
    if verb == "batch":
        return _cmd_batch(args)
    expr = None
    if not getattr(args, "hodge", None):
        if args.expression is None:
            raise ZetaforgeError(f"{verb} requires an expression")
        expr = parse_expr(args.expression)
    if verb in ("ord", "value", "verify-c", "verify-vo", "ell-check", "p-check"):
        if args.n is None:
            raise ZetaforgeError(f"{verb} requires -n")
        if args.n >= 0:
            raise ZetaforgeError("n must be a strictly negative integer")
    handlers = {
        "zeta": _cmd_zeta,
        "ord": _cmd_ord,
        "value": _cmd_value,
        "verify-c": _cmd_verify_c,
        "verify-vo": _cmd_ord,
        "trace-check": _cmd_trace_check,
        "ell-check": _cmd_ell_check,
        "p-check": _cmd_p_check,
    }
    return handlers[verb](expr, args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetaforge",
        description="zeta functions of arithmetic schemes at negative integers",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, expression=True, needs_n=False):
        if expression:
            p.add_argument("expression", nargs="?", help="scheme expression (s-expression)")
        p.add_argument("-n", type=int, default=None, help="negative integer weight")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--series-order", type=int, default=10, dest="series_order")
        p.add_argument("--ell", type=int, default=None, help="auxiliary prime for ell-check")

    for verb in ("zeta", "verify-c", "trace-check", "ell-check", "p-check"):
        common(sub.add_parser(verb))
    p_value = sub.add_parser("value")
    common(p_value)
    p_value.add_argument(
        "--precision",
        type=int,
        default=default_precision(),
        help="decimal digits for numeric output (env ZETAFORGE_PRECISION)",
    )
    p_ord = sub.add_parser("ord", aliases=["verify-vo"])
    common(p_ord)
    p_ord.add_argument("--hodge", default=None, help="inline Hodge-data JSON instead of an expression")
    p_det = sub.add_parser("det")
    p_det.add_argument("file", help="complex file (JSON)")
    common(p_det, expression=False)
    p_batch = sub.add_parser("batch")
    p_batch.add_argument("--manifest", required=True, help="JSON list of {expr, n} entries")
    common(p_batch, expression=False)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # exact values print in full, whatever their size
    try:
        report, ok = run_command(args)
    except ZetaforgeError as exc:
        return _print_error(args, exc.code, exc.message)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        return _print_error(args, "io-error", str(exc))
    else:
        print(json.dumps(report, indent=2) if args.format == "json" else _render_text(report))
        return 0 if ok else 1
    finally:
        sys.set_int_max_str_digits(limit)


def _print_error(args, code: str, message: str) -> int:
    if args.format == "json":
        print(json.dumps({"error": {"code": code, "message": message}}, indent=2))
    else:
        print(f"error [{code}]: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
