"""Command-line front end.

Scheme expressions are written as s-expressions; the grammar is in the
docstring of `scheme_algebra.parse_expr`.

Verbs: zeta, ord (alias verify-vo), value, verify-c, trace-check,
ell-check, p-check, det, batch.  Reports print as text or JSON; exit status
is 0 when every requested verdict passes, 1 on a failed verdict, 2 on an
error.

The command line is read by `_read_argv` from one verb table, `_VERBS`:
each verb names its positional (an expression, a file or none) and the
options it adds to the common -n, --format, --series-order and --ell.  It
takes `--opt value` and `--opt=value`, `-n -2`, `-n-2` and `-n=-2`, unique
prefixes of long options, options on either side of the positional, and
repeats (the last wins).  A malformed command line is the error `usage`,
reported like every other error; -h/--help prints the usage block.

`batch` builds one `Evaluation` record per manifest entry, and every check
of the entry's battery reads it: one normal form, one zeta product, one
exact value and one set of order data per entry.  The entries run across
the CPUs of the affinity mask (`forkmap`), one share in this process and
each other share in a forked worker; the report and the first error are
those of a serial run.
"""

from __future__ import annotations

import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import archimedean, ffengine
from .detcomplex import complex_from_json_dict, determinant
from .errors import InvalidArgumentError, ManifestError, UsageError, ZetaforgeError
from .intlinalg import is_prime, parity_sign, read_int, read_key
from .lfunctions import DEFAULT_PRECISION
from .scheme_algebra import Evaluation, SchemeExpr, format_expr, parse_expr, validate, zeta_of
from .zetarep import evaluate_at, format_decimal, vanishing_order

__all__ = ["parse_hodge_json", "run_command", "main"]


def _json_loads(text: str):
    """json.loads; input nested too deep for the decoder is a decode error."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("JSON nested too deeply", text, 0) from None


_HODGE_SHAPE = '--hodge must be {"hpq": {"p,q": h, ...}, "diag": {"p": [plus, minus], ...}}'


def parse_hodge_json(text: str) -> archimedean.HodgeData:
    """{"hpq": {"p,q": h, ...}, "diag": {"p": [plus, minus], ...}}

    p and q are decimal integers as `read_key` reads them, h, plus and minus
    JSON integers; any other shape is an InvalidArgumentError.
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
            p, q = (read_key(x) for x in key.split(","))
            weights[(p, q)] = read_int(h)
        diagonal = {read_key(key): (read_int(pair[0]), read_int(pair[1])) for key, pair in diag.items()}
    except (TypeError, ValueError):
        raise InvalidArgumentError(_HODGE_SHAPE) from None
    return archimedean.HodgeData.make(weights, diagonal)


# ---------------------------------------------------------------------------
# command implementations, each returning (report_dict, passed)


def _cmd_zeta(expr: SchemeExpr, args) -> tuple[dict, bool]:
    z = zeta_of(expr)
    report = {
        "command": "zeta",
        "expression": format_expr(expr),
        "zeta": str(z),
        "factors": [
            {"factor": str(f), "exponent": e} for f, e in z.factors
        ],
        "diagnostics": validate(expr),
        "pass": True,
    }
    return report, True


def _cmd_ord(expr: SchemeExpr | None, args) -> tuple[dict, bool]:
    if args.hodge:
        H = parse_hodge_json(args.hodge)
        dims = archimedean.hodge_equivariant_dims(H, args.n)
        chi = sum(parity_sign(i) * d for i, d in dims.items())
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
        "numeric": format_decimal(value.numeric, args.precision),
        "error_bound": format_decimal(value.error, 5),
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
    if args.ell is None:
        raise UsageError("ell-check requires --ell")
    if not is_prime(args.ell):
        raise InvalidArgumentError(f"--ell must be a prime, got {args.ell}")
    return _wrap_checks(
        "ell-check", expr, args.n, [ffengine.ell_adic_check(expr, args.n, args.ell)]
    )


def _cmd_p_check(expr, args):
    return _wrap_checks("p-check", expr, args.n, [ffengine.p_part_check(expr, args.n)])


def _cmd_det(args) -> tuple[dict, bool]:
    with open(args.file, "r", encoding="utf-8") as handle:
        data = _json_loads(handle.read())
    C = complex_from_json_dict(data)
    ideal, grade = determinant(C)
    groups = {
        str(i): {"rank": H.rank, "torsion": list(H.torsion), "group": str(H)}
        for i, H in C.cohomology_table.items()
    }
    return {
        "command": "det",
        "file": args.file,
        "grade": grade,
        "ideal": None if ideal is None else str(ideal),
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
        if entry.order_data.graded is not None:
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
    entries = []
    for k, item in enumerate(manifest):
        try:
            if not (isinstance(item, dict) and isinstance(item.get("expr"), str)):
                raise TypeError
            entries.append((item["expr"], read_int(item.get("n"))))
        except TypeError:
            raise ManifestError(f'entry {k} is not {{"expr": <string>, "n": <integer>}}') from None
    return entries


def _batch_entry(text: str, n: int, series_order: int) -> dict:
    """The report of one manifest entry: its battery on one record."""
    entry = Evaluation(parse_expr(text), n)
    reports = _battery(entry, series_order)
    return {
        "expression": entry.printed,
        "n": n,
        "checks": [r.as_dict() for r in reports],
        "pass": all(r.passed for r in reports),
    }


def _cmd_batch(args) -> tuple[dict, bool]:
    from .forkmap import forkmap  # loaded with the package; the other verbs do not read it

    with open(args.manifest, "r", encoding="utf-8") as handle:
        manifest = _json_loads(handle.read())
    items = _manifest_entries(manifest)
    # an entry's battery costs more the more nodes its expression has, so its length weighs it
    entries = forkmap(
        lambda text, n: _batch_entry(text, n, args.series_order), items, [len(text) for text, _ in items]
    )
    all_ok = all(entry["pass"] for entry in entries)
    return {
        "command": "batch",
        "manifest": args.manifest,
        "entries": entries,
        "pass": all_ok,
    }, all_ok


# ---------------------------------------------------------------------------
# rendering and dispatch


# how each leaf type of a report is written in JSON
_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _render_json(report) -> str:
    """`json.dumps(report, indent=2)`, byte for byte, for what a report
    holds: dicts with str keys, lists and tuples, and leaves of exactly the
    types str, int, bool and None; anything else is a TypeError.

    json.dumps runs its pure-Python encoder whenever `indent` is set; here
    strings go through the json module's C escaper, a list of strings is
    joined in one call, and the pieces are joined once at the end.
    """
    pieces = []
    put, leaf = pieces.append, _LEAVES.get

    def write(x, indent):
        show = leaf(type(x))
        if show is not None:
            return put(show(x))
        inner = indent + "  "
        if isinstance(x, dict):
            if not x:
                return put("{}")
            sep = "{" + inner
            for key, value in x.items():
                put(sep + encode_basestring_ascii(key) + ": ")
                write(value, inner)
                sep = "," + inner
            put(indent + "}")
        elif isinstance(x, (list, tuple)):
            if not x:
                return put("[]")
            if all(type(v) is str for v in x):
                return put("[" + inner + ("," + inner).join(map(encode_basestring_ascii, x)) + indent + "]")
            sep = "[" + inner
            for value in x:
                put(sep)
                write(value, inner)
                sep = "," + inner
            put(indent + "]")
        else:
            raise TypeError(f"a report cannot hold {type(x).__name__}")

    write(report, "\n")
    return "".join(pieces)


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


class _Verb(NamedTuple):
    """What a verb reads besides the common options, and what it needs.

    `positional` is the field its one positional fills ("expression", "file"
    or None) and `options` maps its own options to their defaults.  The
    reader requires the field `required`, as argparse did; `run_command`
    requires the expression of an expression verb (or --hodge in its place,
    never both), and -n when `needs_n`.
    """

    handler: Callable
    positional: str | None
    options: dict
    required: str | None = None
    needs_n: bool = False


_ORD = _Verb(_cmd_ord, "expression", {"--hodge": None}, needs_n=True)
_VERBS = {
    "zeta": _Verb(_cmd_zeta, "expression", {}),
    "ord": _ORD,
    "verify-vo": _ORD,
    "value": _Verb(_cmd_value, "expression", {"--precision": DEFAULT_PRECISION}, needs_n=True),
    "verify-c": _Verb(_cmd_verify_c, "expression", {}, needs_n=True),
    "trace-check": _Verb(_cmd_trace_check, "expression", {}),
    "ell-check": _Verb(_cmd_ell_check, "expression", {}, needs_n=True),
    "p-check": _Verb(_cmd_p_check, "expression", {}, needs_n=True),
    "det": _Verb(_cmd_det, "file", {}, required="file"),
    "batch": _Verb(_cmd_batch, None, {"--manifest": None}, required="manifest"),
}
_HELP = ("-h", "--help")
_COMMON = (*_HELP, "-n", "--format", "--series-order", "--ell")
_INTEGER_OPTIONS = ("-n", "--series-order", "--ell", "--precision")
# argparse's rule: a token like this is a value, not an option
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")

_USAGE = """\
usage: zetaforge VERB [EXPRESSION | FILE] [options]

  zeta EXPR                      factored zeta function
  ord EXPR -n N                  analytic vs conjectural order (alias verify-vo)
  ord --hodge JSON -n N          the same from Hodge data
  value EXPR -n N                special value; --precision DIGITS
  verify-c EXPR -n N             |zeta(X, n)| against chi_x
  trace-check EXPR               point counts against the series
  ell-check EXPR -n N --ell L    ell-adic absolute value
  p-check EXPR -n N              p-part triviality
  det FILE                       determinant of a complex (JSON)
  batch --manifest FILE          battery over a JSON list of {expr, n}

options: -n N (negative), --format text|json, --series-order K (default 10),
         --ell L (prime), -h/--help; --opt=value and unique prefixes work"""


# the largest series order K: the trace-formula check takes about K^2
# products of integers of about K log2(q) bits per dimension, so its time
# grows as K^3 or faster (`trace-check "(curve 2 (1 0 2))"`: 0.3 s at
# K = 1000, 1.2 s at 2000; `(proj 3 (curve 2 (1 0 2)))`: 1.1 s and 14 s)
_MAX_SERIES_ORDER = 1024


def run_command(args) -> tuple[dict, bool]:
    """Dispatch a namespace filled by `_read_argv` to its implementation."""
    verb = _VERBS[args.verb]
    if args.series_order < 0:
        raise InvalidArgumentError(f"--series-order must be >= 0, got {args.series_order}")
    if args.series_order > _MAX_SERIES_ORDER:
        raise InvalidArgumentError(f"--series-order {args.series_order} is above {_MAX_SERIES_ORDER}: too long to compute")
    if verb.positional != "expression":
        return verb.handler(args)
    if args.hodge and args.expression is not None:
        raise UsageError(f"{args.verb} takes an expression or --hodge, not both")
    if not args.hodge and args.expression is None:
        raise UsageError(f"{args.verb} requires an expression")
    expr = None if args.hodge else parse_expr(args.expression)
    if verb.needs_n:
        if args.n is None:
            raise UsageError(f"{args.verb} requires -n")
        if args.n >= 0:
            raise InvalidArgumentError("n must be a strictly negative integer")
    return verb.handler(expr, args)


def _field(option: str) -> str:
    """The namespace field of an option: --series-order -> series_order."""
    return option.lstrip("-").replace("-", "_")


def _option(token: str, names) -> tuple[str, str | None] | None:
    """(option, value written into the token) that `token` names among
    `names`, or None when it is a positional.

    As with argparse: '-' alone, negative numbers and tokens with a space
    are positionals; a long option may be shortened to a unique prefix and
    take its value after '=', and -n takes one after '=' or attached.
    """
    if len(token) < 2 or token[0] != "-":
        return None
    head, eq, inline = token.partition("=")
    if head in names:
        return head, inline if eq else None
    if token[1] == "-":
        matches = [name for name in names if name.startswith(head)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option {head}: could be {', '.join(matches)}")
        if matches:
            return matches[0], inline if eq else None
    elif token[:2] in names:
        return token[:2], token[2:]
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    raise UsageError(f"unknown option {token}")


def _read_argv(argv, args) -> bool:
    """Fill `args` from argv; False when it asks for the usage block.

    The first positional is the verb, which adds its own options to the
    common ones; after a bare `--` every token is a positional.  Every token
    is read, so a --format anywhere decides how an error prints, and the
    first malformed one is raised as a UsageError at the end.
    """
    names, positional, error, only_positionals = _COMMON, None, None, False
    k = 0
    while k < len(argv):
        token = argv[k]
        k += 1
        try:
            if token == "--" and not only_positionals:
                only_positionals = True
                continue
            option = None if only_positionals else _option(token, names)
            if option is None:
                if args.verb is None:
                    if token not in _VERBS:
                        raise UsageError(f"unknown verb {token!r}; choose from {', '.join(_VERBS)}")
                    args.verb = token
                    positional, own = _VERBS[token].positional, _VERBS[token].options
                    names = _COMMON + tuple(own)
                    for name, default in own.items():
                        setattr(args, _field(name), default)
                elif positional is None or getattr(args, positional) is not None:
                    raise UsageError(f"unexpected argument {token!r}")
                else:
                    setattr(args, positional, token)
                continue
            name, value = option
            if name in _HELP:
                if value is not None:
                    raise UsageError(f"{name} takes no value")
                if error is None:
                    return False
                continue
            if value is None:
                if k == len(argv) or argv[k] == "--" or _option(argv[k], names) is not None:
                    raise UsageError(f"{name} expects a value")
                value = argv[k]
                k += 1
            if name in _INTEGER_OPTIONS:
                try:
                    value = int(value)
                except ValueError:
                    raise UsageError(f"{name} expects an integer, got {value!r}") from None
            elif name == "--format" and value not in ("text", "json"):
                raise UsageError(f"--format must be text or json, got {value!r}")
            setattr(args, _field(name), value)
            if args.verb is None:
                raise UsageError(f"{name} must follow the verb")
        except UsageError as exc:
            error = error or exc
    if error is None and args.verb is None:
        error = UsageError("a verb is required; see zetaforge --help")
    elif error is None:
        required = _VERBS[args.verb].required
        if required and getattr(args, required) is None:
            error = UsageError(f"{args.verb} requires a {required}")
    if error is not None:
        raise error
    return True


def main(argv=None) -> int:
    args = SimpleNamespace(
        verb=None, expression=None, file=None, manifest=None, hodge=None,
        n=None, format="text", series_order=10, ell=None, precision=None,
    )
    try:
        if not _read_argv(sys.argv[1:] if argv is None else argv, args):
            return _print(_USAGE, 0)
    except UsageError as exc:
        return _print_error(args, exc.code, exc.message)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # exact values print in full, whatever their size
    try:
        report, ok = run_command(args)
        text = _render_json(report) if args.format == "json" else _render_text(report)
    except ZetaforgeError as exc:
        return _print_error(args, exc.code, exc.message)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        return _print_error(args, "io-error", str(exc))
    except MemoryError:
        return _print_error(args, "out-of-memory", "the computation ran out of memory")
    else:
        return _print(text, 0 if ok else 1)
    finally:
        sys.set_int_max_str_digits(limit)


def _print_error(args, code: str, message: str) -> int:
    if args.format == "json":
        return _print(_render_json({"error": {"code": code, "message": message}}), 2)
    return _print(f"error [{code}]: {message}", 2, sys.stderr)


def _print(text: str, status: int, stream=None) -> int:
    """Print `text` to stdout (or `stream`) and return `status`.  A reader
    that has closed stdout makes it the error io-error, reported on stderr,
    and stdout is pointed at os.devnull so that the flush at exit cannot
    fail again."""
    try:
        print(text, file=stream, flush=True)
        return status
    except BrokenPipeError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error [io-error]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
