"""Command-line front end.

Scheme expressions are written as s-expressions; the grammar is in the
docstring of `scheme_algebra.parse_expr`.

Verbs: zeta, ord, value, verify-c, trace-check, ell-check, p-check, det,
batch.  Reports print as text or JSON; exit status is 0 when every
requested verdict passes, 1 on a failed verdict, 2 on an error.

The command line is read by `_read_argv` from one verb table, `_VERBS`:
each verb names its positional (an expression, a file or none) and every
option it takes besides -h/--help and --format, with its default; the
positional and an option without a default are required.  The reader takes
`--opt value` and `--opt=value`, `-n -2`, `-n-2` and `-n=-2`, unique
prefixes of long options, options on either side of the positional, and
repeats (the last wins); an integer is read as in an expression
(`intlinalg.read_decimal`).  A malformed command line, another verb's
option included, is the error `usage`, found before the expression is read
and reported like every other error; -h/--help prints the usage block.

Every expression verb builds one `Evaluation` record of its expression,
which every check and report reads at the weight it is given.  The four
one-claim verbs share one handler.  `batch` runs each distinct expression
of its manifest once (`_Expression`): one parse, record and trace-formula
check for all its entries' weights, and an exact repeat of an entry prints
that entry's report again.
It runs the expressions across the CPUs of the affinity mask (`forkmap`):
this process and a forked worker per other CPU take them from one shared
queue, heaviest first, and each renders the entries it computed, so the
report is spliced from fragments rendered where they ran.  The report and
the first error are those of a serial run, one entry at a time.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import namedtuple
from collections.abc import Callable
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import archimedean, ffengine
from .detcomplex import complex_from_json_dict, determinant
from .errors import InvalidArgumentError, ManifestError, UsageError, ZetaforgeError
from .intlinalg import is_prime, read_decimal, read_int
from .lfunctions import DEFAULT_PRECISION
from .scheme_algebra import Evaluation, parse_expr, validate
from .zetarep import _exact_str, evaluate_at, format_decimal

__all__ = ["run_command", "main"]


def _read_json(path: str):
    """The JSON value in the file at `path`, read as bytes and decoded once
    as UTF-8, so that a byte order mark or another encoding is an error as
    it is for a text read; input nested too deep for the decoder is a
    decode error."""
    with open(path, "rb") as handle:
        text = handle.read().decode("utf-8")
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("JSON nested too deeply", text, 0) from None


# ---------------------------------------------------------------------------
# command implementations, each returning (report_dict, passed)


def _cmd_zeta(entry: Evaluation, args) -> tuple[dict, bool]:
    factors = [(str(f), e) for f, e in entry.zeta.factors]  # each printed once
    diagnostics = validate(entry.expr)
    ok = all(d["severity"] != "error" for d in diagnostics)
    return {
        "command": "zeta",
        "expression": entry.printed,
        "zeta": " * ".join(f"({f})" + (f"^{e}" if e != 1 else "") for f, e in factors) or "1",
        "factors": [{"factor": f, "exponent": e} for f, e in factors],
        "diagnostics": diagnostics,
        "pass": ok,
    }, ok


def _cmd_ord(entry: Evaluation, args) -> tuple[dict, bool]:
    analytic = entry.order(args.n)
    conjectural = archimedean.vanishing_order_conjectural(entry, args.n)
    ok = analytic == conjectural
    return {
        "command": "ord",
        "expression": entry.printed,
        "n": args.n,
        "analytic_order": analytic,
        "conjectural_order": conjectural,
        "vo": "pass" if ok else "fail",
        "pass": ok,
    }, ok


def _cmd_value(entry: Evaluation, args) -> tuple[dict, bool]:
    value = evaluate_at(entry.zeta, args.n, args.precision)
    return {
        "command": "value",
        "expression": entry.printed,
        "n": args.n,
        "order": value.order,
        "exact": None if value.exact is None else _exact_str(value.exact),
        "exact_flag": value.is_exact,
        "numeric": format_decimal(value.numeric, args.precision),
        "error_bound": format_decimal(value.error, 5),
        "pass": True,
    }, True


def _cmd_claim(entry: Evaluation, args) -> tuple[dict, bool]:
    """The report of a one-claim verb: the check its `_Verb.claim` takes."""
    check = _VERBS[args.verb].claim(entry, args)
    report = {"command": args.verb, "expression": entry.printed, "checks": [check.as_dict()], "pass": check.passed}
    if args.n is not None:  # the verb reads -n
        report["n"] = args.n
    return report, check.passed


def _cmd_det(args) -> tuple[dict, bool]:
    C = complex_from_json_dict(_read_json(args.file))
    ideal, grade = determinant(C)
    groups = {}
    for i, H in C.cohomology_table.items():
        groups[str(i)] = {"rank": H.rank, "torsion": list(H.torsion), "group": str(H)}
    return {
        "command": "det",
        "file": args.file,
        "grade": grade,
        "ideal": None if ideal is None else str(ideal),
        "cohomology": groups,
        "pass": True,
    }, True


_BATTERY_ELLS = (2, 3, 5, 7, 11, 13)


def _battery(entry: Evaluation, n: int, trace_claim: Callable) -> list:
    """Per-entry battery of batch mode; every check reads the one record at n.

    The trace formula applies when the entry has a single ground field, and
    `trace_claim(entry)` is that check of its expression, which does not
    depend on n; the ell-adic checks apply when its graded orders are
    determined, at each ell that is not a base characteristic.  Any other
    error rejects the entry.
    """
    reports = []
    if entry.is_finite_characteristic:
        reports.append(ffengine.verify_C_finite_char(entry, n))
        reports.append(ffengine.p_part_check(entry, n))
        if len(entry.bases) == 1:
            reports.append(trace_claim(entry))
        if entry.order_data(n).graded is not None:
            for ell in _BATTERY_ELLS:
                if ell not in entry.characteristics:
                    reports.append(ffengine.ell_adic_check(entry, n, ell))
    reports.append(
        ffengine.VerificationReport(
            claim="vanishing-order",
            left=entry.order(n),
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


# where a check of an entry starts a line in a JSON batch report
_CHECK_INDENT = "\n" + " " * 8


class _Expression:
    """One distinct expression of a manifest, as a process runs its entries.

    It is parsed once into one record for every weight, its trace-formula
    check (of X and K alone) is taken and rendered once, and each weight's
    report is kept, so an exact repeat of (X, n) prints it again.
    """

    def __init__(self, text: str, series_order: int, fmt: str):
        self.record = Evaluation(parse_expr(text))
        self.series_order, self.fmt = series_order, fmt
        self.trace = None  # (check, as it prints)
        self.reports = {}  # n -> (report, in JSON as it prints; pass bit)

    def trace_claim(self, entry: Evaluation):
        """The trace-formula check of the expression, taken once."""
        if self.trace is None:
            check = ffengine.trace_formula_check(entry, self.series_order)
            shown = check.as_dict()
            self.trace = check, (_Rendered(_render_json(shown, _CHECK_INDENT)) if self.fmt == "json" else shown)
        return self.trace[0]

    def rendered(self, i: int, n: int) -> tuple[str, bool]:
        """Entry i's report at weight n as it prints at its place in
        "entries", and its pass bit."""
        if n not in self.reports:
            checks = _battery(self.record, n, self.trace_claim)
            trace = self.trace or (None, None)
            report = {
                "expression": self.record.printed,
                "n": n,
                "checks": [trace[1] if check is trace[0] else check.as_dict() for check in checks],
                "pass": all(check.passed for check in checks),
            }
            self.reports[n] = (_render_json(report, "\n    ") if self.fmt == "json" else report), report["pass"]
        shown, ok = self.reports[n]
        return (shown if self.fmt == "json" else _render_text(shown, f"entries.{i}")), ok


def _cmd_batch(args) -> tuple[dict, bool]:
    from .forkmap import forkmap  # loaded with the package; the other verbs do not read it

    items = _manifest_entries(_read_json(args.manifest))
    groups: dict[str, list[int]] = {}
    for i, (text, _) in enumerate(items):
        groups.setdefault(text, []).append(i)
    # the expressions this process is running; each is dropped after its last
    # entry, as its record would otherwise stay for the cyclic collector to
    # walk on every pass (about 3 % of a batch op without repeats)
    expressions: dict[str, _Expression] = {}

    def rendered(i: int, text: str, n: int) -> tuple[str, bool]:
        """Entry i's report as it prints at its place in "entries" below, and its pass bit."""
        expression = expressions.get(text)
        if expression is None:
            expression = expressions[text] = _Expression(text, args.series_order, args.format)
        if i == groups[text][-1]:
            del expressions[text]
        return expression.rendered(i, n)

    # each expression runs in one process; its battery costs more the more
    # nodes it has and the more weights it is run at
    entries = forkmap(
        rendered,
        [(i, text, n) for i, (text, n) in enumerate(items)],
        list(groups.values()),
        [len(text) * len(indices) for text, indices in groups.items()],
    )
    all_ok = all(ok for _, ok in entries)
    return {
        "command": "batch",
        "manifest": args.manifest,
        "entries": [_Rendered(part) for part, _ in entries],
        "pass": all_ok,
    }, all_ok


# ---------------------------------------------------------------------------
# rendering and dispatch


class _Rendered(str):
    """A part of a report already rendered in the format the report prints
    in, which the renderers copy as it stands: a value at its place in the
    JSON text, or its lines of the text form."""

    __slots__ = ()


# how each leaf type of a report is written in JSON
_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    _Rendered: _Rendered.__str__,
}


def _render_json(report, indent: str = "\n") -> str:
    """`json.dumps(report, indent=2)`, byte for byte, for what a report
    holds: dicts with str keys, lists and tuples, and leaves of exactly the
    types str, int, bool and None, or `_Rendered`; anything else is a
    TypeError.  `indent` is the newline and spaces that start a line at the
    report's depth, so a value renders as it does nested in a report.

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

    write(report, indent)
    return "".join(pieces)


def _render_text(report, path: str = "") -> str:
    """One line `path: value` for each leaf of the report, its path the
    dotted keys and list indices that lead to it from `path`; dicts and
    lists print only their leaves, and a `_Rendered` value prints as its
    lines."""
    lines = []

    def emit(path, value):
        if type(value) is _Rendered:
            if value:
                lines.append(value)
        elif isinstance(value, dict):
            for k, v in value.items():
                emit(f"{path}.{k}" if path else f"{k}", v)
        elif isinstance(value, list):
            for idx, v in enumerate(value):
                emit(f"{path}.{idx}" if path else f"{idx}", v)
        else:
            lines.append(f"{path}: {value}")

    emit(path, report)
    return "\n".join(lines)


class _Verb(namedtuple("_Verb", "handler positional options claim", defaults=(None,))):
    """What a verb reads: `handler` runs it, `positional` is the field its
    one positional fills ("expression", "file" or None), and `options` maps
    every option it takes besides -h/--help and --format to its default,
    None where it has none.  The reader takes only these options, and
    requires the positional and each option without a default.  `claim` is
    the check of a one-claim verb, taken on (entry, args), or None.
    """

    __slots__ = ()


_DEFAULT_SERIES_ORDER = 10
_VERBS = {
    "zeta": _Verb(_cmd_zeta, "expression", {}),
    "ord": _Verb(_cmd_ord, "expression", {"-n": None}),
    "value": _Verb(_cmd_value, "expression", {"-n": None, "--precision": DEFAULT_PRECISION}),
    "verify-c": _Verb(_cmd_claim, "expression", {"-n": None},
                      claim=lambda entry, args: ffengine.verify_C_finite_char(entry, args.n)),
    "trace-check": _Verb(_cmd_claim, "expression", {"--series-order": _DEFAULT_SERIES_ORDER},
                         claim=lambda entry, args: ffengine.trace_formula_check(entry, args.series_order)),
    "ell-check": _Verb(_cmd_claim, "expression", {"-n": None, "--ell": None},
                       claim=lambda entry, args: ffengine.ell_adic_check(entry, args.n, args.ell)),
    "p-check": _Verb(_cmd_claim, "expression", {"-n": None},
                     claim=lambda entry, args: ffengine.p_part_check(entry, args.n)),
    "det": _Verb(_cmd_det, "file", {}),
    "batch": _Verb(_cmd_batch, None, {"--manifest": None, "--series-order": _DEFAULT_SERIES_ORDER}),
}
_HELP = ("-h", "--help")
_COMMON = (*_HELP, "--format")
# every option of some verb; a token is read as one of these
_OPTIONS = (*_COMMON, *dict.fromkeys(name for verb in _VERBS.values() for name in verb.options))
_INTEGER_OPTIONS = ("-n", "--series-order", "--ell", "--precision")
# argparse's rule: a token like this is a value, not an option
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")

_USAGE = """\
usage: zetaforge VERB [EXPRESSION | FILE] [options]

  zeta EXPR                      factored zeta function
  ord EXPR -n N                  analytic vs conjectural order
  value EXPR -n N                special value; --precision DIGITS
  verify-c EXPR -n N             |zeta(X, n)| against chi_x
  trace-check EXPR               point counts against t Z'/Z to t^K
  ell-check EXPR -n N --ell L    ell-adic absolute value
  p-check EXPR -n N              p-part triviality
  det FILE                       determinant of a complex (JSON)
  batch --manifest FILE          battery over a JSON list of {expr, n}, to t^K

options: -n N (negative), --format text|json, --series-order K (default 10),
         --ell L (prime), -h/--help; --opt=value and unique prefixes work;
         a verb takes -n, --series-order and --ell where its line has N, K, L"""


def run_command(args) -> tuple[dict, bool]:
    """Dispatch a namespace filled by `_read_argv` to its implementation,
    once the values of its options are in their domains; an expression verb
    reads one Evaluation.  An option the verb does not take is None."""
    verb = _VERBS[args.verb]
    if args.series_order is not None and args.series_order < 0:
        raise InvalidArgumentError(f"--series-order must be >= 0, got {args.series_order}")
    if verb.positional != "expression":
        return verb.handler(args)
    expr = parse_expr(args.expression)
    if args.n is not None and args.n >= 0:
        raise InvalidArgumentError("n must be a strictly negative integer")
    if args.ell is not None and not is_prime(args.ell):
        raise InvalidArgumentError(f"--ell must be a prime, got {args.ell}")
    return verb.handler(Evaluation(expr), args)


def _field(option: str) -> str:
    """The namespace field of an option: --series-order -> series_order."""
    return option.lstrip("-").replace("-", "_")


def _option(token: str, verb: str | None) -> tuple[str, str | None] | None:
    """(option, value written into the token) that `token` names among the
    options `verb` takes (any verb's before the verb is read), or None when
    it is a positional.

    As with argparse: '-' alone, and negative numbers and tokens with a
    space that name no such option, are positionals; a long option may be
    shortened to a unique prefix, the verb's options first, and take its
    value after '=', and -n one after '=' or attached.  An option of another
    verb is refused.
    """
    if len(token) < 2 or token[0] != "-":
        return None
    head, eq, inline = token.partition("=")
    option = None
    if head in _OPTIONS:
        option = head, inline if eq else None
    elif token[1] == "-":
        own = _OPTIONS if verb is None else (*_COMMON, *_VERBS[verb].options)
        matches = [name for name in own if name.startswith(head)] or [name for name in _OPTIONS if name.startswith(head)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option {head}: could be {', '.join(matches)}")
        if matches:
            option = matches[0], inline if eq else None
    elif token[:2] in _OPTIONS:
        option = token[:2], token[2:]
    if option is not None and (verb is None or option[0] in _COMMON or option[0] in _VERBS[verb].options):
        return option
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    if option is not None:
        raise UsageError(f"{verb} does not read {option[0]}")
    raise UsageError(f"unknown option {token}")


def _read_argv(argv, args) -> bool:
    """Fill `args` from argv; False when it asks for the usage block.

    The first positional is the verb, which names the options it takes
    besides -h/--help and --format; after a bare `--` every token is a
    positional.  Every token is read, so a --format anywhere decides how an
    error prints, and the first malformed one (another verb's option among
    them) is raised as a UsageError at the end, or else the first missing
    positional or option without a default.
    """
    positional, error, only_positionals = None, None, False
    k = 0
    while k < len(argv):
        token = argv[k]
        k += 1
        try:
            if token == "--" and not only_positionals:
                only_positionals = True
                continue
            option = None if only_positionals else _option(token, args.verb)
            if option is None:
                if args.verb is None:
                    if token not in _VERBS:
                        raise UsageError(f"unknown verb {token!r}; choose from {', '.join(_VERBS)}")
                    args.verb = token
                    positional = _VERBS[token].positional
                    for name, default in _VERBS[token].options.items():
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
                if k == len(argv) or argv[k] == "--" or _option(argv[k], args.verb) is not None:
                    raise UsageError(f"{name} expects a value")
                value = argv[k]
                k += 1
            if name in _INTEGER_OPTIONS:
                try:
                    value = read_decimal(value)
                except InvalidArgumentError:
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
        verb = _VERBS[args.verb]
        missing = [name for name, default in verb.options.items() if default is None and getattr(args, _field(name)) is None]
        if verb.positional and getattr(args, verb.positional) is None:
            missing.insert(0, ("an " if verb.positional[0] in "aeiou" else "a ") + verb.positional)
        if missing:
            error = UsageError(f"{args.verb} requires {missing[0]}")
    if error is not None:
        raise error
    return True


def main(argv=None) -> int:
    args = SimpleNamespace(
        verb=None, expression=None, file=None, manifest=None,
        n=None, format="text", series_order=None, ell=None, precision=None,
    )
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # integers read and print in full, whatever their size
    try:
        if not _read_argv(sys.argv[1:] if argv is None else argv, args):
            return _print(_USAGE, 0)
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
