import argparse
import contextlib
import decimal
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import zetaforge
from zetaforge import archimedean, cli, detcomplex, forkmap, intlinalg, poly, scheme_algebra
from zetaforge.errors import ArityError, ExprSyntaxError, InvalidArgumentError, NotPrimePowerError
from zetaforge.lfunctions import DEFAULT_PRECISION, QI, AbelianFieldSpec
from zetaforge.scheme_algebra import (
    Affine,
    Cellular,
    Curve,
    Disjoint,
    Glue,
    Minus,
    NumberRing,
    Point,
    Proj,
    format_expr,
)

from complex_fixtures import complex_to_json_dict, random_complex_with_groups, random_torsion_complex

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# parser


def test_parse_examples():
    assert cli.parse_expr("(proj 1 (point 2))") == Proj(1, Point(2))
    assert cli.parse_expr("(point 2 3)") == Point(2, 3)
    assert cli.parse_expr("(curve 5 (1 -2 5))") == Curve(5, (1, -2, 5))
    nodal = cli.parse_expr("(glue (point 2) (minus (affine 1 (point 2)) (point 2)))")
    assert nodal == Glue(Point(2), Minus(Affine(1, Point(2)), Point(2)))
    assert cli.parse_expr("(Qi)") == NumberRing(QI)
    assert cli.parse_expr("(numberring :conductor 5 :subgroup (1 4))") == NumberRing(
        AbelianFieldSpec(5, (1, 4))
    )
    assert cli.parse_expr("(cellular (point 2) (0 1 1))") == Cellular(Point(2), (0, 1, 1))
    assert cli.parse_expr("(disjoint)") == Disjoint(())


def test_parse_errors():
    with pytest.raises(NotPrimePowerError):
        cli.parse_expr("(point 6)")
    with pytest.raises(ExprSyntaxError):
        cli.parse_expr("(point 2")
    with pytest.raises(ExprSyntaxError):
        cli.parse_expr("point")
    with pytest.raises(ExprSyntaxError):
        cli.parse_expr("(point 2)) ")
    with pytest.raises(ArityError):
        cli.parse_expr("(glue (point 2))")
    with pytest.raises(ExprSyntaxError):
        cli.parse_expr("(warp 3)")


def random_expr(rng, depth=0):
    atoms = [
        Point(2),
        Point(3, 2),
        Point(4),
        Curve(2, (1, 0, 2)),
        NumberRing(QI),
        NumberRing(AbelianFieldSpec(5, (1,))),
    ]
    if depth > 2 or rng.random() < 0.35:
        return rng.choice(atoms)
    kind = rng.choice(["disjoint", "glue", "minus", "affine", "proj", "cellular"])
    if kind == "disjoint":
        return Disjoint(tuple(random_expr(rng, depth + 1) for _ in range(rng.randint(0, 3))))
    if kind == "glue":
        return Glue(random_expr(rng, depth + 1), random_expr(rng, depth + 1))
    if kind == "minus":
        return Minus(random_expr(rng, depth + 1), random_expr(rng, depth + 1))
    if kind == "affine":
        return Affine(rng.randint(0, 3), random_expr(rng, depth + 1))
    if kind == "proj":
        return Proj(rng.randint(0, 3), random_expr(rng, depth + 1))
    return Cellular(
        random_expr(rng, depth + 1), tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
    )


def test_parse_print_round_trip():
    rng = random.Random(6021023)
    for _ in range(60):
        e = random_expr(rng)
        printed = format_expr(e)
        assert cli.parse_expr(printed) == e
        # canonical: printing a reparse is a fixed point
        assert format_expr(cli.parse_expr(printed)) == printed


def test_parse_is_whitespace_insensitive():
    a = cli.parse_expr("(glue(point 2)(minus(affine 1 (point 2))(point 2)))")
    b = cli.parse_expr("( glue ( point 2 )\n  ( minus ( affine 1 ( point 2 ) ) ( point 2 ) ) )")
    assert a == b


# ---------------------------------------------------------------------------
# commands


def test_ord_number_ring(capsys):
    code, data = run_json(capsys, "ord", "(numberring :conductor 4 :subgroup (1))", "-n", "-1")
    assert code == 0
    assert data["analytic_order"] == 1 and data["conjectural_order"] == 1
    assert data["vo"] == "pass"


def test_verify_c_curve(capsys):
    code, data = run_json(capsys, "verify-c", "(curve 2 (1 0 2))", "-n", "-1")
    assert code == 0
    check = data["checks"][0]
    assert check["left"] == "3" and check["right"] == "3" and check["verdict"] == "pass"


def test_det_command(tmp_path, capsys):
    payload = {"ranks": {"-1": 1, "0": 1}, "differentials": {"-1": [[5]]}}
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(payload))
    code, data = run_json(capsys, "det", str(path))
    assert code == 0
    assert data["ideal"] == "1/5" and data["grade"] == 0
    assert data["cohomology"]["0"] == {"rank": 0, "torsion": [5], "group": "Z/5"}
    assert data["cohomology"]["-1"]["group"] == "0"


def test_det_takes_one_smith_form_per_nonzero_differential(tmp_path, capsys, monkeypatch):
    calls, snf = [], intlinalg.smith_normal_form

    def counting(A):
        calls.append(A)
        return snf(A)

    # both bindings, so a cokernel taken inside intlinalg counts too
    monkeypatch.setattr(detcomplex, "smith_normal_form", counting)
    monkeypatch.setattr(intlinalg, "smith_normal_form", counting)
    rng = random.Random(808)
    for _ in range(10):
        data = complex_to_json_dict(random_torsion_complex(rng))
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(data))
        calls.clear()
        assert run_json(capsys, "det", str(path))[0] == 0
        assert len(calls) == len(data["differentials"])


def test_det_builds_no_transform(tmp_path, capsys, monkeypatch):
    # det reads only the invariant factors, never U or V
    def refuse(decomposition):
        raise AssertionError("det built a Smith transform")

    monkeypatch.setattr(intlinalg.SmithDecomposition, "_transforms", property(refuse))
    code, report = run_json(capsys, "det", str(GOLDEN / "det_three_term_input.json"))
    report.pop("file")
    assert code == 0 and report == json.loads((GOLDEN / "det_three_term.json").read_text())
    rng = random.Random(1809)
    for k in range(20):
        C = random_torsion_complex(rng) if k % 2 else random_complex_with_groups(rng)[0]
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(complex_to_json_dict(C)))
        assert run_json(capsys, "det", str(path))[0] == 0


def test_value_command_exact_and_numeric(capsys):
    code, data = run_json(capsys, "value", "(proj 1 (point 2))", "-n", "-1")
    assert code == 0
    assert data["exact"] == "1/3" and data["exact_flag"] is True

    code, data = run_json(capsys, "value", "(Q)", "-n", "-2")
    assert code == 0
    assert data["order"] == 1 and data["exact_flag"] is False
    assert data["numeric"].startswith("-0.0304484570583")


def test_exact_values_print_from_the_rational(capsys):
    # -1/80 = -0.0125 is a tie at two digits, rounded half up; a binary
    # mirror of the rational fell below the tie and printed -0.012
    code, data = run_json(capsys, "value", "(point 3 2)", "-n", "-2", "--precision", "2")
    assert code == 0 and data["exact"] == "-1/80"
    assert data["numeric"] == "-0.013" and data["error_bound"] == "1.0125e-7"


def test_value_precision_is_the_option_alone(capsys, monkeypatch):
    # the environment plays no part: without --precision the default is used
    argv = ["value", "(numberring :conductor 13 :subgroup (1))", "-n", "-2"]
    monkeypatch.setenv("ZETAFORGE_PRECISION", "10")
    default = run_cli(capsys, *argv, "--format", "json")
    assert default == run_cli(capsys, *argv, "--precision", "50", "--format", "json")
    assert default[0] == 0 and json.loads(default[1]) == json.loads(
        (GOLDEN / "value_q_zeta13.json").read_text()
    )


def test_a_value_op_loads_no_mpmath():
    # special values stay in integers and Fractions from the class sums to the digits
    src = str(Path(zetaforge.__file__).parent.parent)
    script = (
        "import sys\n"
        "import zetaforge.cli as cli\n"
        "assert cli.main(['value', '(numberring :conductor 13 :subgroup (1))', '-n', '-2']) == 0\n"
        "print('mpmath' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_import_loads_no_dataclasses():
    # every record is a slotted Record: the CLI's cold start loads no
    # dataclasses module, nor the inspect and ast modules it would bring
    src = str(Path(zetaforge.__file__).parent.parent)
    script = "import sys\nimport zetaforge.cli\nprint(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))\n"
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_stdout_is_an_io_error(fmt):
    # the reader is gone before the report is printed: exit 2 with a stable
    # code on stderr, and no traceback from print or from the flush at exit
    src = str(Path(zetaforge.__file__).parent.parent)
    proc = subprocess.Popen([sys.executable, "-m", "zetaforge.cli", "zeta", "(point 3)", "--format", fmt],
                            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err.startswith("error [io-error]:") and "Traceback" not in err and "Exception ignored" not in err


def test_running_out_of_memory_is_an_error(capsys, monkeypatch):
    # exit 1 means a failed verdict, so exhausted memory is the error out-of-memory
    def exhausted(expr, args):
        raise MemoryError

    monkeypatch.setitem(cli._VERBS, "value", cli._VERBS["value"]._replace(handler=exhausted))
    code, data = run_json(capsys, "value", "(point 2)", "-n", "-1")
    assert code == 2 and data["error"]["code"] == "out-of-memory"
    code, out = run_cli(capsys, "value", "(point 2)", "-n", "-1")
    assert code == 2 and out == ""


def test_a_million_digit_exact_value_prints_in_under_a_few_seconds(capsys):
    # 1 / (1 - 2^3400000): str() of its denominator alone takes about 11 s
    # below Python 3.12, so its digits are checked at both ends and counted
    start = time.perf_counter()
    code, data = run_json(capsys, "value", "(point 2)", "-n", "-3400000")
    assert code == 0 and time.perf_counter() - start < 5
    sign, den = data["exact"].split("/")
    lead = decimal.Context(prec=60, Emax=decimal.MAX_EMAX).power(decimal.Decimal(2), 3400000)
    assert sign == "-1" and len(den) == 1023502 and den[:50] == str(lead).replace(".", "")[:50]
    assert int(den[-60:]) == pow(2, 3400000, 10**60) - 1


def test_a_million_digit_check_prints_the_digits_of_value(capsys):
    # |zeta|, chi_mult and zeta of (point 2) at n = -3400000 print through
    # the printer of `value`, not through str(), which takes about 11 s for
    # each below Python 3.12
    start = time.perf_counter()
    code, data = run_json(capsys, "verify-c", "(point 2)", "-n", "-3400000")
    assert code == 0 and time.perf_counter() - start < 5
    _, value = run_json(capsys, "value", "(point 2)", "-n", "-3400000")
    (check,) = data["checks"]
    assert check["verdict"] == "pass" and check["context"]["zeta"] == value["exact"]
    assert check["left"] == check["right"] == value["exact"].removeprefix("-")


def _run_under_1gb(argv, command=("-m", "zetaforge.cli")):
    """The CLI (or the Python `command`) on argv in a subprocess whose
    address space is limited to 1 GB."""
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(zetaforge.__file__).parent.parent)
    return subprocess.run([sys.executable, *command, *argv], env=dict(os.environ, PYTHONPATH=src),
                          preexec_fn=limit, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("verb", ["value", "ord", "zeta"])
def test_a_bundle_rank_above_the_bound_is_refused_under_a_memory_limit(verb):
    # the weight of a bundle over a path of ranks summing to r is a dense
    # polynomial of degree r in L; past 65536 it is refused before it is
    # allocated, where a list of 10^9 entries would exhaust the 1 GB limit
    weight = [] if verb == "zeta" else ["-n", "-1"]
    for expr in ["(proj 1000000000 (point 2))", "(affine 1000000000000 (point 2))",
                 "(cellular (point 2) (0 1000000000))"]:
        done = _run_under_1gb([verb, expr, *weight, "--format", "json"])
        assert done.returncode == 2 and "Traceback" not in done.stderr
        assert json.loads(done.stdout)["error"]["code"] == "invalid-argument"


@pytest.mark.parametrize("verb", ["value", "ord"])
def test_a_value_above_2_to_the_24_bits_is_refused_under_a_memory_limit(verb):
    # Z(q^(-n)) has about -n log2(q) deg Z bits; past 2^24 it is refused
    # before q^(-n) is computed, where 2^(10^11) would exhaust the limit
    for expr, n in [("(point 2)", "-100000000000"), ("(point 2 65536)", "-200")]:
        done = _run_under_1gb([verb, expr, "-n", n, "--format", "json"])
        assert done.returncode == 2 and "Traceback" not in done.stderr
        assert json.loads(done.stdout)["error"]["code"] == "invalid-argument"


@pytest.mark.parametrize("verb", ["value", "ord", "zeta"])
def test_a_shift_above_2_to_the_24_bits_is_refused_under_a_memory_limit(verb):
    # shifting 1/(1 - t^65536) over q = 2 by 65536 would give a coefficient
    # of 2^(2^32); its size is known before the power is taken
    weight = [] if verb == "zeta" else ["-n", "-1"]
    done = _run_under_1gb([verb, "(affine 65536 (point 2 65536))", *weight, "--format", "json"])
    assert done.returncode == 2 and "Traceback" not in done.stderr
    error = json.loads(done.stdout)["error"]
    assert error["code"] == "invalid-argument" and "above 2^24" in error["message"]


@pytest.mark.parametrize("precision", ["4097", "100000000"])
def test_a_precision_above_4096_digits_is_refused_under_a_memory_limit(precision):
    # 10^(10^8) would be built for the working bits; the bound is checked first
    done = _run_under_1gb(["value", "(Q)", "-n", "-2", "--precision", precision, "--format", "json"])
    assert done.returncode == 2 and "Traceback" not in done.stderr
    error = json.loads(done.stdout)["error"]
    assert error["code"] == "invalid-argument" and "above 4096 digits" in error["message"]


@pytest.mark.parametrize("argv, values", [(["-n", "-2", "--precision", "4096"], 61), (["-n", "-2047"], 60)],
                         ids=["precision", "weight"])
def test_a_trivial_zero_over_a_large_hurwitz_table_is_refused_under_a_memory_limit(argv, values):
    # Q(zeta_61) would take about 23 s at 4096 digits and 20 s at n = -2047; the
    # Hurwitz tables of its trivial zeros (phi(61) values, and one for zeta
    # at n = -2) times the digits squared or times |n| are bounded before
    # any L-value
    done = _run_under_1gb(["value", "(numberring :conductor 61 :subgroup (1))", *argv, "--format", "json"])
    assert done.returncode == 2 and "Traceback" not in done.stderr
    error = json.loads(done.stdout)["error"]
    assert error["code"] == "invalid-argument" and f"Hurwitz tables of {values} values" in error["message"]


def test_a_large_hurwitz_table_at_the_default_precision_is_accepted_under_a_memory_limit():
    # Q(zeta_1009) at n = -2 reads 1009 table values: 1009 * 50^2 and
    # 1009 * 2 are inside the bounds, and it takes about half a second
    done = _run_under_1gb(["value", "(numberring :conductor 1009 :subgroup (1))", "-n", "-2", "--format", "json"])
    assert done.returncode == 0 and json.loads(done.stdout)["order"] == 504


def test_ell_check_reads_the_value_before_the_order_data_under_a_memory_limit():
    # the graded orders of (point 2) at n = -10^11 hold 2^(10^11); the value,
    # read first, is refused by its size bound before they are built
    done = _run_under_1gb(["ell-check", "(point 2)", "-n", "-100000000000", "--ell", "3", "--format", "json"])
    assert done.returncode == 2 and "Traceback" not in done.stderr
    assert json.loads(done.stdout)["error"]["code"] == "invalid-argument"


@pytest.mark.parametrize("verb", ["value", "ord"])
def test_a_weight_below_minus_2048_is_refused_under_a_memory_limit(verb):
    # B_(1-n) at n = -10^6 needs 2^19 tangent numbers of millions of bits;
    # the bound is on each L-factor's own weight n - shift, so a shift by
    # an affine bundle cannot carry a weight in range past it
    for expr, n in [("(Q)", "-1000001"), ("(Q)", "-100000000"), ("(affine 1 (Q))", "-2048"),
                    ("(numberring :conductor 13 :subgroup (1))", "-2049")]:
        done = _run_under_1gb([verb, expr, "-n", n, "--format", "json"])
        assert done.returncode == 2 and "Traceback" not in done.stderr
        error = json.loads(done.stdout)["error"]
        assert error["code"] == "invalid-argument" and "below -2048" in error["message"]


@pytest.mark.parametrize("order", ["1025", "100000000"])
def test_a_series_order_above_1024_is_refused_under_a_memory_limit(capsys, order):
    # the trace-formula check takes O(K) products of integers of up to K r log2(q)
    # bits per coefficient and node, and prints 3K of them
    done = _run_under_1gb(["trace-check", "(curve 2 (1 0 2))", "--series-order", order, "--format", "json"])
    assert done.returncode == 2 and "Traceback" not in done.stderr
    error = json.loads(done.stdout)["error"]
    assert error["code"] == "invalid-argument" and "above 1024" in error["message"]
    assert run_cli(capsys, "trace-check", "(point 2)", "--series-order", "1024")[0] == 0


@pytest.mark.parametrize("verb", ["value", "ord"])
def test_a_conductor_above_65536_is_refused_under_a_memory_limit(verb):
    # every character table has one entry per residue: a conductor of
    # 10^12 is refused before its units are enumerated
    done = _run_under_1gb([verb, "(numberring :conductor 1000000000000 :subgroup (1))", "-n", "-1",
                           "--format", "json"])
    assert done.returncode == 2 and "Traceback" not in done.stderr
    assert json.loads(done.stdout)["error"]["code"] == "invalid-argument"


def test_the_echo_of_a_subgroup_of_65520_elements_runs_as_a_batch_entry(capsys, tmp_path):
    # `zeta` echoes the whole subgroup that (17) generates, about 382 KB; read
    # back, its residues are closed from a few generators picked greedily,
    # not each used as one (|H|^2 products, about 517 s)
    _, zeta = run_json(capsys, "zeta", "(numberring :conductor 65521 :subgroup (17))")
    expression = zeta["expression"]
    assert len(expression) > 380_000
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{"expr": expression, "n": -1}]))
    start = time.perf_counter()
    done = _run_under_1gb(["batch", "--manifest", str(path), "--format", "json"])
    assert time.perf_counter() - start < 5 and done.returncode == 0
    (entry,) = json.loads(done.stdout)["entries"]
    assert entry["expression"] == expression


def test_bundle_ranks_are_summed_along_the_path(capsys):
    assert run_json(capsys, "zeta", "(affine 65536 (point 2))")[0] == 0
    for expr in ["(proj 1 (affine 65536 (point 2)))", "(affine 1 (cellular (point 2) (0 65536)))",
                 "(disjoint (point 2) (proj 40000 (minus (affine 25537 (point 4)) (point 4))))"]:
        code, data = run_json(capsys, "zeta", expr)
        assert code == 2 and data["error"]["code"] == "invalid-argument"
        assert data["error"]["message"].startswith("bundle ranks summing to 65537 ")


def test_zeta_prints_a_coefficient_of_millions_of_digits_in_a_few_seconds(capsys):
    # (affine 128 (point 2 65536)) is 1/(1 - 2^8388608 t^65536): the factor
    # prints once, its 2.5 million digits by the printer of `value`, where
    # str() of it twice took about 138 s below Python 3.12
    start = time.perf_counter()
    code, data = run_json(capsys, "zeta", "(affine 128 (point 2 65536))")
    assert code == 0 and time.perf_counter() - start < 5
    with decimal.localcontext(decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)):
        factor = f"[q=2] (1)/(1 - {decimal.Decimal(2) ** 8388608}t^65536)"
    assert data["factors"] == [{"factor": factor, "exponent": 1}] and data["zeta"] == f"({factor})"


def test_value_of_q_zeta_401_rounds_every_product(capsys):
    # 200 order-1 values and 200 embedded order-0 values multiply to about
    # 10^1918; without rounding each product the Fractions take seconds
    argv = ["value", "(numberring :conductor 401 :subgroup (1))", "-n", "-2", "--precision", "30"]
    start = time.perf_counter()
    code, data = run_json(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert code == 0 and data["order"] == 200 and data["exact"] is None
    assert data["numeric"] == "7.38995187948830441847758171617e+1918"
    assert data["error_bound"] == "3.2061e+1886"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["value", "-n", "-2"], "usage"),  # no expression
        (["ord", "(Q)"], "usage"),  # no -n
        (["ell-check", "(point 2)", "-n", "-1"], "usage"),  # no --ell
        (["ord", "(Q)", "-n", "1"], "invalid-argument"),
        (["ell-check", "(point 2)", "-n", "-1", "--ell", "4"], "invalid-argument"),
        # the least strong pseudoprime to the bases 2, ..., 41: not decided
        (
            ["ell-check", "(point 2)", "-n", "-1", "--ell", "3317044064679887385961981"],
            "invalid-argument",
        ),
        # (point 6) is built, and fails, before (foo) is read
        (["zeta", "(disjoint (point 6) (foo))"], "not-prime-power"),
        # a keyword without its value is not dropped: this is not Q(zeta_5)
        (["value", "(numberring :conductor 5 :subgroup)", "-n", "-2"], "arity-error"),
        # a group where a keyword belongs is a syntax error, not a crash
        (["value", "(numberring (1) :conductor 5)", "-n", "-2"], "syntax-error"),
        (["value", "(numberring :conductor 5 (1) 2)", "-n", "-2"], "syntax-error"),
    ],
)
def test_missing_and_invalid_inputs_have_documented_codes(capsys, argv, code):
    exit_code, out = run_cli(capsys, *argv, "--format", "json")
    assert exit_code == 2 and json.loads(out)["error"]["code"] == code


@pytest.mark.parametrize(
    "expr, keyword, position",
    [
        ("(numberring :conductor 5 :conductor 7 :subgroup (1))", ":conductor", 25),
        ("(numberring :conductor 5 :subgroup (1) :subgroup (4))", ":subgroup", 39),
    ],
)
def test_a_repeated_numberring_keyword_is_a_syntax_error(capsys, expr, keyword, position):
    # the last value does not win: the first expression is neither Q(zeta_5) nor Q(zeta_7)
    message = f"numberring keyword {keyword} is given twice (at position {position})"
    code, data = run_json(capsys, "zeta", expr)
    assert code == 2 and data == {"error": {"code": "syntax-error", "message": message}}
    assert cli.main(["zeta", expr]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error [syntax-error]: {message}\n"


@pytest.mark.parametrize(
    "expr, position",
    [("(point 1_6)", 7), ("(point +16)", 7), ("(point \uff12)", 7), ("(numberring :conductor \u0661\u0663)", 23)],
)
def test_an_integer_is_ascii_digits_after_an_optional_minus(capsys, expr, position):
    # int() would read these as 16, 16, 2 and 13, and the report would echo other text
    code, data = run_json(capsys, "zeta", expr)
    assert code == 2 and data["error"]["code"] == "syntax-error"
    assert data["error"]["message"].endswith(f"(at position {position})")
    assert cli.parse_expr("(curve 002 (01 -0 2))") == Curve(2, (1, 0, 2))


@pytest.mark.parametrize(
    "argv, option",
    [
        (["ord", "(point 2)", "-n", "-\u0661"], "-n"),
        (["value", "(point 2)", "-n=-1_0"], "-n"),
        (["trace-check", "(point 2)", "--series-order", "\uff13"], "--series-order"),
        (["value", "(Qi)", "-n", "-1", "--precision", "+30"], "--precision"),
        (["ell-check", "(point 2)", "-n", "-1", "--ell", "0_3"], "--ell"),
        (["value", "(point 2)", "-n", " -2 "], "-n"),
    ],
    ids=["arabic-indic", "underscore", "fullwidth", "plus", "leading-zero-underscore", "spaces"],
)
def test_an_integer_option_is_read_as_an_expression_reads_an_integer(capsys, argv, option):
    # int() would read these as -1, -10, 3, 30, 3 and -2, and the verb would run
    code, data = run_json(capsys, *argv)
    assert code == 2 and data["error"]["code"] == "usage"
    assert data["error"]["message"].startswith(f"{option} expects an integer, got ")


def test_trace_and_ell_and_p(capsys):
    assert run_cli(capsys, "trace-check", "(point 2)", "--series-order", "6")[0] == 0
    code, data = run_json(capsys, "ell-check", "(point 3)", "-n", "-2", "--ell", "2")
    assert code == 0 and data["checks"][0]["left"] == "8"
    assert run_cli(capsys, "p-check", "(point 2)", "-n", "-3")[0] == 0


def test_large_primes_are_decided_quickly(capsys):
    # 10**18 + 3 is prime; trial division would take about 5 * 10**8 steps
    code, data = run_json(capsys, "ell-check", "(point 3)", "-n", "-2", "--ell", str(10**18 + 3))
    assert code == 0 and data["checks"][0]["verdict"] == "pass"
    code, data = run_json(capsys, "zeta", "(point 1000000000000000003)")
    assert code == 0 and data["zeta"] == "([q=1000000000000000003] (1)/(1 - t))"


def test_a_wrong_archimedean_dimension_fails_the_order_verdict(capsys, tmp_path, monkeypatch):
    # r1 + r2 at every parity gives (Q) at n = -1 the order 1, but zeta(-1) = -1/12
    def wrong(atom, parity):
        return sum(atom.field_spec.signature) if isinstance(atom, NumberRing) else 0

    monkeypatch.setattr(archimedean, "_atom_dim", wrong)
    code, data = run_json(capsys, "ord", "(Q)", "-n", "-1")
    assert code == 1 and data["vo"] == "fail" and data["pass"] is False
    assert (data["analytic_order"], data["conjectural_order"]) == (0, 1)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{"expr": "(Q)", "n": -1}]))
    code, data = run_json(capsys, "batch", "--manifest", str(path))
    assert code == 1 and data["pass"] is False
    (check,) = [c for c in data["entries"][0]["checks"] if c["claim"] == "vanishing-order"]
    assert check["verdict"] == "fail" and (check["left"], check["right"]) == ("0", "1")


def test_a_wrong_group_order_fails_the_special_value_and_ell_adic_verdicts(capsys, tmp_path, monkeypatch):
    # the order of a point's group times 3, in order data that stay consistent
    # (the graded order still multiplies to chi_mult): (point 2) at n = -1
    # has |zeta| = 1 against 1/3, and the 3-part alone sees it
    right = scheme_algebra._atom_order_data

    def wrong(atom, n):
        if not isinstance(atom, Point):
            return right(atom, n)
        (order,) = right(atom, n).graded.values()
        return scheme_algebra.WeilOrderData({1: 3 * order}, Fraction(1, 3 * order))

    monkeypatch.setattr(scheme_algebra, "_atom_order_data", wrong)
    code, data = run_json(capsys, "verify-c", "(point 2)", "-n", "-1")
    (check,) = data["checks"]
    assert code == 1 and data["pass"] is False
    assert (check["verdict"], check["left"], check["right"]) == ("fail", "1", "1/3")
    for ell, verdict in [("3", "fail"), ("5", "pass")]:
        code, data = run_json(capsys, "ell-check", "(point 2)", "-n", "-1", "--ell", ell)
        assert (code, data["checks"][0]["verdict"]) == ((1, "fail") if verdict == "fail" else (0, "pass"))
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{"expr": "(point 2)", "n": -1}]))
    code, data = run_json(capsys, "batch", "--manifest", str(path))
    assert code == 1 and data["pass"] is False
    failed = [(c["claim"], c["context"].get("ell")) for c in data["entries"][0]["checks"] if c["verdict"] == "fail"]
    assert failed == [("special-value-finite-char", None), ("ell-adic-absolute-value", "3")]


@pytest.mark.parametrize("expression", [[], ["(Qi)"], ["(bogus"]], ids=["alone", "(Qi)", "(bogus"])
@pytest.mark.parametrize("verb", ["ord"])
def test_ord_has_no_hodge_option(capsys, verb, expression):
    # an unknown option, like --bogus: neither the JSON nor the expression is read
    argv = [verb, *expression, "--hodge", "{}", "-n", "-1"]
    code, data = run_json(capsys, *argv)
    assert code == 2 and data["error"] == {"code": "usage", "message": "unknown option --hodge"}
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error [usage]: unknown option --hodge\n"


def test_an_ambiguous_prefix_lists_only_the_options_of_the_verb(capsys):
    # once the verb is read, "--" could be only an option that it takes;
    # before it, an option of any verb
    code, data = run_json(capsys, "value", "(Q)", "--=3", "-n", "-1")
    assert code == 2 and data["error"] == {
        "code": "usage", "message": "ambiguous option --: could be --help, --format, --precision"}
    code, data = run_json(capsys, "--=3", "value", "(Q)", "-n", "-1")
    assert code == 2 and data["error"]["message"] == (
        "ambiguous option --: could be --help, --format, --precision, --series-order, --ell, --manifest")


# the options each verb takes besides -h/--help and --format
READS = {
    "zeta": (), "ord": ("-n",), "value": ("-n", "--precision"), "verify-c": ("-n",),
    "trace-check": ("--series-order",), "ell-check": ("-n", "--ell"), "p-check": ("-n",), "det": (),
    "batch": ("--manifest", "--series-order"),
}


@pytest.mark.parametrize(
    "argv, refused",
    [
        (["zeta", "(Qi)", "-n", "5", "--ell", "4"], "-n"),
        (["det", str(GOLDEN / "det_three_term_input.json"), "-n", "7"], "-n"),
        (["p-check", "(point 2)", "-n", "-1", "--series-order", "3", "--ell", "4"], "--series-order"),
    ],
    ids=["zeta", "det", "p-check"],
)
def test_an_option_the_verb_does_not_read_is_refused(capsys, argv, refused):
    code, data = run_json(capsys, *argv)
    assert code == 2 and data["error"] == {"code": "usage", "message": f"{argv[0]} does not read {refused}"}


@pytest.mark.parametrize("verb", READS)
def test_every_verb_refuses_each_common_option_it_does_not_read(capsys, tmp_path, verb):
    # the option's default value, written out, is refused too; an option
    # the verb reads is taken
    positional = {"det": [str(GOLDEN / "det_three_term_input.json")], "batch": []}.get(verb, ["(point 3)"])
    values = {"-n": "-1", "--series-order": "10", "--ell": "2", "--precision": "50",
              "--manifest": str(GOLDEN / "batch_repeats_manifest.json")}
    argv = [verb, *positional, *(token for option in READS[verb] for token in (option, values[option]))]
    code, data = run_json(capsys, *argv)
    assert code in (0, 1), data
    for option in values.keys() - READS[verb]:
        code, data = run_json(capsys, *argv, option, values[option])
        assert code == 2 and data["error"] == {"code": "usage", "message": f"{verb} does not read {option}"}


def test_error_exit_codes(capsys, tmp_path):
    code, out = run_cli(capsys, "value", "(point 6)", "-n", "-1", "--format", "json")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "not-prime-power"
    code, out = run_cli(capsys, "verify-c", "(Q)", "-n", "-1", "--format", "json")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "char-zero-atom"
    code, _ = run_cli(capsys, "value", "(point 2)", "-n", "1", "--format", "json")
    assert code == 2
    path = tmp_path / "complex.json"
    path.write_bytes(b'{"ranks": {"0": 1}, "note": "\xff"}')
    code, out = run_cli(capsys, "det", str(path), "--format", "json")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "io-error"
    # nesting deeper than the JSON decoder's recursion limit
    deep = "[" * 200000 + "]" * 200000
    path.write_text(deep)
    for argv in (["det", str(path)], ["batch", "--manifest", str(path)]):
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "io-error"


@pytest.mark.parametrize("precision", ["0", "-3"])
@pytest.mark.parametrize("expr", ["(point 2)", "(numberring :conductor 5 :subgroup (1))"])
def test_precision_underflow_exit_code(capsys, expr, precision):
    # the same code and message with and without a characteristic-zero factor
    code, out = run_cli(capsys, "value", expr, "-n", "-1", "--precision", precision, "--format", "json")
    assert code == 2
    assert json.loads(out)["error"] == {
        "code": "precision-underflow",
        "message": "precision must be a positive digit count",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "(point 2 0)"],
        ["zeta", "(curve 2 (0 1))"],
        ["ell-check", "(point 2)", "-n", "-1", "--ell", "2"],
        ["zeta", "(numberring :conductor 0 :subgroup (1))"],
        ["zeta", "(numberring :conductor 6 :subgroup (2))"],
        ["trace-check", "(point 2)", "--series-order", "-1"],
        ["batch", "--manifest", [{"expr": "(point 2)", "n": -1}], "--series-order", "-1"],
        # malformed `det` files
        ["det", {"ranks": {"0": 1, "1": 1, "2": 1}, "differentials": {"0": [[1]], "1": [[1]]}}],
        ["det", {"ranks": {"0": 1, "1": 2}, "differentials": {"0": [[1]]}}],
        ["det", [[5]]],
        ["det", {"differentials": {"0": [[5]]}}],
        ["det", {"ranks": [1, 1]}],
        ["det", {"ranks": {"zero": 1}}],
        ["det", {"ranks": {"0": "1"}}],
        ["det", {"ranks": {"0": 2, "1": 2}, "differentials": {"0": [[1, 0], [0]]}}],
        ["det", {"ranks": {"0": 1, "1": 1}, "differentials": {"0": [[1.5]]}}],
        ["det", {"ranks": {"0": 1, "1": 1}, "differentials": {"0": [["a"]]}}],
        # JSON true, 1.5 and "1" are no integers, beside integers or alone
        ["det", {"ranks": {"0": 1, "1": 1}, "differentials": {"0": [[True]]}}],
        ["det", {"ranks": {"0": 2, "1": 1}, "differentials": {"0": [[1, True]]}}],
        ["det", {"ranks": {"0": 2, "1": 1}, "differentials": {"0": [[2, 1.5]]}}],
        ["det", {"ranks": {"0": 1, "1": 1}, "differentials": {"0": [["1"]]}}],
        ["det", {"ranks": {"0": 2, "1": 1}, "differentials": {"0": [[1, "1"]]}}],
        ["det", {"ranks": {"0": 1, "1": 1}, "differentials": {"0": [5]}}],
        ["det", {"ranks": {"0": 1, "1": 1}, "differentials": [[[5]]]}],
        # degree keys: 0, or ASCII digits without a leading zero after an
        # optional minus, so that two keys never name one degree ("00"
        # would overwrite the rank of "0")
        ["det", {"ranks": {"0": 1, "00": 2}}],
        ["det", {"ranks": {"1_0": 1}}],
        ["det", {"ranks": {" 1": 1}}],
        ["det", {"ranks": {"+2": 1}}],
        ["det", {"ranks": {"-0": 1}}],
        ["det", {"ranks": {"\u0661": 1}}],
        ["det", {"ranks": {"0": 1, "1": 1}, "differentials": {"00": [[5]]}}],
        # a rank, or a span of degrees, above 2^16: one group per rank and
        # per degree would be written out
        ["det", {"ranks": {"0": 100000000000}}],
        ["det", {"ranks": {"0": 1, "100000000000": 1}}],
    ],
)
def test_invalid_argument_exit_code(capsys, tmp_path, argv):
    # a non-string item is a JSON payload, passed as the path of a file holding it
    for k, item in enumerate(argv):
        if not isinstance(item, str):
            path = tmp_path / f"arg{k}.json"
            path.write_text(json.dumps(item))
            argv = argv[:k] + [str(path)] + argv[k + 1 :]
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "invalid-argument"
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [invalid-argument]:") and "Traceback" not in err


@pytest.mark.parametrize(
    "manifest",
    [
        {"expr": "(point 2)", "n": -1},
        [{"expr": "(point 2)"}],
        [{"n": -1}],
        [{"expr": "(point 2)", "n": -1}, "(point 3)"],
        [{"expr": "(point 2)", "n": "-1"}],
        [{"expr": "(point 2)", "n": -1.5}],
        [{"expr": ["point", 2], "n": -1}],
    ],
)
def test_malformed_manifest_exit_code(capsys, tmp_path, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, out = run_cli(capsys, "batch", "--manifest", str(path), "--format", "json")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "manifest-error"
    assert cli.main(["batch", "--manifest", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [manifest-error]:") and "Traceback" not in err


@pytest.mark.parametrize(
    "verb, payload, code",
    [
        ("det", {"ranks": {"-1": 1, "0": 1}, "differentials": {"-1": [[True]]}}, "invalid-argument"),
        ("det", {"ranks": {"-1": True, "0": 1}}, "invalid-argument"),
        ("batch", [{"expr": "(point 2)", "n": True}], "manifest-error"),
    ],
    ids=["det-entry", "det-rank", "manifest-n"],
)
def test_json_booleans_are_not_integers(capsys, tmp_path, verb, payload, code):
    # Python reads true and false as 1 and 0; JSON input reads them as neither
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    argv = {
        "det": ["det", str(path)],
        "batch": ["batch", "--manifest", str(path)],
    }[verb]
    exit_code, out = run_cli(capsys, *argv, "--format", "json")
    assert exit_code == 2 and json.loads(out)["error"]["code"] == code


def test_exact_values_of_any_size_print_in_full(capsys):
    # zeta(F_2, s) = 1/(1 - 2^-s): at s = -15000 the denominator has 4516
    # digits, past the interpreter's default int-to-str limit of 4300
    limit = sys.get_int_max_str_digits()
    tail = str(pow(2, 15000, 10**40) - 1)
    code, data = run_json(capsys, "value", "(point 2)", "-n", "-15000")
    assert code == 0
    num, den = data["exact"].split("/")
    assert num == "-1" and len(den) == 4516 and den.endswith(tail)
    code, out = run_cli(capsys, "verify-c", "(point 2)", "-n", "-15000")
    assert code == 0
    left = next(line for line in out.splitlines() if line.startswith("checks.0.left: "))
    assert len(left) == len("checks.0.left: 1/") + 4516 and left.endswith(tail)
    assert sys.get_int_max_str_digits() == limit


def test_deep_expression_end_to_end(capsys):
    src = "(point 2)"
    for i in range(10**4):
        src = ("(disjoint {})", "(affine 0 {})", "(glue {} (disjoint))")[i % 3].format(src)
    code, data = run_json(capsys, "ord", src, "-n", "-1")
    assert code == 0 and data["analytic_order"] == data["conjectural_order"] == 0
    code, data = run_json(capsys, "verify-c", src, "-n", "-1")
    assert code == 0 and data["checks"][0]["right"] == "1"
    assert data["expression"] == src


def test_failed_verdict_exit_code(capsys):
    # L-polynomial with P(0) != 1 breaks the trace formula; the verdict must
    # fail (exit 1) rather than error out, since each side still computes
    code, data = run_json(capsys, "trace-check", "(curve 2 (2 1))", "--series-order", "4")
    assert code == 1 and data["pass"] is False
    # validate() flags the same defect up front
    diags = run_json(capsys, "zeta", "(curve 2 (2 1))")[1]["diagnostics"]
    assert any(d["severity"] == "error" for d in diags)


def test_zeta_fails_on_an_error_diagnostic(capsys):
    # P(0) = 2 is an error diagnostic, so the report does not pass (exit 1)
    code, data = run_json(capsys, "zeta", "(curve 2 (2 0 2))")
    assert code == 1 and data["pass"] is False
    assert [d["severity"] for d in data["diagnostics"]] == ["error"]
    # warnings alone pass
    code, data = run_json(capsys, "zeta", "(minus (proj 1 (curve 2 (1 1 2))) (point 2))")
    assert code == 0 and data["pass"] is True and {d["severity"] for d in data["diagnostics"]} == {"warning"}


ZETA_QI_TEXT = """\
command: zeta
expression: (Qi)
zeta: (zeta(s)) * (L(s, chi_4.2.0.1))
factors.0.factor: zeta(s)
factors.0.exponent: 1
factors.1.factor: L(s, chi_4.2.0.1)
factors.1.exponent: 1
pass: True
"""
ZETA_AFFINE_F5_TEXT = """\
command: zeta
expression: (affine 1 (numberring :conductor 5 :subgroup (1)))
zeta: (zeta(s-1)) * (L(s-1, chi_5.2.0.1.1.0)) * (L(s-1, chi_5.4.0.1.3.2)) * (L(s-1, chi_5.4.0.3.1.2))
factors.0.factor: zeta(s-1)
factors.0.exponent: 1
factors.1.factor: L(s-1, chi_5.2.0.1.1.0)
factors.1.exponent: 1
factors.2.factor: L(s-1, chi_5.4.0.1.3.2)
factors.2.exponent: 1
factors.3.factor: L(s-1, chi_5.4.0.3.1.2)
factors.3.exponent: 1
pass: True
"""


def _zeta_report(expr: str, factors: list[str]) -> dict:
    return {
        "command": "zeta",
        "expression": expr,
        "zeta": " * ".join(f"({factor})" for factor in factors),
        "factors": [{"factor": factor, "exponent": 1} for factor in factors],
        "diagnostics": [],
        "pass": True,
    }


def test_zeta_of_number_rings_prints_each_character_label(capsys):
    # an L-factor prints as L(s - shift, chi_<modulus>.<order>.<exponents on the units>)
    f5 = "(affine 1 (numberring :conductor 5 :subgroup (1)))"
    cases = [
        ("(Qi)", ZETA_QI_TEXT, ["zeta(s)", "L(s, chi_4.2.0.1)"]),
        (f5, ZETA_AFFINE_F5_TEXT,
         ["zeta(s-1)", "L(s-1, chi_5.2.0.1.1.0)", "L(s-1, chi_5.4.0.1.3.2)", "L(s-1, chi_5.4.0.3.1.2)"]),
    ]
    for expr, text, factors in cases:
        assert run_cli(capsys, "zeta", expr) == (0, text)
        expected = json.dumps(_zeta_report(expr, factors), indent=2) + "\n"
        assert run_cli(capsys, "zeta", expr, "--format", "json") == (0, expected)


def test_batch_manifest(capsys, tmp_path):
    manifest = [
        {"expr": "(point 3)", "n": -2},
        {"expr": "(proj 1 (point 2))", "n": -1},
        {"expr": "(Qi)", "n": -1},
    ]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, data = run_json(capsys, "batch", "--manifest", str(path))
    assert code == 0 and data["pass"] is True
    assert [e["expression"] for e in data["entries"]] == ["(point 3)", "(proj 1 (point 2))", "(Qi)"]
    claims = {c["claim"] for c in data["entries"][0]["checks"]}
    assert {"special-value-finite-char", "p-part-triviality", "grothendieck-trace-formula",
            "ell-adic-absolute-value", "vanishing-order"} <= claims
    assert data["entries"][2]["checks"][-1]["claim"] == "vanishing-order"


# the command line of every golden report, by file name: one list, which the
# packaged-entry-point step of .github/workflows/tier1.yml runs too; each
# command runs in tests/golden, where its file arguments are
GOLDEN_COMMANDS = {
    name: case["argv"] for name, case in json.loads((GOLDEN / "commands.json").read_text()).items()
}
ANCHOR = "value_q_zeta61.json"  # the benchmark's anchor, checked on its own


def test_golden_reports(capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    for name, argv in GOLDEN_COMMANDS.items():
        if name == ANCHOR:
            continue
        code, data = run_json(capsys, *argv)
        assert code == 0
        data.pop("manifest", None)  # the path of the manifest
        data.pop("file", None)  # the path of the input complex
        expected = json.loads((GOLDEN / name).read_text())
        assert data == expected, f"schema drift against golden file {name}"


def test_golden_q_zeta61(capsys):
    # 30 odd characters embedded from their exact values and 30 even ones
    # through the Gauss sum and the Hurwitz table, of orders 1 to 60
    code, data = run_json(capsys, *GOLDEN_COMMANDS[ANCHOR])
    assert code == 0
    assert data == json.loads((GOLDEN / ANCHOR).read_text())


def test_json_reports_print_as_json_dumps_with_indent_2(capsys, monkeypatch):
    # the goldens compare parsed JSON; this pins the bytes of every golden
    # report and of an error
    monkeypatch.chdir(GOLDEN)
    error = ["value", "(point 6)", "-n", "-1"]
    for argv in [*GOLDEN_COMMANDS.values(), error]:
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == (2 if argv is error else 0)
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.text()
    | st.text(alphabet=st.characters(max_codepoint=0x1F))
)


@settings(max_examples=300, deadline=None)
@given(st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.lists(st.text())
    | st.dictionaries(st.text() | st.text(alphabet=st.characters(max_codepoint=0x1F)), inner),
    max_leaves=40,
))
def test_the_json_writer_is_json_dumps_with_indent_2(tree):
    assert cli._render_json(tree) == json.dumps(tree, indent=2)


_PLAIN_REPORTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_PLAIN_REPORTS, st.data())
def test_rendered_parts_splice_in_byte_for_byte(report, data):
    # any part of a report, the whole of it too, may come rendered where it
    # ran: at its indent in JSON, under its path in text
    def rendered(value, indent, path):
        """(json form, text form) of `value` with some of its parts rendered in place."""
        if data.draw(st.booleans()):
            return cli._Rendered(cli._render_json(value, indent)), cli._Rendered(cli._render_text(value, path))
        if isinstance(value, dict):
            parts = {k: rendered(v, indent + "  ", f"{path}.{k}" if path else k) for k, v in value.items()}
            return {k: p[0] for k, p in parts.items()}, {k: p[1] for k, p in parts.items()}
        if isinstance(value, list):
            parts = [rendered(v, indent + "  ", f"{path}.{i}" if path else str(i)) for i, v in enumerate(value)]
            return [p[0] for p in parts], [p[1] for p in parts]
        return value, value

    as_json, as_text = rendered(report, "\n", "")
    assert cli._render_json(as_json) == json.dumps(report, indent=2)
    assert cli._render_text(as_text) == cli._render_text(report)


def test_zeta_of_a_point_of_huge_residue_degree_is_rejected(capsys):
    # 1/(1 - t^m) is written out densely, so a huge m is refused before any
    # allocation instead of exhausting memory
    code, data = run_json(capsys, "zeta", "(point 27 1000000000000000003)")
    assert code == 2
    assert data["error"]["code"] == "invalid-argument"


# ---------------------------------------------------------------------------
# batch: one record per entry


def write_manifest(tmp_path, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return str(path)


def test_batch_rejects_an_impossible_decomposition_like_trace_check(capsys, tmp_path):
    expr = "(minus (point 2) (curve 2 (1 0 2)))"
    code, data = run_json(capsys, "trace-check", expr)
    assert code == 2 and data["error"] == {
        "code": "invalid-argument", "message": "negative point count -2: the asserted decomposition is impossible"}
    path = write_manifest(tmp_path, [{"expr": expr, "n": -1}])
    code, batch = run_json(capsys, "batch", "--manifest", path)
    assert code == 2 and batch == data


def test_batch_omits_the_trace_formula_over_two_ground_fields(capsys, tmp_path):
    path = write_manifest(tmp_path, [{"expr": "(disjoint (point 2) (point 3))", "n": -1}])
    code, data = run_json(capsys, "batch", "--manifest", path)
    assert code == 0 and data["pass"] is True
    claims = [c["claim"] for c in data["entries"][0]["checks"]]
    assert "grothendieck-trace-formula" not in claims
    assert claims[:2] == ["special-value-finite-char", "p-part-triviality"]


# the one-claim verb that reports each claim of the battery
VERB_OF_CLAIM = {
    "special-value-finite-char": "verify-c",
    "p-part-triviality": "p-check",
    "grothendieck-trace-formula": "trace-check",
    "ell-adic-absolute-value": "ell-check",
}


@pytest.mark.parametrize(
    "expr, n, K",
    [
        ("(proj 2 (curve 2 (1 1 2)))", -1, 20),
        ("(affine 1 (curve 3 (1 2 3)))", -2, 12),
        ("(disjoint (curve 5 (1 2 5)) (proj 1 (point 5)))", -3, 8),
        ("(numberring :conductor 12 :subgroup (1))", -2, 10),
        ("(minus (affine 1 (numberring :conductor 7 :subgroup (1))) (point 2))", -2, 10),
    ],
)
def test_a_one_claim_verb_reports_the_claim_of_a_batch_entry(capsys, tmp_path, expr, n, K):
    # one claim, two routes: each check of a one-entry batch is the one check
    # that its verb reports on the same expression, n and K (and ell), and
    # the vanishing-order claim's two sides are ord's two orders
    path = write_manifest(tmp_path, [{"expr": expr, "n": n}])
    code, data = run_json(capsys, "batch", "--manifest", path, "--series-order", str(K))
    assert code == 0
    checks = data["entries"][0]["checks"]
    for check in checks:
        if check["claim"] == "vanishing-order":
            code, report = run_json(capsys, "ord", expr, "-n", str(n))
            assert code == 0
            assert [str(report["analytic_order"]), str(report["conjectural_order"])] == [check["left"], check["right"]]
            continue
        verb = VERB_OF_CLAIM[check["claim"]]
        argv = [verb, expr, "--series-order", str(K)] if verb == "trace-check" else [verb, expr, "-n", str(n)]
        if verb == "ell-check":
            argv += ["--ell", check["context"]["ell"]]
        code, report = run_json(capsys, *argv)
        assert code == 0 and report["checks"] == [check]
    if scheme_algebra.is_finite_characteristic(scheme_algebra.parse_expr(expr)):
        assert {c["claim"] for c in checks} == {*VERB_OF_CLAIM, "vanishing-order"}
    else:
        assert [c["claim"] for c in checks] == ["vanishing-order"]


def bindings_of(original):
    """(module, attribute) of every zetaforge module binding `original`."""
    return [
        (module, attr)
        for name, module in list(sys.modules.items())
        if name.startswith("zetaforge")
        for attr, value in list(vars(module).items())
        if value is original
    ]


def count_calls(monkeypatch, original) -> list:
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module, attr in bindings_of(original):
        monkeypatch.setattr(module, attr, counting)
    return calls


def test_batch_normalizes_each_distinct_expression_once(capsys, tmp_path, monkeypatch):
    from zetaforge import scheme_algebra, zetarep

    manifest = [
        {"expr": "(proj 1 (curve 2 (1 1 2)))", "n": -1},
        {"expr": "(affine 1 (numberring :conductor 5 :subgroup (1 4)))", "n": -2},
        {"expr": "(glue (point 7) (minus (affine 1 (point 7)) (point 7)))", "n": -1},
    ]
    # one worker: the calls of a forked worker are not counted here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    normalized = count_calls(monkeypatch, scheme_algebra.normalize)
    evaluated = count_calls(monkeypatch, zetarep.evaluate_at)
    path = write_manifest(tmp_path, manifest)
    code, data = run_json(capsys, "batch", "--manifest", path)
    assert code == 0 and len(data["entries"]) == 3
    assert len(normalized) == 3
    # the number ring takes only its analytic order
    assert len(evaluated) == 2


def test_batch_runs_each_distinct_expression_once(capsys, monkeypatch):
    # the repeats golden: a curve at four weights and once more at one of
    # them, a number ring at two weights, and two expressions that share a
    # curve; every finite expression of it has a single ground field
    from zetaforge import ffengine, zetarep

    manifest = json.loads((GOLDEN / "batch_repeats_manifest.json").read_text())
    texts = {entry["expr"] for entry in manifest}
    finite = {text for text in texts if not text.startswith("(numberring")}
    monkeypatch.chdir(GOLDEN)
    # one worker: the calls of a forked worker are not counted here
    set_cpus(monkeypatch, 1)
    parsed = count_calls(monkeypatch, cli.parse_expr)
    normalized = count_calls(monkeypatch, scheme_algebra.normalize)
    traced = count_calls(monkeypatch, ffengine.trace_formula_check)
    evaluated = count_calls(monkeypatch, zetarep.evaluate_at)
    code, data = run_json(capsys, *GOLDEN_COMMANDS["batch_repeats.json"])
    assert code == 0 and len(data["entries"]) == len(manifest) == 9
    assert len(parsed) == len(normalized) == len(texts) == 4
    assert len(traced) == len(finite) == 3
    assert len(evaluated) == len({(e["expr"], e["n"]) for e in manifest if e["expr"] in finite}) == 6


def test_one_record_serves_every_weight(monkeypatch):
    # read at -2, -1 and -2 again: one normal form and zeta product, one
    # exact value per weight, each weight's reports those of a fresh record
    from zetaforge import ffengine, zetarep

    expr = cli.parse_expr("(disjoint (proj 1 (curve 2 (1 1 2))) (point 2 3))")

    def reports(entry, n):
        return [r.as_dict() for r in cli._battery(entry, n, lambda e: ffengine.trace_formula_check(e, 8))]

    fresh = {n: reports(scheme_algebra.Evaluation(expr), n) for n in (-1, -2)}
    normalized = count_calls(monkeypatch, scheme_algebra.normalize)
    built = count_calls(monkeypatch, scheme_algebra.zeta_of)
    evaluated = count_calls(monkeypatch, zetarep.evaluate_at)
    entry = scheme_algebra.Evaluation(expr)
    assert [reports(entry, n) for n in (-2, -1, -2)] == [fresh[-2], fresh[-1], fresh[-2]]
    assert len(normalized) == len(built) == 1
    assert [args[1] for args in evaluated] == [-2, -1]
    # a field at a weight that is not negative is refused, not a TypeError
    for field in (entry.value, entry.order_data, entry.order):
        with pytest.raises(InvalidArgumentError, match="strictly negative"):
            field(0)


def test_a_batch_computes_each_factor_value_once(capsys, tmp_path, monkeypatch):
    # the exact value and the p-part check read the same values Z(q^(-n))
    from zetaforge import zetarep

    expr = "(disjoint (proj 1 (curve 2 (1 1 2))) (point 3) (affine 1 (point 5 2)))"
    value_at, calls = zetarep.FiniteCharFactor.value_at, []

    def counting(factor, n):
        calls.append((factor, n))
        return value_at(factor, n)

    monkeypatch.setattr(zetarep.FiniteCharFactor, "value_at", counting)
    code, data = run_json(capsys, "batch", "--manifest", write_manifest(tmp_path, [{"expr": expr, "n": -2}]))
    assert code == 0 and "p-part-triviality" in [check["claim"] for check in data["entries"][0]["checks"]]
    factors = scheme_algebra.zeta_of(cli.parse_expr(expr)).finite_char
    assert len(calls) == len(set(calls)) == len(factors) == 4


def test_a_planted_point_count_defect_fails_only_the_trace_formula(capsys, tmp_path, monkeypatch):
    # the power sum p_2 of a curve's inverse roots one too large: N_2 is
    # one too small, which only the trace-formula claim reads
    from zetaforge import ffengine

    path = write_manifest(tmp_path, [{"expr": "(curve 3 (1 2 3))", "n": -1}])

    def failed():
        code, data = run_json(capsys, "batch", "--manifest", path)
        return code, [check["claim"] for check in data["entries"][0]["checks"] if check["verdict"] == "fail"]

    assert failed() == (0, [])
    sums = ffengine._newton_power_sums
    monkeypatch.setattr(ffengine, "_newton_power_sums",
                        lambda lpoly, K: tuple(p + (k == 2) for k, p in enumerate(sums(lpoly, K))))
    assert failed() == (1, ["grothendieck-trace-formula"])


# projective bundles and cellular assemblies over points and curves, one
# under an affine bundle, each at two weights
FOLD_MANIFEST = [
    {"expr": expr, "n": n}
    for expr in ["(proj 2 (point 3))", "(proj 1 (curve 2 (1 1 2)))", "(affine 1 (proj 3 (point 2)))",
                 "(cellular (point 2) (0 1 2))", "(cellular (curve 3 (1 2 3)) (1 3))"]
    for n in (-1, -2)
]


def cellular_rank_plus_one(e):
    """e with the first rank of each cellular assembly one higher."""
    if isinstance(e, Cellular):
        return Cellular(cellular_rank_plus_one(e.base), (e.ranks[0] + 1, *e.ranks[1:]))
    if isinstance(e, (Affine, Proj)):
        return type(e)(e.r, cellular_rank_plus_one(e.base))
    return e


@pytest.mark.parametrize("defect", ["proj", "cellular"])
def test_a_planted_fold_defect_fails_only_the_trace_formula(capsys, tmp_path, monkeypatch, defect):
    # normalize weighs P^r as P^(r-1), or reads a cellular rank one too high:
    # the zeta product, the order data and the value follow the wrong normal
    # form together, and only the point counts, walked from the expression
    # itself, see it
    path = write_manifest(tmp_path, FOLD_MANIFEST)

    def failed():
        code, data = run_json(capsys, "batch", "--manifest", path, "--series-order", "12")
        return code, [[c["claim"] for c in entry["checks"] if c["verdict"] == "fail"] for entry in data["entries"]]

    assert failed() == (0, [[]] * len(FOLD_MANIFEST))
    if defect == "proj":
        window_sum = poly.window_sum
        monkeypatch.setattr(poly, "window_sum", lambda p, r: window_sum(p, r - 1))
    else:
        normalize = scheme_algebra.normalize
        monkeypatch.setattr(scheme_algebra, "normalize", lambda e: normalize(cellular_rank_plus_one(e)))
    expected = [["grothendieck-trace-formula"] if f"({defect} " in entry["expr"] else [] for entry in FOLD_MANIFEST]
    assert failed() == (1, expected)


# ---------------------------------------------------------------------------
# batch across the CPUs of the affinity mask: the report of a serial run

# finite-characteristic entries, number rings, a repeated expression and a
# failed verdict (the L-polynomial of (curve 2 (2 1)) has P(0) = 2)
MIXED_MANIFEST = [
    {"expr": "(proj 2 (curve 2 (1 1 2)))", "n": -1},
    {"expr": "(point 3)", "n": -2},
    {"expr": "(affine 1 (numberring :conductor 5 :subgroup (1 4)))", "n": -1},
    {"expr": "(disjoint (curve 2 (2 1)) (point 3))", "n": -1},
    {"expr": "(minus (curve 5 (1 2 5)) (point 5))", "n": -2},
    {"expr": "(Qi)", "n": -3},
    {"expr": "(point 3)", "n": -1},
    {"expr": "(glue (point 7) (minus (affine 1 (point 7)) (point 7)))", "n": -1},
]


def set_cpus(monkeypatch, count):
    """An affinity mask of `count` CPUs, whatever this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def batch_outputs(capsys, monkeypatch, path, cpus, placed=None):
    """(exit code, stdout, stderr) of batch on `path` in json and in text;
    with a `Placement`, each run is checked to have placed its entry."""
    set_cpus(monkeypatch, cpus)
    outputs = []
    for fmt in ("json", "text"):
        code = cli.main(["batch", "--manifest", path, "--series-order", "12", "--format", fmt])
        outputs.append((code, *capsys.readouterr()))
        assert_no_child_left()
        if placed is not None:
            placed.check()
    return outputs


class Placement:
    """Batch runs in which the entry `target` starts in the op process
    (`where` "here") or in a worker ("worker"), whatever the timing: the
    processes of the other kind take no entry from the queue until it has.
    Every process logs `pid expression` to one file as it starts an
    expression (parses its text), and in each run the target and each
    (where, expression) of `also` must first start where placed (a raising
    entry may start again here)."""

    def __init__(self, monkeypatch, tmp_path, target, where, also=()):
        self.log, self.parent = tmp_path / "started.log", os.getpid()
        self.expected = {(where, target), *also}
        self.log.write_text("")
        parse, take = cli.parse_expr, forkmap._take

        def logged(text):
            with open(self.log, "a") as handle:  # one write, appended
                handle.write(f"{os.getpid()} {text}\n")
            return parse(text)

        def held(*args):
            if (os.getpid() == self.parent) == (where == "worker"):
                deadline = time.monotonic() + 30
                while (where, target) not in self.started():
                    if time.monotonic() > deadline:
                        pytest.fail(f"{target} never started {where}")
                    time.sleep(0.005)
            take(*args)

        monkeypatch.setattr(cli, "parse_expr", logged)
        monkeypatch.setattr(forkmap, "_take", held)

    def started(self) -> list[tuple[str, str]]:
        """(where, expression) of each entry started so far in this run;
        a line still being written, after the last newline, is left out."""
        lines = self.log.read_text().split("\n")[:-1]
        return [("here" if int(pid) == self.parent else "worker", text)
                for pid, text in (line.split(" ", 1) for line in lines)]

    def check(self):
        """Assert that the run placed its entries, and start a new run's log."""
        first = {}
        for where, text in self.started():
            first.setdefault(text, where)
        assert {(first.get(text), text) for _, text in self.expected} == self.expected
        self.log.write_text("")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
@pytest.mark.parametrize("cpus", [2, 3, 8])
def test_batch_prints_the_same_bytes_on_one_and_many_workers(capsys, tmp_path, monkeypatch, cpus):
    # the failed verdict runs in a worker, not in this process
    path = write_manifest(tmp_path, MIXED_MANIFEST)
    serial = batch_outputs(capsys, monkeypatch, path, 1)
    assert [code for code, *_ in serial] == [1, 1]
    placed = Placement(monkeypatch, tmp_path, MIXED_MANIFEST[3]["expr"], "worker")
    assert batch_outputs(capsys, monkeypatch, path, cpus, placed) == serial


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
@pytest.mark.parametrize("where", ["here", "worker"], ids=["first-error-here", "first-error-in-a-worker"])
def test_batch_reports_the_first_error_of_a_serial_run(capsys, tmp_path, monkeypatch, where):
    # entries 2 and 5 raise different errors; entry 2's is the one reported.
    # A process stops at the first entry of its own that raises, so with
    # entry 2 here, entry 5 raises in a worker; with entry 2 in a worker,
    # entry 5 raises in another process.
    manifest = [{"expr": "(point 3)", "n": -1} for _ in range(7)]
    manifest[2]["expr"] = "(point 6)"
    manifest[5]["expr"] = "(point 2 "
    path = write_manifest(tmp_path, manifest)
    serial = batch_outputs(capsys, monkeypatch, path, 1)
    assert json.loads(serial[0][1])["error"]["code"] == "not-prime-power"
    assert serial[1][2].startswith("error [not-prime-power]:")
    placed = Placement(monkeypatch, tmp_path, "(point 6)", where, [("worker", "(point 2 ")] if where == "here" else [])
    for cpus in (2, 4):
        assert batch_outputs(capsys, monkeypatch, path, cpus, placed) == serial


def serial_first_error(capsys, tmp_path, manifest) -> dict:
    """The report of the first entry that fails as a one-entry batch, the
    entries run one at a time in manifest order."""
    for k, entry in enumerate(manifest):
        path = tmp_path / f"entry-{k}.json"
        path.write_text(json.dumps([entry]))
        code, data = run_json(capsys, "batch", "--manifest", str(path), "--series-order", "12")
        if code == 2:
            return data
    raise AssertionError("no entry fails")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
@pytest.mark.parametrize(
    "failing, code",
    [(("(point 2 ", -1, -2), "syntax-error"), (("(point 5)", -1, 0), "not-prime-power")],
    ids=["at-both-weights", "at-its-second-weight"],
)
def test_batch_reports_the_first_error_of_a_serial_run_with_repeats(capsys, tmp_path, monkeypatch, failing, code):
    # one expression appears twice, at entries 1 and 4, and entry 3 fails
    # with another error: the report is that of the first entry to fail,
    # run one at a time, wherever the two groups run
    text, first_n, second_n = failing
    manifest = [{"expr": "(point 3)", "n": -1} for _ in range(6)]
    manifest[1] = {"expr": text, "n": first_n}
    manifest[3] = {"expr": "(point 6)", "n": -1}
    manifest[4] = {"expr": text, "n": second_n}
    path = write_manifest(tmp_path, manifest)
    expected = serial_first_error(capsys, tmp_path, manifest)
    assert expected["error"]["code"] == code
    serial = batch_outputs(capsys, monkeypatch, path, 1)
    assert json.loads(serial[0][1]) == expected
    placed = Placement(monkeypatch, tmp_path, text, "worker")
    for cpus in (2, 4):
        assert batch_outputs(capsys, monkeypatch, path, cpus, placed) == serial


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_a_worker_that_sends_nothing_is_run_here(capsys, tmp_path, monkeypatch):
    # a worker that dies mid-share leaves its entries to this process
    parent, battery = os.getpid(), cli._battery

    def dying(entry, n, trace_claim):
        if os.getpid() != parent:
            os._exit(3)
        return battery(entry, n, trace_claim)

    path = write_manifest(tmp_path, MIXED_MANIFEST)
    serial = batch_outputs(capsys, monkeypatch, path, 1)
    monkeypatch.setattr(cli, "_battery", dying)
    assert batch_outputs(capsys, monkeypatch, path, 2) == serial


def test_a_batch_that_cannot_fork_runs_here(capsys, tmp_path, monkeypatch):
    # no fork for a one-entry manifest or beside another live thread, and a
    # failing fork is a share run here
    import threading

    path = write_manifest(tmp_path, MIXED_MANIFEST)
    serial = batch_outputs(capsys, monkeypatch, path, 1)

    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    assert batch_outputs(capsys, monkeypatch, path, 4) == serial
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    one = tmp_path / "one.json"
    one.write_text(json.dumps(MIXED_MANIFEST[:1]))
    code, data = run_json(capsys, "batch", "--manifest", str(one))
    assert code == 0 and len(data["entries"]) == 1
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert batch_outputs(capsys, monkeypatch, path, 4) == serial
    finally:
        done.set()
        thread.join()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_an_interrupt_kills_and_reaps_every_worker(capsys, tmp_path, monkeypatch):
    # the workers would sleep for a minute; they are killed, not waited out
    parent = os.getpid()

    def interrupted(entry, n, trace_claim):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_battery", interrupted)
    set_cpus(monkeypatch, 3)
    path = write_manifest(tmp_path, MIXED_MANIFEST)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli.main(["batch", "--manifest", path])
    assert time.monotonic() - start < 30
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_a_worker_out_of_memory_is_the_serial_error_under_a_memory_limit(tmp_path):
    # an entry allocates 2 GB in a worker (this process takes no entry until
    # a worker has started it); the error is that of a serial run, and no
    # worker outlives the run
    program = """
import os, sys, time
from zetaforge import cli, forkmap
log, parent = sys.argv[1], os.getpid()
battery, parse, take = cli._battery, cli.parse_expr, forkmap._take
def allocating(entry, n, trace_claim):
    if entry.printed == "(point 5)":
        bytearray(1 << 31)
    return battery(entry, n, trace_claim)
def logged(text):
    with open(log, "a") as handle:
        handle.write(("here " if os.getpid() == parent else "worker ") + text + "\\n")
    return parse(text)
def held(*args):
    deadline = time.monotonic() + 30
    while os.getpid() == parent and "worker (point 5)" not in open(log).read().splitlines():
        if time.monotonic() > deadline:
            sys.exit(8)
        time.sleep(0.005)
    take(*args)
cli._battery, cli.parse_expr, forkmap._take = allocating, logged, held
os.sched_getaffinity = lambda pid: set(range(int(sys.argv[2])))
code = cli.main(sys.argv[3:])
try:
    os.waitpid(-1, os.WNOHANG)
    code = 9
except ChildProcessError:
    pass
sys.exit(code)
"""
    manifest = [{"expr": "(proj 2 (curve 2 (1 1 2)))", "n": -1}, {"expr": "(point 3)", "n": -1},
                {"expr": "(point 5)", "n": -1}, {"expr": "(point 7)", "n": -1}]
    path = write_manifest(tmp_path, manifest)
    runs, logs = [], []
    for cpus in (1, 2):
        log = tmp_path / f"started-{cpus}.log"
        log.write_text("")
        runs.append(_run_under_1gb([str(log), str(cpus), "batch", "--manifest", path, "--format", "json"],
                                   command=["-c", program]))
        logs.append(log.read_text().splitlines())
    for done in runs:
        assert done.returncode == 2 and "Traceback" not in done.stderr
        assert json.loads(done.stdout)["error"]["code"] == "out-of-memory"
    assert runs[0].stdout == runs[1].stdout
    assert [line for line in logs[1] if line.endswith(" (point 5)")][0] == "worker (point 5)"


def test_det_reads_one_cohomology_table(tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, detcomplex.cohomology)
    rng = random.Random(1701)
    for _ in range(10):
        data = complex_to_json_dict(random_torsion_complex(rng))
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(data))
        calls.clear()
        code, report = run_json(capsys, "det", str(path))
        assert code == 0
        degrees = [int(i) for i in data["ranks"]]
        assert len(calls) == max(degrees) - min(degrees) + 1 == len(report["cohomology"])


# ---------------------------------------------------------------------------
# error contract: exit 0, 1 or 2 for every input, never a traceback

FUZZ_ATOMS = [
    "(point 2)", "(point 3 2)", "(point 4)", "(curve 2 (1 0 2))", "(curve 3 (1 1 3))",
    "(curve 2 (2 1))", "(Q)", "(Qi)", "(numberring :conductor 5 :subgroup (1 4))",
    "(numberring :conductor 7 :subgroup (1))",
]
FUZZ_MALFORMED = [
    "(point 6)", "(point 2 0)", "(point 2", "(curve 2 (0 1))", "(curve 2 ())",
    "(numberring :conductor 6 :subgroup (2))", "(numberring :subgroup (1))", "(warp 3)", "()",
    "point", ")",
]
FUZZ_SHAPES = [
    "(disjoint {0} {1})", "(glue {0} {1})", "(minus {0} {1})", "(affine {2} {0})",
    "(proj {2} {1})", "(cellular {0} ({2} 1))", "(disjoint)", "(glue {0})", "(affine x {0})",
]
fuzz_expressions = st.recursive(
    st.sampled_from(FUZZ_ATOMS * 4 + FUZZ_MALFORMED),
    lambda kids: st.tuples(st.sampled_from(FUZZ_SHAPES), kids, kids, st.integers(-1, 2)).map(
        lambda t: t[0].format(t[1], t[2], t[3])
    ),
    max_leaves=4,
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=2), kids, max_size=3),
    max_leaves=8,
)
FUZZ = settings(deadline=None, max_examples=120, suppress_health_check=[HealthCheck.too_slow])


def contract_exit_code(argv, files=()) -> int:
    """Exit code of the CLI on argv, with each (name, JSON payload) of
    `files` written to a temporary file whose path replaces the name."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        for name, payload in files:
            path = Path(directory) / f"{name}.json"
            path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
            argv = [str(path) if a == name else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                pytest.fail(f"SystemExit({exc.code}) escaped main on {argv}")
    assert "Traceback" not in err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    # the base class's code `error` is not part of the documented contract
    assert "error [error]:" not in err.getvalue() and '"code": "error"' not in out.getvalue()
    return code


@st.composite
def expression_argv(draw):
    verb = draw(st.sampled_from(
        ["zeta", "ord", "value", "verify-c", "trace-check", "ell-check", "p-check"]
    ))
    argv = [verb, draw(fuzz_expressions)]
    n = draw(st.none() | st.integers(-4, -1) | st.integers(-1, 1))
    if n is not None:
        argv += ["-n", str(n)]
    if draw(st.booleans()):
        argv += ["--ell", str(draw(st.integers(-1, 8)))]
    if draw(st.booleans()):
        argv += ["--series-order", str(draw(st.integers(-1, 8)))]
    if verb == "value" and draw(st.booleans()):
        argv += ["--precision", str(draw(st.integers(-1, 30)))]
    return argv + draw(st.sampled_from([[], ["--format", "json"]]))


@FUZZ
@given(expression_argv())
def test_error_contract_expression_verbs(argv):
    contract_exit_code(argv)


@settings(FUZZ, max_examples=60)
@given(st.one_of(
    json_values,
    st.lists(st.fixed_dictionaries({"expr": fuzz_expressions, "n": st.integers(-3, 1)}), max_size=3),
))
def test_error_contract_manifests(manifest):
    contract_exit_code(["batch", "--manifest", "manifest", "--series-order", "6"], [("manifest", manifest)])


square = st.integers(0, 2).flatmap(
    lambda k: st.lists(st.lists(st.integers(-4, 4), min_size=k, max_size=k), max_size=2)
)


@FUZZ
@given(st.one_of(
    json_values,
    st.fixed_dictionaries({
        "ranks": st.dictionaries(st.sampled_from(["-1", "0", "1", "x"]), st.integers(-1, 2)),
        "differentials": st.dictionaries(st.sampled_from(["-1", "0", "1"]), square),
    }),
))
def test_error_contract_det_files(data):
    contract_exit_code(["det", "complex"], [("complex", data)])


# ---------------------------------------------------------------------------
# command-line reader: the same namespaces as the argparse parser it replaced


def ascii_int(text: str) -> int:
    """An integer option's value: ASCII digits after an optional minus."""
    if not (text.removeprefix("-").isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(text)
    return int(text)


def reference_parser() -> argparse.ArgumentParser:
    """An argparse tree of the command line; the reader must agree with it.
    Each verb's subparser holds its positional and only its own options,
    those without a default required."""
    parser = argparse.ArgumentParser(prog="zetaforge")
    sub = parser.add_subparsers(dest="verb", required=True)
    verbs = {
        "zeta": ("expression",), "ord": ("expression", "-n"), "value": ("expression", "-n", "--precision"),
        "verify-c": ("expression", "-n"), "trace-check": ("expression", "--series-order"),
        "ell-check": ("expression", "-n", "--ell"), "p-check": ("expression", "-n"), "det": ("file",),
        "batch": ("--manifest", "--series-order"),
    }
    options = {
        "-n": dict(type=ascii_int, required=True),
        "--precision": dict(type=ascii_int, default=DEFAULT_PRECISION),
        "--series-order": dict(type=ascii_int, default=10, dest="series_order"),
        "--ell": dict(type=ascii_int, required=True),
        "--manifest": dict(required=True),
    }
    for verb, arguments in verbs.items():
        p = sub.add_parser(verb)
        p.add_argument("--format", choices=("text", "json"), default="text")
        for name in arguments:
            p.add_argument(name, **options.get(name, {}))
    return parser


REFERENCE = reference_parser()
VERBS = ["zeta", "ord", "value", "verify-c", "trace-check", "ell-check", "p-check", "det", "batch"]
# weighted toward forms argparse accepts, so that both outcomes are common
OPTIONS = ["-n", "--format", "--series-order", "--ell"] * 3 + [
    "--precision", "--hodge", "--manifest", "--bogus"]
NOT_INTEGERS = ["x", "1.5", "-1.5", "", "-", "-x", "1 2", "-1 2", "2x", "+3", "1_0", " 2", "-\u0661", "\uff13"]
option_values = {
    "--format": st.sampled_from(["text", "json"] * 4 + ["xml", "-1", ""]),
    "--manifest": st.sampled_from(["m.json", "-2", "", "-x"]),
}
integer_values = st.one_of(
    st.integers(-(10**6), 10**6).map(str), st.integers(-9, 9).map(str), st.sampled_from(NOT_INTEGERS)
)


@st.composite
def option_tokens(draw):
    """One option as written on a command line, with its value if any."""
    name = draw(st.sampled_from(OPTIONS))
    value = draw(option_values.get(name, integer_values))
    # a long option shortened to a prefix; "--h" would name --help
    spelled = name if name == "-n" else name[: draw(st.integers(3, len(name)))]
    if spelled == "--h":
        spelled = name
    form = draw(st.sampled_from(["separate"] * 3 + ["equals"] * 2 + ["attached", "missing"]))
    if form == "separate":
        return [spelled, value]
    if form == "equals":
        return [f"{spelled}={value}"]
    if form == "attached":
        return [spelled + value]
    return [spelled]


@st.composite
def command_lines(draw):
    groups = [[draw(st.sampled_from(VERBS + ["frobnicate"]))]]
    positionals = st.sampled_from(["(point 2)", "complex.json", "-3", "", "-"])
    groups += [[p] for p in draw(st.lists(positionals, max_size=2))]
    groups += draw(st.lists(option_tokens(), max_size=3))
    # the verb comes first, except now and then to show that it must
    head = 1 if draw(st.integers(0, 9)) else 0
    groups = groups[:head] + draw(st.permutations(groups[head:]))
    return [token for group in groups for token in group]


def reference_reading(argv):
    """vars() of the argparse namespace, or None where argparse rejects argv."""
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        try:
            return vars(REFERENCE.parse_args(argv))
        except SystemExit as exc:
            assert exc.code == 2, (argv, exc.code)
            return None


def read_with_main(argv):
    """(exit code, stdout, stderr, dispatched namespace or None) of main on argv."""
    out, err, dispatched = io.StringIO(), io.StringIO(), []

    def record(args):
        dispatched.append(args)
        return {}, True

    with mock.patch.object(cli, "run_command", record), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), (vars(dispatched[0]) if dispatched else None)


def assert_usage_error(code, out, err):
    assert code == 2
    if out:
        assert json.loads(out)["error"]["code"] == "usage"
    else:
        assert err.startswith("error [usage]: ")


@settings(deadline=None, max_examples=400)
@given(command_lines())
def test_reader_agrees_with_argparse(argv):
    expected = reference_reading(argv)
    code, out, err, got = read_with_main(argv)
    if expected is None:
        assert_usage_error(code, out, err)
        assert got is None
        return
    assert code == 0 and got is not None, (argv, err)
    assert {k: got[k] for k in expected} == expected
    # every field is present; those argparse leaves out of this verb are None
    assert all(got[k] is None for k in got.keys() - expected.keys())


@pytest.mark.parametrize(
    "argv",
    [
        ["value", "-n", "-2", "--", "(Q)"],
        ["value", "--precision=50", "(Q)", "-n=-2", "--format", "text", "--format=json"],
        ["ell-check", "(Q)", "--e", "3", "-n-1", "--ell", "5", "--ell=7"],
        ["det", "complex.json", "--f", "json"],
        ["batch", "--m=manifest.json", "--series-order", "-4"],
        ["zeta", "-n 5"],  # a token with a space that names no option of the verb is a positional
        ["value", "(Q)", "-n", "007"],  # leading zeros, as in an expression
        ["zeta", "-5"],  # a negative number is a positional
    ],
)
def test_reader_examples_agree_with_argparse(argv):
    expected = reference_reading(argv)
    assert expected is not None
    assert {k: v for k, v in read_with_main(argv)[3].items() if k in expected} == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["value", "(Q)", "-n", "-2", "--", "-n", "-3"],
        ["frobnicate"],
        [],
        ["-n", "-2", "value", "(Q)"],
        ["zeta", "(Q)", "(Qi)"],
        ["det"],
        ["batch"],
        ["value", "(Q)", "-n"],
        ["value", "(Q)", "-n", "two"],
        ["value", "(Q)", "--format", "yaml"],
        ["zeta", "(Q)", "--precision", "30"],
        ["value", "(Q)", "--help=1"],
        # options another verb takes
        ["ord", "(Q)", "--s", "3", "-n-1", "--ell", "5", "--ell=7"],
        ["det", "-n", "-2", "complex.json", "--f", "json"],
        ["value", "(Q)", "-n 5"],  # -n with " 5", not an integer
        # the command line is read before the expression
        ["value", "(point"],
    ],
)
def test_malformed_command_lines_are_usage_errors(argv):
    assert reference_reading(argv) is None
    assert_usage_error(*read_with_main(argv)[:3])
    code, out, _, _ = read_with_main([*argv[:1], "--format", "json", *argv[1:]])
    assert code == 2 and json.loads(out)["error"]["code"] == "usage"


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["--help"], ["--he"], ["value", "-h"], ["det", "--h"], ["ord", "(Q)", "--hel"], ["ord", "--h"]],
)
def test_help_prints_one_usage_block(argv):
    code, out, err, dispatched = read_with_main(argv)
    assert code == 0 and dispatched is None and err == ""
    assert out.startswith("usage: zetaforge VERB") and out.count("usage:") == 1


def test_the_cli_loads_no_argparse_or_gettext():
    # building argparse's tree was most of a small op's cost; keep it out
    src = str(Path(zetaforge.__file__).parent.parent)
    script = (
        "import json, sys, tempfile\n"
        "import zetaforge.cli as cli\n"
        "path = tempfile.mkstemp(suffix='.json')[1]\n"
        "open(path, 'w').write(json.dumps({'ranks': {'0': 1, '1': 1}, 'differentials': {'0': [[5]]}}))\n"
        "assert cli.main(['det', path, '--format', 'json']) == 0\n"
        "print(sorted(m for m in ('argparse', 'gettext') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
