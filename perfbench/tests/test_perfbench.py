"""Tests of the benchmark itself: generators, oracle, span arithmetic, and
the default-seed op lists against the program.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import types
from fractions import Fraction

import mpmath as mp
import pytest

from perfbench import calibration, oracle, tracing, workloads
from perfbench import run as run_module
from perfbench.run import ForkServer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7, "w")
    again = workloads.generate(workload, 7, "w")
    other = workloads.generate(workload, 8, "w")
    strip = lambda ops: [(op["argv"], op["files"], op["check"]) for op in ops]  # noqa: E731
    assert strip(first) == strip(again)
    assert strip(first) != strip(other)


def test_numfield_ops_include_the_anchor():
    for seed in (1, 2, 3):
        anchors = [op for op in workloads.numfield_ops(seed) if op["anchor"]]
        assert [op["check"] for op in anchors] == [{"f": 61, "subgroup": [1], "n": -2, "precision": 50}]


@pytest.mark.parametrize(
    "f, generators, n, expected",
    [
        (1, [1], -1, Fraction(-1, 12)),  # zeta(-1)
        (1, [1], -3, Fraction(1, 120)),  # zeta(-3)
        (5, [4], -1, Fraction(1, 30)),  # zeta of Q(sqrt 5) at -1
    ],
)
def test_oracle_reproduces_known_values(f, generators, n, expected):
    subgroup = oracle.subgroup_closure(f, generators)
    order, value, imag = oracle.DedekindOracle().value(f, subgroup, n, 40)
    assert order == 0 == oracle.signature_order(f, subgroup, n)
    with mp.workdps(40):
        assert abs(value - mp.mpf(expected.numerator) / expected.denominator) < mp.mpf(10) ** -35
        assert abs(imag) < mp.mpf(10) ** -35


def test_oracle_character_count_is_the_field_degree():
    for f in range(1, 80):
        chars = oracle.characters_trivial_on(f, [1])
        assert len(chars) == len(oracle.units(f))
        assert len({tuple(sorted(c.theta.items())) for c in chars}) == len(chars)


def test_invariant_factors_of_split_torsion():
    assert oracle.invariant_factors([2, 4, 3]) == [2, 12]
    assert oracle.invariant_factors([6, 10, 15]) == [30, 30]
    assert oracle.invariant_factors([]) == []


def test_self_time_of_a_synthetic_nested_call():
    # a [0, 10] calls b [1, 4] (which calls c [2, 3]) and b again [5, 9],
    # and the second b recurses into b [6, 8]
    spans = [
        ["m.a", 0.0, 10.0, -1, False],
        ["m.b", 1.0, 4.0, 0, False],
        ["m.c", 2.0, 3.0, 1, False],
        ["m.b", 5.0, 9.0, 0, True],
        ["m.b", 6.0, 8.0, 3, False],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 2.0, 2.0]
    assert tracing.top_level_indices(spans) == [0, 1, 2, 3]
    stats = tracing.function_stats([{"spans": spans}])
    assert (stats["m.b"].calls, stats["m.b"].nodes, stats["m.b"].errors) == (2, 3, 1)
    assert stats["m.b"].self_s == 6.0
    assert stats["m.b"].total_s == 3.0 + 4.0 + 2.0


def test_recorder_links_parents_and_flags_errors(monkeypatch):
    ticks = itertools.count()
    monkeypatch.setattr(tracing, "time", types.SimpleNamespace(perf_counter=lambda: float(next(ticks))))
    rec = tracing.Recorder(op_id=0)

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner_t = rec.wrap("m.inner", inner)

    def outer(x):
        try:
            inner_t(-1)
        except ValueError:
            pass
        return inner_t(x)

    outer_t = rec.wrap("m.outer", outer)
    assert outer_t(3) == 3
    names = [(s[0], s[3], s[4]) for s in rec.spans]
    assert names == [("m.outer", -1, False), ("m.inner", 0, True), ("m.inner", 0, False)]
    assert tracing.self_times(rec.spans) == [3.0, 1.0, 1.0]


def test_run_pass_scales_each_op_by_the_neighbouring_calibrations(monkeypatch):
    class FakeServer:
        calibrations = iter([0.01, 0.03, 0.02])

        def calibrate(self):
            return next(self.calibrations)

        def run(self, op_id, argv, trace):
            return {"id": op_id, "latency_s": 1.0}

    monkeypatch.setattr(run_module, "CALIBRATE_EVERY_S", 0.0)
    result = run_module.run_pass(FakeServer(), [{"argv": []}, {"argv": []}], trace=False)
    ref = calibration.REFERENCE_S
    speeds = [r["speed"] for r in result["results"]]
    assert speeds == pytest.approx([ref / 0.02, ref / 0.025])
    assert [run_module.scaled_latency(r) for r in result["results"]] == pytest.approx(speeds)


def _run_benchmark(workload, trace=0):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_default_seed_ops_pass_every_check(workload):
    result = _run_benchmark(workload)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = _run_benchmark("snf_complexes", trace=1)
    assert result["correct"] is True
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _declared("per_layer")
    assert result["metrics"]["intlinalg.smith_normal_form.calls"]["value"] > 0


def test_anchor_profile_counts():
    """Q(zeta_61) at n = -2, precision 50: the profile recorded in ROADMAP.

    These are counts of the program's work, so a change that shares
    Hurwitz evaluations or exact L-values is expected to move them.
    """
    anchor = next(op for op in workloads.numfield_ops(1) if op["anchor"])
    server = ForkServer()
    try:
        result = server.run(0, anchor["argv"], trace=True)
    finally:
        server.close()
    assert result["rc"] == 0
    counts = tracing.op_counts(result["trace"])
    assert counts["lfunctions.mp_zeta"] == 1741
    assert counts["lfunctions.gen_bernoulli"] == 150


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "snf_complexes", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
