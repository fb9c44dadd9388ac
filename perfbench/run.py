"""End-to-end benchmark of the zetaforge CLI.

    python3 perfbench/run.py --workload numfield_values --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The workloads (see
`workloads.py`) are `numfield_values`, `mixed_batch` and `snf_complexes`.

Load model: a closed loop with one client.  Each op is forked from a server
process that has only imported `zetaforge.cli`, so every op sees the state
of a fresh CLI process and no op overlaps another.  A pass runs the seed's
fixed op list once; a run makes as many passes as fit the `--seconds`
budget at the workload's nominal pass time (at least one).

Times are reported at a reference machine speed: a fixed calibration
computation (`calibration.py`) runs between ops in the same kind of forked
process, and each measured time is multiplied by REFERENCE_S over the local
calibration time, which removes most of the host's speed drift.  The
unscaled pass walls are printed too.

`--trace 0` reports the end-to-end metrics, `--trace 1` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (medians over passes) plus the tracing overhead.  Every op's output is
checked by `checks.py` after the timed passes; the last line of stdout is a
JSON object with `correct`, `attempted`, `failed` and `metrics`.  Per-op
records go to `perfbench/out/`, spans of the first traced pass to a gzip
JSON-lines file there.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import calibration, checks, oracle, tracing, workloads  # noqa: E402

SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
# nominal seconds per pass on a 2-core machine; sets the number of passes
NOMINAL_PASS_S = {"numfield_values": 11.0, "mixed_batch": 11.5, "snf_complexes": 6.0}
SETUP_INTERPRETERS = 7
# a calibration runs before an op when the last one is this many seconds old
CALIBRATE_EVERY_S = 0.3

END_TO_END_UNITS = {
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
ANCHOR_COUNTS = ("lfunctions.mp_zeta", "lfunctions.gen_bernoulli")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("ZETAFORGE_PRECISION", None)
    return env


def measure_setup(server) -> list[dict]:
    """Import time of zetaforge.cli in fresh interpreters (after one warm-up),
    each with the speed factor of the calibrations just before and after it."""
    code = "import time; t = time.perf_counter(); import zetaforge.cli; print(time.perf_counter() - t)"
    samples = []
    before = None
    for i in range(SETUP_INTERPRETERS + 1):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=_env(), capture_output=True, text=True, check=True
        )
        after = server.calibrate()
        if i:
            seconds = float(out.stdout.strip().splitlines()[-1])
            samples.append({"import_s": seconds, "speed": 2 * calibration.REFERENCE_S / (before + after)})
        before = after
    return samples


class ForkServer:
    """The op runner (`forkserver.py`) as a child process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "forkserver.py")],
            cwd=ROOT,
            env=_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, op_id: int, argv: list[str], trace: bool) -> dict:
        self.proc.stdin.write(json.dumps({"id": op_id, "argv": argv, "trace": trace}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the op server ended unexpectedly")
        return json.loads(line)

    def calibrate(self) -> float:
        self.proc.stdin.write(json.dumps({"id": -1, "calibrate": True}) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())["calibration_s"]

    def close(self):
        try:
            self.proc.stdin.write("\n")
            self.proc.stdin.close()
        finally:
            self.proc.wait(timeout=60)


def run_pass(server: ForkServer, ops: list[dict], trace: bool) -> dict:
    """Run the op list once, with calibrations interleaved.

    Each result gets `roundtrip_s` (time to run the op, as seen by this
    process) and `speed`, the factor REFERENCE_S / calibration time, with the
    calibration averaged over the points just before and just after the op.
    The pass wall time counts op round trips only, not the calibrations.
    """
    results, points = [], []  # points: (index of the next op, calibration seconds)
    last = -math.inf
    for i, op in enumerate(ops):
        if time.perf_counter() - last >= CALIBRATE_EVERY_S:
            points.append((i, server.calibrate()))
            last = time.perf_counter()
        start = time.perf_counter()
        result = server.run(i, op["argv"], trace)
        result["roundtrip_s"] = time.perf_counter() - start
        results.append(result)
    points.append((len(ops), server.calibrate()))
    for i, result in enumerate(results):
        before = [c for j, c in points if j <= i][-1]
        after = next(c for j, c in points if j > i)
        result["speed"] = 2 * calibration.REFERENCE_S / (before + after)
    return {
        "trace": trace,
        "wall_s": sum(r["roundtrip_s"] * r["speed"] for r in results),
        "raw_wall_s": sum(r["roundtrip_s"] for r in results),
        "results": results,
    }


def scaled_latency(result: dict) -> float:
    return result["latency_s"] * result["speed"]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def loglog_slope(points) -> float | None:
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    if len(set(xs)) < 3:
        return None
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def print_curves(workload: str, ops: list[dict], op_latency: list[float]) -> None:
    """Per-axis latency curves (median op latency per axis value)."""
    axes = sorted({a for op in ops for a in op["axes"]})
    for axis in axes:
        groups: dict = {}
        for op, latency in zip(ops, op_latency):
            groups.setdefault(op["axes"][axis], []).append(latency)
        points = " ".join(f"{value}:{statistics.median(v):.4f}" for value, v in sorted(groups.items()))
        print(f"curve {workload} latency_s by {axis}: {points}")
    if workload == "numfield_values":
        by_setting: dict = {}
        for op, latency in zip(ops, op_latency):
            a = op["axes"]
            by_setting.setdefault((a["kind"], a["abs_n"], a["precision"]), []).append((a["f"], latency))
        for (kind, abs_n, precision), points in sorted(by_setting.items()):
            slope = loglog_slope(points)
            if slope is not None:
                print(f"slope {workload} log latency / log f at {kind} n=-{abs_n} precision={precision}: "
                      f"{slope:.3f} over f={sorted(f for f, _ in points)}")


def count_failures(workload: str, ops: list[dict], runs: list[dict]) -> tuple[list, int]:
    """(reason or None per op, failed op executions).

    The first pass is checked against the independent models; every later
    pass must reproduce its output exactly.
    """
    dedekind = oracle.DedekindOracle()
    first = runs[0]["results"]
    reasons = [checks.check(workload, op, r, dedekind) for op, r in zip(ops, first)]
    failed = sum(
        bool(reasons[i] or r["stdout"] != first[i]["stdout"]) for run in runs for i, r in enumerate(run["results"])
    )
    return reasons, failed


def end_to_end_metrics(untraced: list[dict], setup: list[dict]) -> dict:
    latencies = [scaled_latency(r) for run in untraced for r in run["results"]]
    values = {
        "wall_s": statistics.median(run["wall_s"] for run in untraced),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail(latencies)[0],
        "setup_s": statistics.median(x["import_s"] * x["speed"] for x in setup),
        "peak_rss_mb": max(r["maxrss_kb"] for run in untraced for r in run["results"]) / 1024,
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def per_layer_metrics(ops: list[dict], traced: list[dict], untraced: list[dict]) -> dict:
    """Medians over traced passes, the tracing overhead and the anchor counts.

    Times are scaled by each pass's median speed factor.
    """
    pass_metrics = []
    for run in traced:
        speed = statistics.median(r["speed"] for r in run["results"])
        metrics = tracing.layer_metrics([r["trace"] for r in run["results"]])
        pass_metrics.append({k: v * speed if unit_of(k) == "s" else v for k, v in metrics.items()})
    metrics = {name: statistics.median(m[name] for m in pass_metrics) for name in pass_metrics[0]}
    traced_latency = statistics.median(sum(map(scaled_latency, run["results"])) for run in traced)
    untraced_latency = statistics.median(sum(map(scaled_latency, run["results"])) for run in untraced)
    metrics["trace.overhead_ratio"] = traced_latency / untraced_latency
    anchors = [i for i, op in enumerate(ops) if op["anchor"]]
    counts = tracing.op_counts(traced[0]["results"][anchors[0]]["trace"]) if anchors else {}
    for name in ANCHOR_COUNTS:
        metrics[f"anchor.{name}.calls"] = counts.get(name, 0)
    return {name: {"value": v, "unit": unit_of(name)} for name, v in sorted(metrics.items())}


def write_spans(path: str, results: list[dict]) -> None:
    with gzip.open(path, "wt", compresslevel=1) as handle:
        for r in results:
            for name, start, end, parent, error in r["trace"]["spans"]:
                record = {"op": r["id"], "name": name, "start": start, "end": end, "parent": parent, "error": error}
                handle.write(json.dumps(record) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "zetaforge", "cli.py")):
        print(f"no zetaforge sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    workdir = os.path.join("perfbench", "out", "work", f"{args.workload}-{args.seed}")
    os.makedirs(os.path.join(ROOT, workdir), exist_ok=True)
    ops = workloads.generate(args.workload, args.seed, workdir)
    for op in ops:
        for path, text in op["files"].items():
            with open(os.path.join(ROOT, path), "w", encoding="utf-8") as handle:
                handle.write(text)

    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    plan = [bool(i % 2) for i in range(max(2, passes))] if args.trace else [False] * passes
    server = ForkServer()
    try:
        setup = [] if args.trace else measure_setup(server)
        runs = [run_pass(server, ops, trace) for trace in plan]
    finally:
        server.close()
    untraced = [run for run in runs if not run["trace"]]
    traced = [run for run in runs if run["trace"]]

    reasons, failed = count_failures(args.workload, ops, runs)
    attempted = len(ops) * len(runs)
    for i, why in enumerate(reasons):
        if why:
            print(f"FAILED op {i} {ops[i]['argv'][:2]}: {why}")
    latencies = [scaled_latency(r) for run in untraced for r in run["results"]]
    op_latency = [statistics.median(scaled_latency(run["results"][i]) for run in untraced) for i in range(len(ops))]
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per pass, "
          f"{len(untraced)} untraced and {len(traced)} traced passes, {attempted} ops attempted, {failed} failed "
          f"(fail_ratio {failed / attempted:.4f})")
    print(f"latency tail percentile: p{tail(latencies)[1]:.1f} of {len(latencies)} op latencies")
    speeds = [r["speed"] for run in runs for r in run["results"]]
    raw_walls = ", ".join(f"{run['raw_wall_s']:.3f}" for run in runs)
    print(f"speed factor (reference / calibration): median {statistics.median(speeds):.3f}, "
          f"range {min(speeds):.3f}-{max(speeds):.3f}; unscaled pass walls {raw_walls} s")
    if args.workload == "mixed_batch":
        shares = [workloads.repeated_atom_share(op["check"]["checks"]) for op in ops]
        print(f"entries repeating an atom of an earlier entry: {statistics.fmean(shares):.3f}")
    print_curves(args.workload, ops, op_latency)

    if args.trace:
        metrics = per_layer_metrics(ops, traced, untraced)
        write_spans(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl.gz"), traced[0]["results"])
    else:
        metrics = end_to_end_metrics(untraced, setup)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup": setup,
        "tail_percentile": tail(latencies)[1],
        "passes": [{"trace": run["trace"], "wall_s": run["wall_s"], "raw_wall_s": run["raw_wall_s"]} for run in runs],
        "ops": [
            {
                "argv": op["argv"],
                "axes": op["axes"],
                "latency_s": [run["results"][i]["latency_s"] for run in runs],
                "speed": [run["results"][i]["speed"] for run in runs],
                "maxrss_kb": [run["results"][i]["maxrss_kb"] for run in runs],
                "failure": reasons[i],
            }
            for i, op in enumerate(ops)
        ],
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as handle:
        json.dump(record, handle, indent=1)

    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith(("self_s", ".s")):
        return "s"
    if name.endswith("ratio") or name.endswith("per_character"):
        return "ratio"
    if name.endswith("digits"):
        return "digits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
