"""Independent correctness checks of each op's JSON report.

Every check compares the report against the generator's own model or the
oracle in `oracle.py`; none of them calls into the zetaforge library.
"""

from __future__ import annotations

import json

from . import oracle


def check_numfield(op: dict, report: dict, dedekind: oracle.DedekindOracle) -> str | None:
    return oracle.check_value_report(report, op["check"], dedekind)


def _check_finite_entry(entry: dict, model: dict, K: int) -> str | None:
    claims = {c["claim"]: c for c in entry["checks"]}
    expected = {"special-value-finite-char", "p-part-triviality", "grothendieck-trace-formula", "vanishing-order"}
    if model["graded"]:
        expected.add("ell-adic-absolute-value")
    if not expected <= set(claims):
        return f"missing checks {sorted(expected - set(claims))}"
    trace = claims["grothendieck-trace-formula"]["context"]
    if trace["K"] != str(K):
        return f"trace formula ran to K = {trace['K']}, expected {K}"
    if trace["point_counts"] != [str(c) for c in model["counts"][1:]]:
        return "point counts differ from the generator's count model"
    order = claims["vanishing-order"]
    if (order["left"], order["right"]) != ("0", "0"):
        return "finite-characteristic entry with a nonzero vanishing order"
    return None


def _check_number_ring_entry(entry: dict, model: dict, n: int) -> str | None:
    claims = [c for c in entry["checks"] if c["claim"] == "vanishing-order"]
    if len(claims) != 1:
        return "expected exactly one vanishing-order check"
    expected = str(oracle.signature_order(model["f"], model["subgroup"], n - model["shift"]))
    if (claims[0]["left"], claims[0]["right"]) != (expected, expected):
        return f"vanishing order {claims[0]['left']}/{claims[0]['right']} != signature formula {expected}"
    return None


def check_mixed(op: dict, report: dict) -> str | None:
    spec = op["check"]
    if report.get("command") != "batch" or report.get("pass") is not True:
        return "batch report did not pass"
    entries = report.get("entries", [])
    if len(entries) != len(spec["entries"]):
        return f"{len(entries)} entries reported for {len(spec['entries'])} submitted"
    for i, (entry, submitted, model) in enumerate(zip(entries, spec["entries"], spec["checks"])):
        if entry["expression"] != submitted["expr"] or entry["n"] != submitted["n"]:
            return f"entry {i} echoes {entry['expression']} at n = {entry['n']}"
        if entry.get("pass") is not True or any(c["verdict"] != "pass" for c in entry["checks"]):
            return f"entry {i} did not pass"
        if model["kind"] == "finite":
            why = _check_finite_entry(entry, model, spec["K"])
        else:
            why = _check_number_ring_entry(entry, model, submitted["n"])
        if why:
            return f"entry {i}: {why}"
    return None


def check_snf(op: dict, report: dict) -> str | None:
    model = op["check"]
    if report.get("command") != "det" or report.get("pass") is not True:
        return "det report did not pass"
    for key in ("grade", "ideal", "cohomology"):
        if report.get(key) != model[key]:
            return f"{key} {json.dumps(report.get(key))[:200]} != split model {json.dumps(model[key])[:200]}"
    return None


def check(workload: str, op: dict, result: dict, dedekind: oracle.DedekindOracle) -> str | None:
    """None when the op's result is correct, otherwise the reason."""
    if result["rc"] != 0:
        return f"exit status {result['rc']}: {result['stderr'][-300:]}"
    try:
        report = json.loads(result["stdout"])
    except json.JSONDecodeError:
        return "output is not JSON"
    if workload == "numfield_values":
        return check_numfield(op, report, dedekind)
    if workload == "mixed_batch":
        return check_mixed(op, report)
    return check_snf(op, report)
