"""Runs benchmark ops, each in a fresh fork of a process that has only
imported `zetaforge.cli`.

Protocol: one JSON request per line on stdin,
    {"id": 3, "argv": [...], "trace": false}   or   {"id": 4, "calibrate": true}
and one JSON result per line on stdout,
    {"id": 3, "rc": 0, "latency_s": 0.41, "stdout": "...", "stderr": "...",
     "maxrss_kb": 51234, "trace": {...} | null}
    {"id": 4, "calibration_s": 0.015, "maxrss_kb": ...}
An empty line or EOF ends the server.  Every op process is waited for
before its result is sent.

The op's latency is timed inside the op process around `cli.main(argv)`.
A traced op installs the span recorder first (outside the timed region);
see `tracing.py`.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
import traceback

import zetaforge.cli as cli

# for the benchmark's own modules, imported only inside op processes
sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _run_op(request: dict) -> dict:
    if request.get("calibrate"):
        from perfbench import calibration

        return {"id": request["id"], "calibration_s": calibration.calibrate()}
    recorder = None
    if request.get("trace"):
        from perfbench import tracing

        recorder = tracing.Recorder(op_id=request["id"])
        tracing.install(recorder)
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    rc = None
    start = time.perf_counter()
    try:
        rc = cli.main(request["argv"])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an escaping exception is a failed op, reported as such
        err.write(traceback.format_exc())
        rc = "exception"
    latency = time.perf_counter() - start
    sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    return {
        "id": request["id"],
        "rc": rc,
        "latency_s": latency,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-4000:],
        "trace": recorder.export() if recorder else None,
    }


def serve(requests, replies) -> None:
    for line in requests:
        if not line.strip():
            break
        request = json.loads(line)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            try:
                payload = json.dumps(_run_op(request)).encode()
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(payload)
            finally:
                os._exit(0)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            payload = pipe.read()
        _, status, usage = os.wait4(pid, 0)
        if payload:
            result = json.loads(payload)
        else:
            result = {"id": request["id"], "rc": "crashed", "latency_s": 0.0, "stdout": "",
                      "stderr": f"op process ended with status {status}", "trace": None}
        result["maxrss_kb"] = usage.ru_maxrss
        replies.write(json.dumps(result) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
