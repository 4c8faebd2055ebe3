"""Run one workload's jobs in passes, in a fresh interpreter.

    python3 perfbench/worker.py PLAN.json RESULT.json

run.py writes the plan (the jobs, how long to measure, whether to trace)
and reads the result: per pass its wall time, and per job its latency, exit
code and output digest, and the host-speed samples taken between jobs
(see speed.py); the full outputs of the first measured pass, for
checking; the process's peak RSS; and, when tracing, the per-pass span
totals and the oracle call counts.  Spans go to the file the plan names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed
import tracing
from boolrep import cli
from boolrep.sbool import SbMatrix


def _matrix(job) -> SbMatrix:
    return SbMatrix.from_csv(Path(job["args"][0]).read_text())


def _execute(job):
    """(exit code, stdout text, certificate) of one job."""
    kind = job["kind"]
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job["args"])
        return rc, out.getvalue(), None
    matrix = _matrix(job)
    if kind == "permanent":
        return 0, matrix.permanent().token + "\n", None
    if kind == "nonsingular":
        nonsingular = matrix.is_nonsingular()
        orders = matrix.triangular_form()
        answer = "nonsingular\n" if nonsingular else "singular\n"
        return 0, answer, None if orders is None else [list(orders[0]), list(orders[1])]
    if kind == "witness":
        found = [matrix.witness(cols) for cols in job["sets"]]
        answer = "".join("0" if rows is None else "1" for rows in found) + "\n"
        return 0, answer, [None if rows is None else list(rows) for rows in found]
    raise ValueError(f"unknown job kind {kind!r}")


def _run_job(job):
    try:
        return _execute(job)
    except Exception:  # a crashing job is a failed job, and the pass goes on
        return -1, traceback.format_exc(), None


def _record(mode: str) -> dict:
    return {"mode": mode, "lat": [], "rc": [], "digest": [], "speed": [], "wall": 0.0}


def _timed(job, record, outputs=None):
    t = perf_counter()
    rc, out, cert = _run_job(job)
    latency = perf_counter() - t
    record["lat"].append(latency)
    record["rc"].append(rc)
    record["digest"].append(hashlib.sha256(out.encode()).hexdigest())
    if outputs is not None:
        outputs.append({"out": out, "cert": cert})
    return latency


def run_pass(jobs, mode: str, outputs=None):
    record = _record(mode)
    start = perf_counter()
    for job in jobs:
        record["speed"].append(speed.sample())
        _timed(job, record, outputs)
    record["speed"].append(speed.sample())
    record["wall"] = perf_counter() - start
    return record


def run_paired_pass(jobs, tracer, flip: bool, outputs=None):
    """Each job twice, untraced and traced, back to back and in alternating
    order, so that drift in the machine's speed cancels out of the tracing
    overhead.  A side's wall time is the sum of its job latencies."""
    plain, traced = _record("plain"), _record("traced")
    for i, job in enumerate(jobs):
        for with_trace in ((False, True) if (i % 2) == flip else (True, False)):
            if not with_trace:
                plain["wall"] += _timed(job, plain, outputs)
                continue
            tracer.job = job["id"]
            undo = tracing.install(tracer)
            try:
                traced["wall"] += _timed(job, traced)
            finally:
                tracing.uninstall(undo)
    return plain, traced


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    jobs = plan["jobs"]
    for job in jobs:
        if job["warm"]:
            _run_job(job)

    outputs = []
    tracers = []
    counts = {}
    if not plan["trace"]:
        passes = [run_pass(jobs, "plain", outputs)]
        elapsed = passes[0]["wall"]
        # Another pass only if it should end within the run's seconds, so a
        # slow spell on the machine costs passes, not run time.
        while (
            elapsed + elapsed / len(passes) <= plan["seconds"]
            or len(passes) < plan["min_passes"]
            or len(passes) * len(jobs) < plan["min_samples"]
        ):
            passes.append(run_pass(jobs, "plain"))
            elapsed += passes[-1]["wall"]
    else:
        passes = []
        elapsed = 0.0
        while not tracers or elapsed + elapsed / len(tracers) <= plan["seconds"]:
            tracers.append(tracing.Tracer())
            plain, traced = run_paired_pass(
                jobs, tracers[-1], flip=len(tracers) % 2 == 0,
                outputs=outputs if len(tracers) == 1 else None,
            )
            passes += [plain, traced]
            elapsed += plain["wall"] + traced["wall"]
        undo = tracing.install_counters(counts)
        try:
            passes.append(run_pass(jobs, "counted"))
        finally:
            tracing.uninstall(undo)
        with open(plan["spans"], "w") as out:
            for index, tracer in enumerate(tracers):
                for span in tracer.records():
                    span["pass"] = index
                    out.write(json.dumps(span) + "\n")

    result = {
        "passes": passes,
        "first": outputs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": [{"totals": t.totals, "counters": t.counters} for t in tracers],
        "counts": counts,
    }
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
