"""The boolrep benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Workloads: pipeline, reduce, kernels (see README.md for why each exists).
The run writes its inputs, times `import boolrep.cli` in fresh interpreters
(`setup_s`), then runs the jobs in passes in one fresh worker interpreter:
a single caller in a closed loop, one job after another.  Every job's
output is checked, on every pass.  With `--trace 0` it reports the
end-to-end metrics, in seconds at a fixed reference speed of the host,
which is sampled between jobs (see speed.py); with `--trace 1` it
alternates traced and plain passes, adds one pass that counts rank-oracle
calls, and reports the per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --record

re-records expected.json, the exit code and output digest of every job
whose input does not depend on the seed.  Run it only at a commit whose
outputs are known good: it refuses if any output fails its reference check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import jobs as joblib
import speed

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"

SETUP_RUNS = 15
# The median of three passes shrugs off one pass caught in a slow spell.
MIN_PASSES = 3
# At least ten samples beyond the 90th percentile.
MIN_SAMPLES = 100
WORKER_TIMEOUT_S = 150

# Prints the import time, then host-speed samples taken just before it.
# Samples taken after it would run on the grown heap and cache of the import.
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, {bench!r}); import speed; "
    "before = [speed.sample() for _ in range(5)]; "
    "t = time.perf_counter(); import boolrep.cli; "
    "print(time.perf_counter() - t, *before)"
)

# Per-layer metric -> spans whose self time it sums, in ms per pass.
LAYER_TIMES = {
    "matroid.load_ms": ("matroid.load",),
    "matroid.flats_ms": ("matroid.flats",),
    "matroid.hereditary_ms": ("matroid.hereditary",),
    "lattice.build_ms": ("lattice.build",),
    "extraction.extract_ms": ("extraction.extract",),
    "extraction.paper_ms": ("extraction.paper",),
    "extraction.verified_ms": ("extraction.verified",),
    "extraction.verify_ms": ("extraction.verify",),
    "sbool.colind_ms": ("sbool.colind",),
    "sbool.rank_ms": ("sbool.rank",),
    "sbool.permanent_ms": ("sbool.permanent",),
    "sbool.eliminate_ms": ("sbool.eliminate",),
    "sbool.witness_ms": ("sbool.witness",),
    "sbool.csv_ms": ("sbool.csv",),
    "partitions.chains_ms": ("partitions.chains",),
    "cli.self_ms": ("cli.main",),
}
# Per-layer metric -> counter it reports per pass, or else the span whose
# calls it counts.
LAYER_COUNTS = {
    "matroid.hereditary_calls": "matroid.hereditary",
    "sbool.colind_calls": "sbool.colind",
    "lattice.flats": "lattice.flats",
    "extraction.subsets_checked": "extraction.subsets_checked",
    "extraction.mismatches": "extraction.mismatches",
    "partitions.chains": "partitions.chains",
}
# Per-layer ratio -> (numerator, denominator), each counted as above.
LAYER_RATIOS = {
    "extraction.rows_kept_ratio": ("extraction.rows_out", "extraction.rows_in"),
    "sbool.colind_indep_ratio": ("sbool.colind_indep", "sbool.colind"),
}
COUNTED = ("matroid.rank_calls", "matroid.closure_calls")

# The layers each workload is built to load, as shares of traced time.
PURPOSE = {
    "pipeline": (("matroid.",), 0.5),
    "reduce": (("matroid.hereditary", "sbool.colind"), 0.5),
    "kernels": (("sbool.",), 0.9),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=joblib.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="catalog rungs only, one pass: checks the harness, not speed")
    parser.add_argument("--record", action="store_true",
                        help="re-record expected.json from the current outputs")
    args = parser.parse_args()
    if not (ROOT / "src" / "boolrep" / "cli.py").is_file():
        print(f"error: no boolrep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        setup_s = None if args.trace else measure_setup()
        jobs = joblib.build(args.workload, args.seed, work, ROOT, args.smoke)
        spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        result = run_worker(
            jobs, work, seconds=0 if args.smoke else args.seconds, trace=args.trace,
            min_passes=1 if args.smoke else MIN_PASSES,
            min_samples=0 if args.smoke else MIN_SAMPLES, spans=spans,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        return 1

    failures, attempted, failed = check(jobs, result, json.loads(EXPECTED.read_text()))
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(args.workload, result)
    else:
        metrics = end_to_end(result, setup_s)
    print(f"workload {args.workload}: {len(jobs)} jobs per pass, "
          f"{len(result['passes'])} passes, {failed} of {attempted} job runs failed")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup() -> float:
    """Median time to import boolrep.cli in a fresh interpreter, at the
    reference speed, after one import that writes the bytecode cache."""
    cmd = [sys.executable, "-c", SETUP_CODE.format(bench=str(BENCH))]
    times = []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=60)
        took, *samples = map(float, done.stdout.split())
        times.append(took * speed.REFERENCE_S / statistics.median(samples))
    return statistics.median(times[1:])


def run_worker(jobs, work: Path, *, seconds, trace, min_passes, min_samples, spans):
    plan = work / "plan.json"
    result = work / "result.json"
    plan.write_text(json.dumps({
        "jobs": [job.spec() for job in jobs], "seconds": seconds, "trace": trace,
        "min_passes": min_passes, "min_samples": min_samples, "spans": str(spans),
    }))
    cmd = [sys.executable, str(BENCH / "worker.py"), str(plan), str(result)]
    try:
        done = subprocess.run(cmd, env=_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker ran past {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"error: worker exited {done.returncode}", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def check(jobs, result, recorded, record_mode=False):
    """Check the first pass against the references and the recorded
    digests, then every pass against the first.  Returns (failure lines,
    job runs attempted, job runs failed)."""
    passes = result["passes"]
    first = passes[0]
    failures = []
    good = []
    for i, job in enumerate(jobs):
        rc, digest = first["rc"][i], first["digest"][i]
        output = result["first"][i]
        reason = job.check(rc, output["out"], output["cert"])
        if reason is None and job.fixed and not record_mode:
            want = recorded.get(job.id)
            if want is None:
                reason = "no digest recorded"
            elif want != [rc, digest]:
                reason = "exit code or output differs from the recorded digest"
        good.append(None if reason else (rc, digest))
        if reason:
            failures.append(f"{job.id}: {reason}")
    attempted = failed = 0
    for record in passes:
        for i, want in enumerate(good):
            attempted += 1
            failed += want is None or (record["rc"][i], record["digest"][i]) != want
    return failures, attempted, failed


def end_to_end(result, setup_s: float) -> dict:
    """Times at the reference speed.  A pass's wall time is the sum of its
    scaled job latencies, which leaves out the speed samples between jobs."""
    passes = [speed.scale(p["lat"], p["speed"]) for p in result["passes"]]
    latencies = sorted(1000 * t for p in passes for t in p)
    deciles = statistics.quantiles(latencies, n=10)
    raw_wall = statistics.median(sum(p["lat"]) for p in result["passes"])
    print(f"  job latency samples: {len(latencies)}; unscaled median pass: {raw_wall:.4g} s")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(sum(p) for p in passes), "unit": "s"},
        "job_ms_p50": {"value": statistics.median(latencies), "unit": "ms"},
        "job_ms_p90": {"value": deciles[8], "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
    }


def _count(layer, name: str) -> int:
    """A counter of the traced pass, or else how many spans had that name."""
    return layer["counters"].get(name, layer["totals"].get(name, (0,))[0])


def _pass_layers(layer) -> dict:
    values = {}
    for metric, names in LAYER_TIMES.items():
        values[metric] = sum(layer["totals"].get(n, (0, 0, 0))[2] for n in names) / 1e6
    for metric, name in LAYER_COUNTS.items():
        values[metric] = _count(layer, name)
    for metric, (top, base) in LAYER_RATIOS.items():
        denominator = _count(layer, base)
        values[metric] = _count(layer, top) / denominator if denominator else 0.0
    return values


def layer_metrics(workload: str, result) -> dict:
    passes = result["passes"]
    traced = [p["wall"] for p in passes if p["mode"] == "traced"]
    plain = [p["wall"] for p in passes if p["mode"] == "plain"]
    per_pass = [_pass_layers(layer) for layer in result["layers"]]
    metrics = {}
    for name in per_pass[0]:
        unit = "ms" if name.endswith("_ms") else "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = {"value": statistics.median(v[name] for v in per_pass), "unit": unit}
    for name in COUNTED:
        metrics[name] = {"value": result["counts"][name], "unit": "count"}
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(traced) / statistics.median(plain) - 1, "unit": "ratio"
    }
    first = result["layers"][0]
    for name, (_, base) in LAYER_RATIOS.items():
        print(f"  {name}: base {_count(first, base)} in the first traced pass")
    prefixes, share = PURPOSE[workload]
    loaded = sum(
        self_ns
        for name, (_, _, self_ns) in first["totals"].items()
        if name.startswith(prefixes)
    )
    got = loaded / 1e9 / traced[0]
    verdict = "holds" if got > share else "DOES NOT HOLD"
    print(f"  purpose: {' + '.join(prefixes)} take {got:.1%} of traced time "
          f"(want > {share:.0%}): {verdict}")
    return metrics


def record() -> int:
    """Re-record expected.json from one checked pass of every workload, in
    its full and its smoke configuration."""
    OUT.mkdir(exist_ok=True)
    recorded = {}
    for workload in joblib.WORKLOADS:
        for smoke in (False, True):
            work = OUT / f"record-{workload}-{os.getpid()}"
            work.mkdir()
            try:
                jobs = joblib.build(workload, 1, work, ROOT, smoke)
                result = run_worker(jobs, work, seconds=0, trace=0, min_passes=1,
                                    min_samples=0, spans=OUT / "unused.jsonl")
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if result is None:
                return 1
            failures, _, _ = check(jobs, result, {}, record_mode=True)
            for line in failures:
                print(f"FAIL {line}", file=sys.stderr)
            if failures:
                return 1
            first = result["passes"][0]
            for i, job in enumerate(jobs):
                if job.fixed:
                    recorded[job.id] = [first["rc"][i], first["digest"][i]]
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(recorded.items())]
    EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(recorded)} jobs in {EXPECTED.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
