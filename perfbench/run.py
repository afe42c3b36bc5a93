"""The repository benchmark: one command, two workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload submit-noop --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``submit-noop`` — a 2-worker daemon on ``tcp:`` running no-op jobs:
  an open-loop paced phase (latency) and one near-queue-limit burst
  (throughput);
* ``counterfactual-batch`` — a 2-worker daemon on ``unix:`` running one
  batch of simulate and sweep jobs (3:1, 8 per second of ``--seconds``,
  at least 100), then fetching every result.  Its traced run also
  restarts the drained state as a 1-shard fleet to time fetches through
  the router, and predicts held-out traces with a small iBoxML model
  in-process.

With ``--trace 0`` the last line of standard output is one JSON object
holding the end-to-end metrics (``setup_s``, ``latency_p50_ms``,
``latency_p90_ms``, ``throughput_ops_s``).  With ``--trace 1`` the
workload runs twice, first untraced and then with spans recorded
around every layer entry point, and the object holds the per-layer
metrics, including the tracing overhead between the two passes.  The
line before it is the load generator's validity report.

The exit code is 0 only when a result was printed; without the
program's sources next to this directory it is 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The load generator's own limits: threads and open connections.
MAX_THREADS = 2
MAX_CONNECTIONS = 2

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.cli, repro.serve, repro.runtime.batch, repro.sweep, "
    "repro.core.iboxml; print(time.perf_counter() - t)"
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_import(repeats: int = 3) -> float:
    """Median wall time of importing the program's modules in a fresh
    interpreter."""
    from perfbench.stats import median

    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return median(times)


def end_to_end(outcome) -> dict:
    from perfbench.stats import median, metric, percentile

    lat = outcome.latencies_s
    return {
        "setup_s": metric(median(outcome.setup_s), "s"),
        "latency_p50_ms": metric(1000.0 * percentile(lat, 50), "ms"),
        "latency_p90_ms": metric(1000.0 * percentile(lat, 90), "ms"),
        "throughput_ops_s": metric(outcome.throughput_ops_s, "1/s"),
    }


def _overhead_pct(workload: str, plain, traced) -> float:
    """How much slower the traced pass was, in percent of the untraced
    pass, on the workload's headline figure."""
    from perfbench.stats import percentile

    if workload == "submit-noop":
        base = percentile(plain.latencies_s, 50)
        return 100.0 * (percentile(traced.latencies_s, 50) / base - 1.0)
    return 100.0 * (plain.throughput_ops_s / traced.throughput_ops_s - 1.0)


def validity(outcome) -> dict:
    """The load generator's own report: lateness, peak threads and
    connections, and whether the sample supports a p90."""
    from perfbench.stats import percentile, tail_percentile

    report = dict(outcome.validity)
    lateness = outcome.obs.get("lateness_s")
    if lateness:
        report["generator_lateness_ms_p90"] = 1000.0 * percentile(lateness, 90)
    n = len(outcome.latencies_s)
    report["latency_samples"] = n
    report["highest_supported_percentile"] = tail_percentile(n)
    report["ok"] = (
        report.get("peak_threads", 0) <= MAX_THREADS
        and report.get("peak_connections", 0) <= MAX_CONNECTIONS
        and (tail_percentile(n) or 0) >= 90
    )
    return report


def check_digest(workload: str, seed: int, digest: str) -> bool:
    """The same seed must predict the same delays in every run of this
    checkout; the first run of a seed records its digest."""
    path = ROOT / ".perfbench" / "digests.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    key = f"{workload}:{seed}"
    if known.setdefault(key, digest) != digest:
        return False
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return True


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
            file=sys.stderr,
        )
        return 2
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)

    from perfbench import workloads
    from perfbench.layers import layer_metrics
    from perfbench.spans import load_spans

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    run = workloads.WORKLOADS[args.workload]
    # A SIGTERM unwinds through the ``finally`` below, which stops every
    # service the workload started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    ctx = workloads.Context(
        seed=args.seed,
        seconds=args.seconds,
        workdir=workdir,
    )
    try:
        if args.trace == 0:
            outcome = run(ctx)
            passes = [outcome]
            metrics = end_to_end(outcome)
        else:
            plain = run(replace(ctx, setup_reps=1))
            trace_dir = workdir / "spans"
            outcome = run(replace(ctx, setup_reps=1, trace_dir=trace_dir))
            passes = [plain, outcome]
            metrics = layer_metrics(
                outcome.obs,
                load_spans(trace_dir) + outcome.spans,
                outcome.attempted,
                measure_import(),
                _overhead_pct(args.workload, plain, outcome),
            )
        report = validity(outcome)
        report["problems"] = [p for o in passes for p in o.problems][:10]
        digest = outcome.obs.get("prediction_digest")
        if digest is not None:
            report["prediction_digest"] = digest
            if not check_digest(args.workload, args.seed, digest):
                outcome.fail("predictions differ from an earlier run of this seed")
                report["problems"].append(outcome.problems[-1])
        print("validity " + json.dumps(report, sort_keys=True))
        result = {
            "correct": all(o.correct for o in passes) and report["ok"],
            "attempted": sum(o.attempted for o in passes),
            "failed": sum(o.failed for o in passes),
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
