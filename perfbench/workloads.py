"""The two workloads, and the side measurements of their traced runs.

Each workload function takes a :class:`Context` and returns a
:class:`Outcome`: operations attempted and failed, whether every output
check held, the end-to-end figures, and the raw observations the
per-layer metrics are computed from (:mod:`layers`).

Load comes from this one process with at most two threads and two open
connections: the main thread, plus one helper thread in the paced
phases.
"""

from __future__ import annotations

import heapq
import math
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from perfbench import inputs
from perfbench.inputs import CheckFailed
from perfbench.service import (
    LARGE_RESULT_BYTES,
    TIME_WAIT_FLAG,
    ConnectionMeter,
    Services,
    loopback_time_wait,
    read_endpoint,
    result_bytes,
    timed,
)
from perfbench.stats import (
    latencies_with_failures,
    run_open_loop,
    schedule,
)

#: Fewest latency samples per run: the p90 then keeps 10 beyond it.
MIN_OPS = 100

#: ``submit-noop`` paced rate (about 2/3 of a 2-worker daemon's no-op
#: capacity) and burst size (just under the default queue limit of 64).
NOOP_RATE = 8.5
NOOP_BURST = 60

#: ``counterfactual-batch``: sweep jobs per second of ``--seconds``
#: (each with three simulate jobs, so a 2-worker daemon is busy for
#: about that long), the trace pool.
CF_SWEEPS_PER_SEC = 2
CF_TRACES = 8
CF_TRACE_SEC = 2.0

#: iBoxML side measurement: packets per predicted trace, held-out
#: protocols and traces, the fixed seed of the model under test.
ML_PACKETS = 1000
ML_HELDOUT = ("vegas", "bbr", "reno", "ledbat")
ML_HELDOUT_TRACES = 8
ML_TRAIN_SEED = 0

CLIENT_DEADLINE_SEC = 30.0
WAIT_RESULTS_SEC = 60.0


@dataclass
class Context:
    seed: int
    seconds: float
    workdir: Path
    setup_reps: int = 3
    trace_dir: Optional[Path] = None


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: List[str] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    throughput_ops_s: float = 0.0
    #: Raw observations for the per-layer metrics (see ``layers.py``).
    obs: Dict[str, Any] = field(default_factory=dict)
    #: Spans recorded in this process (in-process workloads, traced).
    spans: List[Dict[str, Any]] = field(default_factory=list)
    validity: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.correct = False
        self.problems.append(message)

    def note(self, key: str, value: float) -> None:
        self.obs.setdefault(key, []).append(value)

    def count(self, key: str) -> None:
        self.obs[key] = self.obs.get(key, 0) + 1


def _new_client(endpoint: str):
    from repro.serve import ResilientClient

    return ResilientClient(endpoint, deadline_sec=CLIENT_DEADLINE_SEC)


def _health_probe(endpoint_file: Path):
    from repro.serve.transport import TransportError, exchange

    def probe() -> bool:
        endpoint = read_endpoint(endpoint_file)
        if endpoint is None:
            return False
        try:
            return exchange(endpoint, [{"verb": "health"}], timeout=2.0)[0].get(
                "status"
            ) == "ok"
        except (TransportError, OSError):
            return False

    return probe


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


def _start_daemon(ctx, services, outcome, prefix, bind_for, extra=()):
    """Start a daemon ``ctx.setup_reps`` times on a fresh state dir, keep
    the last one; returns ``(process, endpoint, state_dir)``."""
    proc = state = None
    for rep in range(ctx.setup_reps):
        if proc is not None:
            services.stop(proc)
        state = _fresh(Path(f"{prefix}{rep}"))
        proc, setup = services.start(
            [
                "serve", "run", "--state", str(state),
                "--bind", bind_for(state), "--workers", "2", *extra,
            ],
            state,
            _health_probe(state / "serve.endpoint"),
        )
        outcome.setup_s.append(setup)
    return proc, read_endpoint(state / "serve.endpoint"), state


def _server_transport_faults(client) -> int:
    """Sum of the daemon's ``transport.*`` counters (evictions,
    malformed frames) from the ``stats`` verb."""
    stats = client.query("stats").get("stats") or {}
    counters = ((stats.get("metrics") or {}).get("counters")) or {}
    return int(
        sum(v for k, v in counters.items() if k.startswith("transport."))
    )


def _wait_in_order(client, jobs, outcome) -> Dict[str, Any]:
    """Fetch each job's result in submission order, honouring every
    ``retry_after_sec`` hint, as ``fetch(wait=True)`` would; returns
    ``{job_id: (response, finished_at)}``."""
    done: Dict[str, Any] = {}
    deadline = time.perf_counter() + WAIT_RESULTS_SEC
    for job in jobs:
        while True:
            response, took = timed(client.fetch, job)
            outcome.count("fetches")
            if response.get("status") == "pending":
                outcome.note("fetch_pending_s", took)
                if time.perf_counter() > deadline:
                    break
                time.sleep(float(response.get("retry_after_sec") or 0.2))
                continue
            done[job] = (response, time.perf_counter())
            size = result_bytes(response)
            key = "fetch_large_s" if size >= LARGE_RESULT_BYTES else "fetch_small_s"
            outcome.note(key, took)
            break
    return done


# ----------------------------------------------------------------------
# submit-noop
# ----------------------------------------------------------------------
@dataclass
class _PacedJob:
    job_id: str
    due: float
    polls: int = 0
    finished: Optional[float] = None
    response: Optional[dict] = None


def submit_noop(ctx: Context) -> Outcome:
    outcome = Outcome()
    outcome.validity["time_wait_before"] = tw = loopback_time_wait()
    outcome.validity["time_wait_flagged"] = tw > TIME_WAIT_FLAG
    services = Services(ctx.workdir, ctx.trace_dir)
    meter = ConnectionMeter()
    try:
        proc, endpoint, _ = _start_daemon(
            ctx, services, outcome, "n", lambda s: "tcp:127.0.0.1:0"
        )
        meter.install()
        client = _new_client(endpoint)
        _noop_paced(ctx, client, outcome)
        _noop_burst(ctx, client, outcome)
        calls = outcome.obs.get("fetches", 0) + outcome.obs["submit_calls"]
        outcome.obs["conns"] = meter.total
        outcome.obs["client_calls"] = calls
        outcome.obs["retries"] = max(0, meter.total - calls)
        outcome.obs["retries"] += _server_transport_faults(client)
        services.stop(proc)
    finally:
        meter.uninstall()
        services.stop_all()
    outcome.validity["peak_connections"] = meter.peak
    outcome.validity["peak_threads"] = meter.peak_threads
    return outcome


def _noop_paced(ctx: Context, client, outcome: Outcome) -> None:
    """Open loop: the main thread submits on schedule, one helper thread
    polls every outstanding job and honours each retry-after hint."""
    n = max(MIN_OPS, math.ceil(NOOP_RATE * ctx.seconds))
    start = time.perf_counter() + 0.05
    dues = schedule(n, NOOP_RATE, start)
    heap: List[tuple] = []
    cond = threading.Condition()
    submitting = [True]
    jobs: List[_PacedJob] = []
    deadline = [None]

    def poller():
        while True:
            with cond:
                while not heap and submitting[0]:
                    cond.wait()
                if not heap:
                    return
                at, seq, job = heap[0]
                now = time.perf_counter()
                if deadline[0] is not None and now > deadline[0]:
                    return
                if at > now:
                    cond.wait(timeout=at - now)
                    continue
                heapq.heappop(heap)
            response, took = timed(client.fetch, job.job_id)
            job.polls += 1
            outcome.count("fetches")
            if response.get("status") == "pending":
                outcome.note("fetch_pending_s", took)
                hint = float(response.get("retry_after_sec") or 0.2)
                with cond:
                    heapq.heappush(heap, (time.perf_counter() + hint, seq, job))
                continue
            job.finished = time.perf_counter()
            job.response = response
            outcome.note("fetch_small_s", took)

    def submit(i):
        request = inputs.noop_request(ctx.seed, "paced", i)
        job = _PacedJob(inputs.job_id(request), dues[i])
        jobs.append(job)
        response, took = timed(client.call, request)
        outcome.note("submit_s", took)
        if response.get("status") != "accepted":
            raise CheckFailed(f"paced submit answered {response.get('status')}")
        with cond:
            # Poll at once, as a ``fetch(wait=True)`` caller would.
            heapq.heappush(heap, (time.perf_counter(), i, job))
            cond.notify()

    thread = threading.Thread(target=poller, name="perfbench-poller")
    thread.start()
    try:
        submitted = run_open_loop(dues, submit, threads=1)
    finally:
        with cond:
            submitting[0] = False
            deadline[0] = time.perf_counter() + WAIT_RESULTS_SEC
            cond.notify()
        thread.join()
    for error, lateness, _ in submitted:
        outcome.note("lateness_s", lateness)
        if isinstance(error, Exception):
            outcome.fail(str(error))
    ended = time.perf_counter()
    outcome.attempted += n
    done, ages = [], []
    for job in jobs:
        if job.response is None:
            outcome.failed += 1
            ages.append(ended - job.due)
            continue
        try:
            value = inputs.check_fetched(job.response, job.job_id)
            if value != {"fault": None, "ok": True}:
                raise CheckFailed(f"no-op job {job.job_id} returned {value}")
        except CheckFailed as exc:
            outcome.fail(str(exc))
            outcome.failed += 1
            ages.append(ended - job.due)
            continue
        done.append(job.finished - job.due)
        outcome.note("polls_per_job", job.polls)
        duration = float(job.response.get("duration_sec") or 0.0)
        outcome.note("compute_s.chaos", duration)
        outcome.note("overhead_s", job.finished - job.due - duration)
    outcome.latencies_s = latencies_with_failures(done, ages)
    outcome.obs["submit_calls"] = len(jobs)


def _noop_burst(ctx: Context, client, outcome: Outcome) -> None:
    """One ``submit`` of a near-queue-limit batch, then every result."""
    requests = [
        inputs.noop_request(ctx.seed, "burst", i) for i in range(NOOP_BURST)
    ]
    ids = [inputs.job_id(r) for r in requests]
    outcome.attempted += len(requests)
    started = time.perf_counter()
    responses, took = timed(client.submit, requests)
    outcome.note("submit_s", took)
    outcome.obs["submit_calls"] += 1
    accepted = [
        i for i, r in zip(ids, responses) if r.get("status") == "accepted"
    ]
    if len(accepted) != len(ids):
        outcome.fail(f"burst: {len(ids) - len(accepted)} jobs not accepted")
    done = _wait_in_order(client, accepted, outcome)
    ok = 0
    compute = 0.0
    last = started
    for job in ids:
        if job not in done:
            continue
        response, finished = done[job]
        try:
            inputs.check_fetched(response, job)
        except CheckFailed as exc:
            outcome.fail(str(exc))
            continue
        ok += 1
        last = max(last, finished)
        compute += float(response.get("duration_sec") or 0.0)
    outcome.failed += len(ids) - ok
    makespan = last - started
    outcome.throughput_ops_s = ok / makespan if makespan > 0 else 0.0
    outcome.obs["utilization"] = compute / (2 * makespan) if makespan > 0 else 0.0


# ----------------------------------------------------------------------
# The fleet read path (traced runs of counterfactual-batch)
# ----------------------------------------------------------------------
FLEET_STATE = Path("cf-fleet")
FLEET_BIND = "unix:cf-fleet/r.sock"

#: Paired router/direct fetches per result size.
ROUTER_SAMPLES = 20


def _fleet_probe(job: str):
    from repro.serve.transport import TransportError, exchange

    def probe() -> bool:
        if not (FLEET_STATE / "fleet.pid").exists():
            return False
        endpoint = read_endpoint(FLEET_STATE / "fleet.endpoint")
        if endpoint is None:
            return False
        try:
            response = exchange(
                endpoint, [{"verb": "fetch", "job_id": job}], timeout=5.0
            )[0]
        except (TransportError, OSError):
            return False
        return response.get("status") == "ok"

    return probe


def _fleet_read_path(ctx, services, daemon_state, results, outcome) -> None:
    """Restart the batch's drained state as the one shard of a fleet,
    then time fetches through the router against the same fetches sent
    straight to the shard.

    This reaches what only a fleet does — the asyncio router, the replay
    of a full journal, checksum-verified reads of small and large
    results — for the per-layer report.  Fetch latency itself is not an
    end-to-end metric: on a shared 2-vCPU VM it follows the host's
    wake-up latency (3.5 to 20 ms from one minute to the next), not the
    code.  ``results`` maps job id to ``(result bytes, result digest)``.
    """
    from repro.serve.transport import exchange

    _fresh(FLEET_STATE)
    shutil.copytree(daemon_state, FLEET_STATE / "shard-0")
    small = sorted(j for j, (b, _) in results.items() if b < LARGE_RESULT_BYTES)
    large = sorted(j for j, (b, _) in results.items() if b >= LARGE_RESULT_BYTES)
    proc, _ = services.start(
        [
            "serve", "fleet", "--state", str(FLEET_STATE), "--bind", FLEET_BIND,
            "--shards", "1", "--workers-per-shard", "1",
        ],
        FLEET_STATE,
        _fleet_probe(small[0]),
    )
    router = read_endpoint(FLEET_STATE / "fleet.endpoint")
    shard = read_endpoint(FLEET_STATE / "shard-0" / "serve.endpoint")
    rng = random.Random(ctx.seed + 17)
    for size, pool in (("small", small), ("large", large)):
        for job in rng.sample(pool, min(ROUTER_SAMPLES, len(pool))):
            request = [{"verb": "fetch", "job_id": job}]
            routed, via_router = timed(exchange, router, request)
            direct, straight = timed(exchange, shard, request)
            try:
                for response in (routed[0], direct[0]):
                    inputs.check_fetched(response, job)
                    if inputs.digest(response["result"]) != results[job][1]:
                        raise CheckFailed(f"replayed result of {job} changed")
            except CheckFailed as exc:
                outcome.fail(str(exc))
                continue
            outcome.note(f"router_forward_s.{size}", via_router - straight)
    services.stop(proc)


# ----------------------------------------------------------------------
# counterfactual-batch
# ----------------------------------------------------------------------
def _balanced_batch(seed, simulates, sweeps):
    """Blocks of one sweep and three simulate jobs, shuffled within each
    block: every prefix of the batch, and so the median job, carries the
    same mix of work whatever the seed."""
    rng = random.Random(seed + 3)
    per = len(simulates) // len(sweeps)
    batch = []
    for b, sweep in enumerate(sweeps):
        block = [sweep, *simulates[b * per : (b + 1) * per]]
        rng.shuffle(block)
        batch += block
    return batch + simulates[len(sweeps) * per :]


def counterfactual_batch(ctx: Context) -> Outcome:
    outcome = Outcome()
    services = Services(ctx.workdir, ctx.trace_dir)
    meter = ConnectionMeter()
    cache = str(_fresh(Path("cf-cache")))
    traces = inputs.trace_pool(Path("cf-traces"), ctx.seed, CF_TRACES, CF_TRACE_SEC)
    sweeps = max(MIN_OPS // 4, math.ceil(CF_SWEEPS_PER_SEC * ctx.seconds))
    requests = _balanced_batch(
        ctx.seed,
        inputs.simulate_requests(
            ctx.seed, traces, 3 * sweeps, CF_TRACE_SEC, cache
        ),
        [inputs.sweep_request(ctx.seed, i) for i in range(sweeps)],
    )
    ids = [inputs.job_id(r) for r in requests]
    try:
        proc, endpoint, state = _start_daemon(
            ctx, services, outcome, "c",
            lambda s: f"unix:{s}/s.sock",
            ("--queue-limit", str(len(requests))),
        )
        meter.install()
        client = _new_client(endpoint)
        outcome.attempted = len(requests)
        started = time.perf_counter()
        responses, took = timed(client.submit, requests)
        outcome.note("submit_s", took)
        accepted = [
            j for j, r in zip(ids, responses) if r.get("status") == "accepted"
        ]
        if len(accepted) != len(ids):
            outcome.fail(f"{len(ids) - len(accepted)} batch jobs not accepted")
        done = _wait_in_order(client, accepted, outcome)
        outcome.obs["conns"] = meter.total
        calls = outcome.obs.get("fetches", 0) + 1
        outcome.obs["client_calls"] = calls
        outcome.obs["retries"] = max(0, meter.total - calls)
        outcome.obs["retries"] += _server_transport_faults(client)
        services.stop(proc)
        if ctx.trace_dir is not None and len(done) == len(ids):
            results = {
                job: (result_bytes(r), inputs.digest(r["result"]))
                for job, (r, _) in done.items()
            }
            _fleet_read_path(ctx, services, state, results, outcome)
            _iboxml_unroll(ctx, outcome)
    finally:
        meter.uninstall()
        services.stop_all()
    ended = time.perf_counter()
    finished, ages, values = [], [], []
    last = started
    compute = 0.0
    packets = 0
    for request, job in zip(requests, ids):
        if job not in done:
            ages.append(ended - started)
            outcome.failed += 1
            values.append(None)
            continue
        response, at = done[job]
        try:
            value = inputs.check_fetched(response, job)
        except CheckFailed as exc:
            outcome.fail(str(exc))
            outcome.failed += 1
            ages.append(ended - started)
            values.append(None)
            continue
        values.append(value)
        finished.append(at - started)
        last = max(last, at)
        duration = float(response.get("duration_sec") or 0.0)
        compute += duration
        outcome.note(f"compute_s.{request['kind']}", duration)
        if request["kind"] == "simulate":
            packets += sum(
                s["packets_sent"] for s in value["summaries"].values()
            )
    makespan = last - started
    outcome.latencies_s = latencies_with_failures(finished, ages)
    ok = len(finished)
    outcome.throughput_ops_s = ok / makespan if makespan > 0 else 0.0
    outcome.obs["pkts_per_s"] = packets / makespan if makespan > 0 else 0.0
    outcome.obs["utilization"] = compute / (2 * makespan) if makespan > 0 else 0.0
    if outcome.failed == 0:
        try:
            inputs.check_against_library(requests, values, ctx.seed, sample=2)
        except CheckFailed as exc:
            outcome.fail(str(exc))
    outcome.validity["peak_connections"] = meter.peak
    outcome.validity["peak_threads"] = meter.peak_threads
    return outcome


# ----------------------------------------------------------------------
# iBoxML (traced runs of counterfactual-batch)
# ----------------------------------------------------------------------
def _ml_inputs(seed: int):
    """The training traces (two cubic runs over one fixed path) and the
    held-out traces (``ML_HELDOUT_TRACES`` runs of other protocols over
    two paths drawn from ``seed``), cut to ``ML_PACKETS`` packets so every
    prediction is the same size.

    The model under test is the same in every run: how fast a trained
    LSTM unrolls depends on its weights (libm ``tanh`` costs differ with
    the activations), so training on seed-drawn data would make the
    per-packet cost a property of the seed rather than of the code.
    """
    from repro.datasets.pantheon import generate_run
    from repro.datasets.scenarios import CellularScenarioSampler
    from repro.trace.records import Trace

    sampler = CellularScenarioSampler(
        mean_rate_mbps=(3.0, 3.6), propagation_delay_ms=(30.0, 40.0)
    )
    train_path = sampler.sample(ML_TRAIN_SEED)
    train = [
        generate_run(k, "cubic", duration=10.0, config=train_path).trace
        for k in range(2)
    ]
    heldout = []
    for k in range(ML_HELDOUT_TRACES):
        protocol = ML_HELDOUT[k % len(ML_HELDOUT)]
        path_seed = 1000 + seed * 10 + k // len(ML_HELDOUT)
        duration = 8.0
        while True:
            trace = generate_run(
                path_seed * 10 + k, protocol, duration=duration,
                config=sampler.sample(path_seed),
            ).trace
            if len(trace.records) >= ML_PACKETS:
                break
            duration *= 2
        heldout.append(
            Trace(
                trace.flow_id,
                list(trace.records[:ML_PACKETS]),
                duration=trace.records[ML_PACKETS - 1].sent_at,
                protocol=trace.protocol,
                metadata=dict(trace.metadata),
            )
        )
    return train, heldout


def _ml_model():
    from repro.core.iboxml import IBoxMLConfig, IBoxMLModel

    return IBoxMLModel(
        IBoxMLConfig(
            hidden_dim=32,
            num_layers=2,
            epochs=3,
            train_seq_len=100,
            rollout_rounds=2,
            seed=ML_TRAIN_SEED,
        )
    )


def _delays(predicted) -> List[float]:
    return [r.delivered_at - r.sent_at for r in predicted.records]


def _iboxml_unroll(ctx: Context, outcome: Outcome) -> None:
    """Traced runs of counterfactual-batch: train the fixed model
    in-process and predict each held-out trace once, with spans around
    ``predict_trace``/``predict_delays``, for the iBoxML per-layer
    metrics.  Predicted delays must be finite and positive, and their
    digest must repeat for the seed (checked by ``run.py``).

    This is not a timed workload: its per-call latency moved between 39
    and 73 ms across runs of the same code as the shared VM's CPU speed
    changed, beyond any bound of 0.25.
    """
    import numpy as np

    from perfbench.spans import Tracer, install_library_wrappers

    train, heldout = _ml_inputs(ctx.seed)
    model = _ml_model()
    model.fit(train)
    tracer = Tracer()
    install_library_wrappers(tracer)
    digests = []
    try:
        for k, trace in enumerate(heldout):
            predicted = model.predict_trace(trace, sample=True, seed=k)
            delays = np.asarray(_delays(predicted))
            if len(delays) != ML_PACKETS or not (
                np.all(np.isfinite(delays)) and np.all(delays > 0)
            ):
                outcome.fail(f"prediction {k} has non-finite or non-positive delays")
            digests.append(inputs.digest(delays.tolist()))
    finally:
        tracer.unwrap_all()
    outcome.spans += tracer.spans
    outcome.obs["prediction_digest"] = inputs.digest(digests)


WORKLOADS = {
    "submit-noop": submit_noop,
    "counterfactual-batch": counterfactual_batch,
}
