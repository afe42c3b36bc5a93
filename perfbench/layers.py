"""Per-layer metrics of a traced run.

They come from two sources: what the load generator saw around each
client call (``Outcome.obs``), and the spans recorded around the layer
entry points (:mod:`spans`).  Every metric is reported for every
workload; a layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List

from perfbench.service import LARGE_RESULT_BYTES
from perfbench.spans import self_time_by_layer, self_times
from perfbench.stats import median, metric, p50, percentile

#: Layers whose self time per operation is reported.
SELF_TIME_LAYERS = (
    "daemon",
    "journal",
    "supervisor",
    "router",
    "worker",
    "cache",
    "emulator",
    "sweep",
    "iboxml",
)

EMULATED_PROTOCOLS = ("vegas", "cubic", "bbr", "rtc")


def _ms(samples: List[float]) -> float:
    return 1000.0 * p50(samples)


def _durations(spans, name: str) -> List[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def _largest_replay(spans: List[Dict[str, Any]]) -> float:
    """Replay time of the largest journal opened (by jobs replayed)."""
    replays = [s for s in spans if s["name"] == "journal.replay"]
    if not replays:
        return 0.0
    top = max(replays, key=lambda s: (s["attrs"].get("jobs", 0), s["end"] - s["start"]))
    return top["end"] - top["start"]


def tick_waits(spans: List[Dict[str, Any]]) -> List[float]:
    """Per job, the time it waited on scheduler ticks: from when it could
    first have been dispatched (admitted, and a worker slot freed by the
    latest reap) to its dispatch, plus from its worker's end to the poll
    that reaped it.  Time queued behind busy workers is not counted."""
    admitted, dispatched, worker_end, reaped = {}, {}, {}, {}
    reaps: List[float] = []
    for s in spans:
        job = s.get("job")
        if s["name"] == "daemon.admit" and s["attrs"].get("status") == "accepted":
            admitted.setdefault(job, s["end"])
        elif s["name"] == "supervisor.dispatch":
            dispatched.setdefault(job, s["start"])
        elif s["name"] == "worker.job":
            worker_end.setdefault(job, s["end"])
        elif s["name"] == "supervisor.poll" and s["attrs"].get("jobs"):
            reaps.append(s["end"])
            for polled in s["attrs"]["jobs"]:
                reaped.setdefault(polled, s["start"])
    reaps.sort()
    waits = []
    for job, at in admitted.items():
        if job not in dispatched or job not in worker_end or job not in reaped:
            continue
        start = dispatched[job]
        index = bisect.bisect_right(reaps, start)
        ready = max(at, reaps[index - 1]) if index else at
        waits.append(
            max(0.0, start - ready) + max(0.0, reaped[job] - worker_end[job])
        )
    return waits


def layer_metrics(
    obs: Dict[str, Any],
    spans: List[Dict[str, Any]],
    attempted: int,
    import_s: float,
    overhead_pct: float,
) -> Dict[str, Dict[str, object]]:
    fetch_small = obs.get("fetch_small_s", [])
    fetch_large = obs.get("fetch_large_s", [])
    fetch_all = fetch_small + fetch_large + obs.get("fetch_pending_s", [])
    ops = max(1, attempted)
    out: Dict[str, Dict[str, object]] = {
        "pkts_per_s": metric(obs.get("pkts_per_s", 0.0), "pkts/s"),
        "loadgen.lateness_ms.p90": metric(
            1000.0 * percentile(obs["lateness_s"], 90)
            if obs.get("lateness_s")
            else 0.0,
            "ms",
        ),
        "transport.submit_ms.p50": metric(_ms(obs.get("submit_s", [])), "ms"),
        "transport.fetch_ms.p50": metric(_ms(fetch_all), "ms"),
        "transport.fetch_ms.small.p50": metric(_ms(fetch_small), "ms"),
        "transport.fetch_ms.large.p50": metric(_ms(fetch_large), "ms"),
        "transport.conns_per_op": metric(obs.get("conns", 0) / ops, "count"),
        "transport.retries": metric(obs.get("retries", 0), "count"),
        "router.forward_ms.p50": metric(
            _ms(obs.get("router_forward_s.small", [])), "ms"
        ),
        "router.forward_ms.large.p50": metric(
            _ms(obs.get("router_forward_s.large", [])), "ms"
        ),
        "daemon.polls_per_job": metric(
            median(obs["polls_per_job"]) if obs.get("polls_per_job") else 0.0,
            "count",
        ),
        "daemon.overhead_ms.p50": metric(_ms(obs.get("overhead_s", [])), "ms"),
        "daemon.tick_wait_ms.p50": metric(_ms(tick_waits(spans)), "ms"),
        "journal.append_ms.p50": metric(
            _ms(_durations(spans, "journal.append")), "ms"
        ),
        "journal.replay_s": metric(_largest_replay(spans), "s"),
        "supervisor.dispatch_ms.p50": metric(
            _ms(_durations(spans, "supervisor.dispatch")), "ms"
        ),
        "supervisor.result_write_ms.p50": metric(
            _ms(_durations(spans, "supervisor.result_write")), "ms"
        ),
    }
    reads = [s for s in spans if s["name"] == "supervisor.read_result"]
    for size, keep in (
        ("small", lambda b: b < LARGE_RESULT_BYTES),
        ("large", lambda b: b >= LARGE_RESULT_BYTES),
    ):
        out[f"supervisor.result_read_ms.{size}.p50"] = metric(
            _ms(
                [
                    s["end"] - s["start"]
                    for s in reads
                    if s["attrs"].get("bytes") is not None
                    and keep(s["attrs"]["bytes"])
                ]
            ),
            "ms",
        )
    for kind in ("chaos", "simulate", "sweep"):
        out[f"worker.compute_ms.{kind}.p50"] = metric(
            _ms(obs.get(f"compute_s.{kind}", [])), "ms"
        )
    out["worker.utilization"] = metric(obs.get("utilization", 0.0), "ratio")
    fits = [s for s in spans if s["name"] == "cache.fit"]
    out["cache.hit_ratio"] = metric(
        sum(1 for s in fits if s["attrs"].get("hit")) / len(fits) if fits else 0.0,
        "ratio",
    )
    out["cache.fit_ms.p50"] = metric(_ms(_durations(spans, "cache.fit")), "ms")
    sims = [s for s in spans if s["name"] == "emulator.simulate"]
    for protocol in EMULATED_PROTOCOLS:
        mine = [s for s in sims if s["attrs"].get("protocol") == protocol]
        busy = sum(s["end"] - s["start"] for s in mine)
        packets = sum(s["attrs"].get("packets", 0) for s in mine)
        out[f"emulator.pkts_per_s.{protocol}"] = metric(
            packets / busy if busy > 0 else 0.0, "pkts/s"
        )
    sweeps = [s for s in spans if s["name"] == "sweep.run_scenarios"]
    busy = sum(s["end"] - s["start"] for s in sweeps)
    out["sweep.scenarios_per_s"] = metric(
        sum(s["attrs"].get("scenarios", 0) for s in sweeps) / busy
        if busy > 0
        else 0.0,
        "1/s",
    )
    unrolls = [s for s in spans if s["name"] == "iboxml.predict_delays"]
    busy = sum(s["end"] - s["start"] for s in unrolls)
    out["iboxml.unroll_pkts_per_s"] = metric(
        sum(s["attrs"].get("packets", 0) for s in unrolls) / busy
        if busy > 0
        else 0.0,
        "pkts/s",
    )
    # predict_trace minus the predict_delays it calls: its self time.
    own = self_times(spans)
    out["iboxml.trace_build_ms.p50"] = metric(
        _ms([own[s["id"]] for s in spans if s["name"] == "iboxml.predict_trace"]),
        "ms",
    )
    out["process.import_s"] = metric(import_s, "s")
    out["trace.overhead_pct"] = metric(overhead_pct, "%")
    by_layer = self_time_by_layer(spans)
    for layer in SELF_TIME_LAYERS:
        out[f"self_ms_per_op.{layer}"] = metric(
            1000.0 * by_layer.get(layer, 0.0) / ops, "ms"
        )
    return out


def metric_names() -> List[str]:
    """Every per-layer metric name, in report order."""
    return list(layer_metrics({}, [], 1, 0.0, 0.0))
