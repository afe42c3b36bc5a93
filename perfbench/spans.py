"""In-memory span recording around the public entry points of each layer.

The benchmark never edits the program: it wraps the layer entry points
(journal record methods, ``Supervisor.dispatch``/``poll``,
``read_result``, ``ServeDaemon.admit``/``tick``, ``FleetRouter.route``/
``fetch``, ``ProfileCache.fit_cached``, ``IBoxNetModel.simulate``,
``run_scenarios``, ``IBoxMLModel.predict_delays``/``predict_trace``)
with functions that time each call.

A span is ``{"id", "parent", "name", "job", "pid", "start", "end",
"attrs"}``.  Times are ``time.perf_counter()`` seconds, which on Linux is
the system-wide monotonic clock, so spans from the daemon, its forked
workers and the benchmark process line up on one axis.  The parent is
the span open in the same thread or asyncio task (a context variable),
so spans of concurrent intake threads and router tasks do not nest into
each other.

Spans stay in memory.  A normal process writes them once, from
:meth:`Tracer.flush`, into ``<dir>/spans-<pid>.jsonl``.  Forked workers
leave through ``os._exit`` and never run exit handlers, so a forked
child writes its spans each time one of its top-level spans closes.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Environment variable naming the directory spans are written to; a
#: launcher that sees it installs the wrappers before starting a service.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Tracer:
    """Collects spans for one process (and, after a fork, for the child)."""

    def __init__(self, out_dir: Optional[Path] = None) -> None:
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.spans: List[Dict[str, Any]] = []
        self.pid = os.getpid()
        self.forked = False
        self._ids = itertools.count()
        self._patched: List[tuple] = []
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The child inherits the parent's buffer; those spans are the
        # parent's to write.
        self.spans = []
        self.pid = os.getpid()
        self.forked = True
        self._ids = itertools.count()
        # The fork happened inside the parent's dispatch span; the
        # child's own spans start a fresh tree.
        _current.set(None)

    # -- recording -----------------------------------------------------
    @contextmanager
    def span(self, name: str, job: Optional[str] = None, **attrs: Any):
        parent = _current.get()
        record = {
            "id": f"{self.pid}:{next(self._ids)}",
            "parent": parent,
            "name": name,
            "job": job,
            "pid": self.pid,
            "start": time.perf_counter(),
            "end": None,
            "attrs": dict(attrs),
        }
        token = _current.set(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            _current.reset(token)
            self.spans.append(record)
            if self.forked and parent is None:
                self.flush()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        job: Optional[Callable[..., Optional[str]]] = None,
        annotate: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``job(args, kwargs)`` names the job a call works on;
        ``annotate(record, args, kwargs, result)`` adds attributes from
        the call's result.  Neither may break the wrapped call.
        """
        original = getattr(owner, attr)
        tracer = self

        def _enter(args, kwargs):
            job_id = None
            if job is not None:
                try:
                    job_id = job(args, kwargs)
                except Exception:  # noqa: BLE001 — tracing must not fail a call
                    job_id = None
            return job_id

        def _leave(record, args, kwargs, result):
            if annotate is None:
                return
            try:
                annotate(record, args, kwargs, result)
            except Exception:  # noqa: BLE001
                pass

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                with tracer.span(name, _enter(args, kwargs)) as record:
                    result = await original(*args, **kwargs)
                    _leave(record, args, kwargs, result)
                    return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with tracer.span(name, _enter(args, kwargs)) as record:
                    result = original(*args, **kwargs)
                    _leave(record, args, kwargs, result)
                    return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- output --------------------------------------------------------
    def flush(self) -> None:
        if self.out_dir is None or not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
        self.spans = []


# ----------------------------------------------------------------------
# The layer entry points
# ----------------------------------------------------------------------
def _file_size(path: Any) -> Optional[int]:
    try:
        return os.path.getsize(path)
    except OSError:
        return None


def _arg(args, kwargs, index: int, key: str):
    if len(args) > index:
        return args[index]
    return kwargs.get(key)


def install_service_wrappers(tracer: Tracer) -> None:
    """Wrap the serve-stack and worker entry points (daemon processes)."""
    from repro.serve import daemon, journal, router, supervisor

    def job_of_record(args, kwargs):
        first = _arg(args, kwargs, 1, "job_id")
        if first is None:
            first = _arg(args, kwargs, 1, "request")
        if isinstance(first, dict):
            return first.get("job_id")
        return first

    for method in (
        "submitted",
        "leased",
        "completed",
        "failed",
        "rejected",
        "requeued",
        "moved",
    ):
        tracer.wrap(
            journal.JobJournal, method, "journal.append", job=job_of_record
        )
    def replayed_jobs(record, args, kwargs, result):
        record["attrs"]["jobs"] = len(args[0].state.jobs)

    tracer.wrap(
        journal.JobJournal, "__init__", "journal.replay", annotate=replayed_jobs
    )

    tracer.wrap(
        supervisor.Supervisor,
        "dispatch",
        "supervisor.dispatch",
        job=lambda a, k: _arg(a, k, 1, "request")["job_id"],
    )

    def poll_jobs(record, args, kwargs, events):
        record["attrs"]["jobs"] = [e.request["job_id"] for e in events]

    tracer.wrap(
        supervisor.Supervisor, "poll", "supervisor.poll", annotate=poll_jobs
    )

    def read_size(record, args, kwargs, result):
        record["attrs"]["bytes"] = _file_size(_arg(args, kwargs, 0, "path"))
        record["attrs"]["verdict"] = result[1]

    def result_job(args, kwargs):
        return Path(str(_arg(args, kwargs, 0, "path"))).stem

    # ``read_result`` is called both through the supervisor module (the
    # reap path) and through the name the daemon imported (the fetch
    # path); both bindings get the same wrapper.
    tracer.wrap(
        supervisor,
        "read_result",
        "supervisor.read_result",
        job=result_job,
        annotate=read_size,
    )
    daemon.read_result = supervisor.read_result

    def write_size(record, args, kwargs, result):
        record["attrs"]["bytes"] = _file_size(_arg(args, kwargs, 0, "path"))

    tracer.wrap(
        supervisor,
        "_write_result",
        "supervisor.result_write",
        job=lambda a, k: _arg(a, k, 1, "payload").get("job_id"),
        annotate=write_size,
    )

    def worker_kind(record, args, kwargs, result):
        record["attrs"]["kind"] = _arg(args, kwargs, 0, "request")["kind"]

    tracer.wrap(
        supervisor,
        "_worker_entry",
        "worker.job",
        job=lambda a, k: _arg(a, k, 0, "request")["job_id"],
        annotate=worker_kind,
    )

    def admit_job(record, args, kwargs, response):
        record["job"] = response.get("job_id")
        record["attrs"]["status"] = response.get("status")

    tracer.wrap(daemon.ServeDaemon, "admit", "daemon.admit", annotate=admit_job)
    tracer.wrap(daemon.ServeDaemon, "tick", "daemon.tick")

    tracer.wrap(
        router.FleetRouter,
        "route",
        "router.route",
        job=lambda a, k: _arg(a, k, 1, "request").get("job_id"),
    )
    tracer.wrap(
        router.FleetRouter,
        "fetch",
        "router.fetch",
        job=lambda a, k: _arg(a, k, 1, "raw").get("job_id"),
    )
    install_library_wrappers(tracer)


def install_library_wrappers(tracer: Tracer) -> None:
    """Wrap the counterfactual-engine entry points (workers, in-process)."""
    import repro.sweep
    import repro.sweep.flowsim
    from repro.core.iboxml import IBoxMLModel
    from repro.core.iboxnet import IBoxNetModel
    from repro.runtime.cache import ProfileCache

    def fit_hit(record, args, kwargs, result):
        record["attrs"]["hit"] = bool(result[1])

    tracer.wrap(ProfileCache, "fit_cached", "cache.fit", annotate=fit_hit)

    def sim_packets(record, args, kwargs, trace):
        record["attrs"]["protocol"] = str(_arg(args, kwargs, 1, "protocol"))
        record["attrs"]["packets"] = int(trace.packets_sent)

    tracer.wrap(
        IBoxNetModel, "simulate", "emulator.simulate", annotate=sim_packets
    )

    def sweep_count(record, args, kwargs, fleet):
        record["attrs"]["scenarios"] = int(fleet.n_scenarios)

    tracer.wrap(
        repro.sweep.flowsim,
        "run_scenarios",
        "sweep.run_scenarios",
        annotate=sweep_count,
    )
    # ``sweep_worker`` imports the name from the package at call time.
    repro.sweep.run_scenarios = repro.sweep.flowsim.run_scenarios

    def unroll_count(record, args, kwargs, delays):
        record["attrs"]["packets"] = int(len(delays))

    tracer.wrap(
        IBoxMLModel,
        "predict_delays",
        "iboxml.predict_delays",
        annotate=unroll_count,
    )
    tracer.wrap(IBoxMLModel, "predict_trace", "iboxml.predict_trace")


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def load_spans(trace_dir: Path) -> List[Dict[str, Any]]:
    spans: List[Dict[str, Any]] = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                spans.append(json.loads(line))
    return spans


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _covered(interval: tuple, children: Iterable[tuple]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in children if b > lo and a < hi
    )
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[str, List[tuple]] = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered((span["start"], span["end"]), children.get(span["id"], ()))
        for span in spans
    }


def self_time_by_layer(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Total self time (seconds) per layer name prefix."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        layer = layer_of(span["name"])
        totals[layer] = totals.get(layer, 0.0) + own[span["id"]]
    return totals
