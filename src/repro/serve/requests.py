"""Job requests: the JSONL wire format the serve daemon accepts.

A request is one JSON object per line, over the spool directory or the
unix socket::

    {"kind": "simulate", "params": {...}, "label": "...",
     "timeout_sec": 30.0, "class": "interactive", "job_id": "..."}

Only ``kind`` (+ JSON-able ``params``) is required.  ``job_id`` defaults
to the content hash of kind+params — the same identity scheme as
:mod:`repro.runtime.jobs`, which is what makes resubmission after a
crash idempotent.  ``timeout_sec`` is the client's deadline and is
propagated into :attr:`JobSpec.timeout_sec`; ``class`` groups jobs for
the circuit breaker (default: the kind).
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Optional

from repro.runtime.jobs import JobSpec, content_hash


class BadRequest(ValueError):
    """A request the daemon cannot admit (malformed kind/params/...)."""


def resolve_worker(kind: str) -> Callable[[JobSpec], Any]:
    """The worker callable for a request kind.

    The stock batch workers (fit/simulate/experiment) plus the chaos
    drill worker, so fault campaigns can exercise the service with
    controllable sleep/crash/hang jobs.
    """
    from repro.guard.chaos import chaos_worker
    from repro.runtime.batch import worker_for

    if kind == "chaos":
        return chaos_worker
    return worker_for(kind)


def known_kinds() -> tuple:
    from repro.runtime.batch import WORKER_KINDS

    return (*WORKER_KINDS, "chaos")


#: What the ``fit``/``simulate``/``sweep``/``chaos`` workers import at
#: call time, directly or deep inside the library.  ``experiment`` jobs
#: are left out on purpose: they pull in scipy and run for minutes.
_WORKER_IMPORTS = (
    "numpy.ma",  # numpy imports it lazily inside np.percentile
    "numpy.random",  # likewise, on first np.random.default_rng
    "repro.core.iboxnet",
    "repro.guard.repair",  # trace.io imports it when loading a trace
    "repro.protocols",
    "repro.sweep",
    "repro.trace.metrics",
)


def preload_workers() -> None:
    """Import the whole import closure of every stock job kind.

    The daemon calls this before it reports ready, so the workers it
    forks inherit every module already loaded instead of each paying
    for the imports inside its job's latency.
    """
    for kind in known_kinds():
        resolve_worker(kind)
    for name in _WORKER_IMPORTS:
        importlib.import_module(name)


def normalize_request(
    raw: Any, default_timeout_sec: Optional[float] = None
) -> Dict[str, Any]:
    """Validate + canonicalise one raw request object.

    Raises :class:`BadRequest` on anything that cannot become a
    :class:`JobSpec`; the daemon turns that into a ``rejected: invalid``
    response instead of dying.
    """
    if not isinstance(raw, dict):
        raise BadRequest(f"request must be a JSON object, got {type(raw).__name__}")
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in known_kinds():
        raise BadRequest(f"unknown job kind: {kind!r}")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise BadRequest("params must be a JSON object")
    timeout = raw.get("timeout_sec", default_timeout_sec)
    if timeout is not None:
        try:
            timeout = float(timeout)
        except (TypeError, ValueError):
            raise BadRequest(f"timeout_sec must be a number: {timeout!r}")
        if timeout <= 0:
            raise BadRequest("timeout_sec must be positive")
    job_id = raw.get("job_id") or content_hash(kind, params)
    label = raw.get("label") or f"{kind}:{params.get('trace_path', job_id[:12])}"
    job_class = raw.get("class") or kind
    request = {
        "kind": kind,
        "params": params,
        "job_id": str(job_id),
        "label": str(label),
        "timeout_sec": timeout,
        "class": str(job_class),
    }
    if raw.get("requeue"):
        # Fleet-internal: the manager flags handoff-recovery
        # resubmissions so a ``moved`` tombstone does not dedupe them.
        # The daemon strips the flag at admission; it is never journaled.
        request["requeue"] = True
    return request


def request_to_spec(request: Dict[str, Any]) -> JobSpec:
    """A normalised request as the executor-facing :class:`JobSpec`."""
    return JobSpec(
        kind=request["kind"],
        job_id=request["job_id"],
        label=request["label"],
        params=request["params"],
        timeout_sec=request.get("timeout_sec"),
    )
