"""The ``repro serve`` daemon: a crash-tolerant simulation service.

One long-running process that accepts fit/simulate/experiment job
requests (JSONL via a watched spool directory and/or a unix socket),
journals every admission decision to a durable WAL before acting on it,
and runs jobs through a supervised process-per-lease worker set.

The invariants (DESIGN.md §10):

* **admit-then-act** — a request is fsync'd to the journal as
  ``submitted`` before it can run, so a SIGKILL never loses an admitted
  job;
* **at-least-once execution, exactly-once completion** — on restart the
  journal is replayed and every non-terminal job is requeued; jobs with
  a ``completed`` record are never run again.  Effects are idempotent
  (content-hashed ids, atomic result writes, the profile cache), so a
  re-run lease converges to the same artifacts;
* **bounded everything** — the admission queue sheds (``rejected:
  overloaded`` + retry-after hint) instead of growing, per-class
  circuit breakers short-circuit *new* work of repeatedly failing
  specs at admission (``rejected: circuit_open`` + retry-after), and
  crashed worker slots restart under exponential backoff;
* **rejections are retryable, acceptances are kept** — a ``rejected``
  job was never run, so resubmitting the same job_id after the
  retry-after hint re-admits it (journaled ``requeued: resubmitted``).
  The one exception is a fleet ``moved:<shard>`` tombstone: that job
  now belongs to another shard, so resubmission answers ``duplicate``
  (only the fleet manager's ``requeue``-flagged recovery resubmission
  may revive it here).  Conversely a job the client was told was
  ``accepted`` is never
  terminally rejected later: if its class breaker is open at dispatch
  time the lease is deferred until the breaker half-opens;
* **graceful drain** — SIGTERM/SIGINT stop intake, let in-flight
  leases finish (up to ``drain_timeout_sec``, then checkpoint/requeue),
  flush the journal, write a complete run manifest, and exit 0.

Embedding the daemon (the CLI's ``repro serve run`` does exactly
this)::

    from pathlib import Path
    from repro.serve import ServeConfig, ServeDaemon

    config = ServeConfig(
        state_dir=Path("/tmp/ibox-serve"),
        socket_path=Path("/tmp/ibox-serve/serve.sock"),
        workers=2,
        queue_limit=64,
        max_runtime_sec=5.0,   # drain and return on its own (demo/CI)
    )
    exit_code = ServeDaemon(config).run()   # blocks until drained
    assert exit_code == 0

While it runs, clients reach it with
:func:`repro.serve.submit_via_socket`; afterwards
:func:`repro.serve.serve_status` replays the journal.  For N of these
behind one consistent-hashing socket, see :mod:`repro.serve.fleet`.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro import obs
from repro.obs.live import (
    LIVE_VERSION,
    FlightRecorder,
    SLO,
    SLOTracker,
    SnapshotFlusher,
)
from repro.obs.profile import SamplingProfiler
from repro.runtime.locks import ProcessLock
from repro.runtime.manifest import RunManifest, new_run_id
from repro.serve.breaker import CircuitBreaker
from repro.serve.journal import JobJournal
from repro.serve.queue import AdmissionQueue
from repro.serve.requests import BadRequest, normalize_request, preload_workers
from repro.serve.supervisor import (
    LeaseEvent,
    Supervisor,
    quarantine_result,
    read_result,
)
from repro.serve.transport import (
    MAX_FRAME_BYTES,
    Endpoint,
    bound_endpoint,
    encode_frame,
    frame_too_large_response,
    parse_endpoint,
    read_frames,
)
from repro.trace.io import PathLike

#: File next to ``serve.pid`` naming the daemon's actual bound intake
#: endpoint (``unix:<path>`` / ``tcp:<host>:<port>`` — the latter with
#: the real port when ``tcp:...:0`` asked for an ephemeral one).
#: Clients and the fleet manager read it instead of guessing.
ENDPOINT_FILE = "serve.endpoint"

_log = obs.get_logger("repro.serve")

#: A lease may crash-requeue at most this many times before the job is
#: recorded ``failed`` (WorkerCrashLoop) instead of looping forever.
DEFAULT_MAX_LEASES = 3

#: Cap on the daemon's in-memory trace buffer (a service alive for days
#: must not grow it without bound; the flight ring keeps the recent tail).
EVENT_BUFFER_MAXLEN = 4096

_CLASS_SANITIZE_RE = re.compile(r"[^a-z0-9_]")


def _metric_class(job_class: str) -> str:
    """A job class as a valid metric-name segment."""
    cleaned = _CLASS_SANITIZE_RE.sub("_", job_class.lower())
    if not cleaned or not cleaned[0].isalpha():
        cleaned = f"c{cleaned}"
    return cleaned


@dataclass
class ServeConfig:
    """Operational knobs for one daemon."""

    state_dir: Path
    spool_dir: Optional[Path] = None
    socket_path: Optional[Path] = None
    #: Intake endpoint spec: ``unix:<path>`` or ``tcp:<host>:<port>``
    #: (``tcp:...:0`` binds an ephemeral port, published in
    #: ``<state>/serve.endpoint``).  Mutually exclusive with
    #: ``socket_path``, which remains as unix-only sugar.
    bind: Optional[str] = None
    workers: int = 2
    queue_limit: int = 64
    poll_interval: float = 0.05
    default_timeout_sec: Optional[float] = None
    drain_timeout_sec: float = 15.0
    max_leases: int = DEFAULT_MAX_LEASES
    breaker_threshold: int = 3
    breaker_cooldown_sec: float = 30.0
    #: Exit gracefully once the service has been completely idle (no
    #: queue, no leases, no intake) for this long.  None = run forever.
    idle_exit_sec: Optional[float] = None
    #: Hard wall-clock cap on the daemon's lifetime (safety for CI).
    max_runtime_sec: Optional[float] = None
    fsync: bool = True
    #: The serve daemon is the long-running "serve era" process: it
    #: self-enables telemetry so the live snapshot/flight-recorder
    #: machinery has real data.  Set False to run dark.
    live_obs: bool = True
    #: Cadence of the background snapshot flusher (state/obs/metrics.json
    #: + metrics.prom); readers treat anything older than 2× this stale.
    snapshot_interval_sec: float = 2.0
    #: Declared per-class SLOs (latency objective + error budget),
    #: evaluated by the flusher each flush window.
    slos: Sequence[SLO] = ()
    #: Attach the wall-clock sampling profiler for the daemon's lifetime;
    #: collapsed stacks land in state/obs/profile.collapsed on drain.
    profile: bool = False
    profile_interval_sec: float = 0.01
    #: Flight-recorder ring capacity (recent spans/events/metric deltas).
    flight_ring: int = 512
    #: Per-frame byte cap on the intake protocol; an oversized frame is
    #: answered ``rejected: frame_too_large`` and the stream resyncs.
    max_frame_bytes: int = MAX_FRAME_BYTES
    #: Per-connection idle deadline: a client that sends no byte (or
    #: stops reading its responses) for this long is evicted so it
    #: cannot pin an intake thread (slow-loris hardening).
    intake_idle_sec: float = 60.0
    #: Retry-after hint handed out while the daemon is shedding with
    #: ``disk_full`` (an OSError/ENOSPC on a WAL or result write path).
    disk_retry_after_sec: float = 5.0
    #: How often a shedding daemon probes the disk (a small fsync'd
    #: write) to decide the fault has cleared.
    disk_probe_interval_sec: float = 1.0

    def __post_init__(self):
        self.state_dir = Path(self.state_dir)
        if self.spool_dir is not None:
            self.spool_dir = Path(self.spool_dir)
        if self.socket_path is not None and self.bind is not None:
            raise ValueError("pass either socket_path or bind, not both")
        if self.bind is not None:
            self.endpoint: Optional[Endpoint] = parse_endpoint(self.bind)
        elif self.socket_path is not None:
            self.socket_path = Path(self.socket_path)
            self.endpoint = parse_endpoint(self.socket_path)
        else:
            self.endpoint = None
        if self.endpoint is not None and self.endpoint.scheme == "unix":
            self.socket_path = self.endpoint.path
        if self.spool_dir is None and self.endpoint is None:
            raise ValueError("need a spool dir and/or an intake endpoint")


class ServeDaemon:
    """See the module docstring; drive with :meth:`run` (or, in tests,
    :meth:`tick` for deterministic single steps)."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.state_dir = config.state_dir
        self.state_dir.mkdir(parents=True, exist_ok=True)
        # Enable telemetry *before* any instrument is created: configure
        # swaps in a fresh registry, so doing it later would orphan
        # counters.  An already-enabled state (CLI --metrics-out, tests)
        # is left untouched.
        if config.live_obs and not obs.enabled():
            obs.configure(enabled=True)
        if obs.enabled():
            obs.bound_event_buffer(EVENT_BUFFER_MAXLEN)
        self.obs_dir = self.state_dir / "obs"
        self.recorder = FlightRecorder(
            self.obs_dir, ring_size=config.flight_ring
        )
        if obs.enabled():
            obs.set_event_sink(self.recorder.record)
        self.slo_tracker = (
            SLOTracker(list(config.slos)) if config.slos else None
        )
        self.flusher = SnapshotFlusher(
            self.obs_dir,
            interval_sec=config.snapshot_interval_sec,
            service_stats=self.live_service_stats,
            slo_tracker=self.slo_tracker,
            recorder=self.recorder,
        )
        self.profiler = (
            SamplingProfiler(interval_sec=config.profile_interval_sec)
            if config.profile
            else None
        )
        self._lock_file = ProcessLock(self.state_dir / "serve.lock")
        if not self._lock_file.acquire():
            raise RuntimeError(
                f"another serve daemon holds {self.state_dir}/serve.lock"
            )
        self.journal = JobJournal(self.state_dir / "journal", fsync=config.fsync)
        self.queue = AdmissionQueue(limit=config.queue_limit)
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            cooldown_sec=config.breaker_cooldown_sec,
            on_open=self._on_breaker_open,
        )
        self.supervisor = Supervisor(
            workers=config.workers, results_dir=self.state_dir / "results"
        )
        self._admission = threading.Lock()
        #: Already-admitted jobs whose class breaker was open at
        #: dispatch time, parked as ``(ready_at_monotonic, request)``
        #: until the breaker half-opens — an accepted job is never
        #: terminally rejected by the breaker.
        self._deferred: List[tuple] = []
        self.draining = False
        #: Degraded admission state (DESIGN.md §15): ``"disk_full"``
        #: after an OSError/ENOSPC on a WAL/result write path.  While
        #: set, admission answers ``rejected: disk_full`` with a
        #: retry-after hint and dispatch pauses; a periodic probe write
        #: clears it once the disk accepts durable writes again.
        self._shedding: Optional[str] = None
        self._disk_probe_at = 0.0
        #: Lease outcomes whose journal append hit the bad disk, parked
        #: for replay once shedding clears (the result files already
        #: exist, so nothing is lost — only not yet durable in the WAL).
        self._unjournaled: List[LeaseEvent] = []
        self._stop_signal: Optional[int] = None
        self._last_activity = time.monotonic()
        self._started_mono = time.monotonic()
        self._started_perf = time.perf_counter()
        self._started_iso = datetime.now(timezone.utc).isoformat()
        self._server_socket: Optional[socket.socket] = None
        self._socket_thread: Optional[threading.Thread] = None
        #: The actually-bound intake endpoint (set by ``_start_socket``;
        #: resolves ``tcp:...:0`` to the kernel-assigned port).
        self.bound: Optional[Endpoint] = None
        self.recovered = self._recover()

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def _recover(self) -> int:
        """Requeue every non-terminal journaled job; returns the count.

        Three refinements over a plain requeue (DESIGN.md §15):

        * **corruption surfacing** — a journal that replayed with
          corrupt records gets a flight-recorder dump naming the
          quarantined segments and suspect jobs;
        * **suspect re-verification** — a job named by a corrupt record
          is only believed ``completed`` if its result artifact's
          checksum holds; otherwise the completion is voided
          (``requeued: result_corrupt_reverify``) and the job re-runs;
        * **artifact repair** — a non-terminal job whose valid
          checksummed result already exists (the SIGKILL landed between
          result-write and journal-append) is journaled ``completed``
          from the artifact instead of being re-executed.
        """
        state = self.journal.state
        if state.corrupt_records:
            self.recorder.dump(
                "journal_corruption",
                {
                    "corrupt_records": state.corrupt_records,
                    "segments": list(state.corrupt_segments),
                    "suspect_jobs": sorted(state.suspect_jobs),
                },
                force=True,
            )
        for job_id in sorted(state.suspect_jobs):
            job = state.jobs.get(job_id)
            if job is None or job.status != "completed":
                continue  # non-terminal suspects requeue below anyway
            path = self.supervisor.result_path_for(job_id)
            payload, verdict = read_result(path)
            if verdict == "valid" and payload.get("status") == "ok":
                continue  # the artifact vouches for the completion
            if verdict == "corrupt":
                quarantine_result(path)
            self.journal.requeued(job_id, "result_corrupt_reverify")
            obs.metrics().counter("serve.read_repairs").inc()
            _log.warning(
                "serve.suspect_completion_voided",
                job_id=job_id,
                result_verdict=verdict,
            )
        repaired = 0
        orphans = self.journal.state.to_requeue()
        requeued = 0
        for record in orphans:
            job_id = record.request["job_id"]
            payload, verdict = read_result(
                self.supervisor.result_path_for(job_id)
            )
            if verdict == "valid" and payload.get("status") == "ok":
                self.journal.completed(
                    job_id,
                    duration_sec=float(payload.get("duration_sec") or 0.0),
                    cache_hit=bool(payload.get("cache_hit")),
                )
                repaired += 1
                continue
            if record.status == "leased":
                # Its lease died with the previous daemon: note the
                # requeue so the journal reflects reality again.
                self.journal.requeued(job_id, "orphaned_lease")
            self.queue.push(record.request, force=True)
            requeued += 1
        if repaired:
            obs.metrics().counter("serve.repaired_from_artifact").inc(repaired)
        if requeued or repaired:
            obs.metrics().counter("serve.recovered").inc(requeued)
            _log.info(
                "serve.recovered",
                jobs=requeued,
                repaired_from_artifact=repaired,
                state_dir=str(self.state_dir),
            )
        return requeued

    # ------------------------------------------------------------------
    # Live telemetry (snapshot flusher / stats verb / flight recorder)
    # ------------------------------------------------------------------
    def _on_breaker_open(self, job_class: str, failures: int) -> None:
        self.recorder.dump(
            "breaker_open",
            {"job_class": job_class, "consecutive_failures": failures},
        )

    def live_service_stats(self) -> Dict[str, Any]:
        """Process-local service state embedded in every live snapshot."""
        in_flight: Dict[str, int] = {}
        for lease in self.supervisor.in_flight():
            cls = lease.request.get("class") or lease.request["kind"]
            in_flight[cls] = in_flight.get(cls, 0) + 1
        now = time.time()
        journal = {
            "records": self.journal.appended_records,
            "lag_sec": (
                round(now - self.journal.last_append_ts, 3)
                if self.journal.last_append_ts is not None
                else None
            ),
            "segments": len(self.journal.segments()),
            "torn_records": self.journal.state.torn_records,
            "corrupt_records": self.journal.state.corrupt_records,
        }
        return {
            "queue_depth": len(self.queue),
            "queue_limit": self.config.queue_limit,
            "workers": self.config.workers,
            "in_flight": in_flight,
            "deferred": len(self._deferred),
            "draining": self.draining,
            "shedding": self._shedding,
            "uptime_sec": round(time.monotonic() - self._started_mono, 3),
            "journal": journal,
            "breakers": self.breaker.states(),
            "counts": self.journal.state.counts(),
        }

    def _stats_payload(self) -> Dict[str, Any]:
        """A full live snapshot, same shape as the flushed metrics.json."""
        payload = {
            "v": LIVE_VERSION,
            "ts": time.time(),
            "pid": os.getpid(),
            "interval_sec": self.config.snapshot_interval_sec,
            "service": self.live_service_stats(),
            "metrics": obs.metrics_snapshot()
            or {"counters": {}, "gauges": {}, "histograms": {}},
        }
        if self.slo_tracker is not None:
            payload["slo"] = self.slo_tracker.status()
        return payload

    def _handle_verb(self, raw: Dict[str, Any]) -> Dict[str, Any]:
        """Answer a control verb frame from the socket (not a job)."""
        verb = str(raw.get("verb"))
        if verb == "stats":
            return {"status": "ok", "stats": self._stats_payload()}
        if verb == "health":
            return {
                "status": "ok",
                "health": {
                    "pid": os.getpid(),
                    "draining": self.draining,
                    "shedding": self._shedding,
                    "uptime_sec": round(
                        time.monotonic() - self._started_mono, 3
                    ),
                    "queue_depth": len(self.queue),
                    "busy_workers": self.supervisor.busy,
                },
            }
        if verb == "fetch":
            return self._handle_fetch(raw)
        return {
            "status": "rejected",
            "reason": "invalid",
            "detail": (
                f"unknown verb {verb!r} (use 'stats', 'health' or 'fetch')"
            ),
        }

    # ------------------------------------------------------------------
    # Result fetch (+ read-repair)
    # ------------------------------------------------------------------
    def _retry_hint(self) -> float:
        return max(self.config.poll_interval * 4, 0.2)

    def _handle_fetch(self, raw: Dict[str, Any]) -> Dict[str, Any]:
        """The ``fetch`` verb: return a job's verified result by id.

        A completed job's result file is checksum-verified on every
        read; a corrupt (or missing) artifact is never served — it is
        quarantined, the journaled completion voided, and the job
        re-executed through the normal queue (read-repair), with the
        client told ``pending: repairing`` so a ``--wait`` fetch
        converges on the repaired result.
        """
        job_id = raw.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            return {
                "status": "rejected",
                "reason": "invalid",
                "detail": "fetch needs a string job_id",
            }
        job = self.journal.state.jobs.get(job_id)
        if job is None:
            return {"status": "not_found", "job_id": job_id}
        if job.status == "completed":
            path = self.supervisor.result_path_for(job_id)
            payload, verdict = read_result(path)
            if verdict == "valid":
                obs.metrics().counter("serve.fetched").inc()
                return {
                    "status": "ok",
                    "job_id": job_id,
                    "state": "completed",
                    "result": payload,
                    "duration_sec": job.duration_sec,
                    "cache_hit": job.cache_hit,
                }
            return self._read_repair(job_id, path, verdict)
        if job.status == "failed":
            return {
                "status": "failed",
                "job_id": job_id,
                "state": "failed",
                "error": job.error,
            }
        if job.status == "rejected":
            response = {
                "status": "rejected",
                "job_id": job_id,
                "state": "rejected",
                "reason": job.reason,
            }
            if job.moved_target is not None:
                response["state"] = "moved"
                response["moved_to"] = job.moved_target
            return response
        return {
            "status": "pending",
            "job_id": job_id,
            "state": job.status,
            "retry_after_sec": self._retry_hint(),
        }

    def _read_repair(
        self, job_id: str, path: Path, verdict: str
    ) -> Dict[str, Any]:
        """Void a completion whose artifact failed its checksum and
        re-execute the job (DESIGN.md §15)."""
        with self._admission:
            job = self.journal.state.jobs.get(job_id)
            if job is not None and job.status == "completed":
                if verdict == "corrupt":
                    quarantine_result(path)
                obs.metrics().counter("serve.read_repairs").inc()
                self.recorder.dump(
                    "result_corrupt",
                    {"job_id": job_id, "verdict": verdict},
                )
                _log.warning(
                    "serve.read_repair", job_id=job_id, result_verdict=verdict
                )
                try:
                    self.journal.requeued(job_id, f"result_corrupt_{verdict}")
                except OSError as exc:
                    self._enter_disk_shedding("journal.requeued", exc)
                    return self._disk_full_response(job_id)
                self.queue.push(job.request, force=True)
        return {
            "status": "pending",
            "job_id": job_id,
            "state": "repairing",
            "retry_after_sec": self._retry_hint(),
        }

    # ------------------------------------------------------------------
    # Disk-full shedding (DESIGN.md §15)
    # ------------------------------------------------------------------
    def _disk_full_response(self, job_id: Optional[str]) -> Dict[str, Any]:
        obs.metrics().counter("serve.disk_full_rejections").inc()
        response = {
            "status": "rejected",
            "reason": "disk_full",
            "retry_after_sec": self.config.disk_retry_after_sec,
        }
        if job_id:
            response["job_id"] = job_id
        return response

    def _enter_disk_shedding(self, op: str, exc: OSError) -> None:
        """Classify a WAL/result write fault into the degraded state."""
        if self._shedding != "disk_full":
            self._shedding = "disk_full"
            obs.metrics().counter("serve.disk_full_entered").inc()
            obs.metrics().gauge("serve.shedding").set(1)
            self.recorder.dump(
                "disk_full",
                {
                    "op": op,
                    "errno": exc.errno,
                    "message": str(exc),
                },
                force=True,
            )
            _log.error("serve.disk_full", op=op, error=str(exc))
        self._disk_probe_at = (
            time.monotonic() + self.config.disk_probe_interval_sec
        )

    def _probe_disk(self) -> bool:
        """While shedding, test the disk with a durable write; True once
        healthy (and clears the state).  True immediately if not
        shedding; False while the probe interval hasn't elapsed."""
        if self._shedding != "disk_full":
            return True
        now = time.monotonic()
        if now < self._disk_probe_at:
            return False
        self._disk_probe_at = now + self.config.disk_probe_interval_sec
        probe = self.state_dir / ".disk_probe"
        try:
            with open(probe, "w", encoding="utf-8") as fh:
                fh.write("x" * 4096)
                fh.flush()
                os.fsync(fh.fileno())
            probe.unlink(missing_ok=True)
            # Drop any partial record a failed flush buffered, then
            # prove the journal itself accepts durable writes again.
            self.journal.reopen()
            self.journal.flush()
        except OSError:
            return False
        self._shedding = None
        obs.metrics().counter("serve.disk_full_cleared").inc()
        obs.metrics().gauge("serve.shedding").set(0)
        _log.info("serve.disk_full_cleared")
        return True

    # ------------------------------------------------------------------
    # Admission (spool scanner and socket threads both land here)
    # ------------------------------------------------------------------
    def admit(self, raw: Any) -> Dict[str, Any]:
        """Admit one raw request object; returns the response dict."""
        try:
            request = normalize_request(
                raw, default_timeout_sec=self.config.default_timeout_sec
            )
        except BadRequest as exc:
            obs.metrics().counter("serve.invalid").inc()
            _log.warning("serve.invalid_request", error=str(exc))
            return {"status": "rejected", "reason": "invalid", "detail": str(exc)}
        with self._admission:
            self._last_activity = time.monotonic()
            # Transport-only flag (never journaled): the fleet manager
            # marks its handoff-recovery resubmissions with it so the
            # moved-tombstone dedupe below lets them through.
            requeue_moved = bool(request.pop("requeue", False))
            job_id = request["job_id"]
            known = self.journal.state.jobs.get(job_id)
            # A *rejected* job (shed, or short-circuited by an open
            # breaker) was never run: resubmitting it after the
            # retry-after hint must be able to succeed, so only
            # pending/leased/completed/failed states dedupe.
            if known is not None and known.status != "rejected":
                return {
                    "status": "duplicate",
                    "job_id": job_id,
                    "state": known.status,
                }
            if (
                known is not None
                and known.moved_target is not None
                and not requeue_moved
            ):
                # A ``moved:<shard>`` tombstone is a rejection in the
                # journal but not a retryable one: the fleet handed this
                # job to another shard, and re-admitting it here would
                # race the new owner and break fleet-wide exactly-once
                # completion.
                return {
                    "status": "duplicate",
                    "job_id": job_id,
                    "state": "moved",
                    "moved_to": known.moved_target,
                }
            resubmit = known is not None
            if self.draining:
                return {
                    "status": "rejected",
                    "job_id": job_id,
                    "reason": "draining",
                    "retry_after_sec": self.config.drain_timeout_sec,
                }
            if self._shedding == "disk_full" and not self._probe_disk():
                # Degraded state: the WAL cannot take durable writes, so
                # no admission promise can be made — shed with a hint
                # instead of crashing (or lying).
                return self._disk_full_response(job_id)
            try:
                return self._admit_locked(request, job_id, resubmit)
            except OSError as exc:
                self._enter_disk_shedding("journal.append", exc)
                known = self.journal.state.jobs.get(job_id)
                if known is not None and not known.terminal:
                    # The ``submitted`` record reached the disk before
                    # the fault: the job is durably admitted, so honour
                    # that promise and queue it rather than shed it.
                    self.queue.push(request, force=True)
                    return {"status": "accepted", "job_id": job_id}
                return self._disk_full_response(job_id)

    def _admit_locked(
        self, request: Dict[str, Any], job_id: str, resubmit: bool
    ) -> Dict[str, Any]:
        """Admission tail (journal writes + queueing); caller holds the
        admission lock and handles OSError → disk-full shedding."""
        job_class = request.get("class") or request["kind"]
        cooldown = self.breaker.remaining_cooldown(job_class)
        if cooldown > 0:
            # Short-circuit *new* work of a repeatedly failing
            # class at the door — never promise "accepted" for a
            # job the breaker would only block at dispatch time.
            hint = round(cooldown, 1)
            if not resubmit:
                self.journal.submitted(request)
            self.journal.rejected(
                job_id, "circuit_open", retry_after_sec=hint
            )
            obs.metrics().counter("serve.circuit_rejected").inc()
            _log.warning(
                "serve.circuit_open",
                job_id=job_id,
                job_class=job_class,
                retry_after_sec=hint,
            )
            return {
                "status": "rejected",
                "job_id": job_id,
                "reason": "circuit_open",
                "retry_after_sec": hint,
            }
        if self.queue.full:
            hint = self.queue.retry_after_hint(self.config.workers)
            if not resubmit:
                self.journal.submitted(request)
            self.journal.rejected(job_id, "overloaded", retry_after_sec=hint)
            obs.metrics().counter("serve.shed").inc()
            _log.warning(
                "serve.shed",
                job_id=job_id,
                queue_depth=len(self.queue),
                retry_after_sec=hint,
            )
            return {
                "status": "rejected",
                "job_id": job_id,
                "reason": "overloaded",
                "retry_after_sec": hint,
            }
        if resubmit:
            self.journal.requeued(job_id, "resubmitted")
        else:
            self.journal.submitted(request)
        self.queue.push(request)
        obs.metrics().counter("serve.admitted").inc()
        return {"status": "accepted", "job_id": job_id}

    # ------------------------------------------------------------------
    # Spool intake
    # ------------------------------------------------------------------
    def _intake_spool(self) -> int:
        spool = self.config.spool_dir
        if spool is None or self.draining or not spool.exists():
            return 0
        admitted = 0
        done = spool / "done"
        for path in sorted(spool.glob("*.jsonl")):
            try:
                lines = path.read_text().splitlines()
            except OSError:
                continue  # mid-rename; next tick gets it
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                try:
                    raw = json.loads(line)
                except json.JSONDecodeError:
                    obs.metrics().counter("serve.invalid").inc()
                    _log.warning("serve.invalid_spool_line", file=path.name)
                    continue
                response = self.admit(raw)
                if response["status"] == "accepted":
                    admitted += 1
                elif response.get("reason") == "disk_full":
                    # Leave the spool file in place: it will be
                    # re-scanned (and deduped) once the disk clears.
                    return admitted
            # Journal writes above are durable; only then is the spool
            # file retired (a crash in between just re-reads it, and the
            # journal dedupes every already-submitted job_id).
            done.mkdir(parents=True, exist_ok=True)
            os.replace(path, done / path.name)
        return admitted

    # ------------------------------------------------------------------
    # Socket intake (unix or TCP, same framed JSONL protocol)
    # ------------------------------------------------------------------
    def _start_socket(self) -> None:
        endpoint = self.config.endpoint
        if endpoint is None:
            return
        server = endpoint.listen(backlog=8)
        server.settimeout(0.2)
        self.bound = bound_endpoint(server, endpoint)
        self._server_socket = server
        # Publish the *actual* endpoint (ephemeral TCP ports resolved)
        # so clients and the fleet manager can find us.
        endpoint_file = self.state_dir / ENDPOINT_FILE
        tmp = endpoint_file.with_suffix(".tmp")
        tmp.write_text(self.bound.describe() + "\n")
        os.replace(tmp, endpoint_file)

        def _serve_connections():
            while self._server_socket is not None:
                try:
                    conn, _ = server.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                threading.Thread(
                    target=self._handle_connection, args=(conn,), daemon=True
                ).start()

        self._socket_thread = threading.Thread(
            target=_serve_connections, daemon=True
        )
        self._socket_thread.start()

    def _handle_connection(self, conn: socket.socket) -> None:
        """One intake connection: framed JSONL in, one response per frame.

        Hardened per DESIGN.md §14: a per-connection idle deadline (the
        socket timeout bounds reads *and* the response writes, so both
        a slow-loris sender and a client that stops reading are
        evicted, counted, and closed), a per-frame byte cap answered
        with ``rejected: frame_too_large`` (the assembler resyncs at
        the next newline, so the connection survives), and
        malformed-frame accounting.
        """
        config = self.config
        with conn:
            for kind, payload in read_frames(
                conn,
                max_bytes=config.max_frame_bytes,
                idle_timeout_sec=config.intake_idle_sec,
            ):
                if kind == "idle":
                    obs.metrics().counter("transport.idle_evicted").inc()
                    _log.warning(
                        "serve.intake_idle_evicted",
                        idle_sec=config.intake_idle_sec,
                    )
                    return
                if kind == "too_large":
                    response = frame_too_large_response(
                        config.max_frame_bytes
                    )
                    _log.warning(
                        "serve.frame_too_large", bytes=payload
                    )
                elif not payload.strip():
                    continue
                else:
                    try:
                        raw = json.loads(payload)
                    except json.JSONDecodeError:
                        obs.metrics().counter(
                            "transport.malformed_frames"
                        ).inc()
                        response = {
                            "status": "rejected",
                            "reason": "invalid",
                            "detail": "undecodable JSON frame",
                        }
                    else:
                        if isinstance(raw, dict) and "verb" in raw:
                            response = self._handle_verb(raw)
                        else:
                            response = self.admit(raw)
                try:
                    conn.sendall(encode_frame(response))
                except socket.timeout:
                    # The client stopped draining its responses: a
                    # slow consumer is as dangerous as a slow sender.
                    obs.metrics().counter(
                        "transport.slow_client_evicted"
                    ).inc()
                    _log.warning("serve.intake_slow_client_evicted")
                    return
                except OSError:
                    return

    def _stop_socket(self) -> None:
        server, self._server_socket = self._server_socket, None
        if server is not None:
            server.close()
        if self.config.endpoint is not None:
            self.config.endpoint.cleanup()
        (self.state_dir / ENDPOINT_FILE).unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Dispatch + lease outcomes
    # ------------------------------------------------------------------
    def _revive_deferred(self) -> None:
        """Move breaker-deferred jobs whose wait is up back in line."""
        if not self._deferred:
            return
        now = time.monotonic()
        ready = [req for at, req in self._deferred if at <= now]
        if not ready:
            return
        self._deferred = [(at, req) for at, req in self._deferred if at > now]
        with self._admission:
            for request in reversed(ready):
                self.queue.push(request, front=True, force=True)

    def _defer(self, request: Dict[str, Any], job_class: str) -> None:
        """Park an admitted job until its class breaker may half-open.

        The job stays ``pending`` in the journal — the daemon made an
        "accepted" promise and keeps it: the job waits out the cooldown
        (or a poll interval, when a half-open probe is already in
        flight) instead of being terminally rejected.
        """
        cooldown = self.breaker.remaining_cooldown(job_class)
        delay = cooldown if cooldown > 0 else max(self.config.poll_interval, 0.05)
        self._deferred.append((time.monotonic() + delay, request))
        obs.metrics().counter("serve.deferred").inc()
        _log.info(
            "serve.deferred",
            job_id=request["job_id"],
            job_class=job_class,
            delay_sec=round(delay, 3),
        )

    def _dispatch(self) -> None:
        if self._shedding is not None:
            # Don't start new work while the disk is sick: a lease that
            # completes now couldn't journal its completion anyway.
            return
        self._revive_deferred()
        while self.supervisor.free_slots() > 0:
            with self._admission:
                request = self.queue.pop()
            if request is None:
                return
            job_class = request.get("class") or request["kind"]
            if not self.breaker.allow(job_class):
                self._defer(request, job_class)
                continue
            state = self.journal.state.jobs.get(request["job_id"])
            lease_no = (state.attempts if state else 0) + 1
            lease = self.supervisor.dispatch(request, lease_no)
            if lease is None:  # every free slot is backing off
                with self._admission:
                    self.queue.push(request, front=True, force=True)
                return
            try:
                self.journal.leased(
                    request["job_id"], lease_no, pid=lease.process.pid
                )
            except OSError as exc:
                # The worker is already running; let it — its result
                # write is idempotent and the completion append will be
                # parked and retried once the disk clears.
                self._enter_disk_shedding("journal.leased", exc)
            self._last_activity = time.monotonic()

    def _observe_outcome(self, event: LeaseEvent, job_class: str) -> None:
        """Feed the per-class latency histogram and the SLO tracker."""
        obs.metrics().log_histogram(
            f"serve.latency_sec.{_metric_class(job_class)}"
        ).observe(event.duration_sec)
        if self.slo_tracker is not None:
            self.slo_tracker.observe(
                job_class,
                event.duration_sec,
                ok=event.outcome == "completed",
            )

    def _handle_event(self, event: LeaseEvent) -> None:
        job_id = event.request["job_id"]
        job_class = event.request.get("class") or event.request["kind"]
        self._last_activity = time.monotonic()
        self._observe_outcome(event, job_class)
        if event.outcome == "completed":
            result = event.result or {}
            self.journal.completed(
                job_id,
                duration_sec=event.duration_sec,
                cache_hit=bool(result.get("cache_hit")),
            )
            self.queue.observe_service_time(event.duration_sec)
            self.breaker.record_success(job_class)
            obs.metrics().counter("serve.completed").inc()
            return
        if event.outcome == "failed":
            error = (event.result or {}).get("error") or {
                "error_type": "UnknownFailure",
                "message": "worker wrote a failed result without an error",
            }
            self.journal.failed(job_id, error)
            self.breaker.record_failure(job_class)
            obs.metrics().counter("serve.failed").inc()
            return
        if event.outcome == "timeout":
            self.journal.failed(
                job_id,
                {
                    "error_type": "TimeoutError",
                    "message": (
                        f"lease exceeded its {event.request.get('timeout_sec')}s "
                        "deadline and was killed"
                    ),
                },
            )
            self.breaker.record_failure(job_class)
            obs.metrics().counter("serve.failed").inc()
            # The supervisor just SIGKILLed this lease — capture the
            # telemetry tail leading up to it.
            self.recorder.dump(
                "lease_killed",
                {
                    "job_id": job_id,
                    "job_class": job_class,
                    "timeout_sec": event.request.get("timeout_sec"),
                    "duration_sec": event.duration_sec,
                },
            )
            return
        # Crash: the worker died without a result.  Requeue (bounded).
        self.recorder.dump(
            "lease_crashed",
            {
                "job_id": job_id,
                "job_class": job_class,
                "exitcode": event.exitcode,
            },
        )
        self.breaker.record_failure(job_class)
        state = self.journal.state.jobs.get(job_id)
        attempts = state.attempts if state else 1
        if attempts >= self.config.max_leases:
            self.journal.failed(
                job_id,
                {
                    "error_type": "WorkerCrashLoop",
                    "message": (
                        f"worker crashed on all {attempts} leases "
                        f"(last exitcode {event.exitcode})"
                    ),
                },
            )
            obs.metrics().counter("serve.failed").inc()
            return
        self.journal.requeued(job_id, f"worker_crash_exit_{event.exitcode}")
        with self._admission:
            self.queue.push(event.request, front=True, force=True)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _safe_handle_event(self, event: LeaseEvent) -> None:
        """Handle a lease outcome; a WAL write fault parks the event for
        replay instead of crashing the daemon (the result file already
        exists, so nothing is lost — only not yet durable)."""
        try:
            self._handle_event(event)
        except OSError as exc:
            self._enter_disk_shedding("journal.append", exc)
            self._unjournaled.append(event)

    def _replay_unjournaled(self) -> None:
        if not self._unjournaled or self._shedding is not None:
            return
        events, self._unjournaled = self._unjournaled, []
        for event in events:
            self._safe_handle_event(event)

    def tick(self) -> None:
        """One deterministic scheduling step (tests call this directly)."""
        if self._shedding is not None:
            self._probe_disk()
        self._replay_unjournaled()
        self._intake_spool()
        self._dispatch()
        for event in self.supervisor.poll():
            self._safe_handle_event(event)
        obs.metrics().gauge("serve.busy_workers").set(self.supervisor.busy)

    def _install_signals(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return

        def _on_signal(signum, frame):
            self._stop_signal = signum

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)

    def _should_stop(self) -> bool:
        if self._stop_signal is not None:
            return True
        now = time.monotonic()
        if (
            self.config.max_runtime_sec is not None
            and now - self._started_mono >= self.config.max_runtime_sec
        ):
            _log.warning("serve.max_runtime_reached")
            return True
        if (
            self.config.idle_exit_sec is not None
            and len(self.queue) == 0
            and not self._deferred
            and self.supervisor.busy == 0
            and now - self._last_activity >= self.config.idle_exit_sec
        ):
            _log.info("serve.idle_exit")
            return True
        return False

    def run(self) -> int:
        """Serve until a signal (or idle/max-runtime), then drain; 0 on
        a graceful exit."""
        self._install_signals()
        # Ready means ready to fork: every worker module is loaded
        # before the intake is bound or the pid marker is written.
        preload_workers()
        self._start_socket()
        # The pid file doubles as the *readiness* marker: it appears
        # only once signal handlers are live, so a supervisor (or the
        # chaos campaign) that waits for it can safely SIGTERM — a
        # signal any earlier would hit the interpreter's default
        # disposition and kill the process ungracefully.
        (self.state_dir / "serve.pid").write_text(str(os.getpid()))
        _log.info(
            "serve.started",
            pid=os.getpid(),
            state_dir=str(self.state_dir),
            spool=str(self.config.spool_dir),
            socket=(
                self.bound.describe() if self.bound is not None else None
            ),
            workers=self.config.workers,
            recovered=self.recovered,
        )
        self.flusher.start()
        if self.profiler is not None:
            self.profiler.start()
        try:
            while not self._should_stop():
                self.tick()
                time.sleep(self.config.poll_interval)
        except Exception as exc:
            # The last seconds of telemetry before an unhandled daemon
            # exception are exactly what the autopsy needs.
            self.recorder.dump(
                "unhandled_exception",
                {"error_type": type(exc).__name__, "message": str(exc)},
                force=True,
            )
            raise
        finally:
            self.drain()
        return 0

    # ------------------------------------------------------------------
    # Graceful drain
    # ------------------------------------------------------------------
    def drain(self) -> Path:
        """Stop intake, settle in-flight leases, flush, write manifest."""
        with obs.span(
            "serve.drain",
            signal=self._stop_signal,
            in_flight=self.supervisor.busy,
            queued=len(self.queue),
            deferred=len(self._deferred),
        ):
            self.draining = True
            self._stop_socket()
            deadline = time.monotonic() + self.config.drain_timeout_sec
            while self.supervisor.busy and time.monotonic() < deadline:
                if self._shedding is not None:
                    self._probe_disk()
                self._replay_unjournaled()
                for event in self.supervisor.poll():
                    self._safe_handle_event(event)
                if self.supervisor.busy:
                    time.sleep(self.config.poll_interval)
            # Checkpoint anything still running: kill the worker, requeue
            # the lease — the job stays pending in the journal, so the
            # next daemon picks it up where this one left off.
            for lease in self.supervisor.kill_all():
                try:
                    self.journal.requeued(lease.job_id, "drain_timeout")
                except OSError as exc:
                    self._enter_disk_shedding("journal.requeued", exc)
                _log.warning("serve.drain_requeued", job_id=lease.job_id)
            # One last chance for outcomes parked during a disk fault;
            # whatever still can't be journaled is recoverable on the
            # next start via artifact repair (the result files exist).
            if self._shedding is not None:
                self._disk_probe_at = 0.0
                self._probe_disk()
            self._replay_unjournaled()
            if self._unjournaled:
                _log.error(
                    "serve.drain_unjournaled_outcomes",
                    count=len(self._unjournaled),
                    job_ids=[e.request["job_id"] for e in self._unjournaled],
                )
            if self.profiler is not None:
                self.profiler.stop()
                profile_path = self.profiler.write(
                    self.obs_dir / "profile.collapsed"
                )
                _log.info(
                    "serve.profile_written",
                    path=str(profile_path),
                    samples=self.profiler.samples,
                )
            self.flusher.stop(final_flush=True)
            manifest_path = self._write_manifest()
            try:
                self.journal.close()
            except OSError as exc:
                _log.error("serve.journal_close_failed", error=str(exc))
            self._lock_file.release()
            (self.state_dir / "serve.pid").unlink(missing_ok=True)
            _log.info("serve.drained", manifest=str(manifest_path))
        return manifest_path

    def _write_manifest(self) -> Path:
        rows = [j.manifest_row() for j in self.journal.state.in_order()]
        manifest = RunManifest(
            run_id=new_run_id(),
            command="serve",
            workers=self.config.workers,
            started_at=self._started_iso,
            finished_at=datetime.now(timezone.utc).isoformat(),
            wall_time_sec=round(time.perf_counter() - self._started_perf, 6),
            jobs=rows,
            metrics=obs.metrics_snapshot(),
        )
        return manifest.write(self.state_dir / "manifests")


def serve_forever(config: ServeConfig) -> int:
    """CLI entry: build the daemon and run it to a graceful exit."""
    try:
        daemon = ServeDaemon(config)
    except RuntimeError as exc:
        _log.error("serve.start_failed", error=str(exc))
        return 1
    return daemon.run()
