"""Start, probe and stop the service processes the workloads drive.

Every process goes through :mod:`launcher` with the work directory as
its current directory, so unix socket paths stay short and relative
however deep the checkout lies.  :class:`Services` remembers what it
started; :meth:`Services.stop_all` (called from a ``finally``) stops and
reaps every one of them, shards of a fleet included.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from perfbench.spans import TRACE_DIR_ENV

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCHER = HERE / "launcher.py"

#: How often readiness is probed while a service starts.
PROBE_INTERVAL_SEC = 0.005
START_TIMEOUT_SEC = 60.0
STOP_TIMEOUT_SEC = 60.0


class ServiceError(RuntimeError):
    pass


class Services:
    """The service processes of one benchmark run."""

    def __init__(self, workdir: Path, trace_dir: Optional[Path] = None):
        self.workdir = Path(workdir)
        self.trace_dir = trace_dir
        self._procs: List[subprocess.Popen] = []
        self._state_dirs: Dict[int, Path] = {}

    def _env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env.pop(TRACE_DIR_ENV, None)
        if self.trace_dir is not None:
            env[TRACE_DIR_ENV] = str(Path(self.trace_dir).resolve())
        return env

    def start(
        self,
        args: List[str],
        state_dir: Path,
        probe: Callable[[], bool],
    ) -> tuple:
        """Launch ``launcher.py *args``; return ``(process, setup_s)``.

        ``setup_s`` runs from the launch until ``probe()`` first returns
        True, that is until the service answered its first request.
        """
        log_path = self.workdir / f"{Path(state_dir).name}.log"
        started = time.perf_counter()
        with open(log_path, "ab") as log:
            proc = subprocess.Popen(
                [sys.executable, str(LAUNCHER), *args],
                cwd=self.workdir,
                env=self._env(),
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        self._procs.append(proc)
        self._state_dirs[proc.pid] = self.workdir / state_dir
        deadline = started + START_TIMEOUT_SEC
        while True:
            if proc.poll() is not None:
                raise ServiceError(
                    f"service exited with {proc.returncode} during start; "
                    f"see {log_path}"
                )
            if probe():
                return proc, time.perf_counter() - started
            if time.perf_counter() > deadline:
                raise ServiceError(f"service not ready; see {log_path}")
            time.sleep(PROBE_INTERVAL_SEC)

    def stop(self, proc: subprocess.Popen) -> int:
        """SIGTERM (the service drains), wait, then make sure nothing it
        started is left running."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=STOP_TIMEOUT_SEC)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        state_dir = self._state_dirs.pop(proc.pid, None)
        if state_dir is not None:
            _kill_leftover_shards(state_dir)
        if proc in self._procs:
            self._procs.remove(proc)
        return proc.returncode

    def stop_all(self) -> None:
        for proc in list(self._procs):
            self.stop(proc)


def _kill_leftover_shards(state_dir: Path) -> None:
    """A fleet that did not drain can leave shard daemons behind."""
    for pid_file in Path(state_dir).glob("shard-*/serve.pid"):
        try:
            pid = int(pid_file.read_text().strip())
            os.kill(pid, signal.SIGKILL)
        except (ValueError, OSError):
            continue
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except OSError:
                break
            time.sleep(0.05)


def read_endpoint(path: Path) -> Optional[str]:
    try:
        text = Path(path).read_text().strip()
    except OSError:
        return None
    return text or None


# ----------------------------------------------------------------------
# The client side: connection accounting and timed calls
# ----------------------------------------------------------------------
class ConnectionMeter:
    """Counts connections the client opens and how many are open at once.

    Every request/response exchange of the serve client opens exactly
    one connection, so wrapping ``repro.serve.transport.exchange``
    accounts for all of them, retries included.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.open = 0
        self.peak = 0
        self.total = 0
        self.peak_threads = threading.active_count()
        self._original = None

    def install(self) -> None:
        from repro.serve import transport

        if self._original is not None:
            return
        original = transport.exchange
        meter = self

        def exchange(*args, **kwargs):
            with meter._lock:
                meter.open += 1
                meter.total += 1
                meter.peak = max(meter.peak, meter.open)
                meter.peak_threads = max(
                    meter.peak_threads, threading.active_count()
                )
            try:
                return original(*args, **kwargs)
            finally:
                with meter._lock:
                    meter.open -= 1

        self._original = original
        transport.exchange = exchange

    def uninstall(self) -> None:
        from repro.serve import transport

        if self._original is not None:
            transport.exchange = self._original
            self._original = None


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


#: Results at least this large count as "large" (sweep results are
#: ~200 KB, simulate and no-op results under 2 KB).
LARGE_RESULT_BYTES = 32 * 1024


def result_bytes(response: dict) -> int:
    """Size of a fetched result payload as it crossed the wire."""
    return len(json.dumps(response.get("result")))


# ----------------------------------------------------------------------
# Load-generator validity
# ----------------------------------------------------------------------
#: Loopback TIME_WAIT sockets above which a tcp run is flagged: every
#: request opens a fresh connection, and a large backlog slows connects.
TIME_WAIT_FLAG = 5000


def loopback_time_wait() -> int:
    """Loopback TCP sockets in TIME_WAIT, from ``/proc/net/tcp{,6}``."""
    count = 0
    for name in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            lines = Path(name).read_text().splitlines()[1:]
        except OSError:
            continue
        for line in lines:
            fields = line.split()
            if len(fields) < 4 or fields[3] != "06":
                continue
            local = fields[1].split(":")[0]
            # 127.0.0.1 is 0100007F; ::1 and v4-mapped loopback end the
            # same way in the kernel's hex layout.
            if local.endswith("0100007F") or local.endswith(
                "00000000000000000000000001000000"
            ):
                count += 1
    return count
