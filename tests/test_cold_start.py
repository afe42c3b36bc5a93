"""Cold start: what a process imports, and when.

Three rules (DESIGN.md §8, PERFORMANCE.md "Cold start"):

* package ``__init__`` files re-export nothing heavy, and scipy is
  imported only inside the one function that needs it, so ``import
  repro.cli`` loads neither numpy nor scipy;
* the serve daemon runs :func:`repro.serve.requests.preload_workers`
  before it reports ready, so a forked worker imports nothing of its
  own — checked by forking one child per stock job kind from a fresh
  interpreter and diffing ``sys.modules`` around the worker call;
* the preload runs before the intake is bound and the pid marker is
  written.

Import checks run in fresh interpreters: inside the test session every
module is already loaded by some other test.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str, *args: str) -> str:
    """Run ``code`` in a new interpreter with ``src`` on the path;
    returns its stdout (fails the test on a non-zero exit)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


# ----------------------------------------------------------------------
# Pre-fork completeness
# ----------------------------------------------------------------------
PREFORK = """
import json, os, sys

import repro.cli
import repro.serve
from repro.serve.requests import normalize_request, preload_workers
from repro.serve.supervisor import _worker_entry, read_result

preload_workers()
WATCHED = ("repro", "numpy", "scipy")


def forked_worker(request, result_path):
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        before = set(sys.modules)
        _worker_entry(request, result_path)
        new = sorted(
            name for name in set(sys.modules) - before
            if name.partition(".")[0] in WATCHED
        )
        os.write(write_fd, json.dumps(new).encode())
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        new = json.loads(fh.read())
    os.waitpid(pid, 0)
    return new


report = {}
for label, raw in json.loads(sys.argv[1]):
    result_path = os.path.join(sys.argv[2], label + ".json")
    new = forked_worker(normalize_request(raw), result_path)
    payload, verdict = read_result(result_path)
    report[label] = {
        "new_modules": new,
        "status": payload["status"],
        "error": payload.get("error"),
        "cache_hit": payload.get("cache_hit"),
    }
print(json.dumps(report))
"""


def _prefork_requests(tmp_path: Path) -> list:
    from repro.datasets.pantheon import generate_run
    from repro.sweep import ScenarioGrid, SweepPath
    from repro.trace.io import save_trace

    trace_path = tmp_path / "trace.npz"
    save_trace(generate_run(5, "cubic", duration=4.0).trace, trace_path)
    paths = tuple(
        SweepPath(
            bandwidth_bytes_per_sec=1e6 + 1e5 * k,
            propagation_delay=0.02 + 0.005 * k,
            buffer_bytes=80_000.0,
            label=f"p{k}",
        )
        for k in range(8)
    )
    grid = ScenarioGrid(
        paths=paths, protocols=("cubic",), seeds=tuple(range(64)), duration=2.0
    )
    assert len(grid.expand()) == 512
    simulate = {
        "trace_path": str(trace_path),
        "protocols": ["vegas", "bbr"],
        "duration": 3.0,
        "cache_dir": str(tmp_path / "sim-cache"),
    }
    return [
        ["chaos", {"kind": "chaos", "params": {"fault": None}}],
        [
            "fit",
            {
                "kind": "fit",
                "params": {
                    "trace_path": str(trace_path),
                    "cache_dir": str(tmp_path / "fit-cache"),
                },
            },
        ],
        ["simulate-miss", {"kind": "simulate", "params": simulate}],
        ["simulate-hit", {"kind": "simulate", "params": simulate}],
        ["sweep", {"kind": "sweep", "params": {"grid": grid.to_params()}}],
    ]


class TestPreforkCompleteness:
    def test_forked_workers_import_nothing(self, tmp_path):
        requests = _prefork_requests(tmp_path)
        out = run_fresh(PREFORK, json.dumps(requests), str(tmp_path))
        report = json.loads(out.strip().splitlines()[-1])
        assert list(report) == [label for label, _ in requests]
        for label, row in report.items():
            assert row["status"] == "ok", (label, row["error"])
            assert row["new_modules"] == [], (label, row["new_modules"])
        assert report["simulate-miss"]["cache_hit"] is False
        assert report["simulate-hit"]["cache_hit"] is True


# ----------------------------------------------------------------------
# Import budget
# ----------------------------------------------------------------------
class TestImportBudget:
    def test_cli_loads_neither_numpy_nor_scipy(self):
        run_fresh(
            """
            import sys
            import repro.cli
            heavy = sorted(
                m for m in sys.modules if m.partition(".")[0] in ("numpy", "scipy")
            )
            assert not heavy, heavy
            """
        )

    def test_daemon_preload_loads_no_scipy(self):
        run_fresh(
            """
            import sys
            import repro.cli
            import repro.serve
            from repro.serve.requests import preload_workers
            preload_workers()
            assert "scipy" not in sys.modules
            """
        )

    def test_ks_statistic_matches_scipy_exactly(self):
        run_fresh(
            """
            import sys
            import numpy as np
            from repro.analysis.stats import ks_statistic
            assert "scipy" not in sys.modules
            from scipy import stats

            rng = np.random.default_rng(3)
            a = rng.normal(size=200)
            b = rng.normal(0.2, size=150)
            expected = stats.ks_2samp(a, b)
            got = ks_statistic(a, b)
            assert got == (float(expected.statistic), float(expected.pvalue)), got
            """
        )

    def test_submodule_imports_still_work(self):
        run_fresh(
            """
            from repro.experiments import fig2_ensemble
            from repro.guard.chaos import run_campaign
            from repro import analysis
            assert callable(run_campaign)
            assert hasattr(fig2_ensemble, "run")
            assert hasattr(analysis, "stats")
            """
        )


# ----------------------------------------------------------------------
# Readiness ordering
# ----------------------------------------------------------------------
class TestPreloadBeforeReady:
    def test_preload_runs_before_intake_and_pid_marker(
        self, tmp_path, monkeypatch
    ):
        from repro.serve import daemon as daemon_mod
        from repro.serve.daemon import ENDPOINT_FILE, ServeConfig, ServeDaemon

        state = tmp_path / "state"
        seen = []
        real_preload = daemon_mod.preload_workers

        def spy():
            seen.append(
                {
                    "pid_marker": (state / "serve.pid").exists(),
                    "endpoint": (state / ENDPOINT_FILE).exists(),
                }
            )
            real_preload()

        monkeypatch.setattr(daemon_mod, "preload_workers", spy)
        daemon = ServeDaemon(
            ServeConfig(
                state_dir=state,
                bind="tcp:127.0.0.1:0",
                workers=1,
                poll_interval=0.01,
                idle_exit_sec=0.0,
                fsync=False,
            )
        )
        # Leave the test runner's own signal handlers alone.
        monkeypatch.setattr(daemon, "_install_signals", lambda: None)
        assert daemon.run() == 0
        assert seen == [{"pid_marker": False, "endpoint": False}]
