"""Seeded inputs and output checks.

Everything a workload sends is made here from ``--seed``: the same seed
gives byte-identical requests, traces and grids.  The program receives
only these generated inputs.

The checks compare what the service returned with the same public
library calls made in this process, so a wrong result fails the run.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path
from typing import Any, Dict, List, Sequence

#: Treatment protocols of ``simulate`` jobs.  bbr costs ~5x vegas per
#: packet, so every run uses each protocol equally often.
SIM_PROTOCOLS = ("vegas", "cubic", "bbr", "rtc")

#: Fluid models of ``sweep`` jobs.
SWEEP_PROTOCOLS = ("cubic", "reno", "bbr", "rtc")

#: Scenarios per ``sweep`` job: 8 paths x 64 seeds.
SWEEP_PATHS = 8
SWEEP_SEEDS = 64
SWEEP_DURATION = 4.0


class CheckFailed(AssertionError):
    """A service or library output differs from what it must be."""


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
def noop_request(seed: int, tag: str, index: int) -> Dict[str, Any]:
    """A ``chaos`` job that does nothing; unique params give it a fresh
    content-hashed job id."""
    return {
        "kind": "chaos",
        "params": {"fault": None, "nonce": f"{seed}:{tag}:{index}"},
    }


def job_id(request: Dict[str, Any]) -> str:
    from repro.serve.requests import normalize_request

    return normalize_request(request)["job_id"]


def trace_pool(
    directory: Path, seed: int, count: int, duration: float
) -> List[str]:
    """``count`` Pantheon-like cubic traces over narrowly varied cellular
    paths, saved as ``.npz``; returns their paths (relative, as given)."""
    from repro.datasets.pantheon import generate_run
    from repro.datasets.scenarios import CellularScenarioSampler
    from repro.trace.io import save_trace

    sampler = CellularScenarioSampler(
        mean_rate_mbps=(3.0, 3.6),
        propagation_delay_ms=(30.0, 40.0),
        buffer_bdp_multiples=(3.0, 4.0),
        volatility=(0.15, 0.2),
        cross_traffic_fraction=(0.2, 0.25),
        p_no_ct=0.0,
        p_poisson_ct=1.0,
        p_onoff_ct=0.0,
    )
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k in range(count):
        path_seed = seed * 1000 + k
        run = generate_run(
            path_seed, "cubic", duration=duration,
            config=sampler.sample(path_seed),
        )
        path = directory / f"trace-{k}.npz"
        save_trace(run.trace, path)
        paths.append(str(path))
    return paths


def simulate_requests(
    seed: int,
    traces: Sequence[str],
    count: int,
    duration: float,
    cache_dir: str,
) -> List[Dict[str, Any]]:
    """``count`` simulate jobs over ``traces``, alternately with one and
    two treatment protocols taken in turn from :data:`SIM_PROTOCOLS`
    (from a seeded start), so any run of consecutive jobs holds about
    the same work whatever the seed."""
    offset = random.Random(seed * 7919 + 1).randrange(len(SIM_PROTOCOLS))
    requests = []
    cursor = offset
    for k in range(count):
        size = 1 + k % 2
        chosen = [
            SIM_PROTOCOLS[(cursor + j) % len(SIM_PROTOCOLS)] for j in range(size)
        ]
        cursor += size
        requests.append(
            {
                "kind": "simulate",
                "params": {
                    "trace_path": traces[k % len(traces)],
                    "protocols": chosen,
                    "duration": duration,
                    "seed": seed * 100 + k,
                    "cache_dir": cache_dir,
                },
            }
        )
    return requests


def sweep_request(seed: int, index: int) -> Dict[str, Any]:
    """One sweep chunk of ``SWEEP_PATHS x SWEEP_SEEDS`` scenarios."""
    from repro.sweep import ScenarioGrid, SweepPath

    rng = random.Random(seed * 104729 + index)
    paths = []
    for k in range(SWEEP_PATHS):
        rate = rng.uniform(4e5, 2e6)
        delay = rng.uniform(0.01, 0.06)
        paths.append(
            SweepPath(
                bandwidth_bytes_per_sec=rate,
                propagation_delay=delay,
                buffer_bytes=2 * rate * 2 * delay,
                label=f"p{index}-{k}",
            )
        )
    grid = ScenarioGrid(
        paths=tuple(paths),
        protocols=(SWEEP_PROTOCOLS[index % len(SWEEP_PROTOCOLS)],),
        seeds=tuple(range(seed, seed + SWEEP_SEEDS)),
        duration=SWEEP_DURATION,
    )
    return {"kind": "sweep", "params": {"grid": grid.to_params()}}


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def digest(value: Any) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode("utf-8")
    ).hexdigest()


def check_fetched(response: Dict[str, Any], expected_job: str) -> Dict[str, Any]:
    """A fetched result must be ``ok`` and carry the submitted job id;
    returns the worker's value."""
    if response.get("status") != "ok":
        raise CheckFailed(f"fetch of {expected_job} answered {response!r:.200}")
    if response.get("job_id") != expected_job:
        raise CheckFailed(
            f"fetch of {expected_job} returned job {response.get('job_id')}"
        )
    result = response.get("result")
    if not isinstance(result, dict) or result.get("job_id") != expected_job:
        raise CheckFailed(f"result of {expected_job} names another job")
    if result.get("status") != "ok":
        raise CheckFailed(f"job {expected_job} did not succeed: {result!r:.200}")
    return result.get("value")


def same(a: Any, b: Any, rel: float = 1e-9) -> bool:
    """Structural equality with a relative float tolerance; NaN == NaN."""
    if isinstance(a, bool) or isinstance(b, bool):
        return type(a) is type(b) and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if isinstance(a, float) and isinstance(b, float):
            if math.isnan(a) or math.isnan(b):
                return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k], rel) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y, rel) for x, y in zip(a, b))
    return a == b


def reference_value(request: Dict[str, Any]) -> Any:
    """What a ``simulate`` or ``sweep`` job must return, computed with
    the public library calls in this process.  For ``simulate`` the
    per-protocol summaries; for ``sweep`` the per-scenario rows."""
    params = request["params"]
    if request["kind"] == "simulate":
        from repro.runtime.cache import ProfileCache
        from repro.trace.metrics import summarize

        model, _ = ProfileCache(params["cache_dir"]).fit_cached(
            params["trace_path"], {}
        )
        out = {}
        for protocol in params["protocols"]:
            summary = summarize(
                model.simulate(
                    protocol, duration=params["duration"], seed=params["seed"]
                )
            )
            out[protocol] = {
                "mean_rate_mbps": summary.mean_rate_mbps,
                "p95_delay_ms": summary.p95_delay_ms,
                "loss_percent": summary.loss_percent,
                "packets_sent": summary.packets_sent,
                "packets_delivered": summary.packets_delivered,
            }
        return out
    if request["kind"] == "sweep":
        from repro.sweep import ScenarioGrid, run_scenarios

        grid = ScenarioGrid.from_params(params["grid"])
        return [s.to_dict() for s in run_scenarios(grid.expand()).scenarios]
    raise ValueError(f"no reference for kind {request['kind']!r}")


def service_value(request: Dict[str, Any], value: Dict[str, Any]) -> Any:
    """The part of a fetched value :func:`reference_value` predicts."""
    if request["kind"] == "simulate":
        return value["summaries"]
    return value["scenarios"]


def check_against_library(
    requests: Sequence[Dict[str, Any]],
    values: Sequence[Dict[str, Any]],
    seed: int,
    sample: int,
) -> int:
    """Recompute a seeded sample of simulate/sweep results in-process and
    compare; returns how many were checked."""
    candidates = [
        i for i, r in enumerate(requests) if r["kind"] in ("simulate", "sweep")
    ]
    rng = random.Random(seed * 31 + 7)
    by_kind: Dict[str, List[int]] = {}
    for i in candidates:
        by_kind.setdefault(requests[i]["kind"], []).append(i)
    chosen: List[int] = []
    for kind in sorted(by_kind):
        pool = by_kind[kind]
        chosen += rng.sample(pool, min(sample, len(pool)))
    for i in chosen:
        expected = reference_value(requests[i])
        got = service_value(requests[i], values[i])
        if not same(expected, got):
            raise CheckFailed(
                f"{requests[i]['kind']} job {i} differs from the library"
            )
    return len(chosen)
