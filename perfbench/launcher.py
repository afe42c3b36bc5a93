"""Start a serve daemon or fleet, with span recording when asked for.

Usage (from the directory the service's relative paths refer to)::

    python perfbench/launcher.py serve run --state d --bind unix:d/s.sock
    python perfbench/launcher.py serve fleet --state f --bind unix:f/r.sock

The arguments go to the ``repro`` command line unchanged, which calls
``serve_forever`` / ``fleet_forever``.

When ``PERFBENCH_TRACE_DIR`` is set, the layer entry points are wrapped
(see :mod:`spans`) before the service starts, shards of a fleet are
started through this launcher too, and each process writes its spans
into that directory when it exits.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)


def _trace_fleet_shards() -> None:
    """Start every shard through this launcher so its spans are kept."""
    from repro.serve.fleet import FleetManager

    stock = FleetManager._shard_argv

    def shard_argv(self, shard):
        argv = stock(self, shard)
        # [python, -m, repro, serve, run, ...] -> [python, launcher, serve, ...]
        return [argv[0], str(Path(__file__).resolve()), *argv[3:]]

    FleetManager._shard_argv = shard_argv


def main(argv) -> int:
    from perfbench import spans

    tracer = None
    trace_dir = os.environ.get(spans.TRACE_DIR_ENV)
    if trace_dir:
        tracer = spans.Tracer(Path(trace_dir))
        spans.install_service_wrappers(tracer)
        _trace_fleet_shards()
    try:
        from repro.cli import main as repro_main

        return repro_main(argv)
    finally:
        if tracer is not None:
            tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
