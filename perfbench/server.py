"""The benchmark's server process: ``repro serve`` with optional tracing.

Usage::

    python3 perfbench/server.py [--trace-out SPANS.json] -- serve <args>

Everything after ``--`` goes to :func:`repro.cli.main` unchanged, so the
server is exactly what ``python -m repro serve`` runs: the same store
construction, start-up sweep, HTTP front end, background refresh loop and
graceful shutdown.  Before handing over it prints one line,
``perfbench-t0 <perf_counter>``, taken just before the store is opened;
``time.perf_counter`` is the system-wide monotonic clock on Linux, so the
load generator can subtract it from the moment ``/health`` first answers.

With ``--trace-out`` the layer wrappers of :mod:`tracing` are installed
before the runtime exists, and the spans are written to the file after
the server has shut down.
"""

from __future__ import annotations

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))


def main(argv) -> int:
    if "--" not in argv:
        print("usage: server.py [--trace-out PATH] -- <repro args>",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    own, repro_args = argv[:split], argv[split + 1:]
    trace_out = None
    if own[:1] == ["--trace-out"] and len(own) == 2:
        trace_out = own[1]
    elif own:
        print(f"server.py: unknown arguments {own}", file=sys.stderr)
        return 2

    from repro.cli import main as repro_main

    tracer = None
    if trace_out is not None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    print(f"perfbench-t0 {time.perf_counter():.9f}", flush=True)
    code = repro_main(repro_args)
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
