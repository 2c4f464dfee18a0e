"""Server process control and resource accounting for the load generator.

:class:`Server` starts ``perfbench/server.py`` (``repro serve`` on an
ephemeral port), waits for its endpoint line, and times set-up from the
server's ``perfbench-t0`` stamp to the first ``200`` from ``/health``.
CPU time and peak RSS are read from ``/proc/<pid>`` of the server
process, so they cover the server only, never the load generator.
"""

from __future__ import annotations

import os
import queue
import re
import subprocess
import sys
import threading
import time
from typing import List, Optional

from repro.service import HTTPTransport

_HERE = os.path.dirname(os.path.abspath(__file__))
_ENDPOINT = re.compile(r"listening on (http://\S+)")

#: seconds a server may take to print its endpoint (a cold start over the
#: backfill store sweeps every trace first).
START_TIMEOUT = 120.0
STOP_TIMEOUT = 60.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


class Server:
    """One ``repro serve`` process over *repro_args* (``serve ...``)."""

    def __init__(
        self,
        repro_args: List[str],
        log_path: str,
        trace_out: Optional[str] = None,
    ) -> None:
        command = [sys.executable, os.path.join(_HERE, "server.py")]
        if trace_out is not None:
            command += ["--trace-out", trace_out]
        command += ["--", *repro_args, "--port", "0"]
        self.log_path = log_path
        self._log = open(log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self._log,
            stdin=subprocess.DEVNULL,
            text=True,
        )
        self.pid = self.process.pid
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(
            target=self._drain, name="perfbench-server-stdout", daemon=True
        )
        self._reader.start()
        try:
            self.endpoint, t0 = self._await_endpoint()
            probe = HTTPTransport(self.endpoint, timeout=30.0)
            try:
                health = probe.health()
            finally:
                probe.close()
            self.setup_s = time.perf_counter() - t0
            if health.get("status") != "ok":
                raise BenchError(f"server health is {health!r}")
        except BaseException:
            self.close()
            raise

    def _drain(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def _await_endpoint(self):
        deadline = time.monotonic() + START_TIMEOUT
        t0 = None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError("server did not start in time")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise BenchError(
                    f"server exited during start-up:\n{self.log_tail()}"
                )
            if line.startswith("perfbench-t0 "):
                t0 = float(line.split()[1])
                continue
            match = _ENDPOINT.search(line)
            if match:
                if t0 is None:
                    raise BenchError("server printed no start stamp")
                return match.group(1), t0

    def log_tail(self, lines: int = 20) -> str:
        if not self._log.closed:
            self._log.flush()
        try:
            with open(self.log_path, encoding="utf-8") as handle:
                return "".join(handle.readlines()[-lines:])
        except OSError:
            return ""

    def transport(self) -> HTTPTransport:
        return HTTPTransport(self.endpoint, timeout=60.0)

    # -- /proc accounting ---------------------------------------------------

    def cpu_s(self) -> float:
        """User + system CPU seconds the server process has used."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / ticks

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self) -> None:
        """``POST /shutdown`` and wait for a clean exit."""
        transport = self.transport()
        try:
            transport.shutdown()
        finally:
            transport.close()
        try:
            code = self.process.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise BenchError("server did not stop after /shutdown")
        finally:
            self.close()
        if code != 0:
            raise BenchError(f"server exited {code}:\n{self.log_tail()}")

    def close(self) -> None:
        """Stop the process if it still runs and release its pipes."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=10.0)
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


def disk_bytes(paths: List[str]) -> int:
    """Total size of the store files, SQLite side files included."""
    total = 0
    for path in paths:
        for suffix in ("", "-wal", "-journal", "-shm"):
            if os.path.exists(path + suffix):
                total += os.path.getsize(path + suffix)
    return total
