"""End-to-end tests for the served runtime: HTTP front end + transport.

The serve contract: recorder clients stream events over HTTP while
readers query verdicts mid-ingest; a killed-and-restarted server resumes
from its persisted cursor; and whatever the wire does, the final served
verdicts are byte-identical to a cold sweep of the same database.
"""

import contextlib
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.capture.recorder import RecorderClient
from repro.controls.evaluator import ComplianceEvaluator
from repro.processes import hiring
from repro.processes.engine import ProcessSimulator, all_events
from repro.processes.violations import ViolationPlan
from repro.service import (
    ComplianceHTTPServer,
    ComplianceRuntime,
    HTTPTransport,
    TransportError,
)
from repro.store.backends import SQLiteBackend
from repro.store.store import ProvenanceStore


def _event_stream(workload, cases, seed=11, rate=0.25):
    simulator = ProcessSimulator(
        workload.build_spec(),
        workload.case_factory(
            ViolationPlan.uniform(list(hiring.VIOLATION_KINDS), rate)
        ),
        seed=seed,
    )
    return all_events(simulator.run(cases))


def _cold_sweep_payloads(sim):
    oracle = ComplianceEvaluator(
        sim.store, sim.xom, sim.vocabulary,
        observable_types=sim.observable_types,
    )
    return json.dumps(
        [result.to_payload() for result in oracle.run(sim.controls)]
    )


def _sqlite_runtime(workload, db):
    """A served runtime over *db*; ``threadsafe`` because HTTP handler
    threads and the test thread share the connection (the runtime's lock
    serializes them — the same wiring ``repro serve`` uses)."""
    store = ProvenanceStore(
        model=workload.build_model(),
        backend=SQLiteBackend(db, threadsafe=True),
    )
    sim = workload.attach(store)
    runtime = ComplianceRuntime.from_simulation(
        sim, workload=workload, owns_store=True
    )
    return sim, runtime


@contextlib.contextmanager
def _served(runtime):
    """An ephemeral-port server thread; graceful shutdown on exit."""
    server = ComplianceHTTPServer(runtime)  # port 0 -> ephemeral
    thread = threading.Thread(
        target=server.serve_until_shutdown, daemon=True
    )
    thread.start()
    try:
        yield server.endpoint
    finally:
        server.request_shutdown()
        thread.join(timeout=30.0)
        assert not thread.is_alive()


class TestHTTPRoundtrip:
    def test_ingest_query_snapshot_over_the_wire(self):
        workload = hiring.workload()
        sim = workload.simulate(cases=0, seed=2011)
        runtime = ComplianceRuntime.from_simulation(
            sim, workload=workload
        )
        runtime.open()
        events = _event_stream(workload, cases=4)
        with _served(runtime) as endpoint:
            transport = HTTPTransport(endpoint)
            health = transport.health()
            assert health["status"] == "ok"
            assert health["workload"] == "new-position-open"

            client = RecorderClient(transport=transport)
            client.process_all(events)
            assert client.stats.recorded > 0
            # The same batch again is all duplicates — the server's
            # dedup reaches the client's counters across the wire.
            client.process_all(events)
            assert client.stats.duplicates == client.stats.recorded

            stats = transport.stats()
            assert stats["traces"] == 4
            assert stats["ingest_batches"] == 2

            served = transport.sync()
            assert "last_seq" in served

            payloads = transport.verdicts()
            assert json.dumps(payloads) == _cold_sweep_payloads(sim)
            subset = transport.verdicts(
                control="gm-approval", status="violated"
            )
            assert all(
                p["control"] == "gm-approval" and p["status"] == "violated"
                for p in subset
            )
            assert transport.snapshot() == {"saved": True}
        # Context exit shut the server down and closed the runtime.
        assert runtime.stats  # object survives; session is closed
        with pytest.raises(Exception):
            runtime.verdicts()

    def test_transitions_endpoint_pages_by_index(self):
        workload = hiring.workload()
        sim = workload.simulate(cases=0, seed=2011)
        runtime = ComplianceRuntime.from_simulation(
            sim, workload=workload
        )
        runtime.open()
        with _served(runtime) as endpoint:
            transport = HTTPTransport(endpoint)
            client = RecorderClient(transport=transport)
            client.process_all(_event_stream(workload, cases=2))
            transport.sync()
            first = json.loads(
                urllib.request.urlopen(
                    f"{endpoint}/transitions?after=0", timeout=30
                ).read()
            )
            assert first["newest"] == len(first["transitions"]) > 0
            entry = first["transitions"][0]
            assert {"index", "verdict", "previous", "changed",
                    "description"} <= set(entry)
            caught_up = json.loads(
                urllib.request.urlopen(
                    f"{endpoint}/transitions?after={first['newest']}",
                    timeout=30,
                ).read()
            )
            assert caught_up["transitions"] == []

    def test_error_surfaces_are_json(self):
        workload = hiring.workload()
        sim = workload.simulate(cases=1, seed=2011)
        # No workload: ingestion disabled -> 409 over the wire.
        runtime = ComplianceRuntime.from_simulation(sim)
        runtime.open()
        with _served(runtime) as endpoint:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{endpoint}/nowhere", timeout=30)
            assert excinfo.value.code == 404
            assert "error" in json.loads(excinfo.value.read())

            malformed = urllib.request.Request(
                f"{endpoint}/ingest", data=b"not json",
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(malformed, timeout=30)
            assert excinfo.value.code == 400

            transport = HTTPTransport(endpoint)
            with pytest.raises(TransportError) as excinfo:
                transport.ingest(_event_stream(workload, cases=1)[:1])
            assert "409" in str(excinfo.value)

    def test_bad_content_length_is_a_json_400(self):
        workload = hiring.workload()
        sim = workload.simulate(cases=1, seed=2011)
        runtime = ComplianceRuntime.from_simulation(sim, workload=workload)
        runtime.open()
        with _served(runtime) as endpoint:
            host, port = endpoint[len("http://"):].split(":")
            for length in ("ten", "-5"):
                # Raw socket: urllib would never send such a header.
                with socket.create_connection(
                    (host, int(port)), timeout=30
                ) as sock:
                    sock.sendall(
                        (
                            "POST /ingest HTTP/1.1\r\n"
                            f"Host: {host}\r\n"
                            f"Content-Length: {length}\r\n"
                            "\r\n"
                        ).encode("ascii")
                    )
                    reply = b""
                    # The server answers, then drops the connection: the
                    # body could not be framed.
                    while True:
                        chunk = sock.recv(65536)
                        if not chunk:
                            break
                        reply += chunk
                head, __, body = reply.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 400 "), head
                assert "Content-Length" in json.loads(body)["error"]
            # The server is still healthy afterwards.
            assert HTTPTransport(endpoint).health()["status"] == "ok"

    def test_unreachable_server_is_a_transport_error(self):
        # A port nothing listens on: connection refused, not a hang.
        transport = HTTPTransport("http://127.0.0.1:9", timeout=2)
        with pytest.raises(TransportError):
            transport.health()


class TestServeLifecycle:
    """The acceptance scenario: concurrent HTTP writers + live readers,
    a mid-stream kill/restart, and byte-identical final verdicts."""

    WRITERS = 2

    def _partition(self, events):
        trace_ids = sorted({event.app_id for event in events})
        owner = {
            trace: index % self.WRITERS
            for index, trace in enumerate(trace_ids)
        }
        return [
            [e for e in events if owner[e.app_id] == index]
            for index in range(self.WRITERS)
        ]

    def _drive_writers(self, endpoint, partitions, errors):
        """Each writer is its own HTTPTransport client streaming small
        batches; a reader polls verdicts + stats while they run."""
        stop_reading = threading.Event()

        def write(partition):
            try:
                client = RecorderClient(
                    transport=HTTPTransport(endpoint)
                )
                for start in range(0, len(partition), 5):
                    client.process_all(partition[start:start + 5])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def read():
            try:
                reader = HTTPTransport(endpoint)
                while not stop_reading.is_set():
                    for payload in reader.verdicts():
                        assert payload["control"] and payload["trace"]
                    reader.stats()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        reader = threading.Thread(target=read)
        writers = [
            threading.Thread(target=write, args=(partition,))
            for partition in partitions
        ]
        reader.start()
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop_reading.set()
        reader.join()

    def test_concurrent_ingest_with_mid_stream_restart(self, tmp_path):
        db = str(tmp_path / "serve.db")
        workload = hiring.workload()
        events = _event_stream(workload, cases=10, seed=47)
        partitions = self._partition(events)
        half = [len(p) // 2 for p in partitions]
        errors = []

        # Phase A: serve an empty database, stream the first half from
        # two concurrent HTTP clients with a live reader, then stop the
        # server mid-stream (graceful kill: snapshot + cursor persist).
        sim1, first = _sqlite_runtime(workload, db)
        report = first.open()
        assert not report.restored
        with _served(first) as endpoint:
            self._drive_writers(
                endpoint,
                [p[:n] for p, n in zip(partitions, half)],
                errors,
            )
        assert errors == []

        # Phase B: restart over the same file. The snapshot covers every
        # row already ingested — nothing re-evaluates at startup.
        sim2, second = _sqlite_runtime(workload, db)
        report = second.open()
        assert report.restored
        assert report.evaluated == 0
        with _served(second) as endpoint:
            self._drive_writers(
                endpoint,
                [p[n:] for p, n in zip(partitions, half)],
                errors,
            )
            assert errors == []
            # Every event landed exactly once across both phases.
            transport = HTTPTransport(endpoint)
            stats = transport.stats()
            assert stats["traces"] == 10
            # The served table equals a cold sweep of the same store —
            # byte-identical, mid-restart history notwithstanding.
            transport.sync()
            served = json.dumps(transport.verdicts())
            assert served == _cold_sweep_payloads(sim2)

        # Phase C: a third open resumes from the final cursor; the full
        # stream was already evaluated, so startup does zero work, and a
        # plain cold re-audit of the file agrees with what was served.
        sim3, third = _sqlite_runtime(workload, db)
        report = third.open()
        assert report.restored
        assert report.evaluated == 0
        assert json.dumps(
            [r.to_payload() for r in third.verdicts()]
        ) == served
        third.shutdown()
