"""Lease-based campaign coordinator (``repro serve``).

The coordinator owns three pieces of state behind one lock:

* a **job table** — every fingerprinted job ever submitted, with its
  lifecycle state (``pending → leased → done | quarantined``), consumed
  attempt count, and failure history;
* a **lease table** — which worker currently holds which jobs, and the
  monotonic deadline by which it must heartbeat;
* a **result store** — fleet-wide content-addressed dedup
  (:class:`repro.registry.store.ResultStore`).

Robustness semantics deliberately mirror PR-5's in-process supervisor
(:class:`repro.engine.executors.ParallelExecutor`): leasing a job
*consumes* an attempt, so a worker that is SIGKILLed or partitioned
mid-lease simply stops heartbeating, its lease expires, and the jobs are
re-queued at the *front* with their attempt numbers preserved — the next
lease hands out attempt 2, the named seed streams replay, and the retry
is byte-identical to an undisturbed first try.  A job that exhausts its
attempt budget is quarantined with its failure history rather than
poisoning the campaign.

Everything is stdlib: ``ThreadingHTTPServer`` in a daemon thread (the
:class:`repro.observe.serve.ServerThread` lifecycle it shares with the
metrics server), JSON bodies, and the span envelope carried on real
HTTP headers.  The expiry reaper is *lazy* — it runs at the top of every
state-mutating request instead of in a timer thread, which keeps the
coordinator single-clocked and trivially testable (tests advance time
by passing a ``clock`` callable).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple, Union

from repro.errors import ServeError, ServeProtocolError
from repro.observe.openmetrics import OPENMETRICS_CONTENT_TYPE, render_openmetrics
from repro.observe.serve import ServerThread
from repro.serve import protocol
from repro.registry.store import ResultStore
from repro.telemetry.registry import Registry

#: Default lease deadline; workers renew at a fraction of this.
DEFAULT_LEASE_TIMEOUT_S = 15.0

#: Default attempt budget when a submission does not name one.
DEFAULT_MAX_ATTEMPTS = 3


@dataclass
class _JobRecord:
    """One fingerprinted job's lifecycle on the coordinator."""

    fingerprint: str
    kind: str
    spec: str  # base64 pickle, exactly as submitted
    max_attempts: int
    state: str = protocol.JOB_PENDING
    attempts: int = 0
    lease_id: Optional[str] = None
    failures: List[Dict[str, Any]] = field(default_factory=list)
    envelope: Dict[str, str] = field(default_factory=dict)


@dataclass
class _Lease:
    """One worker's claim over a set of jobs, valid until ``deadline``."""

    lease_id: str
    worker_id: str
    deadline: float
    fingerprints: Set[str] = field(default_factory=set)


class Coordinator(ServerThread):
    """Fault-tolerant job service over a content-addressed result store."""

    def __init__(
        self,
        root: Union[str, Path],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_timeout_s <= 0:
            raise ServeError("lease_timeout_s must be positive")
        self.store = ResultStore(root)
        self.registry = Registry()
        self.lease_timeout_s = float(lease_timeout_s)
        super().__init__(
            "coordinator",
            _CoordinatorHandler,
            host=host,
            port=port,
            port_flag="--port 0",
            thread_name="repro-serve",
            coordinator=self,
        )
        self._clock = clock
        self._lock = threading.Lock()
        self._jobs: Dict[str, _JobRecord] = {}
        self._queue: Deque[str] = deque()
        self._leases: Dict[str, _Lease] = {}
        self._workers: Set[str] = set()
        self._chaos: Optional[Dict[str, Any]] = None
        self._lease_serial = 0

    # -- lifecycle ---------------------------------------------------------------

    @property
    def url(self) -> str:
        """Base URL of the running (or configured) coordinator."""
        return f"http://{self.host}:{self.port}"

    # -- lease-table mechanics ---------------------------------------------------

    def _reap_expired(self, now: float) -> None:
        """Requeue (or quarantine) the jobs of every overdue lease.

        Called under :attr:`_lock` at the top of each state-mutating
        request.  Mirrors ``ParallelExecutor.recover_broken_pool``: the
        attempt the dead worker consumed stays consumed, the jobs go to
        the *front* of the queue, and a job already at its budget is
        quarantined instead of requeued.
        """
        expired = [
            lease for lease in self._leases.values() if lease.deadline < now
        ]
        for lease in expired:
            del self._leases[lease.lease_id]
            self.registry.counter("serve.leases.expired").inc()
            for fingerprint in sorted(lease.fingerprints):
                record = self._jobs.get(fingerprint)
                if record is None or record.lease_id != lease.lease_id:
                    continue
                record.lease_id = None
                record.failures.append(
                    {
                        "attempt": record.attempts,
                        "error_type": "LeaseExpired",
                        "error_message": (
                            f"worker {lease.worker_id} missed its lease "
                            f"deadline (lease {lease.lease_id})"
                        ),
                    }
                )
                if record.attempts >= record.max_attempts:
                    record.state = protocol.JOB_QUARANTINED
                    self.registry.counter("serve.jobs.quarantined").inc()
                else:
                    record.state = protocol.JOB_PENDING
                    self._queue.appendleft(fingerprint)
                    self.registry.counter("serve.jobs.requeued").inc()
        self._update_gauges()

    def _update_gauges(self) -> None:
        self.registry.gauge("serve.queue.depth").set(len(self._queue))
        self.registry.gauge("serve.leases.active").set(len(self._leases))
        self.registry.gauge("serve.workers.known").set(len(self._workers))
        self.registry.gauge("serve.store.results").set(len(self.store))

    # -- request handlers (all return (body-dict, extra-headers)) ----------------

    def handle_submit(
        self, message: Dict[str, Any], headers: Dict[str, str]
    ) -> Tuple[Dict[str, Any], Dict[str, str]]:
        """``POST /v1/jobs`` — idempotent fingerprint-keyed submission."""
        protocol.check_protocol(headers)
        context = protocol.context_from_headers(headers)
        envelope = context.to_envelope() if context is not None else {}
        protocol.require(message, "jobs")
        jobs = message["jobs"]
        if not isinstance(jobs, list):
            raise ServeProtocolError("'jobs' must be a list")
        chaos = message.get("chaos")
        if chaos is not None and not isinstance(chaos, dict):
            raise ServeProtocolError("'chaos' must be an object or null")
        max_attempts = int(message.get("max_attempts", DEFAULT_MAX_ATTEMPTS))
        if max_attempts < 1:
            raise ServeProtocolError("'max_attempts' must be >= 1")
        accepted: List[str] = []
        cached: List[str] = []
        with self._lock:
            self._reap_expired(self._clock())
            if chaos is not None:
                self._chaos = dict(chaos)
            for entry in jobs:
                if not isinstance(entry, dict):
                    raise ServeProtocolError("each job must be an object")
                protocol.require(entry, "fingerprint", "kind", "spec")
                fingerprint = str(entry["fingerprint"])
                if fingerprint in self.store:
                    # Fleet-wide dedup: any client that submitted these
                    # bytes before already paid for the execution.
                    cached.append(fingerprint)
                    self.registry.counter("serve.jobs.deduped").inc()
                    continue
                record = self._jobs.get(fingerprint)
                # A done job reaching here lost its stored result (the
                # blob failed verification and left the index): run it
                # again so the store heals.
                if record is None or record.state == protocol.JOB_DONE:
                    record = _JobRecord(
                        fingerprint=fingerprint,
                        kind=str(entry["kind"]),
                        spec=str(entry["spec"]),
                        max_attempts=max_attempts,
                        envelope=dict(envelope),
                    )
                    self._jobs[fingerprint] = record
                    self._queue.append(fingerprint)
                    self.registry.counter("serve.jobs.submitted").inc()
                # An in-flight duplicate submission shares the existing
                # record — both clients collect the same result.
                accepted.append(fingerprint)
            self._update_gauges()
        return (
            {
                "protocol": protocol.PROTOCOL_VERSION,
                "accepted": accepted,
                "cached": cached,
            },
            {},
        )

    def handle_lease(
        self, message: Dict[str, Any], headers: Dict[str, str]
    ) -> Tuple[Dict[str, Any], Dict[str, str]]:
        """``POST /v1/lease`` — hand a worker up to ``capacity`` jobs."""
        protocol.check_protocol(headers)
        protocol.require(message, "worker_id")
        worker_id = str(message["worker_id"])
        capacity = int(message.get("capacity", 1))
        if capacity < 1:
            raise ServeProtocolError("'capacity' must be >= 1")
        now = self._clock()
        with self._lock:
            self._reap_expired(now)
            self._workers.add(worker_id)
            granted: List[Dict[str, Any]] = []
            envelope: Dict[str, str] = {}
            lease: Optional[_Lease] = None
            while self._queue and len(granted) < capacity:
                fingerprint = self._queue.popleft()
                record = self._jobs.get(fingerprint)
                if record is None or record.state != protocol.JOB_PENDING:
                    continue
                if lease is None:
                    self._lease_serial += 1
                    lease = _Lease(
                        lease_id=f"lease-{self._lease_serial}",
                        worker_id=worker_id,
                        deadline=now + self.lease_timeout_s,
                    )
                    self._leases[lease.lease_id] = lease
                    self.registry.counter("serve.leases.granted").inc()
                record.state = protocol.JOB_LEASED
                record.lease_id = lease.lease_id
                record.attempts += 1  # leasing consumes the attempt
                lease.fingerprints.add(fingerprint)
                if not envelope:
                    envelope = dict(record.envelope)
                granted.append(
                    {
                        "fingerprint": fingerprint,
                        "kind": record.kind,
                        "attempt": record.attempts,
                        "spec": record.spec,
                    }
                )
            self._update_gauges()
            body: Dict[str, Any] = {
                "protocol": protocol.PROTOCOL_VERSION,
                "jobs": granted,
                "lease_timeout_s": self.lease_timeout_s,
                "chaos": self._chaos,
            }
            if lease is not None:
                body["lease_id"] = lease.lease_id
            return body, envelope

    def handle_heartbeat(
        self, message: Dict[str, Any], headers: Dict[str, str]
    ) -> Tuple[Dict[str, Any], Dict[str, str]]:
        """``POST /v1/heartbeat`` — renew a lease's deadline."""
        protocol.check_protocol(headers)
        protocol.require(message, "lease_id")
        lease_id = str(message["lease_id"])
        now = self._clock()
        with self._lock:
            self._reap_expired(now)
            lease = self._leases.get(lease_id)
            if lease is None:
                # Already reaped: the worker should abandon the batch —
                # its jobs have been re-queued for someone else.
                return {"ok": False, "reason": "unknown-lease"}, {}
            lease.deadline = now + self.lease_timeout_s
            self.registry.counter("serve.leases.renewed").inc()
            return {"ok": True, "lease_timeout_s": self.lease_timeout_s}, {}

    def handle_result(
        self, fingerprint: str, message: Dict[str, Any], headers: Dict[str, str]
    ) -> Tuple[Dict[str, Any], Dict[str, str]]:
        """``PUT /v1/result/<fingerprint>`` — idempotent, first-wins."""
        protocol.check_protocol(headers)
        protocol.require(message, "status")
        status = str(message["status"])
        with self._lock:
            self._reap_expired(self._clock())
            record = self._jobs.get(fingerprint)
            if record is None:
                raise ServeProtocolError(
                    f"result for unknown job {fingerprint[:12]}…"
                )
            lease = self._leases.get(record.lease_id or "")
            if record.state in (protocol.JOB_DONE, protocol.JOB_QUARANTINED):
                # Duplicate delivery (chaos, or a re-leased twin finishing
                # after the original): the first result already won.
                self.registry.counter("serve.results.duplicate").inc()
                return {"ok": True, "duplicate": True}, {}
            if status == "ok":
                protocol.require(message, "payload")
                blob = protocol.decode_payload(str(message["payload"]))
                self.store.put(fingerprint, blob)
                record.state = protocol.JOB_DONE
                record.lease_id = None
                self.registry.counter("serve.jobs.completed").inc()
            elif status == "error":
                record.failures.append(
                    {
                        "attempt": int(message.get("attempt", record.attempts)),
                        "error_type": str(message.get("error_type", "Error")),
                        "error_message": str(message.get("error_message", "")),
                    }
                )
                record.lease_id = None
                if record.attempts >= record.max_attempts:
                    record.state = protocol.JOB_QUARANTINED
                    self.registry.counter("serve.jobs.quarantined").inc()
                else:
                    record.state = protocol.JOB_PENDING
                    self._queue.appendleft(fingerprint)
                    self.registry.counter("serve.jobs.requeued").inc()
                    self.registry.counter("serve.jobs.retries").inc()
            else:
                raise ServeProtocolError(
                    f"result status must be 'ok' or 'error', got {status!r}"
                )
            if lease is not None:
                lease.fingerprints.discard(fingerprint)
                if not lease.fingerprints:
                    self._leases.pop(lease.lease_id, None)
            self._update_gauges()
            return {"ok": True, "duplicate": False}, {}

    def handle_collect(
        self, message: Dict[str, Any], headers: Dict[str, str]
    ) -> Tuple[Dict[str, Any], Dict[str, str]]:
        """``POST /v1/collect`` — poll results for a set of fingerprints."""
        protocol.check_protocol(headers)
        protocol.require(message, "fingerprints")
        fingerprints = message["fingerprints"]
        if not isinstance(fingerprints, list):
            raise ServeProtocolError("'fingerprints' must be a list")
        done: Dict[str, Dict[str, Any]] = {}
        pending: List[str] = []
        with self._lock:
            self._reap_expired(self._clock())
            for raw in fingerprints:
                fingerprint = str(raw)
                record = self._jobs.get(fingerprint)
                if record is not None and record.state == protocol.JOB_QUARANTINED:
                    done[fingerprint] = {
                        "status": "quarantined",
                        "attempts": record.attempts,
                        "failures": list(record.failures),
                    }
                    continue
                blob = self.store.get(fingerprint)
                if blob is not None:
                    done[fingerprint] = {
                        "status": "ok",
                        "payload": protocol.encode_payload(blob),
                        "attempts": record.attempts if record else 1,
                        "failures": list(record.failures) if record else [],
                    }
                else:
                    pending.append(fingerprint)
        return {"done": done, "pending": pending}, {}

    def status_snapshot(self) -> Dict[str, Any]:
        """JSON-safe service snapshot for ``GET /v1/status``."""
        with self._lock:
            self._reap_expired(self._clock())
            by_state: Dict[str, int] = {}
            for record in self._jobs.values():
                by_state[record.state] = by_state.get(record.state, 0) + 1
            return {
                "protocol": protocol.PROTOCOL_VERSION,
                "queue_depth": len(self._queue),
                "leases": len(self._leases),
                "workers": sorted(self._workers),
                "jobs": by_state,
                "store": {
                    "results": len(self.store),
                    **self.store.stats.as_dict(),
                },
            }


class _CoordinatorHandler(BaseHTTPRequestHandler):
    """Routes the tiny protocol surface; errors become JSON bodies."""

    server_version = "repro-serve/1"

    # -- plumbing ----------------------------------------------------------------

    def _body(self) -> bytes:
        length = int(self.headers.get("Content-Length", 0) or 0)
        return self.rfile.read(length) if length else b""

    def _reply(
        self,
        status: int,
        body: bytes,
        *,
        content_type: str = protocol.CONTENT_TYPE,
        extra: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra or {}).items():
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client hung up (or chaos dropped the response)

    def _reply_json(
        self,
        status: int,
        message: Dict[str, Any],
        extra: Optional[Dict[str, str]] = None,
    ) -> None:
        self._reply(status, protocol.dumps_message(message), extra=extra)

    def _dispatch(
        self,
        handler: Callable[..., Tuple[Dict[str, Any], Dict[str, str]]],
        *args: Any,
    ) -> None:
        try:
            body, extra = handler(*args)
        except ServeProtocolError as error:
            self._reply_json(400, {"error": str(error)})
        except Exception as error:  # noqa: BLE001 - server must not die
            self._reply_json(
                500, {"error": f"{type(error).__name__}: {error}"}
            )
        else:
            self._reply_json(200, body, extra)

    def _headers_dict(self) -> Dict[str, str]:
        return {str(k): str(v) for k, v in self.headers.items()}

    # -- verbs -------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        coordinator = self.server.coordinator
        if path == "/metrics":
            body = render_openmetrics(coordinator.registry).encode("utf-8")
            self._reply(body=body, status=200, content_type=OPENMETRICS_CONTENT_TYPE)
        elif path == "/healthz":
            self._reply(200, b"ok\n", content_type="text/plain; charset=utf-8")
        elif path == "/v1/status":
            self._reply_json(200, coordinator.status_snapshot())
        else:
            self._reply_json(404, {"error": f"no such path {path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        coordinator = self.server.coordinator
        headers = self._headers_dict()
        try:
            message = protocol.loads_message(self._body())
        except ServeProtocolError as error:
            self._reply_json(400, {"error": str(error)})
            return
        if path == "/v1/jobs":
            self._dispatch(coordinator.handle_submit, message, headers)
        elif path == "/v1/lease":
            self._dispatch(coordinator.handle_lease, message, headers)
        elif path == "/v1/heartbeat":
            self._dispatch(coordinator.handle_heartbeat, message, headers)
        elif path == "/v1/collect":
            self._dispatch(coordinator.handle_collect, message, headers)
        else:
            self._reply_json(404, {"error": f"no such path {path!r}"})

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        coordinator = self.server.coordinator
        if not path.startswith("/v1/result/"):
            self._reply_json(404, {"error": f"no such path {path!r}"})
            return
        fingerprint = path[len("/v1/result/"):]
        headers = self._headers_dict()
        try:
            message = protocol.loads_message(self._body())
        except ServeProtocolError as error:
            self._reply_json(400, {"error": str(error)})
            return
        self._dispatch(coordinator.handle_result, fingerprint, message, headers)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence per-request stderr logging (the protocol is chatty)."""


__all__ = [
    "Coordinator",
    "DEFAULT_LEASE_TIMEOUT_S",
    "DEFAULT_MAX_ATTEMPTS",
]
