"""The service front end: named databases over a line-JSON socket.

Protocol: one JSON object per line in each direction (NDJSON). Every
request carries ``op`` plus its parameters (and optionally a client
``id``, echoed back); every response carries ``ok`` — ``true`` with the
op's payload, or ``false`` with ``error``. Verdicts and diagnostics use
the same serializers as the CLI's ``--format json``
(:mod:`repro.serialize`), so a socket client and a shell pipeline parse
identical schemas.

Ops::

    ping                                          liveness
    databases                                     hosted names
    open        db [source]                       open or create
    begin       db                             -> session token
    stage       session updates=[...]             stage literals
    query       db|session formula                truth over state(+staged)
    holds       db|session atom                   ground-atom truth
    check       session [method]                  dry-run the gate
    commit      session                           validate+apply+gate+log
    abort       session
    add_constraint  db constraint [constraint_id budget max_levels]
    add_rule    db rule                           lint+gate+log+install a rule
    lint        db                                static-analysis diagnostics
    model       db                                maintained canonical model
    checkpoint  db                                snapshot + WAL reset
    stats       db
    metrics                                       process-wide registry snapshot

Two optional fields ride any request: ``trace`` (a wire
:class:`~repro.obs.spans.TraceContext` — the server adopts its
trace_id, so server-side spans and slow-query log lines correlate with
the *client's* id) and ``explain`` (truthy → the response gains a
``trace_id`` and an ``explain`` payload, the completed
:class:`~repro.obs.trace.QueryTrace` as a dict).

Each connection is served by its own thread (the "thread pool" of
concurrent writers); sessions opened on a connection are aborted when
it closes. Commits from any number of connections funnel into the
database's group-commit pipeline. A :class:`DatabaseServer` can also
host a metrics/health sidecar (:meth:`DatabaseServer.serve_metrics`,
``repro serve --metrics-port``, or the ``REPRO_METRICS_PORT``
environment knob) exposing ``/metrics``, ``/metrics.json``,
``/healthz`` and ``/readyz``.
"""

from __future__ import annotations

import json
import logging
import os
import re
import socketserver
import threading
import time
from typing import Dict, Optional

from repro import serialize
from repro.config import EngineConfig, default_metrics_port
from repro.logic.normalize import normalize_constraint
from repro.logic.parser import parse_atom, parse_formula
from repro.obs.export import MetricsExporter
from repro.obs.metrics import default_registry
from repro.obs.spans import TraceContext
from repro.obs.trace import current_trace, trace_query
from repro.service.database import ManagedDatabase
from repro.service.transactions import Session
from repro.storage.engine import directory_initialized

_DB_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")

#: Structured server-side events (failed verbs, dropped connections)
#: land here; silent by default via the ``repro.obs`` null handler.
_LOG = logging.getLogger("repro.obs.server")

# The service edge's own series: request volume, failure count and
# wire-to-wire latency (parse → dispatch → response built).
_REQUESTS = default_registry().counter("service.requests")
_FAILURES = default_registry().counter("service.failures")
_REQUEST_SECONDS = default_registry().histogram("service.request_seconds")


def _trace_label(request: Dict) -> str:
    """A human-scannable trace label: the verb plus its main operand."""
    op = str(request.get("op"))
    detail = (
        request.get("formula")
        or request.get("atom")
        or request.get("constraint")
        or request.get("rule")
        or request.get("db")
        or request.get("session")
    )
    return f"{op} {detail}" if detail else op


class _Handler(socketserver.StreamRequestHandler):
    server: "_TcpServer"

    def handle(self) -> None:
        owned: list = []
        try:
            for raw in self.rfile:
                line = raw.strip()
                if not line:
                    continue
                response = self.server.front.handle_line(line, owned)
                self.wfile.write(
                    json.dumps(response).encode("utf-8") + b"\n"
                )
                self.wfile.flush()
        except (ConnectionError, BrokenPipeError, ValueError) as error:
            _LOG.info(
                "connection dropped: %s",
                error,
                extra={"event": "connection_dropped"},
            )
        finally:
            self.server.front.abort_sessions(owned)


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    front: "DatabaseServer"


class DatabaseServer:
    """Hosts named :class:`ManagedDatabase` directories under a root."""

    def __init__(
        self,
        root,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        sync: bool = True,
        config: Optional[EngineConfig] = None,
        group_commit: bool = True,
        snapshot_interval: int = 64,
        metrics_port: Optional[int] = None,
    ):
        self.config = config or EngineConfig()
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._db_options = {
            "sync": sync,
            "config": self.config,
            "group_commit": group_commit,
            "snapshot_interval": snapshot_interval,
        }
        self._databases: Dict[str, ManagedDatabase] = {}
        self._opening: Dict[str, threading.Event] = {}
        self._sessions: Dict[str, Session] = {}
        self._lock = threading.Lock()
        self._session_counter = 0
        self._tcp = _TcpServer((host, port), _Handler)
        self._tcp.front = self
        self._thread: Optional[threading.Thread] = None
        self._served = False
        self._exporter: Optional[MetricsExporter] = None
        if metrics_port is None:
            metrics_port = default_metrics_port()
        if metrics_port is not None:
            self.serve_metrics(metrics_port, host=host)

    # -- lifecycle ----------------------------------------------------------------

    @property
    def address(self) -> "tuple[str, int]":
        return self._tcp.server_address[:2]

    def serve_forever(self) -> None:
        self._served = True
        self._tcp.serve_forever()

    def start(self) -> "DatabaseServer":
        """Serve on a background thread (tests, embedded use)."""
        self._served = True
        self._thread = threading.Thread(
            target=self._tcp.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        if self._exporter is not None:
            self._exporter.mark_ready(False)
            self._exporter.close()
            self._exporter = None
        if self._served:
            # shutdown() blocks on the serve loop's exit handshake and
            # would hang forever if serve_forever never started.
            self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        with self._lock:
            databases = list(self._databases.values())
            self._databases.clear()
            self._sessions.clear()
        for database in databases:
            database.close()

    # -- observability sidecar ----------------------------------------------------

    def serve_metrics(
        self, port: int = 0, host: str = "127.0.0.1"
    ) -> MetricsExporter:
        """Start (or return) the metrics/health HTTP sidecar on *port*
        (0 → ephemeral). Serves ``/metrics``, ``/metrics.json``,
        ``/healthz`` and ``/readyz`` for this process's registry, with
        this server's :meth:`describe` payload riding the JSON view."""
        if self._exporter is None:
            self._exporter = MetricsExporter(
                host=host, port=port, info=self.describe
            ).start()
            # Construction recovers nothing lazily — hosted databases
            # recover on first open — so the server is ready to take
            # traffic as soon as the sockets exist.
            self._exporter.mark_ready()
        return self._exporter

    @property
    def metrics_address(self) -> "Optional[tuple[str, int]]":
        if self._exporter is None:
            return None
        return self._exporter.address

    def describe(self) -> Dict:
        """Cheap live inventory for ``/metrics.json`` and ``repro
        top``: per-database LSN / state sizes / open-session counts."""
        with self._lock:
            databases = dict(self._databases)
            sessions = list(self._sessions.values())
        payload: Dict = {"address": list(self.address), "databases": {}}
        for name, database in databases.items():
            manager = database.manager
            # Under the state lock: a commit applies before its gate
            # and log write, so an unlocked read could count a
            # transaction that is then undone.
            with manager._state_lock:
                lsn = manager.version
                facts = len(manager.database.facts)
            payload["databases"][name] = {
                "lsn": lsn,
                "facts": facts,
                "open_sessions": sum(
                    1
                    for session in sessions
                    if session.state == "open"
                    and session.manager is manager
                ),
            }
        return payload

    # -- registry -----------------------------------------------------------------

    def database(
        self,
        name: str,
        source: Optional[str] = None,
        create: bool = False,
    ) -> ManagedDatabase:
        """The named database. Only ``open`` (*create* = True) may
        create one; every other op resolves existing databases — in
        memory, or initialized on disk from a previous run — so a
        typo'd name errors instead of materializing a junk directory.

        Recovery of a cold database (WAL replay, model resume) runs
        *outside* the registry lock, keyed per name, so one slow open
        never stalls requests for other databases or connections.
        """
        if not _DB_NAME.match(name or ""):
            raise ValueError(
                f"bad database name {name!r} (letters, digits, '_.-')"
            )
        directory = os.path.join(self.root, name)
        while True:
            with self._lock:
                database = self._databases.get(name)
                if database is not None:
                    return database
                opening = self._opening.get(name)
                if opening is None:
                    if not create and not directory_initialized(directory):
                        raise ValueError(
                            f"unknown database {name!r}; open it first"
                        )
                    opening = self._opening[name] = threading.Event()
                    leader = True
                else:
                    leader = False
            if not leader:
                opening.wait()
                continue  # the leader registered it (or failed): re-check
            try:
                database = ManagedDatabase(
                    directory, source, **self._db_options
                )
                with self._lock:
                    self._databases[name] = database
                return database
            finally:
                with self._lock:
                    del self._opening[name]
                opening.set()

    def _register_session(self, session: Session) -> str:
        with self._lock:
            self._session_counter += 1
            token = f"s{self._session_counter}"
            self._sessions[token] = session
            return token

    def _session(self, token) -> Session:
        session = self._sessions.get(token)
        if session is None:
            raise ValueError(f"unknown session {token!r}")
        return session

    def _forget_session(self, token, owned_sessions: list) -> None:
        """Drop a finished session so long-lived connections do not
        accumulate committed/aborted Session objects."""
        with self._lock:
            self._sessions.pop(token, None)
        if token in owned_sessions:
            owned_sessions.remove(token)

    def abort_sessions(self, tokens) -> None:
        for token in tokens:
            with self._lock:
                session = self._sessions.pop(token, None)
            if session is not None and session.state == "open":
                session.abort()

    # -- dispatch -----------------------------------------------------------------

    def handle_line(self, line: bytes, owned_sessions: list) -> Dict:
        request_id = None
        request: Dict = {}
        trace_id: Optional[str] = None
        start = time.perf_counter()
        try:
            _REQUESTS.inc()
            request = json.loads(line)
            if not isinstance(request, dict):
                request = {}
                raise ValueError("request must be a JSON object")
            request_id = request.get("id")
            explain = bool(request.get("explain"))
            if explain or self.config.slow_query_ms is not None:
                response, trace_id = self._dispatch_traced(
                    request, owned_sessions, explain
                )
            else:
                response = {
                    "ok": True,
                    **self._dispatch(request, owned_sessions),
                }
        except Exception as error:  # surface, don't kill the connection
            _FAILURES.inc()
            if trace_id is None:
                trace_id = self._request_trace_id(request)
            _LOG.warning(
                "verb failed: op=%s db=%s session=%s id=%s "
                "trace_id=%s error=%s",
                request.get("op"),
                request.get("db"),
                request.get("session"),
                request_id,
                trace_id,
                error,
                extra={
                    "event": "verb_failed",
                    "op": request.get("op"),
                    "db": request.get("db"),
                    "session": request.get("session"),
                    "request_id": request_id,
                    "trace_id": trace_id,
                },
            )
            response = {"ok": False, "error": str(error)}
            if trace_id is not None:
                response["trace_id"] = trace_id
        finally:
            _REQUEST_SECONDS.observe(time.perf_counter() - start)
        if request_id is not None:
            response["id"] = request_id
        return response

    def _dispatch_traced(
        self, request: Dict, owned_sessions: list, explain: bool
    ) -> "tuple[Dict, str]":
        """Run one verb under a :class:`~repro.obs.trace.QueryTrace`
        that adopts the client's wire trace context (when the request
        carried one), stamping the correlation attrs the slow-query log
        emits. ``explain`` additionally returns the completed trace in
        the response."""
        context = TraceContext.from_wire(request.get("trace"))
        with trace_query(
            _trace_label(request), self.config, context=context
        ) as trace:
            for key, value in (
                ("verb", request.get("op")),
                ("db", request.get("db")),
                ("session", request.get("session")),
                ("request_id", request.get("id")),
            ):
                if value is not None:
                    trace.attrs[key] = value
            with trace.span("verb", op=str(request.get("op"))):
                payload = self._dispatch(request, owned_sessions)
            response = {"ok": True, **payload}
            # Correlation is echoed only to callers who opted in (a
            # wire trace context or explain); a bare request keeps the
            # pinned ok/payload/id envelope even when the server
            # happens to trace for its slow-query log.
            if context is not None or explain:
                response["trace_id"] = trace.trace_id
            if explain:
                trace.finish()
                response["explain"] = trace.to_dict()
            return response, trace.trace_id

    @staticmethod
    def _request_trace_id(request: Dict) -> Optional[str]:
        """The client's trace_id for error correlation, even when the
        verb failed before (or without) a server-side trace."""
        context = TraceContext.from_wire(request.get("trace"))
        return context.trace_id if context is not None else None

    def _dispatch(self, request: Dict, owned_sessions: list) -> Dict:
        op = request.get("op")
        if op == "ping":
            return {"pong": True}
        if op == "databases":
            with self._lock:
                return {"databases": sorted(self._databases)}
        if op == "open":
            database = self.database(
                request["db"], request.get("source"), create=True
            )
            stats = database.stats()
            return {"db": request["db"], **stats}
        if op == "begin":
            database = self.database(request["db"])
            token = self._register_session(database.begin())
            owned_sessions.append(token)
            return {"session": token}
        if op == "stage":
            session = self._session(request.get("session"))
            updates = list(request["updates"])
            trace = current_trace()
            if trace is not None:
                with trace.span("session.stage", updates=len(updates)):
                    staged = session.stage(updates)
            else:
                staged = session.stage(updates)
            return {"staged": staged}
        if op == "query":
            formula = normalize_constraint(parse_formula(request["formula"]))
            if "session" in request:
                value = self._session(request["session"]).query(formula)
            else:
                value = self.database(request["db"]).query(formula)
            return serialize.query_result_json(request["formula"], value)
        if op == "holds":
            atom = parse_atom(request["atom"])
            if "session" in request:
                value = self._session(request["session"]).holds(atom)
            else:
                value = self.database(request["db"]).holds(atom)
            return {"atom": request["atom"], "value": bool(value)}
        if op == "check":
            session = self._session(request.get("session"))
            verdict = session.check(request.get("method"))
            return {"check": serialize.check_result_json(verdict)}
        if op == "commit":
            token = request.get("session")
            result = self._session(token).commit()
            self._forget_session(token, owned_sessions)
            return serialize.commit_result_json(result)
        if op == "abort":
            token = request.get("session")
            self._session(token).abort()
            self._forget_session(token, owned_sessions)
            return {}
        if op == "add_constraint":
            database = self.database(request["db"])
            # NB: ``id`` is the protocol's request-correlation field;
            # the constraint's identifier travels as ``constraint_id``.
            result = database.add_constraint(
                request["constraint"],
                constraint_id=request.get("constraint_id"),
                budget=int(request.get("budget", 8)),
                max_levels=int(request.get("max_levels", 120)),
            )
            return serialize.commit_result_json(result)
        if op == "add_rule":
            database = self.database(request["db"])
            result = database.add_rule(request["rule"])
            return serialize.commit_result_json(result)
        if op == "lint":
            database = self.database(request["db"])
            report = database.analyze()
            return {
                "summary": report.summary(),
                "errors": len(report.errors()),
                "warnings": len(report.warnings()),
                "diagnostics": serialize.diagnostics_json(report),
            }
        if op == "model":
            database = self.database(request["db"])
            return {"facts": serialize.model_json(database.model_facts())}
        if op == "checkpoint":
            return {"lsn": self.database(request["db"]).checkpoint()}
        if op == "stats":
            return self.database(request["db"]).stats()
        if op == "metrics":
            # Process-wide: every hosted database shares the default
            # registry, so no ``db`` parameter.
            return {"metrics": default_registry().snapshot()}
        raise ValueError(f"unknown op {op!r}")
