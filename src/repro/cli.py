"""Command-line interface: integrity checking, satisfiability, schema
evolution and the database service from the shell.

::

    python -m repro check db.dl --update "p(a)" --update "not q(b)"
    python -m repro satcheck schema.dl --budget 8 --no-reuse
    python -m repro query db.dl "forall X: p(X) -> q(X)"
    python -m repro model db.dl
    python -m repro lint db.dl --format json --fail-on error
    python -m repro evolve db.dl --constraint "forall X: p(X) -> q(X)"
    python -m repro serve ./data --port 7407 --metrics-port 9464
    python -m repro shell --port 7407
    python -m repro top 127.0.0.1:9464

``check`` exits 0 when the update preserves integrity, 1 otherwise;
``satcheck`` exits 0 / 1 / 2 for satisfiable / unsatisfiable / unknown;
``evolve`` exits 0 / 1 / 2 / 3 for accepted / incompatible / undecided
/ repairable; ``lint`` exits 0 / 1 / 2 for clean / warnings / errors
(``--fail-on error`` treats warnings as clean). ``check``, ``query`` and ``evolve`` take ``--format
json`` for machine-readable verdicts in exactly the schema the service
protocol speaks (:mod:`repro.serialize`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import time
from typing import Optional, Sequence

from repro import serialize
from repro.config import (
    BACKENDS,
    DEFAULT_BACKEND,
    DEFAULT_EXEC,
    DEFAULT_JOIN,
    DEFAULT_PLAN,
    DEFAULT_SLOW_QUERY_MS,
    DEFAULT_STRATEGY,
    EXEC_MODES,
    JOIN_ALGOS,
    PLANS,
    STRATEGIES,
    EngineConfig,
)
from repro.datalog.database import DeductiveDatabase
from repro.integrity.checker import METHODS, IntegrityChecker
from repro.obs.metrics import default_registry
from repro.obs.trace import (
    SLOW_QUERY_LOGGER,
    maybe_trace,
    render_trace,
    trace_query,
)
from repro.logic.parser import parse_formula
from repro.logic.normalize import normalize_constraint
from repro.satisfiability.checker import SatisfiabilityChecker

FORMATS = ("text", "json")


def _add_format_option(command) -> None:
    command.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="output format: human-readable text or one JSON object "
        "(the service protocol's schema; default: %(default)s)",
    )


def _add_plan_option(command) -> None:
    # choices= makes argparse reject bad values up front with a
    # one-line error listing the accepted ones (exit 2), instead of a
    # traceback from deep inside evaluation.
    command.add_argument(
        "--plan",
        choices=PLANS,
        default=DEFAULT_PLAN,
        help="join order for rule bodies: 'greedy' reorders literals by "
        "estimated selectivity, 'source' keeps rule-source order "
        "(default: %(default)s)",
    )


def _add_exec_option(command) -> None:
    command.add_argument(
        "--exec",
        dest="exec_mode",
        choices=EXEC_MODES,
        default=DEFAULT_EXEC,
        help="join execution model: 'batch' solves rule bodies "
        "set-at-a-time with hash joins, 'tuple' one binding at a time "
        "(the oracle; default: %(default)s)",
    )


def _add_join_algo_option(command) -> None:
    command.add_argument(
        "--join-algo",
        dest="join_algo",
        choices=JOIN_ALGOS,
        default=DEFAULT_JOIN,
        help="batch join algorithm: 'auto' runs the worst-case-"
        "optimal leapfrog triejoin on cyclic eligible bodies, 'wcoj' "
        "on every eligible body, 'hash' never "
        "(default: %(default)s)",
    )


def _add_strategy_option(command) -> None:
    command.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default=DEFAULT_STRATEGY,
        help="where intensional facts come from: 'lazy' materializes "
        "per dependency closure, 'magic' evaluates demand-driven via "
        "the magic-sets rewrite (default: %(default)s)",
    )
    command.add_argument(
        "--no-supplementary",
        dest="supplementary",
        action="store_false",
        help="disable supplementary-predicate prefix sharing in the "
        "magic rewrite (the classic rewrite, kept as the differential "
        "oracle; only meaningful with --strategy magic)",
    )


def _add_backend_option(command) -> None:
    command.add_argument(
        "--backend",
        choices=BACKENDS,
        default=DEFAULT_BACKEND,
        help="fact-store backend: 'dict' keeps relations in process "
        "memory, 'sqlite' spills them to SQLite with lazily-built "
        "composite indexes (default: %(default)s, from REPRO_BACKEND)",
    )


def _add_obs_options(command) -> None:
    command.add_argument(
        "--explain",
        action="store_true",
        help="print the per-query trace (plan, rewrite, rounds, "
        "phase timings) as an EXPLAIN tree after the verdict",
    )
    command.add_argument(
        "--metrics",
        action="store_true",
        help="print the delta of the process metrics registry "
        "accumulated while running this command",
    )
    command.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log queries slower than MS milliseconds on the "
        f"'{SLOW_QUERY_LOGGER}' logger (to stderr here; default: "
        "REPRO_SLOW_QUERY_MS, unset = off)",
    )


def _config_from_args(args) -> EngineConfig:
    """One EngineConfig from whichever knob options the subcommand
    declared (missing ones fall back to the config defaults)."""
    slow_query_ms = getattr(args, "slow_query_ms", None)
    if slow_query_ms is None:
        slow_query_ms = DEFAULT_SLOW_QUERY_MS
    elif not logging.getLogger(SLOW_QUERY_LOGGER).handlers:
        # A CLI run has nowhere else to put slow-query reports: wire
        # the logger to stderr (libraries embedding repro configure
        # logging themselves; the obs NullHandler keeps them silent).
        logging.getLogger(SLOW_QUERY_LOGGER).addHandler(
            logging.StreamHandler(sys.stderr)
        )
    # Every knob option's argparse ``dest`` is its EngineConfig field.
    knobs = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(EngineConfig)
        if hasattr(args, field.name)
    }
    knobs["slow_query_ms"] = slow_query_ms
    return EngineConfig(**knobs)


def _metrics_delta(before: dict) -> dict:
    """Registry movement since *before*, dropping zero counters."""
    delta = default_registry().diff(before)
    return {
        name: value
        for name, value in delta.items()
        if (value.get("count") if isinstance(value, dict) else value)
    }


def _print_metrics(delta: dict) -> None:
    for name in sorted(delta):
        value = delta[name]
        if isinstance(value, dict):
            value = json.dumps(value, sort_keys=True)
        print(f"  # {name}: {value}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Integrity maintenance and constraint satisfiability for "
            "deductive databases (Bry, Decker & Manthey, EDBT 1988)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser(
        "check", help="check whether updates preserve integrity"
    )
    check.add_argument("database", help="path to the database source file")
    check.add_argument(
        "--update",
        "-u",
        action="append",
        required=True,
        dest="updates",
        metavar="LITERAL",
        help="update literal, e.g. 'p(a)' or 'not q(b)'; repeatable "
        "(repeats form one transaction)",
    )
    check.add_argument(
        "--method",
        choices=METHODS,
        default="bdm",
        help="checking method (default: the paper's two-phase method)",
    )
    check.add_argument(
        "--apply",
        action="store_true",
        help="apply the updates and print the updated database when the "
        "check passes",
    )
    check.add_argument(
        "--stats", action="store_true", help="print cost statistics"
    )
    _add_plan_option(check)
    _add_strategy_option(check)
    _add_exec_option(check)
    _add_join_algo_option(check)
    _add_backend_option(check)
    _add_format_option(check)
    _add_obs_options(check)

    satcheck = commands.add_parser(
        "satcheck", help="check finite satisfiability of rules + constraints"
    )
    satcheck.add_argument("database", help="path to the schema source file")
    satcheck.add_argument(
        "--budget",
        type=int,
        default=12,
        help="fresh-constant budget (iteratively deepened; default 12)",
    )
    satcheck.add_argument(
        "--max-levels", type=int, default=200, help="level-saturation cap"
    )
    satcheck.add_argument(
        "--no-reuse",
        action="store_true",
        help="classical tableaux mode: fresh-constant existentials only",
    )
    satcheck.add_argument(
        "--no-deepening",
        action="store_true",
        help="single bounded search at the full budget",
    )
    satcheck.add_argument(
        "--trace", action="store_true", help="print the enforcement trace"
    )

    query = commands.add_parser(
        "query", help="evaluate a closed formula over the database"
    )
    query.add_argument("database", help="path to the database source file")
    query.add_argument("formula", help="closed formula to evaluate")
    _add_plan_option(query)
    _add_strategy_option(query)
    _add_exec_option(query)
    _add_join_algo_option(query)
    _add_backend_option(query)
    _add_format_option(query)
    _add_obs_options(query)

    model = commands.add_parser(
        "model", help="print the canonical model (facts + derived)"
    )
    model.add_argument("database", help="path to the database source file")
    _add_plan_option(model)
    _add_exec_option(model)
    _add_join_algo_option(model)
    _add_backend_option(model)
    _add_obs_options(model)

    lint = commands.add_parser(
        "lint",
        help="statically analyze programs: coded diagnostics "
        "(R0xx errors / W0xx warnings / I0xx notes), no evaluation",
    )
    lint.add_argument(
        "databases",
        nargs="+",
        metavar="FILE",
        help="database source file(s) to analyze",
    )
    lint.add_argument(
        "--fail-on",
        dest="fail_on",
        choices=("warning", "error"),
        default="warning",
        help="lowest severity that makes the exit status non-zero "
        "(default: %(default)s — warnings exit 1, errors exit 2)",
    )
    _add_format_option(lint)

    evolve = commands.add_parser(
        "evolve",
        help="triage a candidate constraint: accepted / repairable / "
        "incompatible / undecided (Section 4 workflow)",
    )
    evolve.add_argument("database", help="path to the database source file")
    evolve.add_argument(
        "--constraint",
        "-c",
        required=True,
        help="candidate constraint formula",
    )
    evolve.add_argument(
        "--id", default=None, help="identifier for the candidate constraint"
    )
    evolve.add_argument(
        "--budget",
        type=int,
        default=8,
        help="fresh-constant budget for the compatibility search "
        "(default: %(default)s)",
    )
    evolve.add_argument(
        "--max-levels", type=int, default=120, help="level-saturation cap"
    )
    _add_format_option(evolve)
    _add_obs_options(evolve)

    serve = commands.add_parser(
        "serve",
        help="host named databases over a newline-delimited-JSON socket",
    )
    serve.add_argument(
        "root", help="directory holding one subdirectory per database"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7407)
    serve.add_argument(
        "--no-sync",
        action="store_true",
        help="skip fsync on commit (faster, loses the durability "
        "guarantee across power failure)",
    )
    serve.add_argument(
        "--snapshot-interval",
        type=int,
        default=64,
        help="checkpoint every N commits (0 disables; default: %(default)s)",
    )
    serve.add_argument(
        "--serialize-commits",
        action="store_true",
        help="disable group commit (the E12 baseline)",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve /metrics (Prometheus), /metrics.json, /healthz "
        "and /readyz on this HTTP port (0 picks an ephemeral one; "
        "default: REPRO_METRICS_PORT, unset = off)",
    )
    _add_plan_option(serve)
    _add_strategy_option(serve)
    _add_exec_option(serve)
    _add_join_algo_option(serve)
    _add_backend_option(serve)

    top = commands.add_parser(
        "top",
        help="live terminal dashboard over a server's /metrics.json",
    )
    top.add_argument(
        "address",
        help="metrics endpoint as HOST:PORT (the serve --metrics-port "
        "address)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period (default: %(default)s)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        metavar="N",
        help="stop after N refreshes (0 = run until interrupted)",
    )
    top.add_argument(
        "--no-clear",
        dest="clear",
        action="store_false",
        help="append frames instead of redrawing in place",
    )

    shell = commands.add_parser(
        "shell",
        help="interactive client: commands in, NDJSON responses out",
    )
    shell.add_argument("--host", default="127.0.0.1")
    shell.add_argument("--port", type=int, default=7407)
    shell.add_argument(
        "--db", default=None, help="database to open on connect"
    )

    return parser


def _load_database(
    path: str, config: Optional[EngineConfig] = None
) -> DeductiveDatabase:
    with open(path) as handle:
        return DeductiveDatabase.from_source(handle.read(), config=config)


def _run_check(args) -> int:
    from repro.integrity.transactions import Transaction

    config = _config_from_args(args)
    db = _load_database(args.database, config)
    checker = IntegrityChecker(db, config=config)
    transaction = Transaction.coerce(list(args.updates))
    before = default_registry().snapshot() if args.metrics else None
    trace = None
    label = "check " + ", ".join(transaction.to_strings())
    if args.explain:
        with trace_query(label, config) as trace:
            result = checker.admit(transaction, args.method)
            trace.result = "ok" if result.ok else "violation"
    else:
        with maybe_trace(label, config):
            result = checker.admit(transaction, args.method)
    if args.format == "json":
        payload = serialize.check_result_json(result)
        payload["updates"] = transaction.to_strings()
        if trace is not None:
            payload["explain"] = trace.to_dict()
        if before is not None:
            payload["metrics"] = _metrics_delta(before)
        if args.apply and result.ok:
            for update in transaction:
                db.apply_update(update)
            payload["applied"] = db.to_source()
        print(json.dumps(payload))
        return 0 if result.ok else 1
    elif result.ok:
        print("OK: all constraints satisfied in the updated database")
    else:
        print(f"VIOLATION: {len(result.violations)} constraint instance(s)")
        for violation in result.violations:
            via = f"  (via {violation.trigger})" if violation.trigger else ""
            print(f"  {violation.constraint_id}: {violation.instance}{via}")
    if args.stats:
        for key, value in sorted(result.stats.items()):
            print(f"  # {key}: {value}")
    if trace is not None:
        print(trace.render())
    if before is not None:
        _print_metrics(_metrics_delta(before))
    if args.apply and result.ok:
        for update in transaction:
            db.apply_update(update)
        print()
        print(db.to_source(), end="")
    return 0 if result.ok else 1


def _run_satcheck(args) -> int:
    with open(args.database) as handle:
        checker = SatisfiabilityChecker.from_source(
            handle.read(),
            existential_reuse=not args.no_reuse,
            trace=args.trace,
        )
    result = checker.check(
        max_fresh_constants=args.budget,
        max_levels=args.max_levels,
        deepening=not args.no_deepening,
    )
    print(f"status: {result.status}")
    if result.model is not None:
        print(f"finite model ({len(result.model)} facts):")
        for fact in sorted(result.model, key=str):
            print(f"  {fact}")
    if args.trace and result.trace:
        print("trace:")
        for line in result.trace:
            print(f"  {line}")
    return {"satisfiable": 0, "unsatisfiable": 1}.get(result.status, 2)


def _run_query(args) -> int:
    config = _config_from_args(args)
    db = _load_database(args.database, config)
    formula = normalize_constraint(parse_formula(args.formula))
    before = default_registry().snapshot() if args.metrics else None
    engine = db.engine(config=config)
    trace = None
    if args.explain:
        with trace_query(str(formula), config) as trace:
            value = engine.evaluate(formula)
            trace.result = str(value)
    else:
        # maybe_trace is a no-op without --slow-query-ms; with it, the
        # completed trace reaches the slow-query logger.
        with maybe_trace(str(formula), config):
            value = engine.evaluate(formula)
    if args.format == "json":
        payload = serialize.query_result_json(args.formula, value)
        if trace is not None:
            payload["explain"] = trace.to_dict()
        if before is not None:
            payload["metrics"] = _metrics_delta(before)
        print(json.dumps(payload))
    else:
        print("true" if value else "false")
        if trace is not None:
            print(trace.render())
        if before is not None:
            _print_metrics(_metrics_delta(before))
    return 0 if value else 1


def _run_model(args) -> int:
    config = _config_from_args(args)
    db = _load_database(args.database, config)
    before = default_registry().snapshot() if args.metrics else None
    trace = None
    if args.explain:
        with trace_query(f"model {args.database}", config) as trace:
            model = db.canonical_model(config=config)
            trace.result = f"{len(model)} facts"
    else:
        with maybe_trace(f"model {args.database}", config):
            model = db.canonical_model(config=config)
    for fact in sorted(model, key=str):
        print(fact)
    if trace is not None:
        print(trace.render())
    if before is not None:
        _print_metrics(_metrics_delta(before))
    return 0


def _run_lint(args) -> int:
    from repro.analysis import analyze

    reports = []
    for path in args.databases:
        try:
            with open(path) as handle:
                source = handle.read()
        except OSError as error:
            print(f"error: cannot read {path}: {error}", file=sys.stderr)
            return 2
        reports.append((path, analyze(source)))
    if args.format == "json":
        files = [
            {"path": path, **report.to_dict()} for path, report in reports
        ]
        summary = {
            key: sum(report.summary()[key] for _, report in reports)
            for key in ("errors", "warnings", "info")
        }
        payload = files[0] if len(files) == 1 else {
            "files": files,
            "summary": summary,
        }
        print(json.dumps(payload))
    else:
        for path, report in reports:
            prefix = f"{path}: " if len(reports) > 1 else ""
            for line in report.render().splitlines():
                print(f"{prefix}{line}")
    if any(report.has_errors for _, report in reports):
        return 2
    if args.fail_on == "warning" and any(
        report.has_warnings for _, report in reports
    ):
        return 1
    return 0


#: ``repro evolve`` exit codes, one per triage status.
EVOLVE_EXIT_CODES = {
    "accepted": 0,
    "incompatible": 1,
    "undecided": 2,
    "repairable": 3,
}


def _run_evolve(args) -> int:
    from repro.integrity.evolution import assess_constraint_addition

    config = _config_from_args(args)
    db = _load_database(args.database, config)
    before = default_registry().snapshot() if args.metrics else None
    trace = None
    label = f"evolve {args.constraint}"
    if args.explain:
        with trace_query(label, config) as trace:
            result = assess_constraint_addition(
                db,
                args.constraint,
                id=args.id,
                max_fresh_constants=args.budget,
                max_levels=args.max_levels,
            )
            trace.result = result.status
    else:
        with maybe_trace(label, config):
            result = assess_constraint_addition(
                db,
                args.constraint,
                id=args.id,
                max_fresh_constants=args.budget,
                max_levels=args.max_levels,
            )
    if args.format == "json":
        payload = serialize.evolution_result_json(result)
        if trace is not None:
            payload["explain"] = trace.to_dict()
        if before is not None:
            payload["metrics"] = _metrics_delta(before)
        print(json.dumps(payload))
        return EVOLVE_EXIT_CODES[result.status]
    print(f"status: {result.status}")
    if result.witnesses:
        print("witnesses (violating instances today):")
        for witness in result.witnesses:
            binding = ", ".join(
                f"{var}={val}"
                for var, val in sorted(
                    serialize.substitution_json(witness).items()
                )
            )
            print(f"  {binding}")
    if result.status == "repairable" and result.sample_model is not None:
        print(f"sample consistent database ({len(result.sample_model)} facts):")
        for fact in sorted(result.sample_model, key=str):
            print(f"  {fact}")
    if result.status == "incompatible":
        print(
            "no sequence of fact updates can satisfy the extended "
            "constraint set"
        )
    if trace is not None:
        print(trace.render())
    if before is not None:
        _print_metrics(_metrics_delta(before))
    return EVOLVE_EXIT_CODES[result.status]


def _run_serve(args) -> int:
    from repro.service.server import DatabaseServer

    server = DatabaseServer(
        args.root,
        host=args.host,
        port=args.port,
        sync=not args.no_sync,
        config=_config_from_args(args),
        group_commit=not args.serialize_commits,
        snapshot_interval=args.snapshot_interval,
        metrics_port=args.metrics_port,
    )
    host, port = server.address
    print(f"listening on {host}:{port} (root: {args.root})", flush=True)
    if server.metrics_address is not None:
        mhost, mport = server.metrics_address
        print(
            f"metrics on http://{mhost}:{mport}/metrics "
            f"(also /metrics.json /healthz /readyz)",
            flush=True,
        )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.close()
    return 0


#: The dashboard's throughput rows: label → counter name. Rates come
#: from the server's sliding window at each horizon.
_TOP_RATES = (
    ("requests/s", "service.requests"),
    ("commits/s", "txn.commits"),
    ("conflicts/s", "txn.conflicts"),
    ("rejections/s", "txn.rejected"),
    ("wal bytes/s", "wal.bytes"),
    ("fsyncs/s", "wal.fsyncs"),
)

#: The dashboard's latency rows (windowed quantiles when the last 60s
#: saw observations, cumulative since process start otherwise).
_TOP_LATENCIES = (
    "service.request_seconds",
    "gate.check_seconds",
    "wal.append_seconds",
    "txn.session_seconds",
)


def _render_top(payload: dict) -> str:
    """One dashboard frame from a ``/metrics.json`` document."""
    window = payload.get("window") or {}
    rates = window.get("rates") or {}
    quantiles = window.get("quantiles") or {}
    metrics = payload.get("metrics") or {}
    info = payload.get("info") or {}
    lines = [
        "repro top — uptime {:.0f}s — window {}s, {} samples".format(
            payload.get("uptime_seconds", 0.0),
            window.get("width_seconds", "?"),
            window.get("samples", 0),
        ),
        "",
        f"{'throughput':<16}{'1s':>12}{'10s':>12}{'60s':>12}",
    ]
    for label, name in _TOP_RATES:
        entry = rates.get(name) or {}
        lines.append(
            f"{label:<16}"
            + "".join(
                f"{entry.get(h, 0.0):>12.1f}" for h in ("1s", "10s", "60s")
            )
        )
    lines.append("")
    lines.append(
        f"{'latency (ms)':<26}{'p50':>9}{'p95':>9}{'p99':>9}  window"
    )
    for name in _TOP_LATENCIES:
        entry = quantiles.get(name)
        scope = "60s"
        if entry is None:
            # Nothing landed in the window: fall back to the cumulative
            # histogram so an idle server still shows its history.
            series = metrics.get(name)
            if not isinstance(series, dict) or not series.get("count"):
                continue
            entry = series
            scope = "all"
        lines.append(
            f"{name:<26}"
            + "".join(
                f"{entry.get(p, 0.0) * 1000:>9.2f}"
                for p in ("p50", "p95", "p99")
            )
            + f"  {scope}"
        )
    databases = info.get("databases") or {}
    if databases:
        lines.append("")
        lines.append(
            f"{'database':<20}{'lsn':>8}{'facts':>10}{'sessions':>10}"
        )
        for name in sorted(databases):
            entry = databases[name]
            lines.append(
                f"{name:<20}{entry.get('lsn', 0):>8}"
                f"{entry.get('facts', 0):>10}"
                f"{entry.get('open_sessions', 0):>10}"
            )
    return "\n".join(lines)


def _run_top(args) -> int:
    import urllib.error
    import urllib.request

    address = args.address
    if "://" not in address:
        address = f"http://{address}"
    url = address.rstrip("/") + "/metrics.json"
    frames = 0
    try:
        while True:
            try:
                with urllib.request.urlopen(url, timeout=5) as response:
                    payload = json.loads(response.read())
            except (OSError, urllib.error.URLError, ValueError) as error:
                print(
                    f"error: cannot scrape {url} ({error})",
                    file=sys.stderr,
                )
                return 2
            if args.clear and sys.stdout.isatty():
                # ANSI clear + home: redraw the frame in place.
                sys.stdout.write("\x1b[2J\x1b[H")
            print(_render_top(payload), flush=True)
            frames += 1
            if args.iterations and frames >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


_SHELL_USAGE = """\
commands:
  open DB [SOURCE-FILE]   open or create a database
  begin                   start a session on the open database
  stage LITERAL           stage an update, e.g.  stage not p(a)
  check                   dry-run the integrity gate
  commit                  commit the session
  abort                   abort the session
  query FORMULA           evaluate over session (if any) else database
  explain FORMULA         query with the server's EXPLAIN trace
  holds ATOM              ground-atom truth
  constraint FORMULA      propose constraint DDL (triage-gated)
  rule RULE               propose rule DDL (lint- and integrity-gated)
  model | stats | databases | checkpoint | ping
  raw JSON                send a raw protocol request
  help | quit\
"""


def _shell_request(state, line: str):
    """Translate one shell command into a protocol request dict (or a
    ('message', text) directive handled locally)."""
    command, _, rest = line.partition(" ")
    rest = rest.strip()
    command = command.lower()
    if command in ("help", "?"):
        return ("message", _SHELL_USAGE)
    if command in ("quit", "exit"):
        return ("quit", None)
    if command == "raw":
        request = json.loads(rest)
        if not isinstance(request, dict) or "op" not in request:
            raise ValueError(
                "raw request must be a JSON object with an 'op' field"
            )
        return request
    if command == "open":
        name, _, source_path = rest.partition(" ")
        if not name:
            raise ValueError("usage: open DB [SOURCE-FILE]")
        request = {"op": "open", "db": name}
        if source_path.strip():
            with open(source_path.strip()) as handle:
                request["source"] = handle.read()
        # Recorded as current only once the server confirms the open.
        state["_pending_db"] = name
        return request
    if command in ("databases", "ping"):
        return {"op": command}
    if command in ("begin", "model", "stats", "checkpoint"):
        if not state.get("db"):
            raise ValueError("open a database first")
        return {"op": command, "db": state["db"]}
    if command == "stage":
        if not state.get("session"):
            raise ValueError("begin a session first")
        return {"op": "stage", "session": state["session"], "updates": [rest]}
    if command in ("commit", "abort", "check"):
        if not state.get("session"):
            raise ValueError("begin a session first")
        return {"op": command, "session": state["session"]}
    if command in ("query", "holds", "explain"):
        target = (
            {"session": state["session"]}
            if state.get("session")
            else {"db": state.get("db")}
        )
        if not any(target.values()):
            raise ValueError("open a database first")
        if command == "explain":
            return {"op": "query", **target, "formula": rest, "explain": True}
        key = "formula" if command == "query" else "atom"
        return {"op": command, **target, key: rest}
    if command == "constraint":
        if not state.get("db"):
            raise ValueError("open a database first")
        return {"op": "add_constraint", "db": state["db"], "constraint": rest}
    if command == "rule":
        if not state.get("db"):
            raise ValueError("open a database first")
        return {"op": "add_rule", "db": state["db"], "rule": rest}
    raise ValueError(f"unknown command {command!r} (try 'help')")


def _run_shell(args) -> int:
    from repro.service.client import DatabaseClient, ServiceError

    try:
        client = DatabaseClient(args.host, args.port)
    except OSError as error:
        print(
            f"error: cannot connect to {args.host}:{args.port} ({error})",
            file=sys.stderr,
        )
        return 2
    state = {"db": args.db, "session": None}
    if args.db:
        try:
            print(json.dumps(client.call("open", db=args.db)))
        except (ServiceError, OSError) as error:
            print(f"error: open {args.db!r} failed: {error}", file=sys.stderr)
            client.close()
            return 2
    interactive = sys.stdin.isatty()
    if interactive:
        print(_SHELL_USAGE)
    try:
        while True:
            if interactive:
                sys.stdout.write("repro> ")
                sys.stdout.flush()
            line = sys.stdin.readline()
            if not line:
                break
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                request = _shell_request(state, line)
            except (ValueError, OSError) as error:
                print(json.dumps({"ok": False, "error": str(error)}))
                continue
            if isinstance(request, tuple):
                directive, payload = request
                if directive == "quit":
                    break
                print(payload)
                continue
            try:
                response = client.call(request.pop("op"), **request)
                response["ok"] = True
            except ServiceError as error:
                response = {"ok": False, "error": str(error)}
            except (OSError, json.JSONDecodeError) as error:
                # The server went away mid-session: one line, no
                # traceback, and there is nothing left to talk to.
                print(
                    json.dumps(
                        {"ok": False, "error": f"connection lost: {error}"}
                    )
                )
                return 1
            pending = state.pop("_pending_db", None)
            if response["ok"] and pending is not None:
                state["db"] = pending
            if response.get("session"):
                state["session"] = response["session"]
            if line.split(None, 1)[0].lower() in ("commit", "abort"):
                state["session"] = None
            explain_payload = (
                response.pop("explain", None) if response["ok"] else None
            )
            print(json.dumps(response))
            if explain_payload is not None:
                print(render_trace(explain_payload))
    finally:
        client.close()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    runners = {
        "check": _run_check,
        "satcheck": _run_satcheck,
        "query": _run_query,
        "model": _run_model,
        "evolve": _run_evolve,
        "serve": _run_serve,
        "shell": _run_shell,
        "top": _run_top,
        "lint": _run_lint,
    }
    try:
        return runners[args.command](args)
    except ValueError as error:
        # User-input errors past argparse — malformed database or
        # formula syntax (ParseError), non-ground update literals,
        # unsafe constraints — fail with one line, carrying the same
        # diagnostic code the analyzer assigns to the defect.
        from repro.analysis.diagnostics import coded_message

        print(f"error: {coded_message(error)}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
