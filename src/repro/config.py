"""One frozen configuration object for every engine knob.

The rule: this is the only module that names a knob's domain or reads
a ``REPRO_*`` environment variable. It imports nothing from ``repro``,
so every layer can import it; every engine seam takes exactly one
``config: EngineConfig | None = None`` parameter (``None`` means
``EngineConfig()``) and reads ``config.<knob>``. Values are validated
once, in :meth:`EngineConfig.__post_init__`, with a one-line
``ValueError`` naming the accepted choices; the config is hashable, so
it keys engine memos directly.

The knobs:

``strategy``
    How queries are answered: ``lazy`` (per-closure materialization)
    or ``magic`` (goal-directed bottom-up). Both feed the same
    semi-naive fixpoint.
``plan``
    Join order: ``greedy`` (cardinality-ranked) or ``source`` (textual).
``exec_mode``
    Join execution: ``batch`` (set-at-a-time hash joins) or ``tuple``
    (tuple-at-a-time oracle). Default from ``REPRO_EXEC``.
``join_algo``
    The batch path's join algorithm: ``auto`` (leapfrog triejoin on
    cyclic eligible bodies, hash elsewhere), ``wcoj`` (leapfrog on
    every eligible body, counting fallbacks), ``hash`` (pairwise
    only). Default from ``REPRO_JOIN``; inert under
    ``exec_mode="tuple"``.
``supplementary``
    Whether the magic rewrite shares rule prefixes through
    supplementary predicates.
``backend``
    Fact-store backend: ``dict`` (in-process reference store) or
    ``sqlite`` (out-of-core). Default from ``REPRO_BACKEND``.
``cache``
    A no-op: validated as a bool, read by nothing and excluded from
    :meth:`EngineConfig.key`. Committed-state reads are store probes on
    the maintained model, so there is no result cache to switch on; the
    field stays so existing ``EngineConfig(cache=…)`` calls still
    construct.
``slow_query_ms``
    Slow-query log threshold in milliseconds: queries/checks slower
    than this emit their completed :class:`repro.obs.QueryTrace`
    through stdlib logging under ``repro.obs.slowquery``. ``None``
    (the default) disables tracing entirely; ``0`` traces every
    query. Default from ``REPRO_SLOW_QUERY_MS``. Purely
    observational — excluded from :meth:`EngineConfig.key`.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Optional, Tuple

STRATEGIES = ("lazy", "magic")
PLANS = ("greedy", "source")
#: ``batch`` is the set-at-a-time kernel, ``tuple`` the oracle the
#: differential suite compares it against.
EXEC_MODES = ("batch", "tuple")
#: ``hash`` is the pairwise pipeline; ``wcoj`` attempts the leapfrog
#: triejoin on every eligible body and counts a fallback otherwise;
#: ``auto`` routes only *cyclic* eligible bodies to it — an acyclic
#: body has a join tree the hash pipeline already evaluates
#: near-optimally, so choosing hash there is a plan, not a fallback.
JOIN_ALGOS = ("auto", "wcoj", "hash")
BACKENDS = ("dict", "sqlite")


def _choice(label: str, value: str, domain: Tuple[str, ...]) -> str:
    if value not in domain:
        raise ValueError(f"unknown {label} {value!r}; pick one of {domain}")
    return value


def validate_backend(backend: str) -> str:
    """Fail fast on an unknown backend name, listing the accepted
    values. Public because :func:`repro.storage.backends.make_store`
    is callable without a config."""
    return _choice("backend", backend, BACKENDS)


def _env_choice(
    variable: str, label: str, domain: Tuple[str, ...], default: str
) -> str:
    """A process-wide default the CI matrix flips without touching
    call sites; a typo aborts import with one clear error."""
    return _choice(label, os.environ.get(variable, default), domain)


def _slow_query_ms(value, name: str = "slow_query_ms") -> float:
    """A finite threshold >= 0 (``nan`` would compare false against
    every elapsed time and log each query as slow)."""
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not math.isfinite(value)
        or value < 0
    ):
        raise ValueError(
            f"{name} must be a finite number >= 0 (ms): {value!r}"
        )
    return value


def _default_slow_query_ms() -> Optional[float]:
    """``REPRO_SLOW_QUERY_MS`` as a float threshold, empty/unset → off.

    The CI tracing leg sets it to ``0`` so every query in the suite
    runs fully traced."""
    raw = os.environ.get("REPRO_SLOW_QUERY_MS", "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_SLOW_QUERY_MS must be a number (ms): {raw!r}"
        ) from None
    return _slow_query_ms(value, "REPRO_SLOW_QUERY_MS")


DEFAULT_STRATEGY = "lazy"
DEFAULT_PLAN = "greedy"
DEFAULT_EXEC = _env_choice("REPRO_EXEC", "exec mode", EXEC_MODES, "batch")
DEFAULT_JOIN = _env_choice("REPRO_JOIN", "join algo", JOIN_ALGOS, "auto")
DEFAULT_BACKEND = _env_choice("REPRO_BACKEND", "backend", BACKENDS, "dict")
DEFAULT_SLOW_QUERY_MS = _default_slow_query_ms()


def default_metrics_port() -> Optional[int]:
    """``REPRO_METRICS_PORT`` as a port number, empty/unset → no
    exporter. ``0`` asks for an ephemeral port (the CI service leg uses
    it so every server in the suite runs with scraping enabled). Read
    at call time — the server consults it per construction — so tests
    can flip the environment without re-importing."""
    raw = os.environ.get("REPRO_METRICS_PORT", "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_METRICS_PORT must be an integer port: {raw!r}"
        ) from None
    if not 0 <= value <= 65535:
        raise ValueError(
            f"REPRO_METRICS_PORT must be in [0, 65535]: {raw!r}"
        )
    return value


@dataclass(frozen=True)
class EngineConfig:
    """Immutable bundle of every evaluation/storage knob."""

    strategy: str = DEFAULT_STRATEGY
    plan: str = DEFAULT_PLAN
    exec_mode: str = DEFAULT_EXEC
    supplementary: bool = True
    backend: str = DEFAULT_BACKEND
    cache: bool = False
    slow_query_ms: Optional[float] = DEFAULT_SLOW_QUERY_MS
    # Appended after the original knobs so positional construction
    # stays stable across versions.
    join_algo: str = DEFAULT_JOIN

    def __post_init__(self):
        _choice("strategy", self.strategy, STRATEGIES)
        _choice("plan", self.plan, PLANS)
        _choice("exec mode", self.exec_mode, EXEC_MODES)
        _choice("join algo", self.join_algo, JOIN_ALGOS)
        validate_backend(self.backend)
        if not isinstance(self.supplementary, bool):
            raise ValueError(
                f"supplementary must be a bool: {self.supplementary!r}"
            )
        if not isinstance(self.cache, bool):
            raise ValueError(f"cache must be a bool: {self.cache!r}")
        if self.slow_query_ms is not None:
            _slow_query_ms(self.slow_query_ms)

    def replace(self, **changes) -> "EngineConfig":
        """A copy with *changes* applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def key(self) -> Tuple:
        """The evaluation-identity tuple: two configs with equal keys
        answer every query identically."""
        return (
            self.strategy,
            self.plan,
            self.exec_mode,
            self.supplementary,
            self.backend,
            # Included deliberately, mirroring exec_mode: the hash and
            # leapfrog paths answer identically (the differential
            # harness pins it), but keeping evaluation identity
            # conservative means a shared answer never hides a
            # divergence bug between the legs.
            self.join_algo,
        )
