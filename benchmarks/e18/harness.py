"""Measuring from outside: targets, spans, process accounting, statistics.

Everything the benchmark learns about ``repro`` comes through a public
surface — the NDJSON client against a real ``python -m repro serve``
child, or ``repro.open`` in this interpreter. A *target* hides which of
the two a workload drives, so the runner executes every op the same
way and the only difference between the wire and in-process workloads
is what a verb costs.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (the benchmark may write nowhere
#: else); listed in .gitignore and emptied by every run that used it.
WORK = os.path.join(HERE, "_work")
DATABASE = "e18"

now = time.perf_counter


def clean_environment() -> Dict[str, str]:
    """The child environment: every ``REPRO_*`` knob stripped, so the
    server runs on ``repro serve`` defaults; a fixed hash seed, so set
    iteration inside the engine — and with it every work counter —
    repeats from run to run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


# -- statistics -------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated *q*-quantile; ``0.0`` for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median_ms(samples: Sequence[float]) -> float:
    return 1e3 * statistics.median(samples) if samples else 0.0


def slices(records: Sequence, parts: int, unit: int) -> List[Sequence]:
    """*records* cut into at most *parts* consecutive groups of whole
    rounds (*unit* records each), sizes as even as the rounds allow."""
    rounds = len(records) // unit
    parts = max(1, min(parts, rounds))
    bounds = [unit * (rounds * i // parts) for i in range(parts + 1)]
    return [records[a:b] for a, b in zip(bounds, bounds[1:])]


# -- spans ------------------------------------------------------------------


class Tracer:
    """In-memory spans: ``(id, parent, name, start, end)``. An op is a
    root span; each verb it sends is a child. Written out once, at the
    end of the run."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self._ids = itertools.count(1)

    def record(
        self, name: str, start: float, end: float, parent: Optional[int] = None
    ) -> int:
        span_id = next(self._ids)
        self.spans.append((span_id, parent, name, start, end))
        return span_id

    @staticmethod
    def cost_per_span(samples: int = 20000) -> float:
        """Seconds one :meth:`record` costs the client. (The clock reads
        around a verb are not tracing: the untraced pass takes them too,
        for the per-verb latencies.)"""
        scratch = Tracer()
        start = now()
        for _ in range(samples):
            scratch.record("x", start, start)
        return (now() - start) / samples

    def dump(self, path: str, header: Dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    **header,
                    "columns": ["id", "parent", "name", "start_s", "end_s"],
                    "spans": self.spans,
                },
                handle,
            )


# -- process accounting -----------------------------------------------------

def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def directory_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(path)
        for name in names
    )


# -- targets ----------------------------------------------------------------

Verb = Tuple[str, float, float]


class WireTarget:
    """A real ``python -m repro serve`` child (its defaults: fsync on,
    group commit on, cache on, snapshot every 64 commits) and one
    client connection per op stream."""

    drive = "wire"

    def __init__(self, root: str, connections: int, program: Optional[str]):
        from repro.service.client import DatabaseClient

        self.root = root
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", root, "--port", "0"],
            env=clean_environment(),
            stdout=subprocess.PIPE,
            text=True,
        )
        self.clients: list = []
        try:
            banner = self.process.stdout.readline()
            if not banner.startswith("listening on "):
                raise RuntimeError(f"server did not start: {banner!r}")
            port = int(banner.split()[2].rsplit(":", 1)[1])
            for _ in range(connections):
                self.clients.append(DatabaseClient(port=port, timeout=60.0))
            if program is not None:
                self.clients[0].open(DATABASE, program)
        except BaseException:
            self.kill()
            raise

    def step(self, conn: int, verb: str, payload, verbs: List[Verb]):
        """Send one step of an op; every round trip it takes goes into
        *verbs* as ``(name, start, end)``."""
        client = self.clients[conn]
        if verb == "commit":
            t0 = now()
            session = client.begin(DATABASE)
            t1 = now()
            session.stage(list(payload))
            t2 = now()
            status = session.commit()["status"]
            verbs += (("begin", t0, t1), ("stage", t1, t2), ("commit", t2, now()))
            return status
        t0 = now()
        if verb == "holds":
            value = client.holds(DATABASE, payload)
        elif verb == "query":
            value = client.query(DATABASE, payload)
        else:
            raise ValueError(f"no wire verb {verb!r}")
        verbs.append((verb, t0, now()))
        return value

    def registry(self) -> Dict:
        return self.clients[0].metrics()

    def model(self) -> List[str]:
        return self.clients[0].model(DATABASE)

    def lsn(self) -> int:
        return self.clients[0].stats(DATABASE)["lsn"]

    def peak_rss_mb(self) -> float:
        return _proc_peak_rss_mb(self.process.pid)

    def kill(self) -> None:
        """SIGKILL — no shutdown hook runs, so what a restart finds is
        what the WAL and snapshots already held."""
        for client in self.clients:
            try:
                client.close()
            except OSError:
                pass
        self.clients = []
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait()
        self.process.stdout.close()

    close = kill


class InprocTarget:
    """``repro.open(source=...)`` in this interpreter, in memory, on the
    default ``EngineConfig``; for ``satcheck`` no database at all."""

    drive = "inproc"

    def __init__(self, program: str, problems: Optional[Dict] = None):
        import repro

        self.problems = problems
        self.db = None if problems else repro.open(source=program)

    def step(self, conn: int, verb: str, payload, verbs: List[Verb]):
        t0 = now()
        if verb == "commit":
            value = self.db.submit(list(payload)).status
        elif verb == "check":
            value = self.db.check(list(payload)).ok
        elif verb == "holds":
            value = self.db.holds(payload)
        elif verb == "query":
            value = self.db.query(payload)
        elif verb == "sat":
            from repro import SatisfiabilityChecker

            text, options, limits = self.problems[payload]
            checker = SatisfiabilityChecker.from_source(text, **options)
            t1 = now()
            value = checker.check(**limits).status
            verbs += (("sat.compile", t0, t1), ("sat.check", t1, now()))
            return value
        else:
            raise ValueError(f"no in-process verb {verb!r}")
        verbs.append((verb, t0, now()))
        return value

    def registry(self) -> Dict:
        import repro

        return repro.metrics()

    def model(self) -> List[str]:
        from repro.serialize import model_json

        return model_json(self.db.model_facts()) if self.db else []

    def lsn(self) -> int:
        return self.db.lsn if self.db else 0

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        if self.db is not None:
            self.db.close()


def registry_diff(before: Dict, after: Dict) -> Dict[str, float]:
    """Counters subtract; a histogram contributes ``name.count`` and
    ``name.sum``."""
    out: Dict[str, float] = {}
    for name, value in after.items():
        prior = before.get(name, 0)
        if isinstance(value, dict):
            prior = prior if isinstance(prior, dict) else {}
            out[name + ".count"] = value["count"] - prior.get("count", 0)
            out[name + ".sum"] = value["sum"] - prior.get("sum", 0.0)
        else:
            out[name] = value - prior
    return out


# -- scratch directories ----------------------------------------------------


def fresh_directory(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_work(*parts: str) -> None:
    shutil.rmtree(os.path.join(WORK, *parts), ignore_errors=True)
    try:
        os.rmdir(WORK)  # only when this was the last run using it
    except OSError:
        pass


def environment_header() -> Dict[str, object]:
    """Where the numbers were taken: they are the sandbox's, not a
    device's."""
    filesystem = "unknown"
    best = -1
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                _, mount, kind = line.split()[:3]
                if HERE.startswith(mount) and len(mount) > best:
                    best, filesystem = len(mount), kind
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "filesystem": filesystem,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "git_commit": commit or "unknown",
    }


def spread(values: Iterable[float]) -> float:
    """Interquartile range as a share of the median (0 below 2 values)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0
