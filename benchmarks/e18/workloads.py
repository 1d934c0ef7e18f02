"""Seeded input generators for the six E18 workloads.

Self-contained on purpose: nothing is imported from ``repro`` (least of
all ``repro.workloads``), so an edit there cannot shift the benchmark.
A workload is program text plus one endless op stream per connection;
the same ``--seed`` gives byte-identical text (string-seeded
``random.Random`` and insertion-ordered dicts only — never a ``set`` of
strings, whose order follows ``PYTHONHASHSEED``). The program under
test receives only these strings.

An :class:`Op` is one scripted interaction of a named class; each
:class:`Step` carries the verb, the text payload and the value
``oracle.py`` says the database must answer:

======== ============================== =======================
verb     payload                        expected
======== ============================== =======================
holds    ground atom                    bool
query    closed formula                 bool
commit   tuple of update literals       committed | rejected
check    tuple of update literals       bool (dry-run verdict)
sat      problem name                   satisfiable | unsat…
======== ============================== =======================

The streams choose every target from the oracle's state at generation
time; since each stream's outcome is fixed by its own earlier ops
(write partitions are disjoint), no reply from the database is needed
to generate the next op.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from typing import (
    Callable, Deque, Dict, Iterator, List, NamedTuple, Sequence, Set, Tuple,
)

from oracle import (
    SAT_VERDICTS,
    OrdersOracle,
    PayrollOracle,
    ReachOracle,
    Update,
    fact,
    render,
)


class Step(NamedTuple):
    verb: str
    payload: object
    expected: object


class Op(NamedTuple):
    cls: str
    steps: Tuple[Step, ...]


#: Sizes. ``full`` is what BENCHMARK.json measures; ``smoke`` is for
#: the self-test and is never written to a baseline.
SCALES: Dict[str, Dict[str, int]] = {
    "full": {
        "customers": 400,
        "events": 6000,
        "layers": 5,
        "width": 80,
        "update_width": 28,
        "employees": 600,
        "departments": 60,
    },
    "smoke": {
        "customers": 40,
        "events": 100,
        "layers": 4,
        "width": 12,
        "update_width": 12,
        "employees": 60,
        "departments": 6,
    },
}


def _rng(name: str, seed: int, part: object = "") -> random.Random:
    return random.Random(f"e18:{name}:{seed}:{part}")


def _decks(rng: random.Random, mix: Dict[str, int]) -> Iterator[str]:
    """Op kinds, dealt from a deck that holds each kind ``mix[kind]``
    times and is reshuffled when it runs out. Every round of
    ``sum(mix.values())`` ops therefore has exactly the same mix: two
    slices of a run differ by what the program did, not by how many
    cheap and dear ops chance put into them."""
    deck = [kind for kind, count in mix.items() for _ in range(count)]
    while True:
        rng.shuffle(deck)
        yield from deck


def _commit(updates: Sequence[Update], status: str) -> Step:
    return Step("commit", tuple(render(u) for u in updates), status)


class Workload:
    """Program text, op streams and the oracle's view of the end state."""

    name = ""
    drive = "inproc"  # or "wire"
    #: the op mix, dealt by :func:`_decks`; one deck is one *round*,
    #: and the timed phase and its slices consist of whole rounds.
    mix: Dict[str, int] = {}
    warmup_ops = 0
    #: how many ops of stream 0 the traced pass replays layer by layer.
    replay_ops = 0
    #: peak memory is read when stream 0 has run this many timed ops —
    #: a fixed amount of work, so a faster program is not charged for
    #: the extra facts it had time to store.
    memory_mark = 0
    program = ""
    #: a ground atom no op ever retracts: the first question put to a
    #: server that was killed and restarted.
    probe = ""
    #: satisfiability problems by name, for a workload that checks
    #: constraint sets instead of driving a database.
    problems: Dict[str, Tuple] = {}

    def __init__(self) -> None:
        self.streams: List[Iterator[Op]] = []

    @property
    def round_ops(self) -> int:
        return sum(self.mix.values())

    def expected_model(self) -> Set[str]:
        raise NotImplementedError

    def expected_commits(self) -> int:
        return 0

    def stored_facts(self) -> int:
        return 0


# ---------------------------------------------------------------------
# orders: customers / orders / line items (wire workloads)
# ---------------------------------------------------------------------

ORDERS_SCHEMA = """\
open_order(O) :- order_by(O, C), not dispatched(O).
shipped(O) :- dispatched(O).
forall O, C: order_by(O, C) -> customer(C).
forall L, O: item_of(L, O) -> exists C: order_by(O, C).
forall O, C: order_by(O, C) -> exists L: item_of(L, O).
forall O: shipped(O) -> not open_order(O).
"""


def _orders_database(
    rng: random.Random, customers: int, partitions: int
) -> Tuple[str, List[OrdersOracle]]:
    """``customers`` × 2 orders × 2 items, about half dispatched;
    customer *c* belongs to partition ``c % partitions``."""
    states = [OrdersOracle() for _ in range(partitions)]
    lines: List[str] = []
    for c in range(customers):
        state = states[c % partitions]
        customer = f"c{c}"
        lines.append(f"{fact('customer', customer)}.")
        for o in range(2):
            order = f"o{c}_{o}"
            items = [f"i{c}_{o}_{k}" for k in range(2)]
            dispatched = rng.random() < 0.5
            state.seed_order(order, customer, items, dispatched)
            lines.append(f"{fact('order_by', order, customer)}.")
            lines.extend(f"{fact('item_of', i, order)}." for i in items)
            if dispatched:
                lines.append(f"{fact('dispatched', order)}.")
    return "\n".join(lines) + "\n" + ORDERS_SCHEMA, states


def _zipf_picker(
    rng: random.Random, population: Sequence[str], exponent: float = 1.2
) -> Callable[[], str]:
    cumulative: List[float] = []
    total = 0.0
    for rank in range(1, len(population) + 1):
        total += 1.0 / rank**exponent
        cumulative.append(total)
    return lambda: rng.choices(population, cum_weights=cumulative)[0]


class OrdersOltp(Workload):
    name = "orders_oltp"
    drive = "wire"
    # As many cancels as new orders: the database keeps its size, so an
    # op costs the same in the last second of a run as in the first.
    # (The gate's cost grows with the order count; a stream that only
    # adds orders halves its own throughput within half a minute.)
    mix = {"new_order": 5, "cancel": 5, "dispatch": 3, "violating": 3, "status_read": 4}
    warmup_ops = 20
    replay_ops = 100
    memory_mark = 80
    connections = 2
    probe = "customer(c0)"

    def __init__(self, seed: int, scale: Dict[str, int]) -> None:
        super().__init__()
        self.program, self.states = _orders_database(
            _rng(self.name, seed, "db"), scale["customers"], self.connections
        )
        self.streams = [
            self._stream(_rng(self.name, seed, part), part, state)
            for part, state in enumerate(self.states)
        ]

    def _stream(
        self, rng: random.Random, part: int, state: OrdersOracle
    ) -> Iterator[Op]:
        customers = list(state.customers)
        rng.shuffle(customers)  # the Zipf-hot customers differ per seed
        hot = _zipf_picker(rng, customers)
        serial = 0
        for kind in _decks(rng, self.mix):
            serial += 1
            open_orders = kind == "dispatch" and [
                o for o in state.order_by if o not in state.dispatched
            ]
            if open_orders:
                order = rng.choice(open_orders)
                updates = [(True, "dispatched", (order,))]
                yield Op(
                    "dispatch",
                    (
                        _commit(updates, state.apply(updates)),
                        Step("holds", fact("shipped", order), True),
                    ),
                )
            elif kind == "cancel":
                order = rng.choice(list(state.order_by))
                updates = [
                    (False, "order_by", (order, state.order_by[order])),
                    *(
                        (False, "item_of", (item, order))
                        for item in state.items[order]
                    ),
                ]
                if order in state.dispatched:
                    updates.append((False, "dispatched", (order,)))
                yield Op("cancel", (_commit(updates, state.apply(updates)),))
            elif kind == "violating":
                if rng.random() < 0.5:
                    order = f"g{part}_{serial}"
                    updates = [
                        (True, "order_by", (order, f"ghost{part}_{serial}")),
                        (True, "item_of", (f"{order}_a", order)),
                    ]
                else:
                    order = rng.choice(list(state.order_by))
                    updates = [
                        (False, "item_of", (item, order))
                        for item in state.items[order]
                    ]
                yield Op("violating", (_commit(updates, state.apply(updates)),))
            elif kind == "status_read":
                customer = hot()
                orders = list(state.orders_of.get(customer, ()))
                if orders and rng.random() < 0.7:
                    pred = rng.choice(("open_order", "shipped"))
                    order = rng.choice(orders)
                    step = Step(
                        "holds", fact(pred, order), state.holds(pred, order)
                    )
                else:
                    step = Step(
                        "query",
                        f"exists O: order_by(O, {customer}) and open_order(O)",
                        state.has_open_order(customer),
                    )
                yield Op("status_read", (step,))
            else:
                customer = rng.choice(customers)
                order = f"n{part}_{serial}"
                updates = [
                    (True, "order_by", (order, customer)),
                    (True, "item_of", (f"{order}_a", order)),
                    (True, "item_of", (f"{order}_b", order)),
                ]
                yield Op(
                    "new_order",
                    (
                        Step("holds", fact("customer", customer), True),
                        _commit(updates, state.apply(updates)),
                        Step("holds", fact("open_order", order), True),
                    ),
                )

    def expected_model(self) -> Set[str]:
        return set().union(*(state.model() for state in self.states))

    def expected_commits(self) -> int:
        return sum(state.commits for state in self.states)

    def stored_facts(self) -> int:
        return sum(state.stored_facts() for state in self.states)


class IngestWire(OrdersOltp):
    name = "ingest_wire"
    mix = {"ingest": 9, "probe": 1}
    warmup_ops = 40
    replay_ops = 80
    memory_mark = 600
    connections = 1
    KINDS = ("click", "view", "cart", "pay", "ship")

    def __init__(self, seed: int, scale: Dict[str, int]) -> None:
        super().__init__(seed, scale)
        # The event table is a sliding window: every commit inserts five
        # events and retires the five oldest. Without retirement each
        # checkpoint rewrites a snapshot that grows with every commit,
        # and throughput falls sixfold within a minute — a run would
        # measure how long it lasted, not what an op costs.
        rng = _rng(self.name, seed, "events")
        state = self.states[0]
        self.window: Deque[Tuple[str, ...]] = deque()
        customers = list(state.customers)
        for serial in range(scale["events"]):
            self.window.append(self._event(rng, f"w{serial}", customers))
        state.events = dict.fromkeys(self.window)
        self.program = (
            "".join(f"{fact('event', *row)}.\n" for row in self.window)
            + self.program
        )

    def _event(self, rng: random.Random, ident: str, customers) -> Tuple[str, ...]:
        return (ident, rng.choice(customers), rng.choice(self.KINDS))

    def _stream(
        self, rng: random.Random, part: int, state: OrdersOracle
    ) -> Iterator[Op]:
        customers = list(state.customers)
        serial = 0
        for kind in _decks(rng, self.mix):
            if kind == "ingest":
                updates: List[Update] = []
                for _ in range(5):
                    serial += 1
                    row = self._event(rng, f"e{serial}", customers)
                    self.window.append(row)
                    updates.append((True, "event", row))
                    updates.append((False, "event", self.window.popleft()))
                yield Op("ingest", (_commit(updates, state.apply(updates)),))
            else:
                if rng.random() < 0.5:
                    row = rng.choice(self.window)
                else:
                    row = self._event(rng, f"e{serial + 1}x", customers)
                yield Op(
                    "probe",
                    (
                        Step(
                            "holds",
                            fact("event", *row),
                            state.holds("event", *row),
                        ),
                    ),
                )


# ---------------------------------------------------------------------
# reach: recursive closure over a layered DAG
# ---------------------------------------------------------------------

REACH_SCHEMA = """\
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
tri(X, Y, Z) :- edge(X, Y), edge(Y, Z), shortcut(X, Z).
forall X, Y: edge(X, Y) -> node(X) and node(Y).
"""

GUARD = "forall X, Y: guarded(X) and reach(X, Y) -> not blocked(Y).\n"


class _Reach(Workload):
    """A layered DAG — edges only run from one layer to the next, so a
    single update can add or remove at most one cone of the closure.
    (A random digraph was ruled out: one edge that closes a giant
    component costs seconds and makes a short run unrepeatable.)"""

    #: whether the schema carries the guarded/blocked constraint.
    guard = False
    width_key = "width"

    def __init__(self, seed: int, scale: Dict[str, int]) -> None:
        super().__init__()
        rng = _rng(self.name, seed, "db")
        width = scale[self.width_key]
        self.layers = [
            [f"v{layer}_{i}" for i in range(width)]
            for layer in range(scale["layers"])
        ]
        nodes = [n for layer in self.layers for n in layer]
        edges: Dict[Tuple[str, str], None] = {}
        for layer, below in zip(self.layers, self.layers[1:]):
            for source in layer:
                for target in rng.sample(below, 2):
                    edges[(source, target)] = None
        graph = ReachOracle(nodes, edges, ())
        shortcuts = [
            (source, target)
            for source in nodes
            for middle in graph.succ[source]
            for target in graph.succ[middle]
            if rng.random() < 0.3
        ]
        guarded: List[str] = []
        blocked: List[str] = []
        if self.guard:
            guarded = self.layers[0][: max(1, width // 12)]
            covered = {t: None for g in guarded for t in graph.reachable(g)}
            free = [n for n in self.layers[-1] if n not in covered]
            blocked = free[: max(1, width // 8)]
            if not blocked:
                raise ValueError(f"seed {seed} leaves no sink to block")
        self.graph = ReachOracle(nodes, edges, shortcuts, guarded, blocked)
        self.level = {n: i for i, layer in enumerate(self.layers) for n in layer}
        lines = [f"{fact('node', n)}." for n in nodes]
        lines += [f"{fact('edge', s, t)}." for s, t in edges]
        lines += [f"{fact('shortcut', s, t)}." for s, t in self.graph.shortcuts]
        lines += [f"{fact('guarded', n)}." for n in guarded]
        lines += [f"{fact('blocked', n)}." for n in blocked]
        self.program = (
            "\n".join(lines) + "\n" + REACH_SCHEMA + (GUARD if guarded else "")
        )
        self.streams = [self._stream(_rng(self.name, seed, 0))]

    def _stream(self, rng: random.Random) -> Iterator[Op]:
        raise NotImplementedError

    def _missing_edge(self, rng: random.Random) -> Update:
        while True:
            layer = rng.randrange(len(self.layers) - 1)
            source = rng.choice(self.layers[layer])
            target = rng.choice(self.layers[layer + 1])
            if not self.graph.has_edge(source, target):
                return (True, "edge", (source, target))

    def _present_edge(self, rng: random.Random) -> Update:
        while True:
            source = rng.choice(self.graph.nodes)
            if self.graph.succ[source]:
                target = rng.choice(list(self.graph.succ[source]))
                return (False, "edge", (source, target))

    def expected_model(self) -> Set[str]:
        return self.graph.model()

    def expected_commits(self) -> int:
        return self.graph.commits

    def stored_facts(self) -> int:
        return self.graph.stored_facts()


class ReachQuery(_Reach):
    name = "reach_query"
    drive = "wire"
    mix = {"edge_commit": 2, "holds_reach": 9, "exists_reach": 4, "forall_reach": 4, "exists_tri": 6}
    warmup_ops = 50
    replay_ops = 500
    memory_mark = 250
    probe = "node(v0_0)"

    def _stream(self, rng: random.Random) -> Iterator[Op]:
        graph = self.graph
        inner = [n for layer in self.layers[:-1] for n in layer]
        for kind in _decks(rng, self.mix):
            if kind == "edge_commit":
                # Single-edge commits, inserts and deletes half and half.
                flip = self._missing_edge if rng.random() < 0.5 else self._present_edge
                updates = [flip(rng)]
                yield Op(kind, (_commit(updates, graph.apply(updates)),))
                continue
            source = rng.choice(inner)
            if kind == "holds_reach":
                cone = list(graph.reachable(source))
                if cone and rng.random() < 0.5:
                    target = rng.choice(cone)
                else:
                    target = rng.choice(graph.nodes)
                step = Step(
                    "holds",
                    fact("reach", source, target),
                    graph.reach(source, target),
                )
            elif kind == "exists_reach":
                node = rng.choice(graph.nodes)
                step = Step(
                    "query",
                    f"exists Y: reach({node}, Y)",
                    graph.reaches_any(node),
                )
            elif kind == "forall_reach":
                level = self.level[source]
                if level and rng.random() < 0.5:
                    above = [
                        n
                        for n in self.layers[level - 1]
                        if graph.has_edge(n, source)
                    ]
                    outer = rng.choice(above or self.layers[level - 1])
                else:
                    outer = rng.choice(self.layers[level])
                step = Step(
                    "query",
                    f"forall Y: reach({source}, Y) -> reach({outer}, Y)",
                    graph.reach_subset(source, outer),
                )
            else:
                step = Step(
                    "query",
                    f"exists Y, Z: tri({source}, Y, Z)",
                    bool(graph.triangles(source)),
                )
            yield Op(kind, (step,))


class ReachUpdate(_Reach):
    name = "reach_update"
    mix = {"edge_rewire": 9, "blocked_attempt": 1}
    warmup_ops = 20
    replay_ops = 40
    memory_mark = 60
    guard = True
    # Every insert re-derives the guarded closure inside the gate, so
    # the graph is narrower than reach_query's: that is what puts a few
    # hundred ops into one run.
    width_key = "update_width"

    def _stream(self, rng: random.Random) -> Iterator[Op]:
        """Every op rewires one edge — deletes one, inserts another, in
        one transaction. An insert costs ten times a delete here, so a
        half-and-half stream of single-edge submits would put the median
        on the cliff between the two; a rewire pays both every time and
        keeps the edge count, hence the closure size, where it began."""
        graph = self.graph
        below = self.layers[-2]
        for kind in _decks(rng, self.mix):
            if kind == "blocked_attempt":
                cone = [
                    n
                    for g in graph.guarded
                    for n in graph.reachable(g)
                    if self.level[n] == len(self.layers) - 2
                ]
                source = rng.choice(cone if cone and rng.random() < 0.7 else below)
                free = [b for b in graph.blocked if not graph.has_edge(source, b)]
            else:
                free = []
            if free:
                insert = (True, "edge", (source, rng.choice(free)))
                cls = "blocked_attempt"
            else:
                insert = self._missing_edge(rng)
                cls = "edge_rewire"
            updates = [self._present_edge(rng), insert]
            yield Op(cls, (_commit(updates, graph.apply(updates)),))


# ---------------------------------------------------------------------
# payroll: dry-run integrity checks
# ---------------------------------------------------------------------

BANDS = ("junior", "senior", "principal")

PAYROLL_SCHEMA = """\
member(E, D) :- works_in(E, D).
member(E, D) :- leads(E, D).
colleague(X, Y) :- member(X, D), member(Y, D).
forall E, D: works_in(E, D) -> employee(E).
forall E, D: works_in(E, D) -> department(D).
forall E, B: salary(E, B) -> band(B).
forall E: employee(E) -> exists B: band(B) and salary(E, B).
forall D: department(D) -> exists E: employee(E) and works_in(E, D).
forall [E, B1, B2]: salary(E, B1) and salary(E, B2) -> same(B1, B2).
forall E, D: member(E, D) -> employee(E).
forall X, Y: colleague(X, Y) -> not rival(X, Y).
"""


class PayrollCheck(Workload):
    name = "payroll_check"
    # 25 % three-fact hires, 30 % violating by construction. The kinds
    # that reach the derived layer (hires, moves, ghosts, rivals) cost
    # ten times the relational ones; they are 15 of 40, so the median
    # sits inside the fast mode and the 95th percentile inside the slow.
    mix = {
        "hire_ok": 7, "hire_bad": 3,
        "move": 2, "reband": 11, "leave": 8,
        "ghost_worker": 1, "lone_employee": 1, "unknown_band": 2, "second_band": 2,
        "orphan_department": 1, "rival_colleague": 1, "ghost_leader": 1,
    }
    warmup_ops = 120
    replay_ops = 120
    memory_mark = 500

    def __init__(self, seed: int, scale: Dict[str, int]) -> None:
        super().__init__()
        rng = _rng(self.name, seed, "db")
        state = self.state = PayrollOracle()
        lines: List[str] = []
        for band in BANDS:
            state.bands[band] = None
            lines += [f"band({band}).", f"same({band}, {band})."]
        teams = [f"d{i}" for i in range(scale["departments"])]
        solos = [f"solo{i}" for i in range(max(2, scale["departments"] // 12))]
        for dept in teams + solos:
            state.departments[dept] = None
            lines.append(f"department({dept}).")

        def hire(employee: str, dept: str) -> None:
            band = rng.choice(BANDS)
            state.employees[employee] = None
            state.salary[employee] = {band: None}
            state.works_in.setdefault(dept, {})[employee] = None
            lines.append(f"employee({employee}).")
            lines.append(f"salary({employee}, {band}).")
            lines.append(f"works_in({employee}, {dept}).")

        for i in range(scale["employees"]):
            hire(f"e{i}", teams[i % len(teams)])
        for i, dept in enumerate(solos):
            hire(f"x{i}", dept)
        for dept in teams + solos:
            leader = next(iter(state.works_in[dept]))
            state.leads[dept] = {leader: None}
            lines.append(f"leads({leader}, {dept}).")
        staff = [f"e{i}" for i in range(scale["employees"])]
        for _ in range(scale["employees"] // 5):
            left, right = rng.sample(staff, 2)
            if set(state.departments_of(left)) & set(state.departments_of(right)):
                continue
            if right in state.rivals.get(left, ()):
                continue
            state.add_rival(left, right)
            lines.append(f"rival({left}, {right}).")
        self.teams, self.solos, self.staff = teams, solos, staff
        self.program = "\n".join(lines) + "\n" + PAYROLL_SCHEMA
        self.streams = [self._stream(_rng(self.name, seed, 0))]

    def _stream(self, rng: random.Random) -> Iterator[Op]:
        state = self.state
        rivalled = list(state.rivals)
        serial = 0
        for kind in _decks(rng, self.mix):
            serial += 1
            victim = rng.choice(self.staff)
            band = next(iter(state.salary[victim]))
            other = rng.choice([b for b in BANDS if b != band])
            team = rng.choice(self.teams)
            if kind in ("hire_ok", "hire_bad"):
                new = f"h{serial}"
                updates = [
                    (True, "employee", (new,)),
                    (True, "salary", (new, rng.choice(BANDS))),
                    (True, "works_in", (new, team)),
                ]
                if kind == "hire_bad":
                    fault = rng.randrange(3)
                    if fault == 0:
                        updates[1] = (True, "salary", (new, "imaginary"))
                    elif fault == 1:
                        updates[2] = (True, "works_in", (new, f"nowhere{serial}"))
                    else:
                        updates[1] = (True, "works_in", (new, rng.choice(self.teams)))
            elif kind == "move":
                updates = [(True, "works_in", (victim, team))]
            elif kind == "reband":
                updates = [
                    (False, "salary", (victim, band)),
                    (True, "salary", (victim, other)),
                ]
            elif kind == "leave":
                updates = [
                    (False, "works_in", (victim, state.departments_of(victim)[0]))
                ]
            elif kind == "ghost_worker":
                updates = [(True, "works_in", (f"ghost{serial}", team))]
            elif kind == "lone_employee":
                updates = [(True, "employee", (f"lone{serial}",))]
            elif kind == "unknown_band":
                updates = [(True, "salary", (victim, "imaginary"))]
            elif kind == "second_band":
                updates = [(True, "salary", (victim, other))]
            elif kind == "orphan_department":
                dept = rng.choice(self.solos)
                only = next(iter(state.works_in[dept]))
                updates = [(False, "works_in", (only, dept))]
            elif kind == "rival_colleague":
                left = rng.choice(rivalled)
                right = rng.choice(list(state.rivals[left]))
                dept = rng.choice(state.departments_of(right))
                updates = [(True, "works_in", (left, dept))]
            else:
                updates = [(True, "leads", (f"ghost{serial}", team))]
            # The verdict is the oracle's, not the generator's intent: a
            # "harmless" move can land beside a rival, a "harmless"
            # leave can be a leader's.
            yield Op(
                kind,
                (
                    Step(
                        "check",
                        tuple(render(u) for u in updates),
                        state.check(updates),
                    ),
                ),
            )

    def expected_model(self) -> Set[str]:
        state = self.state
        out = {f"band({b})" for b in state.bands}
        out.update(f"same({b}, {b})" for b in state.bands)
        out.update(f"department({d})" for d in state.departments)
        out.update(f"employee({e})" for e in state.employees)
        for employee, bands in state.salary.items():
            out.update(fact("salary", employee, b) for b in bands)
        for left, rights in state.rivals.items():
            out.update(fact("rival", left, r) for r in rights)
        for dept in state.departments:
            out.update(fact("works_in", e, dept) for e in state.works_in[dept])
            out.update(fact("leads", e, dept) for e in state.leads[dept])
            members = state.members(dept)
            out.update(fact("member", e, dept) for e in members)
            out.update(fact("colleague", a, b) for a in members for b in members)
        return out


# ---------------------------------------------------------------------
# satcheck: the theorem-proving basket
# ---------------------------------------------------------------------

SECTION5 = """\
member(X, Y) :- leads(X, Y).
forall X: employee(X) -> exists Y: department(Y) and member(X, Y).
forall X: department(X) -> exists Y: employee(Y) and leads(Y, X).
forall X, Y: member(X, Y) -> (forall Z: leads(Z, Y) -> subordinate(X, Z)).
forall X: not subordinate(X, X).
exists X: employee(X).
"""

SECTION5_WEAKENED = SECTION5.replace(
    "member(X, Y) -> (forall", "member(X, Y) -> leads(X, Y) or (forall"
)

STEAMROLLER = """\
exists X: wolf(X).
exists X: fox(X).
exists X: bird(X).
exists X: caterpillar(X).
exists X: snail(X).
exists X: grain(X).
forall X: wolf(X) -> animal(X).
forall X: fox(X) -> animal(X).
forall X: bird(X) -> animal(X).
forall X: caterpillar(X) -> animal(X).
forall X: snail(X) -> animal(X).
forall X: grain(X) -> plant(X).
forall X, Y: caterpillar(X) and bird(Y) -> smaller(X, Y).
forall X, Y: snail(X) and bird(Y) -> smaller(X, Y).
forall X, Y: bird(X) and fox(Y) -> smaller(X, Y).
forall X, Y: fox(X) and wolf(Y) -> smaller(X, Y).
forall X, Y: wolf(X) and fox(Y) -> not eats(X, Y).
forall X, Y: wolf(X) and grain(Y) -> not eats(X, Y).
forall X, Y: bird(X) and caterpillar(Y) -> eats(X, Y).
forall X, Y: bird(X) and snail(Y) -> not eats(X, Y).
forall X: caterpillar(X) -> exists Y: plant(Y) and eats(X, Y).
forall X: snail(X) -> exists Y: plant(Y) and eats(X, Y).
forall A: animal(A) ->
    (forall P: plant(P) -> eats(A, P)) or
    (forall [B, Q]: animal(B) and smaller(B, A) and plant(Q)
                    and eats(B, Q) -> eats(A, B)).
forall [A, B]: animal(A) and animal(B) and eats(A, B) ->
    (forall G: grain(G) -> not eats(B, G)).
"""


def _pigeonhole(holes: int, pigeons: int) -> str:
    lines = [
        " or ".join(f"sits(p{p}, h{h})" for h in range(holes)) + "."
        for p in range(pigeons)
    ]
    lines += [
        f"sits(p{p}, h{h}) -> not sits(p{q}, h{h})."
        for h in range(holes)
        for p in range(pigeons)
        for q in range(p + 1, pigeons)
    ]
    return "\n".join(lines) + "\n"


def _cycle_colouring(length: int, colours: int) -> str:
    palette = [f"col{c}" for c in range(colours)]
    lines = [
        " or ".join(f"colour(v{v}, {c})" for c in palette) + "."
        for v in range(length)
    ]
    lines += [
        f"colour(v{v}, {c}) -> not colour(v{(v + 1) % length}, {c})."
        for v in range(length)
        for c in palette
    ]
    return "\n".join(lines) + "\n"


_SERIAL = "exists X: p(X).\nforall X: p(X) -> exists Y: p(Y) and r(X, Y).\n"
_GROUND = {"max_fresh_constants": 0}

#: name -> (text, checker options, check options). The steamroller runs
#: in the E6 configuration; its default deepening run takes minutes.
PROBLEMS: Dict[str, Tuple[str, Dict[str, object], Dict[str, object]]] = {
    "section5": (SECTION5, {}, {"max_fresh_constants": 6}),
    "section5_weakened": (SECTION5_WEAKENED, {}, {"max_fresh_constants": 6}),
    "steamroller": (
        STEAMROLLER,
        {"existential_reuse": False},
        {"max_fresh_constants": 10, "deepening": False, "max_levels": 60},
    ),
    "pigeonhole_3": (_pigeonhole(3, 4), {}, _GROUND),
    "pigeonhole_4": (_pigeonhole(4, 5), {}, _GROUND),
    "pigeons_4_into_4": (_pigeonhole(4, 4), {}, _GROUND),
    "cycle8_2col": (_cycle_colouring(8, 2), {}, _GROUND),
    "cycle9_2col": (_cycle_colouring(9, 2), {}, _GROUND),
    "cycle7_3col": (_cycle_colouring(7, 3), {}, _GROUND),
    "serial": (_SERIAL, {}, {}),
    "serial_irreflexive": (_SERIAL + "forall X: not r(X, X).\n", {}, {}),
    "serial_antisymmetric": (
        _SERIAL
        + "forall X: not r(X, X).\nforall X, Y: r(X, Y) -> not r(Y, X).\n",
        {},
        {"max_fresh_constants": 4},
    ),
}


class SatCheck(Workload):
    name = "satcheck"
    problems = PROBLEMS
    mix = dict.fromkeys(PROBLEMS, 1)
    warmup_ops = len(PROBLEMS)
    replay_ops = len(PROBLEMS)
    memory_mark = 2 * len(PROBLEMS)

    def __init__(self, seed: int, scale: Dict[str, int]) -> None:
        super().__init__()
        # The program text is the basket itself, so the digest covers it.
        self.program = "".join(
            f"%% {name}\n{text}" for name, (text, _, _) in PROBLEMS.items()
        )
        self.streams = [self._stream(_rng(self.name, seed, 0))]

    def _stream(self, rng: random.Random) -> Iterator[Op]:
        for name in _decks(rng, self.mix):
            yield Op(name, (Step("sat", name, SAT_VERDICTS[name]),))

    def expected_model(self) -> Set[str]:
        return set()


WORKLOADS = {
    cls.name: cls
    for cls in (
        OrdersOltp,
        IngestWire,
        ReachQuery,
        ReachUpdate,
        PayrollCheck,
        SatCheck,
    )
}


def make(name: str, seed: int, scale: str = "full") -> Workload:
    workload = WORKLOADS[name](seed, SCALES[scale])
    if scale == "smoke":
        workload.warmup_ops = 0  # the self-test checks plumbing, not steady state
    return workload


def inputs_sha256(name: str, seed: int, scale: str = "full", ops: int = 256) -> str:
    """Digest of the program text and the first *ops* ops of every
    stream, from a fresh instance — independent of how far a timed run
    got. Two runs with the same seed must print the same digest."""
    workload = make(name, seed, scale)
    digest = hashlib.sha256(workload.program.encode())
    for stream in workload.streams:
        for _, op in zip(range(ops), stream):
            digest.update(repr(op).encode())
    return digest.hexdigest()
