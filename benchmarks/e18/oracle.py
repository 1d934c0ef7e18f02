"""Independent expected results for the E18 workloads, in plain Python.

Nothing here imports ``repro``: the expected commit status, the truth
of every read and the final canonical model are worked out from sets,
dicts and breadth-first search, so an engine bug cannot agree with
itself. Each class models one schema of ``workloads.py``; the
generators there pick their targets from this state and stamp every
step with the value the classes below predict.

An update is ``(positive, pred, args)``; :func:`render` gives the
surface text the database receives (``"not edge(a, b)"``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

Update = Tuple[bool, str, Tuple[str, ...]]

COMMITTED = "committed"
REJECTED = "rejected"


def fact(pred: str, *args: str) -> str:
    """Surface text of a ground atom, as ``repro`` unparses it."""
    return f"{pred}({', '.join(args)})" if args else pred


def render(update: Update) -> str:
    positive, pred, args = update
    text = fact(pred, *args)
    return text if positive else f"not {text}"


class OrdersOracle:
    """Customers, orders, line items and events of one write partition.

    The four constraints of the schema, checked on the orders a
    transaction touches (they are all local to one order):

    1. ``order_by(O, C) -> customer(C)``
    2. ``item_of(L, O) -> exists C: order_by(O, C)``
    3. ``order_by(O, C) -> exists L: item_of(L, O)``
    4. ``shipped(O) -> not open_order(O)`` — holds by the rules alone.
    """

    def __init__(self) -> None:
        self.customers: Dict[str, None] = {}
        self.order_by: Dict[str, str] = {}
        self.orders_of: Dict[str, Dict[str, None]] = {}
        self.items: Dict[str, List[str]] = {}
        self.dispatched: Dict[str, None] = {}
        self.events: Dict[Tuple[str, ...], None] = {}
        self.commits = 0

    # -- seed state -----------------------------------------------------

    def seed_order(
        self, order: str, customer: str, items: Sequence[str], dispatched: bool
    ) -> None:
        self.customers[customer] = None
        self.order_by[order] = customer
        self.orders_of.setdefault(customer, {})[order] = None
        self.items[order] = list(items)
        if dispatched:
            self.dispatched[order] = None

    # -- writes ---------------------------------------------------------

    def apply(self, updates: Sequence[Update]) -> str:
        """The status a commit of *updates* must report; the state
        moves only when that status is ``committed``."""
        touched: Dict[str, list] = {}  # order -> [customer or None, items]
        flags: List[Update] = []

        def touch(order: str) -> list:
            if order not in touched:
                touched[order] = [
                    self.order_by.get(order),
                    list(self.items.get(order, ())),
                ]
            return touched[order]

        for update in updates:
            positive, pred, args = update
            if pred == "order_by":
                order, customer = args
                row = touch(order)
                if positive:
                    row[0] = customer
                elif row[0] == customer:
                    row[0] = None
            elif pred == "item_of":
                item, order = args
                rows = touch(order)[1]
                if positive and item not in rows:
                    rows.append(item)
                elif not positive and item in rows:
                    rows.remove(item)
            elif pred in ("dispatched", "event"):
                flags.append(update)
            else:
                raise ValueError(f"the orders oracle does not model {pred}")
        for customer, rows in touched.values():
            if customer is not None and customer not in self.customers:
                return REJECTED  # constraint 1
            if rows and customer is None:
                return REJECTED  # constraint 2
            if customer is not None and not rows:
                return REJECTED  # constraint 3
        for order, (customer, rows) in touched.items():
            previous = self.order_by.pop(order, None)
            if previous is not None:
                del self.orders_of[previous][order]
            if customer is None:
                self.items.pop(order, None)
            else:
                self.order_by[order] = customer
                self.orders_of.setdefault(customer, {})[order] = None
                self.items[order] = rows
        for positive, pred, args in flags:
            table = self.dispatched if pred == "dispatched" else self.events
            key = args[0] if pred == "dispatched" else args
            if positive:
                table[key] = None
            else:
                table.pop(key, None)
        self.commits += 1
        return COMMITTED

    # -- reads ----------------------------------------------------------

    def holds(self, pred: str, *args: str) -> bool:
        if pred == "customer":
            return args[0] in self.customers
        if pred == "order_by":
            return self.order_by.get(args[0]) == args[1]
        if pred == "item_of":
            return args[0] in self.items.get(args[1], ())
        if pred == "dispatched" or pred == "shipped":
            return args[0] in self.dispatched
        if pred == "open_order":
            return args[0] in self.order_by and args[0] not in self.dispatched
        if pred == "event":
            return args in self.events
        raise ValueError(f"the orders oracle does not model {pred}")

    def has_open_order(self, customer: str) -> bool:
        """``exists O: order_by(O, customer) and open_order(O)``."""
        return any(
            order not in self.dispatched
            for order in self.orders_of.get(customer, ())
        )

    def model(self) -> Set[str]:
        out = {fact("customer", c) for c in self.customers}
        for order, customer in self.order_by.items():
            out.add(fact("order_by", order, customer))
            if order not in self.dispatched:
                out.add(fact("open_order", order))
        for order, rows in self.items.items():
            out.update(fact("item_of", item, order) for item in rows)
        for order in self.dispatched:
            out.add(fact("dispatched", order))
            out.add(fact("shipped", order))
        out.update(fact("event", *args) for args in self.events)
        return out

    def stored_facts(self) -> int:
        return (
            len(self.customers)
            + len(self.order_by)
            + sum(len(rows) for rows in self.items.values())
            + len(self.dispatched)
            + len(self.events)
        )


class ReachOracle:
    """A digraph with ``reach`` (transitive closure by BFS), ``tri``
    (two-step paths closed by a shortcut) and, for ``reach_update``,
    the guard ``guarded(X) and reach(X, Y) -> not blocked(Y)``."""

    def __init__(
        self,
        nodes: Iterable[str],
        edges: Iterable[Tuple[str, str]],
        shortcuts: Iterable[Tuple[str, str]],
        guarded: Iterable[str] = (),
        blocked: Iterable[str] = (),
    ) -> None:
        self.nodes = list(nodes)
        self.succ: Dict[str, Dict[str, None]] = {n: {} for n in self.nodes}
        for source, target in edges:
            self.succ[source][target] = None
        self.shortcuts = dict.fromkeys(shortcuts)
        self.guarded = list(guarded)
        self.blocked = dict.fromkeys(blocked)
        self.commits = 0

    def has_edge(self, source: str, target: str) -> bool:
        return target in self.succ[source]

    def reachable(self, source: str) -> Dict[str, None]:
        """Every node reachable from *source* by one or more edges."""
        seen: Dict[str, None] = {}
        frontier = list(self.succ[source])
        while frontier:
            node = frontier.pop()
            if node not in seen:
                seen[node] = None
                frontier.extend(self.succ[node])
        return seen

    def _guard_holds(self) -> bool:
        return not any(
            target in self.blocked
            for source in self.guarded
            for target in self.reachable(source)
        )

    def apply(self, updates: Sequence[Update]) -> str:
        undo: List[Tuple[bool, str, str]] = []
        for positive, pred, (source, target) in updates:
            if pred != "edge":
                raise ValueError(f"the reach oracle does not model {pred}")
            present = target in self.succ[source]
            if positive and not present:
                self.succ[source][target] = None
                undo.append((False, source, target))
            elif not positive and present:
                del self.succ[source][target]
                undo.append((True, source, target))
        if self.guarded and not self._guard_holds():
            for restore, source, target in undo:
                if restore:
                    self.succ[source][target] = None
                else:
                    del self.succ[source][target]
            return REJECTED
        self.commits += 1
        return COMMITTED

    # -- reads ----------------------------------------------------------

    def reach(self, source: str, target: str) -> bool:
        return target in self.reachable(source)

    def reaches_any(self, source: str) -> bool:
        """``exists Y: reach(source, Y)``."""
        return bool(self.succ[source])

    def reach_subset(self, inner: str, outer: str) -> bool:
        """``forall Y: reach(inner, Y) -> reach(outer, Y)``."""
        cover = self.reachable(outer)
        return all(node in cover for node in self.reachable(inner))

    def triangles(self, source: str) -> List[Tuple[str, str]]:
        return [
            (middle, target)
            for middle in self.succ[source]
            for target in self.succ[middle]
            if (source, target) in self.shortcuts
        ]

    def model(self) -> Set[str]:
        out = {fact("node", n) for n in self.nodes}
        out.update(fact("shortcut", s, t) for s, t in self.shortcuts)
        out.update(fact("guarded", n) for n in self.guarded)
        out.update(fact("blocked", n) for n in self.blocked)
        for source in self.nodes:
            out.update(fact("edge", source, t) for t in self.succ[source])
            out.update(fact("reach", source, t) for t in self.reachable(source))
            out.update(
                fact("tri", source, m, t) for m, t in self.triangles(source)
            )
        return out

    def stored_facts(self) -> int:
        return (
            len(self.nodes)
            + len(self.shortcuts)
            + len(self.guarded)
            + len(self.blocked)
            + sum(len(targets) for targets in self.succ.values())
        )


class PayrollOracle:
    """The employee/department schema; every check is a dry run, so the
    state never moves. A transaction is judged by re-checking the eight
    constraints on the employees and departments it touches:

    1. ``works_in(E, D) -> employee(E)``      2. ``works_in(E, D) -> department(D)``
    3. ``salary(E, B) -> band(B)``            4. ``employee(E) -> exists B: band(B) and salary(E, B)``
    5. ``department(D) -> exists E: employee(E) and works_in(E, D)``
    6. one band per employee                  7. ``member(E, D) -> employee(E)``
    8. ``colleague(X, Y) -> not rival(X, Y)``

    with ``member = works_in + leads`` and ``colleague`` = sharing a
    department through ``member``.
    """

    def __init__(self) -> None:
        self.bands: Dict[str, None] = {}
        self.departments: Dict[str, None] = {}
        self.employees: Dict[str, None] = {}
        self.salary: Dict[str, Dict[str, None]] = {}
        self.works_in: Dict[str, Dict[str, None]] = {}  # department -> staff
        self.leads: Dict[str, Dict[str, None]] = {}  # department -> leaders
        self.rivals: Dict[str, Dict[str, None]] = {}

    def add_rival(self, left: str, right: str) -> None:
        self.rivals.setdefault(left, {})[right] = None

    def departments_of(self, employee: str) -> List[str]:
        return [
            dept
            for dept in self.departments
            if employee in self.works_in.get(dept, ())
            or employee in self.leads.get(dept, ())
        ]

    def members(self, dept: str) -> Dict[str, None]:
        return {**self.works_in.get(dept, {}), **self.leads.get(dept, {})}

    def check(self, updates: Sequence[Update]) -> bool:
        """Whether the state after *updates* satisfies every constraint."""
        employees = dict(self.employees)
        salary: Dict[str, Dict[str, None]] = {}
        works_in: Dict[str, Dict[str, None]] = {}
        leads: Dict[str, Dict[str, None]] = {}
        people: Dict[str, None] = {}
        depts: Dict[str, None] = {}

        def edit(table, source, key):
            if key not in table:
                table[key] = dict(source.get(key, {}))
            return table[key]

        for positive, pred, args in updates:
            if pred == "employee":
                people[args[0]] = None
                if positive:
                    employees[args[0]] = None
                else:
                    employees.pop(args[0], None)
            elif pred == "salary":
                people[args[0]] = None
                row = edit(salary, self.salary, args[0])
                if positive:
                    row[args[1]] = None
                else:
                    row.pop(args[1], None)
            elif pred in ("works_in", "leads"):
                people[args[0]] = None
                depts[args[1]] = None
                if pred == "works_in":
                    row = edit(works_in, self.works_in, args[1])
                else:
                    row = edit(leads, self.leads, args[1])
                if positive:
                    row[args[0]] = None
                else:
                    row.pop(args[0], None)
            else:
                raise ValueError(f"the payroll oracle does not model {pred}")

        def staff(dept):
            return works_in.get(dept, self.works_in.get(dept, {}))

        def leaders(dept):
            return leads.get(dept, self.leads.get(dept, {}))

        for dept in depts:
            members = {**staff(dept), **leaders(dept)}
            if staff(dept) and dept not in self.departments:
                return False  # 2
            if dept in self.departments and not any(
                e in employees for e in staff(dept)
            ):
                return False  # 5
            for member in members:
                if member not in employees:
                    return False  # 1, 7
                if any(r in members for r in self.rivals.get(member, ())):
                    return False  # 8
        for person in people:
            bands = salary.get(person, self.salary.get(person, {}))
            if any(band not in self.bands for band in bands):
                return False  # 3
            if len(bands) > 1:
                return False  # 6
            if person in employees and not bands:
                return False  # 4
            if person not in employees and any(
                person in staff(d) or person in leaders(d)
                for d in self.departments
            ):
                return False  # 1, 7 after an employee deletion
        return True


#: Known verdict of every problem in the ``satcheck`` basket.
SAT_VERDICTS = {
    "section5": "unsatisfiable",
    "section5_weakened": "satisfiable",
    "steamroller": "unsatisfiable",
    "pigeonhole_3": "unsatisfiable",
    "pigeonhole_4": "unsatisfiable",
    "pigeons_4_into_4": "satisfiable",
    "cycle8_2col": "satisfiable",
    "cycle9_2col": "unsatisfiable",
    "cycle7_3col": "satisfiable",
    "serial": "satisfiable",
    "serial_irreflexive": "satisfiable",
    "serial_antisymmetric": "satisfiable",
}
