"""Transactions: multi-fact updates ([BRY 87] extension, Section 3.2).

A transaction is a sequence of single-fact updates applied atomically.
Definition 1 applies literal by literal, so the observable effect is the
*net* effect: a later update on the same fact overrides an earlier one.
All checker methods normalize transactions through :func:`net_effect`
before compiling or evaluating anything, which keeps the delta base
cases consistent with the overlay the ``new`` evaluator sees.

:class:`Transaction` is the *one* update representation of the library:
the checker methods, the delta evaluator, the DRed-maintained model,
the CLI and the service commit path all coerce their inputs through
:meth:`Transaction.coerce`, so "a set of updates" means the same thing
— same grounding validation, same net-effect semantics, same surface
serialization — at every layer.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Union

from repro.logic.formulas import Atom, Literal
from repro.logic.parser import parse_literal


def net_effect(updates: Iterable[Literal]) -> List[Literal]:
    """The net single-fact updates of a sequence: per atom, the last
    update wins; insert-then-delete (and vice versa) collapse."""
    last: Dict[Atom, Literal] = {}
    order: List[Atom] = []
    for update in updates:
        if update.atom not in last:
            order.append(update.atom)
        last[update.atom] = update
    return [last[atom] for atom in order]


class Transaction:
    """An ordered multi-fact update with convenience parsing."""

    __slots__ = ("updates",)

    def __init__(self, updates: Sequence[Union[str, Literal]]):
        parsed: List[Literal] = []
        for update in updates:
            literal = (
                parse_literal(update) if isinstance(update, str) else update
            )
            if not literal.atom.is_ground():
                raise ValueError(f"transaction updates must be ground: {literal}")
            parsed.append(literal)
        self.updates = tuple(parsed)

    @classmethod
    def coerce(
        cls,
        updates: Union[
            str, Literal, "Transaction", Sequence[Union[str, Literal]]
        ],
    ) -> "Transaction":
        """The transaction denoted by *updates*, whatever their surface
        form: a literal (parsed or source text), a sequence of either,
        or an existing transaction (returned as-is)."""
        if isinstance(updates, Transaction):
            return updates
        if isinstance(updates, (str, Literal)):
            return cls([updates])
        return cls(list(updates))

    def net(self) -> List[Literal]:
        return net_effect(self.updates)

    # -- derived views -----------------------------------------------------------

    def added(self) -> List[Atom]:
        """Atoms the net effect inserts."""
        return [u.atom for u in self.net() if u.positive]

    def removed(self) -> List[Atom]:
        """Atoms the net effect deletes."""
        return [u.atom for u in self.net() if not u.positive]

    def predicates(self) -> frozenset:
        """Extensional predicates the transaction writes."""
        return frozenset(u.atom.pred for u in self.updates)

    def write_keys(self) -> frozenset:
        """Predicate-key granularity write set: one key per written
        ground atom. Two transactions with disjoint write keys commute
        — the conflict test the service's optimistic commit uses."""
        return frozenset(u.atom for u in self.updates)

    # -- serialization -----------------------------------------------------------

    def to_strings(self) -> List[str]:
        """The updates as surface-syntax literals (``p(a)`` /
        ``not q(b)``) — re-parseable by :meth:`coerce`; the WAL and the
        wire protocol's transaction payload."""
        from repro.logic.unparse import unparse_atom

        return [
            unparse_atom(u.atom) if u.positive else f"not {unparse_atom(u.atom)}"
            for u in self.updates
        ]

    # -- container protocol ------------------------------------------------------

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.updates)

    def __len__(self) -> int:
        return len(self.updates)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Transaction) and self.updates == other.updates

    def __hash__(self) -> int:
        return hash(self.updates)

    def __repr__(self) -> str:
        inner = ", ".join(str(u) for u in self.updates)
        return f"Transaction([{inner}])"
