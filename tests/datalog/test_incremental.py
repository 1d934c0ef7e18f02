"""Tests for DRed incremental maintenance, including the property that
the maintained model always equals a from-scratch recomputation."""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.config import EngineConfig
from repro.datalog.bottomup import compute_model
from repro.datalog.facts import FactStore
from repro.datalog.incremental import MaintainedModel
from repro.datalog.program import Program, Rule
from repro.logic.formulas import Atom, Literal
from repro.logic.parser import parse_fact, parse_literal, parse_rule
from repro.logic.terms import Constant


def program(*texts):
    return Program([Rule.from_parsed(parse_rule(t)) for t in texts])


def store(*facts):
    return FactStore(parse_fact(f) for f in facts)


ANCESTOR = program(
    "anc(X, Y) :- par(X, Y)",
    "anc(X, Y) :- par(X, Z), anc(Z, Y)",
)


class TestBasicMaintenance:
    def test_insert_propagates(self):
        maintained = MaintainedModel(store("par(a, b)"), ANCESTOR)
        inserted, deleted = maintained.apply([parse_literal("par(b, c)")])
        assert parse_fact("anc(a, c)") in inserted
        assert maintained.holds(parse_fact("anc(a, c)"))
        assert not deleted

    def test_delete_cascades(self):
        maintained = MaintainedModel(
            store("par(a, b)", "par(b, c)"), ANCESTOR
        )
        inserted, deleted = maintained.apply(
            [parse_literal("not par(b, c)")]
        )
        assert parse_fact("anc(a, c)") in deleted
        assert parse_fact("anc(b, c)") in deleted
        assert not maintained.holds(parse_fact("anc(a, c)"))
        assert maintained.holds(parse_fact("anc(a, b)"))

    def test_rederivation_keeps_supported_facts(self):
        # anc(a, c) has two derivations: via b and via d.
        maintained = MaintainedModel(
            store("par(a, b)", "par(b, c)", "par(a, d)", "par(d, c)"),
            ANCESTOR,
        )
        _, deleted = maintained.apply([parse_literal("not par(b, c)")])
        assert maintained.holds(parse_fact("anc(a, c)"))
        assert parse_fact("anc(a, c)") not in deleted
        assert parse_fact("anc(b, c)") in deleted

    def test_deleted_edb_fact_still_derivable_stays(self):
        prog = program("p(X) :- base(X)")
        maintained = MaintainedModel(store("p(a)", "base(a)"), prog)
        _, deleted = maintained.apply([parse_literal("not p(a)")])
        assert maintained.holds(parse_fact("p(a)"))
        assert parse_fact("p(a)") not in deleted

    def test_negation_stratum_flip(self):
        prog = program(
            "busy(X) :- emp(X), assigned(X)",
            "idle(X) :- emp(X), not busy(X)",
        )
        maintained = MaintainedModel(store("emp(a)"), prog)
        assert maintained.holds(parse_fact("idle(a)"))
        inserted, deleted = maintained.apply([parse_literal("assigned(a)")])
        assert parse_fact("busy(a)") in inserted
        assert parse_fact("idle(a)") in deleted
        assert not maintained.holds(parse_fact("idle(a)"))

    def test_transaction_net_change(self):
        maintained = MaintainedModel(store("par(a, b)"), ANCESTOR)
        inserted, deleted = maintained.apply(
            [parse_literal("par(b, c)"), parse_literal("not par(a, b)")]
        )
        assert maintained.holds(parse_fact("anc(b, c)"))
        assert not maintained.holds(parse_fact("anc(a, b)"))

    def test_nonground_update_rejected(self):
        maintained = MaintainedModel(store(), ANCESTOR)
        from repro.logic.parser import parse_atom
        from repro.logic.formulas import Literal as Lit

        with pytest.raises(ValueError):
            maintained.apply([Lit(parse_atom("par(X, b)"))])


RULE_POOL = [
    "tc(X, Y) :- r(X, Y)",
    "tc(X, Y) :- r(X, Z), tc(Z, Y)",
    "node(X) :- r(X, Y)",
    "node(Y) :- r(X, Y)",
    "busy(X) :- p(X), q(X)",
    "idle(X) :- node(X), not busy(X)",
]

CONSTS = [Constant(c) for c in "abc"]


@st.composite
def maintenance_case(draw):
    texts = draw(
        st.lists(st.sampled_from(RULE_POOL), min_size=1, max_size=5, unique=True)
    )
    prog = program(*texts)
    facts = FactStore()
    for _ in range(draw(st.integers(0, 7))):
        pred = draw(st.sampled_from(["p", "q", "r"]))
        arity = 2 if pred == "r" else 1
        facts.add(
            Atom(pred, tuple(draw(st.sampled_from(CONSTS)) for _ in range(arity)))
        )
    n_updates = draw(st.integers(1, 4))
    updates = []
    for _ in range(n_updates):
        pred = draw(st.sampled_from(["p", "q", "r"]))
        arity = 2 if pred == "r" else 1
        atom = Atom(
            pred, tuple(draw(st.sampled_from(CONSTS)) for _ in range(arity))
        )
        updates.append(Literal(atom, draw(st.booleans())))
    return prog, facts, updates


class TestSimultaneousSupportLoss:
    """Regression: when *every* body fact of a derivation's only
    support is removed in one transaction, the over-deletion join can
    reconstruct the old derivation only if the already-removed facts
    stay visible — the exact dual of the paper-delta gap documented in
    ``delta_eval``'s module docstring."""

    def test_both_body_facts_deleted_at_once(self):
        prog = program("busy(X) :- p(X), q(X)")
        facts = store("p(a)", "q(a)")
        maintained = MaintainedModel(facts, prog)
        assert maintained.holds(parse_fact("busy(a)"))
        inserted, deleted = maintained.apply(
            [parse_literal("not p(a)"), parse_literal("not q(a)")]
        )
        assert not inserted
        assert deleted == {
            parse_fact("p(a)"),
            parse_fact("q(a)"),
            parse_fact("busy(a)"),
        }
        assert not maintained.holds(parse_fact("busy(a)"))

    def test_both_negated_atoms_inserted_at_once(self):
        # The insert-side dual: h(a) is supported by two negative
        # literals whose atoms are both inserted in one transaction.
        # The old derivation is only visible if the join treats the
        # freshly inserted facts as absent (pre-update state).
        prog = program("h(X) :- r(X), not p(X), not q(X)")
        facts = store("r(a)")
        maintained = MaintainedModel(facts, prog)
        assert maintained.holds(parse_fact("h(a)"))
        inserted, deleted = maintained.apply(
            [parse_literal("p(a)"), parse_literal("q(a)")]
        )
        assert parse_fact("h(a)") in deleted
        assert not maintained.holds(parse_fact("h(a)"))
        expected = compute_model(maintained.edb.copy(), prog)
        assert set(maintained.snapshot()) == set(expected)

    def test_cascade_through_negation(self):
        # Deleting busy(a) (via simultaneous support loss) must insert
        # idle(a) in the higher stratum.
        prog = program(
            "node(X) :- r(X, Y)",
            "busy(X) :- p(X), q(X)",
            "idle(X) :- node(X), not busy(X)",
        )
        facts = store("p(a)", "q(a)", "r(a, a)")
        maintained = MaintainedModel(facts, prog)
        assert not maintained.holds(parse_fact("idle(a)"))
        inserted, deleted = maintained.apply(
            [parse_literal("not p(a)"), parse_literal("not q(a)")]
        )
        assert parse_fact("idle(a)") in inserted
        assert parse_fact("busy(a)") in deleted
        expected = compute_model(maintained.edb.copy(), prog)
        assert set(maintained.snapshot()) == set(expected)


class TestDRedEqualsRecomputation:
    @given(maintenance_case())
    @settings(max_examples=80, deadline=None)
    def test_maintained_model_equals_recomputed(self, case):
        prog, facts, updates = case
        maintained = MaintainedModel(facts, prog)
        maintained.apply(updates)
        expected = compute_model(maintained.edb.copy(), prog)
        assert set(maintained.snapshot()) == set(expected)

    @given(maintenance_case())
    @settings(max_examples=40, deadline=None)
    def test_reported_changes_are_the_model_diff(self, case):
        prog, facts, updates = case
        before = compute_model(facts.copy(), prog)
        maintained = MaintainedModel(facts, prog)
        inserted, deleted = maintained.apply(updates)
        after = compute_model(maintained.edb.copy(), prog)
        expected_inserted = {a for a in after if not before.contains(a)}
        expected_deleted = {a for a in before if not after.contains(a)}
        assert inserted == expected_inserted
        assert deleted == expected_deleted


class TestRuleUpdates:
    def test_addition_lifts_the_head_a_stratum(self):
        """``p`` moves above ``q``: p(a) is derived (q(b) blocks p(b)),
        and h(a), which negates p, goes."""
        maintained = MaintainedModel(
            store("a(a)", "a(b)", "e(b, c)"),
            program(
                "q(X) :- e(X, Y)",
                "h(X) :- a(X), not p(X)",
            ),
        )
        rule = Rule.from_parsed(parse_rule("p(X) :- a(X), not q(X)"))
        inserted, deleted = maintained.add_rule(rule)
        assert inserted == {parse_fact("p(a)")}
        assert deleted == {parse_fact("h(a)")}
        assert maintained.program.stratum_of("p") > (
            maintained.program.stratum_of("q")
        )
        assert set(maintained.model) == set(
            compute_model(maintained.edb, maintained.program)
        )

    def test_removing_a_missing_rule_changes_nothing(self):
        maintained = MaintainedModel(store("par(a, b)"), ANCESTOR)
        before = set(maintained.model)
        with pytest.raises(ValueError):
            maintained.remove_rule(
                Rule.from_parsed(parse_rule("anc(X, Y) :- par(Y, X)"))
            )
        assert set(maintained.model) == before
        assert maintained.program == ANCESTOR


class TestPredicateIndexedSet:
    """The DRed overlays are bucketed by predicate so join probes touch
    only same-predicate facts."""

    def test_add_update_contains_len(self):
        from repro.datalog.incremental import PredicateIndexedSet

        overlay = PredicateIndexedSet([parse_fact("p(a)")])
        overlay.add(parse_fact("q(a, b)"))
        overlay.add(parse_fact("q(a, b)"))  # duplicate is a no-op
        overlay.update([parse_fact("p(b)"), parse_fact("r(c)")])
        assert len(overlay) == 4
        assert parse_fact("q(a, b)") in overlay
        assert parse_fact("q(b, a)") not in overlay
        assert set(overlay) == {
            parse_fact("p(a)"),
            parse_fact("p(b)"),
            parse_fact("q(a, b)"),
            parse_fact("r(c)"),
        }

    def test_matching_returns_only_same_predicate(self):
        from repro.datalog.incremental import PredicateIndexedSet

        overlay = PredicateIndexedSet(
            [parse_fact("p(a)"), parse_fact("p(b)"), parse_fact("q(a, b)")]
        )
        assert overlay.matching("p") == {parse_fact("p(a)"), parse_fact("p(b)")}
        assert overlay.matching("missing") == frozenset()

    def test_rebuild_from_existing_overlay(self):
        from repro.datalog.incremental import PredicateIndexedSet

        base = PredicateIndexedSet([parse_fact("p(a)"), parse_fact("q(a, b)")])
        clone = PredicateIndexedSet(base)
        clone.add(parse_fact("p(z)"))
        assert parse_fact("p(z)") not in base
        assert len(clone) == 3


class _CountingStore(FactStore):
    """A FactStore counting batched (bucket) and scanning (match)
    probes — the instrument for the pre-update-view regression."""

    def __init__(self, facts=()):
        self.bucket_probes = 0
        self.match_calls = 0
        super().__init__(facts)

    def bucket(self, pred, positions, key):
        self.bucket_probes += 1
        return super().bucket(pred, positions, key)

    def match(self, pattern):
        self.match_calls += 1
        return super().match(pattern)


class TestPreUpdateViewBatching:
    """DRed's over-deletion joins must hit the store group indexes
    directly: the pre-update composite view (model ∪ removed −
    inserted) has a real ``bucket()``, so deletion cascades no longer
    batch through the generic ``probe_from_matcher`` adapter."""

    @staticmethod
    def chain_model(n=12):
        prog = program(
            "reach(X, Y) :- edge(X, Y)",
            "reach(X, Y) :- edge(X, Z), reach(Z, Y)",
        )
        edb = FactStore(
            parse_fact(f"edge(n{i}, n{i + 1})") for i in range(n)
        )
        maintained = MaintainedModel(
            edb,
            prog,
            config=EngineConfig(plan="greedy", exec_mode="batch"),
        )
        counting = _CountingStore(maintained.model)
        maintained.model = counting
        return maintained, counting, prog

    def test_deletion_cascade_probes_group_indexes(self):
        maintained, counting, prog = self.chain_model()
        _, deleted = maintained.apply([parse_literal("not edge(n3, n4)")])
        assert len(deleted) > 10  # a real cascade ran
        # Every over-deletion / re-derivation / insertion join probed
        # the composite hash indexes, never the match() scan path.
        assert counting.bucket_probes > 0
        assert counting.match_calls == 0

    def test_cascade_end_state_matches_recomputation(self):
        maintained, _, prog = self.chain_model()
        maintained.apply(
            [parse_literal("not edge(n3, n4)"), parse_literal("edge(n3, n0)")]
        )
        assert set(maintained.model) == set(
            compute_model(maintained.edb, prog)
        )

    def test_group_builds_counted_once_per_pattern(self):
        """The removed overlay's group index is built once and then
        maintained incrementally while the cascade grows it."""
        from repro.datalog.incremental import PredicateIndexedSet

        overlay = PredicateIndexedSet(
            [parse_fact("p(a, b)"), parse_fact("p(a, c)")]
        )
        first = overlay.bucket("p", (0,), (Constant("a"),))
        assert len(first) == 2
        assert overlay.group_builds == 1
        # Mid-cascade growth must land in the existing index, not force
        # a rebuild (and must be visible to the next probe).
        overlay.add(parse_fact("p(a, d)"))
        again = overlay.bucket("p", (0,), (Constant("a"),))
        assert parse_fact("p(a, d)") in again
        assert overlay.group_builds == 1
        assert overlay.bucket("p", (0,), (Constant("z"),)) == frozenset()
        # Empty positions fall back to the whole predicate bucket.
        assert len(overlay.bucket("p", (), ())) == 3


class TestPreUpdateViewSemantics:
    def test_bucket_matches_match_under_overlays(self):
        from repro.datalog.incremental import (
            PredicateIndexedSet,
            _PreUpdateView,
        )

        model = FactStore(
            parse_fact(f)
            for f in ("p(a, b)", "p(a, c)", "p(d, e)", "q(a)")
        )
        removed = PredicateIndexedSet(
            [parse_fact("p(a, z)"), parse_fact("p(a, b)")]
        )
        inserted = PredicateIndexedSet(
            [parse_fact("p(a, c)"), parse_fact("q(a)")]
        )
        from repro.logic.terms import Variable

        view = _PreUpdateView(model, removed, inserted)
        pattern = Atom("p", (Constant("a"), Variable("Y")))
        via_match = set(view.match(pattern))
        via_bucket = {
            fact
            for fact in view.bucket("p", (0,), (Constant("a"),))
            if len(fact.args) == 2
        }
        # p(a, b): in model and removed -> part of the old state;
        # p(a, c): inserted, not removed -> excluded;
        # p(a, z): removed only -> included.
        assert via_match == via_bucket == {
            parse_fact("p(a, b)"),
            parse_fact("p(a, z)"),
        }
        # removed wins over inserted; inserted facts are not old state.
        assert view.contains(parse_fact("p(a, b)"))
        assert view.contains(parse_fact("p(a, z)"))
        assert not view.contains(parse_fact("p(a, c)"))
        assert not view.contains(parse_fact("q(a)"))
        assert view.contains(parse_fact("p(d, e)"))
