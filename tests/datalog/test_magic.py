"""Unit tests for the magic-sets demand transformation."""

import pytest

from repro.config import EngineConfig
from repro.datalog.bottomup import compute_model
from repro.datalog.database import DeductiveDatabase
from repro.datalog.facts import FactStore
from repro.datalog.magic import (
    MagicEvaluator,
    MagicFallbackWarning,
    MagicRewriteError,
    adorned_name,
    adornment_for,
    bound_args,
    magic_name,
    magic_rewrite,
)
from repro.datalog.program import Program, Rule
from repro.datalog.query import QueryEngine
from repro.logic.parser import parse_atom, parse_rule
from repro.logic.terms import Constant, Variable
from repro.logic.unify import match


def program_of(*texts):
    return Program([Rule.from_parsed(parse_rule(t)) for t in texts])


ANCESTOR = program_of(
    "anc(X, Y) :- par(X, Y)",
    "anc(X, Y) :- par(X, Z), anc(Z, Y)",
)


class TestAdornments:
    def test_constants_are_bound(self):
        atom = parse_atom("p(a, X, b)")
        assert adornment_for(atom.args, set()) == "bfb"

    def test_bound_variables_are_bound(self):
        atom = parse_atom("p(X, Y)")
        assert adornment_for(atom.args, {Variable("X")}) == "bf"

    def test_names_cannot_clash_with_parsed_predicates(self):
        assert "@" in adorned_name("p", "bf")
        assert "@" in magic_name("p", "bf")

    def test_bound_args_selects_bound_positions(self):
        atom = parse_atom("p(a, X, b)")
        assert bound_args(atom, "bfb") == (Constant("a"), Constant("b"))


class TestRewrite:
    def test_declines_extensional_query(self):
        with pytest.raises(MagicRewriteError, match="extensional"):
            magic_rewrite(ANCESTOR, parse_atom("par(a, X)"))

    def test_declines_unbound_query(self):
        with pytest.raises(MagicRewriteError, match="binds no argument"):
            magic_rewrite(ANCESTOR, parse_atom("anc(X, Y)"))

    def test_ancestor_bound_first(self):
        # The classic (non-supplementary) rewrite — the oracle shape.
        rewrite = magic_rewrite(
            ANCESTOR, parse_atom("anc(a, Y)"), supplementary=False
        )
        assert rewrite.answer_pred == "anc@bf"
        assert rewrite.magic_pred == "magic@anc@bf"
        assert not rewrite.supplementary
        assert not rewrite.sup_predicates()
        from repro.logic.formulas import Atom

        assert rewrite.seed_for(parse_atom("anc(a, Y)")) == Atom(
            "magic@anc@bf", (Constant("a"),)
        )
        heads = {rule.head.pred for rule in rewrite.program}
        assert heads == {"anc@bf", "magic@anc@bf"}
        # Demand flows through the recursive rule: magic(Z) :- magic(X), par(X, Z).
        magic_rules = [
            r for r in rewrite.program if r.head.pred == "magic@anc@bf"
        ]
        assert len(magic_rules) == 1
        assert {l.atom.pred for l in magic_rules[0].body} == {
            "magic@anc@bf",
            "par",
        }

    def test_rewritten_rules_are_guarded(self):
        rewrite = magic_rewrite(
            ANCESTOR, parse_atom("anc(a, Y)"), supplementary=False
        )
        for rule in rewrite.program:
            if rule.head.pred == rewrite.answer_pred:
                assert rule.body[0].atom.pred == rewrite.magic_pred

    def test_seed_rejects_mismatched_pattern(self):
        rewrite = magic_rewrite(ANCESTOR, parse_atom("anc(a, Y)"))
        with pytest.raises(ValueError):
            rewrite.seed_for(parse_atom("par(a, Y)"))
        with pytest.raises(ValueError):
            rewrite.seed_for(parse_atom("anc(X, b)"))

    def test_negation_on_edb_passes_through(self):
        program = program_of("open(O) :- order(O, C), not done(O)")
        rewrite = magic_rewrite(program, parse_atom("open(o1)"))
        guarded = [r for r in rewrite.program if r.head.pred == "open@b"]
        assert any(
            not l.positive and l.atom.pred == "done"
            for rule in guarded
            for l in rule.body
        )

    def test_negation_on_idb_is_demanded(self):
        program = program_of(
            "node(X) :- r(X, Y)",
            "target(Y) :- r(X, Y)",
            "lonely(X) :- node(X), not target(X)",
        )
        rewrite = magic_rewrite(program, parse_atom("lonely(a)"))
        assert ("target", "b") in rewrite.adornments

    def test_declines_when_rewrite_breaks_stratification(self):
        # Stratified source program whose demand propagation creates
        # recursion through negation: b's magic set depends on a, and a
        # depends negatively on b.
        program = program_of(
            "p(X) :- a(X, Y), b(Y)",
            "a(X, Y) :- e(X, Y), not b(X)",
            "b(X) :- f(X)",
        )
        with pytest.raises(MagicRewriteError, match="not stratified"):
            magic_rewrite(program, parse_atom("p(c)"))


class TestSupplementaryRewrite:
    """The supplementary (default) rewrite: rule prefixes are
    materialized once per split point as ``sup@…`` predicates shared by
    the magic rule they seed and the rest of the body."""

    def test_prefix_is_shared_not_rederived(self):
        rewrite = magic_rewrite(ANCESTOR, parse_atom("anc(a, Y)"))
        assert rewrite.supplementary
        sup_preds = rewrite.sup_predicates()
        assert len(sup_preds) == 1
        (sup,) = sup_preds
        # The recursive rule's prefix magic@anc@bf(X), par(X, Z) is
        # joined in exactly one rule body — the supplementary
        # definition; both consumers (the magic rule and the guarded
        # recursive rule) read the sup relation instead of re-deriving
        # it. (The base rule anc@bf :- guard, par(X, Y) keeps its own
        # body: it has no intensional subgoal, hence no split.)
        sup_rules = [r for r in rewrite.program if r.head.pred == sup]
        assert len(sup_rules) == 1
        assert [l.atom.pred for l in sup_rules[0].body] == [
            "magic@anc@bf", "par",
        ]
        magic_rules = [
            r for r in rewrite.program if r.head.pred == "magic@anc@bf"
        ]
        assert len(magic_rules) == 1
        assert [l.atom.pred for l in magic_rules[0].body] == [sup]
        recursive = [
            r
            for r in rewrite.program
            if r.head.pred == "anc@bf"
            and any(l.atom.pred == "anc@bf" for l in r.body)
        ]
        assert len(recursive) == 1
        assert recursive[0].body[0].atom.pred == sup

    def test_sup_names_cannot_clash_with_parsed_predicates(self):
        rewrite = magic_rewrite(ANCESTOR, parse_atom("anc(a, Y)"))
        for sup in rewrite.sup_predicates():
            assert "@" in sup

    def test_no_sup_without_prefix(self):
        # A rule whose intensional subgoal sits first has only the
        # guard before it — nothing worth materializing.
        program = program_of(
            "p(X) :- q(X)",
            "q(X) :- e(X)",
        )
        rewrite = magic_rewrite(program, parse_atom("p(a)"))
        assert rewrite.sup_predicates() == frozenset()

    def test_multiple_splits_chain_supplementaries(self):
        # Two intensional subgoals behind a shared extensional prefix:
        # sup_0 materializes the prefix, sup_1 extends sup_0 — the
        # prefix join itself happens exactly once.
        program = program_of(
            "res(X, Y) :- e1(X, A), e2(A, B), q(B, M), q(M, Y)",
            "q(X, Y) :- f(X, Y)",
        )
        rewrite = magic_rewrite(program, parse_atom("res(a, Y)"), None)
        sups = sorted(rewrite.sup_predicates())
        assert len(sups) == 2
        by_head = {}
        for rule in rewrite.program:
            by_head.setdefault(rule.head.pred, []).append(rule)
        # sup_0 :- guard, e1, e2 ; sup_1 :- sup_0, q@ ; and e1/e2 appear
        # in no other rule body of the res rewrite.
        [sup0_rule] = by_head[sups[0]]
        assert {l.atom.pred for l in sup0_rule.body} == {
            "magic@res@bf", "e1", "e2",
        }
        [sup1_rule] = by_head[sups[1]]
        assert sup1_rule.body[0].atom.pred == sups[0]
        prefix_consumers = [
            rule
            for rule in rewrite.program
            if any(l.atom.pred in ("e1", "e2") for l in rule.body)
        ]
        assert prefix_consumers == [sup0_rule]

    def test_carried_negative_keeps_its_variables(self):
        # A negative before the split whose variable nothing after the
        # split mentions: the sup projection must keep Y alive for the
        # carried ``not f(Y)`` filter in the guarded rule.
        program = program_of(
            "p(X) :- e(X, Y), not f(Y), q(X)",
            "q(X) :- g(X)",
        )
        rewrite = magic_rewrite(program, parse_atom("p(a)"), None)
        (sup,) = rewrite.sup_predicates()
        sup_rules = [r for r in rewrite.program if r.head.pred == sup]
        assert len(sup_rules) == 1
        # The sup body holds the positive prefix only; the negative is
        # carried to the guarded rule, which still sees Y via the sup.
        assert all(l.positive for l in sup_rules[0].body)
        guarded = [
            r
            for r in rewrite.program
            if r.head.pred == "p@b"
            and any(not l.positive for l in r.body)
        ]
        assert len(guarded) == 1
        sup_vars = set(sup_rules[0].head.variables())
        for literal in guarded[0].body:
            if not literal.positive:
                assert literal.atom.variables() <= sup_vars

    def test_supplementary_answers_match_oracle(self):
        facts = FactStore()
        for i in range(12):
            facts.add(parse_atom(f"par(g{i}, g{i + 1})"))
        for pattern_text in ("anc(g3, Y)", "anc(X, g7)", "anc(g0, g5)"):
            pattern = parse_atom(pattern_text)
            sup = MagicEvaluator(
                facts, ANCESTOR, config=EngineConfig(supplementary=True)
            )
            oracle = MagicEvaluator(
                facts, ANCESTOR, config=EngineConfig(supplementary=False)
            )
            assert sorted(map(str, sup.answers(pattern))) == sorted(
                map(str, oracle.answers(pattern))
            )

    def test_supplementary_with_negation_matches_oracle(self):
        program = program_of(
            "p(X) :- e(X, Y), not f(Y), q(X)",
            "q(X) :- g(X)",
        )
        facts = FactStore(
            parse_atom(text)
            for text in (
                "e(a, m)", "e(b, n)", "e(c, m)", "f(n)", "g(a)", "g(b)",
            )
        )
        for constant in "abcd":
            pattern = parse_atom(f"p({constant})")
            sup = MagicEvaluator(
                facts, program, config=EngineConfig(supplementary=True)
            )
            oracle = MagicEvaluator(
                facts, program, config=EngineConfig(supplementary=False)
            )
            assert sup.holds(pattern) == oracle.holds(pattern)

    def test_evaluator_records_mode_in_stats(self):
        evaluator = MagicEvaluator(FactStore(), ANCESTOR)
        assert evaluator.stats()["magic.supplementary"] == 1
        oracle = MagicEvaluator(
            FactStore(), ANCESTOR, config=EngineConfig(supplementary=False)
        )
        assert oracle.stats()["magic.supplementary"] == 0


class TestMagicEvaluator:
    def build_chain(self, n):
        facts = FactStore()
        for i in range(n):
            facts.add(parse_atom(f"par(g{i}, g{i + 1})"))
        return facts

    def test_answers_match_full_model(self):
        facts = self.build_chain(10)
        evaluator = MagicEvaluator(facts, ANCESTOR)
        pattern = parse_atom("anc(g0, Y)")
        assert evaluator.supports(pattern)
        answers = {
            str(s.apply_term(Variable("Y"))) for s in evaluator.answers(pattern)
        }
        assert answers == {f"g{i}" for i in range(1, 11)}

    def test_only_demanded_tuples_materialize(self):
        facts = self.build_chain(40)
        evaluator = MagicEvaluator(facts, ANCESTOR)
        list(evaluator.answers(parse_atom("anc(X, g3)")))
        # Full materialization would derive 40*41/2 = 820 anc facts;
        # the demanded slice is the 3 ancestors of g3 plus bookkeeping.
        assert evaluator.derived_fact_count() < 20

    def test_seeds_accumulate_soundly(self):
        facts = self.build_chain(10)
        evaluator = MagicEvaluator(facts, ANCESTOR)
        first = set(
            str(s.apply_term(Variable("Y")))
            for s in evaluator.answers(parse_atom("anc(g7, Y)"))
        )
        second = set(
            str(s.apply_term(Variable("Y")))
            for s in evaluator.answers(parse_atom("anc(g2, Y)"))
        )
        assert first == {"g8", "g9", "g10"}
        assert second == {f"g{i}" for i in range(3, 11)}

    def test_resaturation_is_incremental(self):
        facts = self.build_chain(30)
        evaluator = MagicEvaluator(facts, ANCESTOR)
        list(evaluator.answers(parse_atom("anc(g9, Y)")))
        after_first = evaluator.derived_fact_count()
        # Answering anc(g9, Y) propagated demand down the chain, so
        # g12's slice is already materialized: the later query must
        # not add a single fact.
        answers = list(evaluator.answers(parse_atom("anc(g12, Y)")))
        assert len(answers) == 30 - 12  # g13 .. g30
        assert evaluator.derived_fact_count() == after_first
        # A genuinely new slice (g5 sits above g9) pays only for
        # itself, never re-deriving what is already demanded.
        list(evaluator.answers(parse_atom("anc(g5, Y)")))
        grown = evaluator.derived_fact_count() - after_first
        assert 0 < grown < after_first

    def test_holds_ground_atom(self):
        facts = self.build_chain(6)
        evaluator = MagicEvaluator(facts, ANCESTOR)
        assert evaluator.holds(parse_atom("anc(g1, g5)"))
        assert not evaluator.holds(parse_atom("anc(g5, g1)"))

    def test_mixed_edb_idb_predicate_keeps_facts(self):
        program = program_of("anc(X, Y) :- par(X, Y)")
        facts = FactStore(
            [parse_atom("par(a, b)"), parse_atom("anc(a, zz)")]
        )
        evaluator = MagicEvaluator(facts, program)
        answers = {
            str(s.apply_term(Variable("Y")))
            for s in evaluator.answers(parse_atom("anc(a, Y)"))
        }
        assert answers == {"b", "zz"}

    def test_decline_is_recorded_and_warned_once(self):
        program = program_of(
            "p(X) :- a(X, Y), b(Y)",
            "a(X, Y) :- e(X, Y), not b(X)",
            "b(X) :- f(X)",
        )
        evaluator = MagicEvaluator(FactStore(), program)
        with pytest.warns(MagicFallbackWarning, match="not stratified"):
            assert not evaluator.supports(parse_atom("p(c)"))
        assert ("p", "b") in evaluator.declined
        # Second probe answers from the cache without re-warning.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not evaluator.supports(parse_atom("p(c)"))


class TestAgreementWithBottomUp:
    """Magic answers equal the full canonical model's on three recursive
    shapes: linear recursion, same-generation and mutual recursion.
    Bound queries go through the rewrite; open ones take the engine's
    lazy fallback."""

    @pytest.mark.parametrize("supplementary", [True, False])
    @pytest.mark.parametrize(
        "facts, rules, queries",
        [
            (
                ("par(a, b)", "par(b, c)", "par(c, d)"),
                (
                    "anc(X, Y) :- par(X, Y)",
                    "anc(X, Y) :- par(X, Z), anc(Z, Y)",
                ),
                ("anc(X, Y)", "anc(a, X)", "anc(X, d)"),
            ),
            (
                ("up(a, b)", "up(c, d)", "flat(b, d)", "down(d, e)", "down(b, f)"),
                (
                    "sg(X, Y) :- flat(X, Y)",
                    "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y)",
                ),
                ("sg(X, Y)", "sg(a, X)"),
            ),
            (
                ("zero(0)", "succ(0, 1)", "succ(1, 2)", "succ(2, 3)"),
                (
                    "even(X) :- zero(X)",
                    "even(X) :- succ(Y, X), odd(Y)",
                    "odd(X) :- succ(Y, X), even(Y)",
                ),
                ("even(X)", "odd(X)", "even(2)", "odd(2)", "odd(3)"),
            ),
        ],
    )
    def test_same_answers(self, facts, rules, queries, supplementary):
        edb = FactStore(parse_atom(fact) for fact in facts)
        prog = program_of(*rules)
        model = compute_model(edb, prog)
        engine = QueryEngine(
            edb,
            prog,
            config=EngineConfig(strategy="magic", supplementary=supplementary),
        )
        for query in queries:
            pattern = parse_atom(query)
            expected = {str(match(pattern, fact)) for fact in model.match(pattern)}
            assert {str(s) for s in engine.match_atom(pattern)} == expected
        assert any(engine.magic.supports(parse_atom(q)) for q in queries)


class TestEngineIntegration:
    SOURCE = """
    par(a, b). par(b, c). par(c, d).
    person(a). person(b). person(c). person(d).
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- par(X, Z), anc(Z, Y).
    """

    def test_strategy_validation_lists_choices(self):
        with pytest.raises(ValueError, match="magic"):
            EngineConfig(strategy="bogus")

    def test_engine_answers_agree_with_lazy(self):
        db = DeductiveDatabase.from_source(self.SOURCE)
        pattern = parse_atom("anc(b, Y)")
        lazy = {str(s) for s in db.engine(config=EngineConfig(strategy="lazy")).match_atom(pattern)}
        magic = {str(s) for s in db.engine(config=EngineConfig(strategy="magic")).match_atom(pattern)}
        assert magic == lazy

    def test_engine_falls_back_on_unbound_pattern(self):
        db = DeductiveDatabase.from_source(self.SOURCE)
        pattern = parse_atom("anc(X, Y)")
        lazy = {str(s) for s in db.engine(config=EngineConfig(strategy="lazy")).match_atom(pattern)}
        magic = {str(s) for s in db.engine(config=EngineConfig(strategy="magic")).match_atom(pattern)}
        assert magic == lazy
        assert ("anc", "ff") in db.engine(config=EngineConfig(strategy="magic")).magic.declined

    def test_engine_evaluates_constraints(self):
        db = DeductiveDatabase.from_source(
            self.SOURCE + "forall X, Y: anc(X, Y) -> person(Y).\n"
        )
        engine = db.engine(config=EngineConfig(strategy="magic"))
        assert engine.evaluate(db.constraints[0].formula)

    def test_checker_accepts_magic_strategy(self):
        from repro.integrity.checker import IntegrityChecker

        db = DeductiveDatabase.from_source(
            self.SOURCE + "forall X, Y: anc(X, Y) -> person(Y).\n"
        )
        checker = IntegrityChecker(db, config=EngineConfig(strategy="magic"))
        assert checker.check_bdm("par(d, a)").ok
        assert not checker.check_bdm("par(d, e)").ok

    def test_checker_validates_knobs_up_front(self):
        from repro.integrity.checker import IntegrityChecker

        db = DeductiveDatabase.from_source(self.SOURCE)
        with pytest.raises(ValueError, match="strategy"):
            IntegrityChecker(db, config=EngineConfig(strategy="bogus"))
        with pytest.raises(ValueError, match="plan"):
            IntegrityChecker(db, config=EngineConfig(plan="bogus"))


class TestIncrementalDemandMaintenance:
    """Repeat queries of an already-seen adornment must not re-saturate
    from round zero: the semi-naive delta is seeded with just the new
    magic fact, so the work (``derivations`` — facts produced by derive
    rounds *before* deduplication, which a round-zero restart would
    inflate even when nothing new is added) is O(new slice)."""

    @staticmethod
    def chain_store(n):
        store = FactStore()
        for i in range(n - 1):
            store.add(parse_atom(f"edge(g{i}, g{i + 1})"))
        return store

    @staticmethod
    def chain_program():
        return program_of(
            "reach(X, Y) :- edge(X, Y)",
            "reach(X, Y) :- edge(X, Z), reach(Z, Y)",
        )

    def test_repeat_query_does_zero_work(self):
        evaluator = MagicEvaluator(self.chain_store(40), self.chain_program())
        pattern = parse_atom("reach(g0, Y)")
        first = sorted(map(str, evaluator.answers(pattern)))
        work_after_first = evaluator.derivations
        assert work_after_first > 0
        again = sorted(map(str, evaluator.answers(pattern)))
        assert again == first
        assert evaluator.derivations == work_after_first
        # The repeat did not even start a saturation pass.
        assert evaluator.saturation_passes == 1

    def test_subsumed_seed_does_zero_work(self):
        """A seed already demanded as a sub-demand of an earlier query
        is recognized before any propagation happens."""
        evaluator = MagicEvaluator(self.chain_store(40), self.chain_program())
        list(evaluator.answers(parse_atom("reach(g0, Y)")))
        work = evaluator.derivations
        # g20's demand was created while answering g0 (the recursive
        # rule demands every suffix), so this query is fully covered.
        mid = sorted(map(str, evaluator.answers(parse_atom("reach(g20, Y)"))))
        assert len(mid) == 19
        assert evaluator.derivations == work
        assert evaluator.saturation_passes == 1

    def test_new_seed_pays_only_for_the_new_slice(self):
        """Extending demand by one chain node must cost O(1) rounds,
        not a re-saturation of the 60-node suffix already derived."""
        store = self.chain_store(60)
        program = self.chain_program()
        evaluator = MagicEvaluator(store, program)
        # Saturate the suffix below g1 first.
        list(evaluator.answers(parse_atom("reach(g1, Y)")))
        saturated_work = evaluator.derivations
        # Now demand g0: one new edge joins an already-derived suffix.
        answers = sorted(map(str, evaluator.answers(parse_atom("reach(g0, Y)"))))
        assert len(answers) == 59
        incremental_work = evaluator.derivations - saturated_work
        assert incremental_work > 0
        # A round-zero restart would redo >= the saturated work; the
        # incremental seed touches the new node's slice only. The new
        # slice is the g0 row (59 answers) plus its magic/guard facts,
        # so allow a small constant factor over that, far below the
        # full saturation cost.
        assert incremental_work < saturated_work / 4
        fresh = MagicEvaluator(store, program)
        list(fresh.answers(parse_atom("reach(g0, Y)")))
        from_scratch = fresh.derivations
        assert incremental_work < from_scratch / 4

    def test_answers_agree_with_fresh_evaluator(self):
        """Incremental accumulation never changes answers: interleaved
        queries equal what a fresh evaluator computes per pattern."""
        store = self.chain_store(25)
        program = self.chain_program()
        shared = MagicEvaluator(store, program)
        for start in (20, 5, 12, 0, 12, 20):
            pattern = parse_atom(f"reach(g{start}, Y)")
            fresh = MagicEvaluator(store, program)
            assert sorted(map(str, shared.answers(pattern))) == sorted(
                map(str, fresh.answers(pattern))
            )

    def test_stats_expose_work_counters(self):
        evaluator = MagicEvaluator(self.chain_store(10), self.chain_program())
        list(evaluator.answers(parse_atom("reach(g4, Y)")))
        stats = evaluator.stats()
        assert stats["magic.derivations"] == evaluator.derivations
        assert stats["magic.saturation_passes"] == 1
