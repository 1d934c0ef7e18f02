"""The set-at-a-time join kernel against the tuple-at-a-time oracle,
plus the short-circuit regressions the batch path must preserve.

The batch pipeline carries binding relations in chunks precisely so
that consumers wanting one witness (existence tests, violation search,
the integrity gate's constraint evaluation) never pay for the full
join. The tests here pin that with probe counters: a first-answer
consumer touches at most a chunk's worth of probes, a full enumeration
touches one probe per distinct join key.
"""

import pytest

from repro.config import EngineConfig
from repro.datalog.database import DeductiveDatabase
from repro.datalog.facts import FactStore
from repro.datalog.joins import (
    BATCH_CHUNK,
    join_body,
    join_literals,
    join_literals_batch,
    probe_from_matcher,
    probe_from_source,
)
from repro.integrity.checker import IntegrityChecker
from repro.logic.formulas import Atom, Literal
from repro.logic.parser import parse_literal
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable
from repro.obs.metrics import default_registry


def atom(pred, *names):
    return Atom(pred, tuple(Constant(name) for name in names))


X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


class CountingStore(FactStore):
    """A FactStore counting its batched and scanning probes."""

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

    @property
    def probes(self):
        return self.bucket_probes + self.match_calls


def small_store():
    store = FactStore()
    for fact in (
        atom("p", "a"),
        atom("p", "b"),
        atom("p", "c"),
        atom("q", "b"),
        atom("r", "a", "b"),
        atom("r", "a", "c"),
        atom("r", "b", "b"),
        atom("r", "c", "c"),
        atom("s", "c", "c"),
        atom("pair", "a", "a"),
        atom("pair", "a", "b"),
    ):
        store.add(fact)
    return store


def both_ways(literals, store, binding=Substitution.empty()):
    def matcher(index, pattern):
        return store.match_substitutions(pattern)

    oracle = sorted(
        str(answer)
        for answer in join_literals(
            literals, binding, matcher, store.contains
        )
    )
    batch = sorted(
        str(answer)
        for answer in join_literals_batch(
            literals, binding, probe_from_source(store), store.contains
        )
    )
    adapted = sorted(
        str(answer)
        for answer in join_literals_batch(
            literals,
            binding,
            probe_from_matcher(matcher),
            store.contains,
        )
    )
    assert batch == adapted
    return oracle, batch


class TestKernelAgreement:
    def test_plain_join(self):
        oracle, batch = both_ways(
            [Literal(Atom("p", (X,))), Literal(Atom("r", (X, Y)))],
            small_store(),
        )
        assert batch == oracle and len(oracle) == 4

    def test_constants_and_repeated_variables(self):
        oracle, batch = both_ways(
            [Literal(Atom("pair", (Constant("a"), X)))], small_store()
        )
        assert batch == oracle and len(oracle) == 2
        oracle, batch = both_ways(
            [Literal(Atom("r", (X, X)))], small_store()
        )
        assert batch == oracle and len(oracle) == 2  # r(b,b), r(c,c)

    def test_negation_interleaved(self):
        literals = [
            Literal(Atom("p", (X,))),
            Literal(Atom("q", (X,)), False),
            Literal(Atom("r", (X, Y))),
            Literal(Atom("s", (X, Y)), False),
        ]
        oracle, batch = both_ways(literals, small_store())
        assert batch == oracle
        # p(b) dies at not q(b); (c, c) dies at not s(c, c).
        assert len(oracle) == 2

    def test_initial_binding(self):
        binding = Substitution({X: Constant("a")})
        oracle, batch = both_ways(
            [Literal(Atom("r", (X, Y)))], small_store(), binding
        )
        assert batch == oracle and len(oracle) == 2

    def test_empty_relation_and_empty_body(self):
        oracle, batch = both_ways(
            [Literal(Atom("nothing", (X,)))], small_store()
        )
        assert batch == oracle == []
        oracle, batch = both_ways([], small_store())
        assert batch == oracle and len(oracle) == 1

    def test_ground_negative_only_body(self):
        store = small_store()
        oracle, batch = both_ways(
            [Literal(atom("q", "a"), False)], store
        )
        assert batch == oracle and len(oracle) == 1
        oracle, batch = both_ways(
            [Literal(atom("q", "b"), False)], store
        )
        assert batch == oracle == []

    def test_range_restriction_error_matches_oracle(self):
        store = small_store()
        literals = [
            Literal(Atom("p", (X,))),
            Literal(Atom("nothing", (Y,)), False),
        ]
        for runner in (
            lambda: list(
                join_literals(
                    literals,
                    Substitution.empty(),
                    lambda i, pattern: store.match_substitutions(pattern),
                    store.contains,
                )
            ),
            lambda: list(
                join_literals_batch(
                    literals,
                    Substitution.empty(),
                    probe_from_source(store),
                    store.contains,
                )
            ),
        ):
            with pytest.raises(ValueError, match="range-restricted"):
                runner()

    def test_chunked_flushing_is_lossless(self):
        store = FactStore()
        for i in range(40):
            store.add(atom("e", f"n{i}", f"n{(i + 1) % 40}"))
        literals = [
            Literal(Atom("e", (X, Y))),
            Literal(Atom("e", (Y, Z))),
        ]
        oracle, _ = both_ways(literals, store)
        tiny_chunks = sorted(
            str(answer)
            for answer in join_literals_batch(
                literals,
                Substitution.empty(),
                probe_from_source(store),
                store.contains,
                chunk_size=3,
            )
        )
        assert tiny_chunks == oracle and len(oracle) == 40

    def test_mixed_arity_predicate_matches_oracle(self):
        # Nothing stops a database from asserting p/1 and p/2 under one
        # name; the group index filters on key positions only, so the
        # row extraction must enforce the pattern's arity the way the
        # tuple path's match() does (regression: IndexError / spurious
        # rows).
        store = FactStore()
        for fact in (
            atom("p", "a"),
            atom("p", "a", "b"),
            atom("p", "c", "b"),
            atom("q", "a"),
            atom("q", "c"),
        ):
            store.add(fact)
        oracle, batch = both_ways(
            [Literal(Atom("p", (Constant("a"), X)))], store
        )
        assert batch == oracle and len(oracle) == 1
        oracle, batch = both_ways(
            [Literal(Atom("p", (Constant("a"),)))], store
        )
        assert batch == oracle and len(oracle) == 1
        oracle, batch = both_ways(
            [Literal(Atom("q", (X,))), Literal(Atom("p", (X, Y)))], store
        )
        assert batch == oracle and len(oracle) == 2

    def test_exec_mode_typos_are_rejected(self):
        with pytest.raises(ValueError, match="unknown exec mode"):
            EngineConfig(exec_mode="vectorized")


def wide_counting_store(n):
    store = CountingStore()
    for i in range(n):
        store.add(atom("p", f"x{i}"))
        store.add(atom("r", f"x{i}", f"y{i}"))
    return store


class TestShortCircuit:
    N = 1000

    def literals(self):
        return [
            Literal(Atom("p", (X,))),
            Literal(Atom("r", (X, Y))),
        ]

    def test_first_answer_stops_after_one_chunk(self):
        store = wide_counting_store(self.N)
        answers = join_literals_batch(
            self.literals(),
            Substitution.empty(),
            probe_from_source(store),
            store.contains,
        )
        next(answers)
        # One probe for p plus at most a chunk's worth of r probes —
        # nowhere near the full join's N probes.
        assert store.probes <= BATCH_CHUNK + 2
        assert store.probes < self.N / 2

    def test_full_enumeration_probes_every_key(self):
        store = wide_counting_store(self.N)
        count = sum(
            1
            for _ in join_literals_batch(
                self.literals(),
                Substitution.empty(),
                probe_from_source(store),
                store.contains,
            )
        )
        assert count == self.N
        assert store.probes >= self.N  # the contrast making the pin real

    def wide_database(self):
        store = wide_counting_store(self.N)
        db = DeductiveDatabase(store)
        db.add_constraint("forall X, Y: p(X) and r(X, Y) -> q(X)")
        return db, store

    def test_engine_witness_search_short_circuits(self):
        db, store = self.wide_database()
        engine = db.engine(
            config=EngineConfig(
                strategy="lazy", plan="greedy", exec_mode="batch"
            )
        )
        constraint = db.constraints[0]
        assert engine.evaluate(constraint.formula) is False
        assert store.probes <= BATCH_CHUNK + 16

    def test_engine_first_violation_short_circuits(self):
        db, store = self.wide_database()
        engine = db.engine(
            config=EngineConfig(
                strategy="lazy", plan="greedy", exec_mode="batch"
            )
        )
        constraint = db.constraints[0]
        next(engine.violations(constraint.formula))
        assert store.probes <= BATCH_CHUNK + 16

    def test_checker_witness_search_short_circuits(self):
        db, store = self.wide_database()
        checker = IntegrityChecker(db, config=EngineConfig(exec_mode="batch"))
        result = checker.check_full(parse_literal("p(x_new)"))
        assert not result.ok
        # The full check still stops at each constraint's first
        # violating restriction answer instead of materializing the
        # whole p ⋈ r join.
        assert store.probes <= BATCH_CHUNK + 32

    def test_full_witness_enumeration_is_the_contrast(self):
        db, store = self.wide_database()
        engine = db.engine(
            config=EngineConfig(
                strategy="lazy", plan="greedy", exec_mode="batch"
            )
        )
        constraint = db.constraints[0]
        witnesses = list(engine.violations(constraint.formula))
        assert len(witnesses) == self.N
        assert store.probes >= self.N


class TestInitialRelation:
    """join_literals_rows can start from a named (schema, rows)
    relation instead of the unit binding — the seam semi-naive
    evaluation uses to flow a delta (e.g. a supplementary predicate's
    new tuples) straight into its consumer joins."""

    def seeded(self, literals, store, schema, rows, chunk_size=None):
        from repro.datalog.joins import join_literals_rows

        kwargs = {} if chunk_size is None else {"chunk_size": chunk_size}
        out = []
        for out_schema, out_rows in join_literals_rows(
            literals,
            Substitution.empty(),
            probe_from_source(store),
            store.contains,
            initial=(schema, rows),
            **kwargs,
        ):
            for row in out_rows:
                out.append(
                    str(Substitution.trusted(dict(zip(out_schema, row))))
                )
        return sorted(out)

    def test_matches_per_row_binding_union(self):
        store = small_store()
        literals = [Literal(Atom("r", (X, Y)))]
        rows = [(Constant("a"),), (Constant("b"),), (Constant("zz"),)]
        expected = sorted(
            str(answer)
            for row in rows
            for answer in join_literals_batch(
                literals,
                Substitution({X: row[0]}),
                probe_from_source(store),
                store.contains,
            )
        )
        assert self.seeded(literals, store, (X,), rows) == expected
        assert len(expected) == 3  # r(a,b), r(a,c), r(b,b)

    def test_negatives_and_chunking(self):
        store = small_store()
        literals = [
            Literal(Atom("r", (X, Y))),
            Literal(Atom("s", (X, Y)), False),
        ]
        rows = [(Constant(c),) for c in "abc"]
        expected = self.seeded(literals, store, (X,), rows)
        tiny = self.seeded(literals, store, (X,), rows, chunk_size=1)
        assert tiny == expected
        assert len(expected) == 3  # (c, c) dies at not s(c, c)

    def test_empty_initial_relation_yields_nothing(self):
        assert self.seeded(
            [Literal(Atom("r", (X, Y)))], small_store(), (X,), []
        ) == []

    def test_initial_excludes_nonempty_binding(self):
        from repro.datalog.joins import join_literals_rows

        store = small_store()
        with pytest.raises(ValueError, match="mutually exclusive"):
            list(
                join_literals_rows(
                    [Literal(Atom("r", (X, Y)))],
                    Substitution({Y: Constant("b")}),
                    probe_from_source(store),
                    store.contains,
                    initial=((X,), [(Constant("a"),)]),
                )
            )


class TestTupleFallbackCounter:
    """``join.tuple_fallbacks`` counts :func:`join_body` calls whose
    initial binding maps variables to non-constants; the benchmarks pin
    it at 0 on the default workloads."""

    @staticmethod
    def tuple_fallbacks():
        return default_registry().snapshot()["join.tuple_fallbacks"]

    def test_counter_does_count_variable_bindings(self):
        """The pin is only meaningful if the counter fires when a
        binding really does map variables to variables."""
        facts = FactStore([atom("p", "a"), atom("p", "b")])
        before = self.tuple_fallbacks()
        answers = list(
            join_body(
                [Literal(Atom("p", (X,)))],
                Substitution({Variable("H"): X}),
                lambda index, pattern: facts.match_substitutions(pattern),
                facts.contains,
                config=EngineConfig(exec_mode="batch"),
            )
        )
        assert len(answers) == 2
        assert self.tuple_fallbacks() - before == 1


class TestExecSeamValidation:
    """Unknown exec modes fail with one line naming the choices when
    the config is built — no seam ever sees one, so none can silently
    run the wrong join path."""

    def test_join_body_rejects_unknown_exec(self):
        store = small_store()
        with pytest.raises(ValueError, match="unknown exec mode"):
            join_body(
                [Literal(Atom("p", (X,)))],
                Substitution.empty(),
                lambda index, pattern: store.match_substitutions(pattern),
                store.contains,
                config=EngineConfig(exec_mode="vectorized"),
            )

    def test_compute_model_rejects_unknown_exec(self):
        from repro.datalog.bottomup import compute_model
        from repro.datalog.program import Program

        with pytest.raises(ValueError, match="unknown exec mode"):
            compute_model(
                small_store(),
                Program(),
                config=EngineConfig(exec_mode="bogus"),
            )

    def test_maintained_model_rejects_unknown_exec(self):
        from repro.datalog.incremental import MaintainedModel
        from repro.datalog.program import Program

        with pytest.raises(ValueError, match="unknown exec mode"):
            MaintainedModel(
                small_store(),
                Program(),
                config=EngineConfig(exec_mode="bogus"),
            )
        with pytest.raises(ValueError, match="unknown exec mode"):
            MaintainedModel.from_snapshot(
                small_store(),
                Program(),
                small_store(),
                config=EngineConfig(exec_mode="bogus"),
            )

    def test_evaluators_reject_unknown_exec(self):
        from repro.datalog.magic import MagicEvaluator
        from repro.datalog.program import Program

        with pytest.raises(ValueError, match="unknown exec mode"):
            MagicEvaluator(
                small_store(),
                Program(),
                config=EngineConfig(exec_mode="bogus"),
            )

    def test_engine_rejects_unknown_exec(self):
        db = DeductiveDatabase(small_store())
        with pytest.raises(ValueError, match="unknown exec mode"):
            db.engine(config=EngineConfig(exec_mode="bogus"))
        # The loose spellings are gone, not silently ignored.
        with pytest.raises(TypeError):
            db.engine("lazy", "greedy", "bogus")

    def test_checker_rejects_unknown_exec(self):
        db = DeductiveDatabase(small_store())
        with pytest.raises(ValueError, match="unknown exec mode"):
            IntegrityChecker(db, config=EngineConfig(exec_mode="bogus"))
        with pytest.raises(TypeError):
            IntegrityChecker(db, exec_mode="bogus")
