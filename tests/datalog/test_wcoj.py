"""The worst-case-optimal join kernel, pinned layer by layer.

Bottom up: the trie iterator's open/up/next/seek navigation, the
unary leapfrog intersection, the GYO acyclicity planner test, the
columnar relation container (including the width-0 unit-row subtlety),
the full leapfrog enumeration against a nested-loop reference — then
the dispatcher: eligibility pinned through the ``join.wcoj_joins`` /
``join.wcoj_fallbacks`` registry counters, mid-saturation delta
seeding against the hash oracle, and ``join_algo`` validation at
every seam with one line naming the choices.
"""

import pytest

from repro.config import JOIN_ALGOS, EngineConfig
from repro.datalog.columnar import ColumnarRelation
from repro.datalog.database import DeductiveDatabase
from repro.datalog.facts import FactStore
from repro.datalog.joins import (
    join_body,
    join_literals_rows,
    probe_from_source,
)
from repro.datalog.program import Program, Rule
from repro.datalog.wcoj import (
    Leapfrog,
    TrieIterator,
    is_acyclic,
    leapfrog_rows,
    variable_order,
)
from repro.logic.formulas import Atom, Literal
from repro.logic.parser import parse_rule
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable
from repro.obs.metrics import default_registry

W, X, Y, Z = Variable("W"), Variable("X"), Variable("Y"), Variable("Z")


def atom(pred, *names):
    return Atom(pred, tuple(Constant(name) for name in names))


def const_rows(rows):
    return [tuple(Constant(v) for v in row) for row in rows]


def wcoj_counts():
    registry = default_registry()
    return (
        registry.counter("join.wcoj_joins").value,
        registry.counter("join.wcoj_fallbacks").value,
    )


class TestTrieIterator:
    def test_navigation_over_two_columns(self):
        trie = TrieIterator([(1, 4), (1, 5), (2, 6), (4, 4)])
        assert not trie.at_end
        trie.open()  # level 0: keys 1, 2, 4
        assert trie.key() == 1
        trie.open()  # level 1 under 1: keys 4, 5
        assert trie.key() == 4
        trie.next()
        assert trie.key() == 5
        trie.next()
        assert trie.at_end
        trie.up()
        assert trie.key() == 1
        trie.next()
        assert trie.key() == 2
        trie.open()  # level 1 under 2: key 6 only
        assert trie.key() == 6
        trie.next()
        assert trie.at_end
        trie.up()
        trie.seek(3)  # least level-0 key >= 3 is 4
        assert trie.key() == 4
        trie.next()
        assert trie.at_end

    def test_seek_to_missing_key_lands_on_successor(self):
        trie = TrieIterator([(10,), (20,), (30,)])
        trie.open()
        trie.seek(15)
        assert trie.key() == 20
        trie.seek(31)
        assert trie.at_end

    def test_duplicates_collapse(self):
        trie = TrieIterator([(1, 2), (1, 2), (1, 2)])
        trie.open()
        assert trie.key() == 1
        trie.open()
        assert trie.key() == 2
        trie.next()
        assert trie.at_end

    def test_empty_relation_starts_at_end(self):
        assert TrieIterator([]).at_end

    def test_up_restores_position(self):
        trie = TrieIterator([(1, 1), (2, 2), (3, 3)])
        trie.open()
        trie.next()  # at 2
        trie.open()
        assert trie.key() == 2
        trie.up()
        assert trie.key() == 2  # back where we were, not rewound


class TestLeapfrog:
    def intersect(self, *relations):
        iters = []
        for rel in relations:
            trie = TrieIterator([(v,) for v in rel])
            trie.open()
            iters.append(trie)
        frog = Leapfrog(iters)
        frog.init()
        out = []
        while not frog.at_end:
            out.append(frog.key)
            frog.next()
        return out

    def test_three_way_intersection(self):
        assert self.intersect(
            [0, 1, 3, 4, 5, 6, 7, 8, 9, 11],
            [0, 2, 6, 7, 8, 9],
            [2, 4, 5, 8, 10],
        ) == [8]  # the worked example of Veldhuizen 2014, Fig. 1

    def test_disjoint_inputs_intersect_empty(self):
        assert self.intersect([1, 3], [2, 4]) == []

    def test_single_iterator_enumerates_all(self):
        assert self.intersect([3, 1, 2]) == [1, 2, 3]

    def test_empty_input_is_at_end(self):
        assert self.intersect([1, 2], []) == []


class TestVariableOrder:
    def test_most_shared_first(self):
        # Y occurs in both atoms, X and Z once each.
        order = variable_order([(X, Y), (Y, Z)])
        assert order[0] == Y
        assert set(order) == {X, Y, Z}

    def test_ties_break_by_first_occurrence(self):
        assert variable_order([(X, Y), (Y, X)]) == (X, Y)
        assert variable_order([(Y, X), (X, Y)]) == (Y, X)


class TestIsAcyclic:
    def test_triangle_is_cyclic(self):
        assert not is_acyclic([(X, Y), (Y, Z), (X, Z)])

    def test_path_is_acyclic(self):
        assert is_acyclic([(X, Y), (Y, Z)])

    def test_star_is_acyclic(self):
        # E13's shape: many relations sharing one variable.
        assert is_acyclic([(X,), (X, Y), (X, Z), (X, W)])

    def test_four_cycle_is_cyclic(self):
        assert not is_acyclic([(W, X), (X, Y), (Y, Z), (Z, W)])

    def test_triangle_with_pendant_stays_cyclic(self):
        assert not is_acyclic([(X, Y), (Y, Z), (X, Z), (Z, W)])

    def test_duplicate_edges_are_acyclic(self):
        assert is_acyclic([(X, Y), (X, Y)])

    def test_empty_body_is_acyclic(self):
        assert is_acyclic([])


class TestColumnarRelation:
    def test_round_trip(self):
        rows = const_rows([("a", "b"), ("c", "d")])
        rel = ColumnarRelation.from_rows((X, Y), rows)
        assert len(rel) == 2
        assert list(rel.rows()) == rows
        assert rel.column(Y) == [rows[0][1], rows[1][1]]

    def test_width_zero_keeps_row_count(self):
        # A ground body's seed: one empty row means "satisfied", no
        # rows means "failed". The pivot must not conflate them.
        unit = ColumnarRelation.from_rows((), [()])
        assert len(unit) == 1 and bool(unit)
        assert list(unit.rows()) == [()]
        empty = ColumnarRelation.from_rows((), [])
        assert len(empty) == 0 and not bool(empty)
        assert list(empty.rows()) == []

    def test_project_shares_columns(self):
        rel = ColumnarRelation.from_rows(
            (X, Y), const_rows([("a", "b"), ("c", "d")])
        )
        projected = rel.project((Y,))
        assert projected.schema == (Y,)
        assert projected.columns[0] is rel.columns[1]
        assert len(projected) == 2

    def test_key_of_empty_positions(self):
        rel = ColumnarRelation.from_rows((X,), const_rows([("a",), ("b",)]))
        assert rel.key_of(()) == [(), ()]

    def test_distinct_returns_self_when_already_distinct(self):
        rel = ColumnarRelation.from_rows(
            (X,), const_rows([("a",), ("b",)])
        )
        assert rel.distinct() is rel

    def test_distinct_dedups(self):
        rel = ColumnarRelation.from_rows(
            (X,), const_rows([("a",), ("a",), ("b",)])
        )
        deduped = rel.distinct()
        assert deduped is not rel
        assert sorted(c.value for (c,) in deduped.rows()) == ["a", "b"]

    def test_distinct_width_zero(self):
        many = ColumnarRelation.from_rows((), [(), (), ()])
        assert len(many) == 3
        assert len(many.distinct()) == 1
        unit = ColumnarRelation.from_rows((), [()])
        assert unit.distinct() is unit

    def test_schema_column_mismatch_rejected(self):
        with pytest.raises(ValueError, match="schema/column mismatch"):
            ColumnarRelation((X, Y), [[]])


def reference_triangle(r_rows, s_rows, t_rows):
    """Nested-loop triangle join — the oracle for leapfrog_rows."""
    out = set()
    for x, y in r_rows:
        for y2, z in s_rows:
            if y2 != y:
                continue
            for x2, z2 in t_rows:
                if x2 == x and z2 == z:
                    out.add((x, y, z))
    return out


class TestLeapfrogRows:
    def run(self, order, relations):
        return set(leapfrog_rows(order, relations))

    def test_triangle_matches_nested_loop(self):
        r = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a")]
        s = [("b", "c"), ("c", "a"), ("a", "b"), ("b", "b")]
        t = [("a", "c"), ("b", "a"), ("a", "b"), ("c", "c")]
        relations = [
            ColumnarRelation.from_rows((X, Y), const_rows(r)),
            ColumnarRelation.from_rows((Y, Z), const_rows(s)),
            ColumnarRelation.from_rows((X, Z), const_rows(t)),
        ]
        order = variable_order([rel.schema for rel in relations])
        got = {
            tuple(c.value for c in row)
            for row in leapfrog_rows(order, relations)
        }
        expected = reference_triangle(r, s, t)
        reorder = [(X, Y, Z).index(v) for v in order]
        assert got == {tuple(row[i] for i in reorder) for row in expected}
        assert got  # the fixture is chosen to have matches

    def test_empty_relation_empties_join(self):
        relations = [
            ColumnarRelation.from_rows((X, Y), const_rows([("a", "b")])),
            ColumnarRelation.from_rows((Y, Z), []),
            ColumnarRelation.from_rows((X, Z), const_rows([("a", "c")])),
        ]
        assert self.run((X, Y, Z), relations) == set()

    def test_width_zero_unit_row_is_a_satisfied_filter(self):
        relations = [
            ColumnarRelation.from_rows((), [()]),
            ColumnarRelation.from_rows((X,), const_rows([("a",), ("b",)])),
            ColumnarRelation.from_rows((X,), const_rows([("b",), ("c",)])),
        ]
        got = self.run((X,), relations)
        assert {c.value for (c,) in got} == {"b"}

    def test_width_zero_empty_is_a_failed_filter(self):
        relations = [
            ColumnarRelation.from_rows((), []),
            ColumnarRelation.from_rows((X,), const_rows([("a",)])),
        ]
        assert self.run((X,), relations) == set()

    def test_no_variables_yields_unit_row(self):
        assert self.run((), [ColumnarRelation.from_rows((), [()])]) == {()}

    def test_mixed_value_types_join(self):
        # Constants wrap unorderable value mixes; the surrogate sort
        # key must still produce a usable (deterministic) order.
        rows = [(1, "one"), (2, "two"), ("x", 3)]
        relations = [
            ColumnarRelation.from_rows((X, Y), const_rows(rows)),
            ColumnarRelation.from_rows((X,), const_rows([(1,), ("x",)])),
            ColumnarRelation.from_rows((Y,), const_rows([("one",), (3,)])),
        ]
        order = variable_order([rel.schema for rel in relations])
        got = {
            tuple(c.value for c in row)
            for row in leapfrog_rows(order, relations)
        }
        reorder = [(X, Y).index(v) for v in order]
        assert got == {
            tuple(row[i] for i in reorder)
            for row in [(1, "one"), ("x", 3)]
        }


def triangle_store(n=6):
    """A dense-ish directed graph in r, plus markers."""
    store = FactStore()
    for i in range(n):
        for j in range(n):
            if i != j and (i + j) % 3 != 0:
                store.add(atom("r", f"v{i}", f"v{j}"))
    store.add(atom("q", "v0"))
    return store


def triangle_literals():
    return [
        Literal(Atom("r", (X, Y))),
        Literal(Atom("r", (Y, Z))),
        Literal(Atom("r", (X, Z))),
    ]


def rows_of(runner):
    out = set()
    for schema, rows in runner:
        for row in rows:
            out.add(
                frozenset(
                    (variable.name, str(value))
                    for variable, value in zip(schema, row)
                )
            )
    return out


class TestDispatcherCounters:
    """Eligibility pinned through the registry counters: a triangle
    or clique body under ``wcoj`` never falls back; a negated body
    never runs the leapfrog."""

    def join(self, literals, store, algo):
        return rows_of(
            join_literals_rows(
                literals,
                Substitution.empty(),
                probe_from_source(store),
                store.contains,
                config=EngineConfig(join_algo=algo),
            )
        )

    def test_triangle_runs_wcoj_without_fallback(self):
        store = triangle_store()
        joins0, falls0 = wcoj_counts()
        wcoj = self.join(triangle_literals(), store, "wcoj")
        joins1, falls1 = wcoj_counts()
        assert joins1 == joins0 + 1
        assert falls1 == falls0  # pinned: no fallback on the triangle
        assert wcoj == self.join(triangle_literals(), store, "hash")

    def test_clique_runs_wcoj_without_fallback(self):
        store = triangle_store()
        clique = [
            Literal(Atom("r", pair))
            for pair in [(W, X), (W, Y), (W, Z), (X, Y), (X, Z), (Y, Z)]
        ]
        joins0, falls0 = wcoj_counts()
        wcoj = self.join(clique, store, "wcoj")
        joins1, falls1 = wcoj_counts()
        assert (joins1, falls1) == (joins0 + 1, falls0)
        assert wcoj == self.join(clique, store, "hash")

    def test_negative_literal_forces_fallback(self):
        store = triangle_store()
        literals = triangle_literals() + [
            Literal(Atom("q", (X,)), positive=False)
        ]
        joins0, falls0 = wcoj_counts()
        wcoj = self.join(literals, store, "wcoj")
        joins1, falls1 = wcoj_counts()
        assert joins1 == joins0  # pinned: the leapfrog never ran
        assert falls1 == falls0 + 1
        assert wcoj == self.join(literals, store, "hash")

    def test_two_literal_body_falls_back(self):
        store = triangle_store()
        literals = triangle_literals()[:2]
        joins0, falls0 = wcoj_counts()
        self.join(literals, store, "wcoj")
        joins1, falls1 = wcoj_counts()
        assert (joins1, falls1) == (joins0, falls0 + 1)

    def test_auto_takes_triangle_but_not_star(self):
        store = triangle_store()
        joins0, falls0 = wcoj_counts()
        self.join(triangle_literals(), store, "auto")
        joins1, falls1 = wcoj_counts()
        assert (joins1, falls1) == (joins0 + 1, falls0)
        star = [
            Literal(Atom("r", (X, Y))),
            Literal(Atom("r", (X, Z))),
            Literal(Atom("r", (X, W))),
        ]
        self.join(star, store, "auto")
        joins2, falls2 = wcoj_counts()
        # auto choosing hash for an acyclic body is a plan, not a
        # fallback: neither counter moves.
        assert (joins2, falls2) == (joins1, falls1)

    def test_hash_never_dispatches(self):
        store = triangle_store()
        joins0, falls0 = wcoj_counts()
        self.join(triangle_literals(), store, "hash")
        assert wcoj_counts() == (joins0, falls0)

    def test_repeated_variable_atom_agrees(self):
        store = triangle_store()
        store.add(atom("r", "v1", "v1"))
        store.add(atom("r", "v4", "v4"))
        literals = [
            Literal(Atom("r", (X, X))),
            Literal(Atom("r", (X, Y))),
            Literal(Atom("r", (Y, X))),
        ]
        assert self.join(literals, store, "wcoj") == self.join(
            literals, store, "hash"
        )


TRIANGLE_PROGRAM = [
    "tri(X, Y, Z) :- r(X, Y), r(Y, Z), r(X, Z)",
    # Recursive consumer of the triangle relation: its delta rounds
    # seed the eligible body mid-saturation.
    "reach(X, Y) :- tri(X, Y, Z)",
    "reach(X, Z) :- reach(X, Y), r(Y, Z), r(X, Z)",
]


class TestDeltaSeeding:
    """Semi-naive rounds seed the leapfrog from the delta relation;
    the fixpoint must equal the hash pipeline's."""

    def models(self, algo):
        from repro.datalog.bottomup import compute_model

        program = Program(
            [Rule.from_parsed(parse_rule(t)) for t in TRIANGLE_PROGRAM]
        )
        # The leapfrog is a batch-kernel path: pin exec_mode so the
        # counter assertions hold under the tuple CI leg too.
        return frozenset(
            compute_model(
                triangle_store(), program,
                config=EngineConfig(exec_mode="batch", join_algo=algo),
            )
        )

    def test_fixpoints_agree_across_kernels(self):
        hash_model = self.models("hash")
        assert self.models("wcoj") == hash_model
        assert self.models("auto") == hash_model
        assert any(fact.pred == "reach" for fact in hash_model)

    def test_recursive_rounds_run_the_leapfrog(self):
        joins0, _ = wcoj_counts()
        self.models("wcoj")
        joins1, _ = wcoj_counts()
        # Round zero of each eligible rule plus at least one seeded
        # differential round.
        assert joins1 - joins0 >= 3


class TestJoinAlgoSeamValidation:
    """Unknown join algorithms fail with one line naming the choices
    when the config is built — no seam ever sees one, so none can
    silently run the wrong kernel."""

    def test_engine_config_validates_join_algo(self):
        for algo in JOIN_ALGOS:
            assert EngineConfig(join_algo=algo).join_algo == algo
        with pytest.raises(ValueError, match="unknown join algo"):
            EngineConfig(join_algo="leapfrog")

    def test_join_literals_rows_rejects_unknown_algo(self):
        store = triangle_store()
        with pytest.raises(ValueError, match="unknown join algo"):
            list(
                join_literals_rows(
                    triangle_literals(),
                    Substitution.empty(),
                    probe_from_source(store),
                    store.contains,
                    config=EngineConfig(join_algo="bogus"),
                )
            )

    def test_join_body_rejects_unknown_algo(self):
        store = triangle_store()
        with pytest.raises(ValueError, match="unknown join algo"):
            join_body(
                triangle_literals(),
                Substitution.empty(),
                lambda index, pattern: store.match_substitutions(pattern),
                store.contains,
                config=EngineConfig(join_algo="bogus"),
            )

    def test_engine_config_rejects_unknown_algo(self):
        with pytest.raises(ValueError, match="unknown join algo"):
            EngineConfig(join_algo="bogus")

    def test_compute_model_rejects_unknown_algo(self):
        from repro.datalog.bottomup import compute_model

        with pytest.raises(ValueError, match="unknown join algo"):
            compute_model(
                FactStore(),
                Program(),
                config=EngineConfig(join_algo="bogus"),
            )

    def test_evaluate_stratum_rejects_unknown_algo(self):
        from repro.datalog.bottomup import evaluate_stratum

        with pytest.raises(ValueError, match="unknown join algo"):
            evaluate_stratum(
                FactStore(),
                [],
                set(),
                config=EngineConfig(join_algo="bogus"),
            )

    def test_maintained_model_rejects_unknown_algo(self):
        from repro.datalog.incremental import MaintainedModel

        with pytest.raises(ValueError, match="unknown join algo"):
            MaintainedModel(
                FactStore(),
                Program(),
                config=EngineConfig(join_algo="bogus"),
            )
        with pytest.raises(ValueError, match="unknown join algo"):
            MaintainedModel.from_snapshot(
                FactStore(),
                Program(),
                FactStore(),
                config=EngineConfig(join_algo="bogus"),
            )

    def test_engine_rejects_unknown_algo(self):
        db = DeductiveDatabase(FactStore())
        with pytest.raises(ValueError, match="unknown join algo"):
            db.engine(config=EngineConfig(join_algo="bogus"))
        # The loose spelling is gone, not silently ignored.
        with pytest.raises(TypeError):
            db.engine(join_algo="bogus")

    def test_cli_rejects_unknown_algo(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["model", "nosuch.dl", "--join-algo", "bogus"]
            )
        assert excinfo.value.code == 2
        assert "--join-algo" in capsys.readouterr().err

    def test_cli_accepts_every_algo(self):
        from repro.cli import build_parser

        for algo in JOIN_ALGOS:
            args = build_parser().parse_args(
                ["model", "nosuch.dl", "--join-algo", algo]
            )
            assert args.join_algo == algo


class TestEngineConfigJoinAlgo:
    def test_key_includes_join_algo(self):
        assert (
            EngineConfig(join_algo="wcoj").key()
            != EngineConfig(join_algo="hash").key()
        )

    def test_default_is_valid(self):
        assert EngineConfig().join_algo in JOIN_ALGOS


class TestEndToEndAgreement:
    def test_query_engine_agrees_on_triangles(self):
        db = DeductiveDatabase(triangle_store())
        db.add_rule(TRIANGLE_PROGRAM[0])
        answers = {}
        for algo in JOIN_ALGOS:
            engine = db.engine(config=EngineConfig(join_algo=algo))
            answers[algo] = {
                frozenset((v.name, str(t)) for v, t in s.items())
                for s in engine.match_atom(Atom("tri", (X, Y, Z)))
            }
        assert answers["auto"] == answers["wcoj"] == answers["hash"]
        assert answers["hash"]
