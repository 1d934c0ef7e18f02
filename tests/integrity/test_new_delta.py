"""Unit tests for the ``new`` and ``delta`` meta-interpreters.

``new(U, F)`` is evaluation over the overlay database
``db.updated(U).engine()``."""


from repro.datalog.database import DeductiveDatabase
from repro.integrity.delta_eval import DeltaEvaluator
from repro.logic.normalize import normalize_constraint
from repro.logic.parser import parse_fact, parse_formula, parse_literal


def db_from(text):
    return DeductiveDatabase.from_source(text)


class TestNewEvaluator:
    def test_insertion_visible(self):
        db = db_from("p(a).")
        new = db.updated(parse_literal("p(b)")).engine()
        assert new.holds(parse_fact("p(b)"))
        assert not db.holds("p(b)")

    def test_deletion_invisible(self):
        db = db_from("p(a).")
        new = db.updated(parse_literal("not p(a)")).engine()
        assert not new.holds(parse_fact("p(a)"))
        assert db.holds("p(a)")

    def test_derived_consequences(self):
        db = db_from("member(X, Y) :- leads(X, Y).")
        new = db.updated(parse_literal("leads(ann, sales)")).engine()
        assert new.holds(parse_fact("member(ann, sales)"))

    def test_recursive_consequences(self):
        db = db_from(
            """
            par(a, b). par(b, c).
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- par(X, Z), anc(Z, Y).
            """
        )
        new = db.updated(parse_literal("par(c, d)")).engine()
        assert new.holds(parse_fact("anc(a, d)"))
        assert not db.holds("anc(a, d)")

    def test_formula_evaluation(self):
        db = db_from("student(jack).")
        new = db.updated(parse_literal("attends(jack, ddb)")).engine()
        formula = normalize_constraint(
            parse_formula("forall X: student(X) -> attends(X, ddb)")
        )
        assert new.evaluate(formula)

    def test_transaction_evaluation(self):
        db = db_from("p(a). q(a).")
        new = db.updated(
            [parse_literal("not p(a)"), parse_literal("p(b)")]
        ).engine()
        assert not new.holds(parse_fact("p(a)"))
        assert new.holds(parse_fact("p(b)"))
        assert new.holds(parse_fact("q(a)"))


class TestDeltaBaseCases:
    def test_effective_insertion(self):
        db = db_from("p(a).")
        delta = DeltaEvaluator(db, parse_literal("p(b)"))
        assert delta.induced_updates() == [parse_literal("p(b)")]

    def test_ineffective_insertion(self):
        db = db_from("p(a).")
        delta = DeltaEvaluator(db, parse_literal("p(a)"))
        assert delta.induced_updates() == []

    def test_insertion_of_already_derivable_fact(self):
        # p(a) derivable via a rule: explicitly inserting it changes
        # nothing at the canonical-model level.
        db = db_from("base(a). p(X) :- base(X).")
        delta = DeltaEvaluator(db, parse_literal("p(a)"))
        assert delta.induced_updates() == []

    def test_effective_deletion(self):
        db = db_from("p(a).")
        delta = DeltaEvaluator(db, parse_literal("not p(a)"))
        assert delta.induced_updates() == [parse_literal("not p(a)")]

    def test_ineffective_deletion(self):
        db = db_from("p(a).")
        delta = DeltaEvaluator(db, parse_literal("not p(b)"))
        assert delta.induced_updates() == []

    def test_deletion_of_rederivable_fact(self):
        # Deleting the explicit p(a) while a rule still derives it: no
        # truth change.
        db = db_from("p(a). base(a). p(X) :- base(X).")
        delta = DeltaEvaluator(db, parse_literal("not p(a)"))
        assert delta.induced_updates() == []


class TestDeltaPropagation:
    def test_single_step_insertion(self):
        db = db_from("member(X, Y) :- leads(X, Y).")
        delta = DeltaEvaluator(db, parse_literal("leads(ann, sales)"))
        induced = set(delta.induced_updates())
        assert parse_literal("member(ann, sales)") in induced

    def test_join_rule_needs_partner_facts(self):
        db = db_from("r(X) :- q(X, Y), p(Y, Z).")
        delta = DeltaEvaluator(db, parse_literal("p(a, b)"))
        # No q facts: r is a potential but not an actual induced update.
        assert set(delta.induced_updates()) == {parse_literal("p(a, b)")}

    def test_join_rule_with_partner_facts(self):
        db = db_from("q(k, a). r(X) :- q(X, Y), p(Y, Z).")
        delta = DeltaEvaluator(db, parse_literal("p(a, b)"))
        assert parse_literal("r(k)") in set(delta.induced_updates())

    def test_already_true_head_not_induced(self):
        db = db_from(
            "q(k, a). q(k, c). p(c, d). r(X) :- q(X, Y), p(Y, Z)."
        )
        # r(k) already derivable via q(k,c), p(c,d).
        delta = DeltaEvaluator(db, parse_literal("p(a, b)"))
        assert parse_literal("r(k)") not in set(delta.induced_updates())

    def test_recursive_propagation(self):
        db = db_from(
            """
            par(a, b). par(b, c).
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- par(X, Z), anc(Z, Y).
            """
        )
        delta = DeltaEvaluator(db, parse_literal("par(c, d)"))
        induced = set(delta.induced_updates())
        assert parse_literal("anc(c, d)") in induced
        assert parse_literal("anc(b, d)") in induced
        assert parse_literal("anc(a, d)") in induced

    def test_deletion_cascades(self):
        db = db_from(
            "leads(ann, sales). member(X, Y) :- leads(X, Y)."
        )
        delta = DeltaEvaluator(db, parse_literal("not leads(ann, sales)"))
        assert parse_literal("not member(ann, sales)") in set(
            delta.induced_updates()
        )

    def test_negation_flip_insertion_retracts(self):
        db = db_from(
            """
            employee(a). assigned(a, p1).
            idle(X) :- employee(X), not busy(X).
            busy(X) :- assigned(X, Y), active(Y).
            """
        )
        # Activating p1 makes a busy, retracting idle(a).
        delta = DeltaEvaluator(db, parse_literal("active(p1)"))
        induced = set(delta.induced_updates())
        assert parse_literal("busy(a)") in induced
        assert parse_literal("not idle(a)") in induced

    def test_negation_flip_deletion_asserts(self):
        db = db_from(
            """
            employee(a). assigned(a, p1). active(p1).
            idle(X) :- employee(X), not busy(X).
            busy(X) :- assigned(X, Y), active(Y).
            """
        )
        delta = DeltaEvaluator(db, parse_literal("not active(p1)"))
        induced = set(delta.induced_updates())
        assert parse_literal("not busy(a)") in induced
        assert parse_literal("idle(a)") in induced

    def test_answers_pattern_matching(self):
        db = db_from("member(X, Y) :- leads(X, Y).")
        delta = DeltaEvaluator(db, parse_literal("leads(ann, sales)"))
        from repro.logic.parser import parse_atom
        from repro.logic.formulas import Literal
        pattern = Literal(parse_atom("member(W1, W2)"), True)
        answers = list(delta.answers(pattern))
        assert len(answers) == 1

    def test_holds_ground(self):
        db = db_from("member(X, Y) :- leads(X, Y).")
        delta = DeltaEvaluator(db, parse_literal("leads(ann, sales)"))
        assert delta.holds(parse_literal("member(ann, sales)"))
        assert not delta.holds(parse_literal("member(bob, sales)"))


class TestPaperDeltaGap:
    """The counterexample to the paper's Prolog delta (which evaluates
    the rest of a deletion candidate's body in the *new* state): with
        q(X) :- p(X)        b(X) :- p(X), q(X)
    deleting p(a) flips both body literals of b's only derivation, so a
    new-state rest evaluation finds no support along either dependency
    edge. Our old-state evaluation for deletions (delete–re-derive)
    catches it."""

    def test_two_literal_flip_deletion_found(self):
        db = db_from(
            """
            p(a).
            q(X) :- p(X).
            b(X) :- p(X), q(X).
            """
        )
        delta = DeltaEvaluator(db, parse_literal("not p(a)"))
        induced = set(delta.induced_updates())
        assert parse_literal("not q(a)") in induced
        assert parse_literal("not b(a)") in induced


class TestRestrictedPropagation:
    def test_restriction_prunes_unreachable_results(self):
        db = db_from(
            """
            q(k, a).
            r(X) :- q(X, Y), p(Y, Z).
            s(X) :- p(X, Y).
            """
        )
        # Only demand s-insertions: the r branch must not be explored.
        delta = DeltaEvaluator(
            db,
            parse_literal("p(a, b)"),
            restrict_to={("s", True), ("p", True)},
        )
        induced = set(delta.induced_updates())
        assert parse_literal("s(a)") in induced
        assert all(l.atom.pred != "r" for l in induced)

    def test_restriction_keeps_transit_nodes(self):
        db = db_from(
            """
            a(k).
            b(X) :- a(X).
            c(X) :- b(X).
            """
        )
        index_free = DeltaEvaluator(
            db,
            parse_literal("a(m)"),
            restrict_to={("a", True), ("b", True), ("c", True)},
        )
        assert parse_literal("c(m)") in set(index_free.induced_updates())
