"""Unit tests for the trail-backed sample database."""

from repro.logic.normalize import normalize_constraint
from repro.logic.parser import parse_fact, parse_formula
from repro.satisfiability.sample_db import SampleDatabase


class TestTrail:
    def test_assume_and_undo(self):
        sample = SampleDatabase()
        mark = sample.mark()
        assert sample.assume(parse_fact("p(a)"), 0)
        assert sample.holds(parse_fact("p(a)"))
        sample.undo_to(mark)
        assert not sample.holds(parse_fact("p(a)"))
        assert len(sample) == 0

    def test_duplicate_assume_not_trailed(self):
        sample = SampleDatabase()
        sample.assume(parse_fact("p(a)"), 0)
        mark = sample.mark()
        assert not sample.assume(parse_fact("p(a)"), 1)
        sample.undo_to(mark)
        # The original assertion survives — only the no-op was undone.
        assert sample.holds(parse_fact("p(a)"))

    def test_nested_marks(self):
        sample = SampleDatabase()
        sample.assume(parse_fact("p(a)"), 0)
        outer = sample.mark()
        sample.assume(parse_fact("p(b)"), 1)
        inner = sample.mark()
        sample.assume(parse_fact("p(c)"), 2)
        sample.undo_to(inner)
        assert sample.holds(parse_fact("p(b)"))
        assert not sample.holds(parse_fact("p(c)"))
        sample.undo_to(outer)
        assert sample.holds(parse_fact("p(a)"))
        assert len(sample) == 1

    def test_generation_levels(self):
        sample = SampleDatabase()
        sample.assume(parse_fact("p(a)"), 0)
        sample.assume(parse_fact("p(b)"), 1)
        sample.assume(parse_fact("q(a)"), 1)
        assert sample.generated_at(0) == [parse_fact("p(a)")]
        assert set(sample.generated_at(1)) == {
            parse_fact("p(b)"),
            parse_fact("q(a)"),
        }

    def test_generation_cleared_on_undo(self):
        sample = SampleDatabase()
        mark = sample.mark()
        sample.assume(parse_fact("p(a)"), 3)
        sample.undo_to(mark)
        assert sample.generated_at(3) == []


class TestEvaluation:
    def test_formula_evaluation_tracks_live_store(self):
        sample = SampleDatabase()
        formula = normalize_constraint(parse_formula("exists X: p(X)"))
        assert not sample.evaluate(formula)
        sample.assume(parse_fact("p(a)"), 0)
        assert sample.evaluate(formula)
        sample.undo_to(0)
        assert not sample.evaluate(formula)

    def test_universals_hold_on_empty(self):
        # Section 4: every universal formula is satisfied in an empty
        # database.
        sample = SampleDatabase()
        formula = normalize_constraint(
            parse_formula("forall X: p(X) -> q(X)")
        )
        assert sample.evaluate(formula)

    def test_snapshot_is_independent(self):
        sample = SampleDatabase()
        sample.assume(parse_fact("p(a)"), 0)
        snap = sample.model_snapshot()
        sample.undo_to(0)
        assert snap.contains(parse_fact("p(a)"))
