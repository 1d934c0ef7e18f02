"""Repeated reads of the committed state across commits and constraint
DDL: every ``query``/``holds`` answers from the state it is made
against, whatever was read before it. A commit touching predicate ``p``
changes only ``p``-dependent answers, and constraint DDL changes none.

The names date from the result cache that once stood in front of these
reads; the tests now pin the values any such layer must keep right."""

import repro

SOURCE = """
p(a).
q(b).
dp(X) :- p(X).
dq(X) :- q(X).
"""

F_P = "exists X: dp(X)"
F_Q = "exists X: dq(X)"
CLOSED = "forall X: dp(X) -> p(X)"


def make_db():
    return repro.open(source=SOURCE)


class TestPreciseInvalidation:
    def test_commit_evicts_only_dependent_entries(self):
        db = make_db()
        assert db.query(F_P) is True
        assert db.query(F_Q) is True
        assert db.holds("dp(c)") is False
        assert db.submit("p(c)").status == "committed"
        assert db.query(F_Q) is True
        assert db.query(F_P) is True
        assert db.holds("dp(c)") is True

    def test_commit_to_unrelated_predicate_leaves_cache_warm(self):
        db = make_db()
        assert db.query(F_P) is True
        assert db.holds("dp(a)") is True
        assert db.holds("r(z)") is False
        assert db.submit("r(z)").status == "committed"
        assert db.query(F_P) is True
        assert db.holds("dp(a)") is True
        assert db.holds("r(z)") is True

    def test_holds_entries_are_atom_precise(self):
        db = make_db()
        assert db.holds("dp(a)") is True
        assert db.holds("dq(b)") is True
        # Inserting p(c) derives dp(c); dp(a) and dq(b) keep their value.
        assert db.submit("p(c)").status == "committed"
        assert db.holds("dp(a)") is True
        assert db.holds("dq(b)") is True
        assert db.holds("dp(c)") is True
        # Deleting p(a) flips dp(a) itself and nothing of the q lineage.
        assert db.submit("not p(a)").status == "committed"
        assert db.holds("dp(a)") is False
        assert db.holds("dq(b)") is True
        assert db.holds("dp(c)") is True

    def test_formula_entries_are_predicate_precise(self):
        db = make_db()
        assert db.query(CLOSED) is True
        # A p-lineage change the formula's witnesses never touched.
        assert db.submit("p(zzz)").status == "committed"
        assert db.query(CLOSED) is True
        assert db.holds("dp(zzz)") is True
        assert db.query(CLOSED) is True
        # One that empties dp: the existential flips with it.
        assert db.submit(["not p(a)", "not p(zzz)"]).status == "committed"
        assert db.query(F_P) is False
        assert db.query(CLOSED) is True


class TestCacheBoundaries:
    def test_constraint_ddl_leaves_cache_warm(self):
        db = make_db()
        assert db.query(F_P) is True
        result = db.add_constraint(CLOSED)
        assert result.status == "committed"
        # Constraint DDL changes what is checked, not what is true.
        assert db.query(F_P) is True
        assert db.holds("dp(a)") is True
        assert db.query(CLOSED) is True
