"""Integration tests for the integrity checking methods.

The central invariant (Propositions 1–3): on databases whose
constraints hold, every method must agree with the full check.
"""

import pytest

from repro.datalog.database import DeductiveDatabase
from repro.integrity import checker as checker_module
from repro.integrity.checker import IntegrityChecker
from repro.integrity.transactions import Transaction
from repro.logic.parser import parse_literal

UNIVERSITY = """
student(jack).
student(jill).
attends(jack, ddb).
attends(jill, ddb).
enrolled(X, cs) :- student(X).

forall X: student(X) -> (not enrolled(X, cs)) or attends(X, ddb).
"""
# The constraint is the paper's Ci' from Section 3.2:
#   ∀X ¬student(X) ∨ ¬enrolled(X, cs) ∨ attends(X, ddb)


def make_checker(source):
    db = DeductiveDatabase.from_source(source)
    return db, IntegrityChecker(db)


ALL_METHODS = ["check_full", "check_bdm", "check_interleaved", "check_lloyd"]
DEDUCTIVE_METHODS = ["check_bdm", "check_interleaved", "check_lloyd"]


class TestRelationalAgreement:
    SOURCE = """
    p(a). q(a). p(b). q(b).
    forall X: p(X) -> q(X).
    exists X: p(X).
    """

    @pytest.mark.parametrize(
        "method", ALL_METHODS + ["check_nicolas"]
    )
    @pytest.mark.parametrize(
        "update, expected_ok",
        [
            ("p(c)", False),   # p(c) without q(c)
            ("p(a)", True),    # no-op insert
            ("q(c)", True),    # irrelevant direction
            ("not q(a)", False),  # breaks p(a) -> q(a)
            ("not q(c)", True),   # no-op delete
            ("not p(b)", True),   # deleting antecedent is safe
        ],
    )
    def test_methods_agree(self, method, update, expected_ok):
        db, checker = make_checker(self.SOURCE)
        result = getattr(checker, method)(update)
        assert result.ok is expected_ok, f"{method} on {update}: {result}"

    def test_existential_deletion_detected(self):
        db, checker = make_checker("p(a). exists X: p(X).")
        for method in ALL_METHODS + ["check_nicolas"]:
            result = getattr(checker, method)("not p(a)")
            assert not result.ok, method


class TestDeductiveAgreement:
    @pytest.mark.parametrize("method", DEDUCTIVE_METHODS)
    @pytest.mark.parametrize(
        "update, expected_ok",
        [
            # student(joe): induced enrolled(joe, cs); joe misses ddb.
            ("student(joe)", False),
            # jack-like student who attends would be fine — simulate by
            # a transaction below; single inserts of attends are safe.
            ("attends(jill, logic)", True),
            # Deleting attends(jack, ddb) violates via derived enrolled.
            ("not attends(jack, ddb)", False),
            ("not student(jack)", True),
        ],
    )
    def test_methods_agree(self, method, update, expected_ok):
        db, checker = make_checker(UNIVERSITY)
        result = getattr(checker, method)(update)
        assert result.ok is expected_ok, f"{method} on {update}: {result}"

    def test_nicolas_misses_induced_violation(self):
        # Ablation: Proposition 1 alone is incomplete in deductive
        # databases. The constraint below mentions only the *derived*
        # relation, so the relational method sees no relevant constraint
        # for the base update and misses the induced violation.
        source = """
        enrolled(X, cs) :- student(X).
        forall X: enrolled(X, cs) -> attends(X, ddb).
        """
        db, checker = make_checker(source)
        nicolas = checker.check_nicolas("student(joe)")
        full = checker.check_full("student(joe)")
        bdm = checker.check_bdm("student(joe)")
        assert nicolas.ok
        assert not full.ok
        assert not bdm.ok

    def test_transaction_fixes_violation(self):
        db, checker = make_checker(UNIVERSITY)
        transaction = Transaction(["student(joe)", "attends(joe, ddb)"])
        for method in DEDUCTIVE_METHODS + ["check_full"]:
            result = getattr(checker, method)(transaction)
            assert result.ok, method

    def test_recursive_rules_supported(self):
        source = """
        par(a, b). par(b, c).
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- par(X, Z), anc(Z, Y).
        forall X, Y: anc(X, Y) -> not evil(Y).
        """
        db, checker = make_checker(source)
        db.apply_update("evil(d)")
        # Linking d under c makes anc(a, d) true — violating via the
        # recursively induced updates.
        for method in DEDUCTIVE_METHODS + ["check_full"]:
            result = getattr(checker, method)("par(c, d)")
            assert not result.ok, method

    def test_deletion_cascade_detected(self):
        source = """
        leads(ann, sales). department(sales). employee(ann).
        member(X, Y) :- leads(X, Y).
        forall X: employee(X) -> exists Y: member(X, Y).
        """
        db, checker = make_checker(source)
        for method in DEDUCTIVE_METHODS + ["check_full"]:
            result = getattr(checker, method)("not leads(ann, sales)")
            assert not result.ok, method


class TestPaperSection32Scenario:
    """The student/enrolled/attends walk-through of Section 3.2."""

    SOURCE = """
    attends(jack, ddb).
    enrolled(X, cs) :- student(X).
    forall X: student(X) -> (not enrolled(X, cs)) or attends(X, ddb).
    """

    def test_update_studentjack_satisfied(self):
        db, checker = make_checker(self.SOURCE)
        result = checker.check_bdm("student(jack)")
        assert result.ok

    def test_update_studentjoe_violated(self):
        db, checker = make_checker(self.SOURCE)
        result = checker.check_bdm("student(joe)")
        assert not result.ok
        assert result.violations[0].constraint_id == "c1"

    def test_two_simplified_instances_arise(self):
        # S1 (from student(jack)) and S2 (from induced enrolled(jack,cs))
        # both guard the check; the shared subquery attends(jack, ddb)
        # is deduplicated by the shared-evaluation engine.
        db, checker = make_checker(self.SOURCE)
        compiled = checker.compile([parse_literal("student(jack)")])
        assert len(compiled.update_constraints) == 2

    def test_update_constraint_free_of_fact_access(self):
        # Compilation must succeed on an empty fact base.
        db = DeductiveDatabase.from_source(
            """
            enrolled(X, cs) :- student(X).
            forall X: student(X) -> (not enrolled(X, cs)) or attends(X, ddb).
            """
        )
        checker = IntegrityChecker(db)
        compiled = checker.compile([parse_literal("student(jack)")])
        assert len(compiled.potential) >= 2  # student(jack), enrolled(jack, cs)


class TestZeroFactAccess:
    def test_unconstrained_predicate_no_lookups(self):
        # Section 3.2, first drawback: update p(a,b) under rule
        # r(X) :- q(X, Y), p(Y, Z) with r unconstrained must not touch
        # the facts at all under the two-phase method.
        source = """
        q(k1, a). q(k2, a). q(k3, a).
        r(X) :- q(X, Y), p(Y, Z).
        forall X: s(X) -> t(X).
        """
        db, checker = make_checker(source)
        result = checker.check_bdm("p(a, b)")
        assert result.ok
        assert result.stats["update_constraints"] == 0
        assert result.stats["lookups"] == 0

    def test_interleaved_pays_for_irrelevant_induced_updates(self):
        source = """
        q(k1, a). q(k2, a). q(k3, a).
        r(X) :- q(X, Y), p(Y, Z).
        forall X: s(X) -> t(X).
        """
        db, checker = make_checker(source)
        bdm = checker.check_bdm("p(a, b)")
        interleaved = checker.check_interleaved("p(a, b)")
        assert interleaved.ok
        # The interleaved method computed the r-updates; bdm did not.
        assert interleaved.stats["induced_updates"] > 0
        assert bdm.stats["induced_updates"] == 0
        assert interleaved.stats["lookups"] > bdm.stats["lookups"]


class TestPerCheckAccounting:
    def test_repeated_identical_checks_report_identical_stats(self):
        # The old-state engine is cached on the database and shared by
        # every check; its lookups are counted per check, not summed
        # over the engine's lifetime.
        db, checker = make_checker(UNIVERSITY)
        first = checker.check("student(jim)")
        assert first.stats["lookups"] > 0
        for _ in range(3):
            assert checker.check("student(jim)").stats == first.stats

    def test_interleaved_stats_are_per_check_too(self):
        db, checker = make_checker(UNIVERSITY)
        first = checker.check_interleaved("student(jim)")
        assert checker.check_interleaved("student(jim)").stats == first.stats


class TestLloydCost:
    def test_lloyd_enumerates_unchanged_instances(self):
        # The rule head has a join variable, so the potential update
        # r(X) stays open. 20 pre-existing r facts: the new-guard
        # enumerates all 21, the delta guard only the 1 changed one.
        facts = "\n".join(
            f"q(k{i}, c). ok(k{i})." for i in range(20)
        )
        source = f"""
        {facts}
        p(c, d). q(k99, a). ok(k99).
        r(X) :- q(X, Y), p(Y, Z).
        forall X: r(X) -> ok(X).
        """
        db, checker = make_checker(source)
        bdm = checker.check_bdm("p(a, b)")
        lloyd = checker.check_lloyd("p(a, b)")
        assert bdm.ok and lloyd.ok
        assert lloyd.stats["guard_answers"] >= 21
        assert bdm.stats["instances_evaluated"] == 1

    def test_lloyd_negative_trigger_degenerates_to_recheck(self):
        source = """
        c(a, b). b(a).
        member(X, Y) :- leads(X, Y).
        forall X, Y: c(X, Y) -> b(X).
        """
        db, checker = make_checker(source)
        lloyd = checker.check_lloyd("not b(a)")
        full = checker.check_full("not b(a)")
        assert lloyd.ok is full.ok is False


class TestTransactions:
    def test_net_effect_cancellation(self):
        db, checker = make_checker("p(a). forall X: p(X) -> q(X).")
        # Insert then delete p(c): net no-op.
        result = checker.check_bdm(Transaction(["p(c)", "not p(c)"]))
        assert result.ok

    def test_delete_then_insert(self):
        db, checker = make_checker(
            "p(a). q(a). forall X: p(X) -> q(X). exists X: p(X)."
        )
        result = checker.check_bdm(Transaction(["not p(a)", "p(a)"]))
        assert result.ok

    def test_compound_transaction_violation(self):
        db, checker = make_checker(
            "p(a). q(a). forall X: p(X) -> q(X)."
        )
        result = checker.check_bdm(Transaction(["p(b)", "q(b)", "p(c)"]))
        assert not result.ok

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_methods_agree_on_transactions(self, method):
        db, checker = make_checker(UNIVERSITY)
        transaction = Transaction(
            ["student(joe)", "attends(joe, ddb)", "not attends(jill, ddb)"]
        )
        result = getattr(checker, method)(transaction)
        # jill is a student, enrolled via the rule, loses ddb: violation.
        assert not result.ok, method


class TestCheckResultApi:
    def test_result_truthiness(self):
        db, checker = make_checker("p(a). forall X: p(X) -> q(X).")
        assert not checker.check_bdm("p(b)")
        assert checker.check_bdm("q(b)")

    def test_violated_constraint_ids(self):
        db, checker = make_checker(
            "forall X: p(X) -> q(X). forall X: p(X) -> r(X)."
        )
        result = checker.check_bdm("p(a)")
        assert result.violated_constraint_ids() == {"c1", "c2"}

    def test_check_alias(self):
        db, checker = make_checker("forall X: p(X) -> q(X).")
        assert checker.check("p(a)").ok is checker.check_bdm("p(a)").ok

    def test_nonground_update_rejected(self):
        db, checker = make_checker("forall X: p(X) -> q(X).")
        with pytest.raises(ValueError):
            checker.check_bdm(parse_literal("p(X)"))


class TestPreparedChecks:
    """``check_bdm`` compiles each update signature once, on its most
    general pattern, and builds every transaction's check from that."""

    SOURCE = """
    employee(e0). dept(d0). works_in(e0, d0).
    member(E, D) :- works_in(E, D).
    member(E, D) :- leads(E, D).
    forall E, D: member(E, D) -> employee(E).
    forall E, D: works_in(E, D) -> dept(D).
    """

    def test_one_compile_per_signature(self, monkeypatch):
        compiled = []
        real = checker_module.compile_update_constraints

        def counting(program, constraints, updates, **kwargs):
            compiled.extend(updates)
            return real(program, constraints, updates, **kwargs)

        monkeypatch.setattr(
            checker_module, "compile_update_constraints", counting
        )
        db, checker = make_checker(self.SOURCE)
        for i in range(50):
            # Every other run names a department that does not exist.
            dept = "d0" if i % 2 == 0 else f"x{i}"
            result = checker.check_bdm(
                [f"employee(e{i + 1})", f"works_in(e{i + 1}, {dept})"]
            )
            assert result.ok is (i % 2 == 0)
        assert [(str(l.atom), l.positive) for l in compiled] == [
            ("employee(_U0)", True),
            ("works_in(_U0, _U1)", True),
        ]

    def test_potential_update_from_two_signatures_kept_once(self):
        db, checker = make_checker(self.SOURCE)
        both = checker.check_bdm(["works_in(e9, d0)", "leads(e9, d0)"])
        works = checker.check_bdm(["works_in(e9, d0)"])
        assert both.violated_constraint_ids() == {"c1"}
        assert len(both.violations) == 1
        # leads adds its own potential update, but reaches member only
        # as works_in already did.
        assert both.stats["potential_updates"] == 3
        assert works.stats["potential_updates"] == 2
        assert both.stats["update_constraints"] == (
            works.stats["update_constraints"]
        )

    def test_shared_residual_reported_for_each_constraint(self):
        # Both constraints simplify to ``false``: the one instance is
        # evaluated once, and each constraint is reported violated.
        db, checker = make_checker(
            """
            q(X) :- p(X), marked(X).
            forall X: p(X) -> false.
            forall X: q(X) -> false.
            """
        )
        result = checker.check_bdm(["marked(a)", "p(a)"])
        assert result.violated_constraint_ids() == {"c1", "c2"}
        assert result.stats["instances_evaluated"] == 1

    @pytest.mark.parametrize(
        "method, lookups", [("interleaved", 6), ("lloyd", 2)]
    )
    def test_baselines_report_shared_residual_for_each_constraint(
        self, method, lookups
    ):
        # The same witness through the induced update q(a): the shared
        # residual is evaluated once and reported for both constraints.
        db, checker = make_checker(
            """
            q(X) :- p(X), marked(X).
            forall X: p(X) -> false.
            forall X: q(X) -> false.
            """
        )
        result = getattr(checker, f"check_{method}")(["marked(a)", "p(a)"])
        assert result.violated_constraint_ids() == {"c1", "c2"}
        assert result.stats["instances_evaluated"] == 1
        assert result.stats["lookups"] == lookups

    @pytest.mark.parametrize(
        "method, lookups",
        [("nicolas", 1), ("interleaved", 2), ("lloyd", 3), ("bdm", 2)],
    )
    def test_relational_shared_residual_reported_for_each_constraint(
        self, method, lookups
    ):
        # Both constraints simplify to ``not q(a)`` under p(a).
        db, checker = make_checker(
            """
            q(a).
            forall X: p(X) -> not q(X).
            forall Y: q(Y) -> not p(Y).
            """
        )
        result = getattr(checker, f"check_{method}")("p(a)")
        assert result.violated_constraint_ids() == {"c1", "c2"}
        assert result.stats["instances_evaluated"] == 1
        assert result.stats["lookups"] == lookups

    def test_extensional_screen_drops_constants_no_update_has(self):
        # The pattern not p(_U0) reaches the occurrence p(b); the ground
        # update not p(a) does not, so no fact may be read for it.
        db, checker = make_checker("p(a). p(b). q(c). p(b) or q(d).")
        result = checker.check_bdm("not p(a)")
        assert result.ok
        assert result.stats["update_constraints"] == 0
        assert result.stats["induced_updates"] == 0
        assert result.stats["lookups"] == 0
        assert not checker.check_bdm("not p(b)").ok
