"""Rule DDL on the maintained model agrees with recomputation.

For a random stratified program (non-linear closure, bodies with two
negated derived literals, rules whose addition lifts their head to a
higher stratum), random facts and constraints, and a rule to add (one
the program lacks) or remove (one it has):

* after :meth:`MaintainedModel.add_rule` / :meth:`remove_rule` the
  model equals ``compute_model`` of the changed program, and the
  returned ``(inserted, deleted)`` change set turns the old model into
  the new one and back (what the service's undo relies on);
* on a consistent database, the verdict of
  :meth:`IntegrityChecker.check_rule_addition` / ``check_rule_removal``
  equals a full check of the changed database — and so does a
  :class:`ManagedDatabase`'s rule commit for an addition, whose model
  is then the changed program's (committed) or the old one (rejected).

``REPRO_STRESS=1`` raises the example count.
"""

import os

import hypothesis.strategies as st
from hypothesis import HealthCheck, assume, example, given, settings

from repro.datalog.bottomup import compute_model
from repro.datalog.database import DeductiveDatabase
from repro.datalog.facts import FactStore
from repro.datalog.incremental import MaintainedModel
from repro.datalog.program import Program, Rule, StratificationError
from repro.integrity.checker import IntegrityChecker
from repro.logic.parser import parse_fact, parse_rule
from repro.service.database import ManagedDatabase

from tests.property.strategies import (
    PROGRAM_CONSTRAINTS,
    program_facts,
    program_rules,
    stratified_programs,
)

EXAMPLES = 1000 if os.environ.get("REPRO_STRESS") else 200


def rules(*texts):
    return [Rule.from_parsed(parse_rule(text)) for text in texts]


def facts(*texts):
    return [parse_fact(text) for text in texts]


@st.composite
def rule_updates(draw):
    """``(rules, facts, constraints, rule, added)``: a program, its
    facts and constraints, and a rule to add or remove."""
    program = draw(stratified_programs())
    if draw(st.booleans()):
        rule, added = draw(st.sampled_from(program)), False
    else:
        rule = Rule.from_parsed(parse_rule(draw(program_rules())))
        assume(rule not in program)
        added = True
    constraints = draw(
        st.lists(st.sampled_from(PROGRAM_CONSTRAINTS), max_size=3, unique=True)
    )
    return program, draw(program_facts()), constraints, rule, added


def changed_rules(program, rule, added):
    return program + [rule] if added else [r for r in program if r != rule]


# ROADMAP item 17's M3 shape: removing r's rule over-deletes t(b, d)
# and t(d, e) in one round of a non-linear closure; t(b, e) is found
# only if over-deleted facts stay visible to the joins that follow.
M3 = (
    rules(
        "r(X, Y) :- e(X, Y)",
        "t(X, Y) :- r(X, Y)",
        "t(X, Y) :- t(X, Z), t(Z, Y)",
    ),
    facts("e(b, d)", "e(d, e)"),
    ["forall X, Y: t(X, Y) -> not t(Y, X)."],
    rules("r(X, Y) :- e(X, Y)")[0],
    False,
)
# ROADMAP item 17's M4 shape: one rule addition inserts q(a) and s(a)
# in one stratum, and p's body negates both; missing either insertion
# in the pre-update state leaves a phantom p(a).
M4 = (
    rules(
        "q(X) :- t(X, Y)",
        "s(X) :- t(X, Y)",
        "p(X) :- a(X), not q(X), not s(X)",
    ),
    facts("a(a)", "e(a, b)"),
    ["forall X: a(X) -> p(X) or q(X) or s(X)."],
    rules("t(X, Y) :- e(X, Y)")[0],
    True,
)


def _ddl(rule_update):
    """Parse-free pieces of one example; ``assume`` away the draws whose
    changed program does not stratify."""
    program, edb, constraints, rule, added = rule_update
    new_rules = changed_rules(program, rule, added)
    try:
        Program(new_rules)
    except StratificationError:
        assume(False)
    return program, edb, constraints, rule, added, new_rules


@given(rule_updates())
@example(M3)
@example(M4)
@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
def test_rule_ddl_model_equals_recomputation(rule_update):
    program, edb, _, rule, added, new_rules = _ddl(rule_update)
    maintained = MaintainedModel(FactStore(edb), Program(program))
    old = set(maintained.model)
    if added:
        inserted, deleted = maintained.add_rule(rule)
    else:
        inserted, deleted = maintained.remove_rule(rule)
    new = set(compute_model(FactStore(edb), Program(new_rules)))
    assert set(maintained.model) == new
    assert maintained.program == Program(new_rules)
    assert (old - deleted) | inserted == new
    assert (new - inserted) | deleted == old


@given(rule_updates())
@example(M3)
@example(M4)
@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
def test_rule_ddl_verdict_equals_full_check(rule_update):
    program, edb, constraints, rule, added, new_rules = _ddl(rule_update)
    db = DeductiveDatabase(FactStore(edb), Program(program))
    for constraint in constraints:
        db.add_constraint(constraint)
    assume(db.all_constraints_satisfied())
    expected = DeductiveDatabase(
        FactStore(edb), Program(new_rules), list(db.constraints)
    ).all_constraints_satisfied()
    checker = IntegrityChecker(db)
    if added:
        assert checker.check_rule_addition(rule).ok is expected
    else:
        assert checker.check_rule_removal(rule).ok is expected
        return
    managed = ManagedDatabase(
        source="\n".join(
            [f"{atom}." for atom in edb]
            + [f"{r}." for r in program]
            + constraints
        )
    )
    result = managed.add_rule(str(rule))
    assert result.ok is expected, result
    final = new_rules if expected else program
    assert set(managed.manager.model.model) == set(
        compute_model(FactStore(edb), Program(final))
    )
