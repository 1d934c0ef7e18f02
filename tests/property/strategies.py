"""Shared hypothesis strategies for the property-based test suite.

Everything is kept deliberately small (few predicates, few constants,
short formulas): the properties compare against brute-force oracles
whose cost is exponential in the signature.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import assume

from repro.datalog.program import Program, Rule, StratificationError
from repro.logic.formulas import (
    And,
    Atom,
    Exists,
    Forall,
    Iff,
    Implies,
    Literal,
    Not,
    Or,
)
from repro.logic.parser import parse_rule
from repro.logic.terms import Constant, Variable

CONSTANTS = [Constant(name) for name in ("a", "b", "c")]
VARIABLES = [Variable(name) for name in ("X", "Y", "Z")]
PREDICATES = [("p", 1), ("q", 1), ("r", 2)]


def constants(max_index: int = 3):
    return st.sampled_from(CONSTANTS[:max_index])


def variables():
    return st.sampled_from(VARIABLES)


def terms(allow_variables: bool = True):
    if allow_variables:
        return st.one_of(constants(), variables())
    return constants()


@st.composite
def atoms(draw, allow_variables: bool = True, predicates=None):
    pred, arity = draw(st.sampled_from(predicates or PREDICATES))
    args = tuple(
        draw(terms(allow_variables)) for _ in range(arity)
    )
    return Atom(pred, args)


@st.composite
def ground_atoms(draw):
    return draw(atoms(allow_variables=False))


@st.composite
def literals(draw, allow_variables: bool = True):
    return Literal(
        draw(atoms(allow_variables)), draw(st.booleans())
    )


@st.composite
def ground_literals(draw):
    return Literal(draw(ground_atoms()), draw(st.booleans()))


@st.composite
def quantifier_free_formulas(draw, depth: int = 2):
    """Ground quantifier-free formulas over the fixed signature."""
    if depth <= 0:
        return Literal(draw(ground_atoms()), draw(st.booleans()))
    kind = draw(st.sampled_from(["lit", "not", "and", "or", "implies", "iff"]))
    if kind == "lit":
        return Literal(draw(ground_atoms()), draw(st.booleans()))
    if kind == "not":
        return Not(draw(quantifier_free_formulas(depth=depth - 1)))
    left = draw(quantifier_free_formulas(depth=depth - 1))
    right = draw(quantifier_free_formulas(depth=depth - 1))
    if kind == "and":
        return And.make([left, right])
    if kind == "or":
        return Or.make([left, right])
    if kind == "implies":
        return Implies(left, right)
    return Iff(left, right)


@st.composite
def guarded_constraints(draw):
    """Closed, domain-independent constraints in the guarded patterns
    the paper's constraints use (always normalizable)."""
    shape = draw(
        st.sampled_from(
            ["univ_impl", "univ_neg", "exists", "univ_exists", "ground"]
        )
    )
    x, y = Variable("X"), Variable("Y")
    p = draw(st.sampled_from(["p", "q"]))
    q = draw(st.sampled_from(["p", "q"]))
    if shape == "univ_impl":
        return Forall(
            [x], None, Implies(Literal(Atom(p, (x,))), Literal(Atom(q, (x,))))
        )
    if shape == "univ_neg":
        return Forall(
            [x],
            None,
            Implies(
                Literal(Atom(p, (x,))), Literal(Atom(q, (x,)), False)
            ),
        )
    if shape == "exists":
        return Exists([x], None, Literal(Atom(p, (x,))))
    if shape == "univ_exists":
        return Forall(
            [x],
            None,
            Implies(
                Literal(Atom(p, (x,))),
                Exists(
                    [y],
                    None,
                    And.make(
                        [
                            Literal(Atom(q, (y,))),
                            Literal(Atom("r", (x, y))),
                        ]
                    ),
                ),
            ),
        )
    constant = draw(constants())
    return Implies(
        Literal(Atom(p, (constant,))), Literal(Atom(q, (constant,)))
    )


@st.composite
def fact_sets(draw, max_size: int = 8):
    return draw(st.lists(ground_atoms(), max_size=max_size, unique=True))


#: Optional companions of :func:`ground_clause_problems`' clauses.
CLAUSE_COMPANIONS = (
    "forall X: p(X) -> not r(X, X).",
    "forall X, Y: r(X, Y) -> p(Y).",
)
CLAUSE_EXISTENTIAL = "exists X: p(X) and not r(X, X)."


@st.composite
def ground_clause_problems(draw):
    """Facts-free satisfiability sources dense in ground conflicts:
    1–6 ground clauses of 1–3 literals over ``p/1`` and ``r/2``, plus
    optionally the universal companions and the existential above.

    Returns ``(source, domain)``: a brute-force search over *domain*
    constants is complete for the source. Universal and ground
    constraints hold in every substructure of a model, so the mentioned
    constants suffice, plus one for the existential's witness. To keep
    that search at most 2^12 fact sets, the existential is drawn only
    over two constants."""
    existential = draw(st.booleans())
    pool = ["a", "b", "c"][: 2 if existential else draw(st.integers(2, 3))]
    constant = st.sampled_from(pool)
    clauses = []
    mentioned = set()
    for _ in range(draw(st.integers(1, 6))):
        literals = []
        for _ in range(draw(st.integers(1, 3))):
            if draw(st.booleans()):
                pred, args = "p", (draw(constant),)
            else:
                pred, args = "r", (draw(constant), draw(constant))
            mentioned.update(args)
            atom = f"{pred}({', '.join(args)})"
            literals.append(atom if draw(st.booleans()) else f"not {atom}")
        if len(literals) == 1 and not literals[0].startswith("not "):
            literals.append("false")  # a lone positive literal is a fact
        clauses.append(" or ".join(literals) + ".")
    for companion in CLAUSE_COMPANIONS:
        if draw(st.booleans()):
            clauses.append(companion)
    if existential:
        clauses.append(CLAUSE_EXISTENTIAL)
    return "\n".join(clauses) + "\n", len(mentioned) + existential


#: The signature of :func:`stratified_programs`: extensional ``a/1``,
#: ``b/1`` and ``e/2``, derived ``r/2``, ``t/2`` and ``p/1``, ``q/1``,
#: ``s/1``.
PROGRAM_EDB = (("a", 1), ("b", 1), ("e", 2))
PROGRAM_IDB = (("r", 2), ("t", 2), ("p", 1), ("q", 1), ("s", 1))
_UNARY_IDB = ("p", "q", "s")


@st.composite
def program_rules(draw):
    """One safe rule over the :data:`PROGRAM_IDB` signature, drawn from
    a small grammar: closure over ``e`` (linear or non-linear, directly
    or through ``r``), projection, conjunction, and bodies with one or
    two negated derived literals. Programs built from these need not
    stratify."""
    shape = draw(st.sampled_from(
        ["base", "relay", "linear", "nonlinear", "project", "copy", "join",
         "negate_loop", "negate_two"]
    ))
    if shape == "base":
        return draw(st.sampled_from(
            ["t(X, Y) :- e(X, Y)", "t(X, Y) :- r(X, Y)"]
        ))
    if shape == "relay":
        return "r(X, Y) :- e(X, Y)"
    if shape == "linear":
        return "t(X, Y) :- e(X, Z), t(Z, Y)"
    if shape == "nonlinear":
        return "t(X, Y) :- t(X, Z), t(Z, Y)"
    head = draw(st.sampled_from(_UNARY_IDB))
    others = [pred for pred in _UNARY_IDB if pred != head]
    guard = draw(st.sampled_from(["a", "b"]))
    if shape == "project":
        return f"{head}(X) :- {draw(st.sampled_from(['e', 't']))}(X, Y)"
    if shape == "copy":
        return f"{head}(X) :- {draw(st.sampled_from(others + ['a', 'b']))}(X)"
    if shape == "join":
        return f"{head}(X) :- {guard}(X), {draw(st.sampled_from(others))}(X)"
    if shape == "negate_loop":
        return f"{head}(X) :- {guard}(X), not t(X, X)"
    first, second = others
    return f"{head}(X) :- {guard}(X), not {first}(X), not {second}(X)"


@st.composite
def stratified_programs(draw, max_rules: int = 6):
    """A stratified program of 1–*max_rules* distinct
    :func:`program_rules` (rule objects, in draw order)."""
    texts = draw(
        st.lists(program_rules(), min_size=1, max_size=max_rules, unique=True)
    )
    rules = [Rule.from_parsed(parse_rule(text)) for text in texts]
    try:
        Program(rules)
    except StratificationError:
        assume(False)
    return rules


@st.composite
def program_facts(draw, max_size: int = 10):
    """Extensional facts of :data:`PROGRAM_EDB` over four constants."""
    pool = CONSTANTS + [Constant("d")]
    facts = []
    for _ in range(draw(st.integers(0, max_size))):
        pred, arity = draw(st.sampled_from(PROGRAM_EDB))
        args = tuple(draw(st.sampled_from(pool)) for _ in range(arity))
        facts.append(Atom(pred, args))
    return facts


#: Constraints over the :func:`stratified_programs` signature.
PROGRAM_CONSTRAINTS = (
    "forall X: p(X) -> q(X) or a(X).",
    "forall X: not s(X).",
    "forall X: q(X) -> not p(X).",
    "forall X, Y: t(X, Y) -> not t(Y, X).",
    "forall X: b(X) -> exists Y: t(X, Y).",
    "forall X: s(X) -> b(X).",
    "forall X: a(X) -> p(X) or q(X) or s(X).",
)
