"""Deductive-database substrate: fact storage, rules, evaluation.

This subpackage is the stand-in for the Prolog–DBMS coupling the paper
relied on ([BOCC 86]): an indexed extensional store, stratified Datalog
rules, a bottom-up semi-naive evaluator, a magic-sets rewrite that
makes it goal-directed (standing in for the recursive query evaluator
the paper assumes, [VIEI 87]), and a formula-level query engine that the
integrity and satisfiability layers drive.
"""

from repro.datalog.facts import FactStore
from repro.datalog.joins import (
    join_body,
    join_literals,
    join_literals_batch,
    join_literals_rows,
)
from repro.datalog.magic import (
    MagicEvaluator,
    MagicFallbackWarning,
    MagicProgram,
    MagicRewriteError,
    MagicStratificationError,
    magic_rewrite,
)
from repro.datalog.overlay import OverlayFactStore
from repro.datalog.planner import (
    GreedyPlanner,
    Planner,
    SourcePlanner,
    make_planner,
)
from repro.datalog.program import (
    Program,
    Rule,
    StratificationError,
)
from repro.datalog.bottomup import compute_model, compute_model_naive
from repro.datalog.incremental import MaintainedModel
from repro.datalog.query import QueryEngine
from repro.datalog.database import Constraint, DeductiveDatabase

__all__ = [
    "Constraint",
    "DeductiveDatabase",
    "FactStore",
    "GreedyPlanner",
    "MagicEvaluator",
    "MagicFallbackWarning",
    "MagicProgram",
    "MagicRewriteError",
    "MagicStratificationError",
    "MaintainedModel",
    "OverlayFactStore",
    "Planner",
    "Program",
    "QueryEngine",
    "Rule",
    "SourcePlanner",
    "StratificationError",
    "compute_model",
    "compute_model_naive",
    "join_body",
    "join_literals",
    "join_literals_batch",
    "join_literals_rows",
    "magic_rewrite",
    "make_planner",
]
