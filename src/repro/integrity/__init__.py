"""Integrity maintenance (Section 3 of the paper).

The pipeline, mirroring the paper's two-phase architecture:

*Compile phase* (no fact access):
  :mod:`relevance`          — which constraints an update can affect (Def. 2)
  :mod:`instances`          — simplified constraint instances (Def. 3)
  :mod:`dependencies`       — direct dependencies and potential updates (Def. 5)
  :mod:`update_constraints` — update constraints (Def. 6)

*Evaluation phase* (fact access through the query engines):
  ``new``           — the paper's meta-interpreter for truth in U(D) is
                      plain evaluation over the overlay database
                      ``database.updated(U).engine()`` (Definition 1)
  :mod:`delta_eval` — the ``delta`` meta-interpreter: induced updates (Def. 4)
  :mod:`checker`    — the methods: full check, [NICO 79] (Prop. 1), the
                      paper's method (Prop. 3), and the [LLOY 86] /
                      [DECK 86]+[KOWA 87] baselines
  :mod:`transactions` — multi-fact transactions ([BRY 87] extension)
"""

from repro.integrity.relevance import RelevanceIndex, relevant_constraints
from repro.integrity.instances import (
    SimplifiedInstance,
    simplified_instances,
    top_universal_variables,
)
from repro.integrity.dependencies import (
    DependencyIndex,
    DirectDependency,
    potential_updates,
)
from repro.integrity.update_constraints import (
    CompiledCheck,
    UpdateConstraint,
    compile_update_constraints,
)
from repro.integrity.delta_eval import DeltaEvaluator
from repro.integrity.checker import (
    CheckResult,
    IntegrityChecker,
    Violation,
)
from repro.integrity.transactions import Transaction, net_effect
from repro.integrity.evolution import (
    ConstraintAdditionResult,
    assess_constraint_addition,
)

__all__ = [
    "CheckResult",
    "CompiledCheck",
    "ConstraintAdditionResult",
    "assess_constraint_addition",
    "DeltaEvaluator",
    "DependencyIndex",
    "DirectDependency",
    "IntegrityChecker",
    "RelevanceIndex",
    "SimplifiedInstance",
    "Transaction",
    "UpdateConstraint",
    "Violation",
    "compile_update_constraints",
    "net_effect",
    "potential_updates",
    "relevant_constraints",
    "simplified_instances",
    "top_universal_variables",
]
