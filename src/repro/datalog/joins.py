"""Shared body-join machinery for rule evaluation.

Every evaluator (bottom-up, top-down tabled, maintenance, delta)
reduces rule application to the same operation: enumerate the
substitutions that make a conjunction of literals true against some
fact source. Two execution models implement it:

``tuple`` (:func:`join_literals`, the seed behaviour and the oracle)
    Positive literals are solved one binding at a time, propagating
    substitutions; each negative literal is tested by closed-world
    lookup as soon as its variables are fully bound (range restriction
    guarantees this happens before the end).

``batch`` (:func:`join_literals_batch`, the default)
    Set-at-a-time evaluation: a *relation of bindings* — plain value
    tuples over the join variables, no per-tuple
    :class:`Substitution` — flows through the body one literal at a
    time. Each positive literal is a hash join: bindings sharing the
    same key values probe the fact source once (memoized per key, and
    served by the stores' composite group indexes where available);
    negative literals are batched anti-joins with per-key memoization
    of the closed-world test. The relation is carried in chunks, so
    consumers that stop after the first answer (witness search,
    existence tests) never pay for the full join — the generator seam
    is preserved end to end.

Both paths produce the same answer multiset (a property the
differential harness pins); only enumeration order and cost differ.
Which one runs — and which join algorithm the batch path uses — comes
from the :class:`repro.config.EngineConfig` every entry point receives;
this is the only module that branches on ``config.exec_mode`` and
``config.join_algo``.

The *order* in which positive literals are solved is delegated to a
:class:`repro.datalog.planner.Planner` when one is supplied; without
one they are solved left to right in source order (the seed
behaviour). Either way the answer set is identical — conjunction is
commutative — only the cost differs.
"""

from __future__ import annotations

from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.config import EngineConfig
from repro.datalog import wcoj
from repro.datalog.columnar import ColumnarRelation
from repro.datalog.planner import Planner, source_cardinality
from repro.logic.formulas import Atom, Literal
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable
from repro.logic.unify import match
from repro.obs.metrics import default_registry
from repro.obs.trace import current_trace

# A matcher receives (literal index, instantiated pattern) and yields the
# substitutions for the pattern's remaining variables.
Matcher = Callable[[int, Atom], Iterator[Substitution]]
# A holds-test receives a ground atom and decides its truth.
HoldsTest = Callable[[Atom], bool]
# A batch probe receives (literal index, instantiated pattern) and
# returns one value row per matching fact: the values of the pattern's
# distinct variables in first-occurrence order.
BatchProbe = Callable[[int, Atom], Iterable[Tuple[Constant, ...]]]

#: :func:`join_body` calls that asked for the batch model but fell back
#: to the tuple oracle because the initial binding mapped variables to
#: non-constants — the relational representation carries value rows
#: only. Tests pin "no fallback" on paths that are supposed to stay
#: relational (e.g. tabled evaluation after its standardize-apart
#: pass). A thread-safe :class:`repro.obs.metrics.Counter`: the service
#: layer commits from multiple threads.
_TUPLE_FALLBACKS = default_registry().counter("join.tuple_fallbacks")

#: Leapfrog dispatch accounting: bodies the worst-case-optimal path
#: ran (``join.wcoj_joins``) and bodies that asked for it
#: (``join_algo="wcoj"``) but had to fall back to the hash pipeline
#: (``join.wcoj_fallbacks``) — negatives, too few relations, no
#: shared variables, duplicated seed rows. ``auto`` choosing hash for
#: an acyclic body counts as neither: that is the planner planning.
_WCOJ_JOINS = default_registry().counter("join.wcoj_joins")
_WCOJ_FALLBACKS = default_registry().counter("join.wcoj_fallbacks")

#: How many binding rows flow through the batch pipeline at once. Small
#: enough that first-answer consumers stay cheap, large enough that the
#: per-chunk Python overhead is amortized.
BATCH_CHUNK = 256


def join_literals(
    literals: Sequence[Literal],
    binding: Substitution,
    matcher: Matcher,
    holds: HoldsTest,
    planner: Optional[Planner] = None,
) -> Iterator[Substitution]:
    """Enumerate bindings extending *binding* that satisfy *literals*.

    ``matcher(i, pattern)`` supplies candidate substitutions for the
    positive literal at position ``i`` — ``i`` is always the literal's
    position in *literals*, independent of the order *planner* chooses;
    ``holds`` decides ground negative subgoals (closed world: the
    literal succeeds when the atom does *not* hold).
    """
    positives: List[Tuple[int, Literal]] = []
    negatives: List[Literal] = []
    for index, literal in enumerate(literals):
        if literal.positive:
            positives.append((index, literal))
        else:
            negatives.append(literal)
    if planner is not None and len(positives) > 1:
        if binding:
            # Apply the initial binding before planning: variables it
            # grounds become constants, visible to the index-aware
            # cardinality estimate. (Harmless for evaluation — descend
            # re-applies `current`, which subsumes `binding`.)
            positives = [
                (index, literal.substitute(binding))
                for index, literal in positives
            ]
        positives = planner.order(positives, set(binding.domain()))

    def descend(
        pos_index: int, current: Substitution, pending: List[Literal]
    ) -> Iterator[Substitution]:
        remaining: List[Literal] = []
        for negative in pending:
            atom = negative.atom.substitute(current)
            if atom.is_ground():
                if holds(atom):
                    return  # closed-world failure of the negative literal
            else:
                remaining.append(negative)
        if pos_index == len(positives):
            if remaining:
                unbound = ", ".join(str(n) for n in remaining)
                raise ValueError(
                    f"negative literal(s) not ground at end of join: "
                    f"{unbound} — rule is not range-restricted"
                )
            yield current
            return
        index, literal = positives[pos_index]
        pattern = literal.atom.substitute(current)
        for extension in matcher(index, pattern):
            yield from descend(
                pos_index + 1, current.compose(extension), remaining
            )

    trace = current_trace()
    if trace is None:
        yield from descend(0, binding, negatives)
        return
    join_stats = trace.join
    join_stats["joins"] += 1
    for answer in descend(0, binding, negatives):
        join_stats["rows_out"] += 1
        yield answer


# -- batch (set-at-a-time) path ------------------------------------------------------


def pattern_variables(atom: Atom) -> Tuple[Variable, ...]:
    """The atom's distinct variables in first-occurrence order — the
    column order of the rows a :data:`BatchProbe` returns for it."""
    seen: List[Variable] = []
    for arg in atom.args:
        if isinstance(arg, Variable) and arg not in seen:
            seen.append(arg)
    return tuple(seen)


def rows_from_source(source, pattern: Atom) -> List[Tuple[Constant, ...]]:
    """Value rows for *pattern* against a fact source: one tuple of the
    pattern's distinct-variable values per matching fact.

    Uses the source's composite hash index (``bucket``) when it has one
    — a single dictionary probe, no per-fact unification — and falls
    back to ``match`` otherwise."""
    key_positions: List[int] = []
    key: List[Constant] = []
    out_positions: List[int] = []
    checks: List[Tuple[int, int]] = []
    first: dict = {}
    for position, arg in enumerate(pattern.args):
        if isinstance(arg, Variable):
            if arg in first:
                checks.append((position, first[arg]))
            else:
                first[arg] = position
                out_positions.append(position)
        else:
            key_positions.append(position)
            key.append(arg)
    bucket = getattr(source, "bucket", None)
    if bucket is None:
        return [
            tuple(fact.args[p] for p in out_positions)
            for fact in source.match(pattern)
        ]
    facts = bucket(pattern.pred, tuple(key_positions), tuple(key))
    # The group index filters on the key positions only; a predicate
    # holding mixed-arity facts can still surface wider facts here, so
    # the pattern's arity is enforced fact by fact (the tuple path gets
    # this from match()).
    arity = len(pattern.args)
    if not checks:
        return [
            tuple(fact.args[p] for p in out_positions)
            for fact in facts
            if len(fact.args) == arity
        ]
    rows: List[Tuple[Constant, ...]] = []
    for fact in facts:
        args = fact.args
        if len(args) == arity and all(
            args[p] == args[q] for p, q in checks
        ):
            rows.append(tuple(args[p] for p in out_positions))
    return rows


def substitutions_from_source(
    source, pattern: Atom
) -> Iterator[Substitution]:
    """Answer substitutions for *pattern* against a fact source — the
    tuple path's counterpart of :func:`rows_from_source`."""
    for fact in source.match(pattern):
        subst = match(pattern, fact)
        if subst is not None:
            yield subst


def rows_from_substitutions(
    pattern: Atom, substitutions: Iterable[Substitution]
) -> List[Tuple[Constant, ...]]:
    """Convert answer substitutions for *pattern* into batch rows —
    the row layout contract (distinct variables, first-occurrence
    order) defined once for every substitution-shaped source."""
    variables = pattern_variables(pattern)
    return [
        tuple(subst.apply_term(v) for v in variables)
        for subst in substitutions
    ]


def probe_from_source(source) -> BatchProbe:
    """A :data:`BatchProbe` over a single fact source."""
    return lambda index, pattern: rows_from_source(source, pattern)


def probe_from_matcher(matcher: Matcher) -> BatchProbe:
    """Adapt a tuple-path matcher into a :data:`BatchProbe`.

    The batch kernel still wins through per-key probe memoization and
    tuple-typed intermediates; only the per-probe enumeration stays on
    the matcher's generic path."""

    def probe(index: int, pattern: Atom) -> List[Tuple[Constant, ...]]:
        return rows_from_substitutions(pattern, matcher(index, pattern))

    return probe


class _Level:
    """Per-literal layout of one batch join: which schema columns form
    the hash key, which negatives become testable on entry, and how the
    output schema extends."""

    __slots__ = (
        "index",
        "atom",
        "bound",
        "entry_negatives",
        "new_variables",
    )

    def __init__(self, index, atom, bound, entry_negatives, new_variables):
        self.index = index
        self.atom = atom
        # (variable, schema column, argument positions) per distinct
        # bound variable of the atom.
        self.bound = bound
        self.entry_negatives = entry_negatives
        self.new_variables = new_variables


def _row_instantiator(atom: Atom, column_of: dict):
    """A row → ground atom instantiator for *atom*: each argument is
    either a schema column index or a constant from the atom itself.
    Every variable of *atom* must be a *column_of* key."""
    layout = tuple(
        (column_of[arg], None) if isinstance(arg, Variable) else (None, arg)
        for arg in atom.args
    )
    pred = atom.pred

    def build(row) -> Atom:
        return Atom(
            pred,
            tuple(
                row[column] if column is not None else constant
                for column, constant in layout
            ),
        )

    return build


class _NegativeTest:
    """A negative literal plus the row layout grounding its atom."""

    __slots__ = ("columns", "ground")

    def __init__(self, atom: Atom, column_of: dict):
        # Distinct schema columns — the memo key of the anti-join.
        self.columns = tuple(
            column_of[v] for v in pattern_variables(atom)
        )
        self.ground = _row_instantiator(atom, column_of)


def atom_builder(atom: Atom, schema: Sequence[Variable]):
    """A row → ground atom instantiator for *atom* over *schema* —
    how batch consumers (semi-naive derivation) build rule heads
    without per-row substitutions. Every variable of *atom* must be a
    schema column (range restriction guarantees it for rule heads)."""
    return _row_instantiator(
        atom, {variable: i for i, variable in enumerate(schema)}
    )


def _wcoj_decision(algo, positives, negatives, seed_schema):
    """Whether this body may run the leapfrog triejoin, and why not
    when it may not. *seed_schema* is the initial relation's schema
    (it counts as one more relation) or ``None``."""
    if negatives:
        return False, "negative literals"
    relation_count = len(positives) + (1 if seed_schema is not None else 0)
    if relation_count < 3:
        return False, "fewer than 3 relations"
    varsets = [pattern_variables(literal.atom) for _, literal in positives]
    if seed_schema is not None:
        varsets.append(seed_schema)
    counts: dict = {}
    for varset in varsets:
        for variable in varset:
            counts[variable] = counts.get(variable, 0) + 1
    if not counts or max(counts.values()) < 2:
        return False, "no shared variables"
    if algo == "auto" and wcoj.is_acyclic(varsets):
        return False, "acyclic body"
    return True, "eligible"


def _wcoj_dispatch(
    algo,
    positives,
    negatives,
    seed_schema,
    seed_columnar,
    seed_rows,
    binding,
    binding_schema,
    probe,
    chunk_size,
    trace,
):
    """Decide the leapfrog attempt for one body: returns the chunk
    generator when the worst-case-optimal path runs, ``None`` when the
    hash pipeline should. Counts ``join.wcoj_joins`` /
    ``join.wcoj_fallbacks`` and records the eligibility decision in
    the active :class:`~repro.obs.trace.QueryTrace`."""
    eligible, reason = _wcoj_decision(algo, positives, negatives, seed_schema)
    if eligible and seed_schema is not None:
        if seed_columnar is None:
            seed_columnar = ColumnarRelation.from_rows(
                seed_schema, list(seed_rows)
            )
        if seed_columnar.distinct() is not seed_columnar:
            # The leapfrog runs set semantics; a duplicated seed row
            # would drop output multiplicity the hash path preserves.
            eligible, reason = False, "duplicate seed rows"
    goal = " ∧ ".join(str(literal.atom) for _, literal in positives)
    relation_count = len(positives) + (1 if seed_schema is not None else 0)
    if not eligible:
        # `auto` picking hash is a plan; only an explicit `wcoj` ask
        # that cannot be honored is a fallback. Near misses (`auto` on
        # an acyclic candidate) still reach the trace so EXPLAIN shows
        # why the leapfrog did not run.
        if algo == "wcoj":
            _WCOJ_FALLBACKS.inc()
            if trace is not None:
                trace.join["wcoj_fallbacks"] += 1
        if trace is not None and (
            algo == "wcoj" or reason == "acyclic body"
        ):
            trace.record_wcoj(goal, algo, relation_count, False, reason)
        return None
    _WCOJ_JOINS.inc()
    if trace is not None:
        trace.join["wcoj_joins"] += 1
        trace.record_wcoj(goal, algo, relation_count, True, reason)
    return _wcoj_rows(
        positives,
        seed_columnar,
        binding,
        binding_schema,
        probe,
        chunk_size,
        trace.join if trace is not None else None,
    )


def _wcoj_rows(
    positives,
    seed_columnar,
    binding,
    binding_schema,
    probe,
    chunk_size,
    join_stats,
):
    """Run the leapfrog triejoin and re-chunk its lazily enumerated
    assignments into the ``(schema, rows)`` contract. One probe per
    literal materializes its full relation (the trie needs sorted
    random access); the enumeration itself stays lazy, so the
    first-chunk short-circuit contract holds here too."""
    relations = []
    if seed_columnar is not None:
        relations.append(seed_columnar)
    for index, literal in positives:
        rows = list(probe(index, literal.atom))
        if join_stats is not None:
            join_stats["probes"] += 1
        relations.append(
            ColumnarRelation.from_rows(
                pattern_variables(literal.atom), rows
            )
        )
    order = wcoj.variable_order([rel.schema for rel in relations])
    out_schema = tuple(binding_schema) + order
    prefix = tuple(binding[variable] for variable in binding_schema)
    chunk: List[tuple] = []
    for row in wcoj.leapfrog_rows(order, relations):
        chunk.append(prefix + row)
        if len(chunk) >= chunk_size:
            if join_stats is not None:
                join_stats["chunks"] += 1
                join_stats["rows_out"] += len(chunk)
            yield (out_schema, chunk)
            chunk = []
    if chunk:
        if join_stats is not None:
            join_stats["chunks"] += 1
            join_stats["rows_out"] += len(chunk)
        yield (out_schema, chunk)


def join_literals_rows(
    literals: Sequence[Literal],
    binding: Substitution,
    probe: BatchProbe,
    holds: HoldsTest,
    planner: Optional[Planner] = None,
    chunk_size: int = BATCH_CHUNK,
    initial: Union[
        ColumnarRelation,
        Tuple[Sequence[Variable], Sequence[tuple]],
        None,
    ] = None,
    config: Optional[EngineConfig] = None,
) -> Iterator[Tuple[Tuple[Variable, ...], List[tuple]]]:
    """The relational core of the batch path: yields ``(schema, rows)``
    chunks, where *schema* names the row columns (fixed for the whole
    join) and *rows* holds up to *chunk_size* value tuples satisfying
    the body. Chunks surface as soon as they fill, so single-witness
    consumers stop after the first one.

    ``config.join_algo`` selects between the pairwise hash pipeline and
    the worst-case-optimal leapfrog triejoin;
    eligible bodies — all-positive, at least three relations counting
    the *initial* seed, at least one shared variable (plus cyclicity
    under ``auto``) — run :mod:`repro.datalog.wcoj`, everything else
    the hash pipeline. Both produce the same chunk contract and the
    same answer multiset; only enumeration order and cost differ.

    *binding* must map variables to constants — :func:`join_body` falls
    back to the tuple path when it does not (tabled evaluation used to
    hit this with head unifiers before its standardize-apart pass).

    *initial*, when given, is a named ``(schema, rows)`` relation the
    pipeline starts from instead of the unit binding row — the seam
    semi-naive evaluation uses to flow a delta relation (a
    supplementary predicate's rows, or any derived predicate's new
    facts) straight into its consumer joins without re-probing it.
    Its schema must list distinct variables, its rows constant tuples;
    *binding* must be empty when *initial* is supplied.
    """
    positives: List[Tuple[int, Literal]] = []
    negatives: List[Literal] = []
    for index, literal in enumerate(literals):
        if literal.positive:
            positives.append((index, literal))
        else:
            negatives.append(literal)
    algo = (config or EngineConfig()).join_algo
    seed_columnar: Optional[ColumnarRelation] = None
    if initial is not None:
        if binding:
            raise ValueError(
                "join_literals_rows: initial relation and non-empty "
                "binding are mutually exclusive"
            )
        if isinstance(initial, ColumnarRelation):
            seed_columnar = initial
            schema = list(initial.schema)
            seed_rows: Optional[Sequence[tuple]] = list(initial.rows())
        else:
            schema = list(initial[0])
            seed_rows = initial[1]
        bound_vars = set(schema)
    else:
        schema = sorted(binding.domain(), key=lambda v: v.name)
        seed_rows = None
        bound_vars = set(binding.domain())
        if binding:
            positives = [
                (index, literal.substitute(binding))
                for index, literal in positives
            ]
            negatives = [
                literal.substitute(binding) for literal in negatives
            ]
    if planner is not None and len(positives) > 1:
        positives = planner.order(positives, bound_vars)

    trace = current_trace()
    join_stats = trace.join if trace is not None else None
    if join_stats is not None:
        join_stats["joins"] += 1

    if algo != "hash":
        runner = _wcoj_dispatch(
            algo,
            positives,
            negatives,
            tuple(schema) if initial is not None else None,
            seed_columnar,
            seed_rows,
            binding,
            () if initial is not None else tuple(schema),
            probe,
            chunk_size,
            trace,
        )
        if runner is not None:
            yield from runner
            return

    column_of = {variable: i for i, variable in enumerate(schema)}
    initial_row = (
        tuple(binding[variable] for variable in schema)
        if seed_rows is None
        else None
    )

    def negative_tests(pending: List[Literal]) -> List[_NegativeTest]:
        """Consume from *pending* the negatives ground under the current
        schema, mirroring the tuple path's earliest-point placement."""
        testable: List[_NegativeTest] = []
        remaining: List[Literal] = []
        for literal in pending:
            if all(
                v in column_of for v in pattern_variables(literal.atom)
            ):
                testable.append(_NegativeTest(literal.atom, column_of))
            else:
                remaining.append(literal)
        pending[:] = remaining
        return testable

    pending = list(negatives)
    levels: List[_Level] = []
    for index, literal in positives:
        entry = negative_tests(pending)
        atom = literal.atom
        bound: List[Tuple[Variable, int, Tuple[int, ...]]] = []
        new_variables: List[Variable] = []
        for variable in pattern_variables(atom):
            if variable in column_of:
                positions = tuple(
                    p for p, a in enumerate(atom.args) if a == variable
                )
                bound.append((variable, column_of[variable], positions))
            else:
                new_variables.append(variable)
        levels.append(_Level(index, atom, tuple(bound), entry, new_variables))
        for variable in new_variables:
            column_of[variable] = len(schema)
            schema.append(variable)
    final_negatives = negative_tests(pending)
    # `pending` now holds negatives no positive literal ever grounds;
    # raising is deferred until a row actually reaches the end, exactly
    # like the tuple path.
    final_schema = tuple(schema)

    neg_cache: dict = {}

    def passes(tests: List[_NegativeTest], row) -> bool:
        for test in tests:
            key = (id(test), tuple(row[c] for c in test.columns))
            value = neg_cache.get(key)
            if value is None:
                value = neg_cache[key] = holds(test.ground(row))
            if value:
                return False  # closed-world failure of the negative
        return True

    probe_caches: List[dict] = [{} for _ in levels]

    def process(level_index: int, rows: List[tuple]):
        if level_index == len(levels):
            survivors = (
                [row for row in rows if passes(final_negatives, row)]
                if final_negatives
                else rows
            )
            if survivors and pending:
                unbound = ", ".join(str(n) for n in pending)
                raise ValueError(
                    f"negative literal(s) not ground at end of join: "
                    f"{unbound} — rule is not range-restricted"
                )
            if survivors:
                if join_stats is not None:
                    join_stats["chunks"] += 1
                    join_stats["rows_out"] += len(survivors)
                yield (final_schema, survivors)
            return
        level = levels[level_index]
        cache = probe_caches[level_index]
        entry_negatives = level.entry_negatives
        bound = level.bound
        args_template = list(level.atom.args)
        out: List[tuple] = []
        for row in rows:
            if entry_negatives and not passes(entry_negatives, row):
                continue
            key = tuple(row[column] for _, column, _ in bound)
            extensions = cache.get(key)
            if extensions is None:
                for value, (_, _, positions) in zip(key, bound):
                    for position in positions:
                        args_template[position] = value
                pattern = Atom(level.atom.pred, tuple(args_template))
                extensions = cache[key] = list(probe(level.index, pattern))
                if join_stats is not None:
                    join_stats["probes"] += 1
            for extension in extensions:
                out.append(row + extension)
                if len(out) >= chunk_size:
                    yield from process(level_index + 1, out)
                    out = []
        if out:
            yield from process(level_index + 1, out)

    if seed_rows is None:
        yield from process(0, [initial_row])
    else:
        # The initial relation enters pre-chunked so the short-circuit
        # contract holds for relation-seeded joins too.
        for start in range(0, len(seed_rows), chunk_size):
            yield from process(0, list(seed_rows[start:start + chunk_size]))


def join_literals_batch(
    literals: Sequence[Literal],
    binding: Substitution,
    probe: BatchProbe,
    holds: HoldsTest,
    planner: Optional[Planner] = None,
    chunk_size: int = BATCH_CHUNK,
    config: Optional[EngineConfig] = None,
) -> Iterator[Substitution]:
    """Set-at-a-time counterpart of :func:`join_literals`: the
    substitution seam over :func:`join_literals_rows`. Semantically
    identical to the tuple path (same answer multiset, same
    range-restriction error)."""
    for schema, rows in join_literals_rows(
        literals, binding, probe, holds, planner, chunk_size,
        config=config,
    ):
        for row in rows:
            yield Substitution.trusted(dict(zip(schema, row)))


def join_body(
    literals: Sequence[Literal],
    binding: Substitution,
    matcher: Matcher,
    holds: HoldsTest,
    planner: Optional[Planner] = None,
    config: Optional[EngineConfig] = None,
    probe: Optional[BatchProbe] = None,
) -> Iterator[Substitution]:
    """Solve a rule body under the configured execution model.

    ``"batch"`` runs :func:`join_literals_batch` over *probe* (derived
    from *matcher* when the caller has no batched access path);
    ``"tuple"`` — or a *binding* that maps variables to non-constants —
    runs the :func:`join_literals` oracle, which ignores
    ``config.join_algo``.
    """
    config = config or EngineConfig()
    if config.exec_mode == "batch":
        if all(
            isinstance(term, Constant) for _, term in binding.items()
        ):
            if probe is None:
                probe = probe_from_matcher(matcher)
            return join_literals_batch(
                literals, binding, probe, holds, planner, config=config
            )
        _TUPLE_FALLBACKS.inc()
        trace = current_trace()
        if trace is not None:
            trace.join["tuple_fallbacks"] += 1
    return join_literals(literals, binding, matcher, holds, planner)


def derive_heads(
    head: Atom,
    body: Sequence[Literal],
    source,
    planner: Optional[Planner],
    config: EngineConfig,
    delta_position: int = -1,
    delta=None,
) -> List[Atom]:
    """One rule application of bottom-up evaluation: the instances of
    *head* for every solution of *body* against *source* (possibly
    already known facts).

    With a *delta* store the positive literal at *delta_position* is
    restricted to it — one occurrence of a semi-naive round. The batch
    model seeds the pipeline from the delta occurrence's rows (a
    supplementary predicate's new tuples, or any derived predicate's)
    and builds heads straight from the value rows; the tuple oracle
    routes that occurrence's matcher to *delta* and tells the planner
    the occurrence is as small as the round's new facts, not the
    predicate's full extent."""
    if config.exec_mode == "batch":
        literals = body
        initial: Optional[ColumnarRelation] = None
        if delta is not None:
            pattern = body[delta_position].atom
            delta_rows = rows_from_source(delta, pattern)
            if not delta_rows:
                return []
            literals = [
                *body[:delta_position], *body[delta_position + 1:]
            ]
            # The delta relation enters columnar: the wcoj path
            # consumes the columns directly, the hash path re-rows
            # them once at the seam.
            initial = ColumnarRelation.from_rows(
                pattern_variables(pattern), delta_rows
            )
        derived: List[Atom] = []
        build = None
        for schema, rows in join_literals_rows(
            literals,
            Substitution.empty(),
            probe_from_source(source),
            source.contains,
            planner,
            initial=initial,
            config=config,
        ):
            if build is None:
                build = atom_builder(head, schema)
            derived.extend(map(build, rows))
        return derived

    def matcher(index: int, pattern: Atom) -> Iterator[Substitution]:
        return substitutions_from_source(
            delta if index == delta_position else source, pattern
        )

    if delta is not None and planner is not None:
        source_estimate = source_cardinality(source)
        planner = planner.with_cardinality(
            lambda index, atom: delta.estimate(atom)
            if index == delta_position
            else source_estimate(index, atom)
        )
    return [
        head.substitute(binding)
        for binding in join_literals(
            body, Substitution.empty(), matcher, source.contains, planner
        )
    ]
