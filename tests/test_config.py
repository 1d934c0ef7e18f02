"""EngineConfig: one frozen object, validated in one place, and the
only way any engine seam is configured."""

import ast
import dataclasses
import inspect
import pathlib

import pytest

import repro
from repro.config import (
    DEFAULT_BACKEND,
    DEFAULT_EXEC,
    DEFAULT_PLAN,
    DEFAULT_STRATEGY,
    EngineConfig,
)


class TestValidation:
    def test_defaults_are_valid(self):
        config = EngineConfig()
        assert config.strategy == DEFAULT_STRATEGY == "magic"
        assert config.plan == DEFAULT_PLAN
        assert config.exec_mode == DEFAULT_EXEC
        assert config.supplementary is True
        assert config.backend == DEFAULT_BACKEND
        assert config.cache is False

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"strategy": "psychic"}, "unknown strategy"),
            ({"plan": "optimal"}, "unknown plan"),
            ({"exec_mode": "vectorized"}, "unknown exec mode"),
            ({"backend": "postgres"}, "unknown backend"),
            ({"supplementary": "yes"}, "supplementary"),
            ({"cache": 1}, "cache"),
            ({"cache_size": 0}, "cache_size"),
            ({"cache_size": True}, "cache_size"),
            ({"slow_query_ms": -1}, "slow_query_ms"),
            ({"slow_query_ms": float("nan")}, "slow_query_ms"),
            ({"slow_query_ms": float("inf")}, "slow_query_ms"),
            ({"join_algo": "leapfrog"}, "unknown join algo"),
            ({"cache": "yes"}, "cache"),
            # Removed strategies: rejected, naming what remains.
            ({"strategy": "topdown"}, r"pick one of \('lazy', 'magic'\)"),
            ({"strategy": "model"}, r"pick one of \('lazy', 'magic'\)"),
        ],
    )
    def test_every_knob_validated_in_one_place(self, kwargs, message):
        """A bad value of a field is a ValueError; a name that is not a
        field (``cache_size`` was removed) is a TypeError."""
        fields = {field.name for field in dataclasses.fields(EngineConfig)}
        error = ValueError if set(kwargs) <= fields else TypeError
        with pytest.raises(error, match=message):
            EngineConfig(**kwargs)

    @pytest.mark.parametrize("raw", ["nan", "-1", "inf", "soon"])
    def test_slow_query_env_override_is_validated(self, monkeypatch, raw):
        from repro.config import _default_slow_query_ms

        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", raw)
        with pytest.raises(ValueError, match="REPRO_SLOW_QUERY_MS"):
            _default_slow_query_ms()

    def test_frozen_and_hashable(self):
        config = EngineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.strategy = "lazy"
        assert hash(config) == hash(EngineConfig())
        assert config == EngineConfig()
        assert config != EngineConfig(strategy="lazy")

    def test_replace_revalidates(self):
        config = EngineConfig()
        assert config.replace(strategy="lazy").strategy == "lazy"
        with pytest.raises(ValueError, match="unknown strategy"):
            config.replace(strategy="psychic")

    def test_key_excludes_cache_knobs(self):
        """``cache`` is a no-op: two configs differing only in it answer
        queries identically, so they share an evaluation identity."""
        a = EngineConfig(cache=True)
        b = EngineConfig(cache=False)
        assert a.key() == b.key()
        assert EngineConfig(strategy="lazy").key() != a.key()

    def test_fields_are_exactly_the_knobs(self):
        assert [field.name for field in dataclasses.fields(EngineConfig)] == [
            "strategy",
            "plan",
            "exec_mode",
            "supplementary",
            "backend",
            "cache",
            "slow_query_ms",
            "join_algo",
        ]

    def test_cache_is_accepted_and_ignored(self):
        db = repro.open(
            source="p(a). q(X) :- p(X).", config=EngineConfig(cache=True)
        )
        assert db.config.cache is True
        assert db.holds("q(a)") is True
        assert db.submit("not p(a)").status == "committed"
        assert db.holds("q(a)") is False


SRC = pathlib.Path(repro.__file__).parent
KNOBS = {"strategy", "plan", "exec_mode", "supplementary", "join_algo"}


def seams():
    from repro.datalog.bottomup import compute_model
    from repro.datalog.magic import MagicEvaluator
    from repro.datalog.query import QueryEngine
    from repro.integrity.delta_eval import DeltaEvaluator
    from repro.service.server import DatabaseServer
    from repro.service.transactions import TransactionManager
    from repro.storage.engine import StorageEngine

    db = repro.DeductiveDatabase
    return [
        compute_model,
        db.engine,
        db.canonical_model,
        db.violated_constraints,
        db.all_constraints_satisfied,
        repro.MaintainedModel.__init__,
        repro.MaintainedModel.from_snapshot,
        QueryEngine.__init__,
        MagicEvaluator.__init__,
        repro.IntegrityChecker.__init__,
        DeltaEvaluator.__init__,
        TransactionManager.__init__,
        repro.ManagedDatabase.__init__,
        DatabaseServer.__init__,
        StorageEngine.recover,
    ]


def module_trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


class TestOneWayToConfigure:
    """The structural invariant: a seam learns its knobs from one
    ``config`` parameter, and only ``repro.config`` knows what a knob
    may be."""

    @pytest.mark.parametrize("seam", seams(), ids=lambda s: s.__qualname__)
    def test_seam_takes_config_and_no_loose_knob(self, seam):
        parameters = inspect.signature(seam).parameters
        assert "config" in parameters
        assert parameters["config"].default is None
        assert not KNOBS & set(parameters)

    def test_violated_constraints_uses_the_default_config(self):
        db = repro.DeductiveDatabase.from_source("p(a).")
        db.violated_constraints()
        assert list(db._engines) == [EngineConfig()]

    def test_config_module_is_a_leaf(self):
        tree = ast.parse((SRC / "config.py").read_text(encoding="utf-8"))
        imported = [
            name
            for node in ast.walk(tree)
            for name in imported_modules(node)
        ]
        assert imported
        assert not [name for name in imported if name.split(".")[0] == "repro"]

    def test_no_function_local_config_import(self):
        offenders = [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for path, tree in module_trees()
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(function)
            if "repro.config" in imported_modules(node)
        ]
        assert offenders == []


class TestSeamAcceptance:
    """Every public constructor seam accepts config= (spot checks)."""

    def test_query_engine(self):
        from repro.datalog.facts import FactStore
        from repro.datalog.program import Program
        from repro.datalog.query import QueryEngine

        engine = QueryEngine(
            FactStore(), Program(), config=EngineConfig(strategy="lazy")
        )
        assert engine.config.strategy == "lazy"

    def test_database_engine_memoizes_per_config(self):
        from repro.datalog.database import DeductiveDatabase

        db = DeductiveDatabase.from_source("p(a).")
        config = EngineConfig(strategy="lazy")
        assert db.engine(config=config) is db.engine(config=config)
        assert db.engine(config=config) is not db.engine(
            config=EngineConfig()
        )

    def test_integrity_checker(self):
        from repro import DeductiveDatabase, IntegrityChecker

        db = DeductiveDatabase.from_source("p(a).")
        checker = IntegrityChecker(db, config=EngineConfig(strategy="lazy"))
        assert checker.config.strategy == "lazy"

    def test_compute_model(self):
        from repro.datalog.bottomup import compute_model
        from repro.datalog.facts import FactStore
        from repro.datalog.program import Program, Rule
        from repro.logic.parser import parse_atom, parse_rule

        model = compute_model(
            FactStore([parse_atom("p(a)")]),
            Program([Rule.from_parsed(parse_rule("q(X) :- p(X)"))]),
            config=EngineConfig(exec_mode="tuple"),
        )
        assert model.contains(parse_atom("q(a)"))

    def test_managed_database(self):
        import repro

        db = repro.open(source="p(a).", config=EngineConfig(strategy="lazy"))
        assert db.config.strategy == "lazy"
        assert db.manager.config.strategy == "lazy"

    def test_loose_knobs_are_gone_not_ignored(self):
        from repro import DeductiveDatabase

        db = DeductiveDatabase.from_source("p(a). q(X) :- p(X).")
        with pytest.raises(TypeError):
            db.engine("magic")
        with pytest.raises(TypeError):
            db.engine(plan="source")
