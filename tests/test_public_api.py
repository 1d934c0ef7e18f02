"""The package's public surface: repro.open, repro.Database,
EngineConfig and the exported result types, as promised by __all__."""

import pytest

import repro


class TestAll:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_surface_is_exported(self):
        for name in (
            "open",
            "Database",
            "EngineConfig",
            "Transaction",
            "Session",
            "CommitResult",
            "CheckResult",
            "SatResult",
            "Violation",
            "StoreBackend",
            "BACKENDS",
        ):
            assert name in repro.__all__, name

    def test_database_is_the_managed_handle(self):
        assert repro.Database is repro.ManagedDatabase

    def test_version_has_one_source(self):
        """pyproject.toml declares no version of its own: the build
        reads ``repro.__version__``, so the two cannot drift."""
        import pathlib

        tomllib = pytest.importorskip("tomllib")  # stdlib from 3.11
        root = pathlib.Path(__file__).resolve().parent.parent
        with open(root / "pyproject.toml", "rb") as handle:
            pyproject = tomllib.load(handle)
        assert "version" not in pyproject["project"]
        assert "version" in pyproject["project"]["dynamic"]
        dynamic = pyproject["tool"]["setuptools"]["dynamic"]
        assert dynamic["version"] == {"attr": "repro.__version__"}
        assert isinstance(repro.__version__, str) and repro.__version__


class TestOpen:
    SOURCE = """
    leads(ann, sales).
    employee(ann).
    member(X, Y) :- leads(X, Y).
    forall X, Y: member(X, Y) -> employee(X).
    """

    def test_in_memory_round_trip(self):
        db = repro.open(source=self.SOURCE)
        assert db.query("member(ann, sales)") is True
        assert db.submit("leads(bob, hr)").status == "rejected"
        result = db.submit(["employee(bob)", "leads(bob, hr)"])
        assert result.status == "committed"
        assert db.holds("member(bob, hr)") is True

    def test_durable_round_trip(self, tmp_path):
        directory = tmp_path / "db"
        db = repro.open(directory, source=self.SOURCE)
        assert db.submit("employee(bob)").status == "committed"
        db.close()
        reopened = repro.open(directory)
        assert reopened.holds("employee(bob)") is True
        reopened.close()

    def test_config_threads_everywhere(self, tmp_path):
        config = repro.EngineConfig(strategy="magic", backend="sqlite")
        db = repro.open(source=self.SOURCE, config=config)
        assert db.config is config
        assert db.manager.checker.config is config
        assert type(db.database.facts).__name__ == "SqliteFactStore"
        assert db.query("member(ann, sales)") is True
        assert db.stats()["backend"] == "sqlite"

    def test_options_pass_through(self):
        db = repro.open(source=self.SOURCE, method="full", group_commit=False)
        assert db.manager.method == "full"
        assert db.manager.group_commit is False
