"""Tests for the command-line interface."""

import pytest

from repro.cli import main

DB_SOURCE = """
employee(ann).
leads(ann, sales).
member(X, Y) :- leads(X, Y).
forall X, Y: member(X, Y) -> employee(X).
exists X: employee(X).
"""

SAT_SOURCE = """
exists X: p(X).
forall X: p(X) -> q(X).
"""

UNSAT_SOURCE = """
exists X: p(X).
forall X: not p(X).
"""


@pytest.fixture
def db_file(tmp_path):
    path = tmp_path / "db.dl"
    path.write_text(DB_SOURCE)
    return str(path)


class TestCheck:
    def test_ok_update_exit_zero(self, db_file, capsys):
        code = main(["check", db_file, "--update", "employee(bob)"])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_violation_exit_one(self, db_file, capsys):
        code = main(["check", db_file, "--update", "leads(bob, hr)"])
        assert code == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out
        assert "c1" in out

    def test_transaction_updates(self, db_file):
        code = main(
            [
                "check",
                db_file,
                "--update",
                "employee(bob)",
                "--update",
                "leads(bob, hr)",
            ]
        )
        assert code == 0

    def test_method_selection(self, db_file):
        for method in ("full", "nicolas", "interleaved", "lloyd"):
            code = main(
                ["check", db_file, "--method", method, "--update",
                 "employee(bob)"]
            )
            assert code == 0, method

    def test_stats_flag(self, db_file, capsys):
        main(["check", db_file, "--update", "employee(bob)", "--stats"])
        assert "# " in capsys.readouterr().out

    def test_apply_prints_updated_source(self, db_file, capsys):
        code = main(
            ["check", db_file, "--update", "employee(bob)", "--apply"]
        )
        assert code == 0
        assert "employee(bob)." in capsys.readouterr().out

    def test_apply_skipped_on_violation(self, db_file, capsys):
        code = main(
            ["check", db_file, "--update", "leads(bob, hr)", "--apply"]
        )
        assert code == 1
        assert "leads(bob, hr)." not in capsys.readouterr().out


class TestSatcheck:
    def test_satisfiable_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "sat.dl"
        path.write_text(SAT_SOURCE)
        code = main(["satcheck", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "satisfiable" in out
        assert "finite model" in out

    def test_unsatisfiable_exit_one(self, tmp_path, capsys):
        path = tmp_path / "unsat.dl"
        path.write_text(UNSAT_SOURCE)
        code = main(["satcheck", str(path)])
        assert code == 1
        assert "unsatisfiable" in capsys.readouterr().out

    def test_unknown_exit_two(self, tmp_path):
        path = tmp_path / "inf.dl"
        path.write_text(
            """
            exists X: p(X).
            forall X: p(X) -> exists Y: p(Y) and r(X, Y).
            forall X: not r(X, X).
            forall X, Y: r(X, Y) -> not r(Y, X).
            forall [X, Y, Z]: r(X, Y) and r(Y, Z) -> r(X, Z).
            """
        )
        code = main(["satcheck", str(path), "--budget", "3"])
        assert code == 2

    def test_no_reuse_mode(self, tmp_path):
        path = tmp_path / "serial.dl"
        path.write_text(
            """
            exists X: p(X).
            forall X: p(X) -> exists Y: p(Y) and r(X, Y).
            """
        )
        assert main(["satcheck", str(path)]) == 0
        assert (
            main(
                ["satcheck", str(path), "--no-reuse", "--budget", "4",
                 "--no-deepening"]
            )
            == 2
        )

    def test_trace_flag(self, tmp_path, capsys):
        path = tmp_path / "sat.dl"
        path.write_text(SAT_SOURCE)
        main(["satcheck", str(path), "--trace"])
        assert "trace:" in capsys.readouterr().out


class TestKnobValidation:
    """Bad --plan/--strategy values must die with a one-line error
    listing the accepted values, not a traceback from deep inside
    evaluation."""

    def test_bad_plan_rejected_up_front(self, db_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", db_file, "--update", "employee(bob)",
                  "--plan", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "greedy" in err and "source" in err

    def test_bad_strategy_rejected_up_front(self, db_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", db_file, "member(ann, sales)",
                  "--strategy", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "magic" in err and "lazy" in err

    def test_strategy_knob_on_check(self, db_file):
        for strategy in ("lazy", "topdown", "model", "magic"):
            code = main(
                ["check", db_file, "--update", "employee(bob)",
                 "--strategy", strategy]
            )
            assert code == 0, strategy

    def test_strategy_knob_on_query(self, db_file, capsys):
        code = main(
            ["query", db_file, "member(ann, sales)", "--strategy", "magic"]
        )
        assert code == 0
        assert "true" in capsys.readouterr().out

    def test_magic_detects_violation(self, db_file):
        code = main(
            ["check", db_file, "--update", "leads(bob, hr)",
             "--strategy", "magic"]
        )
        assert code == 1

    def test_no_supplementary_oracle_agrees(self, db_file, capsys):
        """--no-supplementary selects the classic rewrite; verdicts and
        query answers must not change."""
        for extra in ([], ["--no-supplementary"]):
            assert main(
                ["check", db_file, "--update", "employee(bob)",
                 "--strategy", "magic", *extra]
            ) == 0
            assert main(
                ["check", db_file, "--update", "leads(bob, hr)",
                 "--strategy", "magic", *extra]
            ) == 1
            assert main(
                ["query", db_file, "member(ann, sales)",
                 "--strategy", "magic", *extra]
            ) == 0

    def test_no_supplementary_accepted_without_magic(self, db_file):
        # The flag is inert for other strategies but must parse.
        assert main(
            ["query", db_file, "member(ann, sales)", "--no-supplementary"]
        ) == 0


class TestQueryAndModel:
    def test_query_true(self, db_file, capsys):
        code = main(["query", db_file, "member(ann, sales)"])
        assert code == 0
        assert "true" in capsys.readouterr().out

    def test_query_false(self, db_file, capsys):
        code = main(["query", db_file, "member(bob, sales)"])
        assert code == 1
        assert "false" in capsys.readouterr().out

    def test_query_quantified(self, db_file):
        assert (
            main(["query", db_file, "forall X, Y: leads(X, Y) -> member(X, Y)"])
            == 0
        )

    def test_model_lists_derived_facts(self, db_file, capsys):
        code = main(["model", db_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "member(ann, sales)" in out
        assert "leads(ann, sales)" in out


class TestBackendAndCacheKnobs:
    def test_backend_knob_answers_agree(self, db_file, capsys):
        for backend in ("dict", "sqlite"):
            assert (
                main(
                    ["query", db_file, "member(ann, sales)",
                     "--backend", backend]
                )
                == 0
            )
        # Both backends printed the same verdict.
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["true", "true"]

    def test_backend_knob_on_check_and_model(self, db_file, capsys):
        assert (
            main(["check", db_file, "--update", "employee(bob)",
                  "--backend", "sqlite"])
            == 0
        )
        assert main(["model", db_file, "--backend", "sqlite"]) == 0
        assert "member(ann, sales)" in capsys.readouterr().out

    def test_bad_backend_rejected_up_front(self, db_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", db_file, "member(ann, sales)",
                  "--backend", "postgres"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "dict" in err and "sqlite" in err

    def test_cache_flag_is_gone(self, db_file, capsys):
        for command, *rest in (
            ["query", "member(ann, sales)", "--cache"],
            ["query", "member(ann, sales)", "--no-cache"],
            ["check", "--update", "employee(bob)", "--cache"],
            ["serve", "--cache"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main([command, db_file, *rest])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestJsonFormat:
    """``--format json`` emits one JSON object in the service
    protocol's schema (one serializer, repro.serialize, for both)."""

    def test_check_ok_json(self, db_file, capsys):
        import json

        code = main(
            ["check", db_file, "--update", "employee(bob)",
             "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["method"] == "bdm"
        assert payload["violations"] == []
        assert payload["updates"] == ["employee(bob)"]
        assert "lookups" in payload["stats"]

    def test_check_violation_json_carries_witnesses(self, db_file, capsys):
        import json

        code = main(
            ["check", db_file, "--update", "leads(bob, hr)",
             "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["ok"] is False
        assert payload["violations"] == [
            {
                "constraint": "c1",
                "instance": "employee(bob)",
                "trigger": "member(bob, hr)",
            }
        ]

    def test_check_json_matches_service_schema(self, db_file, capsys):
        """The CLI payload parses as the same shape the socket commit
        response embeds under ``check``."""
        import json

        main(["check", db_file, "--update", "leads(bob, hr)",
              "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"ok", "method", "violations", "stats",
                                "updates"}

    def test_check_apply_json_carries_updated_source(self, db_file, capsys):
        import json

        code = main(
            ["check", db_file, "--update", "employee(bob)", "--apply",
             "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "employee(bob)." in payload["applied"]

    def test_check_apply_json_omitted_on_violation(self, db_file, capsys):
        import json

        code = main(
            ["check", db_file, "--update", "leads(bob, hr)", "--apply",
             "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert "applied" not in payload

    def test_query_json(self, db_file, capsys):
        import json

        code = main(
            ["query", db_file, "member(ann, sales)", "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload == {"formula": "member(ann, sales)", "value": True}

    def test_query_json_false(self, db_file, capsys):
        import json

        code = main(
            ["query", db_file, "member(bob, sales)", "--format", "json"]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().out)["value"] is False

    def test_bad_format_rejected_up_front(self, db_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", db_file, "employee(ann)", "--format", "yaml"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestServeAndShell:
    """The service verbs: serve hosts a root over a socket; shell
    drives it with NDJSON output."""

    @pytest.fixture
    def live_server(self, tmp_path):
        from repro.service.server import DatabaseServer

        server = DatabaseServer(
            tmp_path / "root", port=0, sync=False
        ).start()
        yield server
        server.close()

    def test_shell_session_roundtrip(
        self, live_server, db_file, capsys, monkeypatch
    ):
        import io
        import json

        host, port = live_server.address
        commands = "\n".join(
            [
                f"open hr {db_file}",
                "begin",
                "stage employee(bob)",
                "commit",
                "query employee(bob)",
                "begin",
                "stage leads(ghost, hr)",
                "commit",
                "quit",
            ]
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(commands + "\n"))
        code = main(["shell", "--host", host, "--port", str(port)])
        assert code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("{")
        ]
        statuses = [l["status"] for l in lines if "status" in l]
        assert statuses == ["committed", "rejected"]
        values = [l["value"] for l in lines if "value" in l]
        assert values == [True]

    def test_shell_reports_errors_without_dying(
        self, live_server, capsys, monkeypatch
    ):
        import io
        import json

        host, port = live_server.address
        commands = "begin\nnonsense\nping\nquit\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(commands))
        code = main(["shell", "--host", host, "--port", str(port)])
        assert code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("{")
        ]
        assert [l["ok"] for l in lines] == [False, False, True]

    def test_serve_runs_until_interrupted(self, tmp_path, monkeypatch, capsys):
        """``repro serve`` binds, announces its address, and shuts down
        cleanly on KeyboardInterrupt."""
        from repro.service import server as server_module

        started = {}
        original_serve = server_module.DatabaseServer.serve_forever

        def fake_serve(self):
            started["address"] = self.address
            raise KeyboardInterrupt

        monkeypatch.setattr(
            server_module.DatabaseServer, "serve_forever", fake_serve
        )
        code = main(["serve", str(tmp_path / "root"), "--port", "0"])
        assert code == 0
        assert started["address"][1] > 0
        out = capsys.readouterr().out
        assert "listening on" in out
        assert original_serve is not fake_serve

    def test_shell_unreachable_server_is_one_line_error(self, capsys):
        code = main(["shell", "--port", "1"])  # nothing listens on 1
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot connect")
        assert "Traceback" not in err

    def test_shell_failed_initial_open_is_one_line_error(
        self, live_server, capsys, monkeypatch
    ):
        import io

        host, port = live_server.address
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        # ".hidden" fails the server's database-name validation.
        code = main(
            ["shell", "--host", host, "--port", str(port), "--db",
             ".hidden"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "open '.hidden' failed" in err
        assert "Traceback" not in err
