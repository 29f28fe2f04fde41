"""Tests for the interactive shell (`python -m repro`)."""

import io

import pytest

from repro.cli import main


def run_shell(script: str, *argv: str) -> tuple[int, str]:
    out = io.StringIO()
    status = main(list(argv), stdin=io.StringIO(script), stdout=out)
    return status, out.getvalue()


class TestStatements:
    def test_create_reports_summary(self):
        status, output = run_shell("CREATE (n:Post {lang: 'en'});\n")
        assert status == 0
        assert "1 nodes created" in output

    def test_read_query_prints_table(self):
        status, output = run_shell(
            "CREATE (n:Post {lang: 'en'});\nMATCH (p:Post) RETURN p.lang AS lang;\n"
        )
        assert status == 0
        assert "lang" in output and "'en'" in output

    def test_multiline_statement_buffers(self):
        status, output = run_shell(
            "CREATE (n:Post\n  {lang: 'en'})\n;\nMATCH (p:Post) RETURN count(*) AS n;\n"
        )
        assert status == 0
        assert "1" in output

    def test_trailing_statement_without_semicolon(self):
        status, output = run_shell("CREATE (n:Post)")
        assert status == 0
        assert "1 nodes created" in output

    def test_error_reported_and_nonzero_exit(self):
        status, output = run_shell("MATCH (n RETURN n;\n")
        assert status == 1
        assert "error:" in output

    def test_shell_keeps_going_after_error(self):
        status, output = run_shell("BROKEN;\nCREATE (n:X);\n")
        assert status == 1
        assert "1 nodes created" in output


class TestMetaCommands:
    def test_help(self):
        status, output = run_shell(":help\n")
        assert status == 0
        assert ":register" in output

    def test_register_and_views(self):
        status, output = run_shell(
            ":register MATCH (p:Post) RETURN p\n"
            "CREATE (n:Post);\n"
            ":views\n"
        )
        assert status == 0
        assert "registered view [0]" in output
        assert "1 distinct rows" in output

    def test_detach(self):
        status, output = run_shell(
            ":register MATCH (p:Post) RETURN p\n:detach 0\n:views\n"
        )
        assert status == 0
        assert "detached view [0]" in output
        assert "no views registered" in output

    def test_catalog(self):
        status, output = run_shell(
            ":register MATCH (p:Post) RETURN p\n"
            "CREATE (n:Post);\n"
            "MATCH (p:Post) RETURN p;\n"
            "MATCH (p:Post) RETURN count(*) AS n;\n"
            ":catalog\n"
        )
        assert status == 0
        assert "1 view root(s) servable" in output
        assert "subplan" not in output
        assert (
            "answered 1/2 one-shot queries from views "
            "(1 exact, 0 residual, 1 full evaluations)" in output
        )

    def test_explain(self):
        status, output = run_shell(":explain MATCH (p:Post) RETURN p\n")
        assert status == 0
        assert "GRA" in output and "FRA" in output

    def test_profile(self):
        status, output = run_shell(
            ":register MATCH (p:Post) RETURN p\nCREATE (x:Post);\n:profile 0\n"
        )
        assert status == 0
        assert "Production" in output

    def test_index_management(self):
        status, output = run_shell(":index Tag name\n:indexes\n")
        assert status == 0
        assert output.count("(:Tag {name})") == 2

    def test_stats(self):
        status, output = run_shell("CREATE (a:X)-[:R]->(b:Y);\n:stats\n")
        assert status == 0
        assert "2 vertices, 1 edges" in output
        assert ":X  1" in output

    def test_quit_stops_processing(self):
        status, output = run_shell(":quit\nCREATE (n:X);\n")
        assert status == 0
        assert "nodes created" not in output

    def test_unknown_command(self):
        status, output = run_shell(":bogus\n")
        assert status == 1
        assert "unknown command" in output

    def test_checkpoint_requires_db(self):
        status, output = run_shell(":checkpoint\n")
        assert "not a durable store" in output

    def test_shards_is_an_unknown_command(self):
        status, output = run_shell(":shards\n")
        assert status == 1
        assert "unknown command" in output


class TestOptions:
    def test_usage_lists_no_workers_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        usage = capsys.readouterr().out
        assert "--batch-transactions" in usage
        assert "workers" not in usage

    def test_workers_option_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_shell("CREATE (n:Post);\n", "--workers", "2")
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err


class TestDurableMode:
    def test_db_mode_persists_across_sessions(self, tmp_path):
        db = str(tmp_path / "shelldb")
        status, _ = run_shell("CREATE (n:Post {lang: 'en'});\n", "--db", db)
        assert status == 0
        status, output = run_shell(
            "MATCH (p:Post) RETURN p.lang AS lang;\n", "--db", db
        )
        assert status == 0
        assert "'en'" in output

    def test_checkpoint_in_db_mode(self, tmp_path):
        db = str(tmp_path / "shelldb")
        status, output = run_shell(
            "CREATE (n:Post);\n:checkpoint\n", "--db", db
        )
        assert status == 0
        assert "checkpointed" in output
        assert (tmp_path / "shelldb" / "snapshot.jsonl").exists()

    def test_file_mode(self, tmp_path):
        script = tmp_path / "script.cypher"
        script.write_text(
            "CREATE (n:Post {lang: 'fr'});\n"
            "MATCH (p:Post) RETURN p.lang AS lang;\n"
        )
        out = io.StringIO()
        status = main(["--file", str(script)], stdout=out)
        assert status == 0
        assert "'fr'" in out.getvalue()
