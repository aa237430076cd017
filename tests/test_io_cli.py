"""Tests for table serialisation and the command-line interface."""

import pytest

from repro.cli import main
from repro.core.fd import FDSet
from repro.datagen.office import office_table
from repro.io import table_from_csv, table_from_json, table_to_csv, table_to_json


class TestCsv:
    def test_round_trip(self, tmp_path):
        t = office_table()
        path = tmp_path / "office.csv"
        table_to_csv(t, path)
        back = table_from_csv(path)
        assert back.schema == t.schema
        assert back.ids() == t.ids()
        assert back.weights() == t.weights()
        # Values come back as strings; equality patterns are preserved.
        assert back[1][0] == "HQ"

    def test_round_trip_via_text(self):
        t = office_table()
        text = table_to_csv(t)
        back = table_from_csv("unused", text=text)
        assert len(back) == 4

    def test_string_ids_preserved(self):
        from repro.core.table import Table

        t = Table(("A",), {"row-1": ("x",)}, {"row-1": 2.0})
        back = table_from_csv("unused", text=table_to_csv(t))
        assert back.ids() == ("row-1",)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            table_from_csv("unused", text="A,B\nx,y\n")


class TestJson:
    def test_round_trip(self, tmp_path):
        t = office_table()
        path = tmp_path / "office.json"
        table_to_json(t, path)
        back = table_from_json(path)
        assert back.schema == t.schema
        assert back.weights() == t.weights()

    def test_name_preserved(self):
        t = office_table()
        back = table_from_json("unused", text=table_to_json(t))
        assert back.name == "Office"


@pytest.fixture
def office_csv(tmp_path):
    path = tmp_path / "office.csv"
    table_to_csv(office_table(), path)
    return str(path)


OFFICE_FDS = "facility -> city; facility room -> floor"


class TestCli:
    def test_classify_tractable(self, capsys):
        assert main(["classify", OFFICE_FDS]) == 0
        out = capsys.readouterr().out
        assert "PTIME" in out
        assert "common lhs" in out

    def test_classify_hard(self, capsys):
        assert main(["classify", "A -> B; B -> C"]) == 0
        out = capsys.readouterr().out
        assert "APX-complete" in out
        assert "Lemma" in out

    def test_s_repair(self, office_csv, capsys, tmp_path):
        out_path = tmp_path / "repair.csv"
        assert main(["s-repair", office_csv, OFFICE_FDS, "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "deleted weight: 2" in out
        repaired = table_from_csv(out_path)
        assert len(repaired) == 2

    def test_s_repair_approx(self, office_csv, capsys):
        assert main(
            ["s-repair", office_csv, OFFICE_FDS, "--guarantee", "fast"]
        ) == 0
        out = capsys.readouterr().out
        assert "2-approximation" in out

    def test_u_repair(self, office_csv, capsys):
        assert main(["u-repair", office_csv, OFFICE_FDS]) == 0
        out = capsys.readouterr().out
        assert "update distance: 2" in out
        assert "optimal" in out

    def test_mpd(self, tmp_path, capsys):
        from repro.core.table import Table

        t = Table.from_rows(
            ("A", "B"), [("a", "1"), ("a", "2")], weights=[0.9, 0.6]
        )
        path = tmp_path / "prob.csv"
        table_to_csv(t, path)
        assert main(["mpd", str(path), "A -> B"]) == 0
        out = capsys.readouterr().out
        assert "probability:" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_assess(self, office_csv, capsys):
        assert main(["assess", office_csv, OFFICE_FDS]) == 0
        out = capsys.readouterr().out
        assert "conflicting pairs: 2" in out
        assert "conflict components: 1" in out
        assert "bracket" in out
        assert "PTIME" in out

    def test_assess_global(self, office_csv, capsys):
        assert main(["assess", office_csv, OFFICE_FDS, "--global"]) == 0
        out = capsys.readouterr().out
        assert "conflicting pairs: 2" in out

    def test_s_repair_guarantee_fast(self, office_csv, capsys):
        assert main(["s-repair", office_csv, OFFICE_FDS, "--guarantee", "fast"]) == 0
        out = capsys.readouterr().out
        assert "2-approximation" in out

    def test_s_repair_portfolio_parallel(self, office_csv, capsys, tmp_path):
        out_path = tmp_path / "repair.csv"
        assert (
            main(
                [
                    "s-repair", office_csv, OFFICE_FDS,
                    "--portfolio", "--parallel", "2", "--out", str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "conflict components: 1" in out
        assert "deleted weight: 2" in out
        assert len(table_from_csv(out_path)) == 2

    def test_s_repair_global_path(self, office_csv, capsys):
        assert main(["s-repair", office_csv, OFFICE_FDS, "--global"]) == 0
        out = capsys.readouterr().out
        assert "deleted weight: 2" in out

    def test_u_repair_guarantee_optimal(self, office_csv, capsys):
        assert main(["u-repair", office_csv, OFFICE_FDS, "--guarantee", "optimal"]) == 0
        out = capsys.readouterr().out
        assert "update distance: 2" in out
        assert "optimal" in out


class TestSerialisationSemantics:
    def test_fresh_values_serialise_as_labels(self):
        """Labelled nulls survive JSON as their labels (plain strings):
        the equality pattern within one file is preserved, but identity
        with other in-memory nulls is intentionally not."""
        from repro.core.table import FreshValue, Table

        null = FreshValue("⊥x")
        t = Table(("A", "B"), {1: (null, 1), 2: (null, 2)})
        back = table_from_json("x", text=table_to_json(t))
        assert back[1][0] == back[2][0] == "⊥x"

    def test_cli_mpd_out_roundtrip(self, tmp_path, capsys):
        from repro.core.table import Table

        t = Table.from_rows(("A", "B"), [("a", "1"), ("a", "2")], weights=[0.9, 0.6])
        src = tmp_path / "prob.csv"
        out = tmp_path / "mpd.csv"
        table_to_csv(t, src)
        assert main(["mpd", str(src), "A -> B", "--out", str(out)]) == 0
        capsys.readouterr()
        result = table_from_csv(out)
        assert len(result) == 1 and result[1] == ("a", "1")

    def test_cli_u_repair_out(self, office_csv, tmp_path, capsys):
        out = tmp_path / "update.csv"
        assert main(["u-repair", office_csv, OFFICE_FDS, "--out", str(out)]) == 0
        capsys.readouterr()
        result = table_from_csv(out)
        assert len(result) == 4  # updates preserve all identifiers


class TestCliInputDiagnostics:
    """Bad inputs end in one ``error:`` line on stderr and exit code 2,
    never a traceback; failures after the inputs parsed still raise."""

    @staticmethod
    def _csv(tmp_path, body):
        path = tmp_path / "t.csv"
        path.write_text("id,A,B,weight\n" + body, encoding="utf-8")
        return str(path)

    @staticmethod
    def _single_error(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    def test_malformed_fd_set(self, capsys):
        assert main(["classify", "A -> "]) == 2
        assert "empty rhs" in self._single_error(capsys)

    def test_fd_attribute_missing_from_header(self, tmp_path, capsys):
        path = self._csv(tmp_path, "1,a,b,1\n2,a,c,1\n")
        assert main(["s-repair", path, "A -> Z"]) == 2
        assert "Z" in self._single_error(capsys)

    @pytest.mark.parametrize("weight,why", [
        ("heavy", "non-numeric weight 'heavy'"),
        ("nan", "non-finite weight nan"),
        ("inf", "non-finite weight inf"),
    ])
    def test_bad_csv_weight(self, tmp_path, capsys, weight, why):
        path = self._csv(tmp_path, f"1,a,b,1\n2,a,c,{weight}\n")
        assert main(["s-repair", path, "A -> B"]) == 2
        assert why in self._single_error(capsys)

    def test_missing_table_and_swapped_arguments(self, tmp_path, capsys):
        assert main(["assess", str(tmp_path / "nope.csv"), "A -> B"]) == 2
        self._single_error(capsys)
        path = self._csv(tmp_path, "1,a,b,1\n")
        assert main(["s-repair", "A -> B", path]) == 2
        self._single_error(capsys)

    def test_errors_after_parsing_propagate(self, tmp_path, monkeypatch):
        import repro.cli

        def boom(*_args, **_kwargs):
            raise ValueError("solver failure")

        monkeypatch.setattr(repro.cli, "clean", boom)
        path = self._csv(tmp_path, "1,a,b,1\n2,a,c,1\n")
        with pytest.raises(ValueError, match="solver failure"):
            main(["s-repair", path, "A -> B"])
