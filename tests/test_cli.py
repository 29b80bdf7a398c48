import json
import xml.dom.minidom

import numpy as np
import pytest

from imputeq import cli
from imputeq.cli import main


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(0)
    n = 120
    a = rng.normal(50, 10, n)
    b = a * 1.5 + rng.normal(0, 4, n)
    color = np.array(["red", "green", "blue"])[rng.integers(0, 3, n)]
    rows = []
    for i in range(n):
        av = "" if rng.random() < 0.2 else f"{a[i]:.4f}"
        bv = "" if rng.random() < 0.3 else f"{b[i]:.4f}"
        rows.append(f"{av},{bv},{color[i]}")
    data = tmp_path / "data.csv"
    data.write_text("a,b,color\n" + "\n".join(rows) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data": {"path": str(data)},
        "imputers": [
            {"id": "mean", "family": "simple",
             "params": {"statistic": "mean"}},
            {"id": "iter_ridge", "family": "iterative",
             "params": {"estimator": "ridge"}},
        ],
        "threshold": 0.5,
        "seed": 11,
    }))
    return tmp_path, str(config), str(data)


class TestAssess:
    def test_writes_versioned_records(self, workspace):
        tmp, config, data = workspace
        out = str(tmp / "q.json")
        assert main(["assess", "--config", config, "--out", out]) == 0
        doc = json.loads((tmp / "q.json").read_text())
        assert doc["format"] == "imputeq-quality-records"
        assert doc["schema_version"] == 1
        assert {r["feature"] for r in doc["records"]} == {"a", "b", "color"}
        for r in doc["records"]:
            assert 0.0 <= r["omega"] <= 1.0

    def test_repeat_runs_byte_identical(self, workspace):
        tmp, config, data = workspace
        out1, out2 = str(tmp / "q1.json"), str(tmp / "q2.json")
        assert main(["assess", "--config", config, "--out", out1]) == 0
        assert main(["assess", "--config", config, "--out", out2]) == 0
        assert (tmp / "q1.json").read_bytes() == (tmp / "q2.json").read_bytes()

    def test_seed_flag_changes_output(self, workspace):
        tmp, config, data = workspace
        out1, out2 = str(tmp / "q1.json"), str(tmp / "q2.json")
        main(["assess", "--config", config, "--out", out1])
        main(["assess", "--config", config, "--out", out2, "--seed", "99"])
        assert (tmp / "q1.json").read_bytes() != (tmp / "q2.json").read_bytes()

    def test_non_finite_cells_count_as_missing(self, workspace):
        tmp, config, data = workspace
        lines = (tmp / "data.csv").read_text().splitlines()
        lines[1] = "inf," + lines[1].split(",", 1)[1]
        lines[2] = "nan," + lines[2].split(",", 1)[1]
        (tmp / "data.csv").write_text("\n".join(lines) + "\n")
        out = str(tmp / "q.json")
        assert main(["assess", "--config", config, "--out", out]) == 0
        doc = json.loads((tmp / "q.json").read_text())
        for r in doc["records"]:
            assert 0.0 <= r["delta"] <= 1.0
            assert 0.0 <= r["omega"] <= 1.0


class TestFitApply:
    def test_apply_after_fit_fills_everything(self, workspace):
        tmp, config, data = workspace
        pipe = str(tmp / "pipe.json")
        out = str(tmp / "imputed.csv")
        assert main(["fit", "--config", config, "--out", pipe]) == 0
        assert main(["apply", "--pipeline", pipe, "--data", data,
                     "--out", out]) == 0
        lines = (tmp / "imputed.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert set(header) <= {"a", "b", "color"}
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(header)
            assert all(c != "" for c in cells)

    @pytest.mark.parametrize("rows", [",61.5,red", ",61.5,red\n,80.2,blue"],
                             ids=["one_row", "two_rows"])
    def test_apply_with_all_blank_numeric_column(self, workspace, rows):
        tmp, config, data = workspace
        pipe = str(tmp / "pipe.json")
        assert main(["fit", "--config", config, "--out", pipe]) == 0
        batch = tmp / "batch.csv"
        batch.write_text("a,b,color\n" + rows + "\n")
        out = tmp / "o.csv"
        assert main(["apply", "--pipeline", pipe, "--data", str(batch),
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert "a" in header
        for line, raw in zip(lines[1:], rows.splitlines()):
            cells = dict(zip(header, line.split(",")))
            assert all(c != "" for c in cells.values())
            assert float(cells["b"]) == float(raw.split(",")[1])

    def test_apply_reads_the_sentinels_of_the_fit_config(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 80
        a = rng.normal(50, 10, n)
        b = a * 1.5 + rng.normal(0, 4, n)
        cells = ["-999" if i % 5 == 0 else f"{a[i]:.4f}" for i in range(n)]
        data = tmp_path / "data.csv"
        data.write_text("a,b\n" + "\n".join(
            f"{c},{b[i]:.4f}" for i, c in enumerate(cells)) + "\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "data": {"path": str(data), "missing_sentinels": ["", "-999"]},
            "imputers": [{"id": "mean", "family": "simple",
                          "params": {"statistic": "mean"}}],
            "threshold": 0.0,
            "seed": 3,
        }))
        pipe, out = str(tmp_path / "pipe.json"), tmp_path / "o.csv"
        assert main(["fit", "--config", str(config), "--out", pipe]) == 0
        assert main(["apply", "--pipeline", pipe, "--data", str(data),
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "a"
        got = np.array([float(line.split(",")[0]) for line in lines[1:]])
        held = np.arange(n) % 5 != 0
        observed = np.array([float(c) for c in cells if c != "-999"])
        np.testing.assert_array_equal(got[held], observed)
        assert (got[~held] >= observed.min()).all()
        assert (got[~held] <= observed.max()).all()

    def test_apply_with_wrong_columns_is_data_error(self, workspace, capsys):
        tmp, config, data = workspace
        pipe = str(tmp / "pipe.json")
        main(["fit", "--config", config, "--out", pipe])
        bad = tmp / "bad.csv"
        bad.write_text("x,y\n1,2\n3,4\n")
        rc = main(["apply", "--pipeline", pipe, "--data", str(bad),
                   "--out", str(tmp / "o.csv")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "SchemaMismatch"

    def test_apply_with_corrupt_pipeline_is_data_error(self, workspace,
                                                       capsys):
        tmp, config, data = workspace
        bad = tmp / "pipe.json"
        bad.write_text("{\"format\": \"imputeq-pipeline\"}")
        rc = main(["apply", "--pipeline", str(bad), "--data", data,
                   "--out", str(tmp / "o.csv")])
        assert rc == 3

    @pytest.mark.parametrize("field", ["dependencies", "labels"])
    def test_apply_with_list_where_object_expected_is_data_error(
        self, workspace, capsys, field
    ):
        tmp, config, data = workspace
        pipe = tmp / "pipe.json"
        assert main(["fit", "--config", config, "--out", str(pipe)]) == 0
        doc = json.loads(pipe.read_text())
        if field == "dependencies":
            doc["dependencies"] = ["a", "b"]
        else:
            color = next(s for s in doc["schema"] if s["name"] == "color")
            color["labels"] = ["red", "green", "blue"]
        pipe.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["apply", "--pipeline", str(pipe), "--data", data,
                   "--out", str(tmp / "o.csv")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "CorruptModel"

    @pytest.fixture
    def mean_plan(self, tmp_path):
        """A mean-roster plan fit on a 60-row two-column CSV."""
        rng = np.random.default_rng(3)
        rows = [f"{'' if i % 4 == 0 else f'{v:.3f}'},{w:.3f}"
                for i, (v, w) in enumerate(rng.normal(0, 1, (60, 2)))]
        data = tmp_path / "data.csv"
        data.write_text("a,b\n" + "\n".join(rows) + "\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "data": {"path": str(data)},
            "imputers": [{"id": "mean", "family": "simple",
                          "params": {"statistic": "mean"}}],
        }))
        pipe = tmp_path / "pipe.json"
        assert main(["fit", "--config", str(config), "--out", str(pipe)]) == 0
        return pipe, str(data)

    @pytest.mark.parametrize("field,value", [
        ("target_column", "zz"),
        ("predictor_columns", ["zz"]),
        ("rounding_rule", "bogus"),
        ("rounding_rule", "adaptive_binary"),
    ])
    def test_apply_with_damaged_fitted_imputer_is_data_error(
        self, mean_plan, capsys, field, value
    ):
        pipe, data = mean_plan
        doc = json.loads(pipe.read_text())
        fitted = next(f for f in doc["fitted"] if f["target_column"] == "a")
        fitted[field] = value
        pipe.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["apply", "--pipeline", str(pipe), "--data", data,
                   "--out", str(pipe.parent / "o.csv")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "CorruptModel"


class TestGraph:
    def test_emits_predecessor_dictionary(self, workspace):
        tmp, config, data = workspace
        out = str(tmp / "deps.json")
        assert main(["graph", "--config", config, "--out", out]) == 0
        deps = json.loads((tmp / "deps.json").read_text())
        assert set(deps) == {"a", "b", "color"}
        for preds in deps.values():
            assert isinstance(preds, list)


class TestRecommendM:
    def test_prints_worked_example(self, capsys):
        assert main(["recommend-m", "--gamma", "0.5",
                     "--efficiency", "0.95"]) == 0
        assert capsys.readouterr().out.strip() == "10"

    def test_underscore_alias(self, capsys):
        assert main(["recommend_m", "--gamma", "0.99",
                     "--efficiency", "0.95"]) == 0
        assert capsys.readouterr().out.strip() == "19"

    def test_bad_efficiency_is_config_error(self, capsys):
        rc = main(["recommend-m", "--gamma", "0.5", "--efficiency", "1.2"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InvalidArgument"


class TestReport:
    def test_renders_svg_and_summary(self, workspace, capsys):
        tmp, config, data = workspace
        records = str(tmp / "q.json")
        main(["assess", "--config", config, "--out", records])
        capsys.readouterr()
        out = str(tmp / "chart.svg")
        assert main(["report", "--records", records, "--out", out]) == 0
        dom = xml.dom.minidom.parse(out)
        assert dom.documentElement.tagName == "svg"
        printed = capsys.readouterr().out
        assert "features kept" in printed

    def test_missing_records_file_is_data_error(self, tmp_path, capsys):
        rc = main(["report", "--records", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "c.svg")])
        assert rc == 3

    def test_wrong_document_format_rejected(self, tmp_path, capsys):
        bad = tmp_path / "q.json"
        bad.write_text(json.dumps({"format": "other", "schema_version": 1}))
        rc = main(["report", "--records", str(bad),
                   "--out", str(tmp_path / "c.svg")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "VersionMismatch"

    def test_records_document_not_an_object_is_data_error(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "q.json"
        bad.write_text(json.dumps([{"format": "imputeq-quality-records"}]))
        rc = main(["report", "--records", str(bad),
                   "--out", str(tmp_path / "c.svg")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "CorruptModel"


class TestAudit:
    def test_complete_data_fast_path(self, tmp_path):
        rng = np.random.default_rng(1)
        n = 60
        data = tmp_path / "d.csv"
        rows = [f"{v:.4f},{w:.4f}" for v, w in
                zip(rng.normal(0, 1, n), rng.normal(5, 2, n))]
        data.write_text("p,q\n" + "\n".join(rows) + "\n")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "data": {"path": str(data)},
            "imputers": [{"id": "mean", "family": "simple",
                          "params": {"statistic": "mean"}}],
        }))
        out = str(tmp_path / "audit.json")
        assert main(["audit", "--config", str(config), "--out", out,
                     "--levels", "0"]) == 0
        doc = json.loads((tmp_path / "audit.json").read_text())
        assert doc["format"] == "imputeq-audit"
        assert doc["lower_is_better"] is True
        # nothing missing at level 0: every feature is skipped
        for report in doc["reports"]:
            assert all(f["skipped"] for f in report["per_feature"])
        assert {r["strategy"] for r in doc["reports"]} == {
            "mean", "apprandom", "iqa",
        }

    def test_bad_levels_string_is_config_error(self, workspace, capsys):
        tmp, config, data = workspace
        rc = main(["audit", "--config", config,
                   "--out", str(tmp / "a.json"), "--levels", "lots"])
        assert rc == 2

    def test_user_imputer_named_iqa_is_config_error(self, workspace,
                                                      capsys):
        tmp, _, data = workspace
        config = tmp / "c.json"
        config.write_text(json.dumps({
            "data": {"path": data},
            "imputers": [
                {"id": "mean", "family": "simple",
                 "params": {"statistic": "mean"}},
                {"id": "iqa", "family": "simple",
                 "params": {"statistic": "median"}},
            ],
        }))
        rc = main(["audit", "--config", str(config),
                   "--out", str(tmp / "a.json"), "--levels", "0"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "SchemaError"
        assert err["path"] == "imputers[1].id"
        assert not (tmp / "a.json").exists()

    def test_csv_format(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 80
        data = tmp_path / "d.csv"
        rows = [f"{v:.4f}" for v in rng.normal(0, 1, n)]
        data.write_text("p\n" + "\n".join(rows) + "\n")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "data": {"path": str(data)},
            "imputers": [{"id": "mean", "family": "simple",
                          "params": {"statistic": "mean"}}],
        }))
        out = str(tmp_path / "audit.csv")
        assert main(["audit", "--config", str(config), "--out", out,
                     "--levels", "0", "--format", "csv"]) == 0
        text = (tmp_path / "audit.csv").read_text()
        assert text.startswith("missingness=0")


class TestErrorChannels:
    def test_missing_config_is_data_error(self, tmp_path, capsys):
        rc = main(["assess", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "q.json")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DataIoError"

    def test_schema_error_carries_path(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "imputers": [{"id": "m", "family": "simple",
                          "params": {"statistic": "mean"}}],
            "threshold": 7,
        }))
        rc = main(["assess", "--config", str(config),
                   "--out", str(tmp_path / "q.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "SchemaError"
        assert err["path"] == "threshold"

    @pytest.mark.parametrize("graph", [
        {"a": ["zz"]}, {"zz": ["a"]}, {"a": ["a"]},
    ])
    def test_bad_inline_dependency_dict_is_config_error(self, workspace,
                                                          capsys, graph):
        tmp, config, data = workspace
        doc = json.loads(open(config).read())
        doc["dependency_graph"] = graph
        open(config, "w").write(json.dumps(doc))
        rc = main(["assess", "--config", config,
                   "--out", str(tmp / "q.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InvalidArgument"

    def test_bad_dependency_file_is_config_error(self, workspace, capsys):
        tmp, config, data = workspace
        deps = tmp / "deps.json"
        deps.write_text(json.dumps({"b": ["a", "nope"]}))
        doc = json.loads(open(config).read())
        doc["dependency_graph"] = str(deps)
        open(config, "w").write(json.dumps(doc))
        rc = main(["fit", "--config", config, "--out", str(tmp / "p.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InvalidArgument"

    def test_unexpected_exception_is_internal_error(self, workspace,
                                                    monkeypatch, capsys):
        tmp, config, data = workspace

        def broken(*args, **kwargs):
            raise KeyError("boom")

        monkeypatch.setattr(cli, "assess", broken)
        rc = main(["assess", "--config", config,
                   "--out", str(tmp / "q.json")])
        assert rc == 4
        captured = capsys.readouterr()
        err = json.loads(captured.err.strip())
        assert err["error"] == "KeyError"
        assert "Traceback" not in captured.err

    def test_no_data_given(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "imputers": [{"id": "m", "family": "simple",
                          "params": {"statistic": "mean"}}],
        }))
        rc = main(["assess", "--config", str(config),
                   "--out", str(tmp_path / "q.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["path"] == "data.path"
