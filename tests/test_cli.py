import importlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qflatlab
from qflatlab import cli
from qflatlab.geometry import volume_growth


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestAnalyze:
    def test_flat_builtin(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"n": 2, "kind": "builtin", "name": "flat"})
        code, out, _ = run(capsys, "analyze", "--spec", spec)
        assert code == 0
        doc = json.loads(out)
        assert doc["tau"]["exponent"] == pytest.approx(1.0, abs=0.01)
        assert doc["alpha0"] == pytest.approx(0.0, abs=1e-9)

    def test_cone_075(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"n": 2, "kind": "builtin", "name": "cone",
                                     "params": {"a": 0.75}})
        code, out, _ = run(capsys, "analyze", "--spec", spec)
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha0"] == pytest.approx(0.75, abs=1e-3)
        assert doc["tau"]["exponent"] == pytest.approx(0.25, abs=0.05)
        assert doc["identity_residual"] <= 0.05

    def test_huber_between_thresholds(self, tmp_path, capsys):
        # complete metric with finite volume at the borderline total curvature
        spec = write_spec(tmp_path, {"n": 2, "kind": "builtin", "name": "huber",
                                     "params": {"c": -0.75}})
        code, out, _ = run(capsys, "analyze", "--spec", spec)
        assert code == 0
        doc = json.loads(out)
        assert doc["volume"]["class"] == "finite"
        assert doc["diameter"]["class"] == "infinite"
        assert doc["alpha0"] == pytest.approx(1.0, abs=0.02)

    def test_expression_metric(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"n": 2, "kind": "expression",
                                     "u": "log(2/(1+r^2))"})
        code, out, _ = run(capsys, "analyze", "--spec", spec)
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha0"] == pytest.approx(2.0, abs=1e-3)
        assert doc["diameter"]["value"] == pytest.approx(3.14159265, abs=1e-6)

    def test_radial_table_metric(self, tmp_path, capsys):
        nodes = [[float(r), 0.0] for r in np.geomspace(0.01, 1e4, 120)]
        spec = write_spec(tmp_path, {"n": 2, "kind": "radial-table", "nodes": nodes})
        code, out, _ = run(capsys, "analyze", "--spec", spec)
        assert code == 0
        doc = json.loads(out)
        assert doc["tau"]["exponent"] == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_radial_table_continues_log_linearly(self, tmp_path, capsys, n):
        # a cone with alpha0 = 1 tabulated on [0.01, 100]: past its last node
        # the table goes on as a*log(r) + b through the last two nodes
        nodes = [[float(r), float(-0.5 * np.log1p(r * r))] for r in np.geomspace(0.01, 100, 40)]
        spec = write_spec(tmp_path, {"n": n, "kind": "radial-table", "nodes": nodes})
        code, out, _ = run(capsys, "analyze", "--spec", spec)
        assert code == 0
        doc = json.loads(out)
        if n <= 4:
            assert "alpha0" not in doc["errors"]
        # at n = 6 the spline's jets miss the density: an error, never a wrong alpha0
        assert "alpha0" in doc["errors"] or doc["alpha0"] == pytest.approx(1.0, abs=0.01)
        tail = doc["provenance"]["tail_model"]
        assert tail["model"] == "u = a*log(r) + b through the last two nodes"
        assert tail["r_from"] == 100.0
        assert tail["a"] == pytest.approx(-1.0, abs=1e-3)

    @pytest.mark.parametrize("n", [2, 4])
    def test_radial_table_with_polynomial_growth_keeps_its_tail(self, tmp_path, capsys, n):
        # r^2 plus the cone: the last three nodes are not on one log line, so
        # the table goes on with its last cubic piece and the growth shows
        nodes = [[float(r), float(r * r - 0.5 * np.log1p(r * r))]
                 for r in np.geomspace(0.01, 100, 40)]
        spec = write_spec(tmp_path, {"n": n, "kind": "radial-table", "nodes": nodes})
        code, out, _ = run(capsys, "analyze", "--spec", spec)
        assert code == 0
        doc = json.loads(out)
        assert doc["provenance"]["tail_model"]["model"] == "last cubic piece of the spline"
        assert doc["verdict"] == "NOT_NORMAL" or "alpha0" in doc["errors"]

    def test_out_file(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"n": 2, "kind": "builtin", "name": "flat"})
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "analyze", "--spec", spec, "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["verdict"] == "NORMAL"

    def test_determinism_byte_identical(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"n": 2, "kind": "builtin", "name": "cone",
                                     "params": {"a": 0.5}})
        _, out1, _ = run(capsys, "analyze", "--spec", spec)
        _, out2, _ = run(capsys, "analyze", "--spec", spec)
        assert out1 == out2


class TestValidation:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "--spec", "/nonexistent.json")
        assert code == 1
        assert "input error" in err

    def test_bad_kind(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"n": 2, "kind": "exotic"})
        code, _, err = run(capsys, "analyze", "--spec", spec)
        assert code == 1
        assert "$.kind" in err

    def test_missing_u_for_expression(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"n": 2, "kind": "expression"})
        code, _, err = run(capsys, "analyze", "--spec", spec)
        assert code == 1
        assert "$.u" in err

    def test_odd_dimension(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"n": 3, "kind": "builtin", "name": "flat"})
        code, _, err = run(capsys, "analyze", "--spec", spec)
        assert code == 1
        assert "$.n" in err

    def test_extra_keys_rejected(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"n": 2, "kind": "builtin", "name": "flat",
                                     "bogus": 1})
        code, _, err = run(capsys, "analyze", "--spec", spec)
        assert code == 1

    def test_syntax_error_in_expression(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"n": 2, "kind": "expression", "u": "log("})
        code, _, err = run(capsys, "analyze", "--spec", spec)
        assert code == 1

    def test_numeric_failure_exit_2(self, tmp_path, capsys):
        # the conformal factor overflows during evaluation: numeric failure
        spec = write_spec(tmp_path, {"n": 2, "kind": "expression", "u": "exp(r^2)"})
        code, _, err = run(capsys, "analyze", "--spec", spec)
        assert code == 2
        assert "numeric failure" in err


class TestSweep:
    def test_huber_classification_table(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"n": 2, "kind": "builtin", "name": "huber"})
        # negative values need the --values= form (argparse dash handling)
        code, out, _ = run(capsys, "sweep", "--param", "c",
                           "--values=-2,-0.75,0", "--spec", spec)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("value,alpha0,tau,identity_residual,"
                            "distance_exponent,diameter_class,volume_class,error")
        rows = [line.split(",") for line in lines[1:]]
        table = {row[0]: (row[5], row[6]) for row in rows}
        assert table["-2"] == ("finite", "finite")
        assert table["-0.75"] == ("infinite", "finite")
        assert table["0"] == ("infinite", "infinite")
        for row in rows:
            assert float(row[1]) == pytest.approx(1.0, abs=0.02)

    def test_cone_tau_column(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"n": 2, "kind": "builtin", "name": "cone"})
        code, out, _ = run(capsys, "sweep", "--param", "a",
                           "--values", "0.25,0.5,0.75", "--spec", spec)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        for row in rows:
            assert float(row[2]) == pytest.approx(1.0 - float(row[0]), abs=0.05)

    def test_empty_values_header_only(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"n": 2, "kind": "builtin", "name": "huber"})
        code, out, _ = run(capsys, "sweep", "--param", "c", "--values", "",
                           "--spec", spec)
        assert code == 0
        assert out.strip().splitlines() == [
            "value,alpha0,tau,identity_residual,distance_exponent,"
            "diameter_class,volume_class,error"]

    def test_unknown_parameter(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"n": 2, "kind": "builtin", "name": "huber"})
        code, _, err = run(capsys, "sweep", "--param", "zeta", "--values", "1",
                           "--spec", spec)
        assert code == 1

    def test_bad_value_lands_in_error_column(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"n": 2, "kind": "builtin", "name": "cone"})
        code, out, _ = run(capsys, "sweep", "--param", "a", "--values", "-1",
                           "--spec", spec)
        assert code == 0
        row = out.strip().splitlines()[1]
        assert "positive" in row


class TestVerifyAndGallery:
    def test_filter_nonexistent_is_empty_success(self, capsys):
        code, out, _ = run(capsys, "verify", "--filter", "nonexistent-case")
        assert code == 0
        assert "0 passed, 0 failed" in out

    def test_gallery_list(self, capsys):
        code, out, _ = run(capsys, "gallery", "list")
        assert code == 0
        for name in ("flat", "sphere", "cone", "huber", "gaussian_source", "planted"):
            assert name in out

    def test_python_m_package(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(qflatlab.__file__))
        proc = subprocess.run([sys.executable, "-m", "qflatlab", "gallery", "list"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert "cone" in proc.stdout
        assert proc.stderr == ""

    def test_cold_start_loads_no_scipy_or_jsonschema(self):
        """import qflatlab loads neither scipy nor jsonschema, and analyses
        whose metrics are built on a spline (a potential profile, a radial
        table) still load no scipy."""
        script = (
            "import json, sys\n"
            "def loaded(*tops):\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] in tops)\n"
            "import qflatlab\n"
            "from qflatlab import cli\n"
            "print(json.dumps(loaded('scipy', 'jsonschema')))\n"
            "for doc in json.loads(sys.argv[1]):\n"
            "    cli.run_analysis(doc)\n"
            "print(json.dumps(loaded('scipy')))\n")
        table = [[float(r), float(-0.5 * np.log1p(r * r))] for r in np.geomspace(0.01, 100, 40)]
        docs = [{"n": 2, "kind": "builtin", "name": "gaussian_source", "params": {"mass": 0.5}},
                {"n": 2, "kind": "radial-table", "nodes": table}]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(qflatlab.__file__))
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(docs)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        after_import, after_analysis = map(json.loads, proc.stdout.splitlines())
        assert after_import == []
        assert after_analysis == []

    def test_single_fast_case(self, capsys):
        code, out, _ = run(capsys, "verify", "--filter", "bounded_diameter")
        assert code == 0
        assert "[PASS] bounded_diameter" in out

    def test_failed_cases_exit_3(self, capsys, monkeypatch):
        from qflatlab.verification import CaseResult, Check, SuiteSummary

        def fake_suite(filter_str=None):
            case = CaseResult(id="x", description="forced failure")
            case.checks.append(Check("q", 1.0, 2.0, 0.1, False))
            return SuiteSummary(passed=0, failed=1, inconclusive=0,
                                cases=[case], elapsed=0.0)

        monkeypatch.setattr(cli, "run_verification_suite", fake_suite)
        code, out, _ = run(capsys, "verify")
        assert code == 3
        assert "[FAIL]" in out

    def test_case_without_checks_is_inconclusive(self, capsys, monkeypatch):
        from qflatlab import verification
        from qflatlab.verification import CaseResult

        assert CaseResult(id="x", description="no checks").status == "inconclusive"
        assert CaseResult(id="x", description="no checks", error="boom").status == "failed"
        monkeypatch.setattr(verification, "CASES", [
            ("empty", "checks nothing", lambda result: None, None),
            ("one", "one passing check", lambda result: result.expect_true("q", True), None),
        ])
        summary = verification.run_verification_suite()
        assert (summary.passed, summary.failed, summary.inconclusive) == (1, 0, 1)
        assert summary.to_json_dict()["inconclusive"] == 1
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "[INCONCLUSIVE] empty" in out
        assert "1 passed, 0 failed, 1 inconclusive" in out

    def test_verify_json_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--filter", "potential_golden", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["cases"][0]["id"] == "potential_golden"
        assert doc["failed"] == 0


class TestDocumentPaths:
    def test_sweep_reads_builtin_documents_as_analyze_does(self):
        doc = {"n": 2, "kind": "builtin", "name": "cone",
               "params": {"completeness_hint": True}}
        rows = cli.sweep_csv(doc, "a", ["0.5", "2"]).strip().splitlines()[1:]
        assert len(rows) == 2
        assert all(row.endswith(",") for row in rows), rows
        assert cli.run_analysis(doc).errors == {}

    def test_non_radial_n6_hits_the_point_budget(self):
        rep = cli.run_analysis({"n": 6, "kind": "expression", "u": "0.1*x1"})
        doc = json.loads(rep.to_json())
        assert "budget" in doc["errors"]["tau"]
        assert "budget" in doc["errors"]["volume"]


class TestInputContract:
    @pytest.mark.parametrize("name,params", [
        ("cone", {"a": "abc"}), ("cone", {"a": None}), ("cone", {"a": [1]}),
        ("cone", {"a": 1e400}), ("huber", {"c": "nan"}), ("cone", {"a": True}),
        ("planted", {"seed": 1.5}), ("planted", {"seed": -80000}),
        ("planted", {"degree": -1}),
    ])
    def test_bad_builtin_params_exit_1(self, tmp_path, capsys, name, params):
        spec = write_spec(tmp_path, {"n": 2, "kind": "builtin", "name": name,
                                     "params": params})
        code, _, err = run(capsys, "analyze", "--spec", spec)
        assert code == 1
        assert err.startswith("input error:") and "Traceback" not in err

    def test_builtin_params_keep_their_labels(self):
        assert cli.context_from_document(
            {"n": 2, "kind": "builtin", "name": "cone", "params": {"a": 2}}).label == "cone(a=2.0)[n=2]"
        assert cli.context_from_document(
            {"n": 2, "kind": "builtin", "name": "planted",
             "params": {"seed": 3.0, "degree": 0}}).label == "planted(seed=3,deg=0)[n=2]"

    def test_large_dimension_volume_growth_stays_finite(self):
        # omega_n R^n overflows at n = 46 on the tau radii, which reach 1e7
        ctx = cli.context_from_document({"n": 46, "kind": "expression",
                                         "u": "-log(1+r^2)"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau = volume_growth(ctx, np.geomspace(10.0, 1e7, 26))
        assert tau.exponent == pytest.approx(0.0, abs=1e-9)

    def test_dimension_beyond_doubles_exits_1(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"n": 172, "kind": "expression", "u": "-log(1+r^2)"})
        code, _, err = run(capsys, "analyze", "--spec", spec)
        assert code == 1
        assert "too large" in err and "Traceback" not in err

    def test_unsupported_dimension_exits_1(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"n": 6, "kind": "builtin", "name": "gaussian_source"})
        code, _, err = run(capsys, "analyze", "--spec", spec)
        assert code == 1
        assert "supports n" in err

    @pytest.mark.parametrize("nodes", [
        [[1.0, 0.0], [0.5, 0.0], [2.0, 0.0], [3.0, 0.0]],
        [[0.1, 0.0], [0.5, 0.0], [2.0, 0.0], [1e400, 0.0]],
        [[0.1, 0.0], [0.5, 1e400], [2.0, 0.0], [3.0, 0.0]],
    ], ids=["decreasing", "infinite_radius", "infinite_value"])
    def test_bad_radial_table_exits_1(self, tmp_path, capsys, nodes):
        spec = write_spec(tmp_path, {"n": 2, "kind": "radial-table", "nodes": nodes})
        code, _, err = run(capsys, "analyze", "--spec", spec)
        assert code == 1
        assert "radial table" in err

    @pytest.mark.parametrize("kind", ["builtin", "expression"])
    def test_completeness_hint_must_be_boolean(self, tmp_path, capsys, kind):
        doc = {"n": 2, "kind": kind, "params": {"completeness_hint": "no"}}
        doc.update({"name": "flat"} if kind == "builtin" else {"u": "0"})
        code, _, err = run(capsys, "analyze", "--spec", write_spec(tmp_path, doc))
        assert code == 1
        assert "completeness_hint" in err

    def test_builtin_honours_completeness_hint(self):
        gallery_module = importlib.import_module("qflatlab.gallery")
        gallery_module._build_cached.cache_clear()
        doc = {"n": 2, "kind": "builtin", "name": "cone",
               "params": {"a": 0.5, "completeness_hint": False}}
        rep = cli.run_analysis(doc)
        assert rep.completeness == "assumed_incomplete"
        info = gallery_module._build_cached.cache_info()
        assert (info.misses, info.hits) == (1, 0)
        # the hint stays on the document's context, not on the gallery's
        assert qflatlab.gallery("cone", {"a": 0.5}, 2).completeness_hint is None

    def test_other_params_rejected_for_expressions(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"n": 2, "kind": "expression", "u": "0",
                                     "params": {"a": 1.0}})
        code, _, err = run(capsys, "analyze", "--spec", spec)
        assert code == 1
        assert "$.params" in err

    def test_sweep_value_not_a_number_exits_1(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"n": 2, "kind": "builtin", "name": "cone"})
        code, out, err = run(capsys, "sweep", "--param", "a", "--values", "0.5,abc",
                             "--spec", spec)
        assert code == 1
        assert "'abc' is not a number" in err and out == ""

    @pytest.mark.parametrize("value", ["nan", "1e400"])
    def test_non_finite_sweep_value_is_a_row_error(self, tmp_path, capsys, value):
        spec = write_spec(tmp_path, {"n": 2, "kind": "builtin", "name": "cone"})
        code, out, _ = run(capsys, "sweep", "--param", "a", f"--values={value}",
                           "--spec", spec)
        assert code == 0
        assert "finite number" in out.strip().splitlines()[1]
