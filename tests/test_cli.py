import json
import os
from pathlib import Path

import pytest

from nlhomog import StepFunction, TripleWellPotential, evaluate, make_lambda_kernel
from nlhomog import cli
from nlhomog.cli import dispatch


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestGammaTable:
    def test_reference_rows(self, tmp_path):
        rc = dispatch(
            [
                "gamma-table",
                "--alpha", "1", "--beta", "2", "--lambda", "0.5",
                "--t-steps", "101",
                "--output-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        header, rows = read_csv(tmp_path / "gamma_table.csv")
        assert header == ["t", "gamma"]
        table = {float(t): float(g) for t, g in rows}
        assert table[0.0] == pytest.approx(1.5, abs=1e-14)
        assert table[0.5] == pytest.approx(0.625, abs=1e-14)
        assert table[1.0] == pytest.approx(1.5, abs=1e-14)
        report = read_json(tmp_path / "gamma_table.json")
        assert report["schema_version"] == 1
        assert report["config"]["alpha"] == 1.0


class TestEnergyCommand:
    def test_evaluates_step_function_file(self, tmp_path):
        u = StepFunction([0.0, 0.4, 0.6], [0.3, 1.3, 0.3])
        upath = tmp_path / "u.json"
        upath.write_text(json.dumps(u.to_json()))
        rc = dispatch(
            [
                "energy",
                "--u", str(upath),
                "--eps", "0.125",
                "--quad-n", "512",
                "--output-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        report = read_json(tmp_path / "energy.json")
        expected = evaluate(u, TripleWellPotential(), make_lambda_kernel(1, 2, 0.5), 0.125)
        assert report["result"]["exact"]["value"] == pytest.approx(expected.value, abs=1e-14)
        assert report["result"]["abs_diff"] <= report["result"]["quadrature"]["bound"]

    def test_infinite_value_serialized_as_string(self, tmp_path):
        u = StepFunction([0.0, 0.5], [0.0, 0.5])
        upath = tmp_path / "u.json"
        upath.write_text(json.dumps(u.to_json()))
        rc = dispatch(["energy", "--u", str(upath), "--eps", "0.125", "--output-dir", str(tmp_path)])
        assert rc == 0
        report = read_json(tmp_path / "energy.json")
        assert report["result"]["exact"]["value"] == "inf"

    def test_oversized_quadrature_grid_fails_before_work(self, tmp_path, capsys):
        upath = tmp_path / "u.json"
        upath.write_text(json.dumps(StepFunction.constant(0.0).to_json()))
        rc = dispatch(
            ["energy", "--u", str(upath), "--eps", "0.125", "--quad-n", "1000000000",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 1
        assert "evaluate_quadrature" in capsys.readouterr().err
        assert not (tmp_path / "energy.json").exists()

    def test_missing_u_is_config_error(self, tmp_path):
        assert dispatch(["energy", "--output-dir", str(tmp_path)]) == 1

    def test_kernel_file_override(self, tmp_path):
        kpath = tmp_path / "kernel.json"
        kpath.write_text(json.dumps({"breakpoints": [0.0], "values": [2.0]}))
        upath = tmp_path / "u.json"
        upath.write_text(json.dumps(StepFunction.constant(0.0).to_json()))
        rc = dispatch(
            ["energy", "--u", str(upath), "--kernel", str(kpath), "--eps", "0.1",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 0
        assert read_json(tmp_path / "energy.json")["result"]["exact"]["value"] == pytest.approx(2.0)


class TestCellCommands:
    def test_cell_solve_closed_form(self, tmp_path):
        rc = dispatch(
            ["cell-solve", "--method", "closed_form", "--t", "0.5", "--output-dir", str(tmp_path)]
        )
        assert rc == 0
        assert read_json(tmp_path / "cell_solve.json")["result"]["energy"] == pytest.approx(0.625)

    def test_cell_solve_gradient(self, tmp_path):
        rc = dispatch(
            ["cell-solve", "--method", "projected_gradient", "--n", "64", "--t", "0.5",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 0
        res = read_json(tmp_path / "cell_solve.json")["result"]
        assert abs(res["energy"] - 0.625) <= 5e-3
        assert res["constraint_residual"] <= 1e-10

    def test_cell_solve_brute_force(self, tmp_path):
        rc = dispatch(
            ["cell-solve", "--method", "brute_force", "--n", "16", "--k-ones", "8",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 0
        res = read_json(tmp_path / "cell_solve.json")["result"]
        assert res["energy"] == pytest.approx(0.625, abs=1e-12)

    def test_cell_verify_arcs_optimal(self, tmp_path):
        rc = dispatch(["cell-verify", "--n", "16", "--output-dir", str(tmp_path)])
        assert rc == 0
        report = read_json(tmp_path / "cell_verify.json")
        assert report["result"]["exhaustive_equals_arcs_everywhere"] is True

    def test_cell_verify_inverted_kernel_reports_gap(self, tmp_path):
        rc = dispatch(
            ["cell-verify", "--alpha", "2", "--beta", "1", "--n", "16",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 2
        report = read_json(tmp_path / "cell_verify.json")
        assert report["result"]["exhaustive_equals_arcs_everywhere"] is False


class TestDefaultConfigs:
    """Every subcommand runs with its default config (energy needs its input
    file, which has no default) and writes its report to the working directory."""

    @pytest.mark.parametrize(
        "argv,report,rc",
        [
            (["energy"], "energy.json", 0),
            (["gamma-table"], "gamma_table.json", 0),
            (["cell-solve"], "cell_solve.json", 0),
            (["cell-solve", "--method", "projected_gradient"], "cell_solve.json", 0),
            (["cell-solve", "--method", "brute_force"], "cell_solve.json", 0),
            (["cell-verify"], "cell_verify.json", 0),
            (["gamma-limit"], "gamma_limit.json", 0),
            (["two-scale"], "two_scale.json", 0),
            (["non-rep"], "non_rep.json", 0),
            (["fm-threshold"], "fm_threshold.json", 0),
            (["reproduce-all"], "reproduce_all.json", 2),  # criteria 2 and 3 fail on purpose
        ],
        ids=lambda v: "-".join(v) if isinstance(v, list) else None,
    )
    def test_runs_with_defaults(self, tmp_path, monkeypatch, argv, report, rc):
        monkeypatch.chdir(tmp_path)
        if argv[0] == "energy":
            Path("u.json").write_text(json.dumps(StepFunction([0.0, 0.5], [0.0, 1.0]).to_json()))
            argv = argv + ["--u", "u.json"]
        assert dispatch(argv) == rc
        assert (tmp_path / report).exists()

    def test_exhaustive_paths_default_to_n_16(self, tmp_path):
        for argv in (["cell-verify"], ["cell-solve", "--method", "brute_force"]):
            dispatch(argv + ["--output-dir", str(tmp_path)])
        assert read_json(tmp_path / "cell_verify.json")["config"]["n"] == 16
        res = read_json(tmp_path / "cell_solve.json")
        assert res["config"]["n"] == 16
        assert res["result"]["subsets_examined"] == 12870  # C(16, 8)
        dispatch(["cell-solve", "--method", "projected_gradient", "--output-dir", str(tmp_path)])
        assert read_json(tmp_path / "cell_solve.json")["config"]["n"] == 256

    @pytest.mark.parametrize(
        "argv",
        [
            ["cell-verify", "--n", "40"],
            ["cell-solve", "--method", "brute_force", "--n", "40", "--k-ones", "20"],
        ],
    )
    def test_enumeration_cap_checked_before_work(self, tmp_path, monkeypatch, capsys, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("cell matrix built before the cap check")

        monkeypatch.setattr(cli, "build_cell_matrix", no_work)
        assert dispatch(argv + ["--output-dir", str(tmp_path)]) == 1
        assert "enumeration cap" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestCertificateCommands:
    def test_non_rep_default_confirmed(self, tmp_path):
        rc = dispatch(["non-rep", "--eps-grid", "0.125,0.0625,0.03125", "--output-dir", str(tmp_path)])
        assert rc == 0
        report = read_json(tmp_path / "non_rep.json")
        assert report["result"]["verdict"] == "confirmed"

    def test_non_rep_huge_tol_refuted(self, tmp_path):
        rc = dispatch(
            ["non-rep", "--tol", "10", "--eps-grid", "0.125,0.0625", "--output-dir", str(tmp_path)]
        )
        assert rc == 2

    def test_fm_threshold_confirmed(self, tmp_path):
        rc = dispatch(["fm-threshold", "--eps", "0.03125", "--output-dir", str(tmp_path)])
        assert rc == 0
        report = read_json(tmp_path / "fm_threshold.json")
        assert report["result"]["verdict"] == "confirmed"
        assert (tmp_path / "fm_threshold.csv").exists()


class TestStudyCommands:
    def test_gamma_limit_outputs(self, tmp_path):
        rc = dispatch(
            ["gamma-limit", "--eps-grid", "0.125,0.0625,0.03125", "--output-dir", str(tmp_path)]
        )
        assert rc == 0
        report = read_json(tmp_path / "gamma_limit.json")
        st = report["result"]["recovery_study"]
        assert st["limit_ref"] == pytest.approx(0.625)
        assert st["final_error"] <= 1e-2
        header, rows = read_csv(tmp_path / "gamma_limit.csv")
        assert header[0] == "eps"
        assert len(rows) == 3

    def test_two_scale_outputs(self, tmp_path):
        rc = dispatch(
            ["two-scale", "--eps-grid", "0.125,0.0625", "--output-dir", str(tmp_path)]
        )
        assert rc == 0
        report = read_json(tmp_path / "two_scale.json")
        assert report["result"]["limit"] == pytest.approx(0.5, abs=1e-14)
        assert all(
            abs(v - 0.5) <= 1e-12 for v in report["result"]["pairing"]
        )


class TestConfigHandling:
    def test_missing_config_file(self):
        assert dispatch(["gamma-table", "--config", "/nonexistent/x.json"]) == 1

    def test_unknown_config_field(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"alphaa": 2}))
        assert dispatch(["gamma-table", "--config", str(cfg)]) == 1

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"alpha": 3.0, "beta": 3.0, "lambda": 0.5, "t_steps": 5}))
        rc = dispatch(
            ["gamma-table", "--config", str(cfg), "--beta", "4.0", "--output-dir", str(tmp_path)]
        )
        assert rc == 0
        report = read_json(tmp_path / "gamma_table.json")
        assert report["config"]["alpha"] == 3.0
        assert report["config"]["beta"] == 4.0

    def test_bad_grid_string(self, tmp_path):
        assert dispatch(["gamma-limit", "--eps-grid", "1/8,1/16", "--output-dir", str(tmp_path)]) == 1

    def test_bad_subcommand(self):
        assert dispatch(["frobnicate"]) == 1

    def test_invalid_parameter_exits_one(self, tmp_path):
        assert dispatch(
            ["gamma-table", "--lambda", "1.5", "--output-dir", str(tmp_path)]
        ) == 1


class TestDeterminism:
    def test_thread_count_does_not_change_report_bytes(self, tmp_path):
        outs = {}
        for threads in ("1", "8"):
            out = tmp_path / f"t{threads}"
            os.environ["HOMOG_THREADS"] = threads
            try:
                rc = dispatch(
                    ["gamma-limit", "--eps-grid", "0.125,0.0625,0.03125",
                     "--seed", "7", "--output-dir", str(out)]
                )
            finally:
                del os.environ["HOMOG_THREADS"]
            assert rc == 0
            outs[threads] = (out / "gamma_limit.json").read_bytes()
        assert outs["1"] == outs["8"]
