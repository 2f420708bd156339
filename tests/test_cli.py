import inspect
import itertools
import json
from pathlib import Path

import pytest

from nlhomog import StepFunction, TripleWellPotential, evaluate, make_lambda_kernel
from nlhomog import cell, cli, gammalab, util
from nlhomog.cell import BRUTE_FORCE_CAP
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

    def test_quadrature_cap_refuses_before_the_exact_sum(self, tmp_path, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("exact pair sum run before the quadrature's grid cap")

        monkeypatch.setattr(cli, "evaluate", no_work)
        upath = tmp_path / "u.json"
        upath.write_text(json.dumps(StepFunction.constant(0.0).to_json()))
        rc = dispatch(["energy", "--u", str(upath), "--quad-n", "1000000000",
                       "--output-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: evaluate_quadrature: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tol, rc", [("0", 0), ("-1", 1)])
    def test_value_tol_is_decided_by_the_library(self, tmp_path, capsys, tol, rc):
        # 0 means exact wells, as in the library; a negative tolerance is the
        # library's refusal, not a config error
        upath = tmp_path / "u.json"
        upath.write_text(json.dumps(StepFunction([0.0, 0.5], [0.0, 1.0]).to_json()))
        out = tmp_path / "out"
        assert dispatch(["energy", "--u", str(upath), "--value-tol", tol,
                         "--output-dir", str(out)]) == rc
        if rc:
            assert capsys.readouterr().err == "error: tol must be finite and >= 0\n"
            assert not out.exists()
        else:
            assert read_json(out / "energy.json")["result"]["exact"]["value"] == 0.75

    def test_quadrature_snaps_levels_with_value_tol(self, tmp_path):
        # the level gap 1 + 1e-10 is a well only under --value-tol 1e-9, and
        # the quadrature has to snap it the same way as the exact evaluator
        upath = tmp_path / "u.json"
        upath.write_text(json.dumps(StepFunction([0.0, 0.5], [0.0, 1.0 + 1e-10]).to_json()))
        rc = dispatch(
            ["energy", "--u", str(upath), "--value-tol", "1e-9", "--quad-n", "64",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 0
        res = read_json(tmp_path / "energy.json")["result"]
        assert res["exact"]["value"] == pytest.approx(0.75, abs=1e-12)
        assert abs(res["quadrature"]["value"] - 0.75) <= res["quadrature"]["bound"]
        assert res["abs_diff"] <= res["quadrature"]["bound"]

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
            # C(n, k) and the class count have over 4300 digits here
            ["cell-verify", "--n", "40000"],
            ["cell-solve", "--method", "brute_force", "--n", "20000", "--k-ones", "10000"],
        ],
    )
    def test_enumeration_cap_checked_before_work(self, tmp_path, monkeypatch, capsys, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("cell matrix built before the cap check")

        monkeypatch.setattr(cli, "build_cell_matrix", no_work)
        assert dispatch(argv + ["--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: solve_brute_force: C(")
        assert f"exceed the enumeration cap {BRUTE_FORCE_CAP}" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cell-solve", "--method", "brute_force", "--k-ones", "17"], "k_ones must lie in [0, n]"),
            (["cell-solve", "--method", "brute_force", "--k-ones", "-1"], "k_ones must lie in [0, n]"),
            (["cell-solve", "--method", "brute_force", "--mode", "arcs_only", "--k-ones", "17"],
             "k_ones must lie in [0, n]"),
            # n = 0 once divided by zero in the class count
            (["cell-verify", "--n", "0"], "n must be at least 2"),
            (["cell-verify", "--n", "1"], "n must be at least 2"),
            (["cell-solve", "--method", "projected_gradient", "--n", "1"], "n must be at least 2"),
        ],
    )
    def test_search_sizes_checked_before_work(self, tmp_path, monkeypatch, capsys, argv, message):
        def no_work(*args, **kwargs):
            raise AssertionError("cell matrix built before the size check")

        monkeypatch.setattr(cli, "build_cell_matrix", no_work)
        assert dispatch(argv + ["--output-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    def test_arcs_only_over_the_class_cap_is_solved(self, tmp_path):
        # 3163^2 offsets exceed the cap of 10^7, which counts classes only
        argv = ["cell-solve", "--method", "brute_force", "--mode", "arcs_only", "--n", "50000",
                "--k-ones", "3163"]
        assert dispatch(argv + ["--output-dir", str(tmp_path)]) == 0
        result = read_json(tmp_path / "cell_solve.json")["result"]
        assert result["subsets_examined"] == 50000
        assert result["energy"] == pytest.approx(
            cell.gamma_closed_form(1.0, 2.0, 0.5, 3163 / 50000), abs=1e-12
        )

    BIG_N = util.MAX_INTERVALS + 1
    BIG_N_MESSAGE = f"build_cell_matrix: {BIG_N} cells exceed the cap {util.MAX_INTERVALS}"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cell-solve", "--method", "projected_gradient", "--n", str(BIG_N)], BIG_N_MESSAGE),
            (["cell-solve", "--method", "brute_force", "--n", str(BIG_N), "--k-ones", "1"],
             BIG_N_MESSAGE),
            (["cell-verify", "--n", str(BIG_N)], BIG_N_MESSAGE),
        ],
    )
    def test_cell_size_caps_checked_before_work(self, tmp_path, monkeypatch, capsys, argv, message):
        def no_work(*args, **kwargs):
            raise AssertionError("cell matrix built before the cap check")

        monkeypatch.setattr(cli, "build_cell_matrix", no_work)
        assert dispatch(argv + ["--output-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())


REPORTS = {
    "energy": "energy.json",
    "gamma-table": "gamma_table.json",
    "cell-solve": "cell_solve.json",
    "cell-verify": "cell_verify.json",
    "gamma-limit": "gamma_limit.json",
    "two-scale": "two_scale.json",
    "non-rep": "non_rep.json",
    "fm-threshold": "fm_threshold.json",
    "reproduce-all": "reproduce_all.json",
}


def _subparsers():
    """Subcommand name -> its argparse parser."""
    (action,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    return action.choices


class TestPerCommandFields:
    """A subcommand accepts, and its report records, only the fields it reads."""

    @pytest.mark.parametrize("command", REPORTS)
    def test_report_embeds_declared_fields_and_seed(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        Path("u.json").write_text(json.dumps(StepFunction.constant(0.0).to_json()))
        dispatch([command] + (["--u", "u.json"] if command == "energy" else []))
        defaults = {field: spec[1] for field, spec in cli.FIELDS.items()}
        declared = set(cli.command_fields(command, defaults))
        assert set(read_json(REPORTS[command])["config"]) == declared | {"seed"}

    def test_non_rep_and_fm_threshold_defaults_are_the_librarys(self):
        cert = inspect.signature(gammalab.non_representability_certificate).parameters
        for field, param in (("s1", "s1"), ("s2", "s2"), ("difference_tol", "tol"),
                             ("study_tol", "study_tol")):
            assert cli.FIELDS[field][1] == cert[param].default, field
        fm = inspect.signature(gammalab.fM_threshold_experiment).parameters
        assert cli.FIELDS["eps"][1] == fm["eps"].default == 1.0 / 32.0

    @pytest.mark.parametrize("command", REPORTS)
    def test_parser_registers_declared_fields_and_run_flags(self, command):
        actions = _subparsers()[command]._actions
        dests = {a.dest for a in actions if a.dest != "help"}
        assert dests == set(cli.command_fields(command)) | {"config", "output_dir", "threads", "seed"}

    @pytest.mark.parametrize(
        "argv, fields",
        [
            (["cell-solve"], "alpha beta lambda method t"),
            (["cell-solve", "--method", "projected_gradient", "--n", "16"],
             "alpha beta lambda kernel method t n"),
            (["cell-solve", "--method", "brute_force"],
             "alpha beta lambda kernel method n k_ones mode"),
            (["energy", "--u", "u.json"],
             "alpha beta lambda kernel potential eps u quad_n value_tol"),
            (["energy", "--u", "u.json", "--potential", "capped"],
             "alpha beta lambda kernel potential cap eps u quad_n value_tol"),
        ],
        ids=lambda v: "-".join(v) if isinstance(v, list) else None,
    )
    def test_variant_report_embeds_only_its_fields(self, tmp_path, monkeypatch, argv, fields):
        monkeypatch.chdir(tmp_path)
        Path("u.json").write_text(json.dumps(StepFunction.constant(0.0).to_json()))
        assert dispatch(argv) == 0
        report = read_json(REPORTS[argv[0]])
        assert set(report["config"]) == set(fields.split()) | {"seed"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["gamma-limit", "--kernel", "k.json"],
            ["cell-verify", "--kernel", "k.json"],
            ["cell-solve", "--method", "closed_form", "--kernel", "k.json"],
            ["gamma-table", "--quad-n", "5"],
            ["gamma-table", "--config", "c.json"],  # a field gamma-table does not read
            ["gamma-limit", "--eps", "0.1"],  # no abbreviation of --eps-grid
            # a field the selected method or potential does not read
            ["cell-solve", "--method", "brute_force", "--t", "0.3"],
            ["cell-solve", "--n", "16"],
            ["cell-solve", "--k-ones", "4"],
            ["cell-solve", "--mode", "arcs_only"],
            ["cell-solve", "--method", "projected_gradient", "--k-ones", "4"],
            ["cell-solve", "--method", "projected_gradient", "--mode", "arcs_only"],
            ["cell-solve", "--config", "bf.json"],  # brute force with t
            ["cell-solve", "--method", "newton"],
            ["energy", "--cap", "3"],
            ["energy", "--config", "cap.json"],  # cap under the infinite potential
        ] + [[command, "--s", "0.9"] for command in REPORTS],
        ids=lambda v: "-".join(v),
    )
    def test_unread_field_is_refused(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        Path("k.json").write_text(json.dumps({"breakpoints": [0.0], "values": [2.0]}))
        Path("c.json").write_text(json.dumps({"t_steps": 5, "kernel": "k.json"}))
        Path("u.json").write_text(json.dumps(StepFunction.constant(0.0).to_json()))
        Path("bf.json").write_text(json.dumps({"method": "brute_force", "t": 0.3}))
        Path("cap.json").write_text(json.dumps({"cap": 3.0}))
        inputs = ["bf.json", "c.json", "cap.json", "k.json", "u.json"]
        assert dispatch(argv + (["--u", "u.json"] if argv[0] == "energy" else [])) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs


def _option_table(parser):
    return [(a.option_strings, a.dest, a.choices, a.help) for a in parser._actions]


class TestTrimmedParser:
    """build_parser(name) is the full parser cut down to one command."""

    @pytest.mark.parametrize("command", REPORTS)
    def test_subparser_and_usage_equal_the_full_parsers(self, command):
        full, trimmed = cli.build_parser(), cli.build_parser(command)
        (action,) = [a for a in trimmed._actions if a.dest == "command"]
        assert list(action.choices) == [command]
        one, every = action.choices[command], _subparsers()[command]
        assert _option_table(one) == _option_table(every)
        assert one.format_help() == every.format_help()
        # the usage line still names all nine commands
        assert trimmed.format_usage() == full.format_usage()
        assert all(name in full.format_usage() for name in REPORTS)

    def test_dispatch_builds_one_commands_parser_with_the_full_usage(self, monkeypatch, capsys):
        argv = ["energy", "--eps-grid", "1"]
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)
        full_err = capsys.readouterr().err
        assert "unrecognized arguments: --eps-grid 1" in full_err
        built = []
        build = cli.build_parser

        def spy(command=None):
            built.append(command)
            return build(command)

        monkeypatch.setattr(cli, "build_parser", spy)
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == full_err
        for other in (["--help"], [], ["ener"]):
            dispatch(other)
        capsys.readouterr()
        assert built == ["energy", None, None, None]


OVER_THREAD_CAP = util.MAX_THREADS + 1
OVER_THREAD_CAP_MESSAGE = f"make_pmap: {OVER_THREAD_CAP} threads exceed the cap {util.MAX_THREADS}"


@pytest.fixture
def no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(util, "ThreadPoolExecutor", refuse)


class TestThreadCount:
    """A thread count below 1 or above util.MAX_THREADS is refused before any work."""

    def test_make_pmap_refuses_fewer_than_one_thread(self):
        for threads in (0, -3):
            with pytest.raises(ValueError, match="threads must be at least 1"):
                util.make_pmap(threads)
        assert util.make_pmap(1) is util.serial_map

    def test_make_pmap_refuses_more_than_the_cap(self, no_pool):
        with pytest.raises(util.ResourceLimitError, match=f"^{OVER_THREAD_CAP_MESSAGE}$"):
            util.make_pmap(OVER_THREAD_CAP)
        assert callable(util.make_pmap(util.MAX_THREADS))

    @pytest.mark.parametrize("threads", [0, -3, OVER_THREAD_CAP])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", [["gamma-table"], ["gamma-limit", "--eps-grid", "0.25"]],
                             ids=lambda v: v[0])
    def test_refused_before_any_work(self, tmp_path, capsys, no_pool, command, source, threads):
        message = "threads must be at least 1" if threads < 1 else OVER_THREAD_CAP_MESSAGE
        if source == "flag":
            given = ["--threads", str(threads)]
        else:
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"threads": threads}))
            given = ["--config", str(cfg)]
        assert dispatch(command + given + ["--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gamma-limit", "--eps-grid", "0.000001,0.5"], "eps_grid must be strictly decreasing"),
            (["non-rep", "--eps-grid", "0.000001,0.5"], "eps_grid must be strictly decreasing"),
            (["fm-threshold", "--eps", "0.000001", "--M-grid", "0.5,2"], "cap must be >= 1"),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else None,
    )
    def test_grid_checked_before_any_energy(self, tmp_path, monkeypatch, capsys, argv, message):
        def no_work(*args, **kwargs):
            raise AssertionError("energy evaluated before the grid check")

        monkeypatch.setattr(gammalab, "evaluate", no_work)
        assert dispatch(argv + ["--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["gamma-limit", "non-rep", "two-scale"])
    def test_every_eps_sized_before_the_first_profile(self, tmp_path, monkeypatch, capsys, command):
        def no_work(*args, **kwargs):
            raise AssertionError("profile built or energy evaluated before every eps was sized")

        for module, name in [(gammalab, "evaluate"), (gammalab, "oscillating_profile"),
                             (cli, "two_scale_pairing"), (cli, "oscillating_profile")]:
            monkeypatch.setattr(module, name, no_work)
        argv = [command, "--eps-grid", "0.000001,0.0000001", "--output-dir", str(tmp_path / "out")]
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == (
            "error: oscillating_profile: ~20000002 breakpoints at 1/eps = 1e+07 exceed the cap "
            f"{util.MAX_INTERVALS}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, name", [("--tol", "tol"), ("--study-tol", "study_tol")])
    def test_certificate_tolerances_are_refused_by_the_library(self, tmp_path, monkeypatch,
                                                              capsys, flag, name):
        def no_work(*args, **kwargs):
            raise AssertionError("study run before the tolerance check")

        monkeypatch.setattr(gammalab, "run_recovery_study", no_work)
        assert dispatch(["non-rep", flag, "0", "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {name} must be positive\n"
        assert not (tmp_path / "out").exists()


def _csv_matches(cell, value) -> bool:
    """A CSV cell equals its report value: bools by name, numbers exactly
    (17 significant digits round-trip a float)."""
    if isinstance(value, bool):
        return cell == str(value)
    return float(cell) == float(value)


def _gamma_table_rows(res):
    return ["t", "gamma"], list(zip(res["t"], res["gamma"]))


def _cell_verify_rows(res):
    header = ["k", "all_subsets_min", "arcs_only_min", "closed_form_arc_value",
              "exhaustive_equals_arcs"]
    return header, [[r[h] for h in header] for r in res["rows"]]


def _gamma_limit_rows(res):
    st, flat = res["recovery_study"], res["flat_study"]
    rows = [
        [e, v, abs(v - st["limit_ref"]), fv]
        for e, v, fv in zip(st["eps_grid"], st["values"], flat["values"])
    ]
    return ["eps", "oscillating_value", "oscillating_abs_error", "flat_value"], rows


def _two_scale_rows(res):
    lim = res["limit"]
    rows = [[e, v, lim, abs(v - lim)] for e, v in zip(res["eps_grid"], res["pairing"])]
    return ["eps", "pairing", "limit", "abs_error"], rows


def _fm_threshold_rows(res):
    p = res["payload"]
    header = ["M", "all_strictly_worse"] + [
        f"deviation_{i}" for i in range(p["n_deviation_profiles"])
    ]
    return header, [[r["M"], r["all_strictly_worse"]] + r["deviation_energies"] for r in p["rows"]]


class TestCsvReports:
    """Each tabular subcommand's CSV holds exactly the numbers of its JSON report."""

    @pytest.mark.parametrize(
        "argv,stem,expected",
        [
            (["gamma-table"], "gamma_table", _gamma_table_rows),
            (["cell-verify", "--n", "8"], "cell_verify", _cell_verify_rows),
            (["cell-verify", "--n", "8", "--alpha", "2", "--beta", "1"], "cell_verify",
             _cell_verify_rows),
            (["gamma-limit", "--eps-grid", "0.125,0.0625"], "gamma_limit", _gamma_limit_rows),
            (["two-scale", "--eps-grid", "0.125,0.0625,0.05"], "two_scale", _two_scale_rows),
            (["fm-threshold", "--eps", "0.125"], "fm_threshold", _fm_threshold_rows),
        ],
        ids=lambda v: "-".join(v) if isinstance(v, list) else None,
    )
    def test_csv_rows_match_json_report(self, tmp_path, argv, stem, expected):
        assert dispatch(argv + ["--output-dir", str(tmp_path)]) in (0, 2)
        header, rows = read_csv(tmp_path / f"{stem}.csv")
        want_header, want_rows = expected(read_json(tmp_path / f"{stem}.json")["result"])
        assert header == want_header
        assert len(rows) == len(want_rows) > 0
        for row, want in zip(rows, want_rows):
            assert len(row) == len(want)
            assert all(_csv_matches(c, v) for c, v in zip(row, want))


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


class TestConfigFileValues:
    """A flag's text and a config-file value go through the same reader."""

    @pytest.mark.parametrize(
        "command, given, flags",
        [
            ("gamma-table", {"alpha": 1, "beta": "3", "t_steps": "11"},
             ["--alpha", "1", "--beta", "3", "--t-steps", "11"]),
            ("gamma-limit", {"eps_grid": ["0.125", 0.0625], "c": 0},
             ["--eps-grid", "0.125,0.0625", "--c", "0"]),
            ("fm-threshold", {"M_grid": "1,4", "eps": "0.125"},
             ["--M-grid", "1,4", "--eps", "0.125"]),
            ("cell-solve", {"method": "brute_force", "n": 12.0, "k_ones": "4", "seed": "3"},
             ["--method", "brute_force", "--n", "12", "--k-ones", "4", "--seed", "3"]),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_config_file_and_flags_write_the_same_bytes(self, tmp_path, command, given, flags):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(given))
        assert dispatch([command, "--config", str(cfg), "--output-dir", str(tmp_path / "file")]) == 0
        assert dispatch([command, *flags, "--output-dir", str(tmp_path / "flags")]) == 0
        written = sorted(p.name for p in (tmp_path / "file").iterdir())
        assert written == sorted(p.name for p in (tmp_path / "flags").iterdir())
        for name in written:
            assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()

    @pytest.mark.parametrize(
        "command, given, field",
        [
            ("cell-solve", {"method": "brute_force", "n": 16.5}, "n"),
            ("gamma-table", {"alpha": "one"}, "alpha"),
            ("gamma-table", {"alpha": None}, "alpha"),
            ("gamma-table", {"alpha": [1.0]}, "alpha"),
            ("gamma-table", {"t_steps": True}, "t_steps"),
            ("gamma-table", {"t_steps": 10**400}, "t_steps"),
            ("gamma-table", {"t_steps": util.MAX_INTERVALS + 1}, "t_steps"),
            ("gamma-table", {"alpha": 10**400}, "alpha"),
            ("gamma-limit", {"eps_grid": 0.125}, "eps_grid"),
            ("gamma-limit", {"eps_grid": ["1/8"]}, "eps_grid"),
            ("gamma-limit", {"eps_grid": "1/8,1/16"}, "eps_grid"),
            ("cell-solve", {"method": 5}, "method"),
            ("two-scale", {"kernel": 5}, "kernel"),
        ],
        ids=lambda v: json.dumps(v)[:40] if isinstance(v, dict) else None,
    )
    def test_refused_value_is_a_config_error_naming_the_field(
        self, tmp_path, capsys, command, given, field
    ):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(given))
        assert dispatch([command, "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err
        assert not (tmp_path / "out").exists()

    def test_config_file_must_be_a_table(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("[1, 2]")
        assert dispatch(["gamma-table", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["energy", "--quad-n", "1"],
            ["energy", "--quad-n", "-4"],
            ["gamma-table", "--t-steps", "0"],
            ["gamma-table", "--t-steps", "-2"],
        ],
        ids=lambda v: "".join(v),
    )
    def test_out_of_range_count_is_a_config_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        Path("u.json").write_text(json.dumps(StepFunction.constant(0.0).to_json()))
        extra = ["--u", "u.json"] if argv[0] == "energy" else []
        assert dispatch(argv + extra + ["--output-dir", "out"]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "out").exists()

    def test_single_step_table_and_quadrature_off(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("u.json").write_text(json.dumps(StepFunction.constant(0.0).to_json()))
        assert dispatch(["gamma-table", "--t-steps", "1"]) == 0
        assert read_json("gamma_table.json")["result"]["t"] == [0.0]
        assert dispatch(["energy", "--u", "u.json", "--quad-n", "0"]) == 0
        assert "quadrature" not in read_json("energy.json")["result"]

    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--u", '{"breakpoints": [0, 0.5]}'),
            ("--u", "[0, 0.5]"),
            ("--u", "not json"),
            ("--kernel", '{"breakpoints": [0, 0.5]}'),
            ("--kernel", "[0, 0.5]"),
            ("--kernel", '{"breakpoints": [0], "values": [-1]}'),
            ("--u", '{"breakpoints": [0, NaN], "values": [0, 1]}'),
            ("--kernel", '{"breakpoints": [0, 0.5], "values": [1, Infinity]}'),
        ],
    )
    def test_malformed_step_function_file_is_a_config_error(
        self, tmp_path, monkeypatch, capsys, flag, text
    ):
        monkeypatch.chdir(tmp_path)
        Path("u.json").write_text(json.dumps(StepFunction.constant(0.0).to_json()))
        Path("bad.json").write_text(text)
        argv = ["energy", "--u", "u.json", flag, "bad.json", "--output-dir", "out"]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: field {flag[2:]}: bad.json ")
        assert not (tmp_path / "out").exists()


def _float_fields():
    """(command, selector flags, field) for every float field a command
    reads, under the first selector value that reads it."""
    cases = {}
    for command, (_, _, variants) in cli.COMMANDS.items():
        for values in itertools.product(*variants.values()):
            pick = dict(zip(variants, values))
            argv = [a for key, value in pick.items() for a in (cli.FIELDS[key][0], value)]
            for field in cli.command_fields(command, pick):
                if cli.FIELDS[field][2] is float:
                    cases.setdefault((command, field), argv)
    return [(command, argv, field) for (command, field), argv in cases.items()]


FLOAT_FIELDS = _float_fields()
GRID_FIELDS = [
    (command, field)
    for command in cli.COMMANDS
    for field in cli.command_fields(command)
    if cli.FIELDS[field][2] is list
]


class TestNonFiniteNumbers:
    """Every float field, from a flag or a config file, must be finite."""

    def _refused(self, tmp_path, capsys, argv, field):
        assert dispatch(argv + ["--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: field {field}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("command, selector, field", FLOAT_FIELDS)
    def test_flag(self, tmp_path, capsys, command, selector, field, text):
        flag = cli.FIELDS[field][0]
        self._refused(tmp_path, capsys, [command, *selector, f"{flag}={text}"], field)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400"])
    @pytest.mark.parametrize("command, selector, field", FLOAT_FIELDS)
    def test_config_file(self, tmp_path, capsys, command, selector, field, literal):
        cfg = tmp_path / "c.json"
        cfg.write_text(f'{{"{field}": {literal}}}')
        self._refused(tmp_path, capsys, [command, *selector, "--config", str(cfg)], field)

    @pytest.mark.parametrize("command, field", GRID_FIELDS)
    def test_grid_element(self, tmp_path, capsys, command, field):
        self._refused(tmp_path, capsys, [command, cli.FIELDS[field][0], "0.1,nan"], field)
        cfg = tmp_path / "c.json"
        cfg.write_text(f'{{"{field}": [0.1, NaN]}}')
        self._refused(tmp_path, capsys, [command, "--config", str(cfg)], field)

    def test_unreadable_flag_text_names_the_field(self, tmp_path, capsys):
        self._refused(tmp_path, capsys, ["gamma-table", "--alpha", "x"], "alpha")

    def test_toml_config_is_a_config_error_naming_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.toml"
        cfg.write_text("alpha = 2.0\n")
        argv = ["gamma-table", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]
        assert dispatch(argv) == 1
        assert capsys.readouterr().err.startswith(f"config error: config {cfg} line 1: ")
        assert not (tmp_path / "out").exists()


class TestDeterminism:
    def test_thread_count_does_not_change_report_bytes(self, tmp_path):
        grid = ["--eps-grid", "0.125,0.0625,0.03125"]
        commands = [
            # the recovery study maps over the grid, the flat study runs serially
            (["gamma-limit", *grid, "--seed", "7"], "gamma_limit"),
            # the recovery study maps over the grid, the step studies run serially
            (["non-rep", *grid], "non_rep"),
            # the pairings map over the grid
            (["two-scale", *grid], "two_scale"),
            # runs serially at any thread count: every profile is scored against every cap
            (["fm-threshold", "--M-grid", "1,1.5,2,3,4,6,8,12,16,24,32,48,64"], "fm_threshold"),
        ]
        for argv, stem in commands:
            outs = {}
            for threads in ("1", "8"):
                out = tmp_path / f"{stem}_t{threads}"
                rc = dispatch(argv + ["--threads", threads, "--output-dir", str(out)])
                assert rc == 0
                outs[threads] = {f.name: f.read_bytes() for f in out.iterdir()}
            assert f"{stem}.json" in outs["1"], stem
            assert outs["1"] == outs["8"], stem
