"""Tests of the benchmark itself: checkers, seeding, failure accounting, tracing.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import nlhomog  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as W  # noqa: E402
from nlhomog import acceptance, energy, gammalab  # noqa: E402
from nlhomog.util import ResourceLimitError  # noqa: E402

KERNEL = {"alpha": 1.0, "beta": 2.0, "lam": 0.5}
INVERTED = {"alpha": 2.0, "beta": 1.0, "lam": 0.5}


def failed(check, out) -> bool:
    problems, _ = check(out)
    return bool(problems)


# ---------------------------------------------------------------------------
# checkers count deliberately wrong results as failed
# ---------------------------------------------------------------------------

def test_recovery_integer_checker():
    out = {"kernel": KERNEL, "inv_eps": [8, 16], "values": [0.625, 0.625]}
    assert not failed(W.check_recovery_integer, out)
    wrong = dict(out, values=[0.625, 0.625 + 1e-6])
    assert failed(W.check_recovery_integer, wrong)


def test_recovery_jitter_checker_uses_documented_envelope():
    m = 8.5
    st = gammalab.run_recovery_study(0.0, 1.0, 2.0, 0.5, [1.0 / m])
    out = {"kernel": KERNEL, "inv_eps": [m], "values": st.values}
    assert not failed(W.check_recovery_jitter, out)
    env = W.jitter_envelope(m, 0.625, 2.0)
    assert failed(W.check_recovery_jitter, dict(out, values=[0.625 + 1.01 * env]))


def test_fm_checker():
    out = {"kernel": KERNEL, "verdict": "confirmed", "threshold_M": 1.0, "optimum": 0.625}
    assert not failed(W.check_fm_threshold, out)
    assert failed(W.check_fm_threshold, dict(out, verdict="inconclusive"))
    assert failed(W.check_fm_threshold, dict(out, optimum=0.625 + 1e-6))


def _reproduce_out():
    criteria = [
        {"id": cid, "passed": ok, "details": {}} for cid, ok in W.EXPECTED_PASSED.items()
    ]
    criteria[0]["details"] = {"gamma_half": 0.625}
    criteria[4]["details"] = {
        "instances": [
            {"i": i, "exact": 1.0, "quadrature": 1.0 + 1e-9, "bound": 1e-6, "within_bound": True}
            for i in range(W.CRITERION_5_INSTANCES)
        ]
    }
    return {"exit_code": 2, "stderr": "", "report": {"result": {"criteria": criteria}}}


def test_reproduce_checker():
    good = _reproduce_out()
    problems, ratios = W.check_reproduce(good)
    assert problems == []
    assert ratios["energy.evaluate_quadrature.max_diff_over_bound"] == pytest.approx(1e-3)

    def flipped(cid):
        out = copy.deepcopy(good)
        c = out["report"]["result"]["criteria"][cid - 1]
        c["passed"] = not c["passed"]
        return out

    assert failed(W.check_reproduce, flipped(5))  # criterion 5 flipped to FAIL
    assert failed(W.check_reproduce, flipped(2))  # criterion 2 flipped to PASS
    outside = copy.deepcopy(good)
    outside["report"]["result"]["criteria"][4]["details"]["instances"][7]["quadrature"] = 2.0
    assert failed(W.check_reproduce, outside)
    assert failed(W.check_reproduce, dict(good, exit_code=0))
    half = copy.deepcopy(good)
    half["report"]["result"]["criteria"][0]["details"]["gamma_half"] = 0.625 + 1e-6
    assert failed(W.check_reproduce, half)


def test_rough_energy_checker():
    out = {"exit_code": 0, "stderr": "", "eps": 0.01, "eps_used": 0.01,
           "exact": 1.0, "quadrature": 1.0 + 5e-7, "bound": 1e-6}
    assert not failed(W.check_rough_energy, out)
    assert failed(W.check_rough_energy, dict(out, exact=1.0 - 1e-6))  # energy off by 1e-6
    assert failed(W.check_rough_energy, dict(out, exact=float("inf")))
    assert failed(W.check_rough_energy, {"exit_code": 1, "stderr": "error: cap", "eps": 0.01})


def test_cell_relaxed_checker():
    solve = {"t": 0.4, "energy": 0.7, "converged": True, "constraint_residual": 0.0,
             "iterations": 3, "arc_start_energy": 0.7}
    out = {"n": 256, "solves": [solve]}
    assert not failed(W.check_cell_relaxed, out)
    for bad in ({"converged": False}, {"constraint_residual": 1e-6}, {"energy": 0.7 + 1e-6}):
        assert failed(W.check_cell_relaxed, {"n": 256, "solves": [dict(solve, **bad)]})


def test_cell_verify_checker_on_real_output():
    tasks = W._cell_tasks({"kernels": [dict(KERNEL, t=[0.3, 0.6])]}, Path("."))
    verify = next(t for t in tasks if t.stage == "cell.verify")
    out = verify.run()
    assert not failed(W.check_cell_verify, out)
    wrong = copy.deepcopy(out)
    wrong["rows"][3]["arcs_only"] += 1e-6
    assert failed(W.check_cell_verify, wrong)
    wrong = copy.deepcopy(out)
    wrong["rows"][3]["all_subsets"] -= 1e-6  # alpha <= beta: must equal arcs-only
    assert failed(W.check_cell_verify, wrong)
    inverted = dict(out, kernel=INVERTED)
    inverted["rows"] = [dict(r, all_subsets=r["arcs_only"] + 1e-6) for r in out["rows"]]
    assert failed(W.check_cell_verify, inverted)


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_seed_fixes_inputs(name):
    make = W.WORKLOADS[name].make_inputs
    assert make(11) == make(11)
    assert make(11) != make(12)


def test_same_seed_same_result_hash(tmp_path):
    def first_task_hash(seed):
        tasks = W.WORKLOADS["cell"].build_tasks(W.WORKLOADS["cell"].make_inputs(seed), tmp_path)
        results = [run.run_task(tasks[0], None)]
        assert results[0]["problems"] == []
        return run.result_hash(tasks[:1], results)

    assert first_task_hash(5) == first_task_hash(5)
    assert first_task_hash(5) != first_task_hash(6)


# ---------------------------------------------------------------------------
# failure accounting
# ---------------------------------------------------------------------------

def test_errors_and_failed_checks_are_counted_and_the_pass_goes_on():
    def over_cap():
        raise ResourceLimitError("C(40,20) exceeds the enumeration cap")

    tasks = [
        W.Task("demo.raises", {"n": 40}, over_cap, lambda out: ([], {})),
        W.Task("demo.wrong", {"n": 1}, lambda: {"x": 1}, lambda out: (["x is wrong"], {})),
        W.Task("demo.ok", {"n": 1}, lambda: {"x": 2}, lambda out: ([], {})),
    ]
    (only_pass,) = run.run_passes(tasks, budget_s=0.0)
    results = only_pass["results"]
    assert "ResourceLimitError" in results[0]["problems"][0]
    assert "Traceback" in results[0]["error"]
    assert results[1]["problems"] == ["x is wrong"]
    assert results[2]["problems"] == [] and results[2]["out"] == {"x": 2}


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_untraced_run_installs_no_wrappers():
    original = energy.evaluate
    tasks = W._cell_tasks({"kernels": [dict(KERNEL, t=[0.5])]}, Path("."))[:1]
    run.run_passes(tasks, budget_s=0.0)
    assert energy.evaluate is original
    assert acceptance.evaluate is original


def test_install_reaches_every_binding_and_uninstall_restores():
    before = {
        "energy": energy.evaluate,
        "gammalab": gammalab.evaluate,
        "criteria": acceptance.CRITERIA,
        "matvec": nlhomog.cell.CellKernelMatrix.matvec,
    }
    tr = tracing.Tracer()
    tr.install(nlhomog)
    try:
        assert energy.evaluate is not before["energy"]
        assert gammalab.evaluate is acceptance.evaluate is energy.evaluate
        assert acceptance.CRITERIA[4] is acceptance.criterion_5_quadrature_oracle
        k = nlhomog.make_lambda_kernel(1.0, 2.0, 0.5)
        gammalab.run_recovery_study(0.0, 1.0, 2.0, 0.5, [0.25, 0.125])
        nlhomog.cell.cell_energy(nlhomog.cell.build_cell_matrix(k, 8), [0.5] * 8)
    finally:
        tr.uninstall()
    assert energy.evaluate is before["energy"] and gammalab.evaluate is before["gammalab"]
    assert acceptance.CRITERIA is before["criteria"]
    assert nlhomog.cell.CellKernelMatrix.matvec is before["matvec"]
    stats = tr.layer_stats()
    assert stats["energy.evaluate"]["calls"] == 2
    assert stats["accel.pair_energy"]["calls"] == 2
    assert stats["states.oscillating_profile"]["sum"]["intervals"] > 0
    assert stats["energy.rect_integral"]["calls"] == 8
    assert stats["cell.CellKernelMatrix.matvec"]["calls"] == 1
    parents = {tr.names[nid]: parent for nid, parent, *_ in tr.spans}
    assert tr.names[tr.spans[parents["energy.evaluate"]][0]] == "gammalab.run_recovery_study"


def test_self_time_subtracts_time_covered_by_children():
    tr = tracing.Tracer()
    tr.call("outer", lambda: [tr.call("inner", sum, (range(20000),)) for _ in range(3)])
    stats = tr.layer_stats()
    outer, inner = stats["outer"], stats["inner"]
    assert inner["calls"] == 3 and inner["self_s"] == pytest.approx(inner["s"])
    assert outer["self_s"] == pytest.approx(outer["s"] - inner["s"], abs=1e-12)
    assert tracing._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 0.5, 6.0) == 3.5


def test_every_declared_layer_metric_has_a_rule():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    extra = {"setup.import_s": 0.1, "setup.inputs_s": 0.0, "setup.warmup_s": 0.0,
             "trace.overhead_frac": 0.0, **dict.fromkeys(run.CHECK_RATIOS, 0.0)}
    for m in spec["per_layer"]:
        run.layer_metric(m["name"], {}, 1, extra)
