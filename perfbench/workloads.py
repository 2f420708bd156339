"""The four benchmark workloads: seeded inputs, task lists and output checks.

A workload is built in three steps. ``make_inputs(seed)`` draws every input
from the seed and returns plain JSON data, so the same seed gives the same
inputs. ``build_tasks(inputs, workdir)`` turns the inputs into a fixed list of
tasks and writes any input files the CLI reads. ``warmup(workdir)`` makes one
small call into each layer the workload uses.

A task's ``run`` returns JSON data and its ``check`` returns the problems
found in that data (empty when correct) and the checked error ratios. Every
library call goes through a module attribute (``gammalab.run_recovery_study``),
so the traced run sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from nlhomog import cell, cli, energy, gammalab, kernel, states, util

# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Task:
    stage: str
    size: dict
    run: Callable[[], dict]
    check: Callable[[dict], tuple]


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], dict]
    build_tasks: Callable[[dict, Path], list]
    warmup: Callable[[Path], None]


def run_cli(argv) -> tuple:
    """cli.dispatch in-process, with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch([str(a) for a in argv])
    return code, err.getvalue()


def _draw_lambda_kernel(rng, inverted: bool) -> dict:
    """alpha < beta, or alpha > beta when inverted; lam in (0.2, 0.8)."""
    lo, hi = sorted(float(v) for v in rng.uniform(0.5, 3.0, 2))
    alpha, beta = (hi, lo) if inverted else (lo, hi)
    return {"alpha": alpha, "beta": beta, "lam": float(rng.uniform(0.2, 0.8))}


def _sorted_distinct(rng, count: int, lo: float, hi: float) -> list:
    """count strictly increasing draws from the open interval (lo, hi)."""
    while True:
        x = np.sort(rng.uniform(lo, hi, count))
        if count == 0 or (x[0] > lo and np.all(np.diff(x) > 0)):
            return x.tolist()


def _rel(err: float, ref: float) -> float:
    return err / max(abs(ref), 1e-300)


# ---------------------------------------------------------------------------
# reproduce: `nlhomog reproduce-all` in-process
# ---------------------------------------------------------------------------

# criteria 2 and 3 fail on purpose (README, "Known failing acceptance checks")
EXPECTED_PASSED = {1: True, 2: False, 3: False, 4: True, 5: True, 6: True, 7: True, 8: True}
CRITERION_5_INSTANCES = 50


def _reproduce_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {"criterion_seed": int(rng.integers(0, 2**31 - 1))}


def _reproduce_tasks(inputs: dict, workdir: Path) -> list:
    outdir = workdir / "reproduce"

    def run():
        path = outdir / "reproduce_all.json"
        path.unlink(missing_ok=True)  # never read a report from an earlier pass
        code, err = run_cli([
            "reproduce-all", "--seed", inputs["criterion_seed"], "--threads", 1,
            "--output-dir", outdir,
        ])
        report = json.loads(path.read_text()) if path.exists() else None
        return {"exit_code": code, "stderr": err, "report": report}

    size = {"criteria": len(EXPECTED_PASSED), "criterion_5_instances": CRITERION_5_INSTANCES}
    return [Task("reproduce.reproduce_all", size, run, check_reproduce)]


def check_reproduce(out: dict) -> tuple:
    problems, ratios = [], {}
    if out["exit_code"] != 2:
        problems.append(f"exit code {out['exit_code']}, expected 2 (criteria 2 and 3 red)")
    if out["report"] is None:
        return problems + ["no report written"], ratios
    criteria = {c["id"]: c for c in out["report"]["result"]["criteria"]}
    passed = {cid: c["passed"] for cid, c in criteria.items()}
    if passed != EXPECTED_PASSED:
        problems.append(f"criteria pass pattern {passed}, expected {EXPECTED_PASSED}")
    if 1 in criteria and abs(criteria[1]["details"]["gamma_half"] - 0.625) > 1e-12:
        problems.append(f"gamma_half {criteria[1]['details']['gamma_half']!r} != 0.625")
    if 5 in criteria:
        rows = criteria[5]["details"]["instances"]
        if len(rows) != CRITERION_5_INSTANCES:
            problems.append(f"criterion 5 ran {len(rows)} instances")
        outside = [
            r["i"] for r in rows
            if not (r["within_bound"] and abs(r["exact"] - r["quadrature"]) <= r["bound"])
        ]
        if outside:
            problems.append(f"criterion 5 instances outside their bound: {outside}")
        ratios["energy.evaluate_quadrature.max_diff_over_bound"] = max(
            (abs(r["exact"] - r["quadrature"]) / r["bound"] for r in rows), default=0.0
        )
    return problems, ratios


def _reproduce_warmup(workdir: Path) -> None:
    k = kernel.make_lambda_kernel(1.0, 2.0, 0.5)
    u = states.oscillating_profile(-0.5, cell.optimal_profile(0.5), 0.25)
    pot = states.TripleWellPotential()
    energy.evaluate(u, pot, k, 0.25)
    energy.evaluate_quadrature(u, pot, k, 0.25, n=16)
    K = cell.build_cell_matrix(k, 8)
    cell.solve_brute_force(K, 3)
    cell.cell_energy(K, np.full(8, 0.5))
    util.dump_json({"warmup": True}, workdir / "warmup.json")


# ---------------------------------------------------------------------------
# fine_eps: recovery studies and the capped threshold at fine eps
# ---------------------------------------------------------------------------

FINE_INV_EPS = (512, 1024, 2048, 4096)
FINE_FM_INV_EPS = 2048
INTEGER_REL_TOL = 1e-12


def _fine_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    kernels = []
    for inverted in (False, True):
        k = _draw_lambda_kernel(rng, inverted)
        k["c"] = float(rng.uniform(-1.0, 1.0))
        k["jitter_inv_eps"] = [float(m + rng.uniform(0.1, 0.9)) for m in FINE_INV_EPS]
        kernels.append(k)
    return {"kernels": kernels}


def jitter_envelope(inv_eps: float, limit: float, a_max: float) -> float:
    """Bound on |E - limit| for the recovery profile when 1/eps is not whole.

    With N = floor(1/eps), the first N periods fill [0, N*eps), and on that
    square the energy is exactly (N*eps)^2 * limit (scaling of the exact
    whole-period value). The rest of the unit square has area
    1 - (N*eps)^2 < 2*eps and an integrand in [0, a_max], so

        |E - limit| <= (1 - (N*eps)^2) * max(limit, a_max - limit),

    plus 1e-12 * limit for rounding.
    """
    covered = math.floor(inv_eps) / inv_eps
    return (1.0 - covered * covered) * max(limit, a_max - limit) + INTEGER_REL_TOL * limit


def _fine_tasks(inputs: dict, workdir: Path) -> list:
    tasks = []
    for i, k in enumerate(inputs["kernels"]):
        abl = (k["alpha"], k["beta"], k["lam"])

        def study(grid, k=k, abl=abl):
            def run():
                st = gammalab.run_recovery_study(k["c"], *abl, [1.0 / m for m in grid])
                return {"kernel": k, "inv_eps": list(grid), "values": st.values}
            return run

        def fm(abl=abl, k=k):
            cert = gammalab.fM_threshold_experiment(*abl, eps=1.0 / FINE_FM_INV_EPS)
            return {
                "kernel": k,
                "verdict": cert.verdict,
                "threshold_M": cert.payload["threshold_M"],
                "optimum": cert.payload["admissible_optimum_energy"],
            }

        tasks += [
            Task("fine_eps.recovery_integer", {"kernel": i, "inv_eps": list(FINE_INV_EPS)},
                 study(FINE_INV_EPS), check_recovery_integer),
            Task("fine_eps.recovery_jitter", {"kernel": i, "inv_eps": k["jitter_inv_eps"]},
                 study(k["jitter_inv_eps"]), check_recovery_jitter),
            Task("fine_eps.fm_threshold", {"kernel": i, "inv_eps": FINE_FM_INV_EPS},
                 fm, check_fm_threshold),
        ]
    return tasks


def _limit(k: dict) -> float:
    return gammalab.gamma_limit_constant_value(k["alpha"], k["beta"], k["lam"])


def check_recovery_integer(out: dict) -> tuple:
    ref = _limit(out["kernel"])
    problems, worst = [], 0.0
    for m, v in zip(out["inv_eps"], out["values"]):
        rel = _rel(abs(v - ref), ref)
        worst = max(worst, rel / INTEGER_REL_TOL)
        if not rel <= INTEGER_REL_TOL:
            problems.append(f"1/eps={m}: energy {v!r} differs from {ref!r} by {rel:.3g} relative")
    return problems, {"energy.evaluate.max_err_ratio": worst}


def check_recovery_jitter(out: dict) -> tuple:
    k = out["kernel"]
    ref = _limit(k)
    a_max = max(k["alpha"], k["beta"])
    problems, worst = [], 0.0
    for m, v in zip(out["inv_eps"], out["values"]):
        env = jitter_envelope(m, ref, a_max)
        worst = max(worst, abs(v - ref) / env)
        if not abs(v - ref) <= env:
            problems.append(f"1/eps={m}: |{v!r} - {ref!r}| exceeds the envelope {env:.3g}")
    return problems, {"energy.evaluate.max_err_ratio": worst}


def check_fm_threshold(out: dict) -> tuple:
    problems = []
    if out["verdict"] != "confirmed":
        problems.append(f"fM verdict {out['verdict']!r}, expected 'confirmed'")
    ref = _limit(out["kernel"])
    rel = _rel(abs(out["optimum"] - ref), ref)
    if not rel <= INTEGER_REL_TOL:
        problems.append(f"admissible optimum {out['optimum']!r} differs from {ref!r}")
    return problems, {"energy.evaluate.max_err_ratio": rel / INTEGER_REL_TOL}


def _fine_warmup(workdir: Path) -> None:
    gammalab.run_recovery_study(0.0, 1.0, 2.0, 0.5, [0.125])
    gammalab.fM_threshold_experiment(1.0, 2.0, 0.5, eps=0.125)


# ---------------------------------------------------------------------------
# rough_energy: `nlhomog energy --potential capped --quad-n N` on rough inputs
# ---------------------------------------------------------------------------

ROUGH_INTERVALS = (2000, 4000, 6000)
ROUGH_QUAD_N = 1024
LEVEL_OFFSETS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


def _rough_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    cases = []
    for P in ROUGH_INTERVALS:
        n_levels = int(rng.integers(3, 7))
        levels = float(rng.uniform(-1.0, 1.0)) + np.sort(
            rng.choice(LEVEL_OFFSETS, n_levels, replace=False)
        )
        # neighbouring intervals always take different levels
        steps = rng.integers(1, n_levels, P - 1)
        idx = np.concatenate([[0], np.cumsum(steps)]) + int(rng.integers(n_levels))
        n_seg = int(rng.integers(2, 7))
        cases.append({
            "u": {
                "breakpoints": [0.0] + _sorted_distinct(rng, P - 1, 0.0, 1.0),
                "values": levels[idx % n_levels].tolist(),
            },
            "kernel": {
                "breakpoints": [0.0] + _sorted_distinct(rng, n_seg - 1, 0.02, 0.98),
                "values": rng.uniform(0.5, 3.0, n_seg).tolist(),
            },
            "eps": float(np.exp(rng.uniform(math.log(1 / 512), math.log(1 / 16)))),
            "cap": float(rng.uniform(1.0, 20.0)),
            "levels": n_levels,
        })
    return {"cases": cases, "quad_n": ROUGH_QUAD_N}


def _energy_task(case: dict, quad_n: int, workdir: Path, tag: str):
    """Write the case's input files and return the task's run function."""
    u_path, k_path = workdir / f"{tag}_u.json", workdir / f"{tag}_kernel.json"
    u_path.write_text(json.dumps(case["u"]))
    k_path.write_text(json.dumps(case["kernel"]))
    outdir = workdir / tag

    def run():
        code, err = run_cli([
            "energy", "--u", u_path, "--kernel", k_path, "--potential", "capped",
            "--cap", repr(case["cap"]), "--eps", repr(case["eps"]), "--quad-n", quad_n,
            "--threads", 1, "--output-dir", outdir,
        ])
        out = {"exit_code": code, "stderr": err, "eps": case["eps"]}
        if code == 0:
            report = json.loads((outdir / "energy.json").read_text())
            res = report["result"]
            out.update(
                eps_used=report["config"]["eps"],
                exact=res["exact"]["value"],
                quadrature=res["quadrature"]["value"],
                bound=res["quadrature"]["bound"],
            )
        return out

    return run


def _rough_tasks(inputs: dict, workdir: Path) -> list:
    tasks = []
    for i, case in enumerate(inputs["cases"]):
        size = {
            "case": i,
            "intervals": len(case["u"]["values"]),
            "levels": case["levels"],
            "kernel_segments": len(case["kernel"]["values"]),
            "quad_n": inputs["quad_n"],
        }
        run = _energy_task(case, inputs["quad_n"], workdir, f"rough{i}")
        tasks.append(Task("rough_energy.energy_quad", size, run, check_rough_energy))
    return tasks


def check_rough_energy(out: dict) -> tuple:
    if out["exit_code"] != 0:
        return [f"exit code {out['exit_code']}: {out['stderr'].strip()}"], {}
    problems = []
    if out["eps_used"] != out["eps"]:
        problems.append(f"eps reached the CLI as {out['eps_used']!r}, not {out['eps']!r}")
    exact, quad, bound = out["exact"], out["quadrature"], out["bound"]
    if not (math.isfinite(exact) and exact >= 0.0):
        problems.append(f"exact energy {exact!r} is not finite and non-negative")
    diff = abs(exact - quad)
    if not diff <= bound:
        problems.append(f"|exact - quadrature| = {diff:.3g} exceeds the bound {bound:.3g}")
    return problems, {"energy.evaluate_quadrature.max_diff_over_bound": diff / bound}


def _rough_warmup(workdir: Path) -> None:
    case = {
        "u": {"breakpoints": [0.0, 0.3, 0.55], "values": [0.0, 1.0, 2.5]},
        "kernel": {"breakpoints": [0.0, 0.4], "values": [1.0, 2.0]},
        "eps": 0.125,
        "cap": 4.0,
    }
    _energy_task(case, 16, workdir, "warmup")()


# ---------------------------------------------------------------------------
# cell: cell matrices, relaxed solves and exhaustive search
# ---------------------------------------------------------------------------

CELL_SIZES = (256, 4096)
CELL_VERIFY_N = 20
CELL_KERNELS = (False, False, True, True)  # inverted (alpha > beta) or not


def _cell_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    kernels = []
    for inverted in CELL_KERNELS:
        k = _draw_lambda_kernel(rng, inverted)
        k["t"] = sorted(float(t) for t in rng.uniform(0.1, 0.9, 2))
        kernels.append(k)
    return {"kernels": kernels}


def _cell_tasks(inputs: dict, workdir: Path) -> list:
    tasks = []
    for i, k in enumerate(inputs["kernels"]):
        kern = kernel.make_lambda_kernel(k["alpha"], k["beta"], k["lam"])

        def relaxed(n, kern=kern, k=k):
            def run():
                K = cell.build_cell_matrix(kern, n)
                solves = []
                for t in k["t"]:
                    r = cell.solve_relaxed(K, t)
                    arc = cell.CellProfile.from_arcs(cell.optimal_profile(t), n)
                    solves.append({
                        "t": t,
                        "energy": r.energy,
                        "converged": bool(r.converged),
                        "constraint_residual": r.constraint_residual,
                        "iterations": r.iterations,
                        "arc_start_energy": cell.cell_energy(K, arc),
                    })
                return {"n": n, "solves": solves}
            return run

        def verify(kern=kern, k=k):
            K = cell.build_cell_matrix(kern, CELL_VERIFY_N)
            rows = []
            for k_ones in range(0, CELL_VERIFY_N + 1, 2):
                r_all = cell.solve_brute_force(K, k_ones, mode="all_subsets")
                r_arc = cell.solve_brute_force(K, k_ones, mode="arcs_only")
                rows.append({
                    "k": k_ones,
                    "all_subsets": r_all.energy,
                    "arcs_only": r_arc.energy,
                    "subsets": r_all.iterations,
                })
            return {"kernel": k, "n": CELL_VERIFY_N, "rows": rows}

        for n in CELL_SIZES:
            tasks.append(Task("cell.relaxed", {"kernel": i, "n": n, "solves": len(k["t"])},
                              relaxed(n), check_cell_relaxed))
        tasks.append(Task("cell.verify", {"kernel": i, "n": CELL_VERIFY_N,
                                          "subsets": 2 ** (CELL_VERIFY_N - 1)},
                          verify, check_cell_verify))
    return tasks


def check_cell_relaxed(out: dict) -> tuple:
    problems = []
    for s in out["solves"]:
        where = f"n={out['n']} t={s['t']:.6g}"
        if not s["converged"]:
            problems.append(f"{where}: solver reports no convergence")
        if not s["constraint_residual"] <= 1e-9:
            problems.append(f"{where}: constraint residual {s['constraint_residual']:.3g}")
        slack = 1e-12 * max(1.0, abs(s["arc_start_energy"]))
        if not s["energy"] <= s["arc_start_energy"] + slack:
            problems.append(
                f"{where}: energy {s['energy']!r} above its arc start {s['arc_start_energy']!r}"
            )
    return problems, {}


def check_cell_verify(out: dict) -> tuple:
    k, n = out["kernel"], out["n"]
    problems = []
    for r in out["rows"]:
        closed = cell.gamma_closed_form(k["alpha"], k["beta"], k["lam"], r["k"] / n)
        if not abs(r["arcs_only"] - closed) <= 1e-12:
            problems.append(f"k={r['k']}: arcs-only {r['arcs_only']!r} != closed form {closed!r}")
        if k["alpha"] <= k["beta"]:
            if not abs(r["all_subsets"] - r["arcs_only"]) <= 1e-9:
                problems.append(f"k={r['k']}: all-subsets {r['all_subsets']!r} != arcs-only")
        elif not r["all_subsets"] <= r["arcs_only"] + 1e-12:
            problems.append(f"k={r['k']}: all-subsets {r['all_subsets']!r} above arcs-only")
    return problems, {}


def _cell_warmup(workdir: Path) -> None:
    K = cell.build_cell_matrix(kernel.make_lambda_kernel(1.0, 2.0, 0.5), 8)
    cell.solve_relaxed(K, 0.5)
    cell.solve_brute_force(K, 4, mode="all_subsets")
    cell.solve_brute_force(K, 4, mode="arcs_only")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reproduce", _reproduce_inputs, _reproduce_tasks, _reproduce_warmup),
        Workload("fine_eps", _fine_inputs, _fine_tasks, _fine_warmup),
        Workload("rough_energy", _rough_inputs, _rough_tasks, _rough_warmup),
        Workload("cell", _cell_inputs, _cell_tasks, _cell_warmup),
    )
}
