"""Command-line interface: experiments, config ingestion, structured output.

Every subcommand writes a JSON report (machine consumption) and, where the
result is tabular, a CSV next to it (plotting). JSON reports embed the full
resolved config and a schema_version field, and identical configs produce
byte-identical reports regardless of thread count.

Exit codes: 0 success/confirmed, 1 config error, 2 refuted, 3 inconclusive.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from .cell import (
    build_cell_matrix,
    enumeration_size,
    gamma_closed_form,
    optimal_profile,
    solve_brute_force,
    solve_relaxed,
)
from .energy import evaluate, evaluate_quadrature
from .gammalab import (
    fM_threshold_experiment,
    non_representability_certificate,
    run_flat_study,
    run_recovery_study,
    two_scale_pairing,
)
from .kernel import PeriodicStepFunction, PeriodicStepKernel, make_lambda_kernel
from .states import StepFunction, TripleWellPotential, integrate, oscillating_profile
from .util import ResourceLimitError, dump_json, make_pmap, write_csv

SCHEMA_VERSION = 1

VERDICT_EXIT = {"confirmed": 0, "refuted": 2, "inconclusive": 3}


class ConfigError(Exception):
    pass


def _load_config_file(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    text = p.read_text()
    if p.suffix == ".toml":
        try:
            import tomllib
        except ImportError as e:
            raise ConfigError("TOML configs need Python >= 3.11; use JSON") from e
        return tomllib.loads(text)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} line {e.lineno}: {e.msg}") from e


def _parse_grid(text):
    try:
        return [float(x) for x in str(text).split(",") if x.strip()]
    except ValueError as e:
        raise ConfigError(f"bad grid value: {text!r}") from e


DEFAULTS = {
    "alpha": 1.0,
    "beta": 2.0,
    "lambda": 0.5,
    "kernel": None,  # path to kernel JSON; overrides alpha/beta/lambda
    "potential": "infinite",
    "cap": 8.0,
    "c": 0.0,
    "t": 0.5,
    "t_steps": 101,
    "s": 0.5,
    "s1": 0.5,
    "s2": 0.25,
    "eps": 0.03125,
    "eps_grid": [1.0 / m for m in (8, 16, 32, 64, 128, 256)],
    "M_grid": [1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
    "n": None,  # cell grid; see _default_n
    "k_ones": 8,
    "method": "closed_form",
    "mode": "all_subsets",
    "quad_n": 0,
    "difference_tol": 1e-3,
    "study_tol": 1e-2,
    "value_tol": 1e-12,
    "output_dir": ".",
    "threads": 1,
    "seed": 20260809,
    "u": None,
}


def _default_n(command: str, cfg) -> int:
    """Cell grid when none is given: 16 for the exhaustive paths, whose
    enumeration must fit the cap, 256 elsewhere."""
    exhaustive = command == "cell-verify" or (
        command == "cell-solve" and cfg["method"] == "brute_force"
    )
    return 16 if exhaustive else 256


def _resolve_config(args) -> dict:
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config)
        for key, val in file_cfg.items():
            if key not in cfg:
                raise ConfigError(f"unknown config field: {key}")
            cfg[key] = val
    for key in cfg:
        arg_key = {"lambda": "lam"}.get(key, key)
        val = getattr(args, arg_key, None)
        if val is not None:
            cfg[key] = val
    if isinstance(cfg["eps_grid"], str):
        cfg["eps_grid"] = _parse_grid(cfg["eps_grid"])
    if isinstance(cfg["M_grid"], str):
        cfg["M_grid"] = _parse_grid(cfg["M_grid"])
    if cfg["n"] is None:
        cfg["n"] = _default_n(args.command, cfg)
    cfg["threads"] = int(os.environ.get("HOMOG_THREADS", cfg["threads"]))
    for field in ("difference_tol", "study_tol", "value_tol"):
        if cfg[field] <= 0:
            raise ConfigError(f"{field} must be positive")
    for field in ("eps_grid", "M_grid"):
        if not cfg[field]:
            raise ConfigError(f"{field} must be non-empty")
    return cfg


def _kernel_from_config(cfg) -> PeriodicStepKernel:
    if cfg["kernel"]:
        path = Path(cfg["kernel"])
        if not path.exists():
            raise ConfigError(f"kernel file not found: {path}")
        return PeriodicStepKernel.from_json(json.loads(path.read_text()))
    try:
        return make_lambda_kernel(cfg["alpha"], cfg["beta"], cfg["lambda"])
    except ValueError as e:
        raise ConfigError(f"kernel parameters: {e}") from e


def _potential_from_config(cfg) -> TripleWellPotential:
    if cfg["potential"] == "infinite":
        return TripleWellPotential()
    if cfg["potential"] == "capped":
        return TripleWellPotential(cap=float(cfg["cap"]))
    raise ConfigError(f"potential must be 'infinite' or 'capped', got {cfg['potential']!r}")


def _step_function_from_config(cfg) -> StepFunction:
    if not cfg["u"]:
        raise ConfigError("field u: a step-function JSON path is required")
    path = Path(cfg["u"])
    if not path.exists():
        raise ConfigError(f"field u: file not found: {path}")
    return StepFunction.from_json(json.loads(path.read_text()))


def _emit(cfg, command: str, result: dict, out_json: str) -> Path:
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    # threads and output_dir are execution environment, not experiment inputs;
    # leaving them out keeps reports byte-identical across thread counts
    embedded = {k: v for k, v in cfg.items() if k not in ("threads", "output_dir")}
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": embedded,
        "result": result,
    }
    path = outdir / out_json
    dump_json(report, path)
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_energy(cfg) -> int:
    kern = _kernel_from_config(cfg)
    pot = _potential_from_config(cfg)
    u = _step_function_from_config(cfg)
    rep = evaluate(u, pot, kern, cfg["eps"], value_tol=cfg["value_tol"])
    result = {"exact": rep.to_json()}
    if cfg["quad_n"] >= 2:
        quad = evaluate_quadrature(u, pot, kern, cfg["eps"], n=int(cfg["quad_n"]))
        result["quadrature"] = quad.to_json()
        result["abs_diff"] = abs(rep.value - quad.value)
    path = _emit(cfg, "energy", result, "energy.json")
    print(
        f"Energy of the supplied step function at eps={cfg['eps']:g} under the "
        f"{pot.kind} potential: {rep.value:.12g} (exact interval-pair evaluation; "
        f"report written to {path})."
    )
    return 0


def _cmd_gamma_table(cfg) -> int:
    ts = np.linspace(0.0, 1.0, int(cfg["t_steps"]))
    gammas = [gamma_closed_form(cfg["alpha"], cfg["beta"], cfg["lambda"], t) for t in ts]
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / "gamma_table.csv", ["t", "gamma"], zip(ts, gammas))
    result = {"t": list(map(float, ts)), "gamma": gammas, "argmin_t": float(ts[int(np.argmin(gammas))])}
    path = _emit(cfg, "gamma-table", result, "gamma_table.json")
    print(
        f"Cell-problem closed form on {len(ts)} volume fractions for "
        f"(alpha={cfg['alpha']:g}, beta={cfg['beta']:g}, lambda={cfg['lambda']:g}): "
        f"endpoints {gammas[0]:.6g}, minimum {min(gammas):.6g} at t={result['argmin_t']:.3g}. "
        f"CSV and JSON written to {path.parent}."
    )
    return 0


def _cmd_cell_solve(cfg) -> int:
    kern = _kernel_from_config(cfg)
    method = cfg["method"]
    if method == "closed_form":
        val = gamma_closed_form(cfg["alpha"], cfg["beta"], cfg["lambda"], cfg["t"])
        result = {"method": "closed_form", "t": cfg["t"], "energy": val}
    elif method == "projected_gradient":
        K = build_cell_matrix(kern, int(cfg["n"]))
        res = solve_relaxed(K, cfg["t"], seed=int(cfg["seed"]))
        result = {
            "method": res.method,
            "t": cfg["t"],
            "energy": res.energy,
            "iterations": res.iterations,
            "constraint_residual": res.constraint_residual,
            "converged": res.converged,
            "profile": res.profile.values.tolist(),
        }
    elif method == "brute_force":
        if cfg["mode"] == "all_subsets":
            enumeration_size(int(cfg["n"]), int(cfg["k_ones"]))
        K = build_cell_matrix(kern, int(cfg["n"]))
        res = solve_brute_force(K, int(cfg["k_ones"]), mode=cfg["mode"])
        result = {
            "method": res.method,
            "mode": res.extras["mode"],
            "k_ones": int(cfg["k_ones"]),
            "energy": res.energy,
            "subsets_examined": res.iterations,
            "minimizer_cells": res.extras["indices"],
        }
    else:
        raise ConfigError(f"method must be closed_form|projected_gradient|brute_force, got {method!r}")
    path = _emit(cfg, "cell-solve", result, "cell_solve.json")
    print(
        f"Cell problem solved by {method}: energy {result['energy']:.12g} "
        f"(report written to {path})."
    )
    return 0


def _cmd_cell_verify(cfg) -> int:
    kern = _kernel_from_config(cfg)
    n = int(cfg["n"])
    ks = range(0, n + 1, max(1, n // 8))
    for k in ks:
        enumeration_size(n, k)
    K = build_cell_matrix(kern, n)
    rows = []
    all_equal = True
    for k in ks:
        r_all = solve_brute_force(K, k, mode="all_subsets")
        r_arc = solve_brute_force(K, k, mode="arcs_only")
        closed = gamma_closed_form(cfg["alpha"], cfg["beta"], cfg["lambda"], k / n)
        equal = abs(r_all.energy - r_arc.energy) <= 1e-9
        all_equal &= equal
        rows.append(
            {
                "k": k,
                "all_subsets_min": r_all.energy,
                "arcs_only_min": r_arc.energy,
                "closed_form_arc_value": closed,
                "exhaustive_equals_arcs": equal,
            }
        )
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(
        outdir / "cell_verify.csv",
        ["k", "all_subsets_min", "arcs_only_min", "closed_form_arc_value", "exhaustive_equals_arcs"],
        [[r["k"], r["all_subsets_min"], r["arcs_only_min"], r["closed_form_arc_value"], r["exhaustive_equals_arcs"]] for r in rows],
    )
    result = {"n": n, "rows": rows, "exhaustive_equals_arcs_everywhere": all_equal}
    path = _emit(cfg, "cell-verify", result, "cell_verify.json")
    print(
        f"Exhaustive search vs arcs on the n={n} grid: "
        + ("arcs are optimal at every tested filling." if all_equal else
           "non-arc patterns beat arcs at some fillings (expected when the short-range "
           "band of the weight is the expensive one).")
        + f" Report written to {path}."
    )
    return 0 if all_equal else 2


def _cmd_gamma_limit(cfg, pmap) -> int:
    study = run_recovery_study(
        cfg["c"], cfg["alpha"], cfg["beta"], cfg["lambda"], cfg["eps_grid"], pmap=pmap
    )
    flat = run_flat_study(
        cfg["c"], cfg["alpha"], cfg["beta"], cfg["lambda"], cfg["eps_grid"], pmap=pmap
    )
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(
        outdir / "gamma_limit.csv",
        ["eps", "oscillating_value", "oscillating_abs_error", "flat_value"],
        [
            [e, v, abs(v - study.limit_ref), fv]
            for e, v, fv in zip(study.eps_grid, study.values, flat.values)
        ],
    )
    result = {"recovery_study": study.to_json(), "flat_study": flat.to_json()}
    path = _emit(cfg, "gamma-limit", result, "gamma_limit.json")
    print(
        f"Finite-eps energies of the oscillating profile converge to "
        f"{study.limit_ref:.12g} (final error {study.final_error:.3g}), while the flat "
        f"sequence stays at the full mean weight {flat.limit_ref:.12g}. Report written to {path}."
    )
    return 0


def _cmd_two_scale(cfg, pmap) -> int:
    kern = _kernel_from_config(cfg)
    arcs = optimal_profile(cfg["t"])
    psi1 = StepFunction.constant(1.0)
    psi2 = PeriodicStepFunction(kern.breakpoints, kern.values)
    # exact limit: integral of psi1 times the cell average of profile * psi2
    overlap = 0.0
    edges = np.append(psi2.breakpoints, 1.0)
    for a, b in arcs:
        for i in range(len(psi2.values)):
            lo, hi = max(a, edges[i]), min(b, edges[i + 1])
            overlap += max(0.0, hi - lo) * psi2.values[i]
    limit = integrate(psi1) * overlap

    def one(eps):
        chi = oscillating_profile(0.0, arcs, eps)
        return two_scale_pairing(chi, psi1, psi2, eps)

    values = pmap(one, list(cfg["eps_grid"]))
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(
        outdir / "two_scale.csv",
        ["eps", "pairing", "limit", "abs_error"],
        [[e, v, limit, abs(v - limit)] for e, v in zip(cfg["eps_grid"], values)],
    )
    result = {"eps_grid": list(cfg["eps_grid"]), "pairing": list(map(float, values)), "limit": limit}
    path = _emit(cfg, "two-scale", result, "two_scale.json")
    err = max(abs(v - limit) for v in values)
    print(
        f"Two-scale pairing of the oscillating indicator against the weight converges to "
        f"{limit:.12g} (max abs error {err:.3g} over the grid). Report written to {path}."
    )
    return 0


def _cmd_non_rep(cfg, pmap) -> int:
    cert = non_representability_certificate(
        cfg["alpha"],
        cfg["beta"],
        cfg["lambda"],
        s1=cfg["s1"],
        s2=cfg["s2"],
        tol=cfg["difference_tol"],
        eps_grid=cfg["eps_grid"],
        study_tol=cfg["study_tol"],
        pmap=pmap,
    )
    path = _emit(cfg, "non-rep", cert.to_json(), "non_rep.json")
    p = cert.payload
    print(
        f"Implied unit-increment costs at jump locations {cfg['s1']:g} and {cfg['s2']:g}: "
        f"{p['unit_jump_cost_s1']:.9g} vs {p['unit_jump_cost_s2']:.9g} "
        f"(difference {p['abs_difference']:.9g}); a single pairwise integrand cannot "
        f"produce both, verdict {cert.verdict}. Report written to {path}."
    )
    return VERDICT_EXIT[cert.verdict]


def _cmd_fm_threshold(cfg, pmap) -> int:
    cert = fM_threshold_experiment(
        cfg["alpha"],
        cfg["beta"],
        cfg["lambda"],
        eps=cfg["eps"],
        M_grid=cfg["M_grid"],
        pmap=pmap,
    )
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(
        outdir / "fm_threshold.csv",
        ["M", "all_strictly_worse"] + [f"deviation_{i}" for i in range(cert.payload["n_deviation_profiles"])],
        [[r["M"], r["all_strictly_worse"]] + r["deviation_energies"] for r in cert.payload["rows"]],
    )
    path = _emit(cfg, "fm-threshold", cert.to_json(), "fm_threshold.json")
    thr = cert.payload["threshold_M"]
    print(
        f"Capped-potential sweep at eps={cfg['eps']:g}: deviating profiles are strictly "
        f"costlier than the admissible optimum from cap M={thr!r} on "
        f"(verdict {cert.verdict}). Report written to {path}."
    )
    return VERDICT_EXIT[cert.verdict]


def _cmd_reproduce_all(cfg, pmap) -> int:
    results = acceptance.run_all(seed=int(cfg["seed"]), pmap=pmap)
    result = {
        "criteria": [r.to_json() for r in results],
        "all_passed": all(r.passed for r in results),
    }
    path = _emit(cfg, "reproduce-all", result, "reproduce_all.json")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"  criterion {r.cid} {r.name}: {status} ({r.elapsed_s:.2f}s)")
    n_pass = sum(r.passed for r in results)
    print(
        f"Reproduction suite finished: {n_pass}/{len(results)} checks passed; consolidated "
        f"report written to {path}."
    )
    return 0 if result["all_passed"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlhomog",
        description="Experiments on non-local pair energies with oscillating periodic weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        "energy",
        "gamma-table",
        "cell-solve",
        "cell-verify",
        "gamma-limit",
        "two-scale",
        "non-rep",
        "fm-threshold",
        "reproduce-all",
    )
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON (or TOML on Python 3.11+) config file")
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--lambda", dest="lam", type=float)
        p.add_argument("--kernel", help="kernel JSON path (overrides alpha/beta/lambda)")
        p.add_argument("--potential", choices=["infinite", "capped"])
        p.add_argument("--cap", type=float)
        p.add_argument("--c", type=float)
        p.add_argument("--t", type=float)
        p.add_argument("--t-steps", dest="t_steps", type=int)
        p.add_argument("--s", type=float)
        p.add_argument("--s1", type=float)
        p.add_argument("--s2", type=float)
        p.add_argument("--eps", type=float)
        p.add_argument("--eps-grid", dest="eps_grid")
        p.add_argument("--M-grid", dest="M_grid")
        p.add_argument("--n", type=int)
        p.add_argument("--k-ones", dest="k_ones", type=int)
        p.add_argument("--method")
        p.add_argument("--mode")
        p.add_argument("--quad-n", dest="quad_n", type=int)
        p.add_argument("--tol", dest="difference_tol", type=float)
        p.add_argument("--study-tol", dest="study_tol", type=float)
        p.add_argument("--value-tol", dest="value_tol", type=float)
        p.add_argument("--output-dir", dest="output_dir")
        p.add_argument("--threads", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--u", help="step-function JSON path")
    return parser


HANDLERS = {
    "energy": lambda cfg, pmap: _cmd_energy(cfg),
    "gamma-table": lambda cfg, pmap: _cmd_gamma_table(cfg),
    "cell-solve": lambda cfg, pmap: _cmd_cell_solve(cfg),
    "cell-verify": lambda cfg, pmap: _cmd_cell_verify(cfg),
    "gamma-limit": _cmd_gamma_limit,
    "two-scale": _cmd_two_scale,
    "non-rep": _cmd_non_rep,
    "fm-threshold": _cmd_fm_threshold,
    "reproduce-all": _cmd_reproduce_all,
}


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        cfg = _resolve_config(args)
        pmap = make_pmap(cfg["threads"])
        return HANDLERS[args.command](cfg, pmap)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError, ResourceLimitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
