"""Command-line interface: experiments, config ingestion, structured output.

``FIELDS`` declares each config field's flag, default and type, and
``COMMANDS`` the fields each subcommand reads, some of them only under one
value of a selector field (cell-solve's method, energy's potential). A
subcommand registers flags for all its fields and the run flags --config
--output-dir --threads --seed only; a flag or config-file field that the
selected variant does not read is a config error. ``dispatch`` registers the
flags of the command it runs only; ``--help``, a missing and an unknown
command get the parser of every command, so their text lists every command.
Every subcommand writes a JSON report (machine consumption) and, where the
result is tabular, a CSV next to it (plotting). A report embeds the
command's fields plus seed and a schema_version field, and identical configs
produce byte-identical reports regardless of thread count.

Exit codes: 0 success/confirmed, 1 config error, 2 refuted, 3 inconclusive.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import acceptance, cell, util
from .cell import (
    build_cell_matrix,
    check_cell_count,
    compare_with_arcs,
    enumeration_size,
    gamma_closed_form,
    optimal_profile,
    solve_brute_force,
    solve_relaxed,
)
from .energy import evaluate, evaluate_quadrature
from .gammalab import (
    DEFAULT_DIFFERENCE_TOL,
    DEFAULT_EPS_GRID,
    DEFAULT_FM_EPS,
    DEFAULT_M_GRID,
    DEFAULT_S1,
    DEFAULT_S2,
    DEFAULT_STUDY_TOL,
    fM_threshold_experiment,
    non_representability_certificate,
    run_flat_study,
    run_recovery_study,
    two_scale_pairing,
)
from .kernel import PeriodicStepKernel, make_lambda_kernel
from .states import (
    DEFAULT_VALUE_TOL,
    StepFunction,
    TripleWellPotential,
    check_profile_size,
    oscillating_profile,
)
from .util import ResourceLimitError, dump_json, make_pmap, write_csv

SCHEMA_VERSION = 1

VERDICT_EXIT = {"confirmed": 0, "refuted": 2, "inconclusive": 3}


class ConfigError(Exception):
    pass


def _load_config_file(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} line {e.lineno}: {e.msg}") from e


def _read_value(key: str, val, conv):
    """val as conv, for a flag's text and a config-file value alike: text is
    parsed, any other value must come through conv unchanged, and a float
    must be finite. A grid (conv list) is a non-empty list of such floats or
    comma-separated text whose blank items are skipped."""
    if conv is list:
        items = [x for x in val.split(",") if x.strip()] if isinstance(val, str) else val
        if not isinstance(items, list) or not items:
            raise ConfigError(f"field {key}: expected a non-empty list or comma-separated text")
        return [_read_value(key, x, float) for x in items]
    try:
        out = conv(val)
    except (TypeError, ValueError, OverflowError):
        out = None
    if (out is None or isinstance(val, bool) or not (isinstance(val, str) or out == val)
            or (conv is float and not math.isfinite(out))):
        what = "a finite float" if conv is float else conv.__name__
        raise ConfigError(f"field {key}: cannot read {val!r} as {what}")
    return out


# field -> (flag, default, type[, help]); the flag's dest is the field name,
# and the flag's text and a config-file value both go through _read_value
# with the type. A selector's values (potential, method) are declared in
# COMMANDS only.
FIELDS = {
    "alpha": ("--alpha", 1.0, float),
    "beta": ("--beta", 2.0, float),
    "lambda": ("--lambda", 0.5, float),
    "kernel": ("--kernel", None, str, "kernel JSON path (overrides alpha/beta/lambda)"),
    "potential": ("--potential", "infinite", str),
    "cap": ("--cap", 8.0, float),
    "c": ("--c", 0.0, float),
    "t": ("--t", 0.5, float),
    "t_steps": ("--t-steps", 101, int),
    "s1": ("--s1", DEFAULT_S1, float),
    "s2": ("--s2", DEFAULT_S2, float),
    "eps": ("--eps", DEFAULT_FM_EPS, float),  # energy shares it
    "eps_grid": ("--eps-grid", list(DEFAULT_EPS_GRID), list),
    "M_grid": ("--M-grid", list(DEFAULT_M_GRID), list),
    "n": ("--n", None, int),  # cell grid: 16 on the exhaustive paths, else 256
    "k_ones": ("--k-ones", 8, int),
    "method": ("--method", "closed_form", str),
    "mode": ("--mode", "all_subsets", str),
    "quad_n": ("--quad-n", 0, int),
    "difference_tol": ("--tol", DEFAULT_DIFFERENCE_TOL, float),
    "study_tol": ("--study-tol", DEFAULT_STUDY_TOL, float),
    "value_tol": ("--value-tol", DEFAULT_VALUE_TOL, float),
    "output_dir": ("--output-dir", ".", str),
    "threads": ("--threads", 1, int),
    "seed": ("--seed", acceptance.DEFAULT_SEED, int),
    "u": ("--u", None, str, "step-function JSON path"),
}

# every command also reads these; threads and output_dir are execution
# environment, not experiment inputs, so reports leave them out and stay
# byte-identical across thread counts
RUN_FIELDS = ("output_dir", "threads", "seed")


def command_fields(command: str, cfg=None) -> tuple:
    """The fields command reads besides RUN_FIELDS: its own, plus those of
    the variant that cfg's selector value picks (of every variant when cfg
    is None)."""
    _, fields, variants = COMMANDS[command]
    for selector, by_value in variants.items():
        # a tuple compares by ==, so an unhashable config-file value is refused too
        if cfg is not None and cfg[selector] not in tuple(by_value):
            raise ConfigError(f"{selector} must be {'|'.join(by_value)}, got {cfg[selector]!r}")
        picked = by_value.values() if cfg is None else [by_value[cfg[selector]]]
        fields = tuple(dict.fromkeys(fields + sum(picked, ())))
    return fields


def _resolve_config(args) -> dict:
    """The fields the command reads and the run fields: defaults, then the
    config file, then flags."""
    given = _load_config_file(args.config) if args.config else {}
    if not isinstance(given, dict):
        raise ConfigError(f"config {args.config}: expected a table of fields")
    for key in command_fields(args.command) + RUN_FIELDS:
        if getattr(args, key) is not None:
            given[key] = getattr(args, key)
    selected = {key: given.get(key, FIELDS[key][1]) for key in COMMANDS[args.command][2]}
    cfg = {key: FIELDS[key][1] for key in command_fields(args.command, selected) + RUN_FIELDS}
    for key, val in given.items():
        if key not in cfg:
            variant = "".join(f" with {k} {v}" for k, v in selected.items())
            raise ConfigError(f"{args.command}{variant} reads no config field {key!r}")
        if val is not None or FIELDS[key][1] is not None:  # null leaves a path or n unset
            cfg[key] = _read_value(key, val, FIELDS[key][2])
    if "n" in cfg and cfg["n"] is None:
        # the exhaustive paths' enumeration must fit the cap
        exhaustive = args.command == "cell-verify" or cfg["method"] == "brute_force"
        cfg["n"] = 16 if exhaustive else 256
    if "quad_n" in cfg and cfg["quad_n"] != 0 and cfg["quad_n"] < 2:
        raise ConfigError("quad_n must be 0 (no quadrature) or >= 2")
    if not 1 <= cfg.get("t_steps", 1) <= util.MAX_INTERVALS:
        raise ConfigError(f"t_steps must lie in [1, {util.MAX_INTERVALS}]")
    return cfg


def _read_step_json(cfg, key: str, cls):
    """cls from the step-function JSON file that field key names."""
    path = Path(cfg[key])
    if not path.exists():
        raise ConfigError(f"field {key}: file not found: {path}")
    try:
        return cls.from_json(json.loads(path.read_text()))
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"field {key}: {path} is not a step-function JSON object: {e!r}") from e


def _kernel_from_config(cfg) -> PeriodicStepKernel:
    if cfg.get("kernel"):
        return _read_step_json(cfg, "kernel", PeriodicStepKernel)
    try:
        return make_lambda_kernel(cfg["alpha"], cfg["beta"], cfg["lambda"])
    except ValueError as e:
        raise ConfigError(f"kernel parameters: {e}") from e


def _step_function_from_config(cfg) -> StepFunction:
    if not cfg["u"]:
        raise ConfigError("field u: a step-function JSON path is required")
    return _read_step_json(cfg, "u", StepFunction)


def _emit(cfg, command: str, result: dict, out_json: str, csv=None) -> Path:
    """Write the JSON report and, given csv = (header, rows), <stem>.csv."""
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    embedded = {k: v for k, v in cfg.items() if k not in ("threads", "output_dir")}
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": embedded,
        "result": result,
    }
    path = outdir / out_json
    dump_json(report, path)
    if csv is not None:
        write_csv(path.with_suffix(".csv"), *csv)
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_energy(cfg, pmap) -> int:
    kern = _kernel_from_config(cfg)
    pot = TripleWellPotential(cap=cfg["cap"] if cfg["potential"] == "capped" else None)
    u = _step_function_from_config(cfg)
    # the quadrature first: its grid cap refuses before the exact sum runs
    quad = cfg["quad_n"] and evaluate_quadrature(
        u, pot, kern, cfg["eps"], n=cfg["quad_n"], value_tol=cfg["value_tol"]
    )
    rep = evaluate(u, pot, kern, cfg["eps"], value_tol=cfg["value_tol"])
    result = {"exact": rep.to_json()}
    if quad:
        result["quadrature"] = quad.to_json()
        result["abs_diff"] = abs(rep.value - quad.value)
    path = _emit(cfg, "energy", result, "energy.json")
    print(
        f"Energy of the supplied step function at eps={cfg['eps']:g} under the "
        f"{pot.kind} potential: {rep.value:.12g} (exact interval-pair evaluation; "
        f"report written to {path})."
    )
    return 0


def _cmd_gamma_table(cfg, pmap) -> int:
    ts = np.linspace(0.0, 1.0, cfg["t_steps"])
    gammas = [gamma_closed_form(cfg["alpha"], cfg["beta"], cfg["lambda"], t) for t in ts]
    result = {"t": list(map(float, ts)), "gamma": gammas, "argmin_t": float(ts[int(np.argmin(gammas))])}
    path = _emit(
        cfg, "gamma-table", result, "gamma_table.json", (["t", "gamma"], zip(ts, gammas))
    )
    print(
        f"Cell-problem closed form on {len(ts)} volume fractions for "
        f"(alpha={cfg['alpha']:g}, beta={cfg['beta']:g}, lambda={cfg['lambda']:g}): "
        f"endpoints {gammas[0]:.6g}, minimum {min(gammas):.6g} at t={result['argmin_t']:.3g}. "
        f"CSV and JSON written to {path.parent}."
    )
    return 0


def _cell_matrix(cfg, searches=()):
    """The config's n-cell matrix, built only after n and every search of
    searches, (k_ones, mode) pairs, pass the library's limits. A relaxed
    solve has no search, so n is checked first, before the kernel is parsed."""
    check_cell_count(cfg["n"])
    for k_ones, mode in searches:
        enumeration_size(cfg["n"], k_ones, mode)
    return build_cell_matrix(_kernel_from_config(cfg), cfg["n"])


def _cmd_cell_solve(cfg, pmap) -> int:
    method = cfg["method"]
    if method == "closed_form":
        val = cell.cell_minimum(cfg["alpha"], cfg["beta"], cfg["lambda"], cfg["t"]).energy
        result = {"method": "closed_form", "t": cfg["t"], "energy": val}
    elif method == "projected_gradient":
        K = _cell_matrix(cfg)
        res = solve_relaxed(K, cfg["t"], seed=cfg["seed"])
        result = {
            "method": res.method,
            "t": cfg["t"],
            "energy": res.energy,
            "iterations": res.iterations,
            "constraint_residual": res.constraint_residual,
            "converged": res.converged,
            "profile": res.profile.values.tolist(),
        }
    else:
        K = _cell_matrix(cfg, [(cfg["k_ones"], cfg["mode"])])
        res = solve_brute_force(K, cfg["k_ones"], mode=cfg["mode"])
        result = {
            "method": res.method,
            "mode": res.extras["mode"],
            "k_ones": cfg["k_ones"],
            "energy": res.energy,
            "subsets_examined": res.iterations,
            "minimizer_cells": res.extras["indices"],
        }
    path = _emit(cfg, "cell-solve", result, "cell_solve.json")
    print(
        f"Cell problem solved by {method}: energy {result['energy']:.12g} "
        f"(report written to {path})."
    )
    return 0


def _cmd_cell_verify(cfg, pmap) -> int:
    n = cfg["n"]
    ks = range(0, n + 1, max(1, n // 8))
    K = _cell_matrix(cfg, [(k, mode) for k in ks for mode in ("all_subsets", "arcs_only")])
    rows = []
    all_equal = True
    for k in ks:
        r_all, r_arc, equal = compare_with_arcs(K, k)
        closed = gamma_closed_form(cfg["alpha"], cfg["beta"], cfg["lambda"], k / n)
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
    result = {"n": n, "rows": rows, "exhaustive_equals_arcs_everywhere": all_equal}
    header = ["k", "all_subsets_min", "arcs_only_min", "closed_form_arc_value", "exhaustive_equals_arcs"]
    csv = (header, [[r[h] for h in header] for r in rows])
    path = _emit(cfg, "cell-verify", result, "cell_verify.json", csv)
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
    flat = run_flat_study(cfg["c"], cfg["alpha"], cfg["beta"], cfg["lambda"], cfg["eps_grid"])
    result = {"recovery_study": study.to_json(), "flat_study": flat.to_json()}
    csv = (
        ["eps", "oscillating_value", "oscillating_abs_error", "flat_value"],
        [
            [e, v, abs(v - study.limit_ref), fv]
            for e, v, fv in zip(study.eps_grid, study.values, flat.values)
        ],
    )
    path = _emit(cfg, "gamma-limit", result, "gamma_limit.json", csv)
    print(
        f"Finite-eps energies of the oscillating profile converge to "
        f"{study.limit_ref:.12g} (final error {study.final_error:.3g}), while the flat "
        f"sequence stays at the full mean weight {flat.limit_ref:.12g}. Report written to {path}."
    )
    return 0


def _cmd_two_scale(cfg, pmap) -> int:
    psi2 = _kernel_from_config(cfg)
    arcs = optimal_profile(cfg["t"])
    for eps in cfg["eps_grid"]:  # every profile is sized before the first is built
        check_profile_size(arcs, eps)
    psi1 = StepFunction.constant(1.0)
    # exact limit: with psi1 == 1 it is the pairing over one period (eps = 1)
    limit = two_scale_pairing(oscillating_profile(0.0, arcs, 1.0), psi1, psi2, 1.0)

    def one(eps):
        chi = oscillating_profile(0.0, arcs, eps)
        return two_scale_pairing(chi, psi1, psi2, eps)

    values = pmap(one, list(cfg["eps_grid"]))
    result = {"eps_grid": list(cfg["eps_grid"]), "pairing": list(map(float, values)), "limit": limit}
    csv = (
        ["eps", "pairing", "limit", "abs_error"],
        [[e, v, limit, abs(v - limit)] for e, v in zip(cfg["eps_grid"], values)],
    )
    path = _emit(cfg, "two-scale", result, "two_scale.json", csv)
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
    )
    csv = (
        ["M", "all_strictly_worse"] + [f"deviation_{i}" for i in range(cert.payload["n_deviation_profiles"])],
        [[r["M"], r["all_strictly_worse"]] + r["deviation_energies"] for r in cert.payload["rows"]],
    )
    path = _emit(cfg, "fm-threshold", cert.to_json(), "fm_threshold.json", csv)
    thr = cert.payload["threshold_M"]
    print(
        f"Capped-potential sweep at eps={cfg['eps']:g}: deviating profiles are strictly "
        f"costlier than the admissible optimum from cap M={thr!r} on "
        f"(verdict {cert.verdict}). Report written to {path}."
    )
    return VERDICT_EXIT[cert.verdict]


def _cmd_reproduce_all(cfg, pmap) -> int:
    results = acceptance.run_all(seed=cfg["seed"])
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


# the lambda weight's parameters; WEIGHT adds the kernel file that replaces them
LAMBDA = ("alpha", "beta", "lambda")
WEIGHT = LAMBDA + ("kernel",)

# command -> (handler, the config fields it reads besides RUN_FIELDS,
#             {selector field: {selector value: the further fields it reads}})
COMMANDS = {
    "energy": (_cmd_energy, WEIGHT + ("potential", "eps", "u", "quad_n", "value_tol"),
               {"potential": {"infinite": (), "capped": ("cap",)}}),
    "gamma-table": (_cmd_gamma_table, LAMBDA + ("t_steps",), {}),
    "cell-solve": (_cmd_cell_solve, ("method",), {"method": {
        "closed_form": LAMBDA + ("t",),
        "projected_gradient": WEIGHT + ("t", "n"),
        "brute_force": WEIGHT + ("n", "k_ones", "mode"),
    }}),
    "cell-verify": (_cmd_cell_verify, LAMBDA + ("n",), {}),
    "gamma-limit": (_cmd_gamma_limit, LAMBDA + ("c", "eps_grid"), {}),
    "two-scale": (_cmd_two_scale, WEIGHT + ("t", "eps_grid"), {}),
    "non-rep": (_cmd_non_rep, LAMBDA + ("s1", "s2", "difference_tol", "eps_grid", "study_tol"), {}),
    "fm-threshold": (_cmd_fm_threshold, LAMBDA + ("eps", "M_grid"), {}),
    "reproduce-all": (_cmd_reproduce_all, (), {}),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, or of command alone: its usage line
    still names every command, and its help and errors are the full
    parser's."""
    parser = argparse.ArgumentParser(
        prog="nlhomog",
        description="Experiments on non-local pair energies with oscillating periodic weights.",
    )
    # the metavar only where one command is added: it would rename the
    # command in the full parser's missing- and invalid-command messages
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else [command]:
        # no abbreviations: --eps must not turn into --eps-grid where only that exists
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file")
        selectors = COMMANDS[name][2]
        for field in command_fields(name) + RUN_FIELDS:
            flag, _, _, *doc = FIELDS[field]
            p.add_argument(
                flag, dest=field, choices=selectors.get(field), help=doc[0] if doc else None
            )
    return parser


def dispatch(argv) -> int:
    # only the named command's flags; --help, no command or an unknown one get all
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        cfg = _resolve_config(args)
        pmap = make_pmap(cfg["threads"])
        return COMMANDS[args.command][0](cfg, pmap)
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
