#!/usr/bin/env python3
"""nlhomog benchmark: run one workload as a closed loop and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload fine_eps --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process runs one workload, one task at a time, with BLAS and the CLI on a
single thread. Set-up (import, input generation, warm-up) is measured five
times and reported as medians. The workload's fixed task list (one "pass") is
then repeated while another pass still fits in ``--seconds``; at least one
pass always runs. Every task's output is checked.

With ``--trace 0`` no wrapper is installed and the last line of output is a
JSON object with the end-to-end metrics of BENCHMARK.json. With ``--trace 1``
untraced passes fill the first half of the time, traced passes the second,
and the JSON carries the per-layer metrics. Results, failures and spans are
written under ``.bench_out/``. ``--workload all`` runs every workload in its
own fresh process and prints a combined result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "HOMOG_THREADS")
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import nlhomog.cli; "
    "print(time.perf_counter() - t)"
)
# counters recorded at span boundaries (see tracer.py)
COUNT_KEYS = {"intervals", "pairs", "levels", "cell_pairs", "subsets", "iterations",
              "nonconverged", "bytes"}
# error ratios reported by the output checks rather than by spans
CHECK_RATIOS = ("energy.evaluate.max_err_ratio", "energy.evaluate_quadrature.max_diff_over_bound")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def time_import() -> float:
    """Seconds to import the package in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return float(proc.stdout)


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the package sources; identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "nlhomog").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np
    from nlhomog import _accel

    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "HAVE_NUMBA": _accel.HAVE_NUMBA,
        "USE_NUMBA": _accel.USE_NUMBA,
        "HOMOG_DISABLE_NUMBA": os.environ.get("HOMOG_DISABLE_NUMBA"),
        "thread_env": {var: os.environ[var] for var in PINNED_ENV},
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# set-up and the measured loop
# ---------------------------------------------------------------------------

def measure_setup(wl, seed: int, workdir: Path) -> tuple:
    """Medians of SETUP_REPEATS set-ups, the inputs and the task list."""
    imports, inputs_s, warmup_s = [], [], []
    for _ in range(SETUP_REPEATS):
        imports.append(time_import())
        t0 = time.perf_counter()
        inputs = wl.make_inputs(seed % 2**64)  # numpy seeds must be non-negative
        tasks = wl.build_tasks(inputs, workdir)
        t1 = time.perf_counter()
        wl.warmup(workdir)
        warmup_s.append(time.perf_counter() - t1)
        inputs_s.append(t1 - t0)
    setup = {
        "import_s": statistics.median(imports),
        "inputs_s": statistics.median(inputs_s),
        "warmup_s": statistics.median(warmup_s),
    }
    return setup, inputs, tasks


def run_task(task, tracer) -> dict:
    start = time.perf_counter()
    try:
        if tracer is None:
            out = task.run()
        else:
            tracer.run_id += 1
            out = tracer.call(f"task.{task.stage}", task.run)
        seconds = time.perf_counter() - start
        problems, ratios = task.check(out)
        return {"out": out, "seconds": seconds, "problems": problems, "ratios": ratios,
                "error": None}
    except Exception as exc:  # a failed task is counted and the workload goes on
        return {
            "out": None,
            "seconds": time.perf_counter() - start,
            "problems": [f"{type(exc).__name__}: {exc}"],
            "ratios": {},
            "error": traceback.format_exc(),
        }


def run_passes(tasks, budget_s: float, tracer=None) -> list:
    """Repeat the task list while another pass fits in budget_s (at least once)."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results = [run_task(task, tracer) for task in tasks]
        seconds = time.perf_counter() - t0
        passes.append({"seconds": seconds, "traced": tracer is not None, "results": results})
        if time.perf_counter() - start + seconds > budget_s:
            return passes


def result_hash(tasks, results) -> str:
    doc = [[t.stage, t.size, r["out"]] for t, r in zip(tasks, results)]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def layer_metric(name: str, stats: dict, n_passes: int, extra: dict) -> float:
    """Per-pass value of a per-layer metric named <span name>.<quantity>."""
    if name in extra:
        return extra[name]
    span, _, quantity = name.rpartition(".")
    st = stats.get(span)
    if quantity.startswith("max_"):
        key, kind = quantity[4:], "max"
    elif quantity.endswith("_per_s"):
        key, kind = quantity[: -len("_per_s")], "rate"
    else:
        key, kind = quantity, "sum"
    if key not in COUNT_KEYS | {"calls", "s", "self_s"}:
        raise ValueError(f"no rule for per-layer metric {name!r}")
    if st is None:
        return 0.0  # the workload never reaches this layer
    if key in ("calls", "s", "self_s"):
        return st[key] / n_passes
    if kind == "max":
        return st["max"].get(key, 0)
    if kind == "rate":
        return st["sum"].get(key, 0) / st["s"] if st["s"] > 0 else 0.0
    return st["sum"].get(key, 0) / n_passes


def run_one(args, spec: dict) -> int:
    for var in PINNED_ENV:  # before numpy starts its BLAS threads
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import nlhomog
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT / "work"))
    tracer = None
    try:
        setup, inputs, tasks = measure_setup(wl, args.seed, workdir)
        if args.trace:
            passes = run_passes(tasks, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install(nlhomog)
            try:
                passes += run_passes(tasks, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
        else:
            passes = run_passes(tasks, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p["results"]) for p in passes)
    failures = [
        {"pass": i, "stage": t.stage, "size": t.size, "problems": r["problems"],
         "error": r["error"]}
        for i, p in enumerate(passes)
        for t, r in zip(tasks, p["results"])
        if r["problems"]
    ]
    untraced = [p["seconds"] for p in passes if not p["traced"]]
    e2e = {
        "wall_s": statistics.median(untraced),
        "setup_s": setup["import_s"] + setup["inputs_s"] + setup["warmup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": len(failures) / attempted,
    }
    extra = {f"setup.{k}": v for k, v in setup.items()}
    extra.update(dict.fromkeys(CHECK_RATIOS, 0.0))
    for p in passes:
        for r in p["results"]:
            for key, val in r["ratios"].items():
                extra[key] = max(extra[key], val)
    layers = {}
    if tracer is not None:
        traced = [p["seconds"] for p in passes if p["traced"]]
        extra["trace.overhead_frac"] = (
            statistics.median(traced) - e2e["wall_s"]) / e2e["wall_s"]
        stats = tracer.layer_stats()
        layers = {m["name"]: layer_metric(m["name"], stats, len(traced), extra)
                  for m in spec["per_layer"]}

    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = {
        "workload": wl.name,
        "args": vars(args),
        "environment": environment(args.seed),
        "inputs_sha256": hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest(),
        "result_sha256": result_hash(tasks, passes[0]["results"]),
        "setup": setup,
        "pass_seconds": [p["seconds"] for p in passes],
        "pass_traced": [p["traced"] for p in passes],
        "task_seconds": [[r["seconds"] for r in p["results"]] for p in passes],
        "end_to_end": e2e,
        "per_layer": layers,
        "attempted": attempted,
        "failures": failures,
    }
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "traces" / f"{tag}.spans.json")

    print(f"[{wl.name}] seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"tasks/pass={len(tasks)} numba={record['environment']['USE_NUMBA']}")
    for name, val in e2e.items():
        unit = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio"}[name]
        print(f"  {name:<50} {val:.6g} {unit}")
    for m in spec["per_layer"] if layers else ():
        print(f"  {m['name']:<50} {layers[m['name']]:.6g} {m['unit']}")
    for f in failures[:10]:
        print(f"  FAILED pass {f['pass']} {f['stage']} {json.dumps(f['size'])}: "
              f"{'; '.join(f['problems'])[:500]}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in its own fresh process; prints a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=1800)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {w['name']} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, metric in res["metrics"].items():
            combined["metrics"][f"{w['name']}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "nlhomog" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the repository root (src/nlhomog and BENCHMARK.json "
              "not found here)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
