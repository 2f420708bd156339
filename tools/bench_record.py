#!/usr/bin/env python3
"""Assemble a BENCH_<short-sha>.json record from perfbench result files.

Each side is a checkout in which ``python3 perfbench/run.py`` has been run;
its ``.bench_out/results/*.json`` files are read. Usage, from the root of the
change's checkout:

    python3 tools/bench_record.py --side parent=../parent --side change=. \\
        --out BENCH_<short-sha of parent>.json

The record holds, per side: the commit (null for an uncommitted tree), the
sha256 of its sources, nproc and the Python and numpy versions; per workload,
every untraced run's seed, passes, ``wall_s``, ``setup_s``, ``peak_rss_mb``
and ``failed_frac`` with their medians and quartiles; and the per-layer
metrics of every traced run. With two sides, ``wins`` counts, per workload
and metric, the seeds at which the second side's value is lower than the
first's.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb", "failed_frac")


def summary(values):
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def read_side(root: Path) -> dict:
    records = [json.loads(p.read_text())
               for p in sorted((root / ".bench_out" / "results").glob("*.json"))]
    if not records:
        raise SystemExit(f"no perfbench results under {root / '.bench_out' / 'results'}")
    env = records[0]["environment"]
    side = {key: env[key] for key in ("commit", "source_sha256", "nproc", "python", "numpy")}
    workloads = {}
    for rec in records:
        wl = workloads.setdefault(rec["workload"], {"runs": [], "traced": []})
        seed = rec["args"]["seed"]
        if rec["args"]["trace"]:
            wl["traced"].append({"seed": seed, "per_layer": rec["per_layer"]})
        else:
            wl["runs"].append({"seed": seed, "passes": len(rec["pass_seconds"]),
                               **{m: rec["end_to_end"][m] for m in METRICS}})
    for wl in workloads.values():
        wl["runs"].sort(key=lambda r: r["seed"])
        if wl["runs"]:
            wl["summary"] = {m: summary([r[m] for r in wl["runs"]]) for m in METRICS}
    side["workloads"] = workloads
    return side


def wins(base: dict, other: dict) -> dict:
    out = {}
    for name, wl in other["workloads"].items():
        ref = {r["seed"]: r for r in base["workloads"].get(name, {}).get("runs", [])}
        pairs = [(ref[r["seed"]], r) for r in wl["runs"] if r["seed"] in ref]
        if pairs:
            out[name] = {"pairs": len(pairs),
                         **{m: sum(b[m] < a[m] for a, b in pairs)
                            for m in ("wall_s", "setup_s", "peak_rss_mb")}}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--side", action="append", required=True, metavar="NAME=DIR")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    sides = {}
    for spec in args.side:
        name, _, path = spec.partition("=")
        sides[name] = read_side(Path(path))
    record = {"sides": sides}
    if len(sides) == 2:
        (first, base), (second, other) = sides.items()
        record["wins"] = {"side": second, "over": first, "workloads": wins(base, other)}
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
