#!/usr/bin/env python3
"""Assemble a BENCH_<short-sha>.json record from perfbench result files.

Each side is a checkout in which ``python3 perfbench/run.py`` has been run;
its ``.bench_out/results/*.json`` files are read, and they must all come from
one source tree (one ``source_sha256``): a side that mixes trees is refused
with each hash and its file count. Usage, from the root of the
change's checkout:

    python3 tools/bench_record.py --side parent=../parent --side change=. \\
        --out BENCH_<short-sha of parent>.json

The record holds, per side: the commit (null for an uncommitted tree), the
sha256 of its sources, nproc and the Python and numpy versions; per workload,
every untraced run's seed, passes, ``wall_s``, ``setup_s``, ``peak_rss_mb``
and ``failed_frac`` with their medians, quartiles and ``fast_median``, the
median of the better half of the runs; and the per-layer metrics of every
traced run. With two sides, ``verdict`` holds, per workload
and end-to-end metric of BENCHMARK.json (which is only read), over the seeds
run on both sides:

- ``wins``: the pairs in which the second side is better than the first;
- ``wins_9_of_10``: whether that is at least 9/10 of the pairs;
- ``gain_exceeds_iqr``: whether the second side's median is better than the
  first's by more than the first side's interquartile range;
- ``worse_than_bound``: whether the second side's median is worse than the
  first's by more than the metric's relative bound;
- ``unresolved``: whether the first side's interquartile range exceeds the
  metric's relative bound, so that a shift within the bound cannot be told
  from noise, unless every run of the second side is better than every run
  of the first.

Each verdict also gives both sides' ``fast_median`` (``fast_median``,
``parent_fast_median``). It is a diagnostic for runs that fall into a fast
and a slow state of the machine, and decides none of the fields above.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import Counter
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb", "failed_frac")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def summary(values, better="lower"):
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    # runs of one side can fall into a fast and a slow state of the machine;
    # the median of the better half compares the fast states of two sides
    ranked = sorted(values, reverse=better == "higher")
    fast = statistics.median(ranked[:(len(ranked) + 1) // 2])
    return {"median": med, "q1": q1, "q3": q3, "fast_median": fast}


def read_side(root: Path) -> dict:
    results = root / ".bench_out" / "results"
    records = [json.loads(p.read_text()) for p in sorted(results.glob("*.json"))]
    if not records:
        raise SystemExit(f"no perfbench results under {results}")
    # one side is one source tree: runs of other trees must not be paired
    trees = Counter(rec["environment"]["source_sha256"] for rec in records)
    if len(trees) > 1:
        raise SystemExit(f"results of {len(trees)} source trees under {results}: " + ", ".join(
            f"source_sha256 {sha} in {count} files" for sha, count in sorted(trees.items())))
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


def metric_verdict(base_runs, other_runs, better: str, bound: float) -> dict:
    """The claim verdict of one metric over runs paired by position."""
    sign = 1.0 if better == "lower" else -1.0
    base, other = summary(base_runs, better), summary(other_runs, better)
    wins = sum(sign * (b - a) < 0 for a, b in zip(base_runs, other_runs))
    gain = sign * (base["median"] - other["median"])
    iqr = base["q3"] - base["q1"]
    sweep = max(sign * b for b in other_runs) < min(sign * a for a in base_runs)
    return {
        "median": other["median"],
        "parent_median": base["median"],
        "fast_median": other["fast_median"],
        "parent_fast_median": base["fast_median"],
        "parent_iqr": iqr,
        "wins": wins,
        "wins_9_of_10": 10 * wins >= 9 * len(base_runs),
        "gain_exceeds_iqr": gain > iqr,
        "worse_than_bound": -gain > bound * abs(base["median"]),
        "unresolved": iqr > bound * abs(base["median"]) and not sweep,
    }


def verdict(base: dict, other: dict, end_to_end: list) -> dict:
    out = {}
    for name, wl in other["workloads"].items():
        ref = {r["seed"]: r for r in base["workloads"].get(name, {}).get("runs", [])}
        pairs = [(ref[r["seed"]], r) for r in wl["runs"] if r["seed"] in ref]
        if pairs:
            out[name] = {"pairs": len(pairs)}
            for m in end_to_end:
                out[name][m["name"]] = metric_verdict(
                    [a[m["name"]] for a, _ in pairs], [b[m["name"]] for _, b in pairs],
                    m["better"], m["bound"],
                )
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
        end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
        record["verdict"] = {"side": second, "over": first,
                             "workloads": verdict(base, other, end_to_end)}
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
