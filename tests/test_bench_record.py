"""tools/bench_record.py on a synthetic two-side set of perfbench results."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _write_side(root, walls, setups, rss, source="0" * 64, first_seed=1):
    results = root / ".bench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    env = {"commit": None, "source_sha256": source, "nproc": 2,
           "python": "3", "numpy": "2"}
    for seed, (w, s, r) in enumerate(zip(walls, setups, rss), start=first_seed):
        rec = {"environment": env, "workload": "cell", "args": {"seed": seed, "trace": 0},
               "pass_seconds": [w, w],
               "end_to_end": {"wall_s": w, "setup_s": s, "peak_rss_mb": r, "failed_frac": 0.0}}
        (results / f"cell-seed{seed}-trace0.json").write_text(json.dumps(rec))


def test_claim_verdict_on_synthetic_pairs(tmp_path):
    parent_wall = [0.50, 0.52, 0.48, 0.55, 0.47, 0.51, 0.49, 0.53, 0.50, 0.46]
    # 9 of 10 pairs faster; the one loss is seed 10
    change_wall = [w - 0.12 for w in parent_wall[:9]] + [0.47]
    _write_side(tmp_path / "parent", parent_wall, [0.10] * 10, [40.0] * 10)
    # setup 30% slower, beyond its 0.25 bound; rss unchanged
    _write_side(tmp_path / "change", change_wall, [0.13] * 10, [40.0] * 10)
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--side", f"parent={tmp_path / 'parent'}",
                              "--side", f"change={tmp_path / 'change'}", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    cell = record["verdict"]["workloads"]["cell"]
    assert record["verdict"]["side"] == "change" and record["verdict"]["over"] == "parent"
    assert cell["pairs"] == 10

    wall = cell["wall_s"]
    assert wall["wins"] == 9 and wall["wins_9_of_10"]
    assert wall["parent_median"] == pytest.approx(0.50)
    # inclusive quartiles of the parent's walls: 0.4825 and 0.5175
    assert wall["parent_iqr"] == pytest.approx(0.035)
    assert wall["median"] == pytest.approx(0.385)
    assert wall["gain_exceeds_iqr"] and not wall["worse_than_bound"]

    setup = cell["setup_s"]
    assert setup["wins"] == 0 and not setup["wins_9_of_10"]
    assert not setup["gain_exceeds_iqr"] and setup["worse_than_bound"]

    rss = cell["peak_rss_mb"]
    assert rss["wins"] == 0 and not rss["gain_exceeds_iqr"] and not rss["worse_than_bound"]
    # the parent's walls spread 7% of their median, inside the 25% bound
    assert not wall["unresolved"] and not setup["unresolved"] and not rss["unresolved"]


def test_wide_parent_spread_is_unresolved_unless_the_change_wins_every_run():
    # inclusive quartiles 0.12 and 0.18: an IQR of 50% of the 0.12 median
    parent = [0.10, 0.12, 0.12, 0.20, 0.18]
    v = bench_record.metric_verdict(parent, [0.13, 0.11, 0.12, 0.19, 0.12], "lower", 0.25)
    assert v["parent_iqr"] == pytest.approx(0.06)
    assert v["unresolved"] and not v["worse_than_bound"]
    # every change run below every parent run resolves the spread
    v = bench_record.metric_verdict(parent, [0.05, 0.07, 0.06, 0.09, 0.08], "lower", 0.25)
    assert not v["unresolved"] and v["wins"] == 5
    # one change run at the parent's fastest does not
    v = bench_record.metric_verdict(parent, [0.05, 0.07, 0.06, 0.10, 0.08], "lower", 0.25)
    assert v["unresolved"]


def test_higher_is_better_metrics_flip_the_sign():
    base, other = [10.0, 11.0, 12.0, 13.0], [20.0, 21.0, 22.0, 9.0]
    v = bench_record.metric_verdict(base, other, "higher", 0.05)
    assert v["wins"] == 3 and not v["wins_9_of_10"]
    assert v["gain_exceeds_iqr"] and not v["worse_than_bound"]
    v = bench_record.metric_verdict(base, [9.0] * 4, "higher", 0.05)
    assert v["wins"] == 0 and v["worse_than_bound"]


def test_side_mixing_source_trees_is_refused(tmp_path):
    _write_side(tmp_path, [0.5] * 3, [0.1] * 3, [40.0] * 3, source="a" * 64)
    _write_side(tmp_path, [0.4] * 2, [0.1] * 2, [40.0] * 2, source="b" * 64, first_seed=4)
    with pytest.raises(SystemExit) as exc:
        bench_record.read_side(tmp_path)
    message = str(exc.value)
    assert "2 source trees" in message
    assert f"source_sha256 {'a' * 64} in 3 files" in message
    assert f"source_sha256 {'b' * 64} in 2 files" in message
    _write_side(tmp_path / "one", [0.5] * 3, [0.1] * 3, [40.0] * 3, source="a" * 64)
    assert bench_record.read_side(tmp_path / "one")["source_sha256"] == "a" * 64
