"""Span recorder for the traced benchmark run.

The tracer wraps the public functions of each nlhomog module from outside the
package. A wrapped call records one span: name, start, end, parent span and
run id. Spans are kept in memory, written out once at the end, and reduced to
the per-layer metrics listed in BENCHMARK.json.

Each wrapper replaces the function at every name through which callers reach
it: ``nlhomog.energy.evaluate`` is also bound as ``nlhomog.acceptance.evaluate``,
``nlhomog.gammalab.evaluate`` and ``nlhomog.cli.evaluate``, and the acceptance
criteria are also held in the ``acceptance.CRITERIA`` tuple. Nothing under
``src/`` is edited; ``uninstall`` puts every original back.

The recorder keeps one stack of open spans, so it assumes calls on a single
thread, which the benchmark guarantees by running with ``--threads 1``.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _profile_counts(bound, result):
    return {"intervals": int(result.values.size)}


def _evaluate_counts(bound, result):
    values = bound["u"].values
    return {
        "pairs": int(values.size) ** 2,
        "intervals": int(values.size),
        "levels": int(np.unique(values).size),
    }


def _quadrature_counts(bound, result):
    # the same refined grid evaluate_quadrature builds
    u, n = bound["u"], bound["n"]
    edges = np.unique(np.concatenate([np.linspace(0.0, 1.0, n + 1), u.breakpoints]))
    cells = int(np.count_nonzero(np.diff(edges) > 0))
    return {"cell_pairs": cells * cells}


def _pair_counts(bound, result):
    return {"pairs": int(bound["lengths"].size) ** 2}


def _accel_quadrature_counts(bound, result):
    return {"cell_pairs": int(bound["centers"].size) ** 2}


def _subset_counts(bound, result):
    return {"subsets": math.comb(int(bound["n"]), int(bound["k"]))}


def _relaxed_counts(bound, result):
    return {"iterations": int(result.iterations), "nonconverged": int(not result.converged)}


def _projection_counts(bound, result):
    return {"nonconverged": int(not result[1])}


def _brute_counts(bound, result):
    return {"subsets": int(result.iterations)}


def _dump_counts(bound, result):
    return {"bytes": os.path.getsize(bound["path"])}


def layer_targets(nl):
    """(span name, owner, attribute, counter function) for every traced layer."""
    targets = [
        ("states.oscillating_profile", nl.states, "oscillating_profile", _profile_counts),
        ("energy.evaluate", nl.energy, "evaluate", _evaluate_counts),
        ("energy.rect_integral", nl.energy, "rect_integral", None),
        ("energy.evaluate_quadrature", nl.energy, "evaluate_quadrature", _quadrature_counts),
        ("accel.pair_energy", nl._accel, "pair_energy", _pair_counts),
        ("accel.quadrature_energy", nl._accel, "quadrature_energy", _accel_quadrature_counts),
        ("accel.brute_force_search", nl._accel, "brute_force_search", _subset_counts),
        ("cell.build_cell_matrix", nl.cell, "build_cell_matrix", None),
        ("cell.solve_relaxed", nl.cell, "solve_relaxed", _relaxed_counts),
        ("cell.project_box_mean", nl.cell, "project_box_mean", _projection_counts),
        ("cell.CellKernelMatrix.matvec", nl.cell.CellKernelMatrix, "matvec", None),
        ("cell.cell_energy", nl.cell, "cell_energy", None),
        ("cell.solve_brute_force", nl.cell, "solve_brute_force", _brute_counts),
        ("gammalab.run_recovery_study", nl.gammalab, "run_recovery_study", None),
        ("gammalab.fM_threshold_experiment", nl.gammalab, "fM_threshold_experiment", None),
        (
            "gammalab.non_representability_certificate",
            nl.gammalab,
            "non_representability_certificate",
            None,
        ),
        ("util.dump_json", nl.util, "dump_json", _dump_counts),
    ]
    for fn in nl.acceptance.CRITERIA:
        # criterion_5_quadrature_oracle -> acceptance.criterion_5
        short = "_".join(fn.__name__.split("_")[:2])
        targets.append((f"acceptance.{short}", nl.acceptance, fn.__name__, None))
    return targets


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: (name id, parent index or -1, run id, start, end)
        self.spans: list = []
        self.counts: dict[int, dict] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name, fn, args=(), kwargs=None, counter=None, signature=None):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        kwargs = kwargs or {}
        nid = self._name_id(name)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (nid, parent, self.run_id, start, end)
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.counts[idx] = counter(bound.arguments, result)
        return result

    def wrap(self, name, fn, counter=None):
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter, signature)

        return traced

    # -- installing wrappers ------------------------------------------------

    def install(self, nl) -> None:
        """Wrap every layer target at every name that refers to it."""
        replace = {}
        for name, owner, attr, counter in layer_targets(nl):
            original = getattr(owner, attr)
            replace[id(original)] = (original, self.wrap(name, original, counter))
            if inspect.isclass(owner):
                self._patch(owner, attr, replace[id(original)][1])
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "nlhomog" or key.startswith("nlhomog."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    self._patch(module, attr, replace[id(value)][1])
                elif isinstance(value, tuple) and any(id(v) in replace for v in value):
                    swapped = tuple(
                        replace[id(v)][1] if id(v) in replace and replace[id(v)][0] is v else v
                        for v in value
                    )
                    self._patch(module, attr, swapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span, column by column, as one JSON file."""
        cols = list(zip(*self.spans)) if self.spans else [(), (), (), (), ()]
        doc = {
            "names": self.names,
            "name_id": list(cols[0]),
            "parent": list(cols[1]),
            "run_id": list(cols[2]),
            "start": list(cols[3]),
            "end": list(cols[4]),
            "counts": {str(i): c for i, c in self.counts.items()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)

    def layer_stats(self) -> dict:
        """Per span name: calls, total seconds, self seconds, summed and max counts.

        Self time is a span's duration minus the part of it covered by its
        direct children.
        """
        children = defaultdict(list)
        for i, (_, parent, _, start, end) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append((start, end))
        stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "sum": {}, "max": {}})
        for i, (nid, _, _, start, end) in enumerate(self.spans):
            st = stats[self.names[nid]]
            st["calls"] += 1
            st["s"] += end - start
            st["self_s"] += (end - start) - _covered(children.get(i, ()), start, end)
            for key, val in self.counts.get(i, {}).items():
                st["sum"][key] = st["sum"].get(key, 0) + val
                st["max"][key] = max(st["max"].get(key, val), val)
        return dict(stats)


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
