"""Shared plumbing: error types, ordered parallel map, canonical JSON/CSV output."""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

import numpy as np


# Interval cap shared by profile construction, the exact evaluator and the
# quadrature grid: the two-arc recovery profile has 2_000_001 intervals at
# 1/eps = 1e6 and 2_097_153 at 1/eps = 2^20; both evaluate in seconds.
MAX_INTERVALS = 2_200_000

# Largest thread count make_pmap accepts: a pool starts up to one thread per
# grid point, and the grids the CLI reads have no length cap.
MAX_THREADS = 64


class ResourceLimitError(RuntimeError):
    """A configured size cap (breakpoint count, enumeration size,
    thread count) was exceeded.

    The message names the stage that refused the work and the size that hit
    the cap."""


class ArgumentRangeError(ValueError):
    """An argument left the range where periodic reduction keeps full precision."""


def serial_map(fn: Callable, items: Iterable) -> list:
    return [fn(x) for x in items]


def make_pmap(threads: int) -> Callable[[Callable, Iterable], list]:
    """Ordered parallel map over independent work items.

    Results come back in input order regardless of completion order, so any
    thread count produces identical output. Each item must be pure. A count
    outside [1, MAX_THREADS] is refused before any thread starts.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    if threads > MAX_THREADS:
        raise ResourceLimitError(f"make_pmap: {threads} threads exceed the cap {MAX_THREADS}")
    if threads == 1:
        return serial_map

    def pmap(fn, items):
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, items))

    return pmap


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    return obj


def dump_json(obj, path) -> None:
    """Canonical JSON: sorted keys, fixed indentation, infinities as strings.

    Identical inputs serialize to identical bytes, which is what the
    determinism checks compare.
    """
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """CSV with floats at 17 significant digits (value-preserving round trip)."""

    def fmt(x):
        if isinstance(x, (float, np.floating)):
            return f"{float(x):.17g}"
        return str(x)

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(x) for x in row) + "\n")
