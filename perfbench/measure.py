"""Timing, drift correction, statistics, spans and run metadata.

Drift correction.  On shared hosts the same sweep can run at half speed
for seconds at a time, with CPU time tracking wall clock (another guest
on the core, not a wait).  A fixed calibration block of small-array
numpy calls and integer Python, close in kind to the library's hot
loops, is timed next to every operation.  A corrected time is the wall
clock scaled to a host on which that block takes ``CAL_REF_S``:
``wall * CAL_REF_S / calibration``, with the calibration the mean of
the blocks just before and just after.  Where the benchmark's own
workers do the work, each worker times the block around its share and
the operation uses their mean.  Raw wall clock is reported beside it.  The block runs only benchmark code, so a program change
cannot move it.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

#: Seconds the calibration block takes on the reference host, a quiet
#: 2-vCPU KVM guest on an Intel Xeon (family 6, model 207).
CAL_REF_S = 0.0035

_CAL_X = np.arange(128.0).reshape(64, 2) * 0.25


def calibration_block() -> float:
    """Seconds one fixed block of numpy dispatch and Python integer work takes."""
    start = time.perf_counter()
    total = 0
    for i in range(400):
        diff = _CAL_X[:, 0] - 0.5
        acc = diff * diff
        diff = _CAL_X[:, 1] - 0.25
        acc = acc + diff * diff
        total += int(np.count_nonzero(acc < i))
        for j in range(8):
            total ^= (total << 1) + j & 0xFFFF
    return time.perf_counter() - start


@dataclass
class Op:
    """One timed operation: raw wall clock, the calibration around it,
    and the labelings it evaluated."""

    kind: str
    n: int
    workers: int
    wall: float
    cal: float
    labelings: int
    traced: bool

    @property
    def corrected(self) -> float:
        return self.wall * CAL_REF_S / self.cal

    @property
    def ns_per_labeling(self) -> float:
        return self.corrected / self.labelings * 1e9


class Timer:
    """Times operations, each between two calibration blocks.

    The block after one operation serves as the block before the next.
    """

    def __init__(self):
        self.ops: list[Op] = []
        self._last_cal: float | None = None

    def calibrate(self) -> float:
        self._last_cal = calibration_block()
        return self._last_cal

    def run(self, fn, kind: str, n: int, workers: int, labelings, tracer, span: str, cal_of=None):
        """Call fn() inside a span; ``labelings`` is a count or a function
        of fn's result, and ``cal_of``, if given, a function of the result
        giving the calibration measured where the work ran."""
        before = self._last_cal if self._last_cal is not None else self.calibrate()
        with tracer.span(span, n=n, workers=workers):
            start = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - start
        after = self.calibrate()
        count = labelings(result) if callable(labelings) else labelings
        cal = cal_of(result) if cal_of is not None else (before + after) / 2
        op = Op(kind, n, workers, wall, cal, count, tracer.enabled)
        self.ops.append(op)
        return result, op

    def select(self, kind: str, workers: int, n: int, traced: bool = False) -> list[Op]:
        return [
            op for op in self.ops
            if (op.kind, op.workers, op.n, op.traced) == (kind, workers, n, traced)
        ]


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median(values) -> float:
    return statistics.median(list(values))


# --- spans -------------------------------------------------------------------

class Tracer:
    """In-memory spans: name, start, end, parent span and run id.

    Spans are recorded only around calls the benchmark itself makes into
    a layer; a span's self time is its duration minus the time its
    direct children cover.
    """

    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "name": name, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, name: str, **attrs) -> list[tuple[dict, float]]:
        """(span, self time in seconds) of every span with this name whose
        attributes include ``attrs``."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        return [
            (rec, rec["end"] - rec["start"] - child_time[rec["id"]])
            for rec in self.spans
            if rec["name"] == name and all(rec.get(k) == v for k, v in attrs.items())
        ]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str, **attrs):
        yield {}


# --- metadata ----------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def calibration_summary() -> dict:
    values = [calibration_block() for _ in range(9)]
    return {"median_s": median(values), "min_s": min(values), "max_s": max(values)}


def run_metadata(workload: str, seed: int, cores: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "affinity_cores": cores,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_model": cpu_model(),
        "loadavg": list(os.getloadavg()),
        "cal_ref_s": CAL_REF_S,
    }


def peak_rss_mib() -> tuple[float, float]:
    """Peak RSS of this process and of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0  # ru_maxrss is in KiB on Linux
