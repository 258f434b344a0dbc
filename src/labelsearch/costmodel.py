"""Analytic cost engine: sweep runtimes, hardware speedup regimes,
quadratic-search query counts, and the supervision spend ledger.

All runtime functions are pure and duck-typed over the numeric type of
the per-cycle time: pass a float for ordinary use, or ``fractions.Fraction``
to get exact rational arithmetic (the 2**n factor is always an exact
wide integer, so nothing overflows).  A float result past the float
range, or below the smallest normal float, is refused with
``ValueError``.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass

CONSTANT = "constant"
POLYNOMIAL = "polynomial"
EXPONENTIAL = "exponential"
REGIME_KINDS = (CONSTANT, POLYNOMIAL, EXPONENTIAL)

#: Scaling-table column of each regime kind.
_REGIME_COLUMNS = {"T_const": CONSTANT, "T_poly": POLYNOMIAL, "T_exp": EXPONENTIAL}

SCALING_CSV_HEADER = ["n", "T_classical", *_REGIME_COLUMNS, "grover_queries"]


def _check_finite(name: str, value) -> None:
    """Refuse NaN and the infinities; an exact number such as a
    ``Fraction`` is always finite and is never converted to a float."""
    if value != value or value in (math.inf, -math.inf):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SpeedupRegime:
    """How the hardware speedup factor grows with pool size n.

    ``value`` is the one parameter of ``kind``: the constant factor
    l0 (>= 1), the polynomial exponent alpha (> 0), or the exponential
    rate beta (in (0, 1]).  Use the classmethod constructors.
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in REGIME_KINDS:
            raise ValueError(f"unknown speedup regime {self.kind!r}; expected one of {REGIME_KINDS}")
        _check_finite("speedup regime value", self.value)
        if self.kind == CONSTANT and not self.value >= 1:
            raise ValueError("constant speedup factor must be >= 1")
        if self.kind == POLYNOMIAL and not self.value > 0:
            raise ValueError("polynomial exponent must be positive")
        if self.kind == EXPONENTIAL and not 0 < self.value <= 1:
            raise ValueError("exponential rate must lie in (0, 1]")

    @classmethod
    def constant(cls, l0: float) -> "SpeedupRegime":
        return cls(CONSTANT, l0)

    @classmethod
    def polynomial(cls, alpha: float) -> "SpeedupRegime":
        return cls(POLYNOMIAL, alpha)

    @classmethod
    def exponential(cls, beta: float) -> "SpeedupRegime":
        return cls(EXPONENTIAL, beta)


def _runtime(n: int, t_c, formula, log2_speedup):
    """``formula()``, a sweep time at pool size ``n`` and per-cycle time
    ``t_c``, after checking both.

    The time is 2**n * t_c divided by a speedup factor whose log2 is
    ``log2_speedup()``.  Where a float step of the formula overflows,
    the time is computed from its log2 instead; a time past the float
    range even so is refused, and so is a float time below the smallest
    normal float, whose few significant bits would bend every slope
    fitted to it.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_finite("per-cycle time t_c", t_c)
    if not t_c > 0:
        raise ValueError("per-cycle time must be positive")
    try:
        value = formula()
    except OverflowError:
        value = math.inf
    if value == math.inf:
        try:
            value = 2.0 ** (n + math.log2(t_c) - log2_speedup())
        except OverflowError:
            pass
    if value == math.inf:
        raise ValueError(f"runtime at n={n} with t_c={t_c!r} overflows the float range")
    if isinstance(value, float) and value < sys.float_info.min:
        raise ValueError(f"runtime at n={n} with t_c={t_c!r} underflows the normal float range")
    return value


def classical_runtime(n: int, t_c):
    """Total time of a full sweep: 2**n cycles at t_c seconds each."""
    return _runtime(n, t_c, lambda: (1 << n) * t_c, lambda: 0.0)


def regime_runtime(n: int, t_c, regime: SpeedupRegime):
    """Sweep time when the speedup factor itself grows with n.

    With the regime's ``value`` as l0, alpha or beta:

    constant:    2**n * t_c / l0
    polynomial:  2**n * t_c / n**alpha   (undefined at n = 0)
    exponential: 2**((1 - beta) * n) * t_c
    """
    if regime.kind == CONSTANT:
        return _runtime(n, t_c, lambda: (1 << n) * t_c / regime.value, lambda: math.log2(regime.value))
    if regime.kind == POLYNOMIAL:
        if n == 0:
            raise ValueError("polynomial speedup regime is undefined at n = 0")
        return _runtime(n, t_c, lambda: (1 << n) * t_c / n**regime.value, lambda: regime.value * math.log2(n))
    return _runtime(n, t_c, lambda: 2.0 ** ((1.0 - regime.value) * n) * t_c, lambda: regime.value * n)


def grover_queries(n: int) -> float:
    """Leading-order query count of a quadratic unstructured search over
    2**n candidates: 2**(n/2).  The constant-factor prefactor is
    deliberately excluded."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    try:
        return 2.0 ** (n / 2)
    except OverflowError:
        raise ValueError(f"quadratic-search query count at n={n} overflows the float range") from None


LEDGER_COMPONENTS = ("label", "curate", "compute", "latency", "risk")


@dataclass(frozen=True)
class CostLedger:
    """The five supervision spend components, in one monetary unit."""

    label: float
    curate: float
    compute: float
    latency: float
    risk: float

    def __post_init__(self):
        for name in LEDGER_COMPONENTS:
            _check_finite(f"ledger component {name}", getattr(self, name))
            if getattr(self, name) < 0:
                raise ValueError(f"ledger component {name} must be nonnegative")

    @property
    def total(self) -> float:
        return self.label + self.curate + self.compute + self.latency + self.risk


def perf_per_cost(quality: float, ledger: CostLedger) -> float:
    """Quality achieved per unit of total spend."""
    _check_finite("quality", quality)
    if quality < 0:
        raise ValueError("quality must be nonnegative")
    total = ledger.total
    if not total > 0:
        raise ValueError("performance per cost is undefined for zero total cost")
    return quality / total


def scaling_table(n_values, t_c, regimes: list[SpeedupRegime]) -> list[dict]:
    """Rows of runtimes per n: classical, one column per regime kind, and
    the quadratic-search query count.

    ``regimes`` may hold at most one regime of each kind; a missing kind
    leaves its column empty in the emitted CSV.
    """
    ns = list(n_values)
    if not ns:
        raise ValueError("n_values must be nonempty")
    if any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError("n_values must be strictly ascending")
    by_kind: dict[str, SpeedupRegime] = {}
    for regime in regimes:
        if regime.kind in by_kind:
            raise ValueError(f"duplicate {regime.kind} regime in table request")
        by_kind[regime.kind] = regime
    rows = []
    for n in ns:
        row = {"n": n, "T_classical": classical_runtime(n, t_c)}
        for column, kind in _REGIME_COLUMNS.items():
            row[column] = regime_runtime(n, t_c, by_kind[kind]) if kind in by_kind else None
        row["grover_queries"] = grover_queries(n)
        rows.append(row)
    return rows


def scaling_table_csv(rows: list[dict]) -> str:
    """Render scaling-table rows as CSV with the fixed header."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCALING_CSV_HEADER)
    for row in rows:
        writer.writerow(["" if row[column] is None else row[column] for column in SCALING_CSV_HEADER])
    return buf.getvalue()
