import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from labelsearch import (
    CostLedger,
    SpeedupRegime,
    classical_runtime,
    grover_queries,
    perf_per_cost,
    regime_runtime,
    scaling_table,
)
from labelsearch.costmodel import SCALING_CSV_HEADER, scaling_table_csv

from oracles import ols_slope


# --- classical runtime ------------------------------------------------------

def test_classical_single_labeling():
    assert classical_runtime(0, 1.0) == 1.0


def test_classical_n10_millisecond_cycles():
    assert classical_runtime(10, 0.001) == 1.024


def test_classical_doubles_per_item():
    for n in range(1, 21):
        assert classical_runtime(n + 1, 0.37) / classical_runtime(n, 0.37) == 2.0


def test_classical_rejects_bad_inputs():
    with pytest.raises(ValueError):
        classical_runtime(-1, 1.0)
    with pytest.raises(ValueError):
        classical_runtime(3, 0.0)
    for t_c in (math.inf, math.nan):
        with pytest.raises(ValueError, match="t_c must be finite"):
            classical_runtime(3, t_c)
        with pytest.raises(ValueError, match="t_c must be finite"):
            regime_runtime(3, t_c, SpeedupRegime.constant(2.0))
    # a float time past the float range, whether Python raises or gives inf
    for n, t_c in ((1400, 0.001), (30, 1e305)):
        with pytest.raises(ValueError, match=re.escape(f"runtime at n={n} with t_c={t_c!r} overflows")):
            classical_runtime(n, t_c)
        for regime in _REGIMES:
            with pytest.raises(ValueError, match=re.escape(f"runtime at n={n} with t_c={t_c!r} overflows")):
                regime_runtime(n, t_c, regime)
    with pytest.raises(ValueError, match="n=2048 overflows"):
        grover_queries(2048)
    assert grover_queries(2047) == 2.0**1023.5
    assert classical_runtime(1100, Fraction(1, 1000)) == Fraction(2**1100, 1000)


def test_runtimes_past_a_float_step_are_computed_and_those_below_normal_refused():
    # 1000**200 and 2**1100 overflow a float on their own; the runtimes
    # they enter do not
    exact = Fraction(2**1000) * Fraction(0.001) / Fraction(1000) ** 200
    assert regime_runtime(1000, 0.001, SpeedupRegime.polynomial(200.0)) == pytest.approx(float(exact), rel=1e-12)
    exact = Fraction(2**1100) * Fraction(1e-300)
    assert classical_runtime(1100, 1e-300) == pytest.approx(float(exact), rel=1e-12)
    # a subnormal time keeps too few bits; one below the smallest
    # subnormal would read 0
    for n, t_c in ((1, 1e-323), (3, 2.0**-1030)):
        with pytest.raises(ValueError, match=re.escape(f"runtime at n={n} with t_c={t_c!r} underflows")):
            classical_runtime(n, t_c)
        for regime in _REGIMES:
            with pytest.raises(ValueError, match=re.escape(f"runtime at n={n} with t_c={t_c!r} underflows")):
                regime_runtime(n, t_c, regime)
    with pytest.raises(ValueError, match=re.escape("runtime at n=1000 with t_c=0.001 underflows")):
        regime_runtime(1000, 0.001, SpeedupRegime.polynomial(300.0))
    assert classical_runtime(1, Fraction(1, 2**1100)) == Fraction(1, 2**1099)


# --- accelerated runtime (constant regime) ---------------------------------

def _constant(n, t_c, speedup):
    return regime_runtime(n, t_c, SpeedupRegime.constant(speedup))


def test_accelerated_example_values():
    assert _constant(10, 0.001, 4.0) == 0.256
    assert _constant(20, 0.001, 2.0**20) == 0.001


def test_accelerated_speedup_one_is_classical():
    for n in range(0, 30, 3):
        assert _constant(n, 0.002, 1.0) == classical_runtime(n, 0.002)


def test_accelerated_rejects_slowdowns():
    with pytest.raises(ValueError):
        _constant(4, 1.0, 0.5)


def test_accelerated_times_speedup_recovers_classical_exactly():
    # exact rational arithmetic: the speedup is purely multiplicative
    for n in (0, 5, 40, 63):
        t_c = Fraction(17, 1000)
        speedup = Fraction(49, 8)
        assert _constant(n, t_c, speedup) * speedup == classical_runtime(n, t_c)
    # float path is exact whenever the division is (powers of two)
    assert _constant(12, 0.003, 64.0) * 64.0 == classical_runtime(12, 0.003)


@given(st.integers(0, 50), st.floats(1e-6, 1e3), st.floats(1.0, 1e9))
def test_accelerated_times_speedup_recovers_classical_float(n, t_c, speedup):
    assert _constant(n, t_c, speedup) * speedup == pytest.approx(
        classical_runtime(n, t_c), rel=1e-12
    )


# --- regimes ----------------------------------------------------------------

def test_regime_constructors_validate_parameters():
    with pytest.raises(ValueError):
        SpeedupRegime.constant(0.5)
    with pytest.raises(ValueError):
        SpeedupRegime.polynomial(0.0)
    with pytest.raises(ValueError):
        SpeedupRegime.exponential(1.5)
    with pytest.raises(ValueError):
        SpeedupRegime(kind="warp", value=1.0)
    for make in (SpeedupRegime.constant, SpeedupRegime.polynomial, SpeedupRegime.exponential):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match="speedup regime value must be finite"):
                make(value)


def test_exponential_rate_one_cancels_everything():
    regime = SpeedupRegime.exponential(1.0)
    for n in (0, 1, 17, 40):
        assert regime_runtime(n, 0.25, regime) == 0.25


def test_polynomial_alpha2_n16():
    assert regime_runtime(16, 1.0, SpeedupRegime.polynomial(2.0)) == 65536 / 256


def test_polynomial_undefined_at_zero():
    with pytest.raises(ValueError):
        regime_runtime(0, 1.0, SpeedupRegime.polynomial(2.0))


def test_exponential_doubling_ratio():
    regime = SpeedupRegime.exponential(0.5)
    for n in range(0, 40):
        ratio = regime_runtime(n + 1, 1.0, regime) / regime_runtime(n, 1.0, regime)
        assert ratio == pytest.approx(2.0**0.5, rel=1e-12)


def test_constant_regime_is_elementwise_scaling():
    regime = SpeedupRegime.constant(4.0)
    for n in range(0, 20):
        assert regime_runtime(n, 0.001, regime) == classical_runtime(n, 0.001) / 4.0


# --- grover queries ---------------------------------------------------------

def test_grover_examples():
    assert grover_queries(10) == 32.0
    assert grover_queries(0) == 1.0


def test_grover_half_slope_identity():
    for n in range(2, 40):
        assert math.log2(grover_queries(n)) - math.log2(grover_queries(n - 2)) == pytest.approx(
            1.0, abs=1e-12
        )


def test_grover_matches_sqrt_oracle():
    for n in range(0, 64):
        assert grover_queries(n) == pytest.approx(math.sqrt(2**n), rel=1e-12)


# --- ledger -----------------------------------------------------------------

def test_ledger_total_is_the_sum():
    assert CostLedger(1, 1, 1, 1, 1).total == 5.0


def test_perf_per_cost_division():
    assert perf_per_cost(0.9, CostLedger(1, 1, 1, 1, 1)) == pytest.approx(0.18)


def test_perf_per_cost_homogeneity():
    ledger = CostLedger(0.3, 1.2, 2.0, 0.1, 0.4)
    doubled = CostLedger(0.6, 2.4, 4.0, 0.2, 0.8)
    assert perf_per_cost(0.7, doubled) == perf_per_cost(0.7, ledger) / 2.0


def test_ledger_rejects_negatives_and_zero_total():
    with pytest.raises(ValueError):
        CostLedger(-1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        perf_per_cost(1.0, CostLedger(0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        perf_per_cost(-1.0, CostLedger(1, 0, 0, 0, 0))
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="ledger component risk must be finite"):
            CostLedger(1, 0, 0, 0, value)
        with pytest.raises(ValueError, match="quality must be finite"):
            perf_per_cost(value, CostLedger(1, 0, 0, 0, 0))
    # nan spend is refused for itself, not as a zero total cost
    with pytest.raises(ValueError, match="ledger component label must be finite"):
        perf_per_cost(math.nan, CostLedger(math.nan, 0, 0, 0, 0))


# --- scaling table ----------------------------------------------------------

_REGIMES = [
    SpeedupRegime.constant(4.0),
    SpeedupRegime.polynomial(2.0),
    SpeedupRegime.exponential(0.25),
]


def test_table_first_rows_match_doubling():
    rows = scaling_table(range(1, 5), 1.0, _REGIMES)
    assert [r["T_classical"] for r in rows] == [2.0, 4.0, 8.0, 16.0]


def test_table_constant_column_is_classical_over_l0():
    rows = scaling_table(range(1, 25), 0.001, _REGIMES)
    for row in rows:
        assert row["T_const"] == row["T_classical"] / 4.0


def test_table_csv_header_and_row_count():
    rows = scaling_table(range(1, 25), 0.001, _REGIMES)
    text = scaling_table_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(SCALING_CSV_HEADER)
    assert lines[0] == "n,T_classical,T_const,T_poly,T_exp,grover_queries"
    assert len(lines) == 25


def test_table_missing_regime_leaves_column_empty():
    rows = scaling_table([1, 2], 1.0, [SpeedupRegime.constant(2.0)])
    lines = scaling_table_csv(rows).strip().split("\n")
    assert lines[1].split(",")[3] == ""  # T_poly empty
    assert lines[1].split(",")[4] == ""  # T_exp empty


def test_table_rejects_duplicates_and_bad_ranges():
    with pytest.raises(ValueError):
        scaling_table([1], 1.0, [SpeedupRegime.constant(2.0), SpeedupRegime.constant(3.0)])
    with pytest.raises(ValueError):
        scaling_table([], 1.0, _REGIMES)
    with pytest.raises(ValueError):
        scaling_table([3, 2], 1.0, _REGIMES)
    with pytest.raises(ValueError, match="strictly ascending"):
        scaling_table([5, 5], 1.0, _REGIMES)


def test_table_exponential_column_slope():
    rows = scaling_table(range(1, 41), 1.0, _REGIMES)
    slope = ols_slope([r["n"] for r in rows], [math.log2(r["T_exp"]) for r in rows])
    assert abs(slope - 0.75) <= 1e-9


def test_slope_law_on_analytic_tables():
    rows = scaling_table(range(1, 41), 0.001, _REGIMES)
    ns = [r["n"] for r in rows]
    assert abs(ols_slope(ns, [math.log2(r["T_classical"]) for r in rows]) - 1.0) <= 1e-9
    assert abs(ols_slope(ns, [math.log2(r["T_const"]) for r in rows]) - 1.0) <= 1e-9
    assert abs(ols_slope(ns, [math.log2(r["grover_queries"]) for r in rows]) - 0.5) <= 1e-9
    # the polynomial regime is checked through its doubling ratio instead
    for a, b in zip(rows, rows[1:]):
        expected = 2.0 * (a["n"] / b["n"]) ** 2.0
        assert b["T_poly"] / a["T_poly"] == pytest.approx(expected, rel=1e-9)


@given(st.integers(1, 40), st.floats(1e-5, 10.0), st.floats(0.05, 1.0))
def test_regime_runtime_closed_forms(n, t_c, beta):
    exp_regime = SpeedupRegime.exponential(beta)
    oracle = math.exp((1.0 - beta) * n * math.log(2.0)) * t_c
    assert regime_runtime(n, t_c, exp_regime) == pytest.approx(oracle, rel=1e-9)
    assert regime_runtime(n, t_c, SpeedupRegime.constant(7.0)) == pytest.approx(
        math.ldexp(t_c, n) / 7.0, rel=1e-12
    )
    assert regime_runtime(n, t_c, SpeedupRegime.polynomial(1.5)) == pytest.approx(
        math.ldexp(t_c, n) / math.exp(1.5 * math.log(n)) if n > 1 else 2 * t_c,
        rel=1e-9,
    )
