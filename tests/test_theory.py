"""Closed forms: harmonic numbers, predictions, and the two rank laws."""

import math
from fractions import Fraction

import numpy as np
import pytest

from envylab import (
    geometric_rank_pmf,
    harmonic,
    harmonic_exact,
    predict,
    rsd_position_unenvied_prob,
)


def test_harmonic_small_values():
    assert harmonic(1) == 1.0
    assert harmonic(2) == 1.5
    assert abs(harmonic(3) - 11 / 6) < 1e-15
    assert abs(harmonic(100) - 5.187377517639621) < 1e-12
    assert abs(harmonic(1000) - 7.485470860550343) < 1e-12


def test_harmonic_matches_exact_rationals():
    for n in range(1, 31):
        assert abs(harmonic(n) - float(harmonic_exact(n))) < 1e-12


def test_harmonic_rejects_zero():
    with pytest.raises(ValueError):
        harmonic(0)


def test_asymptotic_form():
    # classical bound: H_n is within 1/(2n) of log n + Euler's gamma
    h = 0.0
    for n in range(1, 100_001):
        h += 1.0 / n
        if n >= 10:
            assert abs(h - (math.log(n) + np.euler_gamma)) < 1 / (2 * n)
    assert abs(harmonic(10_000) - (math.log(10_000) + np.euler_gamma)) < 1e-4


def test_harmonic_monotonicity():
    prev = harmonic(1)
    prev_ratio = None
    for n in range(2, 400):
        h = harmonic(n)
        assert h > prev
        ratio = h / n
        if prev_ratio is not None:
            assert ratio < prev_ratio
        prev, prev_ratio = h, ratio


def test_harmonic_beyond_direct_summation():
    # above 2^20 the asymptotic series replaces the sum, with no memory cost
    edge = 2**20
    summed = float(np.add.reduce(1.0 / np.arange(1, edge + 2)))
    assert abs(harmonic(edge + 1) - summed) < 1e-14
    assert harmonic(edge - 1) < harmonic(edge) < harmonic(edge + 1) < harmonic(edge + 2)
    big = 10**12
    assert abs(harmonic(big) - (math.log(big) + np.euler_gamma)) < 1e-12
    assert abs(harmonic(big) - harmonic(big - 1) - 1 / big) < 1e-14


# ---------------------------------------------------------------------------
# Predictions
# ---------------------------------------------------------------------------

def test_unenvied_prediction_shared_by_all_mechanisms():
    for n in (1, 2, 5, 50, 1000):
        h = harmonic(n)
        for mechanism in ("da", "rsd", "ttc"):
            p = predict(n, mechanism)
            assert p.unenvied_mean == h
            assert p.unenvied_exact


def test_predictions_at_ten_thousand():
    da = predict(10_000, "da")
    assert da.unenvied_mean < 10
    assert round(da.envy_nobody_mean, 1) == 1021.7
    assert not da.envy_nobody_exact
    rsd_p = predict(10_000, "rsd")
    assert rsd_p.envy_nobody_mean == 5000.5
    assert rsd_p.envy_nobody_exact


def test_prediction_small_exact_values():
    assert predict(3, "rsd").envy_nobody_mean == 2.0
    assert predict(1, "da").envy_nobody_mean == 1.0
    assert abs(predict(100, "rsd").unenvied_mean - 5.187377517639621) < 1e-12


def test_predict_rejects_unknown_mechanism():
    with pytest.raises(ValueError):
        predict(10, "boston")


# ---------------------------------------------------------------------------
# Geometric rank law
# ---------------------------------------------------------------------------

def test_geometric_pmf_values():
    assert geometric_rank_pmf(1, 1) == 1.0
    for n in (2, 10, 1000):
        assert abs(geometric_rank_pmf(1, n) - 1 / harmonic(n)) < 1e-15


def test_geometric_pmf_truncated_mass():
    for n in (2, 5, 100):
        total = sum(geometric_rank_pmf(k, n) for k in range(1, n + 1))
        p = 1 / harmonic(n)
        assert abs(total - (1 - (1 - p) ** n)) < 1e-12
        assert total < 1.0


def test_geometric_pmf_strictly_decreasing():
    for n in (2, 10, 50):
        values = [geometric_rank_pmf(k, n) for k in range(1, n + 1)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_geometric_pmf_domain():
    with pytest.raises(ValueError):
        geometric_rank_pmf(0, 5)
    with pytest.raises(ValueError):
        geometric_rank_pmf(6, 5)


# ---------------------------------------------------------------------------
# Serial dictatorship position law
# ---------------------------------------------------------------------------

def test_position_probability_values():
    assert rsd_position_unenvied_prob(3, 3) == 1.0  # last chooser, never envied
    assert abs(rsd_position_unenvied_prob(1, 3) - 1 / 3) < 1e-15
    with pytest.raises(ValueError):
        rsd_position_unenvied_prob(0, 3)
    with pytest.raises(ValueError):
        rsd_position_unenvied_prob(4, 3)


def test_position_probabilities_sum_to_harmonic_exactly():
    for n in range(1, 31):
        total = sum(Fraction(1, n - k + 1) for k in range(1, n + 1))
        assert total == harmonic_exact(n)
        float_total = sum(rsd_position_unenvied_prob(k, n) for k in range(1, n + 1))
        assert math.isclose(float_total, harmonic(n), rel_tol=1e-12)
