import math

import numpy as np
import pytest

from dronecell import (URBAN, ScenarioParams, expected_path_loss_db, g_pos,
                       ideal_directivity, max_gain, p_los, solve_edge_angle, user_rate)
from dronecell.channel import fspl_offset_db, rate_derivatives, rate_function
from dronecell.params import SPEED_OF_LIGHT

import oracles

FLAT = ScenarioParams(a=9.61, b=0.16, eta_los=0.0, eta_nlos=0.0, freq_hz=2e9)


class TestPLos:
    def test_exact_at_theta_equal_a(self):
        # exponent vanishes at theta = a
        assert p_los(URBAN.a, URBAN) == pytest.approx(1.0 / (1.0 + URBAN.a), abs=1e-15)

    @pytest.mark.parametrize("theta,expected", [
        (90.0, 0.999975074537903),
        (0.0, 0.021872621233283412),
    ])
    def test_frozen_urban_values(self, theta, expected):
        assert p_los(theta, URBAN) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("theta", [-0.001, 90.001, -5.0, 180.0])
    def test_rejects_out_of_range_angles(self, theta):
        with pytest.raises(ValueError):
            p_los(theta, URBAN)

    def test_strictly_increasing_and_bounded(self):
        grid = np.linspace(0.0, 90.0, 2001)
        vals = p_los(grid, URBAN)
        assert np.all(np.diff(vals) > 0.0)
        assert np.all((vals > 0.0) & (vals < 1.0))


class TestPathLoss:
    # the free-space part of expected_path_loss_db: with no excess loss
    # (FLAT) and e_r = 0, a user under a drone whose edge angle is 45 degrees
    # sees the slant distance d_max
    def test_zero_at_reference_distance(self):
        # d = c/(4 pi f) cancels the free-space term by construction
        d = SPEED_OF_LIGHT / (4.0 * math.pi * FLAT.freq_hz)
        assert expected_path_loss_db(0.0, 45.0, d, FLAT) == pytest.approx(0.0, abs=1e-9)

    def test_frozen_free_space_value(self):
        # 2 GHz, 100 m, no shadowing, isotropic
        assert expected_path_loss_db(0.0, 45.0, 100.0, FLAT) == pytest.approx(
            78.468383135163, abs=1e-9)

    def test_directivity_subtracts(self):
        for theta_e in (20.0, 45.0, 70.0):
            iso = expected_path_loss_db(0.5, theta_e, 100.0, FLAT)
            directed = expected_path_loss_db(0.5, theta_e, 100.0, FLAT.with_efficiency(0.6))
            assert directed == pytest.approx(
                iso - 0.6 * 10.0 * math.log10(ideal_directivity(theta_e)), abs=1e-12)

    @pytest.mark.parametrize("d", [0.0, -1.0])
    def test_rejects_nonpositive_distance(self, d):
        with pytest.raises(ValueError):
            expected_path_loss_db(0.5, 45.0, d, URBAN)


class TestExpectedPathLoss:
    def test_matches_direct_mixing(self):
        # closed form vs the explicit LoS/NLoS mixture at the slant distance
        rng = np.random.default_rng(101)
        for _ in range(1000):
            p = oracles.random_scenario(rng)
            kappa = float(rng.uniform(0.0, 2.0))
            theta_e = float(rng.uniform(5.0, 85.0))
            d_max = float(rng.uniform(20.0, 5000.0))
            closed = expected_path_loss_db(kappa, theta_e, d_max, p)
            direct = oracles.mixed_path_loss_db(kappa, theta_e, d_max, p)
            assert closed == pytest.approx(direct, abs=1e-9)

    def test_doubling_radius_adds_six_db(self):
        base = expected_path_loss_db(0.7, 48.0, 400.0, URBAN)
        double = expected_path_loss_db(0.7, 48.0, 800.0, URBAN)
        assert double - base == pytest.approx(20.0 * math.log10(2.0), abs=1e-12)

    def test_overhead_user(self):
        # kappa = 0: distance term collapses to the altitude, user at 90 deg
        theta_e = 48.0
        t = math.tan(math.radians(theta_e))
        expected = ((URBAN.eta_los - URBAN.eta_nlos) * p_los(90.0, URBAN)
                    + 20.0 * math.log10(t * 400.0)
                    + fspl_offset_db(URBAN) + URBAN.eta_nlos
                    - URBAN.e_r * 10.0 * math.log10(2.0 / (1.0 - math.sin(math.radians(theta_e)))))
        assert expected_path_loss_db(0.0, theta_e, 400.0, URBAN) == pytest.approx(
            expected, abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            expected_path_loss_db(-0.1, 48.0, 400.0, URBAN)
        with pytest.raises(ValueError):
            expected_path_loss_db(0.5, 90.0, 400.0, URBAN)
        with pytest.raises(ValueError):
            expected_path_loss_db(0.5, 48.0, 0.0, URBAN)


class TestGPos:
    def test_kappa_one_reduces_to_edge_angle(self):
        # arctan(tan(theta)/1) = theta
        theta_e = 42.44
        expected = ((URBAN.eta_los - URBAN.eta_nlos) * p_los(theta_e, URBAN)
                    + 10.0 * math.log10(1.0 + math.tan(math.radians(theta_e)) ** 2))
        assert g_pos(1.0, theta_e, URBAN) == pytest.approx(expected, abs=1e-12)

    def test_frozen_urban_value(self):
        assert g_pos(1.0, 42.44, URBAN) == pytest.approx(-15.451225969404872, abs=1e-9)

    def test_continuous_at_kappa_zero(self):
        assert g_pos(1e-12, 48.0, URBAN) == pytest.approx(g_pos(0.0, 48.0, URBAN), abs=1e-9)

    def test_strictly_increasing_in_kappa(self):
        rng = np.random.default_rng(7)
        for theta_e in rng.uniform(10.0, 80.0, 8):
            vals = g_pos(np.linspace(0.0, 2.0, 500), float(theta_e), URBAN)
            assert np.all(np.diff(vals) > 0.0)
        assert g_pos(0.2, 35.0, URBAN) < g_pos(0.8, 35.0, URBAN) < g_pos(1.5, 35.0, URBAN)

    def test_rejects_negative_kappa(self):
        with pytest.raises(ValueError):
            g_pos(-0.01, 48.0, URBAN)


class TestUserRate:
    def test_edge_normalization_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            p = oracles.random_scenario(rng)
            theta_e = float(rng.uniform(5.0, 85.0))
            assert abs(user_rate(1.0, theta_e, p) - 1.0) < 1e-12

    def test_edge_normalization_exact_inside_arrays(self):
        # kappa = 1 anywhere in a large array reads exactly 1.0, not only a
        # lone 0-d kappa: the edge reference takes the array path of every kappa
        rng = np.random.default_rng(45)
        for _ in range(500):
            p = oracles.random_scenario(rng)
            theta_e = float(rng.uniform(5.0, 85.0))
            k = rng.uniform(0.0, 2.0, 5000)
            at = rng.choice(k.size, size=20, replace=False)
            k[at] = 1.0
            assert np.all(rate_function(theta_e, p)(k)[at] == 1.0)
            assert np.all(rate_derivatives(theta_e, p)(k)[0][at] == 1.0)

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(43)
        grid = np.linspace(0.0, 2.0, 1000)
        for _ in range(20):
            p = oracles.random_scenario(rng)
            theta_e = float(rng.uniform(5.0, 85.0))
            vals = user_rate(grid, theta_e, p)
            assert np.all(np.diff(vals) < 0.0)

    def test_beyond_edge_below_one(self):
        assert user_rate(2.0, 48.0, URBAN) < 1.0

    def test_matches_first_principles(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            p = oracles.random_scenario(rng)
            theta_e = float(rng.uniform(5.0, 85.0))
            k = float(rng.uniform(0.0, 2.0))
            assert user_rate(k, theta_e, p) == pytest.approx(
                float(oracles.rate_direct(k, theta_e, p)), abs=1e-12)

    @pytest.mark.parametrize("kappa", [-0.001, 2.001])
    def test_rejects_out_of_range_kappa(self, kappa):
        with pytest.raises(ValueError):
            user_rate(kappa, 48.0, URBAN)

    def test_independent_of_frequency(self):
        # the edge-normalized rate is a pure path-loss ratio
        k = np.linspace(0.0, 2.0, 101)
        low = user_rate(k, 48.0, URBAN)
        high = user_rate(k, 48.0, ScenarioParams(a=9.61, b=0.16, eta_los=1.0,
                                                 eta_nlos=20.0, freq_hz=5.8e9, e_r=0.6))
        assert np.array_equal(low, high)

    def test_vectorized_matches_scalar(self):
        k = np.array([0.0, 0.3, 1.0, 1.7])
        vec = user_rate(k, 48.0, URBAN)
        for i, ki in enumerate(k):
            assert vec[i] == user_rate(float(ki), 48.0, URBAN)


class TestMaxGain:
    def test_decreasing_in_efficiency(self):
        assert max_gain(0.2, URBAN) > max_gain(0.8, URBAN)

    def test_always_above_edge_rate(self):
        for er in (0.0, 0.3, 0.6, 0.9):
            assert max_gain(er, URBAN) > 1.0

    def test_composition_at_zero_efficiency(self):
        p = URBAN.with_efficiency(0.0)
        theta = solve_edge_angle(p)
        assert max_gain(0.0, URBAN) == user_rate(0.0, theta, p)

    def test_frozen_urban_value(self):
        assert max_gain(0.6, URBAN) == pytest.approx(1.5367277527487255, abs=1e-9)


class TestRateFunction:
    def test_matches_public_api(self):
        rate = rate_function(48.0, URBAN)
        k = np.linspace(0.0, 2.0, 50)
        assert np.array_equal(rate(k), user_rate(k, 48.0, URBAN))

    def test_accepts_kappa_beyond_two(self):
        # optimizer internals may probe outside the disc
        rate = rate_function(48.0, URBAN)
        assert float(rate(2.5)) < float(rate(2.0))


class TestRateDerivatives:
    @pytest.mark.parametrize("e_r", [0.0, 0.6, 0.95])
    def test_rate_is_the_kernel(self, e_r):
        p = URBAN.with_efficiency(e_r)
        theta = solve_edge_angle(p)
        k = np.linspace(0.0, 2.5, 501)
        r, _, _ = rate_derivatives(theta, p)(k)
        assert np.array_equal(r, rate_function(theta, p)(k))

    @pytest.mark.parametrize("e_r", [0.0, 0.6, 0.95])
    def test_match_central_differences(self, e_r):
        p = URBAN.with_efficiency(e_r)
        theta = solve_edge_angle(p)
        rate = rate_function(theta, p)
        terms = rate_derivatives(theta, p)
        k = np.linspace(1e-3, 2.5, 501)
        h = 1e-6
        _, r1, r2 = terms(k)
        assert np.allclose(r1, (rate(k + h) - rate(k - h)) / (2 * h), rtol=0, atol=1e-8)
        assert np.allclose(r2, (terms(k + h)[1] - terms(k - h)[1]) / (2 * h),
                           rtol=0, atol=1e-8)

    def test_finite_slope_at_kappa_zero(self):
        # the rate has a cone at the user: a finite, negative slope
        _, r1, r2 = rate_derivatives(48.0, URBAN)(np.zeros(1))
        assert r1[0] < 0.0 and np.isfinite(r2[0])


@pytest.mark.parametrize("fn,args", [
    (p_los, (math.nan,)),
    (p_los, (np.array([30.0, math.nan]),)),
    (g_pos, (math.nan, 48.0)),
    (g_pos, (math.inf, 48.0)),
    (user_rate, (math.nan, 48.0)),
    (user_rate, (np.array([0.5, math.nan]), 48.0)),
    (expected_path_loss_db, (math.nan, 48.0, 100.0)),
    (expected_path_loss_db, (0.5, 48.0, math.inf)),
    (expected_path_loss_db, (0.5, 48.0, math.nan)),
], ids=["p_los-nan", "p_los-nan-in-array", "g_pos-nan", "g_pos-inf", "user_rate-nan",
        "user_rate-nan-in-array", "path_loss-nan-kappa", "path_loss-inf-dmax",
        "path_loss-nan-dmax"])
def test_rejects_non_finite_input(fn, args):
    # a range check written as "x < lo or x > hi" lets NaN through
    with pytest.raises(ValueError):
        fn(*args, URBAN)
