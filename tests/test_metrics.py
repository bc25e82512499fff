import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semibandit_conformal.cdf_band import NEG_INF, POS_INF
from semibandit_conformal.metrics import (
    LossParams,
    coverage_rate,
    cum_regret,
    inst_regret,
    loss_phi,
    regret_bound,
    undercoverage_count,
)

PARAMS = LossParams()  # lambda1=0.1, lambda2=10, alpha=0.9


def uniform_cdf(tau):
    return min(max(tau, 0.0), 1.0)


class TestLossParams:
    def test_defaults(self):
        assert PARAMS.lipschitz_k == 10.0
        assert PARAMS.phi_max == pytest.approx(9.0)

    def test_phi_max_over_alpha_grid(self):
        # phi_max = max over the reachable miscoverage range [0, 1]
        for alpha in (0.5, 0.8, 0.9, 0.95, 0.99):
            params = LossParams(alpha=alpha)
            worst = max(
                abs(loss_phi(tau, uniform_cdf, params))
                for tau in [j / 1000 for j in range(1001)]
            )
            assert worst == pytest.approx(params.phi_max, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            LossParams(lambda1=10.0, lambda2=0.1)
        with pytest.raises(ValueError):
            LossParams(lambda1=0.0)
        with pytest.raises(ValueError):
            LossParams(alpha=1.0)


class TestLossPhi:
    def test_zero_at_target_miscoverage(self):
        assert loss_phi(0.1, uniform_cdf, PARAMS) == pytest.approx(0.0, abs=1e-9)

    def test_overcovering_side_uses_mild_slope(self):
        # G*(0.05) = 0.05, gap 0.05 below target: loss = -0.1 * 0.05
        assert loss_phi(0.05, uniform_cdf, PARAMS) == pytest.approx(-0.005)

    def test_undercovering_side_uses_steep_slope(self):
        # G*(0.2) = 0.2, gap 0.1 above target: loss = -10 * 0.1
        assert loss_phi(0.2, uniform_cdf, PARAMS) == pytest.approx(-1.0)

    def test_minus_infinity_maps_to_zero_miscoverage(self):
        assert loss_phi(NEG_INF, uniform_cdf, PARAMS) == pytest.approx(-0.01)

    def test_plus_infinity_maps_to_full_miscoverage(self):
        assert loss_phi(POS_INF, uniform_cdf, PARAMS) == pytest.approx(-9.0)

    @given(st.floats(-0.5, 1.5))
    def test_nonpositive_everywhere(self, tau):
        assert loss_phi(tau, uniform_cdf, PARAMS) <= 0.0

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_lipschitz_in_miscoverage(self, g1, g2):
        l1 = loss_phi(g1, uniform_cdf, PARAMS)
        l2 = loss_phi(g2, uniform_cdf, PARAMS)
        assert abs(l1 - l2) <= PARAMS.lipschitz_k * abs(g1 - g2) + 1e-12


class TestInstRegret:
    TAU_STAR = 0.1

    def regret(self, tau):
        return inst_regret(np.array([tau]), self.TAU_STAR, uniform_cdf, PARAMS)[0]

    def test_zero_at_oracle(self):
        assert self.regret(0.1) == pytest.approx(0.0, abs=1e-9)

    def test_overcovering_example(self):
        assert self.regret(0.0) == pytest.approx(0.01, abs=1e-9)

    def test_undercovering_example(self):
        assert self.regret(0.2) == pytest.approx(1.0, abs=1e-9)

    @given(st.floats(-1.0, 2.0))
    def test_nonnegative(self, tau):
        assert self.regret(tau) >= 0.0

    @given(st.lists(st.sampled_from([NEG_INF, -0.5, 0.0, 0.05, 0.1, 0.3, POS_INF]),
                    min_size=1, max_size=30))
    def test_column_matches_per_round_formula(self, taus):
        # loss_phi runs once per distinct threshold; the bits must not move
        phi_star = loss_phi(self.TAU_STAR, uniform_cdf, PARAMS)
        want = [float(f"{abs(phi_star - loss_phi(t, uniform_cdf, PARAMS)):.12g}")
                for t in taus]
        got = inst_regret(np.array(taus), self.TAU_STAR, uniform_cdf, PARAMS)
        assert got.tolist() == want


class TestCumRegret:
    def test_sequential_fold_at_12_digits(self):
        inst = [0.1, 0.2, 1e-13, 0.3] * 50
        cum, want = 0.0, []
        for x in inst:
            cum = float(f"{cum + x:.12g}")
            want.append(cum)
        assert cum_regret(np.array(inst)).tolist() == want


class TestTraceAggregates:
    def test_coverage_rate(self):
        covered = np.array([True, False, True])
        assert coverage_rate(covered).tolist() == pytest.approx([1.0, 0.5, 2 / 3])

    def test_coverage_rate_empty_rejected(self):
        with pytest.raises(ValueError):
            coverage_rate(np.array([], dtype=bool))

    def test_undercoverage_count(self):
        undercover = np.array([False, True, True])
        assert undercoverage_count(undercover).tolist() == [0, 1, 2]
        assert undercoverage_count(np.array([], dtype=bool)).tolist() == []


class TestRegretBound:
    def test_frozen_value_at_default_parameters(self):
        # K = 10, phi_max = 9: 10*(2 ln 1e4 + 4 sqrt(1e4 ln 1e4) + 1) + 36
        assert regret_bound(10000, 10.0, 9.0) == pytest.approx(12369.63, abs=0.05)

    def test_horizon_one_boundary(self):
        assert regret_bound(1, 10.0, 9.0) == pytest.approx(10.0 + 36.0)

    def test_linear_in_k(self):
        base = regret_bound(500, 1.0, 0.0)
        assert regret_bound(500, 7.0, 0.0) == pytest.approx(7.0 * base)

    def test_monotone_in_horizon(self):
        vals = [regret_bound(t, 10.0, 9.0) for t in (10, 100, 1000, 10000)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_zero_horizon(self):
        with pytest.raises(ValueError):
            regret_bound(0, 10.0, 9.0)

    def test_sublinear_growth(self):
        # the bound grows like sqrt(T log T), so bound/T shrinks
        ratios = [regret_bound(t, 10.0, 9.0) / t for t in (100, 1000, 10000)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
