import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semibandit_conformal.cdf_band import NEG_INF, band_epsilon
from semibandit_conformal.environments import apply_feedback
from semibandit_conformal.policies import (
    ACI_GAMMA_GRID,
    ETC_M_GRID,
    AciPolicy,
    ConEtcPolicy,
    DlrPolicy,
    EtcPolicy,
    FeedbackEvent,
    GreedyPolicy,
    PolicyConfigError,
    PolicyContractError,
    PolicySpec,
    SpsPolicy,
)

ALPHA = 0.9
T = 10000


def spec(kind, **kw):
    return PolicySpec(kind=kind, alpha=ALPHA, horizon=T, **kw)


def drive(policy, scores):
    """Run the semi-bandit loop over a score sequence, return thresholds."""
    taus = []
    for s in scores:
        tau = policy.propose()
        taus.append(tau)
        policy.update(apply_feedback(tau, s))
    return taus


class TestFeedbackEvent:
    def test_observed_carries_score(self):
        fb = FeedbackEvent(observed=True, recorded=0.5, score=0.5)
        assert fb.recorded == fb.score

    def test_score_iff_observed(self):
        with pytest.raises(ValueError):
            FeedbackEvent(observed=True, recorded=0.5)
        with pytest.raises(ValueError):
            FeedbackEvent(observed=False, recorded=0.5, score=0.5)

    def test_recorded_must_match_score(self):
        with pytest.raises(ValueError):
            FeedbackEvent(observed=True, recorded=0.4, score=0.5)


class TestPolicySpec:
    def test_unknown_kind(self):
        with pytest.raises(PolicyConfigError):
            spec("ucb")

    def test_aci_requires_positive_gamma(self):
        with pytest.raises(PolicyConfigError):
            spec("aci")
        with pytest.raises(PolicyConfigError):
            spec("aci", gamma=-0.1)

    def test_dlr_requires_finite_tau_init(self):
        with pytest.raises(PolicyConfigError):
            spec("dlr")
        with pytest.raises(PolicyConfigError):
            spec("dlr", tau_init=NEG_INF)

    def test_etc_requires_m_below_horizon(self):
        with pytest.raises(PolicyConfigError):
            spec("etc", explore_rounds=T)
        with pytest.raises(PolicyConfigError):
            spec("con_etc", explore_rounds=0)

    def test_default_grids(self):
        assert len(ACI_GAMMA_GRID) == 8
        assert ETC_M_GRID == (100, 250, 500, 1000)

    def test_build_dispatch(self):
        kinds = {
            "sps": SpsPolicy,
            "greedy": GreedyPolicy,
            "dlr": DlrPolicy,
        }
        for kind, cls in kinds.items():
            kw = {"tau_init": 0.0} if kind == "dlr" else {}
            assert isinstance(spec(kind, **kw).build(), cls)
        assert isinstance(spec("aci", gamma=0.01).build(), AciPolicy)
        assert isinstance(spec("etc", explore_rounds=50).build(), EtcPolicy)
        assert isinstance(
            spec("con_etc", explore_rounds=50).build(), ConEtcPolicy
        )


class TestPropose:
    def test_sps_starts_at_minus_infinity(self):
        assert spec("sps").build().propose() == NEG_INF

    def test_etc_explores_at_minus_infinity(self):
        p = spec("etc", explore_rounds=500).build()
        drive(p, [0.5] * 100)
        assert p.propose() == NEG_INF

    def test_dlr_initial_readback(self):
        assert spec("dlr", tau_init=0.0).build().propose() == 0.0

    def test_propose_does_not_mutate(self):
        p = spec("sps").build()
        p.propose()
        p.propose()
        assert p.t == 0


class TestSps:
    def test_observed_and_miss_recording(self):
        assert apply_feedback(0.3, 0.5) == FeedbackEvent(True, 0.5, 0.5)
        assert apply_feedback(0.3, 0.2) == FeedbackEvent(False, 0.3)

    def test_max_step_never_decreases(self):
        p = spec("sps").build()
        p.tau = 0.3
        p.ecdf.insert(0.25)  # cutoff query will return <= 0.25 here
        cutoff = p.ecdf.conformal_cutoff(ALPHA)
        assert cutoff < 0.3
        p.update(apply_feedback(0.3, 0.9))
        assert p.tau == 0.3

    def test_miss_with_wrong_recorded_value_rejected(self):
        p = spec("sps").build()
        p.tau = 0.3
        with pytest.raises(PolicyContractError):
            p.update(FeedbackEvent(observed=False, recorded=0.2))

    def test_observed_below_threshold_rejected(self):
        p = spec("sps").build()
        p.tau = 0.5
        with pytest.raises(PolicyContractError):
            p.update(FeedbackEvent(observed=True, recorded=0.2, score=0.2))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=1, max_size=200))
    def test_threshold_nondecreasing_on_any_trace(self, scores):
        taus = drive(spec("sps").build(), scores)
        assert all(a <= b for a, b in zip(taus, taus[1:]))

    def test_miss_rounds_record_the_proposed_threshold(self):
        rng = np.random.default_rng(5)
        p = PolicySpec(kind="sps", alpha=ALPHA, horizon=2000).build()
        for s in rng.uniform(0, 1, 2000):
            tau = p.propose()
            fb = apply_feedback(tau, s)
            if not fb.observed:
                assert fb.recorded == tau
            p.update(fb)


class TestGreedy:
    def test_ten_sample_quantile(self):
        p = spec("greedy").build()
        for s in [j / 10 for j in range(1, 11)]:
            p.ecdf.insert(s)
        p.t = 10
        p.tau = p.ecdf.conformal_cutoff(ALPHA, epsilon=0.0)
        assert p.tau == 0.2

    def test_single_sample(self):
        p = spec("greedy").build()
        p.update(apply_feedback(p.propose(), 0.5))
        assert p.tau == 0.5

    def test_no_monotonicity_constraint(self):
        # unlike the banded policy, a valid update can lower the threshold:
        # the new quantile is adopted as-is, never max-ed with the old tau
        p = spec("greedy").build()
        for s in [j / 10 for j in range(1, 11)]:
            p.update(FeedbackEvent(observed=True, recorded=s, score=s))
        p.tau = 5.0
        p.update(FeedbackEvent(observed=False, recorded=5.0))
        assert p.tau < 5.0


class TestAci:
    def test_budget_update_on_miss(self):
        p = spec("aci", gamma=0.01).build()
        p.beta = 0.1
        p.tau = 0.5
        p.update(FeedbackEvent(observed=False, recorded=0.5))
        assert p.beta == pytest.approx(0.091)

    def test_budget_update_on_cover(self):
        p = spec("aci", gamma=0.01).build()
        p.beta = 0.1
        p.update(FeedbackEvent(observed=True, recorded=0.7, score=0.7))
        assert p.beta == pytest.approx(0.101)

    def test_initial_budget_is_target_miscoverage(self):
        assert spec("aci", gamma=0.01).build().beta == pytest.approx(0.1)

    def test_quantile_uses_observed_scores_only(self):
        p = spec("aci", gamma=0.01).build()
        drive(p, [0.5, 0.4, 0.6])  # 0.4 misses at tau=0.5 and is never stored
        assert p.observed_scores == [0.5, 0.6]

    def test_tau_minus_infinity_while_no_observations(self):
        p = spec("aci", gamma=0.01).build()
        assert p.propose() == NEG_INF

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=1, max_size=300),
           st.sampled_from(ACI_GAMMA_GRID))
    def test_budget_ledger_identity(self, scores, gamma):
        p = spec("aci", gamma=gamma).build()
        misses = 0
        for s in scores:
            fb = apply_feedback(p.propose(), s)
            misses += 0 if fb.observed else 1
            p.update(fb)
        t = len(scores) + 1
        expected = gamma * (t - 1) * (1 - ALPHA) - gamma * misses
        assert p.beta - (1 - ALPHA) == pytest.approx(expected, abs=1e-9)


class TestDlr:
    def test_cover_step(self):
        p = spec("dlr", tau_init=0.5).build()
        p.update(FeedbackEvent(observed=True, recorded=0.9, score=0.9))
        assert p.tau == pytest.approx(0.6)

    def test_miss_step(self):
        p = spec("dlr", tau_init=0.5).build()
        p.update(FeedbackEvent(observed=False, recorded=0.5))
        assert p.tau == pytest.approx(-0.4)

    def test_step_size_at_t100(self):
        assert 100 ** (-0.6) == pytest.approx(0.0631, abs=1e-4)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=1, max_size=200))
    def test_step_bound_exact(self, scores):
        p = spec("dlr", tau_init=0.0).build()
        prev = p.propose()
        for t, s in enumerate(scores, start=1):
            fb = apply_feedback(prev, s)
            p.update(fb)
            eta = t ** (-0.6)
            expected = (1 - ALPHA) * eta if fb.observed else ALPHA * eta
            assert abs(p.tau - prev) == pytest.approx(expected, rel=1e-12)
            prev = p.tau


class TestEtc:
    def test_exploration_then_commit(self):
        p = spec("etc", explore_rounds=100).build()
        scores = [j / 100 for j in range(1, 101)]
        taus = drive(p, scores)
        assert all(tau == NEG_INF for tau in taus)
        # m_idx = floor(100 * 0.1) = 10, commit = 11th order statistic
        assert p.propose() == pytest.approx(0.11)

    def test_commit_held_fixed(self):
        p = spec("etc", explore_rounds=50).build()
        drive(p, [j / 50 for j in range(1, 51)])
        committed = p.propose()
        drive(p, [0.9] * 50)
        assert p.propose() == committed

    def test_conservative_commit_is_not_larger(self):
        scores = [j / 2000 for j in range(1, 2001)]
        etc = spec("etc", explore_rounds=2000).build()
        con = spec("con_etc", explore_rounds=2000).build()
        drive(etc, scores)
        drive(con, scores)
        assert con.propose() <= etc.propose()

    def test_conservative_commit_uses_band_at_m(self):
        m = 2000
        scores = [j / m for j in range(1, m + 1)]
        con = spec("con_etc", explore_rounds=m).build()
        drive(con, scores)
        eps = band_epsilon(2.0 / T**2, m)
        level = 1 - ALPHA - eps
        expected = scores[math.floor(m * level)]
        assert con.propose() == pytest.approx(expected)

    def test_short_exploration_commits_to_minus_infinity(self):
        # at m=100 the band is wider than the miscoverage budget
        p = spec("con_etc", explore_rounds=100).build()
        drive(p, [j / 100 for j in range(1, 101)])
        assert p.propose() == NEG_INF
