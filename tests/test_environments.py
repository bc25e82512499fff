import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semibandit_conformal.cdf_band import NEG_INF, POS_INF
from semibandit_conformal.environments import (
    AuctionEnv,
    AuctionRound,
    EmpiricalDist,
    EnvironmentConfigError,
    EnvironmentSpec,
    RunExhaustedError,
    ScoreLogEnv,
    SyntheticEnv,
    apply_feedback,
    auction_reward,
    load_bid_pool,
    load_score_log,
    make_distribution,
    set_size,
)

ALPHA = 0.9


def write_score_log(path, scores, candidates=None):
    n_cand = len(candidates[0]) if candidates else 0
    header = "round_id,gt_score" + "".join(f",cand_{j}" for j in range(n_cand))
    lines = [header]
    for i, s in enumerate(scores):
        row = f"{i},{s}"
        if candidates:
            row += "," + ",".join(str(c) for c in candidates[i])
        lines.append(row)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestDistributions:
    def test_uniform_support_containment(self):
        dist = make_distribution("uniform", {"a": 0.0, "b": 1.0})
        rng = np.random.default_rng(0)
        draws = [dist.sample(rng) for _ in range(200)]
        assert all(0.0 <= x <= 1.0 for x in draws)

    def test_uniform_oracle(self):
        env = SyntheticEnv(make_distribution("uniform", {"a": 0.0, "b": 1.0}))
        gstar = env.oracle_cdf()
        assert gstar(0.25) == pytest.approx(0.25)
        assert env.oracle_tau_star(ALPHA) == pytest.approx(0.1)

    @pytest.mark.parametrize("name,params", [
        ("uniform", {"a": 0.0, "b": 1.0}),
        ("gaussian", {"mu": 0.0, "sigma": 1.0}),
        ("beta", {"p": 2.0, "q": 5.0}),
    ])
    def test_continuous_tau_star_hits_target_miscoverage(self, name, params):
        # G*(tau*) = 1 - alpha exactly for continuous score distributions
        env = SyntheticEnv(make_distribution(name, params))
        tau_star = env.oracle_tau_star(ALPHA)
        assert env.oracle_cdf()(tau_star) == pytest.approx(1 - ALPHA, abs=1e-9)

    def test_gaussian_quantile(self):
        dist = make_distribution("gaussian", {"mu": 0.0, "sigma": 1.0})
        assert dist.sup_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
        assert dist.sup_quantile(0.1) == pytest.approx(-1.2815515655, abs=1e-8)

    def test_pointmix(self):
        dist = make_distribution(
            "pointmix", {"atoms": (0.2, 0.5, 0.9), "weights": (0.3, 0.4, 0.3)}
        )
        assert dist.cdf(0.1) == 0.0
        assert dist.cdf(0.5) == pytest.approx(0.7)
        assert dist.sup_quantile(0.1) == 0.2
        assert dist.sup_quantile(0.5) == 0.5
        assert dist.sup_quantile(1.5) == POS_INF
        rng = np.random.default_rng(1)
        assert all(dist.sample(rng) in (0.2, 0.5, 0.9) for _ in range(50))

    def test_empirical(self):
        dist = EmpiricalDist([0.5, 0.9, 0.2, 0.5])
        assert dist.support == (0.2, 0.9)
        assert dist.cdf(0.1) == 0.0
        assert dist.cdf(0.5) == 0.75
        assert dist.sup_quantile(0.1) == 0.2
        assert dist.sup_quantile(0.5) == 0.5
        assert dist.sup_quantile(0.75) == 0.9
        assert dist.sup_quantile(1.0) == POS_INF
        rng = np.random.default_rng(1)
        assert all(dist.sample(rng) in (0.2, 0.5, 0.9) for _ in range(50))
        with pytest.raises(EnvironmentConfigError):
            EmpiricalDist([])

    def test_invalid_parameters(self):
        with pytest.raises(EnvironmentConfigError):
            make_distribution("uniform", {"a": 1.0, "b": 1.0})
        with pytest.raises(EnvironmentConfigError):
            make_distribution("gaussian", {"mu": 0.0, "sigma": 0.0})
        with pytest.raises(EnvironmentConfigError):
            make_distribution("beta", {"p": -1.0, "q": 2.0})
        with pytest.raises(EnvironmentConfigError):
            make_distribution("pointmix", {"atoms": (1.0,), "weights": (0.5,)})
        with pytest.raises(EnvironmentConfigError):
            make_distribution("cauchy", {})
        with pytest.raises(EnvironmentConfigError):
            make_distribution("gaussian", {"mu": 0.0})


class TestApplyFeedback:
    def test_above_threshold_observed(self):
        assert apply_feedback(0.3, 0.5) == 0.5

    def test_below_threshold_missed(self):
        assert apply_feedback(0.3, 0.2) is None

    def test_boundary_is_observed(self):
        assert apply_feedback(0.3, 0.3) == 0.3

    def test_minus_infinity_observes_everything(self):
        assert apply_feedback(NEG_INF, -1e12) == -1e12


class TestAuctionReward:
    @pytest.mark.parametrize("p,expected", [(8.0, 0.0), (5.0, 5.0), (2.0, 3.0)])
    def test_three_branches(self, p, expected):
        assert auction_reward(p, AuctionRound(bids=(7.0, 3.0))) == expected

    def test_boundaries(self):
        rnd = AuctionRound(bids=(7.0, 3.0))
        assert auction_reward(7.0, rnd) == 7.0   # reserve exactly at top bid
        assert auction_reward(3.0, rnd) == 3.0   # reserve exactly at second bid

    def test_reward_never_exceeds_top_bid(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            bids = tuple(rng.uniform(0, 10, size=3))
            p = float(rng.uniform(-1, 12))
            assert auction_reward(p, AuctionRound(bids=bids)) <= max(bids)

    def test_non_finite_reserve_rejected(self):
        with pytest.raises(ValueError):
            auction_reward(POS_INF, AuctionRound(bids=(7.0, 3.0)))

    def test_top_two_order_statistics(self):
        rnd = AuctionRound(bids=(2.0, 9.0, 5.0))
        assert rnd.b1 == 9.0 and rnd.b2 == 5.0
        assert rnd.b1 >= rnd.b2
        with pytest.raises(ValueError):
            AuctionRound(bids=(1.0,))


class TestScoreLog:
    def test_round_trip(self, tmp_path):
        path = write_score_log(tmp_path / "log.csv", [0.5, 0.7],
                               candidates=[(0.5, 0.2), (0.7, 0.1)])
        rows = load_score_log(path)
        assert rows[0].score == 0.5
        assert rows[0].candidates == (0.5, 0.2)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,score\n0,0.5\n")
        with pytest.raises(EnvironmentConfigError):
            load_score_log(path)

    def test_gt_must_appear_among_candidates(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("round_id,gt_score,cand_0\n0,0.5,0.4\n")
        with pytest.raises(EnvironmentConfigError):
            load_score_log(path)

    def test_empty_log_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("round_id,gt_score\n")
        with pytest.raises(EnvironmentConfigError):
            load_score_log(path)

    def test_empirical_tau_star(self, tmp_path):
        path = write_score_log(tmp_path / "log.csv", [j / 10 for j in range(1, 11)])
        env = ScoreLogEnv(load_score_log(path))
        # brute-force sup over the empirical CDF of the full log
        scores = sorted(j / 10 for j in range(1, 11))
        brute = next(
            (s for s in scores
             if sum(v <= s for v in scores) / 10 > (1 - ALPHA) + 1e-9),
            POS_INF,
        )
        tau_star = env.oracle_tau_star(ALPHA)
        assert tau_star == brute == 0.2
        assert env.oracle_cdf()(tau_star) <= (1 - ALPHA) + 1e-9 + 0.1

    def test_without_replacement_is_a_permutation(self, tmp_path):
        path = write_score_log(tmp_path / "log.csv", [0.1, 0.2, 0.3])
        env = ScoreLogEnv(load_score_log(path), with_replacement=False)
        rng = np.random.default_rng(9)
        drawn = sorted(env.next_round(rng).score for _ in range(3))
        assert drawn == [0.1, 0.2, 0.3]

    def test_without_replacement_exhaustion(self, tmp_path):
        path = write_score_log(tmp_path / "log.csv", [0.1, 0.2])
        env = ScoreLogEnv(load_score_log(path), with_replacement=False)
        rng = np.random.default_rng(9)
        env.next_round(rng)
        env.next_round(rng)
        with pytest.raises(RunExhaustedError):
            env.next_round(rng)

    def test_with_replacement_draws_from_log(self, tmp_path):
        path = write_score_log(tmp_path / "log.csv", [0.1, 0.2, 0.3])
        env = ScoreLogEnv(load_score_log(path))
        rng = np.random.default_rng(9)
        for _ in range(20):
            assert env.next_round(rng).score in (0.1, 0.2, 0.3)


class TestSetSize:
    def test_counts_candidates_at_or_above_threshold(self):
        candidates = np.array([[0.9, 0.4, 0.2]] * 3)
        taus = np.array([0.5, NEG_INF, 0.95])
        assert set_size(candidates, taus).tolist() == [1, 3, 0]

    def test_unavailable_without_candidates(self):
        taus = np.array([0.5, 0.5])
        assert set_size(None, taus) is None
        assert set_size(np.full((2, 3), np.nan), taus) is None


class TestAuctionEnv:
    def test_score_is_top_bid(self):
        pool = [1.0, 5.0, 9.0]
        env = AuctionEnv(EmpiricalDist(pool), bidders=2)
        rng, bids_rng = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(20):
            bids = tuple(pool[i] for i in bids_rng.integers(len(pool), size=2))
            assert env.next_round(rng).score == AuctionRound(bids=bids).b1

    def test_oracle_is_power_of_pool_cdf(self):
        pool = list(np.arange(1.0, 101.0))
        env = AuctionEnv(EmpiricalDist(pool), bidders=2)
        gstar = env.oracle_cdf()
        assert gstar(50.0) == pytest.approx(0.25)
        tau_star = env.oracle_tau_star(ALPHA)
        assert gstar(tau_star - 1e-9) <= (1 - ALPHA) + 1e-9

    def test_parametric_values(self):
        dist = make_distribution("uniform", {"a": 0.0, "b": 1.0})
        env = AuctionEnv(dist, bidders=3)
        gstar = env.oracle_cdf()
        assert gstar(0.5) == pytest.approx(0.125)
        tau_star = env.oracle_tau_star(ALPHA)
        assert gstar(tau_star) == pytest.approx(1 - ALPHA, abs=1e-9)

    def test_config_validation(self):
        with pytest.raises(EnvironmentConfigError):
            AuctionEnv(EmpiricalDist([1.0, 2.0]), bidders=1)


def bundled(name):
    return resources.files("semibandit_conformal.data") / name


# name -> factory; a fresh environment per example, since a
# without-replacement log's `next_round` keeps its place
DRAW_ENVIRONMENTS = {
    "uniform": lambda: SyntheticEnv(make_distribution("uniform", {"a": -1.0, "b": 2.0})),
    "gaussian": lambda: SyntheticEnv(make_distribution("gaussian", {"mu": 1.0, "sigma": 2.0})),
    "beta": lambda: SyntheticEnv(make_distribution("beta", {"p": 0.5, "q": 3.0})),
    "pointmix": lambda: SyntheticEnv(make_distribution(
        "pointmix", {"atoms": (0.7, 0.1, 0.4, 0.4), "weights": (0.1, 0.3, 0.2, 0.4)})),
    "empirical": lambda: SyntheticEnv(EmpiricalDist([0.5, 0.9, 0.2, 0.5, -1.0])),
    "score_log": lambda: ScoreLogEnv(load_score_log(bundled("example_scores.csv"))),
    "score_log_without_replacement": lambda: ScoreLogEnv(
        load_score_log(bundled("example_scores.csv")), with_replacement=False),
    "auction_gaussian": lambda: AuctionEnv(
        make_distribution("gaussian", {"mu": 25.0, "sigma": 8.0}), bidders=3),
    "auction_pool": lambda: AuctionEnv(EmpiricalDist(load_bid_pool(bundled("bid_pool.csv"))),
                                       bidders=2),
}


class TestDrawMatchesNextRound:
    @pytest.mark.parametrize("name", sorted(DRAW_ENVIRONMENTS))
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**63), n=st.integers(min_value=1, max_value=500))
    def test_block_equals_rounds(self, name, seed, n):
        env = DRAW_ENVIRONMENTS[name]()
        scores, candidates = env.draw(np.random.default_rng(seed), n)
        rng = np.random.default_rng(seed)
        rounds = [env.next_round(rng) for _ in range(n)]
        assert scores.tolist() == [r.score for r in rounds]
        if rounds[0].candidates is None:
            assert candidates is None
        else:
            assert candidates.tolist() == [list(r.candidates) for r in rounds]
        # draw leaves the environment unchanged, next_round's place included
        again, _ = env.draw(np.random.default_rng(seed), n)
        assert again.tolist() == scores.tolist()

    def test_without_replacement_past_the_log_raises(self):
        env = DRAW_ENVIRONMENTS["score_log_without_replacement"]()
        with pytest.raises(RunExhaustedError):
            env.draw(np.random.default_rng(0), len(env.rows) + 1)


class TestDeterminism:
    def test_identical_seed_identical_sequence(self):
        env_spec = EnvironmentSpec(kind="synthetic", distribution="gaussian",
                                   dist_params={"mu": 0.0, "sigma": 1.0})
        seq = []
        for _ in range(2):
            env = env_spec.build()
            rng = np.random.default_rng(123)
            seq.append([env.next_round(rng).score for _ in range(100)])
        assert seq[0] == seq[1]


class TestEnvironmentSpec:
    def test_synthetic_build(self):
        spec = EnvironmentSpec(kind="synthetic", distribution="uniform",
                               dist_params={"a": 0.0, "b": 2.0})
        assert spec.build().score_range == (0.0, 2.0)

    def test_unknown_kind(self):
        with pytest.raises(EnvironmentConfigError):
            EnvironmentSpec(kind="realworld").build()

    def test_score_log_requires_path(self):
        with pytest.raises(EnvironmentConfigError):
            EnvironmentSpec(kind="score_log").build()

    def test_auction_requires_pool_or_distribution(self):
        with pytest.raises(EnvironmentConfigError):
            EnvironmentSpec(kind="auction").build()


class TestBundledData:
    def test_bid_pool_loads(self):
        path = resources.files("semibandit_conformal.data") / "bid_pool.csv"
        pool = load_bid_pool(path)
        assert len(pool) == 2000
        assert all(math.isfinite(v) and v > 0 for v in pool)

    def test_example_score_log_loads(self):
        path = resources.files("semibandit_conformal.data") / "example_scores.csv"
        rows = load_score_log(path)
        assert len(rows) == 500
        assert all(len(r.candidates) == 10 for r in rows)
