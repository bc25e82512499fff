import csv
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

    def test_pointmix_ten_tenths_sum_left_to_right(self):
        # 1.0 under Python 3.12's compensated `sum`; cdf, its column and
        # sup_quantile must agree on every interpreter
        dist = make_distribution(
            "pointmix", {"atoms": [0.1 * i for i in range(10)], "weights": [0.1] * 10})
        assert dist.cdf(1.0) == dist.cumulative[-1] == 0.9999999999999999
        assert dist.cdf_column(np.array([1.0])).tolist() == [0.9999999999999999]
        assert dist.sup_quantile(0.9999999999999999) == POS_INF
        assert dist.sup_quantile(0.99) == pytest.approx(0.9)

    @given(st.lists(st.floats(0.0, 1.0), max_size=10), st.floats(0.0, 1.0))
    def test_pointmix_sup_quantile_matches_left_fold(self, levels, level):
        atoms = [0.3, 0.1, 0.1, 0.7, 0.5, 0.9, 0.2, 0.2, 0.6, 0.4]
        dist = make_distribution("pointmix", {"atoms": atoms, "weights": [0.1] * 10})
        for lv in levels + [level] + dist.cumulative:
            cum, want = 0.0, POS_INF
            for a in sorted(atoms):
                cum += 0.1
                if cum > lv:
                    want = a
                    break
            assert dist.sup_quantile(lv) == (want if lv < 1.0 else POS_INF)

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
        with pytest.raises(EnvironmentConfigError, match="matching nonempty atoms/weights"):
            make_distribution("pointmix", {"atoms": (0.2, 0.5), "weights": (1.0,)})
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
        scores, candidates = load_score_log(path)
        assert scores.dtype == np.float64 and scores.tolist() == [0.5, 0.7]
        assert candidates.tolist() == [[0.5, 0.2], [0.7, 0.1]]

    def test_rows_padded_with_nan(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("round_id,gt_score,cand_0,cand_1\n0,0.5,0.5,0.9\n1,0.7\n2,0.3,0.3\n")
        scores, candidates = load_score_log(path)
        assert scores.tolist() == [0.5, 0.7, 0.3]
        assert np.isnan(candidates).tolist() == [[False, False], [True, True], [False, True]]
        assert candidates[0].tolist() == [0.5, 0.9] and candidates[2, 0] == 0.3

    def test_round_id_only_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("round_id,gt_score\n0,0.5\n2\n")
        with pytest.raises(EnvironmentConfigError, match=r"short\.csv:3: "):
            load_score_log(path)

    def test_row_wider_than_header_rejected(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("round_id,gt_score,cand_0\n0,0.5,0.5\n1,0.5,0.5,0.9,0.1\n")
        with pytest.raises(EnvironmentConfigError, match=r"wide\.csv:3: 5 fields"):
            load_score_log(path)

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfround_id,gt_score,cand_0\n0,0.5,0.5\n")
        scores, candidates = load_score_log(path)
        assert scores.tolist() == [0.5] and candidates.tolist() == [[0.5]]

    def test_blank_row_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("round_id,gt_score\n0,0.5\n\n2,0.7\n")
        assert load_score_log(path)[0].tolist() == [0.5, 0.7]

    @pytest.mark.parametrize("row, error", [
        ("2,high,0.7", "could not convert string to float: 'high'"),
        ("2,0.7,high", "could not convert string to float: 'high'"),
        ("2,inf,inf", "non-finite gt_score"),
        ("2,nan", "non-finite gt_score"),
    ], ids=["gt_score-text", "candidate-text", "gt_score-inf", "gt_score-nan"])
    def test_bad_field_rejected_at_its_line(self, tmp_path, row, error):
        # the blank line 3 is skipped, and still counted
        path = tmp_path / "bad.csv"
        path.write_text(f"round_id,gt_score,cand_0\n0,0.5,0.5\n\n{row}\n")
        with pytest.raises(EnvironmentConfigError, match=rf"bad\.csv:4: {error}"):
            load_score_log(path)

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
        env = ScoreLogEnv(*load_score_log(path))
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
        env = ScoreLogEnv(*load_score_log(path), with_replacement=False)
        scores, _ = env.draw(np.random.default_rng(9), 3)
        assert sorted(scores.tolist()) == [0.1, 0.2, 0.3]

    def test_without_replacement_exhaustion(self, tmp_path):
        path = write_score_log(tmp_path / "log.csv", [0.1, 0.2])
        env = ScoreLogEnv(*load_score_log(path), with_replacement=False)
        scores, _ = env.draw(np.random.default_rng(9), 2)
        assert sorted(scores.tolist()) == [0.1, 0.2]
        with pytest.raises(RunExhaustedError):
            env.draw(np.random.default_rng(9), 3)

    def test_with_replacement_draws_from_log(self, tmp_path):
        path = write_score_log(tmp_path / "log.csv", [0.1, 0.2, 0.3])
        env = ScoreLogEnv(*load_score_log(path))
        scores, candidates = env.draw(np.random.default_rng(9), 20)
        assert set(scores.tolist()) <= {0.1, 0.2, 0.3}
        assert candidates is None


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
        scores, candidates = env.draw(np.random.default_rng(4), 20)
        bids = np.random.default_rng(4).integers(len(pool), size=(20, 2))
        assert scores.tolist() == [AuctionRound(bids=tuple(pool[i] for i in row)).b1
                                   for row in bids]
        assert candidates is None

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

    @settings(max_examples=300, deadline=None)
    @given(pool=st.lists(st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 1.0])
                         | st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=8),
           bidders=st.integers(2, 5), seed=st.integers(0, 2**63), n=st.integers(1, 200))
    def test_top_bid_is_the_row_max_bit_for_bit(self, pool, bidders, seed, n):
        # ties of -0.0 and 0.0, NaN and +-inf among the bids: the draw's
        # column-by-column maximum keeps the same bits as the row max
        dist = EmpiricalDist(pool)
        scores, _ = AuctionEnv(dist, bidders).draw(np.random.default_rng(seed), n)
        bids = dist.sample(np.random.default_rng(seed), (n, bidders))
        assert scores.tobytes() == bids.max(axis=1).tobytes()


def bundled(name):
    return resources.files("semibandit_conformal.data") / name


# Scalar per-round sampling, one generator call per round: the reference
# that `draw` must match round for round.  Each yields (score, candidates)
# with candidates None when the round carries none.


def synthetic_rounds(dist, rng):
    while True:
        yield float(dist.sample(rng)), None


def log_rounds(rows, rng):
    while True:
        yield rows[int(rng.integers(len(rows)))]


def log_rounds_without_replacement(rows, rng):
    """One permutation drawn at the first round, then walked a row a round."""
    for i in rng.permutation(len(rows)):
        yield rows[int(i)]
    raise RunExhaustedError(f"score log exhausted after {len(rows)} rounds")


def auction_rounds(value_dist, bidders, rng):
    while True:
        yield float(value_dist.sample(rng, bidders).max()), None


def log_rows(path):
    """(score, candidates) per row of a score log, read with `csv` alone."""
    with path.open(newline="", encoding="utf-8") as fh:
        recs = [rec for rec in list(csv.reader(fh))[1:] if rec]
    return [(float(rec[1]), tuple(map(float, rec[2:])) or None) for rec in recs]


def synthetic(dist):
    return SyntheticEnv(dist), lambda rng: synthetic_rounds(dist, rng)


def auction(value_dist, bidders):
    return (AuctionEnv(value_dist, bidders),
            lambda rng: auction_rounds(value_dist, bidders, rng))


SCORE_LOG = bundled("example_scores.csv")
SCORE_LOG_ROWS = log_rows(SCORE_LOG)

# name -> (environment, rng -> iterator over reference rounds)
DRAW_ENVIRONMENTS = {
    "uniform": synthetic(make_distribution("uniform", {"a": -1.0, "b": 2.0})),
    "gaussian": synthetic(make_distribution("gaussian", {"mu": 1.0, "sigma": 2.0})),
    "beta": synthetic(make_distribution("beta", {"p": 0.5, "q": 3.0})),
    "pointmix": synthetic(make_distribution(
        "pointmix", {"atoms": (0.7, 0.1, 0.4, 0.4), "weights": (0.1, 0.3, 0.2, 0.4)})),
    "empirical": synthetic(EmpiricalDist([0.5, 0.9, 0.2, 0.5, -1.0])),
    "score_log": (ScoreLogEnv(*load_score_log(SCORE_LOG)),
                  lambda rng: log_rounds(SCORE_LOG_ROWS, rng)),
    "score_log_without_replacement": (
        ScoreLogEnv(*load_score_log(SCORE_LOG), with_replacement=False),
        lambda rng: log_rounds_without_replacement(SCORE_LOG_ROWS, rng)),
    "auction_gaussian": auction(
        make_distribution("gaussian", {"mu": 25.0, "sigma": 8.0}), bidders=3),
    "auction_pool": auction(EmpiricalDist(load_bid_pool(bundled("bid_pool.csv"))), bidders=2),
}


class TestDrawMatchesNextRound:
    @pytest.mark.parametrize("name", sorted(DRAW_ENVIRONMENTS))
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**63), n=st.integers(min_value=1, max_value=500))
    def test_block_equals_rounds(self, name, seed, n):
        env, reference = DRAW_ENVIRONMENTS[name]
        scores, candidates = env.draw(np.random.default_rng(seed), n)
        rounds = reference(np.random.default_rng(seed))
        expected = [next(rounds) for _ in range(n)]
        assert scores.tolist() == [score for score, _ in expected]
        if expected[0][1] is None:
            assert candidates is None
        else:
            assert candidates.tolist() == [list(cands) for _, cands in expected]
        # next_round is the first round of the same stream
        assert env.next_round(np.random.default_rng(seed)) == expected[0][0]
        # draw leaves the environment unchanged
        again, _ = env.draw(np.random.default_rng(seed), n)
        assert again.tolist() == scores.tolist()

    def test_without_replacement_past_the_log_raises(self):
        env, reference = DRAW_ENVIRONMENTS["score_log_without_replacement"]
        n = len(env.scores)
        scores, _ = env.draw(np.random.default_rng(0), n)
        assert sorted(scores.tolist()) == sorted(env.scores.tolist())
        with pytest.raises(RunExhaustedError):
            env.draw(np.random.default_rng(0), n + 1)
        rounds = reference(np.random.default_rng(0))
        assert [next(rounds)[0] for _ in range(n)] == scores.tolist()
        with pytest.raises(RunExhaustedError):
            next(rounds)


class TestDeterminism:
    def test_identical_seed_identical_sequence(self):
        # two equal specs, so two separate builds
        envs = [EnvironmentSpec(kind="synthetic", distribution="gaussian",
                                dist_params={"mu": 0.0, "sigma": 1.0}).build()
                for _ in range(2)]
        assert envs[0] is not envs[1]
        seq = []
        for env in envs:
            rng = np.random.default_rng(123)
            seq.append([env.next_round(rng) for _ in range(100)])
        assert seq[0] == seq[1]


class TestEnvironmentSpec:
    def test_synthetic_build(self):
        spec = EnvironmentSpec(kind="synthetic", distribution="uniform",
                               dist_params={"a": 0.0, "b": 2.0})
        assert spec.build().dist.support == (0.0, 2.0)

    def test_build_returns_one_environment(self):
        spec = EnvironmentSpec(kind="synthetic", distribution="uniform",
                               dist_params={"a": 0.0, "b": 1.0})
        assert spec.build() is spec.build()

    def test_failed_build_keeps_nothing(self, tmp_path):
        spec = EnvironmentSpec(kind="score_log", path=str(tmp_path / "log.csv"))
        for _ in range(2):
            with pytest.raises(FileNotFoundError):
                spec.build()
        write_score_log(tmp_path / "log.csv", [0.5, 0.7])
        assert spec.build().scores.tolist() == [0.5, 0.7]

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

    def test_bid_pool_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_bytes(b"\xef\xbb\xbf1.5\n2.5\n")
        assert load_bid_pool(path) == [1.5, 2.5]

    def test_example_score_log_loads(self):
        path = resources.files("semibandit_conformal.data") / "example_scores.csv"
        scores, candidates = load_score_log(path)
        assert len(scores) == 500
        assert candidates.shape == (500, 10) and not np.isnan(candidates).any()


class TestBidPool:
    def test_blank_line_skipped(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text("1.5\n\n  \n2.5\n")
        assert load_bid_pool(path) == [1.5, 2.5]

    @pytest.mark.parametrize("line, error", [
        ("high", "could not convert string to float: 'high'"),
        ("inf", "non-finite bid"),
        ("nan", "non-finite bid"),
    ], ids=["text", "inf", "nan"])
    def test_bad_bid_rejected_at_its_line(self, tmp_path, line, error):
        # the blank line 2 is skipped, and still counted
        path = tmp_path / "pool.csv"
        path.write_text(f"1.5\n\n{line}\n2.5\n")
        with pytest.raises(EnvironmentConfigError, match=rf"pool\.csv:3: {error}"):
            load_bid_pool(path)

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["no-lines", "blank-lines"])
    def test_empty_pool_rejected(self, tmp_path, text):
        path = tmp_path / "pool.csv"
        path.write_text(text)
        with pytest.raises(EnvironmentConfigError, match=r"pool\.csv: bid pool is empty"):
            load_bid_pool(path)
