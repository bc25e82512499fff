import math
from bisect import insort
from heapq import heappop, heappush
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semibandit_conformal import cdf_band, policies
from semibandit_conformal.cdf_band import (LEVEL_TOL, NEG_INF, TruncatedEcdf, band_epsilon,
                                          order_index, sup_quantile)
from semibandit_conformal.environments import EnvironmentSpec, SyntheticEnv, apply_feedback
from semibandit_conformal.harness import (BLOCK_ROUNDS, ExperimentConfig, PolicyEntry,
                                          derive_seed, run_single)
from semibandit_conformal.policies import (
    ACI_GAMMA_GRID,
    DLR_EXPONENT_OFFSET,
    ETC_M_GRID,
    MIN_STRETCH,
    POLICY_KINDS,
    AciPolicy,
    ConEtcPolicy,
    DlrPolicy,
    EtcPolicy,
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


class TestUpdate:
    # (tau, score) rounds: misses, covers and a tie at the threshold
    ROUNDS = [(0.3, 0.5), (0.3, 0.2), (0.6, 0.6), (0.6, 0.1), (-1.0, -2.0), (0.0, 0.9)]

    @pytest.mark.parametrize("kind,kw", [
        ("sps", {}), ("greedy", {}), ("etc", {"explore_rounds": 100})])
    def test_ecdf_records_score_or_threshold(self, kind, kw):
        p = spec(kind, **kw).build()
        for tau, s in self.ROUNDS:
            p.tau = tau
            p.update(s if s >= tau else None)
        assert p.ecdf.samples == sorted(s if s >= tau else tau for tau, s in self.ROUNDS)
        assert p.t == len(self.ROUNDS)


    @pytest.mark.parametrize("kind,kw", [
        ("sps", {}), ("greedy", {}), ("aci", {"gamma": 0.01}), ("dlr", {"tau_init": 0.0}),
        ("etc", {"explore_rounds": 100}), ("con_etc", {"explore_rounds": 100})])
    def test_nan_score_breaks_contract(self, kind, kw):
        # nan < tau is False too, so only `not nan >= tau` catches it
        p = spec(kind, **kw).build()
        for _ in range(3):
            p.update(max(p.tau, 0.0) + 0.5)
        with pytest.raises(PolicyContractError):
            p.update(math.nan)
        assert p.t == 3


class TestPolicySpec:
    def test_unknown_kind(self):
        with pytest.raises(PolicyConfigError):
            spec("ucb")

    def test_aci_requires_positive_gamma(self):
        with pytest.raises(PolicyConfigError):
            spec("aci")
        with pytest.raises(PolicyConfigError):
            spec("aci", gamma=-0.1)
        for gamma in (math.nan, math.inf):
            with pytest.raises(PolicyConfigError):
                spec("aci", gamma=gamma)

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
        assert apply_feedback(0.3, 0.5) == 0.5
        assert apply_feedback(0.3, 0.2) is None

    def test_max_step_never_decreases(self):
        p = spec("sps").build()
        p.tau = 0.3
        p.ecdf.insert(0.25)  # cutoff query will return <= 0.25 here
        cutoff = p.ecdf.conformal_cutoff(ALPHA)
        assert cutoff < 0.3
        p.update(apply_feedback(0.3, 0.9))
        assert p.tau == 0.3

    def test_observed_below_threshold_rejected(self):
        p = spec("sps").build()
        p.tau = 0.5
        with pytest.raises(PolicyContractError):
            p.update(0.2)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=1, max_size=200))
    def test_threshold_nondecreasing_on_any_trace(self, scores):
        taus = drive(spec("sps").build(), scores)
        assert all(a <= b for a, b in zip(taus, taus[1:]))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([-0.0, 0.0, 0.25, 0.5]) | st.floats(-1, 1),
                    min_size=1, max_size=300),
           st.floats(0.05, 0.95), st.integers(2, 10**6))
    def test_censoring_costs_nothing(self, scores, alpha, horizon):
        # the full-information answer: the running max of the banded order
        # statistic of the raw scores, with no TruncatedEcdf in between
        taus = drive(PolicySpec(kind="sps", alpha=alpha, horizon=horizon).build(), scores)
        expected, tau = [], NEG_INF
        for t in range(1, len(scores) + 1):
            expected.append(tau)
            level = 1 - alpha - band_epsilon(2.0 / horizon**2, t)
            tau = max(tau, sup_quantile(sorted(scores[:t]), level))
        assert taus == expected

    def test_miss_rounds_record_the_proposed_threshold(self):
        rng = np.random.default_rng(5)
        p = PolicySpec(kind="sps", alpha=ALPHA, horizon=2000).build()
        recorded = []
        for s in rng.uniform(0, 1, 2000):
            tau = p.propose()
            observed = apply_feedback(tau, s)
            recorded.append(tau if observed is None else s)
            p.update(observed)
        assert p.ecdf.samples == sorted(recorded)

    @pytest.mark.parametrize("kind", ["sps", "greedy"])
    @pytest.mark.parametrize("before", [30, 3000])
    def test_play_rejects_an_infinite_score_after_the_rounds_before_it(self, kind, before):
        # +inf is above any fence, yet must not join the far tier unchecked
        p = spec(kind).build()
        scores = np.random.default_rng(before).random(before).tolist()
        with pytest.raises(ValueError, match="got inf"):
            p.play(np.array(scores + [math.inf, 0.2]))
        assert p.ecdf.count == before


class TestSpsLevelColumn:
    N = 10**5

    @pytest.mark.parametrize("horizon", [1200, 10**4, 10**5])
    @pytest.mark.parametrize("alpha", [ALPHA, 0.5, 1 / 3])
    def test_every_n_matches_epsilon(self, horizon, alpha):
        # the need column `play` builds is the ranks the per-round cutoff
        # answers: the level numpy computes is the level it queries, bit
        # for bit, and each rank is order_index of that level plus one
        e = TruncatedEcdf(horizon)
        levels, ranks = [], []
        for n in range(1, self.N + 1):
            e.insert(0.0)
            level = 1 - alpha - e.epsilon()
            levels.append(level)
            ranks.append(0 if level < -LEVEL_TOL else order_index(n, level) + 1)
        column = []
        index = cdf_band.order_index_column
        with mock.patch.object(cdf_band, "order_index_column",
                               lambda n, level: column.append(level) or index(n, level)):
            need = e.cutoff_ranks(alpha, None, np.arange(1, self.N + 1))
        assert column[0].tobytes() == np.array(levels).tobytes()
        assert need.tolist() == ranks

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["sps", "greedy"]),
           st.sampled_from([0.05, 0.1, 0.5, 0.9, 0.97, 1 / 3]) | st.floats(0.01, 0.99),
           st.sampled_from([2, 100, 1200, 10**6]) | st.integers(2, 10**7),
           st.integers(1, 10**7))
    def test_need_never_decreases(self, kind, alpha, horizon, first):
        # `play` looks for a raise only where need rises: a need that fell
        # would hide a round that falls short after it.  From the first
        # sample, where SPS's level crosses 0, and from a size far on
        policy = PolicySpec(kind=kind, alpha=alpha, horizon=horizon).build()
        for sizes in (np.arange(1, 5001), np.arange(first, first + 5000)):
            need = policy.ecdf.cutoff_ranks(policy.alpha, policy.epsilon, sizes)
            assert (np.diff(need) >= 0).all()


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
            p.update(s)
        p.tau = 5.0
        p.update(None)
        assert p.tau < 5.0


class TestAci:
    def test_budget_update_on_miss(self):
        p = spec("aci", gamma=0.01).build()
        p.beta = 0.1
        p.tau = 0.5
        p.update(None)
        assert p.beta == pytest.approx(0.091)

    def test_budget_update_on_cover(self):
        p = spec("aci", gamma=0.01).build()
        p.beta = 0.1
        p.update(0.7)
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
            observed = apply_feedback(p.propose(), s)
            misses += observed is None
            p.update(observed)
        t = len(scores) + 1
        expected = gamma * (t - 1) * (1 - ALPHA) - gamma * misses
        assert p.beta - (1 - ALPHA) == pytest.approx(expected, abs=1e-9)


class TestDlr:
    def test_cover_step(self):
        p = spec("dlr", tau_init=0.5).build()
        p.update(0.9)
        assert p.tau == pytest.approx(0.6)

    def test_miss_step(self):
        p = spec("dlr", tau_init=0.5).build()
        p.update(None)
        assert p.tau == pytest.approx(-0.4)

    def test_step_size_at_t100(self):
        assert 100 ** (-0.6) == pytest.approx(0.0631, abs=1e-4)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=1, max_size=200))
    def test_step_bound_exact(self, scores):
        p = spec("dlr", tau_init=0.0).build()
        prev = p.propose()
        for t, s in enumerate(scores, start=1):
            observed = apply_feedback(prev, s)
            p.update(observed)
            eta = t ** (-0.6)
            expected = (1 - ALPHA) * eta if observed is not None else ALPHA * eta
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


# ---------------------------------------------------------------------------
# Per-round reference for `Policy.play`: each policy's recurrence one round
# at a time, written plainly on the policy's own state.  `recorded` is the
# score when it was observed, else the round's tau.
# ---------------------------------------------------------------------------


def _ref_sps(p, recorded, observed):
    p.ecdf.insert(recorded)
    cutoff = p.ecdf.conformal_cutoff(p.alpha)
    if cutoff > p.tau:
        p.tau = cutoff


def _ref_greedy(p, recorded, observed):
    p.ecdf.insert(recorded)
    p.tau = p.ecdf.conformal_cutoff(p.alpha, epsilon=0.0)


def _ref_aci(p, recorded, observed):
    err = 0.0 if observed else 1.0
    p.beta += p.spec.gamma * ((1.0 - p.alpha) - err)
    if observed:
        insort(p.observed_scores, recorded)
    if not p.observed_scores:
        p.tau = NEG_INF
    else:
        level = min(max(p.beta, 0.0), 1.0)
        p.tau = sup_quantile(p.observed_scores, level)


def _ref_dlr(p, recorded, observed):
    eta = p.t ** (-(0.5 + DLR_EXPONENT_OFFSET))
    err = 0.0 if observed else 1.0
    p.tau += eta * ((1.0 - p.alpha) - err)


def _ref_etc(p, recorded, observed):
    if p.t <= p.explore_rounds:
        p.ecdf.insert(recorded)
        if p.t == p.explore_rounds:
            banded = p.spec.kind == "con_etc"
            p.tau = p.ecdf.conformal_cutoff(p.alpha, epsilon=None if banded else 0.0)


REFERENCE = {"sps": _ref_sps, "greedy": _ref_greedy, "aci": _ref_aci,
             "dlr": _ref_dlr, "etc": _ref_etc, "con_etc": _ref_etc}


def reference_round(p, score):
    """One round of the reference on policy `p`; returns the tau it proposed."""
    tau = p.tau
    observed = score >= tau
    p.t += 1
    REFERENCE[p.spec.kind](p, score if observed else tau, observed)
    return tau


def state(p):
    """Everything a policy carries between rounds, floats by repr."""
    out = {"t": p.t, "tau": repr(p.tau)}
    if hasattr(p, "beta"):
        out["beta"] = repr(p.beta)
        out["observed_scores"] = repr(p.observed_scores)
    if hasattr(p, "ecdf"):
        out["samples"] = repr(p.ecdf.samples)
    return out


# the token "tau" plays the round's own threshold as the score
SCORE_TOKENS = (st.sampled_from(["tau", "tau", math.nan, -0.0, 0.0, 0.25, 0.5, 1.0])
                | st.floats(-1, 1))


@st.composite
def play_cases(draw):
    """(spec, scores, chunk sizes) for one policy over a random stream.

    Dyadic alpha and gamma let ACI's budget land exactly on 0 and 1.
    """
    kind = draw(st.sampled_from(POLICY_KINDS))
    tokens = draw(st.lists(SCORE_TOKENS, max_size=150))
    kw = {}
    if kind == "aci":
        kw["gamma"] = draw(st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.001, 0.6))
    if kind == "dlr":
        kw["tau_init"] = draw(st.sampled_from([-0.0, 0.0, 0.5]) | st.floats(-1, 1))
    if kind in ("etc", "con_etc"):
        kw["explore_rounds"] = draw(st.integers(1, len(tokens) + 2))
    horizon = draw(st.integers(kw.get("explore_rounds", 1) + 1, 10**6))
    alpha = draw(st.sampled_from([0.25, 0.5, 0.75]) | st.floats(0.05, 0.95))
    spec = PolicySpec(kind=kind, alpha=alpha, horizon=horizon, **kw)
    # resolve the tokens against the reference's own thresholds; NaN (a
    # miss) only where recording tau is legal
    ref, scores = spec.build(), []
    for token in tokens:
        tau = ref.tau
        score = token
        if token == "tau":
            score = tau if math.isfinite(tau) else 0.5
        elif math.isnan(token) and not (math.isfinite(tau) or kind == "aci"):
            score = 0.25
        scores.append(score)
        reference_round(ref, score)
    cuts = sorted(draw(st.lists(st.integers(0, len(scores)), max_size=6)))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [len(scores)])]
    return spec, scores, sizes


# ACI streams as runs of one kind of round, so that misses can drive the
# budget below the stretch floor and covers lift it back above 0:
# "miss" just below tau (NaN while tau is -inf), "cover" uniform on [0, 1]
# with +inf and scores equal to tau, "tie" among -0.0, 0.0 and tau.
ACI_RUNS = st.tuples(st.sampled_from(["miss", "cover", "tie", "mixed"]),
                     st.integers(1, 400), st.integers(0, 2**32 - 1))


def _aci_token(kind, rng):
    if kind == "miss":
        return "miss"
    if kind == "tie":
        return [-0.0, 0.0, "tau"][rng.integers(3)]
    if kind == "cover" or rng.integers(2):
        u = rng.random()
        return math.inf if u < 0.02 else "tau" if u < 0.1 else rng.random()
    return ["miss", -0.0, 0.0, "tau", math.nan][rng.integers(5)]


@st.composite
def aci_stretch_cases(draw):
    """(spec, scores, chunk sizes) for ACI over up to 2000 rounds."""
    gamma = draw(st.sampled_from([0.001, 0.01, 0.125, 0.25]) | st.floats(0.001, 0.5))
    alpha = draw(st.sampled_from([0.1, 0.5, 0.75, 0.9]) | st.floats(0.05, 0.95))
    spec = PolicySpec(kind="aci", alpha=alpha, horizon=10**6, gamma=gamma)
    ref, scores = spec.build(), []
    for kind, length, seed in draw(st.lists(ACI_RUNS, min_size=1, max_size=12)):
        rng = np.random.default_rng(seed)
        for _ in range(min(length, 2000 - len(scores))):
            tau, score = ref.tau, _aci_token(kind, rng)
            if score == "miss":
                score = math.nextafter(tau, -math.inf) if math.isfinite(tau) else math.nan
            elif score == "tau":
                score = tau if math.isfinite(tau) else 0.0
            scores.append(score)
            reference_round(ref, score)
    sizes = draw(st.lists(st.integers(MIN_STRETCH, 700), max_size=8))
    return spec, scores, sizes + [len(scores)]


# Greedy streams as runs of one kind of round: "rise" scores climbing
# above tau, so that tau rises every few rounds; "tie" scores from a few
# values, zeros of both signs among them; "tau" scores equal to tau;
# "nan" misses; "uniform" scores on [0, 1].
GREEDY_RUNS = st.tuples(st.sampled_from(["rise", "tie", "tau", "nan", "uniform"]),
                        st.integers(1, 1200), st.integers(0, 2**32 - 1))


def _greedy_score(kind, tau, rng):
    if kind == "rise":
        return (tau if math.isfinite(tau) else 0.0) + rng.random()
    if kind == "tie":
        return [-0.0, 0.0, 0.25, 0.5, 1.0][rng.integers(5)]
    if kind == "tau":
        return tau if math.isfinite(tau) else 0.5
    if kind == "nan":
        return math.nan if math.isfinite(tau) else 0.25
    return rng.random()


def _scan_cases(draw, spec, max_rounds):
    """(spec, scores, chunk sizes, taus set from outside) over a stream of
    GREEDY_RUNS, resolved against the reference's own thresholds."""
    ref, scores = spec.build(), []
    for kind, length, seed in draw(st.lists(GREEDY_RUNS, min_size=1, max_size=8)):
        rng = np.random.default_rng(seed)
        for _ in range(min(length, max_rounds - len(scores))):
            score = _greedy_score(kind, ref.tau, rng)
            scores.append(score)
            reference_round(ref, score)
    cuts = sorted(set(draw(st.lists(st.integers(1, len(scores)), max_size=6))))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [len(scores)])]
    starts = [a for a in [0] + cuts if a < len(scores)]
    # a tau from outside, at some chunk starts: below, at or above the
    # stream's values, or -0.0
    taus = st.sampled_from([-0.0, 0.0, 0.5, 5.0]) | st.floats(-1, 2)
    set_tau = draw(st.dictionaries(st.sampled_from(starts), taus, max_size=2))
    return spec, scores, sizes, set_tau


@st.composite
def greedy_cases(draw, max_rounds=3000):
    """(spec, scores, chunk sizes, taus set from outside) for greedy.

    Up to max_rounds rounds, so that a chunk holds long stretches between
    raises, runs of raises every few rounds, and refills of the ECDF's
    heap that move its fence part-way through `play`'s walk.
    """
    alpha = draw(st.sampled_from([0.1, 0.5, 0.75, 0.9]) | st.floats(0.05, 0.95))
    return _scan_cases(draw, PolicySpec(kind="greedy", alpha=alpha, horizon=10**6),
                       max_rounds)


@st.composite
def sps_cases(draw, max_rounds=3000):
    """(spec, scores, chunk sizes, taus set from outside) for SPS.

    As `greedy_cases`, with the horizon drawn too: the band's level
    1 - alpha - eps_t is below 0, where the cutoff is -inf, until
    t = log(horizon) / (1 - alpha)**2, which is 709 rounds at
    (0.9, 1200) and 18 at (0.5, 100), so it often crosses 0 inside a
    chunk.
    """
    alpha = draw(st.sampled_from([0.1, 0.5, 0.75, 0.9]) | st.floats(0.05, 0.95))
    horizon = draw(st.sampled_from([2, 100, 1200, 10**4, 10**6]) | st.integers(2, 10**6))
    return _scan_cases(draw, PolicySpec(kind="sps", alpha=alpha, horizon=horizon),
                       max_rounds)


def assert_play_matches_reference(spec, scores, sizes, set_tau=None):
    """`play` over chunks of the given sizes, and `update` round by round,
    give the reference's thresholds and final state, floats by repr.

    `set_tau` maps a chunk's first round to a tau assigned from outside
    before it is played.
    """
    set_tau = set_tau or {}
    ref = spec.build()
    expected = []
    for i, s in enumerate(scores):
        if i in set_tau:
            ref.tau = set_tau[i]
        expected.append(reference_round(ref, s))

    played, taus, start = spec.build(), [], 0
    for size in sizes:
        if start in set_tau:
            played.tau = set_tau[start]
        taus += played.play(np.array(scores[start:start + size], dtype=np.float64)).tolist()
        start += size
    assert repr(taus) == repr(expected)
    assert state(played) == state(ref)

    # the per-round API: one `play` of one score, a miss passed as None
    stepped = spec.build()
    taus = []
    for i, s in enumerate(scores):
        if i in set_tau:
            stepped.tau = set_tau[i]
        tau = stepped.propose()
        taus.append(tau)
        stepped.update(s if s >= tau else None)
    assert repr(taus) == repr(expected)
    assert state(stepped) == state(ref)


class TestGreedyReference:
    @settings(max_examples=200, deadline=None)
    @given(greedy_cases(max_rounds=400))
    def test_threshold_never_decreases(self, case):
        # tau is never max-ed with the previous threshold, yet played from
        # the start it never falls: ties, +-0.0 and NaN included
        spec, scores, _, _ = case
        p = spec.build()
        taus = [reference_round(p, s) for s in scores] + [p.tau]
        assert all(a <= b for a, b in zip(taus, taus[1:]))


class TestPlayMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(play_cases())
    def test_play_in_chunks_and_update(self, case):
        assert_play_matches_reference(*case)

    @settings(max_examples=100, deadline=None)
    @given(greedy_cases())
    # a -0.0 set from outside when top is 0.0: equal, but greedy's
    # `update` turns it into top's 0.0 after one round
    @example((PolicySpec(kind="greedy", alpha=0.5, horizon=100),
              [0.0, -0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 0.0, 0.0], [4, 5], {4: -0.0}))
    def test_greedy_raise_scan(self, case):
        # long streams with long stretches between raises and runs of
        # raises close together; a tau set from outside between chunks is
        # played as it stands
        assert_play_matches_reference(*case)

    @settings(max_examples=50, deadline=None)
    @given(greedy_cases())
    def test_greedy_asks_one_cutoff_per_raise(self, case):
        # a miss or a tie that the walk failed to count would play a round
        # that does not raise through `update`: tau would come out right,
        # but after one more cutoff query
        spec, scores, sizes, _ = case
        p, taus, start = spec.build(), [], 0
        with mock.patch.object(TruncatedEcdf, "conformal_cutoff", autospec=True,
                               side_effect=TruncatedEcdf.conformal_cutoff) as cutoff:
            for size in sizes:
                taus += p.play(np.array(scores[start:start + size], dtype=np.float64)).tolist()
                start += size
        taus.append(p.tau)
        assert cutoff.call_count == sum(a < b for a, b in zip(taus, taus[1:]))

    @settings(max_examples=100, deadline=None)
    @given(sps_cases())
    def test_sps_raise_scan(self, case):
        # as for greedy, with the -inf rounds of a negative level and a
        # tau from outside below, at or above the recorded values
        assert_play_matches_reference(*case)

    @settings(max_examples=50, deadline=None)
    # sps_cases and greedy_cases have at most 7 chunks
    @given(st.one_of(sps_cases(), greedy_cases()),
           st.lists(st.booleans(), min_size=7, max_size=7))
    def test_sps_updates_only_raise_and_entry_rounds(self, case, stepped):
        # chunks played by `play`, or round by round by `update` where
        # `stepped` says so.  A `play` on a non-empty ECDF whose top is
        # tau, the sign of zero included, calls `update` only for the
        # rounds that raise it; any other, on a fresh policy or after a
        # tau from outside that is not top, also for its first round.
        # Greedy, SPS with no band, plays its rounds through the same
        # `update`
        spec, scores, sizes, set_tau = case
        ref = spec.build()
        expected = []
        for i, s in enumerate(scores):
            if i in set_tau:
                ref.tau = set_tau[i]
            expected.append(reference_round(ref, s))

        p, taus, start, calls = spec.build(), [], 0, 0
        with mock.patch.object(SpsPolicy, "update", autospec=True,
                               side_effect=SpsPolicy.update) as update:
            for size, by_update in zip(sizes, stepped):
                if start in set_tau:
                    p.tau = set_tau[start]
                chunk = scores[start:start + size]
                if by_update:
                    for s in chunk:
                        taus.append(p.tau)
                        p.update(s if s >= p.tau else None)
                    calls += len(chunk)
                elif chunk:
                    entry = not (p.ecdf.count and repr(p.tau) == repr(p.ecdf.top))
                    played = p.play(np.array(chunk)).tolist()
                    raises = [a < b for a, b in zip(played, played[1:] + [p.tau])]
                    calls += entry + sum(raises[entry:])
                    taus += played
                start += size
        assert repr(taus) == repr(expected)
        assert state(p) == state(ref)
        assert update.call_count == calls

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(sps_cases(), greedy_cases()), st.sampled_from([1, 2, 64]),
           st.sampled_from([2, 16]))
    def test_fence_moves_inside_a_block(self, case, floor, share):
        # a small refill floor and share move the ECDF's fence at many
        # raises, so `play` splits the rest of a chunk again part-way
        # through it; a tau set from outside may sit above the fence, and
        # the scores between them record tau
        with mock.patch.object(cdf_band, "REFILL_FLOOR", floor), \
                mock.patch.object(cdf_band, "REFILL_SHARE", share):
            assert_play_matches_reference(*case)

    def test_sps_level_crosses_zero_inside_a_block(self):
        # at (0.9, 1200) the level is below 0 up to t = 709.008, and the
        # cutoff -inf; one block of 2000 rounds runs across the change
        spec = PolicySpec(kind="sps", alpha=ALPHA, horizon=1200)
        scores = np.random.default_rng(11).random(2000).tolist()
        assert_play_matches_reference(spec, scores, [2000])
        taus = spec.build().play(np.array(scores))
        assert taus[709] == NEG_INF and math.isfinite(taus[710])

    def test_sps_level_just_below_zero_is_admitted(self):
        # at t = 16 the level is -5e-10: inside LEVEL_TOL, so the cutoff
        # is the least value, not -inf, and tau rises from -inf there
        spec = PolicySpec(kind="sps", alpha=0.4635084939276632, horizon=100)
        e = spec.build().ecdf
        level = []
        for _ in range(17):
            e.insert(0.0)
            level.append(1 - spec.alpha - e.epsilon())
        assert level[14] < -LEVEL_TOL <= level[15] < 0.0 < level[16]
        ranks = e.cutoff_ranks(spec.alpha, None, [15, 16])
        assert ranks[0] == 0 and ranks[1] >= 1
        scores = np.random.default_rng(12).random(40).tolist()
        assert_play_matches_reference(spec, scores, [40])
        taus = spec.build().play(np.array(scores))
        assert taus[15] == NEG_INF and math.isfinite(taus[16])

    @settings(max_examples=150, deadline=None)
    @given(aci_stretch_cases())
    def test_aci_clamp_stretches(self, case):
        # chunks of at least MIN_STRETCH rounds (the last takes what is left)
        # let `play` take its clamped stretches; `update` never does
        assert_play_matches_reference(*case)

    @pytest.mark.parametrize("kind", ["etc", "con_etc"])
    def test_exploration_across_run_blocks(self, kind):
        # m = 5000 crosses the first 4096-round block of run_single, which
        # the default m grid never does
        entry = PolicyEntry(policy_id=kind, kind=kind, params={"explore_rounds": 5000})
        cfg = ExperimentConfig(
            environment=EnvironmentSpec(kind="synthetic", distribution="uniform",
                                        dist_params={"a": 0.0, "b": 1.0}),
            policies=[entry], alpha=ALPHA, horizon=T, runs=1)
        cfg.validate()
        spec = cfg.policy_spec(entry, {})
        run = run_single(cfg, spec, seed=4)

        scores, _ = cfg.environment.build().draw(np.random.default_rng(4), T)
        ref = spec.build()
        expected = [reference_round(ref, s) for s in scores.tolist()]
        assert run.tau.tobytes() == np.array(expected).tobytes()
        assert run.tau[4999] == NEG_INF and math.isfinite(run.tau[5000])

    def test_aci_stretches_across_run_blocks(self):
        # on this seed ACI's budget is clamped across run_single's first
        # block edge (4096 rounds), and its clamped stretches end inside
        # blocks when the budget climbs back above 0
        entry = PolicyEntry(policy_id="aci", kind="aci", params={"gamma": 0.001})
        cfg = ExperimentConfig(
            environment=EnvironmentSpec(kind="synthetic", distribution="uniform",
                                        dist_params={"a": 0.0, "b": 1.0}),
            policies=[entry], alpha=ALPHA, horizon=T, runs=1)
        cfg.validate()
        spec = cfg.policy_spec(entry, {})
        run = run_single(cfg, spec, seed=3)

        scores, _ = cfg.environment.build().draw(np.random.default_rng(3), T)
        ref = spec.build()
        expected, betas = [], [ref.beta]
        for s in scores.tolist():
            expected.append(reference_round(ref, s))
            betas.append(ref.beta)
        assert run.tau.tobytes() == np.array(expected).tobytes()

        # betas[r] is the budget at the start of round r
        edge, floor = BLOCK_ROUNDS, -MIN_STRETCH * spec.gamma * (1.0 - ALPHA)
        assert betas[edge - MIN_STRETCH] <= floor and betas[edge] <= floor
        assert max(betas[edge - MIN_STRETCH:edge + 1]) <= 0.0

        def clamp_start(r):
            # first round of the clamp that round r ends, within r's block
            while r % edge and betas[r - 1] <= 0.0:
                r -= 1
            return r

        rises = [r for r in range(T) if betas[r] <= 0.0 < betas[r + 1]]
        assert any(r % edge and min(betas[clamp_start(r):r + 1]) <= floor for r in rises)

    def test_aci_moving_level_across_run_blocks(self):
        # on this seed ACI's budget hovers above 0 and never reaches the
        # stretch floor, so nearly every round is the scalar round with tau
        # at an order statistic whose index moves with beta and n
        entry = PolicyEntry(policy_id="aci", kind="aci", params={"gamma": 0.064})
        cfg = ExperimentConfig(
            environment=EnvironmentSpec(kind="synthetic", distribution="uniform",
                                        dist_params={"a": 0.0, "b": 1.0}),
            policies=[entry], alpha=ALPHA, horizon=T, runs=1)
        cfg.validate()
        spec = cfg.policy_spec(entry, {})
        run = run_single(cfg, spec, seed=34)

        scores, _ = cfg.environment.build().draw(np.random.default_rng(34), T)
        ref = spec.build()
        expected, betas = [], []
        for s in scores.tolist():
            expected.append(reference_round(ref, s))
            betas.append(ref.beta)
        assert run.tau.tobytes() == np.array(expected).tobytes()
        floor = -MIN_STRETCH * spec.gamma * (1.0 - ALPHA)
        assert np.mean(np.array(betas) > 0.0) > 0.5 and min(betas) > floor

    def test_aci_split_moves_scores_both_ways(self, monkeypatch):
        # `_split` lifts scores into the low part when tau's index passes
        # it, and hands them back to high when low outgrows its cap
        moved = []
        split = policies._split

        def recording(low, high, m):
            before = len(low)
            result = split(low, high, m)
            moved.append(len(low) - before)
            return result

        monkeypatch.setattr(policies, "_split", recording)
        rng = np.random.default_rng(34)
        scores = rng.random(3000).tolist()
        for i in rng.integers(0, 3000, 60).tolist():
            scores[i] = [math.inf, -0.0, 0.0][i % 3]
        spec = PolicySpec(kind="aci", alpha=ALPHA, horizon=T, gamma=0.064)
        assert_play_matches_reference(spec, scores, [700, 1300, 1000])
        assert any(d > 0 for d in moved) and any(d < 0 for d in moved)

    def test_aci_zero_that_ties_the_pivot_goes_after_earlier_zeros(self):
        # beta stays at 0 or just above it, so tau's index stays 0.  The
        # MIN_STRETCH + 1-th single insert splits the 67 scores, keeping
        # the 67 // 8 + 1 least in `low`: the nine -0.5, so the pivot is
        # the first 0.0 and every -0.0 played after it ties it; it must go
        # to `high`, after the zeros that came before it
        spec = PolicySpec(kind="aci", alpha=ALPHA, horizon=T, gamma=1e-6)

        def start():
            p = spec.build()
            p.observed_scores = [-0.5] * 9 + [0.0] * 25
            p.beta, p.tau = 0.0, -0.5
            return p

        ref, played = start(), start()
        scores = [0.7] * (MIN_STRETCH + 1) + [-0.0] * 8
        expected = [reference_round(ref, s) for s in scores]
        assert repr(played.play(np.array(scores)).tolist()) == repr(expected)
        assert state(played) == state(ref)

    @settings(max_examples=100, deadline=None)
    @given(aci_stretch_cases(),
           st.lists(st.sampled_from(["none", "read", "assign"]), min_size=9, max_size=9))
    def test_aci_split_kept_across_reads_and_assignments(self, case, actions):
        # the split of the observed scores is kept from block to block.
        # Before a chunk, `observed_scores` is left alone, read (which
        # merges the split into the list insort builds) or assigned a copy
        # of itself: tau and the final state are those of the run that
        # never reads it, and of the reference
        spec, scores, sizes = case
        ref, quiet, touched = spec.build(), spec.build(), spec.build()
        expected, quiet_taus, taus, start = [], [], [], 0
        for size, action in zip(sizes, actions):
            chunk = scores[start:start + size]
            if action == "read":
                assert repr(touched.observed_scores) == repr(ref.observed_scores)
            elif action == "assign":
                touched.observed_scores = list(touched.observed_scores)
            expected += [reference_round(ref, s) for s in chunk]
            quiet_taus += quiet.play(np.array(chunk, dtype=np.float64)).tolist()
            taus += touched.play(np.array(chunk, dtype=np.float64)).tolist()
            start += size
        assert repr(taus) == repr(quiet_taus) == repr(expected)
        assert state(touched) == state(quiet) == state(ref)

    def test_aci_clamped_stretch_sorts_only_scores_below_the_pivot(self):
        # a stretch that finds the observed scores unsplit splits them
        # first, keeping the least eighth sorted, so of the stretch's
        # covered scores only those below the pivot are sorted in and the
        # rest wait unsorted in the high part.  beta stays below 0 for the
        # whole block, one stretch
        spec = PolicySpec(kind="aci", alpha=ALPHA, horizon=T, gamma=0.001)
        rng = np.random.default_rng(5)
        observed = sorted(rng.random(800).tolist())
        scores = rng.random(BLOCK_ROUNDS)

        def start():
            p = spec.build()
            p.observed_scores = list(observed)
            p.beta, p.tau = -1.0, observed[0]
            return p

        ref, played = start(), start()
        expected = [reference_round(ref, s) for s in scores.tolist()]
        assert repr(played.play(scores).tolist()) == repr(expected)
        assert len(played._high) > 4 * len(played._low)
        assert state(played) == state(ref)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3000), st.data())
    def test_aci_index_is_order_index(self, n, data):
        # `play` inlines order_index: a miss moves beta and leaves n, and
        # tau is then the order statistic at order_index(n, max(beta, 0)),
        # here with beta near some k/n, within a few LEVEL_TOL of it, where
        # the walk decides the index
        k = data.draw(st.integers(0, n - 1))
        offset = data.draw(st.sampled_from([-LEVEL_TOL, 0.0, LEVEL_TOL])
                           | st.floats(-3 * LEVEL_TOL, 3 * LEVEL_TOL))
        p = PolicySpec(kind="aci", alpha=ALPHA, horizon=T, gamma=2.0**-30).build()
        missed_step = p.spec.gamma * ((1.0 - ALPHA) - 1.0)
        p.observed_scores = [float(i) for i in range(n)]
        p.beta = k / n + offset - missed_step
        p.play(np.array([math.nan]))
        assert abs(p.beta - k / n) <= 4 * LEVEL_TOL
        assert p.tau == order_index(n, max(p.beta, 0.0))


def large_horizon_scores(kind: str, horizon: int) -> np.ndarray:
    """U(0, 1) scores; the top of three Gaussian bids as the shipped
    auction config draws them (mu = 25, sigma = 8); U(0, 1) scores
    rising by 1 per 10**4 rounds, on which greedy's threshold rises too;
    or "tied": a handful of values, zeros of both signs among them, with
    one round in twenty a miss (NaN) after round 10**4, by when both
    policies' thresholds are finite, so that no miss records -inf."""
    rng = np.random.default_rng(horizon)
    if kind == "uniform":
        return rng.random(horizon)
    if kind == "rising":
        return rng.random(horizon) + np.arange(horizon) / 10**4
    if kind == "tied":
        scores = rng.choice([-0.0, 0.0, 0.25, 0.5, 0.75, 1.0], horizon)
        scores[10**4:][rng.random(horizon - 10**4) < 0.05] = math.nan
        return scores
    return rng.normal(25.0, 8.0, (horizon, 3)).max(axis=1)


def play_in_blocks(policy, scores: np.ndarray) -> np.ndarray:
    """`policy.play` over BLOCK_ROUNDS-round views of the score array, as
    `run_single` plays them."""
    return np.concatenate([policy.play(scores[start:start + BLOCK_ROUNDS])
                           for start in range(0, len(scores), BLOCK_ROUNDS)])


def assert_play_matches_update(kind: str, scores: np.ndarray) -> None:
    """`play` over BLOCK_ROUNDS-round blocks and `update` round by round
    propose the same thresholds and leave the same sample, bytes for
    bytes."""
    spec = PolicySpec(kind=kind, alpha=ALPHA, horizon=len(scores))
    played, stepped = spec.build(), spec.build()
    taus = play_in_blocks(played, scores)
    stepped_taus = []
    for s in scores.tolist():
        tau = stepped.tau
        stepped_taus.append(tau)
        stepped.update(s if s >= tau else None)
    assert taus.tobytes() == np.array(stepped_taus).tobytes()
    assert (np.array(played.ecdf.samples).tobytes()
            == np.array(stepped.ecdf.samples).tobytes())


def aci_demo_scores(gamma: float, horizon: int) -> np.ndarray:
    """The U(0, 1) scores of run 0 of ACI's grid point `gamma` in
    configs/uniform_demo.ini, as `run_batch` seeds it, at any horizon."""
    seed = derive_seed(0, "aci", f"gamma={gamma:g}", 0)
    return np.random.default_rng(seed).uniform(0.0, 1.0, horizon)


def assert_aci_play_matches_reference(gamma: float, scores: np.ndarray) -> None:
    """ACI's `play` over BLOCK_ROUNDS-round blocks and the per-round
    reference (`insort` and `sup_quantile`) propose the same thresholds,
    bytes for bytes, and leave the same observed scores, by repr."""
    spec = PolicySpec(kind="aci", alpha=ALPHA, horizon=len(scores), gamma=gamma)
    played, ref = spec.build(), spec.build()
    taus = play_in_blocks(played, scores)
    expected = [reference_round(ref, s) for s in scores.tolist()]
    assert taus.tobytes() == np.array(expected).tobytes()
    assert repr(played.observed_scores) == repr(ref.observed_scores)


class TestLargeHorizon:
    @pytest.mark.parametrize("scores", ["uniform", "auction", "rising", "tied"])
    @pytest.mark.parametrize("kind", ["sps", "greedy"])
    def test_play_matches_update(self, kind, scores):
        # 2 * 10**5 rounds: the far tier is refilled at sample sizes that
        # the golden digests never reach, by `play`'s far slices and by
        # `update`'s single inserts alike (greedy's threshold holds on
        # stationary scores, and rises on the rising ones); the tied
        # scores put ties of -0.0 and 0.0 and misses on the fence and tau
        assert_play_matches_update(kind, large_horizon_scores(scores, 2 * 10**5))

    @pytest.mark.parametrize("gamma", [0.001, 0.002])
    def test_aci_play_matches_reference(self, gamma):
        # uniform_demo's streams over five blocks: at gamma = 0.001 the
        # budget is clamped below 0 in most rounds, and at 0.002 it hovers
        # above 0, so the split of the observed scores is carried across
        # block edges both by stretches and by single inserts
        assert_aci_play_matches_reference(gamma, aci_demo_scores(gamma, 5 * BLOCK_ROUNDS))


def truncation_identity_taus(kind: str, scores: list[float], alpha: float = ALPHA) -> list[float]:
    """SPS's (kind "sps") or greedy's thresholds over a stream, from the
    untruncated scores and sharing no code with `TruncatedEcdf`.

    The truncation identity: played from round 1, tau never decreases, so
    the values recorded above tau_t are the scores above it, and as many
    recorded values as scores are <= tau_t, a NaN (a miss, recorded as
    tau) counted as -inf.  Hence tau_{t+1} = max(tau_t, Q_t), with Q_t
    the k_t-th smallest of s_1..s_t, k_t = order_index(t, 1 - alpha -
    eps_t) + 1 (eps_t = 0 for greedy), and Q_t = -inf where that level is
    below -LEVEL_TOL.  It holds only for a policy played from round 1: a
    tau assigned from outside may fall, and then the recorded values are
    no longer the scores.

    Each score is canonicalized by + 0.0, as `TruncatedEcdf` records it.
    A NaN while tau = -inf, which the policy would record as -inf and
    refuse, raises ValueError.
    """
    delta = 2.0 / len(scores) ** 2
    # a max-heap (negated) of the k smallest scores and a min-heap of the rest
    low: list[float] = []
    high: list[float] = []
    tau, taus = NEG_INF, []
    for t, score in enumerate(scores, start=1):
        taus.append(tau)
        if math.isnan(score):
            if tau == NEG_INF:
                raise ValueError(f"round {t}: a miss at tau = -inf records -inf")
            score = NEG_INF
        score += 0.0
        if low and score < -low[0]:
            heappush(low, -score)
        else:
            heappush(high, score)
        level = 1.0 - alpha - (band_epsilon(delta, t) if kind == "sps" else 0.0)
        if level < -LEVEL_TOL:
            continue
        k = order_index(t, level) + 1
        while len(low) < k:
            heappush(low, -heappop(high))
        while len(low) > k:
            heappush(high, -heappop(low))
        tau = max(tau, -low[0])
    return taus


def assert_play_matches_identity(kind: str, scores: np.ndarray) -> None:
    """`play` in blocks gives `truncation_identity_taus`, bytes for bytes."""
    played = play_in_blocks(PolicySpec(kind=kind, alpha=ALPHA, horizon=len(scores)).build(),
                            scores)
    assert (played.tobytes()
            == np.array(truncation_identity_taus(kind, scores.tolist())).tobytes())


# mostly a few values, so that the ECDF's tiers hold many ties; signed
# zeros and misses (NaN)
TIED_SCORE = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 0.75, 1.0, math.nan])
IDENTITY_SCORES = st.lists(st.one_of(TIED_SCORE, TIED_SCORE, TIED_SCORE, st.floats(-1, 1)),
                           min_size=2, max_size=300)


class TestTruncationIdentity:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["sps", "greedy"]), IDENTITY_SCORES,
           st.sampled_from([0.05, 0.5, 0.9, 0.97]) | st.floats(0.05, 0.97),
           st.sampled_from([1, 2, 64]), st.sampled_from([2, 16]))
    @example("sps", [0.75, 0.25, 0.25, 0.0, 0.5, 0.5, 0.75, 0.75, 0.75, 0.0], 0.05, 1, 2)
    def test_run_single_matches_the_identity(self, kind, scores, alpha, floor, share):
        # a small refill floor and share make short streams refill the
        # ECDF's high heap often, ties of the fence among the values (the
        # example fails a refill that loses the fence's ties)
        entry = PolicyEntry(policy_id=kind, kind=kind)
        cfg = ExperimentConfig(
            environment=EnvironmentSpec(kind="synthetic", distribution="uniform",
                                        dist_params={"a": 0.0, "b": 1.0}),
            policies=[entry], alpha=alpha, horizon=len(scores), runs=1)
        with mock.patch.object(SyntheticEnv, "draw", return_value=(np.array(scores), None)), \
                mock.patch.object(cdf_band, "REFILL_FLOOR", floor), \
                mock.patch.object(cdf_band, "REFILL_SHARE", share):
            try:
                expected = truncation_identity_taus(kind, scores, alpha)
            except ValueError:
                with pytest.raises(ValueError, match="finite"):
                    run_single(cfg, cfg.policy_spec(entry, {}), seed=0)
                return
            run = run_single(cfg, cfg.policy_spec(entry, {}), seed=0)
        assert run.tau.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("kind", ["sps", "greedy"])
    def test_large_horizon(self, kind):
        # a block edge and many raises, on the auction's top bids
        assert_play_matches_identity(kind, large_horizon_scores("auction", 3 * BLOCK_ROUNDS))
