import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semibandit_conformal import metrics
from semibandit_conformal.cdf_band import NEG_INF, POS_INF
from semibandit_conformal.environments import (EmpiricalDist, PointMixtureDist, SyntheticEnv,
                                               UniformDist)
from semibandit_conformal.metrics import (
    LossParams,
    coverage_rate,
    cum_regret,
    inst_regret,
    loss_phi,
    regret_bound,
    round12,
    undercoverage_count,
)
from semibandit_conformal.policies import PolicySpec

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


def reference_inst_regret(taus, tau_star, cdf, params=PARAMS) -> np.ndarray:
    """loss_phi and the f-string once per distinct threshold, as a column."""
    distinct, where = np.unique(np.asarray(taus, dtype=float), return_inverse=True)
    phi_star = loss_phi(tau_star, cdf, params)
    return np.array([float(f"{abs(phi_star - loss_phi(x, cdf, params)):.12g}")
                     for x in distinct.tolist()])[where]


# The scalar CDFs as they were before the column forms, as references.
def uniform_reference(a, b):
    def cdf(x):
        if x <= a:
            return 0.0
        if x >= b:
            return 1.0
        return (x - a) / (b - a)
    return cdf


def pointmix_reference(atoms, weights):
    pairs = sorted(zip(atoms, weights), key=lambda pair: pair[0])

    def cdf(x):
        cum = 0.0  # left to right, as `sum` adds on Python < 3.12
        for a, w in pairs:
            if a <= x:
                cum += w
        return cum
    return cdf


def empirical_reference(values):
    def cdf(x):
        return sum(v <= x for v in values) / len(values)
    return cdf


def near(values):
    """Each value and its float neighbours."""
    return [y for v in values for y in (math.nextafter(v, -math.inf), v,
                                         math.nextafter(v, math.inf))]


FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestColumnRegret:
    """The column path of `inst_regret` against loss_phi per distinct tau."""

    def check(self, dist, reference, taus, alpha):
        params = LossParams(alpha=alpha)
        tau_star = dist.sup_quantile(1.0 - alpha)
        got = inst_regret(np.array(taus), tau_star, dist, params)
        want = reference_inst_regret(taus, tau_star, reference, params)
        assert got.tobytes() == want.tobytes()
        assert [dist.cdf(x) for x in taus] == [reference(x) for x in taus]
        assert dist.cdf_column(np.array(taus)).tolist() == [reference(x) for x in taus]

    @settings(max_examples=150, deadline=None)
    @given(FINITE, st.floats(1e-6, 1e3), st.lists(FINITE, max_size=20),
           st.sampled_from([0.5, 0.8, 0.9, 0.95]))
    def test_uniform(self, a, width, extra, alpha):
        b = a + width
        taus = near([a, b, a + width / 2]) + [NEG_INF, POS_INF, -0.0, 0.0] + extra
        self.check(UniformDist(a, b), uniform_reference(a, b), taus, alpha)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from([-1.0, 0.0, 0.1, 0.25, 0.3, 2.5]), min_size=1, max_size=10),
           st.booleans(), st.lists(FINITE, max_size=10), st.sampled_from([0.5, 0.9]),
           st.randoms(use_true_random=False))
    def test_pointmix(self, atoms, tenths, extra, alpha, rnd):
        # duplicate atoms; ten weights of 0.1, or random ones
        if tenths:
            atoms = (atoms * 10)[:10]
            weights = [0.1] * 10
        else:
            raw = [rnd.random() + 0.01 for _ in atoms]
            weights = [w / sum(raw) for w in raw]
        taus = near(atoms) + [NEG_INF, POS_INF] + extra
        self.check(PointMixtureDist(atoms, weights), pointmix_reference(atoms, weights),
                   taus, alpha)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0.2, 0.5, 0.5, 1.0]), FINITE),
                    min_size=1, max_size=30),
           st.lists(FINITE, max_size=10), st.sampled_from([0.5, 0.9]))
    def test_empirical(self, values, extra, alpha):
        taus = near(values) + [NEG_INF, POS_INF] + extra
        self.check(EmpiricalDist(values), empirical_reference(values), taus, alpha)

    def test_uniform_dlr_column_calls_loss_phi_once(self, monkeypatch):
        # a new threshold nearly every round; a silent fall back to the
        # per-threshold loop would call loss_phi 10^4 times
        env = SyntheticEnv(UniformDist(0.0, 1.0))
        policy = PolicySpec(kind="dlr", alpha=0.9, horizon=10_000, tau_init=0.0).build()
        scores, _ = env.draw(np.random.default_rng(0), 10_000)
        taus = policy.play(scores)
        assert len(np.unique(taus)) > 9000
        tau_star = env.oracle_tau_star(0.9)
        want = reference_inst_regret(taus, tau_star, uniform_reference(0.0, 1.0))
        calls = []
        phi = metrics.loss_phi
        monkeypatch.setattr(metrics, "loss_phi", lambda *a: calls.append(1) or phi(*a))
        got = inst_regret(taus, tau_star, env.oracle_cdf(), PARAMS)
        assert got.tobytes() == want.tobytes()
        assert len(calls) <= 2


# 12 significant digits, in the decades from 1e-30 to 1e15
DECADES = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-30, 15))
ROUNDING_VALUES = st.one_of(
    DECADES,
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 1e-300),     # subnormals and the smallest normals
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-11, 1e-12,
                     5e-12, 1.5e-3, 0.5, 2.5, 1e11, 1e12, 1e13, 99999999999.5,
                     999999999999.5, 0.09999999999999999, 9.9999999999995,
                     9.99999999999949, 123456789012.5]),
)


class TestRound12:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(ROUNDING_VALUES, max_size=40))
    def test_matches_f_string(self, values):
        want = np.array([float(f"{v:.12g}") for v in values], dtype=float)
        assert round12(np.array(values, dtype=float)).tobytes() == want.tobytes()

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(-30, 15))
    def test_decade_matches_f_string(self, seed, exponent):
        values = np.random.default_rng(seed).random(2000) * 10.0**exponent
        want = np.array([float(f"{v:.12g}") for v in values.tolist()])
        assert round12(values).tobytes() == want.tobytes()

    def test_zeros_keep_their_sign(self):
        assert round12(np.array([0.0, -0.0])).tobytes() == np.array([0.0, -0.0]).tobytes()


def scalar_cum_regret(inst) -> np.ndarray:
    """Reference fold: round the running sum at 12 digits every round."""
    fold = accumulate(np.asarray(inst, dtype=float).tolist(),
                      lambda c, x: float(f"{c + x:.12g}"))
    return np.fromiter(fold, dtype=float, count=len(inst))


# 12-digit values from 1e-15 to 1e4, log-uniform over the decades
DIGITS12 = st.builds(lambda m, e: float(f"{m * 10.0**e:.12g}"),
                     st.floats(1.0, 9.999), st.integers(-15, 3))
STRETCH_VALUES = st.one_of(
    DIGITS12,
    st.just(0.0),
    # x/u exactly on a half unit for sums in some decade
    st.sampled_from([5e-12, 1.5e-11, 5e-13, 2.5e-10, 5e-6, 1.5e-3, 0.5]),
    # not 12-digit rounded
    st.floats(1e-15, 1e4),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, -1e-3]),
)
FIRST_VALUES = st.one_of(
    DIGITS12, st.floats(0.0, 1e4),
    # just below a decade edge, so the next stretch crosses it
    st.sampled_from([9.9, 9.99999999999, 0.0999999, 99.9999999]),
)

# kinds of `varying_column`
VARYING_KINDS = ["digits12", "digits3", "unrounded", "few", "specials", "ties", "zeros"]


def varying_column(seed: int, n: int, kind: str, exponent: int) -> np.ndarray:
    """A regret column with a new value nearly every round, as DLR's and
    ACI's have, of values about 10**exponent; 3-digit values are exact
    half units in many decades."""
    rng = np.random.default_rng(seed)
    values = rng.random(n) * 10.0**exponent
    if kind in ("digits12", "specials", "zeros"):
        values = np.array([float(f"{v:.12g}") for v in values])
    elif kind == "digits3":
        values = np.array([float(f"{v:.3g}") for v in values])
    elif kind == "few":
        values = rng.choice([float(f"{v:.12g}") for v in values[:4]] + [0.0], n)
    elif kind == "ties":
        # from 10**exponent every step is a half unit of its decade's grid
        values = (rng.integers(0, 1000, n) + 0.5) * 10.0**(exponent - 11)
        values[0] = 10.0**exponent
    if kind == "specials":
        values[rng.integers(0, n, 3)] = rng.choice(
            [math.nan, math.inf, -math.inf, -0.0, -1e-3, 1e13], 3)
    elif kind == "zeros":
        # a leading run of zeros of either sign, and zeros strewn after it
        values[:rng.integers(1, n + 1)] = 0.0
        values[rng.integers(0, n, n // 4)] = rng.choice([0.0, -0.0], n // 4)
    return values


def fold_in_pieces(inst, cuts) -> np.ndarray:
    """`cum_regret` of inst split before each index of `cuts` (sorted, empty
    pieces allowed), each piece folded from the last sum of those before."""
    inst = np.asarray(inst, dtype=float)
    pieces, before = [], None
    for lo, hi in zip([0, *cuts], [*cuts, len(inst)]):
        pieces.append(cum_regret(inst[lo:hi], before))
        if hi > lo:
            before = float(pieces[-1][-1])
    return np.concatenate(pieces)


class TestCumRegret:
    def test_sequential_fold_at_12_digits(self):
        inst = [0.1, 0.2, 1e-13, 0.3] * 50
        cum, want = 0.0, []
        for x in inst:
            cum = float(f"{cum + x:.12g}")
            want.append(cum)
        assert cum_regret(np.array(inst)).tolist() == want

    @settings(max_examples=150, deadline=None)
    @given(FIRST_VALUES,
           st.lists(st.tuples(STRETCH_VALUES, st.integers(1, 400)), max_size=8))
    def test_stretch_fold_matches_scalar_fold(self, first, stretches):
        inst = np.array([first] + [x for x, length in stretches for _ in range(length)])
        assert cum_regret(inst).tobytes() == scalar_cum_regret(inst).tobytes()

    @pytest.mark.parametrize("inst", [
        [9.99] + [1e-4] * 500,              # crosses 10 mid-stretch
        [0.0999999] + [1e-9] * 300,         # crosses 0.1 after 100 steps
        [1.0] + [5e-12] * 50,               # every step is a half-unit tie
        [1.0] + [1.5e-11] * 50,
        # 621.5 units of 1e-11: the scalar fold adds 621 units 364 times
        # and 622 units 1636 times, so a tie's rounding is not one per decade
        [1.0] + [6.215e-09] * 2000,
        [0.1 + 0.2] + [0.3] * 50,           # first element not 12-digit rounded
        [1e-13] + [1e-13] * 300,            # sums below 1e-11 take scalar steps
        [0.0] * 40 + [2.0] * 40 + [0.0] * 40,
        [], [0.7], [math.nan] * 20, [math.inf] + [1.0] * 20,
        # c on the last unit of its decade: the grid run writes no step,
        # and the step out of the decade is scalar
        [9.99999999999] + [1e-11] * 100,
        [0.999999999999] + [1e-12] * 50,
    ])
    def test_edge_cases_match_scalar_fold(self, inst):
        assert cum_regret(inst).tobytes() == scalar_cum_regret(inst).tobytes()

    def test_constant_stretch_skips_scalar_steps(self, monkeypatch):
        calls = []
        step = metrics._step
        monkeypatch.setattr(metrics, "_step", lambda c, x: calls.append(1) or step(c, x))
        inst = np.repeat([0.0123, 0.000456, 0.0], 10000)
        assert cum_regret(inst).tobytes() == scalar_cum_regret(inst).tobytes()
        assert len(calls) < 20

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3000), st.sampled_from(VARYING_KINDS),
           st.integers(-14, 3))
    def test_varying_column_matches_scalar_fold(self, seed, n, kind, exponent):
        values = varying_column(seed, n, kind, exponent)
        assert cum_regret(values).tobytes() == scalar_cum_regret(values).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3000), st.sampled_from(VARYING_KINDS),
           st.integers(-14, 3), st.lists(st.integers(0, 3000), max_size=6))
    def test_fold_in_pieces_matches_whole_fold(self, seed, n, kind, exponent, cuts):
        values = varying_column(seed, n, kind, exponent)
        whole = cum_regret(values)
        # forced: a step inside the leading run of zeros and its end, and
        # every step that leaves a decade; in "ties" the steps are half
        # units wherever c has a grid
        nonzero = values != 0.0
        zeros = int(nonzero.argmax()) if nonzero.any() else n
        with np.errstate(divide="ignore", invalid="ignore"):
            decade = np.floor(np.log10(np.abs(whole)))
        edges = np.flatnonzero(np.isfinite(decade[1:]) & np.isfinite(decade[:-1])
                               & (decade[1:] != decade[:-1])) + 1
        cuts = sorted({min(cut, n) for cut in cuts} | {zeros // 2, zeros} | set(edges.tolist()))
        assert fold_in_pieces(values, cuts).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("inst, cuts", [
        # inside a leading run of zeros of either sign, and at its end
        ([0.0] * 10 + [-0.0] * 5 + [0.0123] * 50, [3, 10, 12, 15, 16]),
        ([-0.0] * 10 + [0.0] * 5 + [1e-13] * 50, [1, 5, 10, 11, 15]),
        ([-0.0] * 20, [1, 7, 19]),
        ([-0.0] * 5 + [math.nan, 1.0], [2, 5, 6]),
        # on half-unit ties: from 1.0, 6.215e-09 adds 621 or 622 units by
        # the running sum, and 5e-12 is a tie at every step
        ([1.0] + [6.215e-09] * 2000, [1, 2, 3, 365, 366, 1000, 1999]),
        ([1.0] + [5e-12] * 50, [1, 2, 25]),
        # at a decade edge: both sums reach the next decade at step 100
        ([9.99] + [1e-4] * 500, [99, 100, 101]),
        ([0.0999999] + [1e-9] * 300, [100, 101, 102]),
        # c on the last unit of its decade
        ([9.99999999999] + [1e-11] * 100, [1, 2]),
        # sums that rule the grid out
        ([math.inf] + [1.0] * 20, [1, 10]),
        ([1.0, math.nan, 2.0, -math.inf], [1, 2, 3]),
    ])
    def test_forced_splits_match_whole_fold(self, inst, cuts):
        inst = np.array(inst)
        whole = cum_regret(inst)
        assert whole.tobytes() == scalar_cum_regret(inst).tobytes()
        assert fold_in_pieces(inst, cuts).tobytes() == whole.tobytes()

    @staticmethod
    def _count_runs(monkeypatch):
        # (grid runs taken, scalar steps taken)
        runs, steps = [], []
        grid_run, step = metrics._grid_run, metrics._step
        monkeypatch.setattr(metrics, "_grid_run",
                            lambda *a: runs.append(1) or grid_run(*a))
        monkeypatch.setattr(metrics, "_step",
                            lambda c, x: steps.append(1) or step(c, x))
        return runs, steps

    @pytest.mark.parametrize("x", [0.0123, 0.000456, 7.0, 3e-9, 0.5])
    def test_constant_column_takes_the_closed_form(self, monkeypatch, x):
        # the closed form is the grid run's integer prefix sum: the only
        # scalar steps are those that leave a decade, and each decade
        # takes a grid run or two as the windows grow
        runs, steps = self._count_runs(monkeypatch)
        inst = np.full(10_000, x)
        assert cum_regret(inst).tobytes() == scalar_cum_regret(inst).tobytes()
        decades = math.floor(math.log10(x * len(inst))) - math.floor(math.log10(x)) + 1
        assert len(steps) == decades - 1
        assert len(runs) <= 2 * decades

    def test_constant_stretches_take_the_closed_form(self, monkeypatch):
        runs, steps = self._count_runs(monkeypatch)
        inst = np.repeat([0.0123, 0.000456, 0.0, 2.0], [10_000, 3000, 500, 20_000])
        assert cum_regret(inst).tobytes() == scalar_cum_regret(inst).tobytes()
        # a change of value inside a window costs no scalar step
        assert len(runs) <= 16
        assert len(steps) <= 6

    def test_varying_column_skips_scalar_steps(self, monkeypatch):
        # the steps left to `_step` are the first round's, those that leave
        # a decade and the half-unit ties
        calls = []
        step = metrics._step
        monkeypatch.setattr(metrics, "_step", lambda c, x: calls.append(1) or step(c, x))
        rng = np.random.default_rng(0)
        inst = np.array([float(f"{v:.12g}") for v in rng.random(10000) * 0.01])
        assert cum_regret(inst).tobytes() == scalar_cum_regret(inst).tobytes()
        assert len(calls) < 100

    def test_zero_column_skips_scalar_steps(self, monkeypatch):
        # c = 0 has no grid, so each grid run stops at once; the leading
        # zeros are one running sum, not a scalar step per round
        calls = []
        step = metrics._step
        monkeypatch.setattr(metrics, "_step", lambda c, x: calls.append(1) or step(c, x))
        inst = np.zeros(10_000)
        assert cum_regret(inst).tobytes() == scalar_cum_regret(inst).tobytes()
        assert len(calls) < 100

    @pytest.mark.parametrize("zeros", [
        [0.0] * 300, [-0.0] * 300, [-0.0, 0.0] * 150, [0.0, -0.0] * 150,
        [-0.0] * 299 + [0.0], [0.0] + [-0.0] * 299, [-0.0],
    ])
    @pytest.mark.parametrize("then", [[], [0.0123] * 200, [math.nan, 1.0], [-0.0, 5e-12]])
    def test_leading_zeros_match_scalar_fold(self, zeros, then):
        inst = np.array(zeros + then)
        assert cum_regret(inst).tobytes() == scalar_cum_regret(inst).tobytes()


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
