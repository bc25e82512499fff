import math
from fractions import Fraction
from heapq import heappush
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semibandit_conformal import cdf_band
from semibandit_conformal.cdf_band import (
    LEVEL_TOL,
    NEG_INF,
    POS_INF,
    TruncatedEcdf,
    band_epsilon,
    order_index,
    order_index_column,
    sup_quantile,
)


def brute_force_cutoff(samples, level):
    """Independent oracle for sup{tau : ecdf(tau) <= level}.

    Evaluates the ECDF by direct counting and scans candidate points
    (sample values plus midpoints, in ascending order) for the first one
    where the ECDF exceeds the level; that boundary point is the sup.
    Boundary ties are admitted with the same 1e-9 slack the library uses,
    so decimal-stated levels behave as written.
    """
    xs = sorted(samples)
    n = len(xs)
    tol = 1e-9

    def ecdf(tau):
        return sum(1 for v in xs if v <= tau) / n

    candidates = []
    for i, x in enumerate(xs):
        if i > 0 and xs[i - 1] < x:
            candidates.append((xs[i - 1] + x) / 2.0)
        candidates.append(x)
    below = xs[0] - 1.0
    if ecdf(below) > level + tol:  # only possible for level < 0
        return NEG_INF
    for c in candidates:
        if ecdf(c) > level + tol:
            return c
    return POS_INF


def ecdf_with_cutoff(values, horizon=10000):
    e = TruncatedEcdf(horizon)
    for v in values:
        e.insert(v)
    return e


class TestBandEpsilon:
    def test_formula_at_t1000_horizon_10000(self):
        # delta = 2e-8, so epsilon = sqrt(ln(1e8)/2000)
        eps = band_epsilon(2.0 / 10000**2, 1000)
        assert eps == pytest.approx(0.0959705, abs=1e-6)

    def test_t1_exceeds_one(self):
        eps = band_epsilon(2.0 / 10000**2, 1)
        assert eps == pytest.approx(3.03486, abs=1e-4)
        assert eps > 1.0

    def test_strictly_decreasing_in_t(self):
        e = TruncatedEcdf(500)
        eps = []
        for _ in range(1, 200):
            e.insert(0.5)
            eps.append(e.epsilon())
        assert all(a > b for a, b in zip(eps, eps[1:]))

    @pytest.mark.parametrize("horizon", [2, 3, 10, 10**3, 10**4, 10**5, 10**6, 12345])
    def test_hoisted_constant_is_bit_identical(self, horizon):
        # TruncatedEcdf keeps log(2/delta)/2; the reference divides by 2t each time
        counts = set(range(1, min(horizon, 5000) + 1)) | set(range(max(1, horizon - 99), horizon + 1))
        e = TruncatedEcdf(horizon)
        for t in range(1, max(counts) + 1):
            e.insert(0.5)
            if t in counts:
                assert e.epsilon() == band_epsilon(2.0 / horizon**2, t)

    @given(st.integers(min_value=2, max_value=10**9), st.integers(min_value=1, max_value=50))
    def test_hoisted_constant_any_horizon(self, horizon, n):
        e = TruncatedEcdf(horizon)
        for t in range(1, n + 1):
            e.insert(0.5)
            assert e.epsilon() == band_epsilon(2.0 / horizon**2, t)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            band_epsilon(0.0, 10)
        with pytest.raises(ValueError):
            band_epsilon(1.5, 10)
        with pytest.raises(ValueError):
            band_epsilon(0.1, 0)
        with pytest.raises(ValueError):
            TruncatedEcdf(1)


class TestInsert:
    def test_singleton(self):
        e = TruncatedEcdf(100)
        e.insert(0.5)
        assert e.count == 1
        assert e.samples == [0.5]

    def test_order_maintained(self):
        e = ecdf_with_cutoff([0.2, 0.7])
        e.insert(0.5)
        assert e.samples == [0.2, 0.5, 0.7]

    def test_miss_substitution_yields_truncated_multiset(self):
        # raw scores {1, 2, 3} where the round scoring 1 missed at tau=2
        e = TruncatedEcdf(100)
        for raw, tau in ((1.0, 2.0), (2.0, NEG_INF), (3.0, NEG_INF)):
            e.insert(max(raw, tau) if raw < tau else raw)
        assert e.samples == [2.0, 2.0, 3.0]

    @pytest.mark.parametrize("bad", [float("nan"), POS_INF, NEG_INF])
    def test_rejects_non_finite(self, bad):
        e = TruncatedEcdf(100)
        with pytest.raises(ValueError):
            e.insert(bad)

    def test_duplicates_permitted(self):
        e = ecdf_with_cutoff([1.0, 1.0, 1.0])
        assert e.count == 3


class TestEvalG:
    def test_below_all_samples(self):
        assert ecdf_with_cutoff([2.0, 2.0, 3.0]).eval_g(1.9) == 0.0

    def test_at_duplicate_step(self):
        assert ecdf_with_cutoff([2.0, 2.0, 3.0]).eval_g(2.0) == pytest.approx(2 / 3)

    def test_saturates_above_max(self):
        assert ecdf_with_cutoff([2.0, 2.0, 3.0]).eval_g(3.5) == 1.0

    def test_empty_query_rejected(self):
        e = TruncatedEcdf(100)
        with pytest.raises(ValueError):
            e.eval_g(0.5)
        with pytest.raises(ValueError):
            e.eval_upper(0.5)
        with pytest.raises(ValueError):
            e.conformal_cutoff(0.9)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40),
           st.floats(-150, 150))
    def test_step_heights_are_multiples_of_one_over_t(self, values, tau):
        e = ecdf_with_cutoff(values)
        g = e.eval_g(tau)
        assert (g * e.count) == pytest.approx(round(g * e.count), abs=1e-9)
        assert 0.0 <= g <= 1.0

    def test_right_continuity_at_steps(self):
        e = ecdf_with_cutoff([1.0, 2.0, 3.0])
        assert e.eval_g(2.0) == e.eval_g(2.0 + 1e-12)
        assert e.eval_g(2.0) > e.eval_g(2.0 - 1e-12)

    def test_nan_is_above_no_value(self):
        # no value is <= NaN, with top -inf, finite, or after a rank query
        e = ecdf_with_cutoff([1.0, 2.0, 3.0], horizon=10000)
        for _ in range(2):
            assert e.count_at_most(math.nan) == 0
            assert e.eval_g(math.nan) == 0.0
            assert e.eval_upper(math.nan) == e.epsilon()
            e.samples
            e.conformal_cutoff(0.5, epsilon=0.0)
        assert e.top == 2.0


class TestEvalUpper:
    def test_definitional_identity(self):
        e = ecdf_with_cutoff([0.1, 0.4, 0.9], horizon=10000)
        for tau in (-1.0, 0.1, 0.3, 0.4, 0.9, 2.0):
            assert e.eval_upper(tau) == e.eval_g(tau) + e.epsilon()

    def test_may_exceed_one(self):
        e = ecdf_with_cutoff([0.5], horizon=10000)
        assert e.eval_upper(1.0) > 1.0


class TestConformalCutoff:
    def test_injected_epsilon_hundred_samples(self):
        # level = 1 - 0.9 - 0.0833 = 0.0167, m = 1, cutoff = 2nd order stat
        e = ecdf_with_cutoff([j / 100 for j in range(1, 101)])
        cut = e.conformal_cutoff(0.9, epsilon=0.0833)
        assert cut == 0.02
        assert cut == brute_force_cutoff(e.samples, 1 - 0.9 - 0.0833)

    def test_injected_epsilon_ten_samples(self):
        e = ecdf_with_cutoff([j / 10 for j in range(1, 11)])
        cut = e.conformal_cutoff(0.9, epsilon=0.05)
        assert cut == 0.1
        assert cut == brute_force_cutoff(e.samples, 1 - 0.9 - 0.05)

    def test_band_wider_than_budget_gives_no_finite_cutoff(self):
        e = ecdf_with_cutoff([0.5], horizon=10000)
        assert e.conformal_cutoff(0.9) == NEG_INF

    def test_zero_epsilon_is_classical_empirical_quantile(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            values = rng.normal(size=int(rng.integers(1, 40))).tolist()
            e = ecdf_with_cutoff(values)
            alpha = float(rng.uniform(0.05, 0.95))
            assert e.conformal_cutoff(alpha, epsilon=0.0) == \
                brute_force_cutoff(values, 1 - alpha)

    def test_rejects_bad_alpha_and_epsilon(self):
        e = ecdf_with_cutoff([0.5])
        for alpha in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                e.conformal_cutoff(alpha)
        for eps in (-0.01, math.nan):
            with pytest.raises(ValueError, match="epsilon must be >= 0"):
                e.conformal_cutoff(0.9, epsilon=eps)
        with pytest.raises(ValueError, match="rounds to 1"):
            e.conformal_cutoff(1e-17, epsilon=0.0)  # level 1 - 1e-17 == 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=50),
        st.floats(0.5, 0.99),
        st.floats(0.0, 0.6),
    )
    def test_matches_brute_force_sup(self, values, alpha, eps):
        e = ecdf_with_cutoff(values)
        assert e.conformal_cutoff(alpha, epsilon=eps) == \
            brute_force_cutoff(values, 1 - alpha - eps)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=30),
           st.floats(0.5, 0.95))
    def test_nonincreasing_in_epsilon(self, values, alpha):
        e = ecdf_with_cutoff(values)
        cuts = [e.conformal_cutoff(alpha, epsilon=eps)
                for eps in (0.0, 0.02, 0.1, 0.3, 0.6)]
        assert all(a >= b for a, b in zip(cuts, cuts[1:]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=30))
    def test_nondecreasing_as_alpha_decreases(self, values):
        e = ecdf_with_cutoff(values)
        cuts = [e.conformal_cutoff(alpha, epsilon=0.01)
                for alpha in (0.95, 0.8, 0.6, 0.51)]
        assert all(b >= a for a, b in zip(cuts, cuts[1:]))


def sorted_reference(values, alpha, eps):
    """The cutoff recomputed from scratch: sup-quantile of the sorted sample."""
    return sup_quantile(sorted(v + 0.0 for v in values), 1 - alpha - eps)


TIED = st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.25, 1.0])
ALPHAS = st.floats(0.01, 0.99)
EPSILONS = st.floats(0.0, 0.6)


class TestHeapCutoffMatchesSortedReference:
    """The two-heap cutoff against sup_quantile on the sorted sample, per insert."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(TIED, st.floats(-2, 2)), min_size=1, max_size=80),
           ALPHAS, EPSILONS)
    def test_heavy_ties_and_signed_zeros(self, values, alpha, eps):
        e = TruncatedEcdf(10000)
        for i, v in enumerate(values, start=1):
            e.insert(v)
            cut = e.conformal_cutoff(alpha, epsilon=eps)
            assert repr(cut) == repr(sorted_reference(values[:i], alpha, eps))

    def test_negative_zero_is_recorded_as_zero(self):
        e = ecdf_with_cutoff([-0.0, 0.0, -0.0])
        assert repr(e.conformal_cutoff(0.5, epsilon=0.0)) == "0.0"
        assert [repr(v) for v in e.samples] == ["0.0"] * 3

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(TIED, st.floats(0, 1)), min_size=2, max_size=120),
           st.floats(0.05, 0.6), st.integers(2, 200), st.booleans())
    def test_sps_truncated_sequences(self, scores, alpha, horizon, dkw):
        # the banded policy loop: a miss records the current threshold
        e = TruncatedEcdf(horizon)
        tau = NEG_INF
        recorded = []
        for s in scores:
            recorded.append(s if s >= tau else tau)
            e.insert(recorded[-1])
            eps = e.epsilon() if dkw else 0.0
            cut = e.conformal_cutoff(alpha) if dkw else e.conformal_cutoff(alpha, epsilon=0.0)
            assert repr(cut) == repr(sorted_reference(recorded, alpha, eps))
            tau = max(tau, cut)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(TIED, st.floats(-5, 5)), min_size=1, max_size=60),
           st.lists(st.tuples(ALPHAS, EPSILONS), min_size=2, max_size=6))
    def test_levels_moving_up_and_down(self, values, queries):
        # each round asks every query forwards then backwards, so the split
        # point moves both ways between rounds and within one
        e = TruncatedEcdf(10000)
        for i, v in enumerate(values, start=1):
            e.insert(v)
            for alpha, eps in queries + queries[::-1]:
                cut = e.conformal_cutoff(alpha, epsilon=eps)
                assert repr(cut) == repr(sorted_reference(values[:i], alpha, eps))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("insert"), st.one_of(TIED, st.floats(-3, 3))),
        st.tuples(st.just("eval_g"), st.floats(-4, 4)),
        st.tuples(st.just("samples"), st.none()),
        st.tuples(st.just("cutoff"), ALPHAS),
    ), max_size=80))
    def test_rank_queries_interleaved_with_inserts(self, ops):
        e = TruncatedEcdf(10000)
        values = []
        for op, arg in ops:
            if op == "insert":
                e.insert(arg)
                values.append(arg + 0.0)
            elif not values:
                continue
            elif op == "eval_g":
                assert e.eval_g(arg) == sum(1 for v in values if v <= arg) / len(values)
            elif op == "samples":
                assert [repr(v) for v in e.samples] == [repr(v) for v in sorted(values)]
            else:
                cut = e.conformal_cutoff(arg, epsilon=0.0)
                assert repr(cut) == repr(sorted_reference(values, arg, 0.0))
        assert e.count == len(values)


class TestSupQuantile:
    def test_sentinels(self):
        assert sup_quantile([1.0, 2.0], -0.1) == NEG_INF
        assert sup_quantile([1.0, 2.0], 1.0) == POS_INF
        with pytest.raises(ValueError):
            sup_quantile([], 0.5)

    def test_level_zero_is_min(self):
        assert sup_quantile([3.0, 1.0, 2.0][::-1] and [1.0, 2.0, 3.0], 0.0) == 1.0

    def test_order_index_bounds(self):
        assert order_index(1, 0.0) == 0
        assert order_index(10, 0.0999999) == 0
        assert order_index(10, 0.1) == 1  # boundary tie admitted
        assert order_index(10, 1 - 0.9) == 1  # 1 - 0.9 < 0.1 in binary
        assert order_index(10, 0.999) == 9

    @staticmethod
    def floor_form_order_index(n, level):
        """Reference: the start clamped with floor/min/max, then adjusted."""
        m = min(max(int(math.floor(n * level)), 0), n - 1)
        while m + 1 < n and (m + 1) / n <= level + LEVEL_TOL:
            m += 1
        while m > 0 and m / n > level + LEVEL_TOL:
            m -= 1
        return m

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10**7), st.data())
    def test_order_index_matches_floor_form(self, n, data):
        k = data.draw(st.integers(0, n))
        levels = [data.draw(st.floats(-LEVEL_TOL, 1.0, exclude_max=True)), -LEVEL_TOL]
        for base in (k / n, k / n - LEVEL_TOL, k / n + LEVEL_TOL):
            levels += [base, math.nextafter(base, -math.inf), math.nextafter(base, math.inf)]
        for level in levels:
            if -LEVEL_TOL <= level < 1.0:
                assert order_index(n, level) == self.floor_form_order_index(n, level)

    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 2**53 - 1), st.data())
    def test_start_needs_no_move_down(self, n, data):
        # `order_index` and its column keep no loop that moves the start
        # down: in exact arithmetic the start is already within the bound,
        # and so is the float comparison a down-loop would make
        k = data.draw(st.integers(0, n))
        levels = [data.draw(st.floats(-LEVEL_TOL, 1.0, exclude_max=True)), -LEVEL_TOL,
                  math.nextafter(1.0, 0.0)]
        for base in (k / n, k / n - LEVEL_TOL, k / n + LEVEL_TOL):
            levels += [base, math.nextafter(base, -math.inf), math.nextafter(base, math.inf)]
        for level in levels:
            if -LEVEL_TOL <= level < 1.0:
                m = min(max(int(n * level), 0), n - 1)
                assert Fraction(m, n) <= Fraction(level) + Fraction(LEVEL_TOL)
                assert not m / n > level + LEVEL_TOL

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 10**7), st.integers(1, 200), st.floats(0.01, 0.99))
    def test_cutoff_band_width_is_epsilon(self, horizon, n, alpha):
        e = TruncatedEcdf(horizon)
        for i in range(n):
            e.insert(i / n)
        eps = e.epsilon()
        assert eps == band_epsilon(2.0 / horizon**2, n)
        with mock.patch.object(cdf_band, "order_index", wraps=order_index) as index:
            e.conformal_cutoff(alpha)
        # the level the cutoff queried carries epsilon() bit for bit
        if index.called:
            assert index.call_args.args == (n, 1.0 - alpha - eps)
        else:
            assert 1.0 - alpha - eps < -LEVEL_TOL


class TestOrderIndexColumn:
    N = 10**5

    @pytest.mark.parametrize("level", [0.1, 1 - 0.9, 1 / 3])
    def test_every_n_at_a_scalar_level(self, level):
        n = np.arange(1, self.N + 1)
        column = order_index_column(n, level)
        assert column.tolist() == [order_index(k, level) for k in range(1, self.N + 1)]

    @pytest.mark.parametrize("offset", [-1e-10, 1e-10])
    def test_every_n_at_its_own_level(self, offset):
        # k/n +- 1e-10 sits inside LEVEL_TOL of a tie, where the
        # adjustment loops decide the index
        n = np.arange(1, self.N + 1)
        k = np.random.default_rng(7).integers(0, n)
        levels = k / n + offset
        column = order_index_column(n, levels)
        assert column.tolist() == [order_index(size, level) for size, level
                                   in zip(n.tolist(), levels.tolist())]


def insert_each(e, values):
    """The reference for `extend`: record one value at a time, written out
    apart from it, so a fault in `extend`'s tier rules shows here."""
    for v in values:
        value = float(v) + 0.0
        if not math.isfinite(value):
            raise ValueError(f"recorded score must be finite, got {value}")
        if value > e._fence:
            e._far_values.append(value)
        elif value > e._top:
            heappush(e._high, value)
        elif value < e._top:
            e._pile.append(value)
        else:
            e._ties += 1
        e._count += 1


def far_tier(e):
    """The values of the far tier, in no order."""
    return e._far_values + [v for a in e._far for v in a.tolist()]


# values that tie, zeros of both signs, and the non-finite ones `insert`
# rejects
EXTEND_VALUES = st.one_of(TIED, st.floats(-2, 2),
                          st.sampled_from([math.nan, POS_INF, NEG_INF]))


class TestExtend:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(TIED, st.floats(-2, 2)), max_size=40),
           st.lists(st.lists(EXTEND_VALUES, max_size=40), min_size=1, max_size=4),
           st.lists(st.tuples(ALPHAS, EPSILONS), min_size=1, max_size=3),
           st.booleans())
    def test_matches_repeated_insert(self, before, batches, queries, ranked):
        # a sample split by cutoff queries, with or without a rank query,
        # which joins the far tier into one array, then batches with
        # cutoffs between them
        bulk, single = TruncatedEcdf(10000), TruncatedEcdf(10000)
        for e in (bulk, single):
            insert_each(e, before)
            if before:
                e.conformal_cutoff(*queries[0])
                if ranked:
                    e.samples
        for values in batches:
            outcomes = []
            for e, add in ((bulk, TruncatedEcdf.extend), (single, insert_each)):
                try:
                    add(e, values)
                    outcomes.append(None)
                except ValueError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            assert [repr(v) for v in bulk.samples] == [repr(v) for v in single.samples]
            if bulk.count:
                for alpha, eps in queries:
                    assert (repr(bulk.conformal_cutoff(alpha, epsilon=eps))
                            == repr(single.conformal_cutoff(alpha, epsilon=eps)))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([-1.0, -0.0, 0.0]), st.floats(-2, 0)),
                    max_size=40),
           st.lists(st.lists(st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(0, 2)),
                             max_size=40), min_size=1, max_size=4),
           ALPHAS, st.booleans())
    def test_values_all_at_or_above_the_low_top(self, before, batches, alpha, ranked):
        # how the banded and greedy policies record between two cutoffs:
        # every value >= the low tier's top (here <= 0), zeros of both
        # signs among them; each tier gets what repeated inserts give it
        bulk, single = TruncatedEcdf(10000), TruncatedEcdf(10000)
        for e in (bulk, single):
            insert_each(e, before)
            if before:
                e.conformal_cutoff(alpha, epsilon=0.0)
                if ranked:
                    e.samples
        top = bulk.top
        for values in batches:
            assert all(v >= top for v in values)
            bulk.extend(values)
            insert_each(single, values)
            assert repr(bulk.top) == repr(single.top) and bulk._ties == single._ties
            for a, b in ((bulk._pile, single._pile), (bulk._high, single._high),
                         (far_tier(bulk), far_tier(single))):
                assert [repr(v) for v in sorted(a)] == [repr(v) for v in sorted(b)]
        assert [repr(v) for v in bulk.samples] == [repr(v) for v in single.samples]
        if bulk.count:
            assert (repr(bulk.conformal_cutoff(alpha, epsilon=0.0))
                    == repr(single.conformal_cutoff(alpha, epsilon=0.0)))

    def test_negative_zero_is_recorded_as_zero(self):
        e = TruncatedEcdf(100)
        e.extend([-0.0, 0.5])
        assert repr(e.conformal_cutoff(0.9, epsilon=0.0)) == "0.0"
        e.extend([-0.0])
        assert [repr(v) for v in e.samples] == ["0.0", "0.0", "0.5"]

    def test_first_non_finite_value_raises_after_the_values_before_it(self):
        e = TruncatedEcdf(100)
        with pytest.raises(ValueError, match="got inf"):
            e.extend([0.5, -0.0, POS_INF, math.nan, 0.25])
        assert [repr(v) for v in e.samples] == ["0.0", "0.5"]

    def test_samples_is_a_new_list(self):
        # the tiers are the only copy: a list `samples` returned is the
        # caller's, and changing it changes nothing recorded
        e = TruncatedEcdf(100)
        e.extend([3.0, 1.0, 2.0])
        e.conformal_cutoff(0.5, epsilon=0.0)
        first = e.samples
        assert e.samples is not first
        first.clear()
        first += [0.0] * 5
        assert e.count == 3 and e.samples == [1.0, 2.0, 3.0]
        assert e.conformal_cutoff(0.1, epsilon=0.0) == 3.0
        assert e.samples == [1.0, 2.0, 3.0]

    def test_finite_values_whose_sum_overflows(self):
        e = TruncatedEcdf(100)
        e.extend([1e308, 1e308, -1.0])
        assert e.samples == [-1.0, 1e308, 1e308]


class TestCutoffRank:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("insert"), st.one_of(TIED, st.floats(-3, 3))),
        st.tuples(st.just("extend"), st.lists(st.one_of(TIED, st.floats(-3, 3)),
                                              max_size=10)),
        st.tuples(st.just("cutoff"), st.tuples(ALPHAS, st.floats(0.0, 1.5))),
    ), max_size=60))
    def test_counts_values_at_or_below_the_last_finite_cutoff(self, ops):
        e = TruncatedEcdf(10000)
        values, answer = [], None
        for op, arg in ops:
            if op == "insert":
                e.insert(arg)
                values.append(arg)
            elif op == "extend":
                e.extend(arg)
                values += arg
            elif values:
                cut = e.conformal_cutoff(arg[0], epsilon=arg[1])
                if math.isfinite(cut):
                    answer = cut
            if answer is not None:
                assert e.count_at_most(e.top) == sum(1 for v in values if v <= answer)

    def test_no_finite_cutoff_yet(self):
        # top is -inf, and no recorded value is at or below it, before any
        # finite answer and after a -inf one
        e = ecdf_with_cutoff([1.0, 2.0])
        assert e.top == NEG_INF and e.count_at_most(e.top) == 0
        assert e.conformal_cutoff(0.9, epsilon=0.5) == NEG_INF
        assert e.top == NEG_INF and e.count_at_most(e.top) == 0


def assert_tiers(e):
    """pile < top < high <= fence < far, over the three tiers as stored,
    with top's copies counted: at least one once a finite answer is in."""
    far = far_tier(e)
    assert len(e._pile) + e._ties + len(e._high) + len(far) == e.count
    assert (e._ties > 0) == (e.top != NEG_INF)
    assert all(v < e.top for v in e._pile)
    assert all(e.top < v <= e.fence for v in e._high)
    assert e.top <= e.fence
    assert all(v > e.fence for v in far)


# tied values, zeros of both signs, and a few far apart
FAR_VALUES = st.one_of(TIED, st.sampled_from([0.5, 0.5, 0.75, 2.0]), st.floats(-2, 2))


class TestFarTierMatchesSortedList:
    """Every query of the three-tier store against a plain sorted list.

    A refill floor of 1 or 2 refills on nearly every query that moves the
    split up, so that small samples cross many fences; 64 is the module's.
    """

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("insert"), FAR_VALUES),
        st.tuples(st.just("extend"), st.lists(FAR_VALUES, max_size=12)),
        st.tuples(st.just("extend_far"), st.lists(FAR_VALUES, max_size=12)),
        # the fence itself, a tie of the largest value a refill moved
        st.tuples(st.just("fence_tie"), st.none()),
        st.tuples(st.just("cutoff"), st.tuples(ALPHAS, st.floats(0.0, 1.2))),
        st.tuples(st.just("rank"), st.none()),
        st.tuples(st.just("count_at_most"), FAR_VALUES),
        st.tuples(st.just("eval_g"), FAR_VALUES),
        st.tuples(st.just("samples"), st.none()),
    ), max_size=80), st.sampled_from([1, 2, 64]), st.sampled_from([2, 16]))
    def test_operations(self, ops, floor, share):
        e = TruncatedEcdf(10000)
        values, answer = [], None
        with mock.patch.object(cdf_band, "REFILL_FLOOR", floor), \
                mock.patch.object(cdf_band, "REFILL_SHARE", share):
            for op, arg in ops:
                if op == "insert":
                    e.insert(arg)
                    values.append(arg + 0.0)
                elif op == "extend":
                    e.extend(arg)
                    values += [v + 0.0 for v in arg]
                elif op == "extend_far":
                    far = [v for v in arg if v > e.fence]
                    e.extend_far(np.array(far, dtype=np.float64))
                    values += [v + 0.0 for v in far]
                elif op == "fence_tie":
                    if math.isfinite(e.fence):
                        e.insert(e.fence)
                        values.append(e.fence)
                elif not values:
                    continue
                elif op == "cutoff":
                    cut = e.conformal_cutoff(*arg)
                    assert repr(cut) == repr(sorted_reference(values, *arg))
                    if math.isfinite(cut):
                        answer = cut
                elif op == "rank":
                    if answer is not None:
                        assert e.count_at_most(e.top) == sum(1 for v in values if v <= answer)
                elif op == "count_at_most":
                    assert e.count_at_most(arg) == sum(1 for v in values if v <= arg)
                elif op == "eval_g":
                    assert e.eval_g(arg) == sum(1 for v in values if v <= arg) / len(values)
                else:
                    assert [repr(v) for v in e.samples] == [repr(v) for v in sorted(values)]
                assert e.count == len(values)
                assert_tiers(e)
        assert [repr(v) for v in e.samples] == [repr(v) for v in sorted(values)]

    def test_refill_takes_every_tie_of_the_fence(self):
        # the 64 smallest far values end in a run of ties: all of it moves,
        # and the next value up stays far
        e = TruncatedEcdf(10000)
        e.extend_far(np.array([1.0] * 40 + [2.0] * 60 + [3.0] * 100))
        assert e.conformal_cutoff(0.99, epsilon=0.0) == 1.0
        assert e.fence == 2.0 and len(e._pile) + e._ties + len(e._high) == 100
        assert e.count_at_most(e.top) == 40
        e.insert(2.0)
        assert e.conformal_cutoff(0.5, epsilon=0.0) == 2.0
        assert e.count_at_most(e.top) == 101
        assert e.conformal_cutoff(0.01, epsilon=0.0) == 3.0
        assert e.fence == 3.0 and e.count_at_most(2.5) == 101
        assert_tiers(e)

    def test_far_zeros_are_recorded_as_zero(self):
        e = TruncatedEcdf(100)
        e.insert(-1.0)
        e.conformal_cutoff(0.5, epsilon=0.0)
        assert e.fence == -1.0
        e.extend_far(np.array([-0.0, 0.5, -0.0]))
        e.insert(-0.0)
        assert [repr(v) for v in e.samples] == ["-1.0", "0.0", "0.0", "0.0", "0.5"]
        assert repr(e.conformal_cutoff(0.5, epsilon=0.0)) == "0.0"


# a value placed against the current top: below it, at it or above it
PLACED = st.tuples(st.sampled_from(["below", "at", "above"]),
                   st.sampled_from([0.0, 0.25, 0.25, 1.0]) | st.floats(0.0, 2.0))
# a query level: alpha with an explicit width, or None for the DKW width
QUERIES = st.lists(st.tuples(ALPHAS, st.none() | st.sampled_from([0.0, 0.1])
                             | st.floats(0.0, 1.0)), min_size=1, max_size=5)


def placed(e, where, offset):
    """A value `offset` below, at or above `e.top`; the offset itself while
    top is -inf.  Zeros come out as -0.0 or 0.0."""
    top = e.top
    if top == NEG_INF:
        return -offset if where == "below" else offset
    if where == "at":
        return -top if top == 0.0 else top
    return top - offset - 0.5 if where == "below" else top + offset + 0.5


class TestLowTierMatchesSortedList:
    """Every query of the store against a plain sorted list, with the
    levels made to fall as well as rise.

    Each query op asks a few levels in falling order, so the answer moves
    down into the low pile as well as up through the heap; inserts land
    below, at and above top, `extend_top` adds copies of top, and a small
    refill floor and share make refills frequent.  After every op the
    answer, `count_at_most` at and around top, `count` and the tier
    invariants are checked, and with `ranked` the sorted sample too.
    """

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("insert"), PLACED),
        st.tuples(st.just("extend"), st.lists(PLACED, max_size=10)),
        st.tuples(st.just("extend_top"), st.integers(0, 6)),
        st.tuples(st.just("extend_far"), st.lists(FAR_VALUES, max_size=10)),
        st.tuples(st.just("falling"), QUERIES),
    ), max_size=60), st.sampled_from([2, 3, 100]), st.sampled_from([1, 2, 64]),
           st.sampled_from([2, 16]), st.booleans())
    def test_operations(self, ops, horizon, floor, share, ranked):
        e = TruncatedEcdf(horizon)
        values, answer = [], None
        with mock.patch.object(cdf_band, "REFILL_FLOOR", floor), \
                mock.patch.object(cdf_band, "REFILL_SHARE", share):
            for op, arg in ops:
                if op == "insert":
                    v = placed(e, *arg)
                    e.insert(v)
                    values.append(v + 0.0)
                elif op == "extend":
                    batch = [placed(e, *a) for a in arg]
                    e.extend(batch)
                    values += [v + 0.0 for v in batch]
                elif op == "extend_top":
                    if e.top == NEG_INF and arg:
                        with pytest.raises(ValueError, match="finite"):
                            e.extend_top(arg)
                    else:
                        e.extend_top(arg)
                        values += [e.top] * arg
                elif op == "extend_far":
                    far = [v for v in arg if v > e.fence]
                    e.extend_far(np.array(far, dtype=np.float64))
                    values += [v + 0.0 for v in far]
                elif values:
                    levels = sorted(arg, key=lambda q: 1 - q[0] - (
                        e.epsilon() if q[1] is None else q[1]), reverse=True)
                    for alpha, eps in levels:
                        width = e.epsilon() if eps is None else eps
                        cut = e.conformal_cutoff(alpha, eps)
                        assert repr(cut) == repr(sorted_reference(values, alpha, width))
                        if math.isfinite(cut):
                            answer = cut
                assert e.count == len(values)
                assert_tiers(e)
                if answer is not None:
                    assert e.top == answer
                    assert e.count_at_most(e.top) == sum(1 for v in values if v <= answer)
                    for tau in (answer - 0.25, answer, answer + 0.25):
                        assert e.count_at_most(tau) == sum(1 for v in values if v <= tau)
                if ranked and values:
                    assert [repr(v) for v in e.samples] == [repr(v) for v in sorted(values)]
        assert [repr(v) for v in e.samples] == [repr(v) for v in sorted(values)]

    def test_answer_among_top_copies_moves_nothing(self):
        # a query whose index lands among top's copies answers top and
        # moves nothing; one below them hands the low tier back to the
        # heap and climbs from nothing, keeping what is below the new top
        e = TruncatedEcdf(100)
        e.extend([5.0, 1.0, 3.0, 2.0, 4.0])
        assert e.conformal_cutoff(0.1, epsilon=0.0) == 5.0
        assert e.fence == 5.0 and e._ties == 1 and sorted(e._pile) == [1.0, 2.0, 3.0, 4.0]
        e.insert(0.5)
        e.extend_top(3)
        pile = list(e._pile)
        # 9 values: the 6th to the 9th are top's copies; k = 7, then 3
        assert e.conformal_cutoff(1 / 3, epsilon=0.0) == 5.0
        assert e._pile == pile and e.count_at_most(e.top) == 9
        assert e.conformal_cutoff(7 / 9, epsilon=0.0) == 2.0
        assert e._pile == [0.5, 1.0] and e._ties == 1 and e.count_at_most(e.top) == 3
        assert sorted(e._high) == [3.0, 4.0, 5.0, 5.0, 5.0, 5.0]
        assert_tiers(e)


class TestRetruncationEquivalence:
    """Recording-time truncation vs max-with-current-threshold at query time.

    The slow reference applies max{tau_current, raw_j} to the full raw
    history before computing the cutoff; for nondecreasing threshold
    traces both storage schemes must return identical cutoffs.
    """

    @staticmethod
    def query_time_cutoff(raw_values, tau_current, level):
        truncated = sorted(max(tau_current, v) for v in raw_values)
        return brute_force_cutoff(truncated, level)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=2, max_size=60),
           st.floats(0.5, 0.95), st.floats(0.0, 0.3), st.integers(0, 2**31))
    def test_cutoffs_identical_on_monotone_traces(self, scores, alpha, eps, seed):
        # replay the banded policy loop, keeping raw scores on the side
        e = TruncatedEcdf(10000)
        tau = NEG_INF
        raw = []
        for s in scores:
            recorded = s if s >= tau else tau
            e.insert(recorded)
            raw.append(s)
            level = 1 - alpha - eps
            cut = e.conformal_cutoff(alpha, epsilon=eps)
            if math.isfinite(tau):
                ref = self.query_time_cutoff(raw, tau, level)
                assert cut == ref
            tau = max(tau, cut)  # nondecreasing by construction


class TestDkwValidity:
    def test_uniform_band_holds_at_nominal_rate(self):
        # full feedback from U(0,1): sup-deviation of the ECDF exceeds the
        # delta=0.05 band in at most a ~5% fraction of repetitions
        rng = np.random.default_rng(11)
        n, reps, delta = 100, 4000, 0.05
        eps = band_epsilon(delta, n)
        x = np.sort(rng.uniform(size=(reps, n)), axis=1)
        upper = np.arange(1, n + 1) / n - x
        lower = x - np.arange(0, n) / n
        sup_dev = np.maximum(upper, lower).max(axis=1)
        frac = float(np.mean(sup_dev > eps))
        assert frac <= delta + 0.01

