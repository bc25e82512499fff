"""Truncated empirical CDF with a DKW upper confidence band.

The estimator records one value per round: the true score when it was
observed, or the round's threshold when it was not (so all the mass below
the threshold piles up at the threshold itself).  On top of the resulting
step-function CDF it answers the banded cutoff query

    sup{ tau : G_t(tau) + eps_t <= 1 - alpha },

which is the quantity the threshold policies need each round.  The answer
is an order statistic whose index `order_index` fixes (`order_index_column`
gives the index for a column of sample sizes at once, and
`TruncatedEcdf.cutoff_ranks` the ranks of the answers).  `TruncatedEcdf`
keeps the sample in three tiers: at or below the last answer an
unordered pile, the answer's own copies only counted; above it a heap up
to a fence, so a round that moves the index by at most one costs
O(log t) rather than the O(t) of a sorted insert; and above the fence an
unordered far tier of numpy slices that no query reads until the heap
runs out.  The query sits near the (1 - alpha)-quantile, so at the
alpha = 0.9 of the shipped configs most values land in the far tier,
and the misses of a policy whose threshold never falls are a count.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush

import numpy as np

NEG_INF = float("-inf")
POS_INF = float("inf")

# Admission tolerance for quantile levels: boundary ties like ecdf = 1 - alpha
# are part of the admissible set, but 1 - alpha is often not exactly
# representable (1 - 0.9 != 0.1 in binary).  Comparisons admit k/t whenever
# k/t <= level + LEVEL_TOL so decimal-stated levels behave as written.
LEVEL_TOL = 1e-9

# A refill of the high heap takes about 1/REFILL_SHARE of the far tier, and
# at least REFILL_FLOOR values (see `TruncatedEcdf`).  A larger floor puts
# the first fence near the top of a small sample, above most later values.
REFILL_SHARE = 16
REFILL_FLOOR = 64


def band_epsilon(delta: float, t: int) -> float:
    """DKW band half-width sqrt(log(2/delta) / (2t)), natural log."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    if t < 1:
        raise ValueError(f"sample count must be >= 1, got {t}")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * t))


def order_index(n: int, level: float) -> int:
    """Index m of the sup order statistic for a sample of size n >= 1.

    m is the largest integer in [0, n-1] with m/n <= level, so the (m+1)-th
    smallest value is sup{ tau : ecdf(tau) <= level }.  Valid for
    -LEVEL_TOL <= level < 1; the callers handle the sentinel levels.

    The start is floor(n * level) clamped to [0, n-1]: `int` truncates
    toward zero, which is the floor above 0 and lands on the clamp below.
    The adjustment loop moves it up to the last k/n the tolerance admits,
    so results agree bit-for-bit with a scan that evaluates the ECDF
    directly.
    """
    m = int(n * level)
    if m < 0:
        m = 0
    elif m >= n:
        m = n - 1
    # the start needs no move down: m <= n * level * (1 + 2**-53), so m/n
    # exceeds level by about 1e-16, far inside LEVEL_TOL, and a negative
    # level starts at m = 0
    while m + 1 < n and (m + 1) / n <= level + LEVEL_TOL:
        m += 1
    return m


def order_index_column(n, level) -> np.ndarray:
    """`order_index(n[i], level)` for every sample size in the array `n`.

    `level` is a scalar or an array of n's shape (one level per size).
    Each step is the scalar one on int64 and float64 values: the start
    truncated toward zero and clamped, then the adjustment loop, run
    until no index moves.  The division is of integers below 2**53,
    which float64 holds exactly, so every comparison sees the quotient
    the scalar form sees and the column agrees with `order_index`
    element for element.
    """
    n = np.asarray(n, dtype=np.int64)
    bound = np.asarray(level, dtype=np.float64) + LEVEL_TOL
    # as in `order_index`, the start is never above the bound
    m = np.clip((n * level).astype(np.int64), 0, n - 1)
    while True:
        up = (m + 1 < n) & ((m + 1) / n <= bound)
        if not up.any():
            break
        m += up
    return m


def sup_quantile(sorted_values, level: float) -> float:
    """sup{ tau : ecdf(tau) <= level } over an already-sorted sample.

    Returns -inf when no tau is admissible (level < 0) and +inf when all
    are (level >= 1).  Otherwise the sup is the order statistic at
    `order_index(n, level)`; the admissible set is the open interval below
    that value.
    """
    n = len(sorted_values)
    if n == 0:
        raise ValueError("sup_quantile of an empty sample is undefined")
    if level < -LEVEL_TOL:
        return NEG_INF
    if level >= 1.0:
        return POS_INF
    return sorted_values[order_index(n, level)]


class TruncatedEcdf:
    """Multiset of recorded scores in three tiers, plus the DKW band.

    `top` is the last finite cutoff answer, -inf before the first.  The
    low tier holds every value <= top, unordered: the values below it in
    the list `_pile`, and the number of copies of top in `_ties`.  `_high`
    is a min-heap of the values in (top, fence], and the far tier holds
    every value above the fence, unordered: numpy slices in `_far` and
    single floats in `_far_values`.  `extend` puts each value in the
    tier it belongs to, a value equal to top only counted, and `insert`
    is a one-value `extend`.

    A cutoff query answers the k-th smallest value, k = m + 1 for its
    `order_index` m; `cutoff_ranks` gives k for a column of sample
    sizes, 0 where the answer is -inf.  When k is above the low tier's
    size it pops heap tops into the pile until k values are at or below
    the last one, which becomes top, and counts the heap's ties of it: O(log t) per value
    moved, and the banded and greedy policies move k by at most one per
    round.  When k lands among top's copies nothing moves.  Below them
    (which neither policy asks in play) the low tier goes back onto the
    heap and the answer climbs to k from nothing, so any sequence of
    levels gets the exact answer.

    The fence starts at -inf, with every value far.  A query that needs
    more values than `_high` holds refills it: the far tier's smallest
    values, about 1/REFILL_SHARE of it but at least REFILL_FLOOR and what
    the query needs, go onto `_high`, and the fence rises to the largest
    of them, so that every tie of it comes too.  The rest stays far.  A
    refill is O(far) numpy work, and the cutoff must climb through the
    values it moved before the next one.  `extend_far` records a numpy
    slice of values above the fence as it is.

    The tiers are the only copy of the sample.  `count_at_most(tau)`
    counts the values <= tau in one pass over them, except at top, where
    it is the low tier's size; `eval_g` and `eval_upper` are that count
    over `count`, and `samples` sorts the tiers into a new list.

    Values are canonicalized with `value + 0.0`, which turns -0.0 into
    0.0, so that top's copies are one value and the cutoff's sign is the
    sorted order's.

    Values are truncated at recording time (a missed round records the
    round's threshold); queries never re-truncate.  For the nondecreasing
    threshold sequences produced by the banded policy the cutoff query is
    unaffected, because truncated entries sit strictly below where the
    query can land.
    """

    def __init__(self, horizon: int):
        if not isinstance(horizon, int) or horizon < 2:
            raise ValueError(f"horizon must be an integer >= 2, got {horizon!r}")
        self.horizon = horizon
        # log(2/delta) / 2 for delta = 2/T^2, so that epsilon() is one
        # division and a square root
        self._half_log = math.log(2.0 / (2.0 / (horizon * horizon))) / 2.0
        self._count = 0
        self._top = NEG_INF
        self._pile: list[float] = []
        self._ties = 0
        self._high: list[float] = []
        self._fence = NEG_INF
        self._far: list[np.ndarray] = []
        self._far_values: list[float] = []

    @property
    def count(self) -> int:
        return self._count

    @property
    def top(self) -> float:
        """The last finite cutoff answer, -inf before the first."""
        return self._top

    @property
    def fence(self) -> float:
        """The largest value the heap may hold; every value above it is far."""
        return self._fence

    @property
    def samples(self) -> list[float]:
        """The recorded values in nondecreasing order, as a new list."""
        return sorted(self._pile + [self._top] * self._ties + self._high
                      + self._far_array().tolist())

    def insert(self, value: float) -> None:
        """Record one value: a one-value `extend`."""
        self.extend([float(value)])

    def extend(self, values: list[float]) -> None:
        """Record each of a list of floats, in order, in its tier.

        A non-finite value raises ValueError, with the values before it
        recorded.  No value moves top or the fence, so the tier of each
        is fixed by the two as they stand.
        """
        # a sum is finite only if every term is; one that overflows is
        # checked term by term
        if not math.isfinite(sum(values)):
            for i, value in enumerate(values):
                if not math.isfinite(value):
                    self.extend(values[:i])
                    raise ValueError(f"recorded score must be finite, got {value + 0.0}")
        pile, high, far = self._pile, self._high, self._far_values
        top, fence = self._top, self._fence
        ties = 0
        for value in values:
            value += 0.0
            if value > fence:
                far.append(value)
            elif value > top:
                heappush(high, value)
            elif value < top:
                pile.append(value)
            else:
                ties += 1
        self._ties += ties
        self._count += len(values)

    def extend_top(self, k: int) -> None:
        """Record k copies of `top`, as a count.

        Before the first finite answer top is -inf, which `extend` refuses,
        and so does this when k > 0.
        """
        if not k:
            return
        top = self._top
        if top == NEG_INF:
            raise ValueError(f"recorded score must be finite, got {top}")
        self._ties += k
        self._count += k

    def extend_far(self, values: np.ndarray) -> None:
        """Record a float64 array of finite values, all above `fence`.

        The array joins the far tier as one slice, with no push: the
        multiset `extend` records for the same values.  The caller vouches
        for both conditions; neither is checked.
        """
        values = values + 0.0
        self._far.append(values)
        self._count += len(values)

    def epsilon(self) -> float:
        """Band half-width at the current count: `band_epsilon(2/T^2, t)` bit
        for bit, since halving is exact and (log(2/delta) / 2) / t rounds the
        same quotient as log(2/delta) / (2t)."""
        self._require_samples()
        return math.sqrt(self._half_log / self.count)

    def eval_g(self, tau: float) -> float:
        """Fraction of recorded values <= tau (right-continuous step)."""
        self._require_samples()
        return self.count_at_most(tau) / self._count

    def eval_upper(self, tau: float) -> float:
        """eval_g(tau) + eps_t; may exceed 1."""
        return self.eval_g(tau) + self.epsilon()

    def conformal_cutoff(self, alpha: float, epsilon: float | None = None) -> float:
        """Largest tau whose banded miscoverage estimate stays <= 1-alpha.

        `epsilon` overrides the DKW width (0.0 gives the plain empirical
        sup-quantile).  Returns -inf when the band is wider than the
        remaining budget; the sentinels never enter the sample multiset.
        The value is `sup_quantile(self.samples, 1 - alpha - eps)`.
        """
        self._require_samples()
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {alpha}")
        eps = self.epsilon() if epsilon is None else float(epsilon)
        # `not >=` so that a NaN width fails too
        if not eps >= 0.0:
            raise ValueError(f"epsilon must be >= 0, got {eps}")
        level = 1.0 - alpha - eps
        if level < -LEVEL_TOL:
            return NEG_INF
        if level >= 1.0:
            raise ValueError(f"alpha = {alpha!r} is too small: 1 - alpha rounds to 1")
        k = order_index(self._count, level) + 1
        pile = self._pile
        if k <= len(pile):
            # below top's copies: the low tier goes back to the heap, and
            # the answer climbs to k from nothing
            self._high += pile + [self._top] * self._ties
            heapify(self._high)
            pile.clear()
            self._top, self._ties = NEG_INF, 0
        if k > len(pile) + self._ties:
            self._raise_top(k - len(pile) - self._ties)
        return self._top

    def cutoff_ranks(self, alpha: float, epsilon: float | None, sizes) -> np.ndarray:
        """The rank k whose value `conformal_cutoff(alpha, epsilon)` answers
        at each sample size in the array `sizes`: order_index(n, level) + 1,
        and 0 where the level is below -LEVEL_TOL and the cutoff is -inf.

        The arguments are not checked.  With `epsilon` None the level is
        1 - alpha - sqrt(log(2/delta) / 2 / n), which is the query's level
        bit for bit: numpy's division and square root round as Python's
        do.  The rank never decreases in the size.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        eps = np.sqrt(self._half_log / sizes) if epsilon is None else epsilon
        level = 1.0 - alpha - eps
        return np.where(level < -LEVEL_TOL, 0, order_index_column(sizes, level) + 1)

    def _raise_top(self, moves: int) -> None:
        """Pop `moves` heap tops into the low tier; the last is the new top,
        and its copies, popped or left on the heap, are counted."""
        high, pile = self._high, self._pile
        if len(high) < moves:
            self._refill(moves - len(high))
        # top's copies are below the new top
        pile += [self._top] * self._ties
        for _ in range(moves - 1):
            pile.append(heappop(high))
        top = heappop(high)
        ties = 1
        while pile and pile[-1] == top:
            pile.pop()
            ties += 1
        while high and high[0] == top:
            heappop(high)
            ties += 1
        self._top, self._ties = top, ties

    def count_at_most(self, tau: float) -> int:
        """Number of recorded values <= tau: at top the low tier's size, 0
        before the first finite answer, and else one pass over the tiers."""
        if tau == self._top:
            return len(self._pile) + self._ties
        return (sum(1 for v in self._pile if v <= tau)
                + (self._ties if self._top <= tau else 0)
                + sum(1 for v in self._high if v <= tau)
                + int(np.count_nonzero(self._far_array() <= tau)))

    def _far_array(self) -> np.ndarray:
        """The far tier as one array, which it is kept as from then on."""
        far = self._far
        if self._far_values or len(far) != 1:
            far[:] = [np.concatenate(far + [np.array(self._far_values, dtype=np.float64)])]
            self._far_values.clear()
        return far[0]

    def _refill(self, need: int) -> None:
        """Move the smallest far values onto the high heap.

        It takes about 1/REFILL_SHARE of the far tier, but at least
        REFILL_FLOOR values and `need`, and every tie of the largest of
        them, which becomes the fence.  Appended in sorted order, each is
        at least its parent in the heap: the heap's own values are at or
        below the old fence.
        """
        far = self._far_array()
        take = max(REFILL_FLOOR, len(far) // REFILL_SHARE, need)
        if take < len(far):
            far = np.partition(far, take - 1)
            near = far <= far[take - 1]
            self._far[:] = [far[~near]]
            far = far[near]
        else:
            self._far.clear()
        far.sort()
        self._high += far.tolist()
        self._fence = self._high[-1]

    def _require_samples(self) -> None:
        if not self._count:
            raise ValueError("CDF query on an empty sample")
