"""Threshold policies behind a uniform propose/update contract.

Each policy proposes a threshold tau for the round; labels scoring at or
above tau are in the prediction set.  After the round it receives the
semi-bandit feedback: the true score when it was >= tau (observed), else
None (a miss).  `Policy.update` records the threshold itself in place of
a missed score; every estimate below sees that recorded value.

Policies:

* sps      -- banded sup-quantile of the truncated ECDF, thresholds
              constrained to be nondecreasing.  Never undercovers with
              high probability.
* greedy   -- SPS's cutoff with no band, and tau is not max-ed with the
              previous one (it still never decreases in play).
* aci      -- adaptive miscoverage budget; quantile function built from
              observed scores only (biased under semi-bandit feedback).
* dlr      -- decaying-learning-rate gradient steps directly on tau.
* etc      -- explore (tau = -inf) for m rounds, then commit to the plain
              empirical sup-quantile.
* con_etc  -- explore-then-commit using the banded sup-quantile.

Each policy writes its recurrence once, as `play(scores)`: one round per
score of a float64 array, returning the thresholds it proposed as one
array of the same length.  A score `>= tau` is observed; any other score,
NaN included, is a miss that records tau.  `update` is the per-round
form, one `play` of one score; SPS keeps its own per-round `update` body.
Greedy is SPS without the band: SPS, greedy, ETC and Con-ETC pass the
class attribute `epsilon` to their cutoff, None for the DKW width and 0.0
for no band.  SPS and greedy walk a block in Python only at the rounds
that can raise tau or reach the ECDF's heap, and record each stretch
between raises as a count of the rounds that record tau, one `extend`
and one numpy slice, so each asks one cutoff query per raise, not one
per round.  Both play each raise round through `update`, and so the
first round of a fresh policy and of a block whose tau, set from
outside, is not the ECDF's top.  ETC and Con-ETC record their
exploration rounds with one `extend`.  DLR, and ACI between its
stretches, play the block in a local-variable loop over Python floats.
ACI plays each stretch where its budget is clamped at 0 as numpy
columns, which is exact because tau stays the smallest observed score
until the budget is back above 0, and keeps sorted only the observed
scores below a pivot, across blocks, until `observed_scores` is read.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .cdf_band import LEVEL_TOL, NEG_INF, POS_INF, TruncatedEcdf

POLICY_KINDS = ("sps", "greedy", "aci", "dlr", "etc", "con_etc")

# Default grids for the swept hyperparameters (see config.SWEEPS).
ACI_GAMMA_GRID = (0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128)
ETC_M_GRID = (100, 250, 500, 1000)

DLR_EXPONENT_OFFSET = 0.1  # step size eta_t = t^(-1/2 - offset)

# ACI's fewest rounds in a clamped stretch, and single inserts before a split.
MIN_STRETCH = 32

# The score `update` plays for a miss: no threshold admits NaN.
MISS = math.nan


class PolicyContractError(RuntimeError):
    """Feedback inconsistent with the threshold the policy proposed."""


def _contract_error(observed: float, tau: float) -> PolicyContractError:
    return PolicyContractError(
        f"observed score {observed} not at or above proposed threshold {tau}")


class PolicyConfigError(ValueError):
    """Invalid policy specification."""


@dataclass(frozen=True)
class PolicySpec:
    """Policy kind plus the parameters it needs.

    gamma          -- ACI learning rate
    tau_init       -- DLR starting threshold (conservative lower bound)
    explore_rounds -- ETC / Con-ETC exploration length m
    """

    kind: str
    alpha: float
    horizon: int
    gamma: float | None = None
    tau_init: float | None = None
    explore_rounds: int | None = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise PolicyConfigError(f"unknown policy kind {self.kind!r}")
        if not 0.0 < self.alpha < 1.0:
            raise PolicyConfigError(f"alpha must be in (0,1), got {self.alpha}")
        if 1.0 - self.alpha == 1.0:
            raise PolicyConfigError(f"alpha = {self.alpha!r} is too small: 1 - alpha rounds to 1")
        if self.horizon < 2:
            raise PolicyConfigError(f"horizon must be >= 2, got {self.horizon}")
        if self.kind == "aci":
            if self.gamma is None or not 0.0 < self.gamma < math.inf:
                raise PolicyConfigError(f"aci requires a finite gamma > 0, got {self.gamma}")
        if self.kind == "dlr":
            if self.tau_init is None or not math.isfinite(self.tau_init):
                raise PolicyConfigError("dlr requires a finite tau_init")
        if self.kind in ("etc", "con_etc"):
            m = self.explore_rounds
            if m is None or not 1 <= m < self.horizon:
                raise PolicyConfigError(
                    f"{self.kind} requires 1 <= explore_rounds < horizon, got {m}"
                )

    def build(self) -> "Policy":
        return _BUILDERS[self.kind](self)


class Policy:
    """Base propose/update contract.

    `propose` returns the current threshold without mutating state;
    `update` consumes one round's feedback and `play` a block of rounds.
    The round index `t` counts completed rounds.  Subclasses implement
    `play`.
    """

    def __init__(self, spec: PolicySpec):
        self.spec = spec
        self.alpha = spec.alpha
        self.t = 0
        self.tau = NEG_INF

    def propose(self) -> float:
        return self.tau

    def update(self, observed: float | None) -> None:
        """Consume the round's feedback: the observed score, or None on a miss.

        A miss records the proposed threshold in place of the hidden score.
        A score that is not >= tau, NaN included, breaks the contract.
        """
        # `not >=` so that a NaN score fails too
        if observed is not None and not observed >= self.tau:
            raise _contract_error(observed, self.tau)
        self.play(np.array([MISS if observed is None else observed], dtype=np.float64))

    def play(self, scores: np.ndarray) -> np.ndarray:
        """Play one round per score of a float64 array; return the
        thresholds proposed, as one.

        A score `>= tau` is observed; any other score is a miss.  A block
        that raises leaves the policy part-way through it.
        """
        raise NotImplementedError


class SpsPolicy(Policy):
    """Banded cutoff on the truncated ECDF; thresholds never decrease.

    A round's cutoff is the k_t-th smallest recorded value, with
    k_t = order_index(t, 1 - alpha - eps_t) + 1, or -inf when that level
    is below -LEVEL_TOL.  eps_t is `epsilon`: None for the DKW width, and
    0.0, no band, for greedy.  The cutoff is above tau exactly when fewer
    than k_t recorded values are <= tau, so with c values <= tau, tau
    holds through round t while c + (the block's scores up to round t
    that are not > tau, NaN included) >= k_t, where a -inf cutoff needs
    k_t = 0.

    `play` builds need, the k_t column for the block, with the ECDF's
    `cutoff_ranks`, the ranks `conformal_cutoff` answers.  It never
    decreases and c never falls, so tau can first fall short at a round
    where need rises.  The rest of the block is split once per fence
    epoch (from the block's start, and again after a raise whose refill
    moved the ECDF's fence) against tau0, tau at the epoch's start, and
    bound = max(tau, fence): far, the scores above bound; low, the scores
    not above tau0, NaN included, which record tau and are counted by one
    cumsum; and near, the rest.  Python visits only the near rounds and
    the rounds where need rises and falls short of c at the epoch's start
    plus the low count, a superset of the rounds that raise.  A near
    score above tau is kept as it is, and one at or below tau counts
    towards c.  At a round that falls short, the rounds before it are
    recorded in three parts: the far scores as one numpy slice
    (`extend_far`), the kept near scores with one `extend`, which pushes
    each onto the heap, and the rest, which record tau, as a count of
    copies of the ECDF's `top` (`extend_top`), which tau is after a
    raise.  The round itself is played through `update`, which inserts
    (a one-value `extend`), asks the cutoff and takes the max (with no
    band, the cutoff as it is), and c is counted again with
    `count_at_most`.  Played by its own `update` and `play`, tau is the
    ECDF's top (-inf until a cutoff is finite) after every round, and c
    at top is the low tier's size.  A block on an empty ECDF, or whose
    tau was set from outside and is not top, plays its first round
    through `update`.  A fresh policy's block needs no such round, but it
    puts an insert in the run's first tenth, which the benchmark's tracer
    times.  `update` keeps its per-round body, so a per-round caller sees
    the ECDF each round.
    """

    epsilon: float | None = None

    def __init__(self, spec: PolicySpec):
        super().__init__(spec)
        self.ecdf = TruncatedEcdf(spec.horizon)

    def update(self, observed: float | None) -> None:
        tau = self.tau
        if observed is not None and not observed >= tau:
            raise _contract_error(observed, tau)
        self.t += 1
        ecdf = self.ecdf
        ecdf.insert(tau if observed is None else observed)
        epsilon = self.epsilon
        cutoff = ecdf.conformal_cutoff(self.alpha, epsilon)
        # with no band the cutoff is taken as it is, never max-ed
        if cutoff > tau or epsilon == 0.0:
            self.tau = cutoff

    def play(self, scores: np.ndarray) -> np.ndarray:
        ecdf = self.ecdf
        update = self.update
        t = self.t
        tau = self.tau
        end = len(scores)
        taus = np.empty(end)
        infinite = scores == POS_INF
        if infinite.any():
            # +inf must not reach `extend_far`, which does not check: play
            # the rounds before it, and let `update` refuse it
            self.play(scores[:infinite.argmax()])
            update(POS_INF)
        start = 0
        # by repr: greedy's `update` turns a -0.0 set from outside into
        # top's 0.0, so that -0.0 is not top here
        if not (ecdf.count and repr(tau) == repr(ecdf.top)):
            if not end:
                return taus
            score = scores[0].item()
            taus[0] = tau
            update(score if score >= tau else None)
            tau = self.tau
            start = 1
        below = ecdf.count_at_most(tau)
        # need[j]: the values <= tau that round j needs for tau to hold
        n = ecdf.count - start
        need = ecdf.cutoff_ranks(self.alpha, self.epsilon, np.arange(n + 1, n + end + 1))
        # below never falls and need never decreases, so tau can first
        # fall short where need rises (or at the block's first round)
        rises = np.empty(end, dtype=bool)
        rises[:1] = True
        np.greater(need[1:], need[:-1], out=rises[1:])
        while start < end:
            # one fence epoch: the rest of the block split once against
            # tau0 and bound, until a raise moves the fence
            rest = scores[start:]
            tau0, fence = tau, ecdf.fence
            bound = max(tau, fence)
            far = rest > bound
            low = ~(rest > tau0)
            # cref[i]: the rounds through i that record tau for certain
            cref = np.cumsum(low)
            far_before = np.zeros(len(rest) + 1, dtype=np.int64)
            np.cumsum(far, out=far_before[1:])
            far_values = rest[far]
            visit = ~(far | low)
            visit |= rises[start:] & (cref + below < need[start:])
            rounds = np.flatnonzero(visit)
            walk = zip(rounds.tolist(), rest[rounds].tolist(),
                       need[start:][rounds].tolist(), cref[rounds].tolist())
            # the block's end closes the walk as a round that falls short
            last = (len(rest), MISS, POS_INF, int(cref[-1]))
            # off + cref[i]: the values <= tau through round i
            off, seg, observed = below, 0, []
            for i, score, k, c in chain(walk, (last,)):
                if tau0 < score <= bound:
                    if score > tau:
                        observed.append(score)
                    else:
                        off += 1
                if off + c >= k:
                    continue
                if tau < score <= bound:
                    # round i is played through `update`
                    observed.pop()
                # record the rounds seg..i-1 in three parts
                lo, hi = int(far_before[seg]), int(far_before[i])
                ecdf.extend_far(far_values[lo:hi])
                ecdf.extend(observed)
                misses = i - seg - (hi - lo) - len(observed)
                if tau == ecdf.top:
                    ecdf.extend_top(misses)
                else:
                    ecdf.extend([tau] * misses)
                taus[start + seg:start + i + 1] = tau
                if i == len(rest):
                    start = end
                    break
                update(score if score >= tau else None)
                tau = self.tau
                below = ecdf.count_at_most(tau)
                seg, observed = i + 1, []
                if ecdf.fence != fence:
                    start += seg
                    break
                off = below - c
        self.t = t + end
        return taus


class GreedyPolicy(SpsPolicy):
    """Plain empirical sup-quantile of the truncated ECDF: SPS with no band.

    tau is never max-ed with the previous threshold, yet in play it never
    decreases: tau is the order statistic at m = order_index(t, 1 - alpha)
    of the t recorded values, m never decreases in t, and every value
    recorded from then on is >= tau, so the order statistic at m stays
    tau and the one at the next m is at least tau.  So SPS's walk, which
    needs k_t never to decrease, holds on the constant level 1 - alpha.
    The policy may undercover; it is included as the natural but unsafe
    baseline.
    """

    epsilon = 0.0


class AciPolicy(Policy):
    """Adaptive miscoverage budget with an observed-scores-only ECDF.

    Budget update: beta_{t+1} = beta_t + gamma * ((1 - alpha) - err_t),
    beta_1 = 1 - alpha, err_t = 1 on a miss.  The quantile query clamps
    beta to [0,1] but the budget itself may drift outside.  The score
    ECDF is only extended on observed rounds, which is exactly the biased
    update this baseline is meant to exhibit.

    tau is `sup_quantile(observed_scores, min(max(beta, 0), 1))`, with
    the sentinel folded in: +inf when beta >= 1, else the order statistic
    at `order_index(n, max(beta, 0))` (the clamp rules out the -inf case).

    Once beta is at least MIN_STRETCH covered steps below 0, `play` takes
    the rounds until beta next rises above 0 as one numpy stretch: tau
    stays the smallest observed score throughout, because covered scores
    never go below it, so the stretch is exact.

    The observed scores are two lists split at a pivot (see `_split`),
    kept from block to block: the sorted scores below it, which hold
    tau's index, and the rest unsorted.  A covered score is appended or,
    below the pivot, inserted into the short sorted list; a stretch
    splits an unsplit list first and sorts in only its scores below the
    pivot.  Reading `observed_scores` merges the two by one stable sort,
    which puts ties where `insort` would, and starts over unsplit.
    """

    def __init__(self, spec: PolicySpec):
        super().__init__(spec)
        self.beta = 1.0 - spec.alpha
        self.observed_scores = []

    @property
    def observed_scores(self) -> list[float]:
        """The observed scores as `insort` builds them, one live list."""
        self._high.sort()
        self._low += self._high
        self.observed_scores = self._low
        return self._low

    @observed_scores.setter
    def observed_scores(self, scores: list[float]) -> None:
        # unsplit until MIN_STRETCH single inserts: a split costs a pass
        # over the list, and so do about as many inserts into all of it
        self._low, self._high = scores, []
        self._pivot, self._cap = POS_INF, len(scores) + MIN_STRETCH

    def play(self, scores: np.ndarray) -> np.ndarray:
        gamma = self.spec.gamma
        covered_step = gamma * ((1.0 - self.alpha) - 0.0)
        missed_step = gamma * ((1.0 - self.alpha) - 1.0)
        floor = -MIN_STRETCH * covered_step
        # the observed scores: `low`, sorted, below `pivot` and holding
        # tau's index, and `high`, the rest; a score joins the one it fits
        low, high, pivot, cap = self._low, self._high, self._pivot, self._cap
        n = len(low) + len(high)
        # tau's index in the last round
        m = 0
        beta = self.beta
        tau = self.tau
        pos, end = 0, len(scores)
        taus = np.empty(end)
        while pos < end:
            played = []
            append = played.append
            for score in scores[pos:].tolist():
                if beta <= floor and n and end - pos - len(played) >= MIN_STRETCH:
                    break
                append(tau)
                if score >= tau:
                    beta += covered_step
                    n += 1
                    if score >= pivot:
                        high.append(score)
                    else:
                        insort(low, score)
                        if len(low) > cap:
                            pivot, cap = _split(low, high, m)
                else:
                    beta += missed_step
                if not n:
                    tau = NEG_INF
                elif beta >= 1.0:
                    tau = POS_INF
                else:
                    # order_index(n, max(beta, 0.0)), inlined: truncate,
                    # clamp, then the LEVEL_TOL walk.  It is 0 at beta <= 0,
                    # since order_index(n, 0.0) is 0 for n < 1/LEVEL_TOL
                    m = int(n * beta) if beta > 0.0 else 0
                    if m >= n:
                        m = n - 1
                    while m + 1 < n and (m + 1) / n <= beta + LEVEL_TOL:
                        m += 1
                    try:
                        tau = low[m]
                    except IndexError:
                        pivot, cap = _split(low, high, m)
                        tau = low[m]
            taus[pos:pos + len(played)] = played
            pos += len(played)
            if pos == end:
                break
            # Clamped: at beta <= 0, tau is low[0], and every covered
            # score is >= tau and goes after it.  So tau holds until
            # beta > 0; play those rounds as columns, with the split made
            # first so that only the scores below the pivot are sorted
            if pivot == POS_INF:
                pivot, cap = _split(low, high, 0)
            seg = scores[pos:]
            covered = seg >= tau
            # a left fold: the loop's own additions, in its order
            betas = np.add.accumulate(np.concatenate(
                ([beta], np.where(covered, covered_step, missed_step))))
            # the stretch stops before the round that lifts beta above 0;
            # that round, when the block holds it, is played by the loop
            rising = betas[1:] > 0.0
            span = int(rising.argmax()) if rising.any() else len(seg)
            taus[pos:pos + span] = tau
            new = seg[:span][covered[:span]]
            below = new < pivot
            if below.any():
                # a stable sort leaves ties where insort_right puts them
                added = new[below].tolist()
                low += added
                low.sort()
                # only single inserts count towards a split
                cap += len(added)
            high += new[~below].tolist()
            n += new.size
            beta = betas[span].item()
            pos += span
        self._pivot, self._cap = pivot, cap
        self.t += end
        self.beta = beta
        self.tau = tau
        return taus


def _split(low: list[float], high: list[float], m: int) -> tuple[float, int]:
    """Move scores between `low` and `high` so that low holds tau's index m.

    low is left with the m + 1 + n // 8 least scores, and any ties of the
    last of them: an eighth of the scores past m, so that the index,
    which moves with beta and n, stays in low for a while.  Returns the
    new pivot, which every score in low is below and every score in high
    is at or above (+inf, which `play` takes as no split, may have +inf
    in low, all of it observed before any +inf in high), and the length
    of low at which to split again.
    """
    high.sort()
    n = len(low) + len(high)
    target = min(n, m + 1 + n // 8)
    if target > len(low):
        k = bisect_right(high, high[target - len(low) - 1])
        low += high[:k]
        del high[:k]
    elif target:
        k = bisect_right(low, low[target - 1])
        high[:0] = low[k:]
        del low[k:]
    return (high[0] if high else POS_INF), 2 * len(low) + MIN_STRETCH


class DlrPolicy(Policy):
    """Gradient steps on tau with decaying rate eta_t = t^(-0.6)."""

    def __init__(self, spec: PolicySpec):
        super().__init__(spec)
        self.tau = spec.tau_init

    def play(self, scores: np.ndarray) -> np.ndarray:
        exponent = -(0.5 + DLR_EXPONENT_OFFSET)
        covered_step = (1.0 - self.alpha) - 0.0
        missed_step = (1.0 - self.alpha) - 1.0
        t = self.t
        tau = self.tau
        taus = []
        append = taus.append
        for score in scores.tolist():
            append(tau)
            t += 1
            eta = t ** exponent
            tau += eta * (covered_step if score >= tau else missed_step)
        self.t = t
        self.tau = tau
        return np.array(taus, dtype=np.float64)


class EtcPolicy(Policy):
    """Explore for m rounds at tau = -inf, then commit once.

    During exploration every score is observed, so the ECDF holds raw
    scores.  The commit is the cutoff with band width `epsilon`, as in
    `SpsPolicy`: here 0.0, the plain empirical sup-quantile.
    """

    epsilon: float | None = 0.0

    def __init__(self, spec: PolicySpec):
        super().__init__(spec)
        self.explore_rounds = spec.explore_rounds
        self.ecdf = TruncatedEcdf(spec.horizon)

    def play(self, scores: np.ndarray) -> np.ndarray:
        m = self.explore_rounds
        explore = min(max(m - self.t, 0), len(scores))
        tau = self.tau
        self.ecdf.extend([score if score >= tau else tau
                          for score in scores[:explore].tolist()])
        if explore and self.t + explore == m:
            self.tau = self.ecdf.conformal_cutoff(self.alpha, self.epsilon)
        self.t += len(scores)
        taus = np.empty(len(scores))
        taus[:explore] = tau
        taus[explore:] = self.tau
        return taus


class ConEtcPolicy(EtcPolicy):
    """ETC committing to the banded (conservative) sup-quantile."""

    epsilon = None


_BUILDERS = {
    "sps": SpsPolicy,
    "greedy": GreedyPolicy,
    "aci": AciPolicy,
    "dlr": DlrPolicy,
    "etc": EtcPolicy,
    "con_etc": ConEtcPolicy,
}
