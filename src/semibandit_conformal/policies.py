"""Threshold policies behind a uniform propose/update contract.

Each policy proposes a threshold tau for the round; labels scoring at or
above tau are in the prediction set.  After the round it receives a
FeedbackEvent: either the true score (observed, because it was >= tau) or
a miss indicator whose recorded substitute is the threshold itself.

Policies:

* sps      -- banded sup-quantile of the truncated ECDF, thresholds
              constrained to be nondecreasing.  Never undercovers with
              high probability.
* greedy   -- same truncated ECDF but no band and no monotonicity.
* aci      -- adaptive miscoverage budget; quantile function built from
              observed scores only (biased under semi-bandit feedback).
* dlr      -- decaying-learning-rate gradient steps directly on tau.
* etc      -- explore (tau = -inf) for m rounds, then commit to the plain
              empirical sup-quantile.
* con_etc  -- explore-then-commit using the banded sup-quantile.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass

from .cdf_band import NEG_INF, TruncatedEcdf, sup_quantile

POLICY_KINDS = ("sps", "greedy", "aci", "dlr", "etc", "con_etc")

# Default grids for the swept hyperparameters (see harness.run_batch).
ACI_GAMMA_GRID = (0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128)
ETC_M_GRID = (100, 250, 500, 1000)

DLR_EXPONENT_OFFSET = 0.1  # step size eta_t = t^(-1/2 - offset)


class PolicyContractError(RuntimeError):
    """Feedback inconsistent with the threshold the policy proposed."""


class PolicyConfigError(ValueError):
    """Invalid policy specification."""


@dataclass(frozen=True)
class FeedbackEvent:
    """One round of semi-bandit feedback.

    observed -- whether the true score was revealed (score >= threshold)
    recorded -- the value entered into the policy's running estimate:
                the true score when observed, else the round's threshold
    score    -- the true score, present iff observed
    """

    observed: bool
    recorded: float
    score: float | None = None

    def __post_init__(self):
        if self.observed != (self.score is not None):
            raise ValueError("score must be present iff observed")
        if self.observed and self.recorded != self.score:
            raise ValueError("recorded must equal score when observed")


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
        if self.horizon < 2:
            raise PolicyConfigError(f"horizon must be >= 2, got {self.horizon}")
        if self.kind == "aci":
            if self.gamma is None or self.gamma <= 0:
                raise PolicyConfigError("aci requires gamma > 0")
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
    `update` consumes the round's feedback.  The round index `t` counts
    completed updates.
    """

    def __init__(self, spec: PolicySpec):
        self.spec = spec
        self.alpha = spec.alpha
        self.t = 0
        self.tau = NEG_INF

    def propose(self) -> float:
        return self.tau

    def update(self, feedback: FeedbackEvent) -> None:
        self._check_feedback(feedback)
        self.t += 1
        self._apply(feedback)

    def _check_feedback(self, fb: FeedbackEvent) -> None:
        if not fb.observed and fb.recorded != self.tau:
            raise PolicyContractError(
                f"miss round must record the proposed threshold {self.tau}, "
                f"got {fb.recorded}"
            )
        if fb.observed and fb.score < self.tau:
            raise PolicyContractError(
                f"observed score {fb.score} below proposed threshold {self.tau}"
            )

    def _apply(self, fb: FeedbackEvent) -> None:
        raise NotImplementedError


class SpsPolicy(Policy):
    """Banded cutoff on the truncated ECDF; thresholds never decrease."""

    def __init__(self, spec: PolicySpec):
        super().__init__(spec)
        self.ecdf = TruncatedEcdf(spec.horizon)

    def _apply(self, fb: FeedbackEvent) -> None:
        self.ecdf.insert(fb.recorded)
        cutoff = self.ecdf.conformal_cutoff(self.alpha)
        if cutoff > self.tau:
            self.tau = cutoff


class GreedyPolicy(Policy):
    """Plain empirical sup-quantile of the truncated ECDF, no band.

    May both undercover and decrease across rounds; included as the
    natural but unsafe baseline.
    """

    def __init__(self, spec: PolicySpec):
        super().__init__(spec)
        self.ecdf = TruncatedEcdf(spec.horizon)

    def _apply(self, fb: FeedbackEvent) -> None:
        self.ecdf.insert(fb.recorded)
        self.tau = self.ecdf.conformal_cutoff(self.alpha, epsilon=0.0)


class AciPolicy(Policy):
    """Adaptive miscoverage budget with an observed-scores-only ECDF.

    Budget update: beta_{t+1} = beta_t + gamma * ((1 - alpha) - err_t),
    beta_1 = 1 - alpha, err_t = 1 on a miss.  The quantile query clamps
    beta to [0,1] but the budget itself may drift outside.  The score
    ECDF is only extended on observed rounds, which is exactly the biased
    update this baseline is meant to exhibit.
    """

    def __init__(self, spec: PolicySpec):
        super().__init__(spec)
        self.beta = 1.0 - spec.alpha
        self.observed_scores: list[float] = []

    def _apply(self, fb: FeedbackEvent) -> None:
        err = 0.0 if fb.observed else 1.0
        self.beta += self.spec.gamma * ((1.0 - self.alpha) - err)
        if fb.observed:
            insort(self.observed_scores, fb.score)
        if not self.observed_scores:
            self.tau = NEG_INF
        else:
            level = min(max(self.beta, 0.0), 1.0)
            self.tau = sup_quantile(self.observed_scores, level)


class DlrPolicy(Policy):
    """Gradient steps on tau with decaying rate eta_t = t^(-0.6)."""

    def __init__(self, spec: PolicySpec):
        super().__init__(spec)
        self.tau = spec.tau_init

    def _apply(self, fb: FeedbackEvent) -> None:
        eta = self.t ** (-(0.5 + DLR_EXPONENT_OFFSET))
        err = 0.0 if fb.observed else 1.0
        self.tau += eta * ((1.0 - self.alpha) - err)


class EtcPolicy(Policy):
    """Explore for m rounds at tau = -inf, then commit once.

    During exploration every score is observed, so the buffer holds raw
    scores.  The commit is the plain empirical sup-quantile.
    """

    def __init__(self, spec: PolicySpec):
        super().__init__(spec)
        self.explore_rounds = spec.explore_rounds
        self.buffer: list[float] = []

    def _apply(self, fb: FeedbackEvent) -> None:
        if self.t <= self.explore_rounds:
            insort(self.buffer, fb.recorded)
            if self.t == self.explore_rounds:
                self.tau = self._commit()

    def _commit(self) -> float:
        return sup_quantile(self.buffer, 1.0 - self.alpha)


class ConEtcPolicy(EtcPolicy):
    """ETC committing to the banded (conservative) sup-quantile."""

    def __init__(self, spec: PolicySpec):
        super().__init__(spec)
        self.ecdf = TruncatedEcdf(spec.horizon)

    def _apply(self, fb: FeedbackEvent) -> None:
        if self.t <= self.explore_rounds:
            self.ecdf.insert(fb.recorded)
        super()._apply(fb)

    def _commit(self) -> float:
        return self.ecdf.conformal_cutoff(self.alpha)


_BUILDERS = {
    "sps": SpsPolicy,
    "greedy": GreedyPolicy,
    "aci": AciPolicy,
    "dlr": DlrPolicy,
    "etc": EtcPolicy,
    "con_etc": ConEtcPolicy,
}
