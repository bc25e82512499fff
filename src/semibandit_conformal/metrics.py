"""Evaluation quantities: asymmetric loss, regret, coverage, safety count.

The loss is a piecewise-linear function of the oracle miscoverage
G*(tau): a mild slope lambda1 on the overcovering side
(G*(tau) <= 1 - alpha) and a steep slope lambda2 on the undercovering
side.  It is nonpositive, zero exactly at the target miscoverage, and
K-Lipschitz in G* with K = max(lambda1, lambda2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .cdf_band import NEG_INF, POS_INF


@dataclass(frozen=True)
class LossParams:
    lambda1: float = 0.1
    lambda2: float = 10.0
    alpha: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.lambda1 < self.lambda2:
            raise ValueError(
                f"need 0 < lambda1 < lambda2, got ({self.lambda1}, {self.lambda2})"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")

    @property
    def lipschitz_k(self) -> float:
        return max(self.lambda1, self.lambda2)

    @property
    def phi_max(self) -> float:
        """sup |phi|: the worse of the two extreme miscoverage gaps."""
        return max(self.lambda1 * (1.0 - self.alpha), self.lambda2 * self.alpha)


def loss_phi(tau: float, gstar, params: LossParams) -> float:
    """Nonpositive loss of playing threshold tau against oracle CDF gstar.

    tau = -inf maps to miscoverage 0 (every label in the set); +inf to 1.
    """
    if tau == NEG_INF:
        g = 0.0
    elif tau == POS_INF:
        g = 1.0
    else:
        g = float(gstar(tau))
    gap = g - (1.0 - params.alpha)
    if gap <= 0.0:
        return -params.lambda1 * abs(gap)
    return -params.lambda2 * abs(gap)


def inst_regret(tau, tau_star: float, gstar, params: LossParams) -> np.ndarray:
    """Per-round regret |phi(tau*) - phi(tau_t)| over a column of thresholds.

    Nonnegative by construction; equals phi(tau*) - phi(tau_t) whenever
    the oracle achieves the target miscoverage exactly.  `loss_phi` runs
    once per distinct threshold, and each value is rounded at 12
    significant digits, the CSV precision (see `cum_regret`).
    """
    distinct, where = np.unique(np.asarray(tau, dtype=float), return_inverse=True)
    phi_star = loss_phi(tau_star, gstar, params)
    regret = [float(f"{abs(phi_star - loss_phi(x, gstar, params)):.12g}")
              for x in distinct.tolist()]
    return np.array(regret, dtype=float)[where]


def cum_regret(inst) -> np.ndarray:
    """Running sum of a per-round regret column, folded in round order."""
    # round at 12 significant digits (the CSV precision) each step, so a
    # reader re-summing the emitted trace reproduces cum_regret exactly
    fold = accumulate(np.asarray(inst).tolist(), lambda c, x: float(f"{c + x:.12g}"))
    return np.fromiter(fold, dtype=float, count=len(inst))


def coverage_rate(covered) -> np.ndarray:
    """Running coverage: entry t-1 is the covered fraction of rounds 1..t."""
    if not len(covered):
        raise ValueError("coverage_rate of an empty trace is undefined")
    return np.cumsum(covered) / np.arange(1, len(covered) + 1)


def undercoverage_count(undercover) -> np.ndarray:
    """Running count of undercovering rounds (tau_t > tau*) up to each t."""
    return np.cumsum(undercover)


@dataclass(frozen=True, eq=False)
class RunColumns:
    """One run as per-round numpy columns; entry t-1 holds round t."""

    tau: np.ndarray              # float64 thresholds played, -inf / +inf allowed
    covered: np.ndarray          # bool: the score cleared tau, the label is in the set
    set_size: np.ndarray | None  # int64 candidates >= tau, -1 on a round without
                                 # candidates; None when no round had any
    inst_regret: np.ndarray      # float64, see `inst_regret`
    cum_regret: np.ndarray       # float64, see `cum_regret`
    undercover: np.ndarray       # bool: tau > tau*

    @classmethod
    def derive(cls, tau, covered, set_size, tau_star: float, gstar,
               params: LossParams) -> "RunColumns":
        """Fill in the regret and undercoverage columns of a played run."""
        inst = inst_regret(tau, tau_star, gstar, params)
        return cls(tau, covered, set_size, inst, cum_regret(inst), tau > tau_star)


def regret_bound(horizon: int, k: float, phi_max: float) -> float:
    """Closed-form worst-case cumulative regret at the given horizon."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    log_t = math.log(horizon)
    return k * (2.0 * log_t + 4.0 * math.sqrt(horizon * log_t) + 1.0) + 4.0 * phi_max
