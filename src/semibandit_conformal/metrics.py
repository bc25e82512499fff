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


# Constant stretches shorter than this take scalar steps: a grid run costs
# about as much as ten of them.
MIN_GRID_RUN = 12

# Grid runs need |x/u - (r + 1/2)| above this: the float error of the sum
# and of x/u is below 3.4e-4 grid units, so the rounding is then decided.
HALF_UNIT_MARGIN = 1e-3


def _step(c: float, x: float) -> float:
    return float(f"{c + x:.12g}")


def _grid_run(out, k: int, end: int, c: float, x: float) -> int:
    """Write steps c <- _step(c, x) on c's 12-digit grid into out[k:end].

    c = N * u with u = 10**(e-11) for c in [10**e, 10**(e+1)).  While the
    sum stays in that decade, each step adds r = round(x/u) grid units, so
    step j is (N + j*r) / 10**(11-e): one correctly rounded division of
    exact integers, as `float` of the 12-digit string is.  Returns how
    many steps were written, up to the decade edge.  0 means the rule is
    unproven here and one scalar step must be taken: c is not positive, x
    is negative, either is not finite or not 12-digit rounded, 11-e is
    outside [0, 22] (10**22 is the largest exact power of ten), x/u is
    within HALF_UNIT_MARGIN of a half unit, or the first step leaves the
    decade.
    """
    if not (0.0 < c < POS_INF and 0.0 <= x < POS_INF and _step(0.0, x) == x):
        return 0
    digits, _, exponent = f"{c:.11e}".partition("e")
    shift = 11 - int(exponent)
    if not 0 <= shift <= 22:
        return 0
    scale = float(10 ** shift)
    n = int(digits.replace(".", ""))
    if n / scale != c:
        return 0
    q = x * scale
    if not q < 10**12 or abs(q - math.floor(q) - 0.5) <= HALF_UNIT_MARGIN:
        return 0
    r = math.floor(q + 0.5)
    if not r:
        out[k:end] = c
        return end - k
    m = min(end - k, (10**12 - 1 - n) // r)
    if m:
        np.divide(np.arange(n + r, n + r * m + 1, r, dtype=np.int64), scale,
                  out=out[k:k + m])
    return m


def cum_regret(inst) -> np.ndarray:
    """Running sum of a per-round regret column, folded in round order.

    Each step rounds the sum at 12 significant digits, the CSV precision,
    so a reader re-summing the emitted trace reproduces cum_regret exactly:
    c_1 = x_1 and c_t = float(f"{c_{t-1} + x_t:.12g}").  The result is that
    fold bit for bit, but a constant stretch of x of length MIN_GRID_RUN or
    more is folded as grid runs (`_grid_run`).  Let c lie in the decade
    [10**e, 10**(e+1)) on the grid u = 10**(e-11), and let x be finite,
    nonnegative and 12-digit rounded.  Then every step inside the decade
    adds the same r = round(x/u) grid units.  Where that is unproven the
    scalar step is taken: on the first round, on short stretches, and
    where x, c, the exponent, a half-unit tie or a decade edge rules the
    grid run out.
    """
    inst = np.asarray(inst, dtype=float)
    out = np.empty(len(inst))
    if not len(inst):
        return out
    bits = inst.view(np.int64)
    edges = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    starts = np.concatenate(([1], edges[edges > 1]))
    ends = np.append(starts[1:], len(inst))
    long = ends - starts >= MIN_GRID_RUN
    c = out[0] = float(inst[0])
    pos = 1
    for start, end in zip(starts[long].tolist(), ends[long].tolist()):
        c = _fold_scalar(inst, out, pos, start, c)
        x = float(inst[start])
        k = start
        while k < end:
            m = _grid_run(out, k, end, c, x)
            if m:
                k += m
                c = float(out[k - 1])
            else:
                c = out[k] = _step(c, x)
                k += 1
        pos = end
    _fold_scalar(inst, out, pos, len(inst), c)
    return out


def _fold_scalar(inst, out, start: int, end: int, c: float) -> float:
    """Fold inst[start:end] step by step into out, from running sum c."""
    if start < end:
        fold = accumulate(inst[start:end].tolist(), _step, initial=c)
        next(fold)
        out[start:end] = np.fromiter(fold, dtype=float, count=end - start)
        c = float(out[end - 1])
    return c


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
