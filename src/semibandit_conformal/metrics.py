"""Evaluation quantities: asymmetric loss, regret, coverage, safety count.

The loss is a piecewise-linear function of the oracle miscoverage
G*(tau): a mild slope lambda1 on the overcovering side
(G*(tau) <= 1 - alpha) and a steep slope lambda2 on the undercovering
side.  It is nonpositive, zero exactly at the target miscoverage, and
K-Lipschitz in G* with K = max(lambda1, lambda2).

Regret is computed as columns and rounded at 12 significant digits, the
CSV precision: `inst_regret` per round (rounded by `round12`), and
`cum_regret` as the running sum rounded at every step, in integer grid
sums.  Each column is bit for bit what the per-value f-string rule gives.
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
    the oracle achieves the target miscoverage exactly.  Each value is
    rounded at 12 significant digits, the CSV precision (see `round12`
    and `cum_regret`).  The loss is taken once per stretch of one repeated
    threshold: as columns when gstar has a `cdf_column` (a
    `ScoreDistribution` numpy reproduces bit for bit), else by `loss_phi`
    once per distinct threshold.  `loss_phi` always gives phi(tau*), and
    gstar may be any callable G*(x).
    """
    tau = np.asarray(tau, dtype=float)
    first = np.empty(len(tau), dtype=bool)
    first[:1] = True
    np.not_equal(tau[1:], tau[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    stretches = tau[starts]
    phi_star = loss_phi(tau_star, gstar, params)
    column = getattr(gstar, "cdf_column", None)
    if column is None:
        distinct, where = np.unique(stretches, return_inverse=True)
        phi = np.array([loss_phi(x, gstar, params) for x in distinct.tolist()])[where]
    else:
        # loss_phi's formula elementwise, bit for bit
        g = np.where(stretches == NEG_INF, 0.0,
                     np.where(stretches == POS_INF, 1.0, column(stretches)))
        gap = g - (1.0 - params.alpha)
        phi = np.where(gap <= 0.0, -params.lambda1 * np.abs(gap),
                       -params.lambda2 * np.abs(gap))
    regret = round12(np.abs(phi_star - phi))
    return np.repeat(regret, np.diff(starts, append=len(tau)))


# Rounds one grid run looks at: 16 times as many as the last run wrote,
# within these bounds.  A run ends at its decade edge, and the next decade
# takes about 10 times as many rounds.  A fold that goes on from an earlier
# sum starts at the largest window, as that sum has been growing already.
GRID_WINDOW_MIN = 64
GRID_WINDOW_MAX = 4096

# Grid runs and `round12` need |x/u - (r + 1/2)| above this: the float
# error of the sum and of x/u is below 3.4e-4 grid units, so the rounding
# is then decided.
HALF_UNIT_MARGIN = 1e-3

# 10**s for s = 0..22, each exact (10**22 is the largest exact power of ten)
_POWERS_OF_TEN = 10.0 ** np.arange(23)


def round12(y) -> np.ndarray:
    """float(f"{v:.12g}") for each v of a float64 column, bit for bit.

    With e = floor(log10(v)) and s = 11 - e, q = v * 10**s carries one
    rounding of at most 1.2e-4 units below 10**12, and the 12-digit value
    of v is r / 10**s for r = floor(q + 1/2), as `float` of the string and
    the division round the same exact quotient.  That holds when 10**s is
    exact (0 <= s <= 22), q >= 10**11 and r < 10**12 (v's first 12 digits
    are r's, or a q a hair under 10**11 rounds up to it all the same), and
    q is more than HALF_UNIT_MARGIN from a half unit (the rounding is
    decided).  Zeros are kept.  Every other value (NaN, inf, negative,
    below 1e-11, at least 10**12, or near a half unit) takes the f-string,
    once per distinct value.
    """
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = 11.0 - np.floor(np.log10(y))
        exact = (shift >= 0.0) & (shift <= 22.0)
        scale = _POWERS_OF_TEN[np.where(exact, shift, 0.0).astype(np.intp)]
        q = y * scale
        r = np.floor(q + 0.5)
        exact &= (q >= 1e11) & (r < 1e12) & (np.abs(q - np.floor(q) - 0.5) > HALF_UNIT_MARGIN)
        out = np.where(exact, r / scale, y)
    rest = np.flatnonzero(~exact & (y != 0.0))
    if len(rest):
        values, where = np.unique(y[rest], return_inverse=True)
        out[rest] = np.array([float(f"{v:.12g}") for v in values.tolist()])[where]
    return out


def _step(c: float, x: float) -> float:
    return float(f"{c + x:.12g}")


def _grid(c: float) -> tuple[int, float] | None:
    """(N, 10**(11-e)) with c = N / 10**(11-e) exactly, for c in
    [10**e, 10**(e+1)) of 12 significant digits; None when c is not
    positive, not finite or not 12-digit rounded, or 11-e is outside
    [0, 22] (10**22 is the largest exact power of ten)."""
    if not 0.0 < c < POS_INF:
        return None
    digits, _, exponent = f"{c:.11e}".partition("e")
    shift = 11 - int(exponent)
    if not 0 <= shift <= 22:
        return None
    scale = float(10 ** shift)
    n = int(digits.replace(".", ""))
    return (n, scale) if n / scale == c else None


def _grid_run(out, inst, k: int, end: int, c: float) -> int:
    """Write steps c <- _step(c, x) for x in inst[k:end] on c's 12-digit grid.

    c = N * u with u = 10**(e-11) for c in [10**e, 10**(e+1)).  While the
    sum stays in that decade, the step by x adds r = round(x/u) grid
    units, so the sum after steps k..j is (N + r_k + ... + r_j) /
    10**(11-e): one correctly rounded division of exact integers, as
    `float` of the 12-digit string is.  The errors of c, of the float sum
    and of x/u come to below 3.4e-4 units whatever the digits of x.
    A step whose x/u is within HALF_UNIT_MARGIN of a half unit is taken
    as `_step` in place, and the sums after it carry its result.  Writes
    out[k:] and returns how many steps were written: up to the decade
    edge, or to the first x that is negative, not finite or at least
    10**12 units.  0 means the rule is unproven here and scalar steps
    must be taken: that first x is at k, the first step is a half-unit
    tie, c has no grid (see `_grid`), or the first step leaves the
    decade.
    """
    grid = _grid(c)
    if grid is None:
        return 0
    n, scale = grid
    x = inst[k:end]
    q = x * scale
    with np.errstate(invalid="ignore"):
        # NaN fails both comparisons, +inf the second (its inf - inf warns)
        valid = (x >= 0.0) & (q < 10.0**12)
        ties = np.abs(q - np.floor(q) - 0.5) <= HALF_UNIT_MARGIN
    stop = len(x) if valid.all() else int(valid.argmin())
    r = np.floor(q[:stop] + 0.5).astype(np.int64)
    tied = np.flatnonzero(ties[:stop]).tolist()
    if tied:
        if not tied[0]:
            return 0
        # a step within HALF_UNIT_MARGIN of a half unit is the scalar
        # step; `moved` is what those steps changed the prefix sums by
        sums = np.cumsum(r)
        moved = 0
        for j in tied:
            units = n + int(sums[j - 1]) + moved
            if units > 10**12 - 1:
                break
            stepped = _step(units / scale, float(x[j]))
            after = round(stepped * scale)
            if not (after <= 10**12 - 1 and after / scale == stepped):
                stop = j
                break
            moved += after - units - int(r[j])
            r[j] = after - units
    units = n + np.cumsum(r[:stop])
    m = int(np.searchsorted(units, 10**12 - 1, side="right"))
    np.divide(units[:m], scale, out=out[k:k + m])
    return m


def cum_regret(inst, before: float | None = None) -> np.ndarray:
    """Running sum of a per-round regret column, folded in round order.

    Each step rounds the sum at 12 significant digits, the CSV precision,
    so a reader re-summing the emitted trace reproduces cum_regret exactly:
    c_1 = x_1 and c_t = float(f"{c_{t-1} + x_t:.12g}").  With `before`, the
    running sum of the rounds ahead of inst[0], the fold goes on from it,
    c_1 = float(f"{before + x_1:.12g}"), so a column folded piece by piece,
    each piece from the last sum of the one before, is the column folded
    whole.  The result is that fold bit for bit, taken as grid runs
    (`_grid_run`) of up to GRID_WINDOW_MAX rounds: while c stays in the
    decade [10**e, 10**(e+1)) of the grid u = 10**(e-11), each step adds
    r_t = round(x_t/u) grid units, so the sums are integer prefix sums,
    whether x varies or repeats.  Where that is unproven this loop takes
    the scalar step: on the first round, at a half-unit tie, at the step
    that leaves a decade (every grid run ends at its decade edge), and
    wherever x or c rules the grid out.  A stretch of zeros from a zero c,
    where c has no grid, is one IEEE running sum: each step adds two
    zeros, which gives -0.0 only while every term is -0.0, and the
    12-digit rounding keeps it.
    """
    inst = np.asarray(inst, dtype=float)
    out = np.empty(len(inst))
    if not len(inst):
        return out
    if before is None:
        k = 1
        out[0] = c = float(inst[0])
    else:
        k, c = 0, float(before)
    if c == 0.0:
        nonzero = inst[k:] != 0.0
        zeros = int(nonzero.argmax()) if nonzero.any() else len(nonzero)
        if zeros:
            np.add.accumulate(inst[k:k + zeros], out=out[k:k + zeros])
            out[k:k + zeros] += c
            k += zeros
            c = float(out[k - 1])
    window = GRID_WINDOW_MIN if before is None else GRID_WINDOW_MAX
    # scalar steps after a grid run that stopped short: one, or twice as
    # many as last time when the run could not start
    scalar = 1
    while k < len(inst):
        end = min(k + window, len(inst))
        m = _grid_run(out, inst, k, end, c)
        window = min(GRID_WINDOW_MAX, max(GRID_WINDOW_MIN, 16 * m))
        if m:
            k += m
            c = float(out[k - 1])
            scalar = 1
        if k < end:
            stop = min(k + scalar, len(inst))
            c = _fold_scalar(inst, out, k, stop, c)
            k = stop
            if not m:
                scalar *= 2
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
               params: LossParams, before: float | None = None) -> "RunColumns":
        """Fill in the regret and undercoverage columns of a played run, or
        of a stretch of one whose earlier rounds summed to cum_regret
        `before` (see `cum_regret`)."""
        inst = inst_regret(tau, tau_star, gstar, params)
        return cls(tau, covered, set_size, inst, cum_regret(inst, before), tau > tau_star)


def regret_bound(horizon: int, k: float, phi_max: float) -> float:
    """Closed-form worst-case cumulative regret at the given horizon."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    log_t = math.log(horizon)
    return k * (2.0 * log_t + 4.0 * math.sqrt(horizon * log_t) + 1.0) + 4.0 * phi_max
