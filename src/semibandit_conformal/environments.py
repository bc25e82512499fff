"""Score-generating environments and the semi-bandit observation rule.

Three families, each behind one `ScoreDistribution`:

* synthetic   -- closed-form distributions (uniform, gaussian, beta, and
                 a finite point mixture); the oracle CDF and tau* are
                 analytic.
* score_log   -- replay of a CSV of precomputed ground-truth scores
                 (with optional per-row candidate scores for set-size
                 reporting); the oracle is the log's `EmpiricalDist`.
* auction     -- repeated second-price auctions where the hidden score is
                 the round's highest bid; bids come from a parametric
                 value distribution or a bid pool's `EmpiricalDist`.

Environments hold no state.  `draw(rng, n)` is their one sampling rule:
it returns the next n rounds as a score column and a candidate matrix,
and only the generator advances.  `next_round(rng)`, the score of
`draw(rng, 1)`, serves a per-round loop.

Score-log CSV schema: header ``round_id,gt_score[,cand_0,cand_1,...]``,
UTF-8 (a leading byte-order mark is skipped), decimal scores.  Bid-pool
CSV: one bid value per line, the same encoding.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from statistics import NormalDist

import numpy as np

from .cdf_band import NEG_INF, POS_INF, sup_quantile


class EnvironmentConfigError(ValueError):
    """Invalid environment specification or data file."""


class RunExhaustedError(RuntimeError):
    """A without-replacement score log ran out before the horizon."""


# ---------------------------------------------------------------------------
# Score distributions (shared by all three environment families)
# ---------------------------------------------------------------------------


class ScoreDistribution:
    """Sampling plus exact CDF / sup-quantile for one distribution.

    Called at a score, a distribution gives its CDF there, so it serves as
    the oracle G* of `metrics.loss_phi`.  A distribution whose CDF numpy
    computes bit for bit as a float does has `cdf_column`, which maps a
    float64 column elementwise to exactly the values `cdf` gives; the
    others leave it None.
    """

    cdf_column = None

    def __call__(self, x: float) -> float:
        return self.cdf(x)

    def sample(self, rng: np.random.Generator, size=None):
        """One draw when `size` is None, else an array of that shape.

        numpy's generator gives the same stream for n single draws as for
        one draw of size n, so both forms follow one rule.
        """
        raise NotImplementedError

    def cdf(self, x: float) -> float:
        """G(x) at one score: `cdf_column` at x, where there is one."""
        return float(self.cdf_column(x))

    def sup_quantile(self, level: float) -> float:
        """sup{ x : cdf(x) <= level }; -inf / +inf outside [0,1), else the
        subclass's `_sup(level)`."""
        if level < 0.0:
            return NEG_INF
        if level >= 1.0:
            return POS_INF
        return self._sup(level)

    @property
    def support(self) -> tuple[float, float]:
        raise NotImplementedError


class UniformDist(ScoreDistribution):
    def __init__(self, a: float, b: float):
        if not b > a:
            raise EnvironmentConfigError(f"uniform needs b > a, got ({a}, {b})")
        self.a, self.b = float(a), float(b)

    def sample(self, rng, size=None):
        return rng.uniform(self.a, self.b, size)

    def cdf_column(self, x):
        return np.where(x <= self.a, 0.0,
                        np.where(x >= self.b, 1.0, (x - self.a) / (self.b - self.a)))

    def _sup(self, level):
        return self.a + level * (self.b - self.a)

    @property
    def support(self):
        return (self.a, self.b)


class GaussianDist(ScoreDistribution):
    def __init__(self, mu: float, sigma: float):
        if not sigma > 0:
            raise EnvironmentConfigError(f"gaussian needs sigma > 0, got {sigma}")
        self.mu, self.sigma = float(mu), float(sigma)
        self._dist = NormalDist(self.mu, self.sigma)

    def sample(self, rng, size=None):
        return rng.normal(self.mu, self.sigma, size)

    def cdf(self, x):
        return self._dist.cdf(x)

    def _sup(self, level):
        if level == 0.0:
            return NEG_INF  # gaussian has unbounded lower support
        return self._dist.inv_cdf(level)

    @property
    def support(self):
        return (NEG_INF, POS_INF)


class BetaDist(ScoreDistribution):
    def __init__(self, p: float, q: float):
        if not (p > 0 and q > 0):
            raise EnvironmentConfigError(f"beta needs p, q > 0, got ({p}, {q})")
        self.p, self.q = float(p), float(q)

    def sample(self, rng, size=None):
        return rng.beta(self.p, self.q, size)

    def cdf(self, x):
        from scipy.stats import beta as beta_dist

        return float(beta_dist.cdf(x, self.p, self.q))

    def _sup(self, level):
        from scipy.stats import beta as beta_dist

        return float(beta_dist.ppf(level, self.p, self.q))

    @property
    def support(self):
        return (0.0, 1.0)


class PointMixtureDist(ScoreDistribution):
    """Finite mixture of point masses (a discrete score distribution).

    `cumulative[i]` is the mass of the i lowest atoms, summed left to
    right; `cdf_column` (and through it `cdf`) and `sup_quantile` read it.  (Python
    3.12's builtin `sum` is compensated, and ten weights of 0.1 sum to
    1.0 there but to 0.9999999999999999 left to right.)
    """

    def __init__(self, atoms, weights):
        atoms = [float(a) for a in atoms]
        weights = [float(w) for w in weights]
        if len(atoms) != len(weights) or not atoms:
            raise EnvironmentConfigError("pointmix needs matching nonempty atoms/weights")
        if any(w <= 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
            raise EnvironmentConfigError("pointmix weights must be positive and sum to 1")
        order = sorted(range(len(atoms)), key=lambda i: atoms[i])
        self.atoms = [atoms[i] for i in order]
        self.weights = [weights[i] for i in order]
        self.cumulative = list(accumulate(self.weights, initial=0.0))
        self._atoms_column = np.array(self.atoms)
        self._cumulative_column = np.array(self.cumulative)

    def sample(self, rng, size=None):
        return rng.choice(self.atoms, size, p=self.weights)

    def cdf_column(self, x):
        return self._cumulative_column[np.searchsorted(self._atoms_column, x, side="right")]

    def _sup(self, level):
        # the lowest atom whose cumulative mass exceeds the level
        i = bisect_right(self.cumulative, level)
        return self.atoms[i - 1] if i < len(self.cumulative) else POS_INF

    @property
    def support(self):
        return (self.atoms[0], self.atoms[-1])


class EmpiricalDist(ScoreDistribution):
    """Uniform draws from a finite sample; the CDF is its empirical CDF."""

    def __init__(self, values):
        self.values = np.sort(np.asarray(values, dtype=np.float64))
        if not len(self.values):
            raise EnvironmentConfigError("an empirical distribution needs a value")

    def sample(self, rng, size=None):
        return self.values[rng.integers(len(self.values), size=size)]

    def cdf_column(self, x):
        return np.searchsorted(self.values, x, side="right") / len(self.values)

    def sup_quantile(self, level):
        return sup_quantile(self.values, level)

    @property
    def support(self):
        return (float(self.values[0]), float(self.values[-1]))


_DISTRIBUTIONS = {
    "uniform": (UniformDist, ("a", "b")),
    "gaussian": (GaussianDist, ("mu", "sigma")),
    "beta": (BetaDist, ("p", "q")),
    "pointmix": (PointMixtureDist, ("atoms", "weights")),
}
DISTRIBUTION_PARAMS = {name: keys for name, (_, keys) in _DISTRIBUTIONS.items()}


def make_distribution(name: str, params: dict) -> ScoreDistribution:
    if name not in _DISTRIBUTIONS:
        raise EnvironmentConfigError(f"unknown distribution {name!r}")
    cls, keys = _DISTRIBUTIONS[name]
    missing = [k for k in keys if k not in params]
    if missing:
        raise EnvironmentConfigError(f"distribution {name!r} missing params {missing}")
    return cls(*(params[k] for k in keys))


# ---------------------------------------------------------------------------
# Round data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuctionRound:
    """One auction: all submitted private values, top two exposed."""

    bids: tuple[float, ...]

    def __post_init__(self):
        if len(self.bids) < 2:
            raise ValueError("an auction round needs at least 2 bids")

    @property
    def b1(self) -> float:
        return max(self.bids)

    @property
    def b2(self) -> float:
        return sorted(self.bids)[-2]


def apply_feedback(tau: float, score: float) -> float | None:
    """Semi-bandit observation rule: the score iff score >= tau, else None."""
    return score if score >= tau else None


def auction_reward(p: float, rnd: AuctionRound) -> float:
    """Second-price revenue with reservation price p.

    0 if the reserve is above every bid; p if only the top bid clears it;
    the second-highest bid if both do.
    """
    if not math.isfinite(p):
        raise ValueError(f"reservation price must be finite, got {p}")
    if p > rnd.b1:
        return 0.0
    if p > rnd.b2:
        return p
    return rnd.b2


def set_size(candidates: np.ndarray | None, taus: np.ndarray) -> np.ndarray | None:
    """Per round, the number of candidate scores >= that round's tau.

    `candidates` holds one row per round, padded with NaN; a round whose
    row is all NaN has no candidates and counts -1.  None when
    `candidates` is None or no round has any.
    """
    if candidates is None:
        return None
    sizes = np.where(np.isnan(candidates).all(axis=1), -1,
                     np.count_nonzero(candidates >= taus[:, None], axis=1))
    return sizes if (sizes >= 0).any() else None


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------


class SyntheticEnv:
    """Rounds drawn i.i.d. from one distribution, which is also the oracle.

    The score-log and auction environments subclass it and override `draw`.
    """

    def __init__(self, dist: ScoreDistribution):
        self.dist = dist

    def draw(self, rng, n: int) -> tuple[np.ndarray, np.ndarray | None]:
        """(scores, candidates) of the next n rounds.

        `candidates` is an (n, width) matrix padded with NaN (see
        `set_size`), or None when the rounds carry no candidate scores.
        """
        return self.dist.sample(rng, n), None

    def next_round(self, rng) -> float:
        """The hidden score of one round: the score of `draw(rng, 1)`."""
        return float(self.draw(rng, 1)[0][0])

    def oracle_cdf(self):
        """G*, the CDF of a round's score: the distribution, called at a score."""
        return self.dist

    def oracle_tau_star(self, alpha: float) -> float:
        return self.dist.sup_quantile(1.0 - alpha)


def load_score_log(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse the ``round_id,gt_score[,cand_*...]`` CSV schema, one round per row.

    Returns the gt_score column and the candidate matrix, one row per
    round padded with NaN (see `set_size`), or None when no row has
    candidate scores.  A row may be shorter than the header but not
    longer.
    """
    scores: list[float] = []
    cands: list[tuple[float, ...]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[:2] != ["round_id", "gt_score"]:
            raise EnvironmentConfigError(
                f"{path}: expected header starting 'round_id,gt_score'"
            )
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) < 2:
                raise EnvironmentConfigError(f"{path}:{lineno}: missing gt_score")
            if len(rec) > len(header):
                raise EnvironmentConfigError(
                    f"{path}:{lineno}: {len(rec)} fields, header names {len(header)}")
            try:
                gt = float(rec[1])
                row = tuple(float(v) for v in rec[2:])
            except ValueError as exc:
                raise EnvironmentConfigError(f"{path}:{lineno}: {exc}") from exc
            if not math.isfinite(gt):
                raise EnvironmentConfigError(f"{path}:{lineno}: non-finite gt_score")
            if not all(map(math.isfinite, row)):
                raise EnvironmentConfigError(f"{path}:{lineno}: non-finite candidate score")
            if row and gt not in row:
                raise EnvironmentConfigError(
                    f"{path}:{lineno}: gt_score missing from candidate scores"
                )
            scores.append(gt)
            cands.append(row)
    if not scores:
        raise EnvironmentConfigError(f"{path}: score log is empty")
    width = max(map(len, cands))
    candidates = None
    if width:
        candidates = np.array([row + (math.nan,) * (width - len(row)) for row in cands])
    return np.array(scores, dtype=np.float64), candidates


class ScoreLogEnv(SyntheticEnv):
    """Replay a score log, with or without replacement.

    With replacement (the default) rounds are i.i.d. uniform draws from
    the log.  Without replacement they are a prefix of one seed-fixed
    permutation; asking for more rounds than the log holds raises
    RunExhaustedError.  The score range (`dist.support`) and the oracle
    are those of the `EmpiricalDist` of the ground-truth scores.
    """

    def __init__(self, scores: np.ndarray, candidates: np.ndarray | None,
                 with_replacement: bool = True):
        super().__init__(EmpiricalDist(scores))
        self.scores = scores
        self.candidates = candidates
        self.with_replacement = with_replacement

    def draw(self, rng, n: int) -> tuple[np.ndarray, np.ndarray | None]:
        if self.with_replacement:
            idx = rng.integers(len(self.scores), size=n)
        elif n > len(self.scores):
            raise RunExhaustedError(
                f"score log exhausted: {n} rounds asked of {len(self.scores)} rows")
        else:
            idx = rng.permutation(len(self.scores))[:n]
        return self.scores[idx], None if self.candidates is None else self.candidates[idx]


def load_bid_pool(path) -> list[float]:
    """One bid per line, decimal values."""
    pool: list[float] = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                v = float(line)
            except ValueError as exc:
                raise EnvironmentConfigError(f"{path}:{lineno}: {exc}") from exc
            if not math.isfinite(v):
                raise EnvironmentConfigError(f"{path}:{lineno}: non-finite bid")
            pool.append(v)
    if not pool:
        raise EnvironmentConfigError(f"{path}: bid pool is empty")
    return pool


class AuctionEnv(SyntheticEnv):
    """Second-price auction rounds; the hidden score is the top bid.

    Bids are i.i.d. within and across rounds, drawn from `dist`: a
    parametric value distribution, or the `EmpiricalDist` of a bid pool.
    The top bid over n bidders has CDF F(x)^n, so tau* is the value
    sup-quantile at level (1-alpha)^(1/n).
    """

    def __init__(self, value_dist: ScoreDistribution, bidders: int):
        if bidders < 2:
            raise EnvironmentConfigError(f"auction needs >= 2 bidders, got {bidders}")
        super().__init__(value_dist)
        self.bidders = bidders

    def draw(self, rng, n: int) -> tuple[np.ndarray, None]:
        """The top bid of each of n rounds; auctions carry no candidates."""
        bids = self.dist.sample(rng, (n, self.bidders))
        # `bids.max(axis=1)`, bit for bit, as a chained maximum over the
        # columns, which is much faster for a few bidders.  A row with a
        # NaN is NaN either way, but which NaN's bits the row max keeps
        # depends on where it sits, so such a draw takes the row max.
        top = np.maximum(bids[:, 0], bids[:, 1])
        for column in range(2, self.bidders):
            np.maximum(top, bids[:, column], out=top)
        if np.isnan(top).any():
            return bids.max(axis=1), None
        return top, None

    def oracle_cdf(self):
        value_cdf, n = self.dist.cdf, self.bidders

        def cdf(x):
            return value_cdf(x) ** n

        return cdf

    def oracle_tau_star(self, alpha: float) -> float:
        return self.dist.sup_quantile((1.0 - alpha) ** (1.0 / self.bidders))


# ---------------------------------------------------------------------------
# Specification (config-facing; a config builds its environment once)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvironmentSpec:
    """Declarative environment description.

    `build()` returns the spec's one environment: its first call loads any
    data file, checks the parameters and builds it, and every later call
    returns that same object.  Environments hold no state, so a config's
    lookups and runs share it and a score log is parsed once.  A build
    that raises keeps nothing, and the next call tries again.
    """

    kind: str  # synthetic | score_log | auction
    distribution: str | None = None
    dist_params: dict = field(default_factory=dict)
    path: str | None = None
    with_replacement: bool = True
    bidders: int = 2

    def build(self):
        # the dataclass is frozen, so the environment is kept in __dict__
        if "env" in self.__dict__:
            return self.__dict__["env"]
        if self.kind == "synthetic":
            env = SyntheticEnv(make_distribution(self.distribution, self.dist_params))
        elif self.kind == "score_log":
            if not self.path:
                raise EnvironmentConfigError("score_log requires a path")
            env = ScoreLogEnv(*load_score_log(self.path), self.with_replacement)
        elif self.kind == "auction":
            if self.path:
                dist = EmpiricalDist(load_bid_pool(self.path))
            elif self.distribution:
                dist = make_distribution(self.distribution, self.dist_params)
            else:
                raise EnvironmentConfigError(
                    "auction requires a bid-pool path or a distribution"
                )
            env = AuctionEnv(dist, self.bidders)
        else:
            raise EnvironmentConfigError(f"unknown environment kind {self.kind!r}")
        self.__dict__["env"] = env
        return env
