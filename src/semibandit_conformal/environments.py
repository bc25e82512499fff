"""Score-generating environments and the semi-bandit observation rule.

Three families:

* synthetic   -- closed-form distributions (uniform, gaussian, beta, and
                 a finite point mixture); the oracle CDF and tau* are
                 analytic.
* score_log   -- replay of a CSV of precomputed ground-truth scores
                 (with optional per-row candidate scores for set-size
                 reporting); the oracle is the full-log empirical CDF.
* auction     -- repeated second-price auctions where the hidden score is
                 the round's highest bid; bids are drawn from a bid pool
                 or a parametric value distribution.

Score-log CSV schema: header ``round_id,gt_score[,cand_0,cand_1,...]``,
UTF-8, decimal scores.  Bid-pool CSV: one bid value per line.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .cdf_band import NEG_INF, POS_INF, sup_quantile
from .policies import FeedbackEvent


class EnvironmentConfigError(ValueError):
    """Invalid environment specification or data file."""


class RunExhaustedError(RuntimeError):
    """A without-replacement score log ran out before the horizon."""


# ---------------------------------------------------------------------------
# Score distributions (shared by synthetic and parametric-auction envs)
# ---------------------------------------------------------------------------


class ScoreDistribution:
    """Sampling plus exact CDF / sup-quantile for one distribution."""

    def sample(self, rng: np.random.Generator) -> float:
        raise NotImplementedError

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def sup_quantile(self, level: float) -> float:
        """sup{ x : cdf(x) <= level }; -inf / +inf outside [0,1)."""
        raise NotImplementedError

    @property
    def support(self) -> tuple[float, float]:
        raise NotImplementedError


class UniformDist(ScoreDistribution):
    def __init__(self, a: float, b: float):
        if not b > a:
            raise EnvironmentConfigError(f"uniform needs b > a, got ({a}, {b})")
        self.a, self.b = float(a), float(b)

    def sample(self, rng):
        return rng.uniform(self.a, self.b)

    def cdf(self, x):
        if x <= self.a:
            return 0.0
        if x >= self.b:
            return 1.0
        return (x - self.a) / (self.b - self.a)

    def sup_quantile(self, level):
        if level < 0.0:
            return NEG_INF
        if level >= 1.0:
            return POS_INF
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

    def sample(self, rng):
        return rng.normal(self.mu, self.sigma)

    def cdf(self, x):
        return self._dist.cdf(x)

    def sup_quantile(self, level):
        if level < 0.0:
            return NEG_INF
        if level >= 1.0:
            return POS_INF
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

    def sample(self, rng):
        return rng.beta(self.p, self.q)

    def cdf(self, x):
        from scipy.stats import beta as beta_dist

        return float(beta_dist.cdf(x, self.p, self.q))

    def sup_quantile(self, level):
        from scipy.stats import beta as beta_dist

        if level < 0.0:
            return NEG_INF
        if level >= 1.0:
            return POS_INF
        return float(beta_dist.ppf(level, self.p, self.q))

    @property
    def support(self):
        return (0.0, 1.0)


class PointMixtureDist(ScoreDistribution):
    """Finite mixture of point masses (a discrete score distribution)."""

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

    def sample(self, rng):
        return float(rng.choice(self.atoms, p=self.weights))

    def cdf(self, x):
        return sum(w for a, w in zip(self.atoms, self.weights) if a <= x)

    def sup_quantile(self, level):
        if level < 0.0:
            return NEG_INF
        cum = 0.0
        for a, w in zip(self.atoms, self.weights):
            cum += w
            if cum > level:
                return a
        return POS_INF

    @property
    def support(self):
        return (self.atoms[0], self.atoms[-1])


_DISTRIBUTIONS = {
    "uniform": (UniformDist, ("a", "b")),
    "gaussian": (GaussianDist, ("mu", "sigma")),
    "beta": (BetaDist, ("p", "q")),
    "pointmix": (PointMixtureDist, ("atoms", "weights")),
}


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


@dataclass(frozen=True)
class RoundSample:
    """Hidden score for the round plus optional context."""

    score: float
    candidates: tuple[float, ...] | None = None
    auction: AuctionRound | None = None


def apply_feedback(tau: float, score: float) -> FeedbackEvent:
    """Semi-bandit observation rule: reveal the score iff score >= tau."""
    if score >= tau:
        return FeedbackEvent(observed=True, recorded=score, score=score)
    return FeedbackEvent(observed=False, recorded=tau)


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


def set_size(sample: RoundSample, tau: float) -> int | None:
    """Number of candidate scores >= tau; None when candidates are absent."""
    if sample.candidates is None:
        return None
    return sum(1 for c in sample.candidates if c >= tau)


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------


class SyntheticEnv:
    def __init__(self, dist: ScoreDistribution):
        self.dist = dist

    @property
    def score_range(self):
        return self.dist.support

    def next_round(self, rng) -> RoundSample:
        return RoundSample(score=self.dist.sample(rng))

    def oracle_cdf(self):
        return self.dist.cdf

    def oracle_tau_star(self, alpha: float) -> float:
        return self.dist.sup_quantile(1.0 - alpha)


@dataclass(frozen=True)
class ScoreLogRow:
    round_id: str
    gt_score: float
    candidates: tuple[float, ...] | None = None


def load_score_log(path) -> list[ScoreLogRow]:
    """Parse the ``round_id,gt_score[,cand_*...]`` CSV schema."""
    rows: list[ScoreLogRow] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[:2] != ["round_id", "gt_score"]:
            raise EnvironmentConfigError(
                f"{path}: expected header starting 'round_id,gt_score'"
            )
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            try:
                gt = float(rec[1])
                cands = tuple(float(v) for v in rec[2:]) if len(rec) > 2 else None
            except ValueError as exc:
                raise EnvironmentConfigError(f"{path}:{lineno}: {exc}") from exc
            if not math.isfinite(gt):
                raise EnvironmentConfigError(f"{path}:{lineno}: non-finite gt_score")
            if cands is not None and gt not in cands:
                raise EnvironmentConfigError(
                    f"{path}:{lineno}: gt_score missing from candidate scores"
                )
            rows.append(ScoreLogRow(round_id=rec[0], gt_score=gt, candidates=cands))
    if not rows:
        raise EnvironmentConfigError(f"{path}: score log is empty")
    return rows


class ScoreLogEnv:
    """Replay a score log, with or without replacement.

    With replacement (the default) rounds are i.i.d. uniform draws from
    the log.  Without replacement a seed-fixed permutation is consumed;
    exhausting it raises RunExhaustedError.
    """

    def __init__(self, rows: list[ScoreLogRow], with_replacement: bool = True):
        if not rows:
            raise EnvironmentConfigError("score log is empty")
        self.rows = rows
        self.with_replacement = with_replacement
        self._sorted_scores = np.sort([r.gt_score for r in rows])
        self._perm: list[int] | None = None
        self._pos = 0

    @property
    def score_range(self):
        return (float(self._sorted_scores[0]), float(self._sorted_scores[-1]))

    def next_round(self, rng) -> RoundSample:
        if self.with_replacement:
            row = self.rows[int(rng.integers(len(self.rows)))]
        else:
            if self._perm is None:
                self._perm = [int(i) for i in rng.permutation(len(self.rows))]
            if self._pos >= len(self._perm):
                raise RunExhaustedError(
                    f"score log exhausted after {self._pos} rounds"
                )
            row = self.rows[self._perm[self._pos]]
            self._pos += 1
        return RoundSample(score=row.gt_score, candidates=row.candidates)

    def oracle_cdf(self):
        scores, n = self._sorted_scores, len(self._sorted_scores)

        def cdf(x):
            return float(np.searchsorted(scores, x, side="right")) / n

        return cdf

    def oracle_tau_star(self, alpha: float) -> float:
        return sup_quantile(list(self._sorted_scores), 1.0 - alpha)


def load_bid_pool(path) -> list[float]:
    """One bid per line, decimal values."""
    pool: list[float] = []
    with open(path, encoding="utf-8") as fh:
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


class AuctionEnv:
    """Second-price auction rounds; the hidden score is the top bid.

    Bids are i.i.d. within and across rounds, either resampled from a bid
    pool or drawn from a parametric value distribution.  The top bid over
    n bidders has CDF F(x)^n, so tau* is the pool/value sup-quantile at
    level (1-alpha)^(1/n).
    """

    def __init__(self, pool=None, value_dist: ScoreDistribution | None = None,
                 bidders: int = 2):
        if (pool is None) == (value_dist is None):
            raise EnvironmentConfigError(
                "auction needs exactly one of a bid pool or a value distribution"
            )
        if bidders < 2:
            raise EnvironmentConfigError(f"auction needs >= 2 bidders, got {bidders}")
        self.bidders = bidders
        self.value_dist = value_dist
        self._pool = np.sort(pool) if pool is not None else None

    @property
    def score_range(self):
        if self._pool is not None:
            return (float(self._pool[0]), float(self._pool[-1]))
        return self.value_dist.support

    def next_round(self, rng) -> RoundSample:
        if self._pool is not None:
            idx = rng.integers(len(self._pool), size=self.bidders)
            bids = tuple(float(self._pool[i]) for i in idx)
        else:
            bids = tuple(self.value_dist.sample(rng) for _ in range(self.bidders))
        rnd = AuctionRound(bids=bids)
        return RoundSample(score=rnd.b1, auction=rnd)

    def _value_cdf(self, x: float) -> float:
        if self._pool is not None:
            return float(np.searchsorted(self._pool, x, side="right")) / len(self._pool)
        return self.value_dist.cdf(x)

    def oracle_cdf(self):
        n = self.bidders

        def cdf(x):
            return self._value_cdf(x) ** n

        return cdf

    def oracle_tau_star(self, alpha: float) -> float:
        level = (1.0 - alpha) ** (1.0 / self.bidders)
        if self._pool is not None:
            return sup_quantile(list(self._pool), level)
        return self.value_dist.sup_quantile(level)


# ---------------------------------------------------------------------------
# Specification (config-facing, builds a fresh env per run)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvironmentSpec:
    """Declarative environment description; `build()` is called per run."""

    kind: str  # synthetic | score_log | auction
    distribution: str | None = None
    dist_params: dict = field(default_factory=dict)
    path: str | None = None
    with_replacement: bool = True
    bidders: int = 2

    def validate(self) -> None:
        if self.kind == "synthetic":
            make_distribution(self.distribution, self.dist_params)
        elif self.kind == "score_log":
            if not self.path:
                raise EnvironmentConfigError("score_log requires a path")
            load_score_log(self.path)
        elif self.kind == "auction":
            if self.path:
                load_bid_pool(self.path)
            elif self.distribution:
                make_distribution(self.distribution, self.dist_params)
            else:
                raise EnvironmentConfigError(
                    "auction requires a bid-pool path or a distribution"
                )
            if self.bidders < 2:
                raise EnvironmentConfigError("auction needs >= 2 bidders")
        else:
            raise EnvironmentConfigError(f"unknown environment kind {self.kind!r}")

    def build(self):
        if self.kind == "synthetic":
            return SyntheticEnv(make_distribution(self.distribution, self.dist_params))
        if self.kind == "score_log":
            return ScoreLogEnv(load_score_log(self.path), self.with_replacement)
        if self.kind == "auction":
            if self.path:
                return AuctionEnv(pool=load_bid_pool(self.path), bidders=self.bidders)
            dist = make_distribution(self.distribution, self.dist_params)
            return AuctionEnv(value_dist=dist, bidders=self.bidders)
        raise EnvironmentConfigError(f"unknown environment kind {self.kind!r}")
