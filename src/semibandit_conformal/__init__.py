"""Online conformal prediction under semi-bandit feedback.

Core pieces: a truncated empirical CDF with a DKW upper band
(`cdf_band`), the banded threshold policy and five baselines
(`policies`), score-generating environments (`environments`), evaluation
metrics (`metrics`), and a reproducible benchmark harness (`config`,
`harness`).
"""

from .cdf_band import NEG_INF, POS_INF, TruncatedEcdf, band_epsilon, sup_quantile
from .environments import (
    AuctionEnv,
    AuctionRound,
    EmpiricalDist,
    EnvironmentSpec,
    ScoreLogEnv,
    SyntheticEnv,
    apply_feedback,
    auction_reward,
    load_bid_pool,
    load_score_log,
    set_size,
)
from .config import ExperimentConfig, load_config
from .harness import checkpoint_grid, derive_seed, run_batch, run_single
from .metrics import LossParams, RunColumns, coverage_rate, cum_regret, inst_regret, loss_phi, regret_bound, undercoverage_count
from .policies import Policy, PolicySpec

__version__ = "0.1.0"
