"""Online conformal prediction under semi-bandit feedback.

Core pieces: a truncated empirical CDF with a DKW upper band
(`cdf_band`), the banded threshold policy and five baselines
(`policies`), score-generating environments (`environments`), evaluation
metrics (`metrics`), and a reproducible benchmark harness (`harness`).
"""

from .cdf_band import NEG_INF, POS_INF, BandParams, TruncatedEcdf, band_epsilon, sup_quantile
from .environments import (
    AuctionEnv,
    AuctionRound,
    EnvironmentSpec,
    RoundSample,
    ScoreLogEnv,
    SyntheticEnv,
    apply_feedback,
    auction_reward,
    load_bid_pool,
    load_score_log,
    set_size,
)
from .harness import ExperimentConfig, checkpoint_grid, derive_seed, load_config, run_batch, run_single
from .metrics import LossParams, RunColumns, coverage_rate, cum_regret, inst_regret, loss_phi, regret_bound, undercoverage_count
from .policies import FeedbackEvent, Policy, PolicySpec

__version__ = "0.1.0"
