"""Pinned output bytes: SHA-256 of every result CSV at a reduced size.

Each config runs at T = 2000 (the without-replacement log at T = 400)
with 2 runs and the trace on.  The digests were recorded before the run
core moved to numpy columns (the bid-pool auction's before its bids moved
behind `EmpiricalDist`; the pointmix, beta, gaussian and
without-replacement configs' before runs drew their scores as one block,
the negative-zero config's before the trace was rendered by column, the
ten-tenths pointmix config's on CPython 3.11 before the regret moved to
columns);
a change that alters any emitted byte (a threshold, a regret fold, a
coverage mean, a set size) fails here.  The two score-log configs are the
only ones whose trace has a non-empty ``set_size`` column.
"""

import hashlib
from importlib import resources
from pathlib import Path

import pytest

from semibandit_conformal.harness import emit_csv, load_config, run_batch

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SCORE_LOG_CONFIG = """\
[experiment]
alpha = 0.9
seed = 3

[environment]
kind = score_log
path = {path}

[policy:sps]
kind = sps

[policy:aci]
kind = aci

[policy:dlr]
kind = dlr
"""

# dlr starts from the pool's lowest bid, its default tau_init
AUCTION_POOL_CONFIG = """\
[experiment]
alpha = 0.9
seed = 5

[environment]
kind = auction
pool = {path}
bidders = 3

[policy:sps]
kind = sps

[policy:greedy]
kind = greedy

[policy:dlr]
kind = dlr
"""

POINTMIX_CONFIG = """\
[experiment]
alpha = 0.9
seed = 7

[environment]
kind = synthetic
distribution = pointmix
atoms = 0.1, 0.4, 0.4, 0.7, 0.95
weights = 0.3, 0.2, 0.25, 0.15, 0.1

[policy:sps]
kind = sps

[policy:greedy]
kind = greedy

[policy:etc]
kind = etc
m_grid = 100, 500
"""

BETA_CONFIG = """\
[experiment]
alpha = 0.9
seed = 11

[environment]
kind = synthetic
distribution = beta
p = 2.0
q = 5.0

[policy:sps]
kind = sps

[policy:aci]
kind = aci
gamma_grid = 0.004, 0.032

[policy:con_etc]
kind = con_etc
m = 250
"""

# gaussian scores are unbounded below, so dlr needs its own tau_init
GAUSSIAN_CONFIG = """\
[experiment]
alpha = 0.9
seed = 13

[environment]
kind = synthetic
distribution = gaussian
mu = 1.0
sigma = 2.0

[policy:sps]
kind = sps

[policy:greedy]
kind = greedy

[policy:dlr]
kind = dlr
tau_init = -5.0
"""

# a 500-row log sampled without replacement, at T = 400
SCORE_LOG_WOR_CONFIG = """\
[experiment]
alpha = 0.9
seed = 17

[environment]
kind = score_log
path = {path}
sampling = without_replacement

[policy:sps]
kind = sps

[policy:greedy]
kind = greedy

[policy:etc]
kind = etc
m = 100
"""

# dlr starts at tau_init = -0, so its first trace row prints "-0": the
# trace renderer must keep -0.0 apart from 0.0
NEGATIVE_ZERO_CONFIG = """\
[experiment]
alpha = 0.9
seed = 19

[environment]
kind = synthetic
distribution = uniform
a = -1.0
b = 1.0

[policy:sps]
kind = sps

[policy:dlr]
kind = dlr
tau_init = -0
"""

# ten weights of 0.1, whose left-to-right sum is 0.9999999999999999 and
# not 1.0 (Python 3.12's compensated `sum` gives 1.0); dlr plays a new
# threshold nearly every round and aci's budget moves it over the atoms
POINTMIX_TENTHS_CONFIG = """\
[experiment]
alpha = 0.9
seed = 23

[environment]
kind = synthetic
distribution = pointmix
atoms = 0.05, 0.15, 0.25, 0.25, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95
weights = 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1

[policy:dlr]
kind = dlr

[policy:aci]
kind = aci
gamma_grid = 0.064, 0.5
"""

# inline configs: (template, package data file it reads or None, horizon)
INLINE = {
    "score_log": (SCORE_LOG_CONFIG, "example_scores.csv", 2000),
    "auction_pool": (AUCTION_POOL_CONFIG, "bid_pool.csv", 2000),
    "pointmix": (POINTMIX_CONFIG, None, 2000),
    "beta": (BETA_CONFIG, None, 2000),
    "gaussian": (GAUSSIAN_CONFIG, None, 2000),
    "score_log_without_replacement": (SCORE_LOG_WOR_CONFIG, "example_scores.csv", 400),
    "negative_zero_tau": (NEGATIVE_ZERO_CONFIG, None, 2000),
    "pointmix_tenths": (POINTMIX_TENTHS_CONFIG, None, 2000),
}

GOLDEN = {
    "uniform_demo": {
        "summary.csv": "83c5322978284183d54cf302a15f1b59e06b044042bba4f5d99b912692060973",
        "sweep.csv": "61459427e8ef79e7b108dc49dee59c35bb34df2caa0fb5aa2a15a9f0decf368e",
        "trace.csv": "fe27475c4efbdff7d7278406e914aa4cae58c641e343334845ca2abed9eec29a",
    },
    "auction_demo": {
        "summary.csv": "d7fac54941a85900d9acebdef0c93f0b3951717021a4a4b3999efdffc29f2e1f",
        "trace.csv": "6588beea5cf92cb4cf3a266d3425289193caeaa177acd0829075f69e014e710f",
    },
    "auction_pool": {
        "summary.csv": "99e45ca405f84e62646d5b7769e45901c74079911870b0443df24195cfb34d01",
        "trace.csv": "ab6000f75166307cafa4094964a2b882bb83fcd1fa846a4551584e5b21b17084",
    },
    "score_log": {
        "summary.csv": "45ca72773e4d36d0335e1891f9c8e084794ead1b64096d8b45cd383a4638ba81",
        "sweep.csv": "b08bae5c39201bc446c6793cefa1ad6ac18e93c74b9d6a9bbbf5960dee855357",
        "trace.csv": "56bbcaa3455130aa3ec8600d2fbbbe84f416ae52d778dbb822972de5e8f46378",
    },
    "pointmix": {
        "summary.csv": "8ac611510407966fef87eebda43abde4a07921c2253e2b011c4ac2755c5781b7",
        "sweep.csv": "67528569212eaf5279c9d3902e4966dd114b0b51012399c0587c4b2f5a651eac",
        "trace.csv": "1726d6f4bc82f939546a573fda8e880383159f887456efa8d27341ab62ed193d",
    },
    "beta": {
        "summary.csv": "97e49d7707699e63153f8f95a59b39135dbc3e899f6e1991aea4a510b1b45b9e",
        "sweep.csv": "56159c2988e9675ebe1a62706bc8c744a708ee10511362026ea09d90f07100c6",
        "trace.csv": "0d1b3912d92e062d322c439505709d5af44569a7a1ba19d8c901146030a0fc5a",
    },
    "gaussian": {
        "summary.csv": "ba3af3932656daa75c9895ce99661ffc32f8f74dbeb5985d652be23659ab5943",
        "trace.csv": "32c9334bbe839914dc5d03fc592981c0ea87321d1d96496645e515f88281e7fc",
    },
    "score_log_without_replacement": {
        "summary.csv": "bb68d23161c2a207b295298020a875c5c99e7e566aa0e56f755d64222c9e9c48",
        "trace.csv": "d1bf2cab458c1485a564a47eda0c276fa401f417f72f63744aee5c39b325726f",
    },
    "negative_zero_tau": {
        "summary.csv": "7be3846591edd3db32ca92facbd69a5ce8a9e99d6e0d15caf9ee15de642ceb15",
        "trace.csv": "0642d7f345474447c23e69d0f5fd6e21443345d7027a11e2ab97ef7387343779",
    },
    "pointmix_tenths": {
        "summary.csv": "ea245d5c7f57e34fb5135806e87c9ab9843b8076bea91c21250c8e732bfd80d2",
        "sweep.csv": "f395f84884a6d0ca96c7945334b048c28d677dfefc4338e001b5f8810c0f59c6",
        "trace.csv": "18bfb8ecd272e2c2552fa78b6c8c51dae15cc451222411f73a0ddd8bc904421f",
    },
}


def config_path(name, tmp_path):
    """(config file, horizon) of a pinned config."""
    if name not in INLINE:
        return str(CONFIGS / f"{name}.ini"), 2000
    template, data, horizon = INLINE[name]
    path = tmp_path / f"{name}.ini"
    if data is not None:
        template = template.format(path=resources.files("semibandit_conformal.data") / data)
    path.write_text(template)
    return str(path), horizon


def output_digests(config, horizon, out):
    cfg = load_config(config, {"horizon": horizon, "runs": 2, "trace": True,
                               "out": str(out)})
    written = emit_csv(run_batch(cfg), cfg)
    return {
        name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for name, path in written.items() if name != "meta.json"
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digests(name, tmp_path):
    got = output_digests(*config_path(name, tmp_path), tmp_path / "out")
    assert got == GOLDEN[name]
