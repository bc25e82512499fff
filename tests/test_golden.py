"""Pinned output bytes: SHA-256 of every result CSV at a reduced size.

Each config runs at T = 2000 with 2 runs and the trace on.  The digests
were recorded before the run core moved to numpy columns (the bid-pool
auction's before its bids moved behind `EmpiricalDist`); a change that
alters any emitted byte (a threshold, a regret fold, a coverage mean, a
set size) fails here.  The score-log config is the only one whose trace
has a non-empty ``set_size`` column.
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

# inline configs: (template, package data file it reads)
INLINE = {
    "score_log": (SCORE_LOG_CONFIG, "example_scores.csv"),
    "auction_pool": (AUCTION_POOL_CONFIG, "bid_pool.csv"),
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
}


def config_path(name, tmp_path):
    if name not in INLINE:
        return str(CONFIGS / f"{name}.ini")
    template, data = INLINE[name]
    path = tmp_path / f"{name}.ini"
    path.write_text(template.format(path=resources.files("semibandit_conformal.data") / data))
    return str(path)


def output_digests(config, out):
    cfg = load_config(config, {"horizon": 2000, "runs": 2, "trace": True,
                               "out": str(out)})
    written = emit_csv(run_batch(cfg), cfg)
    return {
        name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for name, path in written.items() if name != "meta.json"
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digests(name, tmp_path):
    got = output_digests(config_path(name, tmp_path), tmp_path / "out")
    assert got == GOLDEN[name]
