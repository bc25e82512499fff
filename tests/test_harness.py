import dataclasses
import errno
import json
import math
import os
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semibandit_conformal import environments, harness
from semibandit_conformal.cdf_band import NEG_INF
from semibandit_conformal.cli import main
from semibandit_conformal.config import KEYS
from semibandit_conformal.environments import (
    EnvironmentSpec,
    RunExhaustedError,
    ScoreLogEnv,
    apply_feedback,
)
from semibandit_conformal.harness import (
    ConfigError,
    ExperimentConfig,
    OutputError,
    PolicyEntry,
    checkpoint_grid,
    derive_seed,
    emit_csv,
    load_config,
    run_batch,
    run_single,
)
from semibandit_conformal.metrics import (
    LossParams,
    RunColumns,
    coverage_rate,
    loss_phi,
    undercoverage_count,
)

REPO = Path(__file__).resolve().parent.parent

UNIFORM_ENV = EnvironmentSpec(
    kind="synthetic", distribution="uniform", dist_params={"a": 0.0, "b": 1.0}
)

BASE_CONFIG = """\
[experiment]
alpha = 0.9
horizon = 200
runs = 3
seed = 7
out = {out}
trace = {trace}

[environment]
kind = synthetic
distribution = uniform
a = 0.0
b = 1.0

[policy:sps]
kind = sps
"""


def small_cfg(policies=None, horizon=200, runs=2, trace=False, out="results"):
    cfg = ExperimentConfig(
        environment=UNIFORM_ENV,
        policies=policies or [PolicyEntry(policy_id="sps", kind="sps")],
        alpha=0.9,
        horizon=horizon,
        runs=runs,
        seed=7,
        out_dir=out,
        trace=trace,
    )
    cfg.validate()
    return cfg


def warns_single_run():
    """run_batch at runs = 1 warns that the confidence intervals are empty."""
    return pytest.warns(UserWarning, match="runs = 1")


def write_config(tmp_path, body):
    path = tmp_path / "exp.ini"
    path.write_text(body)
    return str(path)


class TestCheckpointGrid:
    def test_horizon_10000(self):
        grid = checkpoint_grid(10000)
        assert grid[0] == 1
        assert grid[-1] == 10000
        assert {1, 10, 100, 1000, 10000}.issubset(grid)
        assert all(t % 100 == 0 for t in grid if t > 1000)
        assert len(grid) == 102  # 100 percent marks + {1, 10}

    def test_small_horizon_logs_every_round(self):
        assert checkpoint_grid(50) == list(range(1, 51))

    def test_sorted_and_unique(self):
        for horizon in (2, 17, 1234):
            grid = checkpoint_grid(horizon)
            assert grid == sorted(set(grid))
            assert grid[-1] == horizon


class TestDeriveSeed:
    def test_stable_value(self):
        # frozen so result files are comparable across machines
        assert derive_seed(0, "sps", "", 0) == derive_seed(0, "sps", "", 0)
        assert isinstance(derive_seed(0, "sps", "", 0), int)

    def test_distinct_across_identity_tuple(self):
        seeds = {
            derive_seed(b, p, g, r)
            for b in (0, 1)
            for p in ("sps", "aci")
            for g in ("", "gamma=0.01")
            for r in (0, 1, 2)
        }
        assert len(seeds) == 24


class TestRunSingle:
    def test_deterministic_replay(self):
        cfg = small_cfg()
        spec = cfg.policy_spec(cfg.policies[0], {})
        a = run_single(cfg, spec, seed=42)
        b = run_single(cfg, spec, seed=42)
        for name in ("tau", "covered", "inst_regret", "cum_regret", "undercover"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_distinct_seeds_differ(self):
        cfg = small_cfg(policies=[PolicyEntry(policy_id="g", kind="greedy")])
        spec = cfg.policy_spec(cfg.policies[0], {})
        a = run_single(cfg, spec, seed=1)
        b = run_single(cfg, spec, seed=2)
        assert not np.array_equal(a.tau, b.tau)

    def test_round_indices_and_accumulation(self):
        cfg = small_cfg(horizon=100, runs=1)
        spec = cfg.policy_spec(cfg.policies[0], {})
        run = run_single(cfg, spec, seed=5)
        assert len(run.tau) == len(run.cum_regret) == 100
        assert run.tau.dtype == np.float64 and run.covered.dtype == bool
        assert run.set_size is None  # synthetic scores carry no candidates
        cum = 0.0
        for inst, total in zip(run.inst_regret, run.cum_regret):
            assert inst >= 0.0
            cum += inst
            assert total == pytest.approx(cum, rel=1e-12)

    def test_undercover_flag_matches_oracle(self):
        cfg = small_cfg(horizon=100, runs=1)
        tau_star = cfg.environment.build().oracle_tau_star(cfg.alpha)
        spec = cfg.policy_spec(PolicyEntry(policy_id="g", kind="greedy"), {})
        run = run_single(cfg, spec, seed=5)
        assert np.array_equal(run.undercover, run.tau > tau_star)


SCORE_LOG_ENV = EnvironmentSpec(
    kind="score_log",
    path=str(resources.files("semibandit_conformal.data") / "example_scores.csv"),
)
# four atoms: scores often equal the threshold, where feedback must count as seen
POINTMIX_ENV = EnvironmentSpec(
    kind="synthetic", distribution="pointmix",
    dist_params={"atoms": (0.1, 0.4, 0.7, 0.95), "weights": (0.05, 0.05, 0.5, 0.4)},
)

LOOP_POLICIES = [
    PolicyEntry(policy_id="sps", kind="sps"),
    PolicyEntry(policy_id="greedy", kind="greedy"),
    PolicyEntry(policy_id="aci", kind="aci", params={"gamma": 0.032}),
    PolicyEntry(policy_id="dlr", kind="dlr"),
    PolicyEntry(policy_id="etc", kind="etc", params={"explore_rounds": 100}),
    PolicyEntry(policy_id="con_etc", kind="con_etc", params={"explore_rounds": 100}),
]


class TestRunMatchesLibraryLoop:
    """`run_single` over a pre-drawn column against the README's per-round loop."""

    @pytest.mark.parametrize("entry", LOOP_POLICIES, ids=lambda e: e.policy_id)
    @pytest.mark.parametrize("env_spec", [UNIFORM_ENV, SCORE_LOG_ENV, POINTMIX_ENV],
                             ids=["uniform", "score_log", "pointmix"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_columns_equal(self, entry, env_spec, seed):
        cfg = ExperimentConfig(environment=env_spec, policies=[entry], alpha=0.9,
                               horizon=600, runs=1)
        cfg.validate()
        spec = cfg.policy_spec(entry, {})
        run = run_single(cfg, spec, seed)

        policy = spec.build()
        scores, candidates = env_spec.build().draw(np.random.default_rng(seed), cfg.horizon)
        taus, covered, sizes = [], [], []
        for t, score in enumerate(scores.tolist()):
            tau = policy.propose()
            observed = apply_feedback(tau, score)
            policy.update(observed)
            taus.append(tau)
            covered.append(observed is not None)
            if candidates is not None:
                sizes.append(sum(c >= tau for c in candidates[t].tolist() if not math.isnan(c)))
        assert run.tau.tolist() == taus
        assert run.covered.tolist() == covered
        assert (None if run.set_size is None else run.set_size.tolist()) == (sizes or None)


class TestLoadConfig:
    def test_basic_parse(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG.format(out="res", trace="true"))
        cfg = load_config(path)
        assert cfg.alpha == 0.9
        assert cfg.horizon == 200
        assert cfg.runs == 3
        assert cfg.trace is True
        assert cfg.policies[0].policy_id == "sps"
        assert cfg.environment.kind == "synthetic"

    def test_overrides_win(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG.format(out="res", trace="false"))
        cfg = load_config(path, {"horizon": 50, "runs": 1, "out": "elsewhere"})
        assert cfg.horizon == 50
        assert cfg.runs == 1
        assert cfg.out_dir == "elsewhere"

    def test_policy_filter(self, tmp_path):
        body = BASE_CONFIG.format(out="res", trace="false") + "\n[policy:greedy]\nkind = greedy\n"
        path = write_config(tmp_path, body)
        cfg = load_config(path, {"policy": "greedy"})
        assert [p.policy_id for p in cfg.policies] == ["greedy"]
        with pytest.raises(ConfigError):
            load_config(path, {"policy": "nope"})

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/exp.ini")

    def test_byte_order_mark_skipped(self, tmp_path):
        body = BASE_CONFIG.format(out="res", trace="false")
        path = tmp_path / "bom.ini"
        path.write_bytes(b"\xef\xbb\xbf" + body.encode())
        assert load_config(str(path)) == load_config(write_config(tmp_path, body))

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "latin1.ini"
        path.write_bytes(BASE_CONFIG.format(out="res", trace="false").encode()
                         + "; caf\xe9\n".encode("latin-1"))
        with pytest.raises(ConfigError, match="can't decode"):
            load_config(str(path))

    def test_missing_environment_section(self, tmp_path):
        path = write_config(tmp_path, "[experiment]\nhorizon = 10\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_number_rejected(self, tmp_path):
        body = BASE_CONFIG.format(out="res", trace="false").replace(
            "horizon = 200", "horizon = soon")
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, body))

    def test_bad_policy_parameters_rejected_at_load(self, tmp_path):
        body = BASE_CONFIG.format(out="res", trace="false") + \
            "\n[policy:etc]\nkind = etc\nm = 200\n"  # m must be < horizon
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, body))

    def test_relative_data_paths_resolve_against_config(self, tmp_path):
        (tmp_path / "scores.csv").write_text(
            "round_id,gt_score\n0,0.5\n1,0.7\n2,0.4\n")
        body = (
            "[experiment]\nhorizon = 10\nruns = 1\n"
            "[environment]\nkind = score_log\npath = scores.csv\n"
            "[policy:sps]\nkind = sps\n"
        )
        cfg = load_config(write_config(tmp_path, body))
        assert cfg.environment.path == str(tmp_path / "scores.csv")

    def test_grid_parsing(self, tmp_path):
        body = BASE_CONFIG.format(out="res", trace="false") + \
            "\n[policy:aci]\nkind = aci\ngamma_grid = 0.01, 0.02\n" + \
            "\n[policy:etc]\nkind = etc\nm_grid = 10, 20\n"
        cfg = load_config(write_config(tmp_path, body))
        by_id = {p.policy_id: p for p in cfg.policies}
        assert by_id["aci"].grid == ("gamma", (0.01, 0.02))
        assert by_id["etc"].grid == ("m", (10, 20))
        assert len(by_id["aci"].grid_points()) == 2

    @pytest.mark.parametrize("section, repeated", [
        ("[policy:aci]\nkind = aci\ngamma_grid = 0.01, 0.02, 0.01\n", "gamma_grid repeats 0.01"),
        ("[policy:etc]\nkind = etc\nm_grid = 10, 10, 50\n", "m_grid repeats 10"),
        # distinct values whose grid keys (and so run seeds) print alike
        ("[policy:aci]\nkind = aci\ngamma_grid = 0.0010000001, 0.001\n",
         "gamma_grid repeats 0.001"),
    ])
    def test_repeated_grid_value_rejected(self, tmp_path, section, repeated):
        body = BASE_CONFIG.format(out="res", trace="false") + "\n" + section
        with pytest.raises(ConfigError, match=rf"\[policy:\w+\] {repeated}"):
            load_config(write_config(tmp_path, body))

    @pytest.mark.parametrize("section, error", [
        ("[policy:etc]\nkind = etc\nm_grid = 10.7, 50\n",
         r"\[policy:etc\] m_grid = '10.7': not an integer"),
        ("[policy:aci]\nkind = aci\ngamma = 0.01\ngamma_grid = 0.02, 0.04\n",
         r"\[policy:aci\] sets both gamma and gamma_grid"),
        ("[policy:etc]\nkind = etc\nm = 10\nm_grid = 20, 50\n",
         r"\[policy:etc\] sets both m and m_grid"),
        ("[policy:aci]\nkind = aci\ngamma_grid =\n", r"\[policy:aci\] gamma_grid is empty"),
        ("[policy:etc]\nkind = etc\nm_grid =\n", r"\[policy:etc\] m_grid is empty"),
    ], ids=["fractional-m_grid", "gamma-and-gamma_grid", "m-and-m_grid", "empty-gamma_grid",
            "empty-m_grid"])
    def test_grid_the_config_cannot_mean_rejected(self, tmp_path, section, error):
        body = BASE_CONFIG.format(out="res", trace="false") + "\n" + section
        with pytest.raises(ConfigError, match=error):
            load_config(write_config(tmp_path, body))

    @pytest.mark.parametrize("old, new, error", [
        ("[policy:sps]\nkind = sps\n", "[policy:aci]\nkind = aci\ngama_grid = 0.02, 0.04\n",
         r"\[policy:aci\] unknown key 'gama_grid'"),
        ("kind = sps\n", "kind = sps\ngamma = 0.5\n", r"\[policy:sps\] unknown key 'gamma'"),
        ("kind = sps\n", "kind = etc\ntau_init = 0.0\nm = 20\n",
         r"\[policy:sps\] unknown key 'tau_init'"),
        ("horizon = 200\n", "horizn = 200\n", r"\[experiment\] unknown key 'horizn'"),
        ("b = 1.0\n", "b = 1.0\nbidder = 3\n", r"\[environment\] unknown key 'bidder'"),
        ("[policy:sps]", "[polcy:greedy]\nkind = greedy\n[policy:sps]",
         r"unknown section \[polcy:greedy\]"),
        ("[experiment]\nalpha = 0.9\nhorizon = 200\n", "[DEFAULT]\nalpha = 0.9\nhorizn = 200\n",
         r"\[DEFAULT\] unknown key 'horizn'"),
        ("b = 1.0\n", "b = 1.0\npool = /nonexistent.csv\n", r"\[environment\] unknown key 'pool'"),
        ("b = 1.0\n", "b = 1.0\nbidders = 7\n", r"\[environment\] unknown key 'bidders'"),
        ("b = 1.0\n", "b = 1.0\nsampling = without_replacement\n",
         r"\[environment\] unknown key 'sampling'"),
        ("b = 1.0\n", "b = 1.0\nmu = 3\n", r"\[environment\] unknown key 'mu'"),
        ("kind = synthetic\ndistribution = uniform\na = 0.0\nb = 1.0\n",
         "kind = auction\npath = bids.csv\npool = bids.csv\n",
         r"\[environment\] unknown key 'path'"),
        ("kind = synthetic\n", "kind = auction\npool = bids.csv\n",
         r"\[environment\] sets both pool and distribution"),
        ("[policy:sps]\nkind = sps\n", "", r"at least one \[policy:\*\] section is required"),
        ("kind = synthetic\n", "", r"\[environment\] requires a 'kind' key"),
        ("kind = synthetic\n", "kind = synthetc\n", r"\[environment\] unknown kind 'synthetc'"),
        ("distribution = uniform\n", "distribution = unifrom\n",
         r"\[environment\] unknown distribution 'unifrom'"),
        ("kind = synthetic\ndistribution = uniform\na = 0.0\nb = 1.0\n",
         "kind = score_log\npath = scores.csv\nsampling = shuffled\n",
         r"\[environment\] unknown sampling mode 'shuffled'"),
        ("kind = sps\n", "kind = spss\n", r"\[policy:sps\] unknown policy kind 'spss'"),
    ], ids=["misspelt-grid", "sps-gamma", "etc-tau_init", "experiment", "environment",
            "section", "default", "synthetic-pool", "synthetic-bidders", "synthetic-sampling",
            "uniform-mu", "auction-path", "auction-pool-and-distribution", "no-policy",
            "no-environment-kind", "environment-kind", "distribution", "sampling-mode",
            "policy-kind"])
    def test_key_or_section_nothing_reads_rejected(self, tmp_path, old, new, error):
        body = BASE_CONFIG.format(out="res", trace="false").replace(old, new)
        with pytest.raises(ConfigError, match=error):
            load_config(write_config(tmp_path, body))

    @pytest.mark.parametrize("old, new, error", [
        ("kind = sps\n", "kind = aci\ngamma = nan\n", r"\[policy:sps\] gamma = 'nan': not a finite"),
        ("kind = sps\n", "kind = dlr\ntau_init = -inf\n",
         r"\[policy:sps\] tau_init = '-inf': not a finite"),
        ("distribution = uniform\na = 0.0\nb = 1.0\n",
         "distribution = pointmix\natoms = 0.1, 0.5\nweights = nan, 0.5\n",
         r"\[environment\] weights = 'nan': not a finite"),
        ("distribution = uniform\na = 0.0\nb = 1.0\n",
         "distribution = gaussian\nmu = nan\nsigma = 1.0\n",
         r"\[environment\] mu = 'nan': not a finite"),
        ("alpha = 0.9\n", "alpha = inf\n", r"\[experiment\] alpha = 'inf': not a finite"),
        ("alpha = 0.9\n", "alpha = high\n", r"\[experiment\] alpha = 'high': not a number"),
        ("trace = false\n", "trace = maybe\n",
         r"\[experiment\] trace = 'maybe': not a boolean"),
        ("runs = 3\n", "runs = 0\n", r"runs must be >= 1, got 0"),
        ("horizon = 200\n", "horizon = 1\n", r"horizon must be >= 2, got 1"),
        ("distribution = uniform\na = 0.0\nb = 1.0\n\n[policy:sps]\nkind = sps\n",
         "distribution = gaussian\nmu = 0.0\nsigma = 1.0\n\n[policy:sps]\nkind = dlr\n",
         r"\[policy:sps\] dlr needs tau_init: environment score range is unbounded below"),
    ], ids=["gamma", "tau_init", "weights", "mu", "alpha", "alpha-not-a-number",
            "trace-not-a-boolean", "runs", "horizon", "dlr-unbounded-below"])
    def test_non_finite_number_rejected(self, tmp_path, old, new, error):
        # and the other values the config cannot use: a number or boolean
        # that does not parse, a size out of range, a DLR start the
        # environment cannot supply
        body = BASE_CONFIG.format(out="res", trace="false").replace(old, new)
        with pytest.raises(ConfigError, match=error):
            load_config(write_config(tmp_path, body))

    @pytest.mark.parametrize("section", ["[policy:fast,sps]", "[policy:]", "[policy:a b]"])
    def test_policy_id_that_breaks_the_csv_rejected(self, tmp_path, section):
        body = BASE_CONFIG.format(out="res", trace="false").replace("[policy:sps]", section)
        with pytest.raises(ConfigError, match="policy id must match"):
            load_config(write_config(tmp_path, body))

    def test_default_keys_do_not_trip_the_key_check(self, tmp_path):
        # lambda1 reaches [environment] and [policy:sps] too, which do not read it
        body = "[DEFAULT]\nlambda1 = 0.2\n" + BASE_CONFIG.format(out="res", trace="false")
        assert load_config(write_config(tmp_path, body)).loss.lambda1 == 0.2

    def test_config_time_lookups_build_the_environment_once(self, tmp_path, monkeypatch):
        builds = []
        load = environments.load_score_log
        monkeypatch.setattr(environments, "load_score_log",
                            lambda path: builds.append(path) or load(path))
        (tmp_path / "scores.csv").write_text("round_id,gt_score\n0,0.5\n1,0.2\n")
        body = (
            "[experiment]\nhorizon = 10\nruns = 1\n"
            "[environment]\nkind = score_log\npath = scores.csv\n"
            "[policy:dlr]\nkind = dlr\n[policy:aci]\nkind = aci\n"
        )
        cfg = load_config(write_config(tmp_path, body))
        specs = [cfg.policy_spec(entry, overrides) for entry in cfg.policies
                 for _, overrides in entry.grid_points()]
        assert specs[0].tau_init == 0.2
        assert len(builds) == 1

    def test_default_loss_follows_alpha(self):
        cfg = ExperimentConfig(environment=UNIFORM_ENV,
                               policies=[PolicyEntry(policy_id="sps", kind="sps")],
                               alpha=0.1, horizon=200)
        cfg.validate()
        assert cfg.loss == LossParams(alpha=0.1)


DATA = resources.files("semibandit_conformal.data")
KEY_CONFIG = """\
[experiment]
{experiment}
[environment]
{environment}
[policy:p]
{policy}
"""
KEY_PARTS = {"experiment": "", "environment": "kind = synthetic\ndistribution = uniform\n"
             "a = 0.0\nb = 1.0", "policy": "kind = sps"}


def spec_fields(name):
    """Read back one PolicySpec field over every grid point of the policy."""
    return lambda cfg: [getattr(cfg.policy_spec(entry, point), name)
                        for entry in cfg.policies for _, point in entry.grid_points()]


def env_param(name):
    return lambda cfg: cfg.environment.dist_params[name]


def synthetic(dist, params):
    return {"environment": f"kind = synthetic\ndistribution = {dist}\n{params}"}


# (reader, key) in config.KEYS -> (config parts setting the key, read back, expected)
KEY_CASES = {
    ("experiment", "alpha"): ({"experiment": "alpha = 0.8"}, lambda c: c.alpha, 0.8),
    ("experiment", "horizon"): ({"experiment": "horizon = 300"}, lambda c: c.horizon, 300),
    ("experiment", "runs"): ({"experiment": "runs = 4"}, lambda c: c.runs, 4),
    ("experiment", "seed"): ({"experiment": "seed = 9"}, lambda c: c.seed, 9),
    ("experiment", "out"): ({"experiment": "out = elsewhere"}, lambda c: c.out_dir, "elsewhere"),
    ("experiment", "trace"): ({"experiment": "trace = yes"}, lambda c: c.trace, True),
    ("experiment", "lambda1"): ({"experiment": "lambda1 = 0.5"},
                                lambda c: c.loss.lambda1, 0.5),
    ("experiment", "lambda2"): ({"experiment": "lambda2 = 20"}, lambda c: c.loss.lambda2, 20.0),
    ("synthetic", "distribution"): (synthetic("beta", "p = 2\nq = 5"),
                                    lambda c: c.environment.distribution, "beta"),
    ("score_log", "path"): ({"environment": f"kind = score_log\npath = {DATA / 'example_scores.csv'}"},
                            lambda c: c.environment.path, str(DATA / "example_scores.csv")),
    ("score_log", "sampling"): (
        {"experiment": "horizon = 200",
         "environment": f"kind = score_log\npath = {DATA / 'example_scores.csv'}\n"
                        "sampling = without_replacement"},
        lambda c: c.environment.with_replacement, False),
    ("auction", "pool"): ({"environment": f"kind = auction\npool = {DATA / 'bid_pool.csv'}"},
                          lambda c: c.environment.path, str(DATA / "bid_pool.csv")),
    ("auction", "bidders"): ({"environment": "kind = auction\ndistribution = uniform\n"
                                             "a = 0.0\nb = 1.0\nbidders = 4"},
                             lambda c: c.environment.bidders, 4),
    ("auction", "distribution"): ({"environment": "kind = auction\ndistribution = beta\n"
                                                  "p = 2\nq = 5"},
                                  lambda c: c.environment.distribution, "beta"),
    ("uniform", "a"): (synthetic("uniform", "a = 0.25\nb = 1.0"), env_param("a"), 0.25),
    ("uniform", "b"): (synthetic("uniform", "a = 0.0\nb = 2.5"), env_param("b"), 2.5),
    ("gaussian", "mu"): (synthetic("gaussian", "mu = 3\nsigma = 1"), env_param("mu"), 3.0),
    ("gaussian", "sigma"): (synthetic("gaussian", "mu = 0\nsigma = 2"), env_param("sigma"), 2.0),
    ("beta", "p"): (synthetic("beta", "p = 2\nq = 5"), env_param("p"), 2.0),
    ("beta", "q"): (synthetic("beta", "p = 2\nq = 5"), env_param("q"), 5.0),
    ("pointmix", "atoms"): (synthetic("pointmix", "atoms = 0.1, 0.5\nweights = 0.25, 0.75"),
                            env_param("atoms"), (0.1, 0.5)),
    ("pointmix", "weights"): (synthetic("pointmix", "atoms = 0.1, 0.5\nweights = 0.25, 0.75"),
                              env_param("weights"), (0.25, 0.75)),
    ("aci", "gamma"): ({"policy": "kind = aci\ngamma = 0.05"}, spec_fields("gamma"), [0.05]),
    ("aci", "gamma_grid"): ({"policy": "kind = aci\ngamma_grid = 0.01, 0.03"},
                            spec_fields("gamma"), [0.01, 0.03]),
    ("dlr", "tau_init"): ({"policy": "kind = dlr\ntau_init = -0.5"},
                          spec_fields("tau_init"), [-0.5]),
    ("etc", "m"): ({"policy": "kind = etc\nm = 20"}, spec_fields("explore_rounds"), [20]),
    ("etc", "m_grid"): ({"policy": "kind = etc\nm_grid = 10, 30"},
                        spec_fields("explore_rounds"), [10, 30]),
    ("con_etc", "m"): ({"policy": "kind = con_etc\nm = 20"},
                       spec_fields("explore_rounds"), [20]),
    ("con_etc", "m_grid"): ({"policy": "kind = con_etc\nm_grid = 10, 30"},
                            spec_fields("explore_rounds"), [10, 30]),
}


class TestKeyTable:
    def test_every_key_has_a_case(self):
        assert set(KEY_CASES) == {(reader, key) for reader, keys in KEYS.items()
                                  for key in keys}

    @pytest.mark.parametrize("reader, key", sorted(KEY_CASES))
    def test_key_reaches_its_field(self, tmp_path, reader, key):
        parts, read_back, expected = KEY_CASES[reader, key]
        body = KEY_CONFIG.format(**{**KEY_PARTS, **parts})
        assert read_back(load_config(write_config(tmp_path, body))) == expected

    @pytest.mark.parametrize("path", sorted(
        str(p.relative_to(REPO)) for pattern in ("configs/*.ini", "perfbench/workloads/*.ini")
        for p in REPO.glob(pattern)))
    def test_shipped_config_loads(self, path):
        assert load_config(str(REPO / path)).policies


class TestRunBatch:
    def test_sweep_selection_and_rows(self):
        cfg = small_cfg(policies=[
            PolicyEntry(policy_id="etc", kind="etc", grid=("m", (10, 50, 100))),
        ], horizon=200, runs=2)
        result = run_batch(cfg)
        assert len(result.sweep_rows) == 3
        assert sum(sel for *_, sel in result.sweep_rows) == 1
        winner = next(row for row in result.sweep_rows if row[4])
        assert result.selected["etc"] == f"m={winner[2]}"
        finals = [row[3] for row in result.sweep_rows]
        assert winner[3] == min(finals)

    def test_score_log_parsed_once(self, tmp_path, monkeypatch):
        parsed = []
        load = environments.load_score_log
        monkeypatch.setattr(environments, "load_score_log",
                            lambda path: parsed.append(load(path)) or parsed[-1])
        (tmp_path / "scores.csv").write_text("round_id,gt_score\n0,0.5\n1,0.2\n")
        body = (
            "[experiment]\nhorizon = 10\nruns = 2\n"
            "[environment]\nkind = score_log\npath = scores.csv\n"
            "[policy:sps]\nkind = sps\n"
        )
        cfg = load_config(write_config(tmp_path, body))
        env = cfg.environment.build()
        run_batch(cfg)
        assert len(parsed) == 1
        # the environment validation built, holding the one parse's arrays
        assert env.scores is parsed[0][0]

    def test_fixed_policy_emits_no_sweep_rows(self):
        result = run_batch(small_cfg())
        assert result.sweep_rows == []
        assert result.selected == {"sps": ""}

    def test_summary_row_count(self):
        cfg = small_cfg(policies=[
            PolicyEntry(policy_id="sps", kind="sps"),
            PolicyEntry(policy_id="greedy", kind="greedy"),
        ], horizon=200, runs=2)
        result = run_batch(cfg)
        n_checkpoints = len(checkpoint_grid(200))
        assert len(result.summary_rows) == 2 * n_checkpoints * 3

    def test_single_run_warns(self):
        with warns_single_run():
            run_batch(small_cfg(runs=1, horizon=50))

    def test_aggregation_against_direct_recompute(self):
        cfg = small_cfg(horizon=150, runs=3)
        result = run_batch(cfg)
        per_run = [run for _, _, run in result.traces]
        assert len(per_run) == 3
        for policy, t, metric, mean, lo, hi in result.summary_rows:
            if metric == "cum_regret":
                vals = [r.cum_regret[t - 1] for r in per_run]
            elif metric == "coverage_rate":
                vals = [sum(r.covered[:t].tolist()) / t for r in per_run]
            else:
                vals = [sum(r.undercover[:t].tolist()) for r in per_run]
            vals = np.array(vals, dtype=float)
            want_mean = float(np.mean(vals))
            half = 1.96 * float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
            assert mean == pytest.approx(want_mean, abs=1e-9)
            assert hi - mean == pytest.approx(half, abs=1e-9)
            assert mean - lo == pytest.approx(half, abs=1e-9)

    def test_tie_goes_to_first_grid_point(self, monkeypatch):
        cfg = small_cfg(policies=[
            PolicyEntry(policy_id="etc", kind="etc", grid=("m", (50, 10, 100))),
        ], horizon=200, runs=2)
        tied = run_single(cfg, cfg.policy_spec(cfg.policies[0], {"explore_rounds": 10}), 0)
        monkeypatch.setattr(harness, "run_single", lambda *args: tied)
        result = run_batch(cfg)
        assert result.selected == {"etc": "m=50"}
        assert [row[4] for row in result.sweep_rows] == [1, 0, 0]

    def test_ci_symmetric_and_ordered(self):
        result = run_batch(small_cfg(horizon=100, runs=3))
        for *_, mean, lo, hi in [(r[0], r[3], r[4], r[5]) for r in result.summary_rows]:
            assert lo <= mean <= hi


class TestEmitCsv:
    def test_files_and_headers(self, tmp_path):
        cfg = small_cfg(horizon=100, runs=2, trace=True, out=str(tmp_path / "res"))
        written = emit_csv(run_batch(cfg), cfg)
        assert set(written) == {"summary.csv", "trace.csv", "meta.json"}
        summary = Path(written["summary.csv"]).read_text().splitlines()
        assert summary[0] == "policy,t,metric,mean,ci_lo,ci_hi"
        trace = Path(written["trace.csv"]).read_text().splitlines()
        assert trace[0] == ("run_id,policy,t,tau,covered,inst_regret,"
                            "cum_regret,undercover,set_size")
        meta = json.loads(Path(written["meta.json"]).read_text())
        assert meta["horizon"] == 100 and "timestamp" in meta

    def test_minus_infinity_token(self, tmp_path):
        cfg = small_cfg(horizon=50, runs=1, trace=True, out=str(tmp_path / "res"))
        with warns_single_run():
            result = run_batch(cfg)
        written = emit_csv(result, cfg)
        first_row = Path(written["trace.csv"]).read_text().splitlines()[1]
        token = first_row.split(",")[3]
        assert token == "-inf" and float(token) == NEG_INF

    def test_plus_infinity_token(self, tmp_path):
        # ACI's budget passes 1 after a few covered rounds at alpha = 0.1;
        # its level is clamped to 1 and the sup-quantile there is +inf
        body = (
            f"[experiment]\nalpha = 0.1\nhorizon = 2000\nruns = 2\nseed = 0\n"
            f"out = {tmp_path / 'res'}\ntrace = true\n"
            "[environment]\nkind = synthetic\ndistribution = uniform\na = 0.0\nb = 1.0\n"
            "[policy:aci]\nkind = aci\ngamma = 0.128\n"
        )
        cfg = load_config(write_config(tmp_path, body))
        written = emit_csv(run_batch(cfg), cfg)
        rows = [line.split(",") for line in
                Path(written["trace.csv"]).read_text().splitlines()[1:]]
        env = cfg.environment.build()
        phi_star = loss_phi(env.oracle_tau_star(cfg.alpha), env.oracle_cdf(), cfg.loss)
        phi_inf = -cfg.loss.lambda2 * cfg.alpha
        plus = [row for row in rows if row[3] == "inf"]
        assert plus and any(row[3] == "-inf" for row in rows)
        for row in plus:
            assert (row[4], row[7]) == ("0", "1")  # nothing covered, undercovering
            assert float(row[5]) == pytest.approx(abs(phi_star - phi_inf), rel=1e-12)

    @pytest.mark.parametrize("failing", ["summary.csv", "trace.csv"])
    def test_failed_write_keeps_earlier_results(self, tmp_path, monkeypatch, failing):
        out = tmp_path / "res"
        cfg = small_cfg(horizon=100, runs=2, trace=True, out=str(out))
        emit_csv(run_batch(cfg), cfg)
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        class FullDisk:
            """Writes half of what it is given, then fails like a full disk."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def open_filling_disk(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            return FullDisk(fh) if failing in os.path.basename(path) else fh

        monkeypatch.setattr(harness, "open", open_filling_disk, raising=False)
        rerun = dataclasses.replace(cfg, seed=8)
        with pytest.raises(OutputError):
            emit_csv(run_batch(rerun), rerun)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_rerun_removes_results_it_did_not_write(self, tmp_path):
        # a traced sweep, then a rerun with neither trace nor sweep into the
        # same directory: the old trace.csv and sweep.csv must not stay
        # beside the new summary.csv
        out = tmp_path / "res"
        cfg = small_cfg(policies=[
            PolicyEntry(policy_id="sps", kind="sps"),
            PolicyEntry(policy_id="etc", kind="etc", grid=("m", (10, 50))),
        ], horizon=100, runs=2, trace=True, out=str(out))
        emit_csv(run_batch(cfg), cfg)
        (out / "notes.txt").write_text("not a result file")
        assert {p.name for p in out.iterdir()} == {
            "summary.csv", "sweep.csv", "trace.csv", "meta.json", "notes.txt"}
        rerun = dataclasses.replace(cfg, policies=cfg.policies[:1], trace=False)
        written = emit_csv(run_batch(rerun), rerun)
        assert set(written) == {"summary.csv", "meta.json"}
        assert {p.name for p in out.iterdir()} == {"summary.csv", "meta.json", "notes.txt"}

    def test_set_size_empty_on_rounds_without_candidates(self, tmp_path):
        (tmp_path / "scores.csv").write_text(
            "round_id,gt_score,cand_0,cand_1\n0,0.5,0.5,0.9\n1,0.7\n")
        body = (
            f"[experiment]\nhorizon = 50\nruns = 2\ntrace = true\nout = {tmp_path / 'res'}\n"
            "[environment]\nkind = score_log\npath = scores.csv\n"
            "[policy:sps]\nkind = sps\n"
        )
        cfg = load_config(write_config(tmp_path, body))
        written = emit_csv(run_batch(cfg), cfg)
        rows = [line.split(",") for line in
                Path(written["trace.csv"]).read_text().splitlines()[1:]]
        # at tau = -inf both candidates of row 0 are in the set
        assert {row[8] for row in rows if row[3] == "-inf"} == {"2", ""}

    def test_trace_round_trips_exactly(self, tmp_path):
        cfg = small_cfg(horizon=120, runs=1, trace=True, out=str(tmp_path / "res"))
        with warns_single_run():
            result = run_batch(cfg)
        written = emit_csv(result, cfg)
        rows = [line.split(",") for line in
                Path(written["trace.csv"]).read_text().splitlines()[1:]]
        # re-sum at the documented 12-significant-digit precision
        cum = 0.0
        for row in rows:
            cum = float(f"{cum + float(row[5]):.12g}")
            assert float(row[6]) == cum  # exact, not approximate

    def test_summary_matches_batch_rows(self, tmp_path):
        cfg = small_cfg(horizon=80, runs=2, out=str(tmp_path / "res"))
        result = run_batch(cfg)
        written = emit_csv(result, cfg)
        lines = Path(written["summary.csv"]).read_text().splitlines()[1:]
        assert len(lines) == len(result.summary_rows)

    def test_sweep_file_only_when_sweeping(self, tmp_path):
        cfg = small_cfg(policies=[
            PolicyEntry(policy_id="etc", kind="etc", grid=("m", (10, 50))),
        ], horizon=100, runs=1, out=str(tmp_path / "res"))
        with warns_single_run():
            result = run_batch(cfg)
        written = emit_csv(result, cfg)
        assert "sweep.csv" in written
        lines = Path(written["sweep.csv"]).read_text().splitlines()
        assert lines[0] == "policy,param,value,mean_final_regret,selected"
        assert len(lines) == 3

    def test_unwritable_destination(self, tmp_path):
        # a regular file in the output path makes makedirs fail on any user
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cfg = small_cfg(horizon=50, runs=1, out=str(blocker / "res"))
        with warns_single_run():
            result = run_batch(cfg)
        with pytest.raises(OutputError):
            emit_csv(result, cfg)
        assert not (blocker / "res" / "summary.csv").exists()


def reference_render_trace(traces):
    """The row-by-row trace renderer: one f-string and three formats a row."""
    lines = ["run_id,policy,t,tau,covered,inst_regret,cum_regret,undercover,set_size"]
    for run_id, policy, run in traces:
        sizes = [""] * len(run.tau) if run.set_size is None else [
            "" if n < 0 else str(n) for n in run.set_size.tolist()]
        rounds = zip(run.tau.tolist(), run.covered.tolist(), run.inst_regret.tolist(),
                     run.cum_regret.tolist(), run.undercover.tolist(), sizes)
        for t, (tau, covered, inst, cum, under, size) in enumerate(rounds, start=1):
            lines.append(
                f"{run_id},{policy},{t},{tau:.12g},{int(covered)},"
                f"{inst:.12g},{cum:.12g},{int(under)},{size}"
            )
    return "\n".join(lines) + "\n"


def reference_aggregate(policy_id, runs, checkpoints):
    """Summary rows from one 1-D mean and std per (checkpoint, metric)."""
    per_run = [(run.cum_regret, coverage_rate(run.covered),
                undercoverage_count(run.undercover)) for run in runs]
    rows = []
    for t in checkpoints:
        for col, metric in enumerate(("cum_regret", "coverage_rate", "undercoverage_count")):
            vals = np.array([columns[col][t - 1] for columns in per_run], dtype=float)
            mean = float(np.mean(vals))
            half = (0.0 if len(vals) < 2 else
                    1.96 * float(np.std(vals, ddof=1)) / math.sqrt(len(vals)))
            rows.append((policy_id, t, metric, mean, mean - half, mean + half))
    return rows


# values that repeat, print alike as floats but not as bits, or are sentinels
SPECIAL = st.sampled_from([-0.0, 0.0, NEG_INF, math.inf, 0.1, 1e-5, 123456789012.5])
TRACE_FLOAT = st.one_of(SPECIAL, st.floats(allow_nan=False))


@st.composite
def float_column(draw, n, longest):
    """n floats in stretches of up to `longest` equal values."""
    values = []
    while len(values) < n:
        values += [draw(TRACE_FLOAT)] * draw(st.integers(1, longest))
    return np.array(values[:n])


@st.composite
def trace_run(draw):
    n = draw(st.integers(1, 60))
    flags = st.integers(0, 2**n - 1).map(
        lambda bits: np.array([bits >> i & 1 for i in range(n)], dtype=bool))
    sizes = st.none() | st.lists(st.integers(-1, 12), min_size=n, max_size=n).map(
        lambda xs: np.array(xs, dtype=np.int64))
    # tau and inst_regret come in long constant stretches, cum_regret not
    return RunColumns(tau=draw(float_column(n, 30)), covered=draw(flags),
                      set_size=draw(sizes), inst_regret=draw(float_column(n, 30)),
                      cum_regret=draw(float_column(n, 2)), undercover=draw(flags))


POLICY_ID = st.from_regex(r"[A-Za-z0-9_.-]+", fullmatch=True)


def zero_signs_run():
    """-0.0 and 0.0 in one tau column, beside a set size of -1."""
    tau = np.array([-0.0, 0.0, 0.0, -0.0, math.inf, NEG_INF])
    flags = np.array([True, False, True, False, True, False])
    return RunColumns(tau=tau, covered=flags, set_size=np.array([-1, 0, 3, -1, 2, 0]),
                      inst_regret=np.array([0.0, -0.0, 1.5, 1.5, 1.5, 0.0]),
                      cum_regret=np.array([0.0, -0.0, 1.5, 3.0, 4.5, 4.5]),
                      undercover=~flags)


def render_trace(traces) -> bytes:
    return b"".join(harness._render_trace(traces))


def leading_zeros_run(n=5000):
    """A cum_regret column of n - 3 zeros, then three grid values."""
    cum = np.zeros(n)
    cum[-3:] = [0.25, 0.5, 12.5]
    flags = np.zeros(n, dtype=bool)
    return RunColumns(tau=np.full(n, 0.5), covered=flags, set_size=None,
                      inst_regret=np.diff(cum, prepend=0.0), cum_regret=cum,
                      undercover=flags)


def wide_fallback_run():
    """cum_regret fields that take the formatted path, one longer (20
    bytes) than any fixed-notation field (at most 18)."""
    run = zero_signs_run()
    return dataclasses.replace(run, cum_regret=np.array(
        [0.5, -1.34078079299e+154, 1.5, 1e-300, 123456.789012, 5e-324]))


class TestTraceRender:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 200), POLICY_ID, trace_run()), max_size=3))
    @example([(0, "dlr", zero_signs_run()), (1, "a.b-c_d", zero_signs_run())])
    @example([(0, "sps", leading_zeros_run()), (1, "sps", leading_zeros_run())])
    @example([(3, "etc", wide_fallback_run())])
    def test_matches_row_by_row_renderer(self, traces):
        assert render_trace(traces) == reference_render_trace(traces).encode()

    @pytest.mark.parametrize("kind", ["auction", "uniform"])
    def test_batch_traces_match_row_by_row_renderer(self, kind):
        if kind == "auction":
            env = EnvironmentSpec(kind="auction", distribution="gaussian",
                                  dist_params={"mu": 25.0, "sigma": 8.0}, bidders=3)
            cfg = ExperimentConfig(environment=env, policies=LOOP_POLICIES[:2], alpha=0.9,
                                   horizon=3000, runs=2, seed=1, trace=True)
        else:
            cfg = small_cfg(policies=LOOP_POLICIES, horizon=2000, runs=2, trace=True)
        cfg.validate()
        traces = run_batch(cfg).traces
        assert render_trace(traces) == reference_render_trace(traces).encode()

    def test_leading_zeros_are_formatted_once(self, monkeypatch):
        formatted = []

        class CountingFormat(str):
            def __mod__(self, value):
                formatted.append(value)
                return str.__mod__(self, value)

        monkeypatch.setattr(harness, "FLOAT_FIELD", CountingFormat(harness.FLOAT_FIELD))
        run = leading_zeros_run(10**4)
        assert render_trace([(0, "sps", run)]) == reference_render_trace(
            [(0, "sps", run)]).encode()
        # one tau, three inst_regret values (0, 0.25, 12) and cum_regret's
        # zero, each once
        assert sorted(formatted) == [0.0, 0.0, 0.25, 0.5, 12.0]

    def test_nul_in_policy_id_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="NUL"):
            render_trace([(0, "sps", zero_signs_run()), (1, "s\x00ps", zero_signs_run())])
        # a hand-built config skips validate; emit_csv leaves nothing behind
        cfg = ExperimentConfig(environment=UNIFORM_ENV, policies=[
            PolicyEntry(policy_id="a\x00b", kind="sps")], alpha=0.9, horizon=50, runs=2,
            out_dir=str(tmp_path / "res"), trace=True)
        with pytest.raises(ValueError, match="NUL"):
            emit_csv(run_batch(cfg), cfg)
        assert list((tmp_path / "res").iterdir()) == []

    def test_non_ascii_policy_id_is_utf8(self, tmp_path):
        policy = "s\u00e9ries-\u03c4-\U0001f600"
        traces = [(0, policy, zero_signs_run())]
        assert render_trace(traces) == reference_render_trace(traces).encode("utf-8")
        # `validate` would refuse this id; a hand-built config is written as is
        cfg = ExperimentConfig(environment=UNIFORM_ENV, policies=[
            PolicyEntry(policy_id=policy, kind="sps")], alpha=0.9, horizon=40, runs=2,
            out_dir=str(tmp_path / "res"), trace=True)
        result = run_batch(cfg)
        written = emit_csv(result, cfg)
        assert (Path(written["trace.csv"]).read_bytes()
                == reference_render_trace(result.traces).encode("utf-8"))


def cum_field_strings(values) -> list[bytes]:
    """`_cum_field` of a column, row by row without the NUL padding."""
    return [row.replace(b"\0", b"")
            for row in harness._cum_field(np.array(values, dtype=float)).tolist()]


def printed(values) -> list[bytes]:
    return [("%.12g," % x).encode() for x in values]


# every power of ten a double holds, with the doubles on either side
POWERS_OF_TEN = [float(f"1e{k}") for k in range(-12, 17)]
NEAR_POWERS = [np.nextafter(p, side) for p in POWERS_OF_TEN for side in (0.0, math.inf)]
EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, -1.5, -1e-5, 5e-324, 2.2250738585072014e-308,
         1e-5, 1e-4, 9.99999999999e-05, 9.99999999999e-06, 0.000099999999999995,
         1e12, 999999999999.5, 999999999999.0, 99999999999.95, 9.999999999995,
         123456789012.5, -1.34078079299e+154]


@st.composite
def grid_value(draw, digits=12):
    """A value rounded at `digits` significant digits, in a decade from 1e-7 to 1e14."""
    mantissa = draw(st.floats(1.0, 10.0, exclude_max=True))
    return float(f"{mantissa * 10.0 ** draw(st.integers(-7, 14)):.{digits}g}")


CUM_VALUE = st.one_of(grid_value(), grid_value(3), st.floats(), st.floats(1e-6, 1e13),
                      st.sampled_from(EDGES + POWERS_OF_TEN + NEAR_POWERS))


class TestCumField:
    def test_edges(self):
        values = EDGES + POWERS_OF_TEN + NEAR_POWERS
        assert cum_field_strings(values) == printed(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(CUM_VALUE, min_size=1, max_size=40))
    def test_matches_printf(self, values):
        assert cum_field_strings(values) == printed(values)


class TestTField:
    @pytest.mark.parametrize("n", [1, 9, 10, 99, 100, 999, 1000, 9999, 10**4, 10**6])
    def test_matches_printf(self, n):
        # each entry is '%d,' % t, NUL-padded to the widest, which is the
        # S array `_field` gives
        expected = np.array([b"%d," % t for t in range(1, n + 1)])
        field = harness._t_field(n)
        assert field.dtype == expected.dtype
        assert field.tobytes() == expected.tobytes()


class TestAggregate:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 8, 9, 17, 129]), st.integers(1, 400),
           st.integers(0, 2**32 - 1))
    def test_matches_per_checkpoint_reduction(self, n_runs, horizon, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-6, 7)
        runs = [RunColumns(tau=np.zeros(horizon), covered=rng.random(horizon) < 0.9,
                           set_size=None, inst_regret=np.zeros(horizon),
                           cum_regret=np.cumsum(rng.random(horizon) * scale),
                           undercover=rng.random(horizon) < 0.1)
                for _ in range(n_runs)]
        checkpoints = checkpoint_grid(horizon)
        assert (harness._aggregate("sps", runs, checkpoints)
                == reference_aggregate("sps", runs, checkpoints))


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG.format(out="res", trace="false"))
        assert main(["validate", "--config", path]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_config_error_exit_1(self, tmp_path, capsys):
        path = write_config(tmp_path, "[experiment]\nhorizon = 10\n")
        assert main(["validate", "--config", path]) == 1
        assert "config error" in capsys.readouterr().err

    def test_alpha_that_rounds_away_is_a_config_error(self, tmp_path, capsys):
        # 1 - 1e-17 is 1.0: the cutoff of greedy and ETC would fail mid-run
        path = write_config(tmp_path, BASE_CONFIG.format(out="res", trace="false"))
        assert main(["validate", "--config", path, "--alpha", "1e-17"]) == 1
        assert "1 - alpha rounds to 1" in capsys.readouterr().err

    def test_run_writes_results(self, tmp_path, capsys):
        out = tmp_path / "res"
        path = write_config(tmp_path, BASE_CONFIG.format(out=out, trace="false"))
        assert main(["run", "--config", path, "--horizon", "100",
                     "--runs", "2"]) == 0
        assert (out / "summary.csv").exists()
        assert (out / "meta.json").exists()
        assert "wrote" in capsys.readouterr().out

    def test_oracle_output(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG.format(out="res", trace="false"))
        assert main(["oracle", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "tau_star=0.1" in out
        assert "g_at_tau_star=0.1" in out

    @pytest.mark.parametrize("env, lines", [
        ("distribution = uniform\na = 0.0\nb = 1.0\n",
         ["tau_star=0.1", "g_at_tau_star=0.1", "phi_at_tau_star=-0", "score_range=0,1"]),
        ("distribution = gaussian\nmu = 0.0\nsigma = 1.0\n",
         ["tau_star=-1.28155156554", "g_at_tau_star=0.1", "phi_at_tau_star=-0",
          "score_range=-inf,inf"]),
    ], ids=["uniform", "gaussian"])
    def test_oracle_prints_every_line(self, tmp_path, capsys, env, lines):
        body = BASE_CONFIG.format(out="res", trace="false").replace(
            "distribution = uniform\na = 0.0\nb = 1.0\n", env)
        assert main(["oracle", "--config", write_config(tmp_path, body)]) == 0
        assert capsys.readouterr().out.splitlines() == ["alpha=0.9"] + lines

    def test_sweep_requires_a_grid(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG.format(out="res", trace="false"))
        assert main(["sweep", "--config", path]) == 1

    def test_sweep_runs_grids_only(self, tmp_path):
        out = tmp_path / "res"
        body = BASE_CONFIG.format(out=out, trace="false") + \
            "\n[policy:etc]\nkind = etc\nm_grid = 10, 50\n"
        path = write_config(tmp_path, body)
        with warns_single_run():
            assert main(["sweep", "--config", path, "--horizon", "100",
                         "--runs", "1"]) == 0
        sweep = Path(out / "sweep.csv").read_text().splitlines()
        assert len(sweep) == 3
        summary = Path(out / "summary.csv").read_text()
        assert "sps," not in summary  # fixed policy skipped by sweep

    def test_run_failure_exit_2(self, tmp_path, capsys, monkeypatch):
        # a log that runs dry mid-run despite passing validation
        def exhausted(env, rng, n):
            raise RunExhaustedError("score log exhausted after 0 rounds")

        monkeypatch.setattr(ScoreLogEnv, "draw", exhausted)
        (tmp_path / "scores.csv").write_text("round_id,gt_score\n0,0.5\n1,0.7\n")
        body = (
            "[experiment]\nhorizon = 2\nruns = 1\nout = res\n"
            "[environment]\nkind = score_log\npath = scores.csv\n"
            "sampling = without_replacement\n"
            "[policy:sps]\nkind = sps\n"
        )
        path = write_config(tmp_path, body)
        with warns_single_run():
            assert main(["run", "--config", path]) == 2
        assert "run error" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, flags", [
        ("alpha = 0.9\n", "alpha = 1.5\n", []),
        ("alpha = 0.9\n", "alpha = 0.9\n", ["--alpha", "1.5"]),
        ("alpha = 0.9\n", "alpha = 0.9\nlambda1 = 20\n", []),
    ], ids=["alpha", "alpha-flag", "lambda1"])
    def test_bad_loss_parameters_exit_1(self, tmp_path, capsys, old, new, flags):
        body = BASE_CONFIG.format(out="res", trace="false").replace(old, new)
        assert main(["validate", "--config", write_config(tmp_path, body)] + flags) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("old, new, error", [
        ("runs = 3\n", "runs = 3\nruns = 4\n", "option 'runs' in section 'experiment' already"),
        ("[experiment]\n", "", "no section headers"),
        ("out = res\n", "out = res%1\n", "'%' must be followed by"),
    ], ids=["repeated-key", "no-section-header", "bare-percent"])
    def test_parse_error_exit_1(self, tmp_path, capsys, old, new, error):
        body = BASE_CONFIG.format(out="res", trace="false").replace(old, new, 1)
        path = write_config(tmp_path, body)
        assert main(["validate", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ") and error in err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_candidate_exit_1(self, tmp_path, capsys, bad):
        (tmp_path / "scores.csv").write_text(
            f"round_id,gt_score,cand_0,cand_1\n0,0.5,0.5,0.2\n1,0.5,0.5,{bad}\n")
        body = (
            "[experiment]\nhorizon = 10\nruns = 1\n"
            "[environment]\nkind = score_log\npath = scores.csv\n"
            "[policy:sps]\nkind = sps\n"
        )
        assert main(["validate", "--config", write_config(tmp_path, body)]) == 1
        assert "scores.csv:3: non-finite candidate score" in capsys.readouterr().err

    def test_short_log_rejected_before_any_run(self, tmp_path, capsys):
        # 500 rows cannot be sampled 1000 times without replacement
        log = resources.files("semibandit_conformal.data") / "example_scores.csv"
        body = (
            f"[experiment]\nhorizon = 1000\nruns = 1\nout = {tmp_path / 'res'}\n"
            f"[environment]\nkind = score_log\npath = {log}\n"
            "sampling = without_replacement\n"
            "[policy:sps]\nkind = sps\n"
        )
        path = write_config(tmp_path, body)
        assert main(["run", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "500 rows" in err
        assert not (tmp_path / "res").exists()
        assert load_config(path, {"horizon": 500}).horizon == 500

    def test_output_error_exit_3(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        path = write_config(
            tmp_path, BASE_CONFIG.format(out=blocker / "res", trace="false"))
        with warns_single_run():
            assert main(["run", "--config", path, "--horizon", "50",
                         "--runs", "1"]) == 3
        assert "i/o error" in capsys.readouterr().err


class TestReproducibility:
    def test_identical_invocations_byte_identical_csvs(self, tmp_path):
        outputs = []
        for name in ("first", "second"):
            out = tmp_path / name
            cfg = small_cfg(horizon=150, runs=2, trace=True, out=str(out))
            written = emit_csv(run_batch(cfg), cfg)
            outputs.append({
                k: Path(p).read_bytes() for k, p in written.items()
                if k != "meta.json"
            })
        assert outputs[0] == outputs[1]
