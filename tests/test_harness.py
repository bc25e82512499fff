import dataclasses
import errno
import json
import math
import os

import numpy as np
import pytest

from semibandit_conformal import harness
from semibandit_conformal.cdf_band import NEG_INF
from semibandit_conformal.cli import main
from semibandit_conformal.environments import EnvironmentSpec
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
from semibandit_conformal.metrics import loss_phi

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
        assert by_id["aci"].gamma_grid == (0.01, 0.02)
        assert by_id["etc"].m_grid == (10, 20)
        assert len(by_id["aci"].grid_points()) == 2


class TestRunBatch:
    def test_sweep_selection_and_rows(self):
        cfg = small_cfg(policies=[
            PolicyEntry(policy_id="etc", kind="etc", m_grid=(10, 50, 100)),
        ], horizon=200, runs=2)
        result = run_batch(cfg)
        assert len(result.sweep_rows) == 3
        assert sum(sel for *_, sel in result.sweep_rows) == 1
        winner = next(row for row in result.sweep_rows if row[4])
        assert result.selected["etc"] == f"m={winner[2]}"
        finals = [row[3] for row in result.sweep_rows]
        assert winner[3] == min(finals)

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
            PolicyEntry(policy_id="etc", kind="etc", m_grid=(50, 10, 100)),
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
        summary = open(written["summary.csv"]).read().splitlines()
        assert summary[0] == "policy,t,metric,mean,ci_lo,ci_hi"
        trace = open(written["trace.csv"]).read().splitlines()
        assert trace[0] == ("run_id,policy,t,tau,covered,inst_regret,"
                            "cum_regret,undercover,set_size")
        meta = json.load(open(written["meta.json"]))
        assert meta["horizon"] == 100 and "timestamp" in meta

    def test_minus_infinity_token(self, tmp_path):
        cfg = small_cfg(horizon=50, runs=1, trace=True, out=str(tmp_path / "res"))
        with warns_single_run():
            result = run_batch(cfg)
        written = emit_csv(result, cfg)
        first_row = open(written["trace.csv"]).read().splitlines()[1]
        assert first_row.split(",")[3] == "-inf"
        assert float("-inf") == float("-inf".strip())

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
                open(written["trace.csv"]).read().splitlines()[1:]]
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
                open(written["trace.csv"]).read().splitlines()[1:]]
        # at tau = -inf both candidates of row 0 are in the set
        assert {row[8] for row in rows if row[3] == "-inf"} == {"2", ""}

    def test_trace_round_trips_exactly(self, tmp_path):
        cfg = small_cfg(horizon=120, runs=1, trace=True, out=str(tmp_path / "res"))
        with warns_single_run():
            result = run_batch(cfg)
        written = emit_csv(result, cfg)
        rows = [line.split(",") for line in
                open(written["trace.csv"]).read().splitlines()[1:]]
        # re-sum at the documented 12-significant-digit precision
        cum = 0.0
        for row in rows:
            cum = float(f"{cum + float(row[5]):.12g}")
            assert float(row[6]) == cum  # exact, not approximate

    def test_summary_matches_batch_rows(self, tmp_path):
        cfg = small_cfg(horizon=80, runs=2, out=str(tmp_path / "res"))
        result = run_batch(cfg)
        written = emit_csv(result, cfg)
        lines = open(written["summary.csv"]).read().splitlines()[1:]
        assert len(lines) == len(result.summary_rows)

    def test_sweep_file_only_when_sweeping(self, tmp_path):
        cfg = small_cfg(policies=[
            PolicyEntry(policy_id="etc", kind="etc", m_grid=(10, 50)),
        ], horizon=100, runs=1, out=str(tmp_path / "res"))
        with warns_single_run():
            result = run_batch(cfg)
        written = emit_csv(result, cfg)
        assert "sweep.csv" in written
        lines = open(written["sweep.csv"]).read().splitlines()
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


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG.format(out="res", trace="false"))
        assert main(["validate", "--config", path]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_config_error_exit_1(self, tmp_path, capsys):
        path = write_config(tmp_path, "[experiment]\nhorizon = 10\n")
        assert main(["validate", "--config", path]) == 1
        assert "config error" in capsys.readouterr().err

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
        sweep = open(out / "sweep.csv").read().splitlines()
        assert len(sweep) == 3
        summary = open(out / "summary.csv").read()
        assert "sps," not in summary  # fixed policy skipped by sweep

    def test_run_failure_exit_2(self, tmp_path, capsys):
        # without-replacement log shorter than the horizon exhausts mid-run
        (tmp_path / "scores.csv").write_text("round_id,gt_score\n0,0.5\n1,0.7\n")
        body = (
            "[experiment]\nhorizon = 10\nruns = 1\nout = res\n"
            "[environment]\nkind = score_log\npath = scores.csv\n"
            "sampling = without_replacement\n"
            "[policy:sps]\nkind = sps\n"
        )
        path = write_config(tmp_path, body)
        with warns_single_run():
            assert main(["run", "--config", path]) == 2
        assert "run error" in capsys.readouterr().err

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
                k: open(p, "rb").read() for k, p in written.items()
                if k != "meta.json"
            })
        assert outputs[0] == outputs[1]
