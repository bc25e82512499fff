"""End-to-end acceptance checks for the benchmark.

Each test covers one acceptance criterion and prints a single
``ACCEPTANCE <n> PASS|FAIL`` line (run pytest with ``-s`` to see the
lines for passing tests as well).
"""

import math
import time
from importlib import resources

import numpy as np
import pytest

from semibandit_conformal.cdf_band import (
    NEG_INF,
    POS_INF,
    TruncatedEcdf,
    band_epsilon,
)
from semibandit_conformal.cli import main
from semibandit_conformal.environments import (
    AuctionEnv,
    AuctionRound,
    EnvironmentSpec,
    apply_feedback,
    auction_reward,
    load_bid_pool,
)
from semibandit_conformal.harness import (
    ExperimentConfig,
    PolicyEntry,
    run_batch,
    run_single,
)
from semibandit_conformal.metrics import LossParams, loss_phi, regret_bound
from semibandit_conformal.policies import PolicySpec

ALPHA = 0.9
HORIZON = 10000
LOSS = LossParams(lambda1=0.1, lambda2=10.0, alpha=ALPHA)

UNIFORM = EnvironmentSpec(
    kind="synthetic", distribution="uniform", dist_params={"a": 0.0, "b": 1.0}
)
GAUSSIAN = EnvironmentSpec(
    kind="synthetic", distribution="gaussian", dist_params={"mu": 0.0, "sigma": 1.0}
)


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


class SpsRun:
    """One full banded-policy trajectory plus the band-range audit."""

    __slots__ = ("undercover", "covered", "cum_at", "tail_coverage",
                 "coverage", "band_ok", "elapsed")

    def __init__(self, env_spec, seed):
        env = env_spec.build()
        rng = np.random.default_rng(seed)
        gstar = env.oracle_cdf()
        tau_star = env.oracle_tau_star(ALPHA)
        phi_star = loss_phi(tau_star, gstar, LOSS)
        policy = PolicySpec(kind="sps", alpha=ALPHA, horizon=HORIZON).build()

        start = time.perf_counter()
        undercover = 0
        covered_total = 0
        tail_covered = 0
        tail_start = HORIZON - HORIZON // 4 + 1
        cum = 0.0
        cum_at = {}
        band_ok = True
        for t in range(1, HORIZON + 1):
            tau = policy.propose()
            sample = env.next_round(rng)
            fb = apply_feedback(tau, sample.score)
            policy.update(fb)
            covered_total += fb.observed
            if t >= tail_start:
                tail_covered += fb.observed
            if tau > tau_star:
                undercover += 1
            cum += abs(phi_star - loss_phi(tau, gstar, LOSS))
            if t in (2500, 5000, 10000):
                cum_at[t] = cum
            if math.isfinite(policy.tau):
                upper = policy.ecdf.eval_upper(policy.tau)
                eps = policy.ecdf.epsilon()
                if not ((1 - ALPHA) - 2.0 / t <= upper <= (1 - ALPHA) + 2 * eps):
                    band_ok = False
        self.elapsed = time.perf_counter() - start
        self.undercover = undercover
        self.covered = covered_total
        self.coverage = covered_total / HORIZON
        self.tail_coverage = tail_covered / (HORIZON - tail_start + 1)
        self.cum_at = cum_at
        self.band_ok = band_ok


@pytest.fixture(scope="module")
def sps_runs():
    return {
        "uniform": [SpsRun(UNIFORM, seed) for seed in range(100)],
        "gaussian": [SpsRun(GAUSSIAN, seed) for seed in range(100)],
    }


def batch_cfg(env_spec, policies, runs, horizon=HORIZON, seed=0):
    cfg = ExperimentConfig(
        environment=env_spec, policies=policies, alpha=ALPHA,
        horizon=horizon, runs=runs, seed=seed, loss=LOSS,
    )
    cfg.validate()
    return cfg


def test_criterion_1_no_undercoverage_and_runtime(sps_runs):
    worst = max(r.undercover for runs in sps_runs.values() for r in runs)
    per_run = float(np.mean(
        [r.elapsed for runs in sps_runs.values() for r in runs]))
    ok = worst == 0 and per_run < 2.0
    report(1, ok,
           f"max undercoverage over 200 runs = {worst} (target 0), "
           f"mean runtime {per_run:.3f}s/run (target < 2s)")


def test_criterion_2_coverage_calibration(sps_runs):
    # converged coverage: last quarter of the horizon, mean over 10 seeds
    tail = float(np.mean([r.tail_coverage for r in sps_runs["uniform"][:10]]))
    full = float(np.mean([r.coverage for r in sps_runs["uniform"][:10]]))
    sps_ok = 0.90 <= tail <= 0.94 and full >= 0.90

    # the non-banded baselines miscalibrate on the same environment
    greedy_cov = np.mean([
        sum(run_single(
            batch_cfg(UNIFORM, [PolicyEntry("greedy", "greedy")], 1),
            PolicySpec(kind="greedy", alpha=ALPHA, horizon=HORIZON),
            seed).covered.tolist()) / HORIZON
        for seed in range(10)
    ])
    aci = run_batch(batch_cfg(UNIFORM, [PolicyEntry("aci", "aci")], runs=10))
    aci_cov = next(mean for pid, t, metric, mean, *_ in aci.summary_rows
                   if metric == "coverage_rate" and t == HORIZON)
    baseline_ok = greedy_cov < 0.90 and aci_cov < 0.90
    report(2, sps_ok and baseline_ok,
           f"banded tail coverage {tail:.4f} in [0.90, 0.94], "
           f"cumulative {full:.4f} >= 0.90; greedy {greedy_cov:.4f} and "
           f"grid-swept budget-tracking baseline {aci_cov:.4f} both < 0.90")


def test_criterion_3_regret_bound_and_sublinear_growth(sps_runs):
    means = {
        t: float(np.mean([r.cum_at[t] for r in sps_runs["uniform"]]))
        for t in (2500, 5000, 10000)
    }
    bound = regret_bound(HORIZON, LOSS.lipschitz_k, LOSS.phi_max)
    r1 = means[5000] / means[2500]
    r2 = means[10000] / means[5000]
    ok = means[10000] <= bound and 1.2 <= r1 <= 1.9 and 1.2 <= r2 <= 1.9
    report(3, ok,
           f"mean R_10000 = {means[10000]:.1f} <= bound {bound:.1f}; "
           f"doubling ratios {r1:.3f}, {r2:.3f} in [1.2, 1.9]")


def test_criterion_4_safety_separation(sps_runs):
    cfg = batch_cfg(UNIFORM, [PolicyEntry("greedy", "greedy")], 1)
    spec = PolicySpec(kind="greedy", alpha=ALPHA, horizon=HORIZON)
    greedy_under = min(
        sum(run_single(cfg, spec, seed).undercover.tolist())
        for seed in range(5)
    )
    sps_under = max(r.undercover for r in sps_runs["uniform"])
    ok = greedy_under > 100 and sps_under == 0
    report(4, ok,
           f"greedy undercoverage >= {greedy_under} rounds (target > 100), "
           f"banded policy {sps_under} (target 0)")


def brute_force_cutoff(samples, level):
    xs = sorted(samples)
    n = len(xs)

    def ecdf(tau):
        return sum(1 for v in xs if v <= tau) / n

    candidates = []
    for i, x in enumerate(xs):
        if i > 0 and xs[i - 1] < x:
            candidates.append((xs[i - 1] + x) / 2.0)
        candidates.append(x)
    if ecdf(xs[0] - 1.0) > level + 1e-9:
        return NEG_INF
    for c in candidates:
        if ecdf(c) > level + 1e-9:
            return c
    return POS_INF


def test_criterion_5_cutoff_matches_brute_force():
    rng = np.random.default_rng(20240817)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        values = rng.uniform(-50, 50, size=n).tolist()
        alpha = float(rng.uniform(0.5, 0.99))
        eps = float(rng.uniform(0.0, 0.6))
        e = TruncatedEcdf(HORIZON)
        for v in values:
            e.insert(v)
        if e.conformal_cutoff(alpha, epsilon=eps) != \
                brute_force_cutoff(values, 1 - alpha - eps):
            mismatches += 1
    report(5, mismatches == 0,
           f"{mismatches}/1000 randomized cutoff queries disagree with the "
           "brute-force sup (target 0)")


def test_criterion_6_band_holds_at_nominal_rate():
    rng = np.random.default_rng(13)
    delta, reps = 0.05, 10000
    worst = 0.0
    details = []
    for n in (10, 100, 1000):
        eps = band_epsilon(delta, n)
        x = np.sort(rng.uniform(size=(reps, n)), axis=1)
        upper = np.arange(1, n + 1) / n - x
        lower = x - np.arange(0, n) / n
        sup_dev = np.maximum(upper, lower).max(axis=1)
        frac = float(np.mean(sup_dev > eps))
        worst = max(worst, frac)
        details.append(f"t={n}: {frac:.4f}")
    report(6, worst <= 0.06,
           f"band violation fractions {{{', '.join(details)}}} all <= 0.06 "
           f"at delta = {delta}")


def test_criterion_7_band_range_invariant(sps_runs):
    bad = sum(not r.band_ok for runs in sps_runs.values() for r in runs)
    report(7, bad == 0,
           f"{bad}/200 runs violate (1-alpha) - 2/t <= upper-band value at "
           "the played threshold <= (1-alpha) + 2*eps_t (target 0)")


def test_criterion_8_auction_reward_and_coverage():
    # exhaustive case analysis on a value grid, boundaries included
    grid = [v / 2.0 for v in range(21)]  # 0.0 .. 10.0
    mismatches = 0
    for b1 in grid:
        for b2 in grid:
            if b2 > b1:
                continue
            rnd = AuctionRound(bids=(b1, b2))
            for p in grid:
                if p > b1:
                    want = 0.0
                elif p > b2:
                    want = p
                else:
                    want = b2
                if auction_reward(p, rnd) != want:
                    mismatches += 1

    pool_path = resources.files("semibandit_conformal.data") / "bid_pool.csv"
    env = AuctionEnv(pool=load_bid_pool(pool_path), bidders=2)
    rng = np.random.default_rng(3)
    policy = PolicySpec(kind="sps", alpha=ALPHA, horizon=HORIZON).build()
    covered = 0
    for _ in range(HORIZON):
        tau = policy.propose()
        sample = env.next_round(rng)
        fb = apply_feedback(tau, sample.score)
        policy.update(fb)
        covered += fb.observed
    coverage = covered / HORIZON
    ok = mismatches == 0 and coverage >= 0.9
    report(8, ok,
           f"{mismatches} reward mismatches on the exhaustive grid (target 0); "
           f"auction coverage {coverage:.4f} >= 0.9")


def test_criterion_9_byte_identical_reruns(tmp_path):
    config = """\
[experiment]
alpha = 0.9
horizon = 1000
runs = 3
seed = 11
trace = true

[environment]
kind = synthetic
distribution = uniform
a = 0.0
b = 1.0

[policy:sps]
kind = sps

[policy:greedy]
kind = greedy
"""
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(config)
    payloads = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        payloads.append({
            p.name: p.read_bytes()
            for p in sorted(out.iterdir()) if p.name != "meta.json"
        })
    identical = payloads[0] == payloads[1]
    report(9, identical,
           f"repeated CLI runs produce byte-identical result files "
           f"({sorted(payloads[0])})")
