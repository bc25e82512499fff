"""Experiment orchestration: run grids, aggregation, CSV output.

`run_single` draws a run's scores as one column, plays the policy over
it, and returns the run as `metrics.RunColumns`: numpy columns tau,
covered and set_size, plus inst_regret, cum_regret and undercover
derived from them.  Outputs (floats at 12 significant digits,
-inf spelled ``-inf``, +inf ``inf``; each written to a temp file first):

    summary.csv  policy,t,metric,mean,ci_lo,ci_hi
    sweep.csv    policy,param,value,mean_final_regret,selected
    trace.csv    run_id,policy,t,tau,covered,inst_regret,cum_regret,undercover,set_size
    meta.json    timestamp sidecar (the only nondeterministic output)
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import time
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .config import ConfigError, ExperimentConfig, PolicyEntry, load_config  # noqa: F401
from .environments import set_size
from .metrics import RunColumns, coverage_rate, undercoverage_count
from .policies import PolicySpec


class RunError(RuntimeError):
    """A run aborted (exit code 2)."""


class OutputError(OSError):
    """Result files could not be written (exit code 3)."""


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def derive_seed(base_seed: int, policy_id: str, grid_key: str, run_idx: int) -> int:
    """Stable cross-machine run seed from the identifying tuple."""
    tag = f"{base_seed}|{policy_id}|{grid_key}|{run_idx}".encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:8], "big")


def checkpoint_grid(horizon: int) -> list[int]:
    """Sparse logging grid: decades plus every 1% of the horizon."""
    step = max(1, horizon // 100)
    points = set(range(step, horizon + 1, step))
    points.update(p for p in (1, 10, 100, 1000, horizon) if p <= horizon)
    return sorted(points)


# Rounds per Python list taken from the score column: a list of the whole
# column would hold T float objects at once.
BLOCK_ROUNDS = 4096


def run_single(cfg: ExperimentConfig, spec: PolicySpec, seed: int) -> RunColumns:
    """One (environment, policy, seed) trajectory of exactly T rounds.

    The environment draws all T scores up front; the loop then plays the
    policy over them with semi-bandit feedback (the score when it clears
    tau, else None).  Coverage and set sizes follow from the columns.
    """
    env = cfg.environment.built
    scores, candidates = env.draw(np.random.default_rng(seed), cfg.horizon)
    policy = spec.build()
    update = policy.update
    taus = np.empty(cfg.horizon)
    block: list[float] = []
    append = block.append
    for start in range(0, cfg.horizon, BLOCK_ROUNDS):
        for score in scores[start:start + BLOCK_ROUNDS].tolist():
            tau = policy.tau
            append(tau)
            update(score if score >= tau else None)
        taus[start:start + len(block)] = block
        block.clear()
    return RunColumns.derive(taus, scores >= taus, set_size(candidates, taus),
                             env.oracle_tau_star(cfg.alpha), env.oracle_cdf(), cfg.loss)


@dataclass
class BatchResult:
    summary_rows: list[tuple]   # (policy, t, metric, mean, ci_lo, ci_hi)
    sweep_rows: list[tuple]     # (policy, param, value, mean_final_regret, selected)
    traces: list[tuple[int, str, RunColumns]]  # (run_id, policy, run) per selected run
    selected: dict[str, str]    # policy_id -> winning grid_key


def _ci_halfwidth(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return 1.96 * float(np.std(values, ddof=1)) / math.sqrt(len(values))


def _aggregate(policy_id: str, runs: list[RunColumns],
               checkpoints: list[int]) -> list[tuple]:
    metrics = ("cum_regret", "coverage_rate", "undercoverage_count")
    per_run = [(run.cum_regret, coverage_rate(run.covered),
                undercoverage_count(run.undercover)) for run in runs]
    rows = []
    for t in checkpoints:
        for col, metric in enumerate(metrics):
            vals = np.array([columns[col][t - 1] for columns in per_run], dtype=float)
            mean = float(np.mean(vals))
            half = _ci_halfwidth(vals)
            rows.append((policy_id, t, metric, mean, mean - half, mean + half))
    return rows


def run_batch(cfg: ExperimentConfig) -> BatchResult:
    """Run every (policy, grid point, seed) and aggregate the winners.

    Swept parameters are selected by lowest mean final cumulative regret;
    summary checkpoints and traces come from the selected grid point.
    """
    if cfg.runs == 1:
        warnings.warn("runs = 1: confidence intervals degenerate to zero width")
    checkpoints = checkpoint_grid(cfg.horizon)
    summary_rows: list[tuple] = []
    sweep_rows: list[tuple] = []
    traces: list[tuple[int, str, RunColumns]] = []
    selected: dict[str, str] = {}

    for entry in cfg.policies:
        points = entry.grid_points()
        finals = []
        best_final = math.inf
        for grid_key, overrides in points:
            spec = cfg.policy_spec(entry, overrides)
            runs = []
            for run_idx in range(cfg.runs):
                seed = derive_seed(cfg.seed, entry.policy_id, grid_key, run_idx)
                try:
                    runs.append(run_single(cfg, spec, seed))
                except Exception as exc:
                    raise RunError(
                        f"run failed: policy={entry.policy_id} grid={grid_key!r} "
                        f"run={run_idx} seed={seed}: {exc}"
                    ) from exc
            final = float(np.mean([run.cum_regret[-1] for run in runs]))
            # strict: ties keep the earlier grid point
            if final < best_final:
                best_key, best_final, best_runs = grid_key, final, runs
            finals.append(final)
        selected[entry.policy_id] = best_key
        if len(points) > 1:
            param = points[0][0].split("=", 1)[0]
            for (grid_key, _), final in zip(points, finals):
                sweep_rows.append((
                    entry.policy_id, param, grid_key.split("=", 1)[1], final,
                    int(grid_key == best_key),
                ))
        summary_rows.extend(_aggregate(entry.policy_id, best_runs, checkpoints))
        traces.extend((run_idx, entry.policy_id, run)
                      for run_idx, run in enumerate(best_runs))
    return BatchResult(summary_rows, sweep_rows, traces, selected)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    """12 significant digits; the sentinels serialize as '-inf' and 'inf'."""
    return f"{x:.12g}"


def _render_summary(rows) -> str:
    lines = ["policy,t,metric,mean,ci_lo,ci_hi"]
    for policy, t, metric, mean, lo, hi in rows:
        lines.append(f"{policy},{t},{metric},{_fmt(mean)},{_fmt(lo)},{_fmt(hi)}")
    return "\n".join(lines) + "\n"


def _render_sweep(rows) -> str:
    lines = ["policy,param,value,mean_final_regret,selected"]
    for policy, param, value, final, sel in rows:
        lines.append(f"{policy},{param},{value},{_fmt(final)},{sel}")
    return "\n".join(lines) + "\n"


def _render_trace(traces) -> str:
    lines = ["run_id,policy,t,tau,covered,inst_regret,cum_regret,undercover,set_size"]
    for run_id, policy, run in traces:
        sizes = repeat("") if run.set_size is None else [
            "" if n < 0 else str(n) for n in run.set_size.tolist()]
        rounds = zip(run.tau.tolist(), run.covered.tolist(), run.inst_regret.tolist(),
                     run.cum_regret.tolist(), run.undercover.tolist(), sizes)
        for t, (tau, covered, inst, cum, under, size) in enumerate(rounds, start=1):
            lines.append(
                f"{run_id},{policy},{t},{_fmt(tau)},{int(covered)},"
                f"{_fmt(inst)},{_fmt(cum)},{int(under)},{size}"
            )
    return "\n".join(lines) + "\n"


def emit_csv(result: BatchResult, cfg: ExperimentConfig) -> dict[str, str]:
    """Write summary/sweep/trace CSVs plus the timestamp sidecar.

    Every body is rendered and written to a temporary file in the output
    directory before any is moved into place with `os.replace`, so a
    failure leaves the earlier result files whole, never a truncated one.
    """
    if not result.summary_rows:
        raise ValueError("nothing to emit: empty batch result")
    bodies = {"summary.csv": _render_summary(result.summary_rows)}
    if result.sweep_rows:
        bodies["sweep.csv"] = _render_sweep(result.sweep_rows)
    if cfg.trace:
        bodies["trace.csv"] = _render_trace(result.traces)
    meta = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "selected": result.selected,
        "alpha": cfg.alpha,
        "horizon": cfg.horizon,
        "runs": cfg.runs,
        "seed": cfg.seed,
    }
    bodies["meta.json"] = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    temps: dict[str, str] = {}
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        for name, body in bodies.items():
            temps[name] = os.path.join(cfg.out_dir, f".{name}.{os.getpid()}.tmp")
            with open(temps[name], "w", encoding="utf-8", newline="") as fh:
                fh.write(body)
        written = {name: os.path.join(cfg.out_dir, name) for name in bodies}
        for name, temp in temps.items():
            os.replace(temp, written[name])
    except OSError as exc:
        for temp in temps.values():
            with contextlib.suppress(OSError):
                os.remove(temp)
        raise OutputError(f"cannot write results to {cfg.out_dir!r}: {exc}") from exc
    return written
