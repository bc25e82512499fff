"""Experiment orchestration: configs, run grids, aggregation, CSV output.

A benchmark is described by one INI-style config file:

    [experiment]
    alpha = 0.9
    horizon = 10000
    runs = 10
    seed = 0
    out = results
    trace = false
    lambda1 = 0.1
    lambda2 = 10

    [environment]
    kind = synthetic            ; synthetic | score_log | auction
    distribution = uniform
    a = 0.0
    b = 1.0

    [policy:sps]
    kind = sps

Every [experiment] key can be overridden by a CLI flag of the same name.
Environment keys by kind:

    score_log : path, sampling (with_replacement | without_replacement)
    auction   : pool (bid-pool CSV path) or distribution + params, bidders

Policy sections are named ``[policy:<id>]``.  ACI takes ``gamma`` (or
``gamma_grid``, defaulting to the standard grid when absent); ETC and
Con-ETC take ``m`` / ``m_grid``; DLR takes ``tau_init`` (defaulting to
the environment's declared lower score bound when that bound is finite).

`run_single` returns one run as `metrics.RunColumns`: numpy columns tau,
covered and set_size filled per round, plus inst_regret, cum_regret and
undercover derived from them.  Outputs (floats at 12 significant digits,
-inf spelled ``-inf``, +inf ``inf``; each written to a temp file first):

    summary.csv  policy,t,metric,mean,ci_lo,ci_hi
    sweep.csv    policy,param,value,mean_final_regret,selected
    trace.csv    run_id,policy,t,tau,covered,inst_regret,cum_regret,undercover,set_size
    meta.json    timestamp sidecar (the only nondeterministic output)
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import json
import math
import os
import time
import warnings
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .environments import (
    EnvironmentConfigError,
    EnvironmentSpec,
    apply_feedback,
    set_size,
)
from .metrics import LossParams, RunColumns, coverage_rate, undercoverage_count
from .policies import (
    ACI_GAMMA_GRID,
    ETC_M_GRID,
    POLICY_KINDS,
    PolicyConfigError,
    PolicySpec,
)


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration (exit code 1)."""


class RunError(RuntimeError):
    """A run aborted (exit code 2)."""


class OutputError(OSError):
    """Result files could not be written (exit code 3)."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyEntry:
    """One policy section: fixed parameters plus optional sweep grids."""

    policy_id: str
    kind: str
    gamma: float | None = None
    gamma_grid: tuple[float, ...] | None = None
    tau_init: float | None = None
    m: int | None = None
    m_grid: tuple[int, ...] | None = None

    def grid_points(self) -> list[tuple[str, dict]]:
        """(grid_key, spec overrides) pairs; a single point when fixed."""
        if self.kind == "aci":
            if self.gamma is not None:
                return [(f"gamma={self.gamma:g}", {"gamma": self.gamma})]
            grid = self.gamma_grid or ACI_GAMMA_GRID
            return [(f"gamma={g:g}", {"gamma": g}) for g in grid]
        if self.kind in ("etc", "con_etc"):
            if self.m is not None:
                return [(f"m={self.m}", {"explore_rounds": self.m})]
            grid = self.m_grid or ETC_M_GRID
            return [(f"m={m}", {"explore_rounds": m}) for m in grid]
        return [("", {})]


@dataclass
class ExperimentConfig:
    environment: EnvironmentSpec
    policies: list[PolicyEntry]
    alpha: float = 0.9
    horizon: int = 10000
    runs: int = 10
    seed: int = 0
    loss: LossParams = field(default_factory=LossParams)
    out_dir: str = "results"
    trace: bool = False

    def validate(self) -> None:
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if self.horizon < 2:
            raise ConfigError(f"horizon must be >= 2, got {self.horizon}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0,1), got {self.alpha}")
        if not self.policies:
            raise ConfigError("at least one [policy:*] section is required")
        try:
            self.environment.validate()
        except EnvironmentConfigError as exc:
            raise ConfigError(str(exc)) from exc
        # surface per-policy parameter errors (grids included) at config time
        for entry in self.policies:
            for _, overrides in entry.grid_points():
                try:
                    self.policy_spec(entry, overrides)
                except PolicyConfigError as exc:
                    raise ConfigError(f"[policy:{entry.policy_id}] {exc}") from exc

    def policy_spec(self, entry: PolicyEntry, overrides: dict) -> PolicySpec:
        tau_init = entry.tau_init
        if entry.kind == "dlr" and tau_init is None:
            lo = self.environment.build().score_range[0]
            if not math.isfinite(lo):
                raise PolicyConfigError(
                    "dlr needs tau_init: environment score range is unbounded below"
                )
            tau_init = lo
        return PolicySpec(
            kind=entry.kind,
            alpha=self.alpha,
            horizon=self.horizon,
            tau_init=tau_init,
            gamma=overrides.get("gamma", entry.gamma),
            explore_rounds=overrides.get("explore_rounds", entry.m),
        )


def _get_float(section, key, default=None):
    raw = section.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing required key {key!r} in [{section.name}]")
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {key} = {raw!r}: not a number") from exc


def _get_int(section, key, default=None):
    raw = section.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing required key {key!r} in [{section.name}]")
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {key} = {raw!r}: not an integer") from exc


def _get_bool(section, key, default):
    raw = section.get(key)
    if raw is None:
        return default
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"[{section.name}] {key} = {raw!r}: not a boolean")


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split(",") if v.strip())


_DIST_PARAM_KEYS = ("a", "b", "mu", "sigma", "p", "q")


def _parse_environment(section, base_dir: str) -> EnvironmentSpec:
    kind = section.get("kind")
    if kind is None:
        raise ConfigError("[environment] requires a 'kind' key")
    dist = section.get("distribution")
    params: dict = {}
    for key in _DIST_PARAM_KEYS:
        if key in section:
            params[key] = _get_float(section, key)
    if "atoms" in section:
        params["atoms"] = _float_list(section["atoms"])
    if "weights" in section:
        params["weights"] = _float_list(section["weights"])
    path = section.get("path") or section.get("pool")
    if path is not None and not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    sampling = section.get("sampling", "with_replacement")
    if sampling not in ("with_replacement", "without_replacement"):
        raise ConfigError(f"[environment] unknown sampling mode {sampling!r}")
    return EnvironmentSpec(
        kind=kind,
        distribution=dist,
        dist_params=params,
        path=path,
        with_replacement=(sampling == "with_replacement"),
        bidders=_get_int(section, "bidders", 2),
    )


def _parse_policy(section) -> PolicyEntry:
    policy_id = section.name.split(":", 1)[1]
    kind = section.get("kind", policy_id)
    if kind not in POLICY_KINDS:
        raise ConfigError(f"[{section.name}] unknown policy kind {kind!r}")
    return PolicyEntry(
        policy_id=policy_id,
        kind=kind,
        gamma=_get_float(section, "gamma") if "gamma" in section else None,
        gamma_grid=_float_list(section["gamma_grid"]) if "gamma_grid" in section else None,
        tau_init=_get_float(section, "tau_init") if "tau_init" in section else None,
        m=_get_int(section, "m") if "m" in section else None,
        m_grid=tuple(int(v) for v in _float_list(section["m_grid"]))
        if "m_grid" in section else None,
    )


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a config file; `overrides` mirrors CLI flags."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if "environment" not in parser:
        raise ConfigError("config needs an [environment] section")
    base_dir = os.path.dirname(os.path.abspath(path))
    exp = parser["experiment"] if "experiment" in parser else parser["DEFAULT"]
    overrides = overrides or {}

    alpha = float(overrides.get("alpha", _get_float(exp, "alpha", 0.9)))
    cfg = ExperimentConfig(
        environment=_parse_environment(parser["environment"], base_dir),
        policies=[
            _parse_policy(parser[name])
            for name in parser.sections()
            if name.startswith("policy:")
        ],
        alpha=alpha,
        horizon=int(overrides.get("horizon", _get_int(exp, "horizon", 10000))),
        runs=int(overrides.get("runs", _get_int(exp, "runs", 10))),
        seed=int(overrides.get("seed", _get_int(exp, "seed", 0))),
        loss=LossParams(
            lambda1=_get_float(exp, "lambda1", 0.1),
            lambda2=_get_float(exp, "lambda2", 10.0),
            alpha=alpha,
        ),
        out_dir=str(overrides.get("out", exp.get("out", "results"))),
        trace=bool(overrides.get("trace", _get_bool(exp, "trace", False))),
    )
    if "policy" in overrides and overrides["policy"] is not None:
        wanted = overrides["policy"]
        cfg.policies = [p for p in cfg.policies if p.policy_id == wanted]
        if not cfg.policies:
            raise ConfigError(f"no [policy:{wanted}] section in config")
    cfg.validate()
    return cfg


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


def run_single(cfg: ExperimentConfig, spec: PolicySpec, seed: int) -> RunColumns:
    """One (environment, policy, seed) trajectory of exactly T rounds."""
    env = cfg.environment.build()
    rng = np.random.default_rng(seed)
    policy = spec.build()
    taus = np.empty(cfg.horizon)
    covered = np.empty(cfg.horizon, dtype=bool)
    sizes = np.empty(cfg.horizon, dtype=np.int64)
    for i in range(cfg.horizon):
        tau = policy.propose()
        sample = env.next_round(rng)
        fb = apply_feedback(tau, sample.score)
        policy.update(fb)
        taus[i] = tau
        covered[i] = fb.observed
        size = set_size(sample, tau)
        sizes[i] = -1 if size is None else size
    return RunColumns.derive(taus, covered, sizes if (sizes >= 0).any() else None,
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
