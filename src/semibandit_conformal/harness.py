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
Environment keys by kind (besides ``kind``):

    synthetic : distribution + params (a b | mu sigma | p q | atoms weights)
    score_log : path, sampling (with_replacement | without_replacement)
    auction   : pool (bid-pool CSV path) or distribution + params, bidders

Policy sections are named ``[policy:<id>]``.  ACI takes ``gamma`` or
``gamma_grid`` (the standard grid when both are absent); ETC and Con-ETC
take ``m`` or ``m_grid``; DLR takes ``tau_init`` (defaulting to the
environment's declared lower score bound when that bound is finite).
A section, or a key, that nothing reads is a config error, and so is an
empty grid; a ``[DEFAULT]`` key must be one some section reads, and is
exempt where it is spread into a section that does not.

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
    DISTRIBUTION_PARAMS,
    EnvironmentConfigError,
    EnvironmentSpec,
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
    """One experiment; `loss` defaults to the loss at this config's alpha."""

    environment: EnvironmentSpec
    policies: list[PolicyEntry]
    alpha: float = 0.9
    horizon: int = 10000
    runs: int = 10
    seed: int = 0
    loss: LossParams | None = None
    out_dir: str = "results"
    trace: bool = False
    # (spec, environment built from it), shared by config-time lookups and runs
    _built: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.loss is None and 0.0 < self.alpha < 1.0:
            self.loss = LossParams(alpha=self.alpha)

    def validate(self) -> None:
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if self.horizon < 2:
            raise ConfigError(f"horizon must be >= 2, got {self.horizon}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0,1), got {self.alpha}")
        if self.loss.alpha != self.alpha:
            raise ConfigError(
                f"loss alpha {self.loss.alpha} differs from the experiment alpha {self.alpha}"
            )
        if not self.policies:
            raise ConfigError("at least one [policy:*] section is required")
        try:
            env = self.built_environment()
        except EnvironmentConfigError as exc:
            raise ConfigError(str(exc)) from exc
        env_spec = self.environment
        if env_spec.kind == "score_log" and not env_spec.with_replacement \
                and len(env.rows) < self.horizon:
            raise ConfigError(
                f"score log {env_spec.path} has {len(env.rows)} rows: too few to "
                f"sample {self.horizon} rounds without replacement"
            )
        # surface per-policy parameter errors (grids included) at config time
        for entry in self.policies:
            for fixed, name in (("gamma", "gamma_grid"), ("m", "m_grid")):
                grid = getattr(entry, name)
                if grid is not None and getattr(entry, fixed) is not None:
                    raise ConfigError(
                        f"[policy:{entry.policy_id}] sets both {fixed} and {name}; "
                        f"{fixed} alone would run"
                    )
                if grid is not None and not grid:
                    raise ConfigError(f"[policy:{entry.policy_id}] {name} is empty")
                grid = grid or ()
                repeated = next((v for i, v in enumerate(grid) if v in grid[:i]), None)
                if repeated is not None:
                    raise ConfigError(
                        f"[policy:{entry.policy_id}] {name} repeats {repeated:g}"
                    )
            for _, overrides in entry.grid_points():
                try:
                    self.policy_spec(entry, overrides)
                except PolicyConfigError as exc:
                    raise ConfigError(f"[policy:{entry.policy_id}] {exc}") from exc

    def built_environment(self):
        """The environment built once from the current spec.

        Config-time lookups such as the score range and every run share it:
        `draw` leaves an environment unchanged, so a score log is parsed
        once per batch.
        """
        if self._built is None or self._built[0] is not self.environment:
            self._built = (self.environment, self.environment.build())
        return self._built[1]

    def policy_spec(self, entry: PolicyEntry, overrides: dict) -> PolicySpec:
        tau_init = entry.tau_init
        if entry.kind == "dlr" and tau_init is None:
            lo = self.built_environment().score_range[0]
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


def _convert(section, key, raw, convert):
    """`convert(raw)`, or a ConfigError naming the key when that fails."""
    try:
        return convert(raw)
    except ValueError as exc:
        what = "an integer" if convert is int else "a number"
        raise ConfigError(f"[{section.name}] {key} = {raw!r}: not {what}") from exc


def _get(section, key, convert, default=None):
    """`key` through `convert`; `default` when the key is absent."""
    raw = section.get(key)
    return default if raw is None else _convert(section, key, raw, convert)


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


def _get_list(section, key, convert):
    """The comma-separated values of `key` through `convert`; None when absent."""
    raw = section.get(key)
    if raw is None:
        return None
    return tuple(_convert(section, key, v.strip(), convert)
                 for v in raw.split(",") if v.strip())


def _reject_unread_keys(section, reads, defaults) -> None:
    """ConfigError for a key of `section` outside `reads` (DEFAULT keys aside)."""
    unread = sorted(set(section) - set(reads) - set(defaults))
    if unread:
        raise ConfigError(
            f"[{section.name}] unknown key {unread[0]!r}; this section reads "
            f"{', '.join(reads)}"
        )


_EXPERIMENT_KEYS = ("alpha", "horizon", "runs", "seed", "out", "trace", "lambda1", "lambda2")
# environment keys by kind; the named distribution's parameters come on top
_ENVIRONMENT_KEYS = {"synthetic": ("kind", "distribution"),
                     "score_log": ("kind", "path", "sampling"),
                     "auction": ("kind", "pool", "bidders", "distribution")}
_LIST_PARAMS = ("atoms", "weights")
_POLICY_KEYS = {"aci": ("gamma", "gamma_grid"), "dlr": ("tau_init",),
                "etc": ("m", "m_grid"), "con_etc": ("m", "m_grid")}
_ANY_SECTION_KEYS = set(_EXPERIMENT_KEYS).union(
    *_ENVIRONMENT_KEYS.values(), *DISTRIBUTION_PARAMS.values(), *_POLICY_KEYS.values())


def _parse_environment(section, base_dir: str, defaults) -> EnvironmentSpec:
    kind = section.get("kind")
    if kind is None:
        raise ConfigError("[environment] requires a 'kind' key")
    if kind not in _ENVIRONMENT_KEYS:
        raise ConfigError(f"[environment] unknown kind {kind!r}")
    dist = section.get("distribution")
    if dist is not None and dist not in DISTRIBUTION_PARAMS:
        raise ConfigError(f"[environment] unknown distribution {dist!r}")
    param_keys = DISTRIBUTION_PARAMS.get(dist, ())
    _reject_unread_keys(section, _ENVIRONMENT_KEYS[kind] + param_keys, defaults)
    if "pool" in section and dist is not None:
        raise ConfigError("[environment] sets both pool and distribution; pool alone would run")
    params = {key: _get_list(section, key, float) if key in _LIST_PARAMS
              else _get(section, key, float) for key in param_keys if key in section}
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
        bidders=_get(section, "bidders", int, 2),
    )


def _parse_policy(section, defaults) -> PolicyEntry:
    policy_id = section.name.split(":", 1)[1]
    kind = section.get("kind", policy_id)
    if kind not in POLICY_KINDS:
        raise ConfigError(f"[{section.name}] unknown policy kind {kind!r}")
    _reject_unread_keys(section, ("kind",) + _POLICY_KEYS.get(kind, ()), defaults)
    return PolicyEntry(
        policy_id=policy_id,
        kind=kind,
        gamma=_get(section, "gamma", float),
        gamma_grid=_get_list(section, "gamma_grid", float),
        tau_init=_get(section, "tau_init", float),
        m=_get(section, "m", int),
        m_grid=_get_list(section, "m_grid", int),
    )


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a config file; `overrides` mirrors CLI flags."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if "environment" not in parser:
        raise ConfigError("config needs an [environment] section")
    for name in parser.sections():
        if name not in ("experiment", "environment") and not name.startswith("policy:"):
            raise ConfigError(f"unknown section [{name}]")
    defaults = parser.defaults()
    unread = sorted(set(defaults) - _ANY_SECTION_KEYS)
    if unread:
        raise ConfigError(f"[DEFAULT] unknown key {unread[0]!r}; no section reads it")
    base_dir = os.path.dirname(os.path.abspath(path))
    exp = parser["experiment"] if "experiment" in parser else parser["DEFAULT"]
    _reject_unread_keys(exp, _EXPERIMENT_KEYS, defaults)
    overrides = overrides or {}

    alpha = float(overrides.get("alpha", _get(exp, "alpha", float, 0.9)))
    cfg = ExperimentConfig(
        environment=_parse_environment(parser["environment"], base_dir, defaults),
        policies=[
            _parse_policy(parser[name], defaults)
            for name in parser.sections()
            if name.startswith("policy:")
        ],
        alpha=alpha,
        horizon=int(overrides.get("horizon", _get(exp, "horizon", int, 10000))),
        runs=int(overrides.get("runs", _get(exp, "runs", int, 10))),
        seed=int(overrides.get("seed", _get(exp, "seed", int, 0))),
        loss=LossParams(
            lambda1=_get(exp, "lambda1", float, 0.1),
            lambda2=_get(exp, "lambda2", float, 10.0),
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


# Rounds per Python list taken from the score column: a list of the whole
# column would hold T float objects at once.
BLOCK_ROUNDS = 4096


def run_single(cfg: ExperimentConfig, spec: PolicySpec, seed: int) -> RunColumns:
    """One (environment, policy, seed) trajectory of exactly T rounds.

    The environment draws all T scores up front; the loop then plays the
    policy over them with semi-bandit feedback (the score when it clears
    tau, else None).  Coverage and set sizes follow from the columns.
    """
    env = cfg.built_environment()
    scores, candidates = env.draw(np.random.default_rng(seed), cfg.horizon)
    policy = spec.build()
    taus = np.empty(cfg.horizon)
    for start in range(0, cfg.horizon, BLOCK_ROUNDS):
        block = []
        for score in scores[start:start + BLOCK_ROUNDS].tolist():
            tau = policy.tau
            block.append(tau)
            policy.update(score if score >= tau else None)
        taus[start:start + len(block)] = block
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
